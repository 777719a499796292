"""Scenario configuration and seeded workload generation.

A scenario bundles everything one simulation run needs: topology and catalog
specs, the chain set, workload parameters, SLA ranges and the policy to run.
All randomness is derived from ``rng_seed``, so two runs of the same scenario
are identical.
"""

import random
from dataclasses import dataclass, field, replace

from .chains import MicroServiceDef, UserRequest, canonical_sfcs
from .errors import ValidationError
from .fws import WeightParams
from .infrastructure import (CORE_LINK_MU_PPS, CORE_VM_SLOTS, DEFAULT_PACKET_KB,
                             DEFAULT_RHO_MAX, MICRO_LINK_MU_PPS, MICRO_VM_SLOTS,
                             default_catalog, default_topology)

POLICY_NAMES = ("fws", "lfff", "mfff", "lfdt", "mfdt")


@dataclass
class TopologySpec:
    micro_count: int = 16
    core_count: int = 4
    micro_slots: int = MICRO_VM_SLOTS
    core_slots: int = CORE_VM_SLOTS
    micro_link_mu_pps: float = MICRO_LINK_MU_PPS
    core_link_mu_pps: float = CORE_LINK_MU_PPS
    rho_max: float = DEFAULT_RHO_MAX
    packet_kb: float = DEFAULT_PACKET_KB

    def build(self):
        return default_topology(
            self.micro_count, self.core_count, self.micro_slots, self.core_slots,
            self.micro_link_mu_pps, self.core_link_mu_pps,
            rho_max=self.rho_max, packet_kb=self.packet_kb)

    def validate(self):
        for name in ("micro_count", "core_count", "micro_slots", "core_slots"):
            value = getattr(self, name)
            _require(isinstance(value, int) and not isinstance(value, bool),
                     f"topology.{name}", "must be an integer")
        # every core cloud fronts at least one micro-cloud
        _require(self.core_count >= 1, "topology.core_count", "must be >= 1")
        _require(self.micro_count >= self.core_count, "topology.micro_count",
                 "must be >= core_count")
        _require(self.micro_slots >= 1, "topology.micro_slots", "must be >= 1")
        _require(self.core_slots >= 1, "topology.core_slots", "must be >= 1")
        for name in ("micro_link_mu_pps", "core_link_mu_pps", "packet_kb"):
            value = getattr(self, name)
            _require(_is_number(value) and value > 0, f"topology.{name}",
                     "must be a positive number")
        _require(_is_number(self.rho_max) and 0 < self.rho_max < 1,
                 "topology.rho_max", "must lie in (0, 1)")


@dataclass
class Scenario:
    # workload
    request_count: int = 150
    arrival_rate_rps: float = 100.0
    # When set, the requests arrive over this fixed window instead, so the
    # offered rate scales with the demand count (used by demand sweeps).
    arrival_window_s: float = None
    sla_delay_range_ms: tuple = (300.0, 600.0)
    sla_cost_range: tuple = (0.05, 0.5)
    background_load_fraction: float = 0.1
    rng_seed: int = 42
    policy: str = "fws"
    # per-service generation ranges
    exec_time_range_ms: tuple = (10.0, 100.0)
    data_out_range_kb: tuple = (5.0, 20.0)
    capacity_range_rps: tuple = (20.0, 100.0)
    service_memory_range_gb: tuple = (0.5, 3.5)
    # per-service core demand is drawn uniformly from these choices
    service_cores_choices: tuple = (1, 1, 1, 2)
    # timing constants
    resume_latency_ms: float = 5.0
    provision_latency_ms: float = 50.0
    # scheduling
    weights: WeightParams = field(default_factory=WeightParams)
    topology_spec: TopologySpec = field(default_factory=TopologySpec)
    catalog: list = field(default_factory=default_catalog)
    chains: list = field(default_factory=canonical_sfcs)

    def effective_rate_rps(self):
        if self.arrival_window_s is not None:
            return self.request_count / self.arrival_window_s
        return self.arrival_rate_rps

    def with_overrides(self, **kw):
        return replace(self, **kw)

    def validate(self):
        _require(self.request_count >= 0, "workload.request_count", "must be >= 0")
        _require(self.arrival_rate_rps > 0, "workload.arrival_rate_rps",
                 "must be positive")
        if self.arrival_window_s is not None:
            _require(self.arrival_window_s > 0, "workload.arrival_window_s",
                     "must be positive")
        _check_range(self.sla_delay_range_ms, "workload.sla_delay_range_ms")
        _check_range(self.sla_cost_range, "workload.sla_cost_range")
        _check_range(self.exec_time_range_ms, "workload.exec_time_range_ms")
        _check_range(self.data_out_range_kb, "workload.data_out_range_kb")
        _check_range(self.capacity_range_rps, "workload.capacity_range_rps")
        _check_range(self.service_memory_range_gb, "workload.service_memory_range_gb")
        _require(len(self.service_cores_choices) > 0
                 and all(int(c) == c and c >= 1 for c in self.service_cores_choices),
                 "workload.service_cores_choices", "must list integers >= 1")
        _require(0 <= self.background_load_fraction < 1,
                 "workload.background_load_fraction", "must lie in [0, 1)")
        _require(self.policy in POLICY_NAMES, "workload.policy",
                 f"must be one of {', '.join(POLICY_NAMES)}")
        _require(self.resume_latency_ms >= 0, "fws.resume_latency_ms",
                 "must be nonnegative")
        _require(self.provision_latency_ms >= 0, "workload.provision_latency_ms",
                 "must be nonnegative")
        self.topology_spec.validate()
        _require(len(self.catalog) > 0, "catalog", "must list at least one VM type")
        _require(len(self.chains) > 0, "chains", "must list at least one chain")
        ids = sorted(c.chain_id for c in self.chains)
        _require(len(ids) == len(set(ids)), "chains", "duplicate chain_id")
        return self


def _require(cond, path, message):
    if not cond:
        raise ValidationError(path, message)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_range(rng, path):
    _require(len(rng) == 2, path, "must be a [lo, hi] pair")
    lo, hi = rng
    _require(lo > 0 and hi >= lo, path, "must satisfy 0 < lo <= hi")


def sample_service_defs(scenario: Scenario) -> dict:
    """One MicroServiceDef per service id, fixed per scenario seed and shared
    by every request of the run."""
    rng = random.Random(f"{scenario.rng_seed}:services")
    defs = {}
    all_ids = sorted(set().union(*[c.nodes for c in scenario.chains]))
    for sid in all_ids:
        defs[sid] = MicroServiceDef(
            id=sid,
            exec_time_ms=rng.uniform(*scenario.exec_time_range_ms),
            data_out_kb=rng.uniform(*scenario.data_out_range_kb),
            capacity_rps=rng.uniform(*scenario.capacity_range_rps),
            memory_gb=rng.uniform(*scenario.service_memory_range_gb),
            cores=rng.choice(scenario.service_cores_choices),
        )
    return defs


def generate_workload(scenario: Scenario) -> list:
    """Poisson arrivals: i.i.d. exponential gaps, uniform chain choice and SLAs."""
    rng = random.Random(f"{scenario.rng_seed}:workload")
    rate = scenario.effective_rate_rps()
    chain_ids = sorted(c.chain_id for c in scenario.chains)
    requests = []
    t_ms = 0.0
    for k in range(scenario.request_count):
        t_ms += rng.expovariate(rate) * 1000.0
        requests.append(UserRequest(
            request_id=k,
            chain_id=rng.choice(chain_ids),
            arrival_time_ms=t_ms,
            delay_sla_ms=rng.uniform(*scenario.sla_delay_range_ms),
            cost_sla=rng.uniform(*scenario.sla_cost_range),
        ))
    return requests
