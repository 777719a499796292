"""Scenario configuration and seeded workload generation.

A scenario bundles everything one simulation run needs: topology and catalog
specs, the chain set, workload parameters, SLA ranges and the policy to run.
All randomness is derived from ``rng_seed``, so two runs of the same scenario
are identical.
"""

import random
import sys
from dataclasses import dataclass, field, replace

from .chains import MicroServiceDef, UserRequest, canonical_sfcs
from .errors import ValidationError
from .fws import WeightParams
from .greedy import GREEDY_POLICIES
from .infrastructure import (CORE_LINK_MU_PPS, CORE_VM_SLOTS, DEFAULT_PACKET_KB,
                             DEFAULT_RHO_MAX, MICRO_LINK_MU_PPS, MICRO_VM_SLOTS,
                             default_catalog, default_topology)

POLICY_NAMES = ("fws", *GREEDY_POLICIES)
# Count bounds, so every valid file runs to an end: 2,000x the paper's top
# demand point, and nodes whose all-pairs route table builds in about 1 s.
MAX_REQUEST_COUNT = 10_000_000
MAX_NODE_COUNT = 500


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
            _require(_is_int(getattr(self, name)), f"topology.{name}",
                     "must be an integer")
        # every core cloud fronts at least one micro-cloud
        _require(self.core_count >= 1, "topology.core_count", "must be >= 1")
        _require(self.micro_count >= self.core_count, "topology.micro_count",
                 "must be >= core_count")
        _require(self.micro_count + self.core_count <= MAX_NODE_COUNT,
                 "topology.micro_count", f"plus core_count must be <= {MAX_NODE_COUNT}")
        _require(self.micro_slots >= 1, "topology.micro_slots", "must be >= 1")
        _require(self.core_slots >= 1, "topology.core_slots", "must be >= 1")
        for name in ("micro_link_mu_pps", "core_link_mu_pps", "packet_kb"):
            value = getattr(self, name)
            _require(_is_number(value) and value > 0, f"topology.{name}",
                     "must be a positive number")
        _require(_is_number(self.rho_max) and 0 < self.rho_max < 1,
                 "topology.rho_max", "must lie in (0, 1)")
        for name in ("micro_link_mu_pps", "core_link_mu_pps"):
            # below the smallest normal float, rho_max * mu can round up to mu
            # and the delay clamp no longer holds a link below saturation
            _require(getattr(self, name) >= sys.float_info.min, f"topology.{name}",
                     f"must be at least {sys.float_info.min}")


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
        _require(_is_int(self.request_count)
                 and 0 <= self.request_count <= MAX_REQUEST_COUNT,
                 "workload.request_count",
                 f"must be an integer in [0, {MAX_REQUEST_COUNT}]")
        _require(_is_number(self.arrival_rate_rps) and self.arrival_rate_rps > 0,
                 "workload.arrival_rate_rps", "must be a positive number")
        if self.arrival_window_s is not None:
            _require(_is_number(self.arrival_window_s) and self.arrival_window_s > 0,
                     "workload.arrival_window_s", "must be a positive number")
        _check_range(self.sla_delay_range_ms, "workload.sla_delay_range_ms")
        _check_range(self.sla_cost_range, "workload.sla_cost_range")
        _check_range(self.exec_time_range_ms, "workload.exec_time_range_ms")
        _check_range(self.data_out_range_kb, "workload.data_out_range_kb")
        _check_range(self.service_memory_range_gb, "workload.service_memory_range_gb")
        cores = self.service_cores_choices
        _require(_is_list(cores) and len(cores) > 0
                 and all(_is_int(c) and c >= 1 for c in cores),
                 "workload.service_cores_choices", "must list integers >= 1")
        _require(_is_number(self.background_load_fraction)
                 and 0 <= self.background_load_fraction < 1,
                 "workload.background_load_fraction", "must lie in [0, 1)")
        _require(_is_int(self.rng_seed), "workload.rng_seed", "must be an integer")
        _require(self.policy in POLICY_NAMES, "workload.policy",
                 f"must be one of {', '.join(POLICY_NAMES)}")
        _require(_is_number(self.resume_latency_ms) and self.resume_latency_ms >= 0,
                 "fws.resume_latency_ms", "must be a nonnegative number")
        _require(_is_number(self.provision_latency_ms)
                 and self.provision_latency_ms >= 0,
                 "workload.provision_latency_ms", "must be a nonnegative number")
        self.topology_spec.validate()
        _require(len(self.catalog) > 0, "catalog", "must list at least one VM type")
        for idx, vm in enumerate(self.catalog):
            _check_vm_type(vm, f"catalog[{idx}]")
        _require(len(self.chains) > 0, "chains", "must list at least one chain")
        ids = sorted(c.chain_id for c in self.chains)
        _require(len(ids) == len(set(ids)), "chains", "duplicate chain_id")
        return self


def _require(cond, path, message):
    if not cond:
        raise ValidationError(path, message)


def _is_number(value):
    """A finite int or float that converts to a float: the simulation
    computes in floats, so infinity and larger integers cannot enter it."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list(value):
    return isinstance(value, (list, tuple))


def _check_range(rng, path):
    _require(_is_list(rng) and len(rng) == 2
             and all(_is_number(x) for x in rng), path, "must be a [lo, hi] pair")
    lo, hi = rng
    _require(lo > 0 and hi >= lo, path, "must satisfy 0 < lo <= hi")


def _check_vm_type(vm, path):
    _require(isinstance(vm.name, str), f"{path}.name", "must be a string")
    _require(_is_number(vm.memory_gb) and vm.memory_gb > 0, f"{path}.memory_gb",
             "must be a positive number")
    _require(_is_int(vm.cores) and vm.cores >= 1, f"{path}.cores",
             "must be an integer >= 1")
    _require(_is_number(vm.max_bandwidth_mbps) and vm.max_bandwidth_mbps > 0,
             f"{path}.max_bandwidth_mbps", "must be a positive number")
    _require(_is_number(vm.hourly_cost) and vm.hourly_cost >= 0,
             f"{path}.hourly_cost", "must be a nonnegative number")


def sample_service_defs(scenario: Scenario) -> dict:
    """One MicroServiceDef per service id, fixed per scenario seed and shared
    by every request of the run."""
    rng = random.Random(f"{scenario.rng_seed}:services")
    defs = {}
    all_ids = sorted(set().union(*[c.nodes for c in scenario.chains]))
    for sid in all_ids:
        exec_time_ms = rng.uniform(*scenario.exec_time_range_ms)
        data_out_kb = rng.uniform(*scenario.data_out_range_kb)
        # Discarded: a per-service capacity was once drawn here, and
        # random.uniform consumes exactly one random(), so this keeps every
        # later draw, and with it every seeded schedule, as it was.
        rng.random()
        defs[sid] = MicroServiceDef(
            id=sid, exec_time_ms=exec_time_ms, data_out_kb=data_out_kb,
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
