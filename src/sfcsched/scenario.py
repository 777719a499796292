"""Scenario configuration and seeded workload generation.

A scenario bundles everything one simulation run needs: topology and catalog
specs, the chain set, workload parameters, SLA ranges and the policy to run.
All randomness is derived from ``rng_seed``, so two runs of the same scenario
are identical.  The last seeded draw of requests and of service definitions
is reused while the fields it reads are unchanged: each caller gets a fresh
list or dict over the same frozen records.
"""

import functools
import math
import random
from dataclasses import dataclass, field, replace

from .chains import MicroServiceDef, UserRequest, canonical_sfcs
from .errors import (NONNEGATIVE, POSITIVE, ValidationError, check_fields, checked,
                     int_in, is_int, is_number, list_of)
from .fws import WeightParams
from .greedy import GREEDY_POLICIES
from .infrastructure import TopologySpec, default_catalog

POLICY_NAMES = ("fws", *GREEDY_POLICIES)
# 2,000x the paper's top demand point, so every valid file runs to an end.
MAX_REQUEST_COUNT = 10_000_000
# The clock is a float of milliseconds.  Near the end of the workload its
# step, math.ulp of the horizon, must stay this small a fraction of the
# shortest execution time, or finish times round to their dispatch times
# and a run reports zero turnaround and cost.
CLOCK_RESOLUTION = 1e-6

_RANGE = (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
          and all(map(is_number, v)) and 0 < v[0] <= v[1],
          "must be a [lo, hi] pair with 0 < lo <= hi")


@dataclass
class Scenario:
    # workload
    request_count: int = checked(int_in(0, MAX_REQUEST_COUNT), 150)
    arrival_rate_rps: float = checked(POSITIVE, 100.0)
    # When set, the requests arrive over this fixed window instead, so the
    # offered rate scales with the demand count (used by demand sweeps).
    arrival_window_s: float = checked(
        (lambda v: v is None or (is_number(v) and v > 0),
         "must be null or a positive number"), None)
    sla_delay_range_ms: tuple = checked(_RANGE, (300.0, 600.0))
    sla_cost_range: tuple = checked(_RANGE, (0.05, 0.5))
    background_load_fraction: float = checked(
        (lambda v: is_number(v) and 0 <= v < 1, "must lie in [0, 1)"), 0.1)
    rng_seed: int = checked((is_int, "must be an integer"), 42)
    policy: str = checked((lambda v: v in POLICY_NAMES,
                           f"must be one of {', '.join(POLICY_NAMES)}"), "fws")
    # per-service generation ranges
    exec_time_range_ms: tuple = checked(_RANGE, (10.0, 100.0))
    data_out_range_kb: tuple = checked(_RANGE, (5.0, 20.0))
    service_memory_range_gb: tuple = checked(_RANGE, (0.5, 3.5))
    # per-service core demand is drawn uniformly from these choices
    service_cores_choices: tuple = checked(
        list_of(lambda c: is_int(c) and c >= 1, "integers >= 1"), (1, 1, 1, 2))
    # timing constants
    resume_latency_ms: float = checked(NONNEGATIVE, 5.0, section="fws")
    provision_latency_ms: float = checked(NONNEGATIVE, 50.0)
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
        check_fields(self, "workload")
        self.topology_spec.validate()
        if not self.catalog:
            raise ValidationError("catalog", "must list at least one VM type")
        for idx, vm in enumerate(self.catalog):
            check_fields(vm, f"catalog[{idx}]")
        if not self.chains:
            raise ValidationError("chains", "must list at least one chain")
        ids = sorted(c.chain_id for c in self.chains)
        if len(ids) != len(set(ids)):
            raise ValidationError("chains", "duplicate chain_id")
        # the expected horizon; a window alone sets it, even with no requests
        if self.arrival_window_s is not None:
            self.check_horizon(1000.0 * self.arrival_window_s,
                               "workload.arrival_window_s")
        else:
            self.check_horizon(1000.0 * self.request_count / self.arrival_rate_rps,
                               "workload.arrival_rate_rps")
        return self

    def check_horizon(self, horizon_ms, path):
        """Reject an expected horizon too long for the clock to resolve the
        shortest exec time, at ``path``, the field that sets it."""
        if math.ulp(horizon_ms) > CLOCK_RESOLUTION * self.exec_time_range_ms[0]:
            raise ValidationError(
                path, f"gives an expected horizon of {horizon_ms} ms, "
                "too long for the clock to resolve the shortest exec time")


def sample_service_defs(scenario: Scenario) -> dict:
    """One MicroServiceDef per service id, fixed per scenario seed and shared
    by every request of the run: a fresh dict over the last draw's defs when
    the fields the draw reads are unchanged (see ``_draw_service_defs``)."""
    return dict(_draw_service_defs(
        f"{scenario.rng_seed}:services",
        tuple(sorted(set().union(*[c.nodes for c in scenario.chains]))),
        tuple(scenario.exec_time_range_ms), tuple(scenario.data_out_range_kb),
        tuple(scenario.service_memory_range_gb), tuple(scenario.service_cores_choices)))


def generate_workload(scenario: Scenario) -> list:
    """Poisson arrivals: i.i.d. exponential gaps, uniform chain choice and SLAs.
    A fresh list over the last draw's requests when the fields the draw reads
    are unchanged (see ``_draw_workload``)."""
    return list(_draw_workload(
        f"{scenario.rng_seed}:workload", scenario.effective_rate_rps(),
        scenario.request_count, tuple(sorted(c.chain_id for c in scenario.chains)),
        tuple(scenario.sla_delay_range_ms), tuple(scenario.sla_cost_range)))


# The policies of one seed run on the same draws (the sweep runs them back to
# back), so the last draw of each kind is kept.  Each is keyed by exactly the
# values it reads and returns a tuple of frozen records: no caller can alter it.
@functools.lru_cache(maxsize=1)
def _draw_service_defs(seed, service_ids, exec_time_range_ms, data_out_range_kb,
                       service_memory_range_gb, service_cores_choices):
    rng = random.Random(seed)
    defs = []
    for sid in service_ids:
        exec_time_ms = rng.uniform(*exec_time_range_ms)
        data_out_kb = rng.uniform(*data_out_range_kb)
        # Discarded: a per-service capacity was once drawn here, and
        # random.uniform consumes exactly one random(), so this keeps every
        # later draw, and with it every seeded schedule, as it was.
        rng.random()
        defs.append((sid, MicroServiceDef(
            id=sid, exec_time_ms=exec_time_ms, data_out_kb=data_out_kb,
            memory_gb=rng.uniform(*service_memory_range_gb),
            cores=rng.choice(service_cores_choices),
        )))
    return tuple(defs)


@functools.lru_cache(maxsize=1)
def _draw_workload(seed, rate, request_count, chain_ids, sla_delay_range_ms,
                   sla_cost_range):
    rng = random.Random(seed)
    requests = []
    t_ms = 0.0
    for k in range(request_count):
        t_ms += rng.expovariate(rate) * 1000.0
        requests.append(UserRequest(
            request_id=k,
            chain_id=rng.choice(chain_ids),
            arrival_time_ms=t_ms,
            delay_sla_ms=rng.uniform(*sla_delay_range_ms),
            cost_sla=rng.uniform(*sla_cost_range),
        ))
    return tuple(requests)
