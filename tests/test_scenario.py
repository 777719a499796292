import statistics

import pytest

from sfcsched.errors import ValidationError
from sfcsched.scenario import (MAX_REQUEST_COUNT, Scenario, generate_workload,
                               sample_service_defs)


def test_empty_workload():
    assert generate_workload(Scenario(request_count=0)) == []


def test_workload_deterministic_by_seed():
    sc = Scenario(request_count=500, rng_seed=77)
    assert generate_workload(sc) == generate_workload(sc)
    other = generate_workload(sc.with_overrides(rng_seed=78))
    assert other != generate_workload(sc)


def test_mean_interarrival_matches_rate():
    sc = Scenario(request_count=10_000, arrival_rate_rps=100.0, rng_seed=5)
    reqs = generate_workload(sc)
    gaps = [b.arrival_time_ms - a.arrival_time_ms for a, b in zip(reqs, reqs[1:])]
    gaps.insert(0, reqs[0].arrival_time_ms)
    assert statistics.mean(gaps) == pytest.approx(10.0, rel=0.05)


def test_arrival_window_scales_rate():
    sc = Scenario(request_count=2000, arrival_window_s=10.0, rng_seed=5)
    assert sc.effective_rate_rps() == 200.0
    reqs = generate_workload(sc)
    # arrivals span roughly the configured window
    assert reqs[-1].arrival_time_ms == pytest.approx(10_000.0, rel=0.2)


def test_request_fields_within_ranges():
    sc = Scenario(request_count=300, rng_seed=9)
    chain_ids = {c.chain_id for c in sc.chains}
    for req in generate_workload(sc):
        assert req.chain_id in chain_ids
        assert sc.sla_delay_range_ms[0] <= req.delay_sla_ms <= sc.sla_delay_range_ms[1]
        assert sc.sla_cost_range[0] <= req.cost_sla <= sc.sla_cost_range[1]


def test_service_defs_within_ranges_and_stable():
    sc = Scenario(rng_seed=4)
    defs = sample_service_defs(sc)
    assert sorted(defs) == list(range(1, 21))
    for d in defs.values():
        assert 10.0 <= d.exec_time_ms <= 100.0
        assert 5.0 <= d.data_out_kb <= 20.0
        assert d.cores in sc.service_cores_choices
    assert sample_service_defs(sc) == defs
    # service defs do not depend on the demand count or policy
    assert sample_service_defs(sc.with_overrides(request_count=9000,
                                                 policy="mfdt")) == defs


@pytest.mark.parametrize("field,value", [
    ("background_load_fraction", 1.2),
    ("background_load_fraction", -0.1),
    ("arrival_rate_rps", 0.0),
    ("policy", "slowest_first"),
    ("sla_delay_range_ms", (500.0, 100.0)),
    ("request_count", -2),
    ("service_cores_choices", ()),
])
def test_scenario_validation_rejects(field, value):
    with pytest.raises(ValidationError):
        Scenario(**{field: value}).validate()


def test_clock_rule_keeps_every_resolvable_horizon():
    # the largest horizons the benchmark, the acceptance suite and the count
    # bound give, and a window with no requests
    for sc in (Scenario(request_count=5000, arrival_window_s=30.0),
               Scenario(request_count=MAX_REQUEST_COUNT),
               Scenario(request_count=0, arrival_window_s=30.0),
               Scenario(request_count=0)):
        sc.validate()
    with pytest.raises(ValidationError, match="workload.arrival_window_s"):
        Scenario(arrival_window_s=30.0, exec_time_range_ms=(1e-9, 1.0)).validate()
    with pytest.raises(ValidationError, match="workload.arrival_rate_rps"):
        Scenario(arrival_rate_rps=1e-300).validate()  # the horizon overflows
