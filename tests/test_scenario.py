import statistics

import pytest

from sfcsched.chains import ServiceChain
from sfcsched.errors import ValidationError
from sfcsched.fws import WeightParams
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


def test_a_repeated_draw_returns_fresh_containers_over_the_same_records():
    sc = Scenario(request_count=50, rng_seed=11)
    for draw, records in ((generate_workload, list), (sample_service_defs, dict.values)):
        first, again = draw(sc), draw(sc)
        assert again == first and again is not first
        assert all(a is b for a, b in zip(records(first), records(again), strict=True))
        # a caller's edit stays in its own container
        expected = draw(sc)
        first.clear()
        assert draw(sc) == expected


# A draw reruns when a field it reads changes, and is reused when any other does.
_CHAINS_OF_OTHER_IDS = [ServiceChain(1, {1, 2}, {(1, 2)}),
                        ServiceChain(5, {3}, set())]
_CHAINS_OF_THE_SAME_IDS = [ServiceChain(c, {c}, set()) for c in (1, 2, 3, 4)]
_BOTH_READ = [("rng_seed", 12), ("chains", _CHAINS_OF_OTHER_IDS)]
_WORKLOAD_ONLY = [("request_count", 51), ("arrival_rate_rps", 50.0),
                  ("arrival_window_s", 2.0), ("sla_delay_range_ms", (300.0, 700.0)),
                  ("sla_cost_range", (0.05, 0.6))]
_SERVICES_ONLY = [("exec_time_range_ms", (10.0, 90.0)),
                  ("data_out_range_kb", (5.0, 25.0)),
                  ("service_memory_range_gb", (0.5, 3.0)),
                  ("service_cores_choices", (1, 2))]
_NEITHER_READS = [("policy", "mfdt"), ("background_load_fraction", 0.5),
                  ("weights", WeightParams(alpha_dep=2.0, dependents="immediate"))]


def _shared(draw, field, value):
    """For each record of the draw with ``field`` changed, whether it is the
    record the unchanged draw returned."""
    sc = Scenario(request_count=50, rng_seed=11)
    records = list if draw is generate_workload else dict.values
    before = list(records(draw(sc)))
    after = list(records(draw(sc.with_overrides(**{field: value}))))
    assert before and after
    return [a is b for a, b in zip(before, after)]


_RERUNS = ([(generate_workload, *fv) for fv in _BOTH_READ + _WORKLOAD_ONLY]
           + [(sample_service_defs, *fv) for fv in _BOTH_READ + _SERVICES_ONLY])
_REUSED = ([(generate_workload, *fv) for fv in _NEITHER_READS + _SERVICES_ONLY
            + [("chains", _CHAINS_OF_THE_SAME_IDS)]]
           + [(sample_service_defs, *fv) for fv in _NEITHER_READS + _WORKLOAD_ONLY])


@pytest.mark.parametrize("draw,field,value", _RERUNS)
def test_a_draw_reruns_when_a_field_it_reads_changes(draw, field, value):
    assert not any(_shared(draw, field, value))


@pytest.mark.parametrize("draw,field,value", _REUSED)
def test_a_draw_is_reused_when_only_fields_it_does_not_read_change(draw, field, value):
    assert all(_shared(draw, field, value))


@pytest.mark.parametrize("field,value", [
    ("background_load_fraction", 1.2),
    ("background_load_fraction", -0.1),
    ("arrival_rate_rps", 0.0),
    ("policy", "slowest_first"),
    ("sla_delay_range_ms", (500.0, 100.0)),
    ("request_count", -2),
    ("service_cores_choices", ()),
    # a scenario file cannot give an empty list: its parser refuses one first
    ("catalog", []),
    ("chains", []),
    ("chains", [ServiceChain(1, {1}, set()), ServiceChain(1, {2}, set())]),
])
def test_scenario_validation_rejects(field, value):
    with pytest.raises(ValidationError) as err:
        Scenario(**{field: value}).validate()
    assert err.value.field in (field, f"workload.{field}")


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
