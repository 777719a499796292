import heapq
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sfcsched import engine
from sfcsched.chains import MicroServiceDef, ServiceChain, UserRequest, canonical_sfcs
from sfcsched.engine import SimulationRun, run
from sfcsched.fws import LabeledService, WeightParams, select_machine_fws
from sfcsched.greedy import GREEDY_POLICIES, greedy_select_machine
from sfcsched.infrastructure import Machine, Topology, VmType, default_catalog
from sfcsched.metrics import validate_run
from sfcsched.scenario import POLICY_NAMES, Scenario, TopologySpec


def single_service_scenario(policy="fws"):
    chain = ServiceChain(1, {7}, set())
    return Scenario(policy=policy, chains=[chain], request_count=1)


def test_single_service_turnaround_is_exec_plus_constants():
    sc = single_service_scenario()
    defs = {7: MicroServiceDef(7, 40.0, 10.0, 1.0, 1)}
    reqs = [UserRequest(0, 1, 0.0, 1000.0, 10.0)]
    sim = SimulationRun(sc, requests=reqs, service_defs=defs)
    report = sim.execute()
    expected = sc.provision_latency_ms + sc.resume_latency_ms + 40.0
    assert report.per_request[0].turnaround_ms == pytest.approx(expected)
    assert report.total_traffic_kb == 0.0
    assert report.satisfied_pct == 100.0
    assert len(sim.machines) == 1


def test_resume_latency_delays_start_exactly():
    sc = single_service_scenario().with_overrides(resume_latency_ms=5.0)
    defs = {7: MicroServiceDef(7, 40.0, 10.0, 1.0, 1)}
    reqs = [UserRequest(0, 1, 0.0, 1000.0, 10.0)]
    sim = SimulationRun(sc, requests=reqs, service_defs=defs)
    sim.execute()
    p = sim.placements[0]
    assert p.start_ms - (p.dispatch_ms + p.boot_wait_ms + p.transfer_ms) == \
        pytest.approx(5.0)


def test_whole_chain_on_one_big_machine_has_zero_traffic():
    chain = ServiceChain(1, {1, 2, 3, 4, 5}, {(1, 2), (2, 3), (3, 4), (3, 5)})
    sc = Scenario(policy="fws", chains=[chain], request_count=1,
                  catalog=[VmType("xlarge", 32.0, 8, 25.0, 0.5)])
    defs = {i: MicroServiceDef(i, 20.0 + i, 10.0, 1.0, 1) for i in chain.nodes}
    reqs = [UserRequest(0, 1, 0.0, 5000.0, 10.0)]
    sim = SimulationRun(sc, requests=reqs, service_defs=defs)
    report = sim.execute()
    assert report.total_traffic_kb == 0.0
    assert len({p.machine_id for p in sim.placements}) == 1
    validate_run(sim)


def test_affinity_fires_when_predecessor_machine_has_room():
    # linear chain on 1-core machines: every hop reuses the freed machine
    chain = ServiceChain(1, {1, 2, 3}, {(1, 2), (2, 3)})
    sc = Scenario(policy="fws", chains=[chain], request_count=1)
    defs = {i: MicroServiceDef(i, 30.0, 10.0, 1.0, 1) for i in chain.nodes}
    reqs = [UserRequest(0, 1, 0.0, 5000.0, 10.0)]
    sim = SimulationRun(sc, requests=reqs, service_defs=defs)
    report = sim.execute()
    assert len({p.machine_id for p in sim.placements}) == 1
    assert report.total_traffic_kb == 0.0


def test_precedence_timing_with_transfer():
    # two-service chain forced onto different machines by a 1-slot-per-node grid
    chain = ServiceChain(1, {1, 2}, {(1, 2)})
    sc = Scenario(policy="lfff", chains=[chain], request_count=2,
                  topology_spec=TopologySpec(micro_count=4, core_count=1))
    defs = {1: MicroServiceDef(1, 50.0, 12.0, 1.8, 1),
            2: MicroServiceDef(2, 50.0, 12.0, 1.8, 1)}
    # second request keeps machine 0 busy when service 2 of request 0 dispatches
    reqs = [UserRequest(0, 1, 0.0, 5000.0, 10.0),
            UserRequest(1, 1, 30.0, 5000.0, 10.0)]
    sim = SimulationRun(sc, requests=reqs, service_defs=defs)
    sim.execute()
    validate_run(sim)
    by_key = {(p.instance_id, p.service_id): p for p in sim.placements}
    first, second = by_key[(0, 1)], by_key[(0, 2)]
    if second.machine_id != first.machine_id:
        assert second.transfer_ms > 0
        assert second.start_ms >= first.finish_ms + second.transfer_ms - 1e-6
    assert second.start_ms >= first.finish_ms


def test_default_scenario_runs_validate_for_every_policy():
    for policy in ("fws", "lfff", "mfff", "lfdt", "mfdt"):
        sc = Scenario(policy=policy, request_count=60, rng_seed=11)
        sim = SimulationRun(sc)
        report = sim.execute()
        validate_run(sim)
        assert 0.0 <= report.satisfied_pct <= 100.0
        assert report.total_cost_per_hour > 0


def test_seed_determinism_bitwise():
    sc = Scenario(policy="mfdt", request_count=80, rng_seed=123)
    runs = []
    for _ in range(2):
        sim = SimulationRun(sc)
        report = sim.execute()
        runs.append((tuple((p.instance_id, p.service_id, p.machine_id,
                            p.start_ms, p.finish_ms) for p in sim.placements),
                     report.total_traffic_kb, report.avg_turnaround_ms,
                     report.satisfied_pct, report.total_cost_per_hour))
    assert runs[0] == runs[1]


def test_no_capacity_drops_request_instead_of_crashing():
    chain = ServiceChain(1, {1}, set())
    topo = TopologySpec(micro_count=1, core_count=1, micro_slots=1, core_slots=1)
    sc = Scenario(policy="fws", chains=[chain], request_count=3,
                  topology_spec=topo)
    defs = {1: MicroServiceDef(1, 1000.0, 10.0, 1.8, 1)}
    reqs = [UserRequest(0, 1, 0.0, 5000.0, 10.0),
            UserRequest(1, 1, 1.0, 5000.0, 10.0),
            UserRequest(2, 1, 2.0, 50.0, 10.0)]  # tight delay SLA
    sim = SimulationRun(sc, requests=reqs, service_defs=defs)
    report = sim.execute()
    assert sim.dropped == 1
    assert sim.completed == 2
    rec = report.per_request[2]
    assert rec.dropped and not rec.satisfied and rec.turnaround_ms is None
    validate_run(sim)


def test_oversized_demand_drops_not_crashes():
    chain = ServiceChain(1, {1}, set())
    sc = Scenario(policy="lfff", chains=[chain], request_count=1)
    defs = {1: MicroServiceDef(1, 50.0, 10.0, 64.0, 32)}
    reqs = [UserRequest(0, 1, 0.0, 100.0, 10.0)]
    sim = SimulationRun(sc, requests=reqs, service_defs=defs)
    report = sim.execute()
    assert sim.dropped == 1 and report.satisfied_pct == 0.0


def test_clock_too_large_to_resolve_hold_spans_still_reports():
    # arrivals 1e70 s apart: each finish time rounds to its dispatch time.
    # Scenario.validate rejects a workload that draws such arrivals, so the
    # requests are given; the cost attribution must still handle zero spans.
    sc = Scenario(request_count=5)
    requests = [UserRequest(k, 1 + k % 4, (k + 1) * 1e73, 450.0, 0.3)
                for k in range(sc.request_count)]
    sim = SimulationRun(sc, requests=requests)
    report = sim.execute()
    assert all(p.finish_ms == p.dispatch_ms for p in sim.placements)
    assert report.total_cost_per_hour > 0
    validate_run(sim)


def test_event_before_now_is_rejected():
    # every event is pushed at `now` plus a nonnegative delay, so one that
    # falls before `now`, however slightly, is a bug and not rounding; the
    # check covers the heap's events and the arrivals alike
    late = math.nextafter(100.0, -math.inf)
    for push in (lambda sim: heapq.heappush(sim._events,
                                            (late, engine.EVENT_START, 0, None)),
                 lambda sim: sim._push(late, engine.EVENT_TRANSFER, ((), 0.0)),
                 lambda sim: sim.requests.append(UserRequest(0, 1, late, 450.0, 0.3))):
        sim = SimulationRun(Scenario(request_count=0))
        sim.now = 100.0
        push(sim)
        with pytest.raises(AssertionError, match="out of time order"):
            sim.execute()


def test_equal_time_events_run_boot_transfer_finish_start_arrival():
    sim = SimulationRun(Scenario(request_count=0),
                        requests=[UserRequest(k, 1, t, 450.0, 0.3)
                                  for k, t in enumerate((5.0, 10.0))])
    seen = []
    sim._freed = lambda machine: seen.append((sim.now, "boot"))
    sim._on_finish = lambda *payload: seen.append((sim.now, "finish"))
    sim.topology.end_transfer = lambda *transfer: seen.append((sim.now, "transfer"))
    sim._dispatch = lambda: seen.append((sim.now, "start"))

    def arrival(request):
        seen.append((sim.now, "arrival"))
        sim.completed += 1  # the report checks that no request is lost

    sim._on_arrival = arrival
    # pushed in reverse rank order, with a start on either side of 10 ms
    for t in (10.0, 5.0, 20.0, 10.0):
        heapq.heappush(sim._events, (t, engine.EVENT_START, 0, None))
    for t in (10.0, 5.0):
        sim._push(t, engine.EVENT_FINISH, ())
        sim._push(t, engine.EVENT_TRANSFER, ((), 0.0))
        sim._push(t, engine.EVENT_BOOT, None)
    sim.execute()
    assert seen == [(5.0, "boot"), (5.0, "transfer"), (5.0, "finish"),
                    (5.0, "start"), (5.0, "arrival"), (10.0, "boot"),
                    (10.0, "transfer"), (10.0, "finish"), (10.0, "start"),
                    (10.0, "start"), (10.0, "arrival"), (20.0, "start")]


def test_unsorted_requests_arrive_in_time_order_then_list_order(monkeypatch):
    chain = ServiceChain(1, {1}, set())
    sc = Scenario(policy="lfff", chains=[chain], request_count=4)
    requests = [UserRequest(rid, 1, at, 5000.0, 10.0)
                for rid, at in ((3, 20.0), (2, 5.0), (0, 5.0), (1, 10.0))]
    arrivals = []
    on_arrival = SimulationRun._on_arrival

    def recording(self, request):
        arrivals.append((self.now, request.request_id))
        on_arrival(self, request)

    monkeypatch.setattr(SimulationRun, "_on_arrival", recording)
    sim = SimulationRun(sc, requests=list(requests),
                        service_defs={1: MicroServiceDef(1, 50.0, 10.0, 1.0, 1)})
    sim.execute()
    assert arrivals == [(5.0, 2), (5.0, 0), (10.0, 1), (20.0, 3)]
    assert sim.arrived == sim.completed == 4
    validate_run(sim)


def test_second_execute_adds_no_arrival_and_reports_the_same():
    sim = SimulationRun(Scenario(policy="fws", request_count=60, rng_seed=4))
    first = sim.execute()
    placements = list(sim.placements)
    assert sim.arrived == 60
    assert sim.execute() == first
    assert sim.arrived == 60 and sim.placements == placements
    validate_run(sim)


def test_finish_pass_at_a_transfer_end_sees_its_links_released():
    # Request 0 holds 1 GB of machine 0 on node 0 for long; request 1's
    # service 1 shares machine 0, and its 2 GB successor waits until
    # request 2 frees machine 1 on node 1 at 10 ms.  A transfer between
    # the two nodes, started by hand, ends at 10 ms too: the finish pass
    # must see its links released.
    two = VmType("two", 2.0, 2, 25.0, 0.1)
    topo = TopologySpec(micro_count=2, core_count=1, micro_slots=1, core_slots=1)
    chains = [ServiceChain(1, {1, 2}, {(1, 2)}), ServiceChain(2, {3}, set()),
              ServiceChain(3, {4}, set())]
    defs = {1: MicroServiceDef(1, 5.0, 100.0, 1.0, 1),
            2: MicroServiceDef(2, 5.0, 10.0, 2.0, 1),
            3: MicroServiceDef(3, 10.0, 10.0, 1.0, 1),
            4: MicroServiceDef(4, 100.0, 10.0, 1.0, 1)}
    # no catalog type covers a demand, so nothing is provisioned
    sc = Scenario(policy="fws", chains=chains, request_count=3, topology_spec=topo,
                  catalog=[VmType("tiny", 0.5, 1, 25.0, 0.01)],
                  resume_latency_ms=0.0)
    requests = [UserRequest(rid, cid, 0.0, 5000.0, 10.0)
                for rid, cid in ((0, 3), (1, 1), (2, 2))]
    sim = SimulationRun(sc, requests=requests, service_defs=defs,
                        initial_machines=[(0, two), (1, two)])
    src, dst = sim.machines
    idle_ms = 100.0 / 25.0 + 1000.0 * sim.topology.path_delay_s(0, 1)
    _, transfer = sim.topology.start_transfer(src, dst, 100.0)
    loaded_ms, probe = sim.topology.start_transfer(src, dst, 100.0)
    sim.topology.end_transfer(*probe)
    assert loaded_ms > idle_ms
    sim._push(10.0, engine.EVENT_TRANSFER, transfer)
    sim.execute()
    succ = next(p for p in sim.placements if (p.instance_id, p.service_id) == (1, 2))
    assert (succ.machine_id, succ.dispatch_ms) == (1, 10.0)
    assert succ.transfers_in == {1: idle_ms}
    validate_run(sim)


def test_link_loads_return_to_background_after_quiescence():
    sc = Scenario(policy="lfdt", request_count=100, rng_seed=3)
    sim = SimulationRun(sc)
    sim.execute()
    for link in sim.topology.links.values():
        assert link.transfer_pps == pytest.approx(0.0, abs=1e-9)
        assert link.background_pps == pytest.approx(
            sc.background_load_fraction * link.mu_pps)


def test_empty_workload():
    report = run(Scenario(request_count=0))
    assert report.total_traffic_kb == 0.0
    assert report.satisfied_pct == 100.0
    assert report.total_cost_per_hour == 0.0


def test_conservation_across_policies():
    for policy in ("fws", "mfff"):
        sc = Scenario(policy=policy, request_count=120, rng_seed=21,
                      sla_delay_range_ms=(80.0, 150.0))  # tight: forces misses
        sim = SimulationRun(sc)
        sim.execute()
        assert sim.completed + sim.dropped == sim.arrived == 120


def test_policies_agree_when_there_is_no_choice():
    # one machine, one chain: every policy co-locates, traffic vanishes
    chain = ServiceChain(1, {1, 2, 3, 4}, {(1, 2), (2, 3), (2, 4)})
    topo = TopologySpec(micro_count=1, core_count=1, micro_slots=1, core_slots=1)
    defs = {i: MicroServiceDef(i, 25.0, 10.0, 1.0, 1) for i in chain.nodes}
    reqs = [UserRequest(0, 1, 0.0, 5000.0, 10.0)]
    for policy in ("fws", "lfff", "mfff", "lfdt", "mfdt"):
        sc = Scenario(policy=policy, chains=[chain], request_count=1,
                      topology_spec=topo,
                      catalog=[VmType("xlarge", 32.0, 8, 25.0, 0.5)])
        sim = SimulationRun(sc, requests=list(reqs), service_defs=defs)
        report = sim.execute()
        assert report.total_traffic_kb == 0.0
        assert len(sim.machines) == 1


def count_selections(monkeypatch, passed=None):
    """Wrap SimulationRun._select_machine; returns the list of demands it
    saw.  The machines each call is passed go to `passed`, if given."""
    seen = []
    select = SimulationRun._select_machine

    def counting(self, entry, preds, machines):
        sdef = self.defs[entry.service_id]
        seen.append((sdef.memory_gb, sdef.cores))
        if passed is not None:
            passed.append(list(machines))
        return select(self, entry, preds, machines)

    monkeypatch.setattr(SimulationRun, "_select_machine", counting)
    return seen


def memoised(sim):
    """The stuck demands whose entries skip selection: no machine freed
    since the last walked pass fits them."""
    return {demand for demand in sim._stuck
            if not any(m.fits(*demand) for m in sim._fresh.values())}


def fresh_at_passes(monkeypatch):
    """Wrap SimulationRun._dispatch; returns the ids in `_fresh` as each
    pass begins."""
    starts = []
    dispatch = SimulationRun._dispatch

    def recording(self):
        starts.append(set(self._fresh))
        dispatch(self)

    monkeypatch.setattr(SimulationRun, "_dispatch", recording)
    return starts


def test_dispatch_skips_a_demand_that_already_failed(monkeypatch):
    # services 1 and 2 exceed every catalog type and outrank service 3
    chain = ServiceChain(1, {1, 2, 3}, set())
    sc = Scenario(policy="fws", chains=[chain], request_count=1)
    defs = {1: MicroServiceDef(1, 90.0, 10.0, 64.0, 1),
            2: MicroServiceDef(2, 80.0, 10.0, 64.0, 1),
            3: MicroServiceDef(3, 20.0, 10.0, 1.0, 1)}
    reqs = [UserRequest(0, 1, 0.0, 5000.0, 10.0)]
    sim = SimulationRun(sc, requests=reqs, service_defs=defs)
    seen = count_selections(monkeypatch)
    sim._on_arrival(reqs[0])  # enqueues all three, then one dispatch
    assert [p.service_id for p in sim.placements] == [3]
    assert seen.count((64.0, 1)) == 1
    assert len(sim.ready) == 2


def test_expired_entry_drops_even_when_its_demand_is_memoised(monkeypatch):
    chain = ServiceChain(1, {1}, set())
    sc = Scenario(policy="lfff", chains=[chain], request_count=3)
    defs = {1: MicroServiceDef(1, 50.0, 10.0, 64.0, 1)}
    reqs = [UserRequest(0, 1, 0.0, 5000.0, 10.0),
            UserRequest(1, 1, 1.0, 5.0, 10.0),     # expires before t = 10
            UserRequest(2, 1, 10.0, 5000.0, 10.0)]
    sim = SimulationRun(sc, requests=reqs, service_defs=defs)
    seen = count_selections(monkeypatch)
    for req in reqs:
        sim.now = req.arrival_time_ms
        sim._on_arrival(req)
    # request 0 fails the demand; nothing frees capacity or finishes
    # booting, so the later passes skip it
    assert len(seen) == 1
    assert [sim.states[i].dropped for i in range(3)] == [False, True, False]
    assert sorted(e.instance_id for e in sim.ready) == [0, 2]


def two_slot_run(chains, defs, catalog=None, **kw):
    """An fws run on two nodes of one VM slot each."""
    topo = TopologySpec(micro_count=1, core_count=1, micro_slots=1, core_slots=1)
    sc = Scenario(policy="fws", chains=chains, request_count=3, topology_spec=topo,
                  catalog=catalog or default_catalog())
    return SimulationRun(sc, requests=[], service_defs=defs, **kw)


def arrive(sim, request_id, chain_id, at_ms):
    sim.now = at_ms
    sim._on_arrival(UserRequest(request_id, chain_id, at_ms, 5000.0, 10.0))


def finish(sim, request_id, service_id, at_ms):
    machine = sim.machines[next(p.machine_id for p in sim.placements
                                if (p.instance_id, p.service_id)
                                == (request_id, service_id))]
    sim.now = at_ms
    sim._on_finish(request_id, service_id, machine)


def test_release_that_fits_a_failed_demand_retries_it(monkeypatch):
    # two 1-core machines fill both nodes; the third request waits
    small = default_catalog()[0]
    sim = two_slot_run([ServiceChain(1, {1}, set())],
                       {1: MicroServiceDef(1, 50.0, 10.0, 1.0, 1)},
                       initial_machines=[(0, small), (1, small)])
    seen = count_selections(monkeypatch)
    fresh = fresh_at_passes(monkeypatch)
    for rid in range(3):
        arrive(sim, rid, 1, 0.0)
    assert sim._stuck == {(1.0, 1)} and sim._fresh == {} and len(seen) == 3
    finish(sim, 0, 1, 50.0)
    assert fresh[-1] == {0} and len(seen) == 4
    assert [(p.instance_id, p.machine_id) for p in sim.placements][-1] == (2, 0)
    assert sim.ready == [] and sim._stuck == set() and sim._fresh == {}


def test_release_that_does_not_fit_keeps_the_demand_memoised(monkeypatch):
    # chain 1 needs 1 GB, chain 2 needs 6 GB; the 6 GB demand fits only
    # on the 8 GB machine, so a release on the 2 GB one changes nothing
    small, large = default_catalog()[0], default_catalog()[2]
    sim = two_slot_run([ServiceChain(1, {1}, set()), ServiceChain(2, {2}, set())],
                       {1: MicroServiceDef(1, 50.0, 10.0, 1.0, 1),
                        2: MicroServiceDef(2, 50.0, 10.0, 6.0, 1)},
                       initial_machines=[(0, small), (1, large)])
    seen = count_selections(monkeypatch)
    arrive(sim, 0, 1, 0.0)
    arrive(sim, 1, 2, 0.0)
    arrive(sim, 2, 2, 1.0)
    assert sim._stuck == {(6.0, 1)} and sim._fresh == {} and len(seen) == 3
    finish(sim, 0, 1, 50.0)
    assert sim._stuck == {(6.0, 1)} and sim._fresh == {} and len(seen) == 3
    assert [e.instance_id for e in sim.ready] == [2]
    finish(sim, 1, 2, 60.0)
    assert len(seen) == 4 and sim.ready == []


def pop_boots(sim, at_ms):
    """Handle the boot events due at `at_ms`, as `execute` would; a boot
    triggers no pass."""
    sim.now = at_ms
    while sim._events and sim._events[0][:2] == (at_ms, engine.EVENT_BOOT):
        sim._freed(heapq.heappop(sim._events)[3])


def test_machine_that_finishes_booting_retries_a_failed_demand(monkeypatch):
    # each request provisions a 4-core machine that boots for 50 ms; with
    # both slots taken, the third waits for a boot, not for a release
    wide = VmType("wide", 4.0, 4, 56.25, 0.2)
    sim = two_slot_run([ServiceChain(1, {1}, set())],
                       {1: MicroServiceDef(1, 500.0, 10.0, 1.0, 1)},
                       catalog=[wide])
    seen = count_selections(monkeypatch)
    for rid in range(3):
        arrive(sim, rid, 1, 0.0)
    assert len(sim.machines) == 2 and sim._stuck == {(1.0, 1)}
    assert len(seen) == 3
    pop_boots(sim, 49.0)
    assert memoised(sim) == {(1.0, 1)} and sim._fresh == {}
    pop_boots(sim, 50.0)
    assert len(seen) == 3 and [e.instance_id for e in sim.ready] == [2]
    assert memoised(sim) == set() and set(sim._fresh) == {0, 1}
    sim._dispatch()
    assert len(seen) == 4 and sim.ready == []
    assert sim.placements[-1].machine_id == 0
    assert sim._stuck == set() and sim._fresh == {}


# 2 GB and 4 cores: one 2 GB service fills the memory and leaves free cores,
# so a full machine stays in `ranked`
NARROW = VmType("narrow", 2.0, 4, 25.0, 0.1)


def test_retry_is_passed_only_the_machine_freed_since_the_failure(monkeypatch):
    sim = two_slot_run([ServiceChain(1, {1}, set())],
                       {1: MicroServiceDef(1, 50.0, 10.0, 2.0, 1)},
                       initial_machines=[(0, NARROW), (1, NARROW)])
    passed = []
    seen = count_selections(monkeypatch, passed)
    for rid in range(3):
        arrive(sim, rid, 1, 0.0)
    assert sim._stuck == {(2.0, 1)} and sim._fresh == {} and len(seen) == 3
    assert passed[2] == sim.ranked == sim.machines
    finish(sim, 1, 1, 50.0)
    assert len(seen) == 4 and passed[3] == [sim.machines[1]]
    assert sim.ranked == sim.machines
    assert sim.placements[-1].machine_id == 1 and sim.ready == []


def test_retry_whose_machines_were_taken_memoises_the_demand_again(monkeypatch):
    # the release on machine 0 fits both failed demands; request 2 outranks
    # request 3 and takes it, so request 3's demand is memoised again
    sim = two_slot_run([ServiceChain(1, {1}, set()), ServiceChain(2, {2}, set())],
                       {1: MicroServiceDef(1, 50.0, 10.0, 2.0, 1),
                        2: MicroServiceDef(2, 50.0, 10.0, 1.5, 1)},
                       initial_machines=[(0, NARROW), (1, NARROW)])
    seen = count_selections(monkeypatch)
    arrive(sim, 0, 1, 0.0)
    arrive(sim, 1, 1, 0.0)
    arrive(sim, 2, 1, 0.0)
    arrive(sim, 3, 2, 1.0)
    assert memoised(sim) == {(2.0, 1), (1.5, 1)} and len(seen) == 4
    finish(sim, 0, 1, 50.0)
    assert seen[4:] == [(2.0, 1)] and sim.placements[-1].instance_id == 2
    assert memoised(sim) == {(1.5, 1)}
    assert [e.instance_id for e in sim.ready] == [3]
    sim.now = 60.0  # below request 3's drop time: the pass skips the walk
    sim._dispatch()
    assert len(seen) == 5 and [e.instance_id for e in sim.ready] == [3]


def test_fresh_machines_stay_within_the_machines_and_each_fits_a_stuck_demand(
        monkeypatch):
    # an overload cell: 200 requests at 2000 rps fill every VM slot
    largest = [0]
    freed = SimulationRun._freed

    def traced(self, machine):
        freed(self, machine)
        # between passes capacity only grows, so each kept machine still fits
        for mid, m in self._fresh.items():
            assert self.machines[mid] is m
            assert any(m.fits(*demand) for demand in self._stuck)
        largest[0] = max(largest[0], len(self._fresh))

    monkeypatch.setattr(SimulationRun, "_freed", traced)
    for policy in ("fws", "lfff"):
        largest[0] = 0
        sim = SimulationRun(Scenario(policy=policy, request_count=200,
                                     arrival_rate_rps=2000.0, rng_seed=100))
        sim.execute()
        assert sim.ready == [] and sim.dropped > 0
        assert 0 < largest[0] <= len(sim.machines)
        validate_run(sim)


def test_release_after_a_pass_that_placed_everything_tests_no_fit(monkeypatch):
    # request 2 fails, then takes machine 0 when request 0 finishes; that
    # pass leaves nothing stuck, so releasing machine 1 needs no fit test
    sim = full_two_slot_run()
    for rid in range(3):
        arrive(sim, rid, 1, 0.0)
    assert sim._stuck == {(1.0, 1)}
    finish(sim, 0, 1, 50.0)
    assert sim.ready == [] and sim._stuck == set()
    fits = []
    fit = Machine.fits

    def counting(machine, memory_gb, cores):
        fits.append(machine.machine_id)
        return fit(machine, memory_gb, cores)

    monkeypatch.setattr(Machine, "fits", counting)
    finish(sim, 1, 1, 60.0)
    assert fits == [] and sim._fresh == {}


def test_simulation_run_has_fewer_than_30_instance_attributes():
    sim = SimulationRun(Scenario(request_count=5))
    sim.execute()
    assert len(vars(sim)) < 30, (
        "a 30th instance attribute slows every `self.` access on CPython 3.11: "
        "one dummy attribute cost about 6% on sweep cells; keep new state "
        "inside an existing attribute")


def test_booting_machine_joins_ranked_at_its_boot_pass():
    # its boot event sorts before every pass at its time
    sim = two_slot_run([ServiceChain(1, {1}, set())],
                       {1: MicroServiceDef(1, 500.0, 10.0, 1.0, 1)},
                       catalog=[VmType("wide", 8.0, 4, 25.0, 0.2)])
    arrive(sim, 0, 1, 0.0)
    machine = sim.machines[0]
    assert machine.active_at_ms > 0.0 and machine not in sim.ranked
    assert sim._events[0] == (machine.active_at_ms, engine.EVENT_BOOT, 1, machine)
    pop_boots(sim, machine.active_at_ms)
    assert machine in sim.ranked
    assert all(t > machine.active_at_ms for t, *_ in sim._events)


FINITE = dict(allow_nan=False, allow_infinity=False)


@settings(max_examples=1000, deadline=None, database=None, derandomize=True)
@given(arrival=st.one_of(st.integers(0, 10**6).map(float),
                         st.floats(min_value=0.0, **FINITE)),
       sla=st.one_of(st.integers(1, 10**6).map(float),
                     st.floats(min_value=0.0, exclude_min=True, **FINITE)))
@example(arrival=0.0, sla=5e-324)
@example(arrival=0.1, sla=0.2)
@example(arrival=1e16, sla=0.5)
@example(arrival=1.7976931348623157e308, sla=1.7976931348623157e308)
def test_drop_time_is_the_least_expired_now(arrival, sla):
    drop_at = engine._drop_time(arrival, sla)
    # the search starts at the rounded sum and only climbs
    assert drop_at >= arrival + sla
    assert drop_at - arrival > sla
    assert not math.nextafter(drop_at, -math.inf) - arrival > sla


class NoLookups(dict):
    def __getitem__(self, key):
        raise AssertionError(f"the pass looked up request {key}")


class NoWalk(list):
    """A ready queue whose entries, and so their requests, cannot be read."""

    def __iter__(self):
        raise AssertionError("the pass walked the queue")

    def __getitem__(self, index):
        raise AssertionError(f"the pass read queue entry {index}")


def full_two_slot_run():
    """Both VM slots hold a 1-core machine, so 1-core demands queue."""
    small = default_catalog()[0]
    return two_slot_run([ServiceChain(1, {1}, set())],
                        {1: MicroServiceDef(1, 50.0, 10.0, 1.0, 1)},
                        initial_machines=[(0, small), (1, small)])


def test_pass_that_can_change_nothing_reads_no_request():
    sim = full_two_slot_run()
    for rid in range(6):
        arrive(sim, rid, 1, 0.0)
    queue = sim.ready
    assert [e.instance_id for e in queue] == [2, 3, 4, 5]
    assert sim._stuck == {(1.0, 1)} and sim._fresh == {}
    sim.now = 1.0  # no release, no boot, below every drop time
    # each entry carries its request's state, so reading one needs the queue
    states, sim.states = sim.states, NoLookups()
    sim.ready = unreadable = NoWalk(queue)
    sim._dispatch()
    assert sim.ready is unreadable and sim.dropped == 0
    sim.states, sim.ready = states, queue


def test_entry_drops_exactly_at_its_drop_time():
    sim = full_two_slot_run()
    arrive(sim, 0, 1, 0.0)
    arrive(sim, 1, 1, 0.0)
    sim.now = 0.1
    sim._on_arrival(UserRequest(2, 1, 0.1, 0.2, 10.0))
    drop_at = sim.states[2].drop_at
    sim.now = math.nextafter(drop_at, -math.inf)
    sim._dispatch()
    assert [e.instance_id for e in sim.ready] == [2] and sim.dropped == 0
    sim.now = drop_at
    sim._dispatch()
    assert sim.ready == [] and sim.states[2].dropped and sim.dropped == 1


def test_a_failed_demands_later_entries_make_only_their_drop_test(monkeypatch):
    # both machines are full, so every demand fails; the queue is walked
    # once, at the drop time of request 4, whose demand failed earlier in
    # that pass with request 2
    small = default_catalog()[0]
    sim = two_slot_run([ServiceChain(1, {1}, set()), ServiceChain(2, {2}, set())],
                       {1: MicroServiceDef(1, 50.0, 10.0, 1.0, 1),
                        2: MicroServiceDef(2, 50.0, 10.0, 2.0, 1)},
                       initial_machines=[(0, small), (1, small)])
    arrive(sim, 0, 1, 0.0)
    arrive(sim, 1, 1, 0.0)
    assert sim.ready == [] and sim._stuck == set()
    sim._dispatch = lambda: None  # queue the entries below without a pass
    for rid, chain_id, sla in ((2, 1, 5000.0), (3, 2, 4000.0), (4, 1, 0.2),
                               (5, 1, 3000.0)):
        sim._on_arrival(UserRequest(rid, chain_id, 0.0, sla, 10.0))
    del sim._dispatch
    assert [e.instance_id for e in sim.ready] == [2, 3, 4, 5]
    seen = count_selections(monkeypatch)
    sim.now = sim.states[4].drop_at
    sim._dispatch()
    assert seen == [(1.0, 1), (2.0, 1)]  # requests 4 and 5 make no selection
    assert [e.instance_id for e in sim.ready] == [2, 3, 5]
    assert sim.states[4].dropped and sim.dropped == 1
    assert sim._walk_at == sim.states[5].drop_at == min(
        e.state.drop_at for e in sim.ready)
    assert sim._stuck == {(1.0, 1), (2.0, 1)}


def recorded_drops(monkeypatch):
    """(now, request_id) of every drop the run makes, in order."""
    drops = []
    drop = SimulationRun._drop

    def recording(self, state):
        drops.append((self.now, state.request.request_id))
        drop(self, state)

    monkeypatch.setattr(SimulationRun, "_drop", recording)
    return drops


def test_start_pass_drops_an_entry_whose_drop_time_is_that_start(monkeypatch):
    # requests 0 and 1 fill both machines at 0 ms and start exactly at
    # request 2's drop time; the next finish, 50 ms later, would place it
    small = default_catalog()[0]
    drop_at = engine._drop_time(0.0, 40.0)
    topo = TopologySpec(micro_count=1, core_count=1, micro_slots=1, core_slots=1)
    sc = Scenario(policy="fws", chains=[ServiceChain(1, {1}, set())],
                  request_count=3, topology_spec=topo, resume_latency_ms=drop_at)
    sim = SimulationRun(sc, requests=[UserRequest(k, 1, 0.0, 40.0, 10.0)
                                      for k in range(3)],
                        service_defs={1: MicroServiceDef(1, 50.0, 10.0, 1.0, 1)},
                        initial_machines=[(0, small), (1, small)])
    drops = recorded_drops(monkeypatch)
    sim.execute()
    assert [p.start_ms for p in sim.placements] == [drop_at, drop_at]
    assert drops == [(drop_at, 2)]
    validate_run(sim)


def test_start_pass_retries_a_demand_on_a_machine_booted_at_that_start():
    # requests 0 and 1 each provision a 4-core machine that boots for 50 ms
    # and start on it at 50 ms; request 2 failed at 0 ms with both slots
    # taken, and the start pass at 50 ms places it, long before any finish
    wide = VmType("wide", 4.0, 4, 56.25, 0.2)
    topo = TopologySpec(micro_count=1, core_count=1, micro_slots=1, core_slots=1)
    sc = Scenario(policy="fws", chains=[ServiceChain(1, {1}, set())],
                  request_count=3, topology_spec=topo, catalog=[wide],
                  provision_latency_ms=50.0, resume_latency_ms=0.0)
    sim = SimulationRun(sc, requests=[UserRequest(k, 1, 0.0, 5000.0, 10.0)
                                      for k in range(3)],
                        service_defs={1: MicroServiceDef(1, 500.0, 10.0, 1.0, 1)})
    sim.execute()
    assert [(p.instance_id, p.dispatch_ms, p.start_ms) for p in sim.placements] == \
        [(0, 0.0, 50.0), (1, 0.0, 50.0), (2, 50.0, 50.0)]
    assert sim.placements[2].machine_id == 0 and sim.dropped == 0
    validate_run(sim)


def test_placing_a_service_twice_is_rejected():
    chain = ServiceChain(1, {1}, set())
    sc = Scenario(policy="lfff", chains=[chain], request_count=1)
    defs = {1: MicroServiceDef(1, 50.0, 10.0, 1.0, 1)}
    reqs = [UserRequest(0, 1, 0.0, 5000.0, 10.0)]
    sim = SimulationRun(sc, requests=reqs, service_defs=defs)
    sim._on_arrival(reqs[0])  # places service 1
    assert [(p.instance_id, p.service_id) for p in sim.placements] == [(0, 1)]
    entry = LabeledService(instance_id=0, service_id=1, label=1, enqueue_time_ms=0.0,
                           exec_time_ms=50.0, dependents=0, state=sim.states[0],
                           demand=(1.0, 1))
    preds = sim._pred_placements(entry)
    choice = sim._select_machine(entry, preds, sim.ranked)
    assert choice is not None
    with pytest.raises(AssertionError, match="placed twice"):
        sim._place(entry, choice, preds)


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_ready_queue_stays_in_priority_order(monkeypatch, policy):
    # one VM slot per node and a burst of arrivals, so the queue holds
    # entries enqueued at many different times
    sc = Scenario(policy=policy, request_count=60, arrival_rate_rps=2000.0,
                  topology_spec=TopologySpec(micro_count=1, core_count=1,
                                             micro_slots=1, core_slots=1))
    mixed = []

    def checked(method):
        def wrapper(self, *args):
            method(self, *args)
            assert self.ready == sorted(self.ready, key=self._priority_key)
            assert all(e.key == self._priority_key(e) for e in self.ready)
            mixed.append(len({e.enqueue_time_ms for e in self.ready}) > 1)
        return wrapper

    monkeypatch.setattr(SimulationRun, "_enqueue", checked(SimulationRun._enqueue))
    monkeypatch.setattr(SimulationRun, "_dispatch", checked(SimulationRun._dispatch))
    sim = SimulationRun(sc)
    sim.execute()
    validate_run(sim)
    assert sum(mixed) > 100


def queued_dependents(monkeypatch, weights):
    """An fws run's chains, and the dependent counts its queued entries
    carry: {(chain id, service id): {count, ...}}."""
    queued = {}
    dispatch = SimulationRun._dispatch

    def recording(self):
        for e in self.ready:
            queued.setdefault((e.state.request.chain_id, e.service_id), set()).add(
                e.dependents)
        dispatch(self)

    monkeypatch.setattr(SimulationRun, "_dispatch", recording)
    sim = SimulationRun(Scenario(policy="fws", request_count=100, rng_seed=1,
                                 weights=weights))
    sim.execute()
    chains = sim.chains
    # some queued service has more dependents than successors
    assert any(len(chains[cid].successors(sid)) < chains[cid].transitive_dependents(sid)
               for cid, sid in queued)
    return chains, queued


def test_immediate_mode_queues_successor_counts(monkeypatch):
    chains, queued = queued_dependents(monkeypatch, WeightParams(dependents="immediate"))
    assert queued == {(cid, sid): {len(chains[cid].successors(sid))}
                      for cid, sid in queued}


def test_default_mode_queues_transitive_counts(monkeypatch):
    chains, queued = queued_dependents(monkeypatch, WeightParams())
    assert queued == {(cid, sid): {chains[cid].transitive_dependents(sid)}
                      for cid, sid in queued}


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_a_workload_prefix_dispatches_alike_before_its_cut(policy):
    # prefix causality: a run of requests[:k], with the same service
    # definitions, places every service dispatched strictly before request
    # k arrives as the whole workload's run does.  From light load to past
    # saturation, on a small multi-cloud
    cut_before = 0
    for seed, rate_rps in ((1, 100.0), (2, 1000.0), (3, 3000.0)):
        sc = Scenario(policy=policy, rng_seed=seed, request_count=300,
                      arrival_rate_rps=rate_rps,
                      topology_spec=TopologySpec(micro_count=4, core_count=1,
                                                 micro_slots=2, core_slots=3))
        whole = SimulationRun(sc)
        whole.execute()
        for k in (1, 75, 150, 299):
            cut_ms = whole.requests[k].arrival_time_ms
            prefix = SimulationRun(sc, requests=whole.requests[:k], service_defs=whole.defs)
            prefix.execute()
            before = [[p for p in sim.placements if p.dispatch_ms < cut_ms]
                      for sim in (whole, prefix)]
            assert before[0] == before[1], (seed, k)
            cut_before += len(before[0])
    assert cut_before > 1000


@st.composite
def random_chains(draw):
    """One or two small random DAGs over service ids 1..6; ids may repeat
    across chains, as they do in the canonical set."""
    chains = []
    for chain_id in range(1, draw(st.integers(1, 2)) + 1):
        n = draw(st.integers(1, 6))
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        edges = {e for e, keep in zip(pairs, draw(st.lists(
            st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if keep}
        chains.append(ServiceChain(chain_id, set(range(1, n + 1)), edges))
    return chains


# "tiny" fits no demand above 2 GB or 1 core, so some chains wait and drop
CATALOGS = [default_catalog(), [VmType("tiny", 2.0, 1, 25.0, 0.03)],
            [VmType("tiny", 2.0, 1, 25.0, 0.03), VmType("wide", 4.0, 4, 56.25, 0.2)]]


def test_validate_run_replays_link_loads(monkeypatch):
    # every transfer releases its links at once, so none sees another's load
    start_transfer = Topology.start_transfer

    def unloaded(topology, src_machine, dst_machine, data_kb):
        delay_ms, transfer = start_transfer(topology, src_machine, dst_machine, data_kb)
        if transfer is not None:
            topology.end_transfer(*transfer)
        return delay_ms, transfer

    sc = Scenario(policy="fws", request_count=300, rng_seed=1)
    sim = SimulationRun(sc)
    sim.execute()
    validate_run(sim)
    monkeypatch.setattr(Topology, "start_transfer", unloaded)
    sim = SimulationRun(sc)
    sim.execute()
    with pytest.raises(AssertionError, match="replay gives"):
        validate_run(sim)


def test_validate_run_replays_boot_waits():
    sim = SimulationRun(Scenario(policy="lfff", request_count=50, rng_seed=2))
    sim.execute()
    validate_run(sim)
    sim.placements[len(sim.placements) // 2].boot_wait_ms += 1.0
    with pytest.raises(AssertionError, match="boot wait"):
        validate_run(sim)

def test_selection_sees_free_core_machines_in_policy_order(monkeypatch):
    # mixed core counts (a 4-core type, 1-3 core demands) make machines go
    # core-full and come back; preprovisioned machines start in the order.
    # A demand that is not stuck is passed every active free-core machine;
    # a stuck one only those released or booted since the last walked pass,
    # and among them every free-core machine that fits it.
    wide_catalog = CATALOGS[2]
    calls = {"fws": 0, "greedy": 0, "retry": 0}
    freed_since = set()  # ids released or booted since the last walked pass
    freed, dispatch = SimulationRun._freed, SimulationRun._dispatch

    def recording(self, machine):
        freed_since.add(machine.machine_id)
        freed(self, machine)

    def walking(self):
        before = self.ready
        dispatch(self)
        if self.ready is not before:  # the pass walked
            freed_since.clear()

    monkeypatch.setattr(SimulationRun, "_freed", recording)
    monkeypatch.setattr(SimulationRun, "_dispatch", walking)
    for seed in range(200):
        rng = random.Random(seed)
        policy = rng.choice(("fws", "lfff", "mfff"))
        # fws takes the lowest id among equal objectives, so it walks by id
        key = (lambda m: m.machine_id) if policy == "fws" \
            else GREEDY_POLICIES[policy][0]
        micro_count = rng.randint(1, 4)
        topo = TopologySpec(micro_count=micro_count, core_count=1,
                            micro_slots=rng.randint(1, 3), core_slots=rng.randint(2, 4))
        sc = Scenario(policy=policy, rng_seed=seed, topology_spec=topo,
                      catalog=rng.choice((default_catalog(), wide_catalog)),
                      service_cores_choices=(1, 2, 3),
                      request_count=rng.randint(1, 40),
                      arrival_rate_rps=rng.choice((100.0, 1000.0, 5000.0)),
                      provision_latency_ms=rng.choice((0.0, 50.0)),
                      sla_delay_range_ms=(50.0, 600.0))
        initial = [(micro_count, rng.choice(wide_catalog))
                   for _ in range(rng.randint(0, 2))]
        sim = SimulationRun(sc, initial_machines=initial)
        freed_since.clear()

        def check(kind, demand, machines):
            calls[kind] += 1
            free = sorted((m for m in sim.machines if m.used_cores < m.vm_type.cores
                           and m.active_at_ms <= sim.now), key=key)
            if demand in sim._stuck:
                calls["retry"] += 1
                assert machines == [m for m in free if m.fits(*demand)]
                assert {m.machine_id for m in machines} <= freed_since
            else:
                assert machines == free

        def checked(select, kind, demand, machines, args):
            check(kind, demand, machines)
            return select(*args)

        def checked_greedy(*args):
            return checked(greedy_select_machine, "greedy", args[:2], args[2], args)

        def checked_fws(*args):
            return checked(select_machine_fws, "fws", args[:2], args[3], args)

        monkeypatch.setattr(engine, "greedy_select_machine", checked_greedy)
        monkeypatch.setattr(engine, "select_machine_fws", checked_fws)
        sim.execute()
        validate_run(sim)
    assert calls["fws"] > 1000 and calls["greedy"] > 1000 and calls["retry"] > 100
