import dataclasses
import itertools
import math
from types import SimpleNamespace

import pytest

from sfcsched import metrics
from sfcsched.chains import MicroServiceDef, ServiceChain, UserRequest
from sfcsched.engine import Placement, SimulationRun, run
from sfcsched.infrastructure import Machine, default_catalog, default_topology
from sfcsched.metrics import _replay, check_sla, report, total_cost, validate_run
from sfcsched.scenario import Scenario, TopologySpec


def mkdefs(data):
    return {sid: MicroServiceDef(sid, 50.0, kb, 1.0, 1)
            for sid, kb in data.items()}


def test_check_sla_examples():
    req = UserRequest(0, 1, 0.0, delay_sla_ms=250.0, cost_sla=1.0)
    assert check_sla(req, 200.0, 0.5)
    assert not check_sla(req, 300.0, 0.5)
    assert not check_sla(req, 200.0, 0.5, dropped=True)
    assert not check_sla(req, 200.0, 2.0)  # cost bound violated


def replay(machines, defs, placements, states, chains):
    """`_replay` of a hand-made schedule on the default topology, with a
    provisioning latency of 50 ms and no resume latency; its traffic total."""
    sim = SimpleNamespace(topology=default_topology(), machines=machines, defs=defs,
                          placements=placements, states=states,
                          scenario=SimpleNamespace(provision_latency_ms=50.0,
                                                   resume_latency_ms=0.0))
    return _replay(sim, chains)[0]


def replayed_traffic(chain, data, machine_of):
    """`_replay`'s traffic total for one request of `chain` whose services
    run one after another in ascending id order, each service on machine
    `machine_of[service]` of node 0.  A service missing from `machine_of`
    is never placed, and the request is then dropped."""
    vm = default_catalog()[0]
    machines = [Machine(mid, 0, vm) for mid in range(max(machine_of.values()) + 1)]
    placements, t = [], 0.0
    for sid in sorted(machine_of):
        mid = machine_of[sid]
        transfers_in = {pred: data[pred] / vm.max_bandwidth_mbps
                        for pred in chain.predecessors(sid) if machine_of[pred] != mid}
        transfer_ms = max(transfers_in.values(), default=0.0)
        start = t + transfer_ms
        placements.append(Placement(0, sid, mid, start, start + 50.0, t, 0.0,
                                    transfer_ms, transfers_in))
        t = start + 50.0
    dropped = len(machine_of) < len(chain.nodes)
    state = SimpleNamespace(dropped=dropped, completed_ms=None if dropped else t)
    return replay(machines, mkdefs(data), placements, {0: state}, {0: chain})


def test_traffic_zero_when_colocated():
    chain = ServiceChain(1, {1, 2, 3}, {(1, 2), (2, 3)})
    assert replayed_traffic(chain, {1: 10, 2: 10, 3: 10}, {1: 0, 2: 0, 3: 0}) == 0.0


def test_traffic_single_crossing_edge():
    chain = ServiceChain(1, {1, 2}, {(1, 2)})
    assert replayed_traffic(chain, {1: 12.0, 2: 9.0}, {1: 0, 2: 1}) == 12.0


def test_traffic_sfc2_split():
    chain = ServiceChain(2, {6, 7, 8, 9, 10},
                         {(6, 7), (6, 8), (7, 9), (8, 9), (9, 10)})
    # 6 alone on machine 0; 7,8,9 on machine 1; 10 on machine 2:
    # crossing edges are (6,7), (6,8) and (9,10)
    data = {6: 10.0, 7: 5.0, 8: 5.0, 9: 8.0, 10: 5.0}
    machine_of = {6: 0, 7: 1, 8: 1, 9: 1, 10: 2}
    assert replayed_traffic(chain, data, machine_of) == 10.0 + 10.0 + 8.0


def test_traffic_skips_unplaced_services():
    chain = ServiceChain(1, {1, 2}, {(1, 2)})
    # dropped before service 2 ran, which would have run on another machine
    assert replayed_traffic(chain, {1: 12.0, 2: 9.0}, {1: 0}) == 0.0


def catalog_machine(name, mid=0):
    vm = next(t for t in default_catalog() if t.name == name)
    return Machine(mid, 0, vm)


def test_total_cost_examples():
    smalls = [catalog_machine("t2.small", i) for i in range(3)]
    assert total_cost(smalls) == pytest.approx(0.102)
    assert total_cost([]) == 0.0
    mixed = [catalog_machine("t2.medium", 0), catalog_machine("m4.large", 1)]
    assert total_cost(mixed) == pytest.approx(0.208)


def test_total_cost_is_a_float_with_no_machine():
    empty_run = run(Scenario(request_count=0)).total_cost_per_hour
    for cost in (total_cost([]), empty_run):
        assert cost == 0.0 and type(cost) is float


def test_replay_accepts_only_the_released_load_at_an_exact_transfer_end():
    # Request 0's transfer 0 -> 5 ends exactly when request 1 dispatches a
    # transfer 0 -> 6 over two of the same links.  The engine releases a
    # transfer before any pass at its end time, so at the tie only the
    # unloaded delay passes; one float earlier, only the loaded one does.
    topo = default_topology()
    fast = default_catalog()[3]
    machines = [Machine(0, 0, fast), Machine(1, 5, fast), Machine(2, 6, fast)]
    assert len(set(topo.route(0, 5)) & set(topo.route(0, 6))) == 2
    chain = ServiceChain(1, {1, 2}, {(1, 2)})
    defs = mkdefs({1: 100.0, 2: 100.0})
    first_ms, first = topo.start_transfer(machines[0], machines[1], 100.0)
    loaded_ms, second = topo.start_transfer(machines[0], machines[2], 100.0)
    topo.end_transfer(*first)
    topo.end_transfer(*second)
    idle_ms, second = topo.start_transfer(machines[0], machines[2], 100.0)
    topo.end_transfer(*second)
    assert loaded_ms > idle_ms
    tie = 60.0 + first_ms  # request 0's transfer starts at 60 ms

    def replay_at(dispatch_ms, delay_ms):
        start_ms = dispatch_ms + delay_ms
        placements = [Placement(0, 1, 0, 0.0, 50.0, 0.0, 0.0, 0.0),
                      Placement(1, 1, 0, 0.0, 50.0, 0.0, 0.0, 0.0),
                      Placement(0, 2, 1, tie, tie + 50.0, 60.0, 0.0, first_ms,
                                {1: first_ms}),
                      Placement(1, 2, 2, start_ms, start_ms + 50.0, dispatch_ms, 0.0,
                                delay_ms, {1: delay_ms})]
        # each request completes when its service 2 finishes
        states = {rid: SimpleNamespace(dropped=False, completed_ms=p.finish_ms)
                  for rid, p in enumerate(placements[2:])}
        return replay(machines, defs, placements, states, {0: chain, 1: chain})

    assert replay_at(tie, idle_ms) == 200.0  # both transfers cross nodes
    with pytest.raises(AssertionError, match="replay gives"):
        replay_at(tie, loaded_ms)
    earlier = math.nextafter(tie, -math.inf)
    replay_at(earlier, loaded_ms)
    with pytest.raises(AssertionError, match="replay gives"):
        replay_at(earlier, idle_ms)


def finished_run():
    """A small fws run with boot waits, cross-node transfers, successors on
    their predecessor's machine, machines whose memory and whose cores two
    placements share at once, and completed and dropped requests (the seed
    is one that has them all)."""
    sim = SimulationRun(Scenario(
        policy="fws", request_count=20, arrival_rate_rps=1000.0, rng_seed=11,
        provision_latency_ms=50.0, service_cores_choices=(1, 1, 2),
        topology_spec=TopologySpec(micro_count=4, core_count=1, micro_slots=1,
                                   core_slots=2)))
    sim.execute()
    return sim


def first(items, test):
    return next(x for x in items if test(x))


def colocated_successor(sim):
    """Indices of a placement and of a successor whose predecessors all ran
    on its own machine."""
    index = {(p.instance_id, p.service_id): k for k, p in enumerate(sim.placements)}
    for j, s in enumerate(sim.placements):
        chain = sim.chains[sim.states[s.instance_id].request.chain_id]
        preds = chain.predecessors(s.service_id)
        if preds and not s.transfers_in:
            return index[s.instance_id, preds[0]], j
    raise LookupError("no co-located successor")


def move_successor(sim, before):
    """Redispatch a co-located successor at its predecessor's dispatch time,
    listed just before or just after it, with consistent timings."""
    i, j = colocated_successor(sim)
    pred, succ = sim.placements[i], sim.placements.pop(j)
    succ.dispatch_ms, succ.boot_wait_ms = pred.dispatch_ms, pred.boot_wait_ms
    succ.start_ms = pred.dispatch_ms + pred.boot_wait_ms + sim.scenario.resume_latency_ms
    succ.finish_ms = succ.start_ms + sim.defs[succ.service_id].exec_time_ms
    sim.placements.insert(i if before else i + 1, succ)


def provisioned(sim):
    """A machine its first placement provisioned."""
    return first(sim.machines, lambda m: m.active_at_ms > 0.0)


def shrink_machine(sim, resource):
    """Shrink a machine's `resource` to the most that one placement on it
    takes, less than two of its placements hold at once."""
    def demand(p):
        return getattr(sim.defs[p.service_id], resource)

    for p, q in itertools.combinations(sim.placements, 2):
        if p.machine_id == q.machine_id and q.dispatch_ms < p.finish_ms:
            most = max(demand(r) for r in sim.placements if r.machine_id == p.machine_id)
            if demand(p) + demand(q) > most:
                machine = sim.machines[p.machine_id]
                machine.vm_type = dataclasses.replace(machine.vm_type, **{resource: most})
                return
    raise LookupError(f"no two placements on a machine overcommit its {resource}")


def transferring(sim):
    return first(sim.placements, lambda p: p.transfers_in)


def halve_a_transfer(sim):
    transfers_in = transferring(sim).transfers_in
    transfers_in[min(transfers_in)] /= 2


def delay_start(sim):
    for name in ("start_ms", "finish_ms"):
        add(sim.placements[3], name, 1.0)


def add(obj, name, amount):
    setattr(obj, name, getattr(obj, name) + amount)


def request_state(sim, dropped):
    return first(sim.states.values(), lambda state: state.dropped == dropped)


def mark_dropped(sim):
    """Mark a completed request dropped, counters conserved."""
    state = request_state(sim, dropped=False)
    state.dropped, state.completed_ms = True, None
    add(sim, "completed", -1)
    add(sim, "dropped", 1)


def mark_completed(sim):
    """Mark a dropped request completed at its last finish, counters conserved."""
    state = request_state(sim, dropped=True)
    state.dropped = False
    state.completed_ms = max(p.finish_ms for p in sim.placements
                             if p.instance_id == state.request.request_id)
    add(sim, "completed", 1)
    add(sim, "dropped", -1)


def swap_edge_labels(sim):
    labels = sim.labels[1]
    labels[1], labels[2] = labels[2], labels[1]


# check -> (corruption of a finished run, the message it must raise)
CORRUPTIONS = {
    "conservation": (lambda sim: add(sim, "completed", 1), "conservation violated"),
    "labels permutation": (lambda sim: sim.labels[1].update({1: 99}),
                           "chain 1: labels are not a permutation"),
    "labels edge order": (swap_edge_labels, r"chain 1: label\(1\) <= label\(2\) on edge"),
    "dispatch order": (lambda sim: setattr(sim.placements[-1], "dispatch_ms",
                                           sim.placements[-2].dispatch_ms - 1.0),
                       "placements out of dispatch order"),
    "first placement provisions": (lambda sim: add(provisioned(sim), "active_at_ms", 1.0),
                                   "did not provision it"),
    "boot wait": (lambda sim: setattr(first(sim.placements, lambda p: p.boot_wait_ms > 0),
                                      "boot_wait_ms", 0.0), "boot wait 0.0 != replayed"),
    "transfer delay": (halve_a_transfer, "replay gives"),
    "transfer set": (lambda sim: setattr(sim.placements[colocated_successor(sim)[1]],
                                         "transfers_in", {0: 0.0}),
                     r"transfers from \[0\], not \[\]"),
    "transfer maximum": (lambda sim: add(transferring(sim), "transfer_ms", 1.0),
                         "transfer wait is not its slowest transfer"),
    "start identity": (delay_start, "start breakdown mismatch"),
    "finish identity": (lambda sim: add(sim.placements[3], "finish_ms", 1.0),
                        r"finish != start \+ exec"),
    "precedence": (lambda sim: move_successor(sim, before=False),
                   "successor started before predecessor finish"),
    # listed first, it also starts before its predecessor finishes: the
    # precedence check reports it if nothing looks earlier
    "successor listed first": (lambda sim: move_successor(sim, before=True),
                               "before (its )?predecessor"),
    "memory overcommit": (lambda sim: shrink_machine(sim, "memory_gb"),
                          r"machine \d+: memory overcommit"),
    "core overcommit": (lambda sim: shrink_machine(sim, "cores"),
                        r"machine \d+: core overcommit"),
    "dropped, yet completed": (lambda sim: setattr(request_state(sim, dropped=True),
                                                   "completed_ms", 1.0),
                               r"request \d+: dropped, yet completed at 1.0"),
    "dropped, yet whole": (mark_dropped, r"request \d+: dropped, yet every service placed"),
    "completed, yet partial": (mark_completed,
                               r"request \d+: not dropped, yet \d+ of \d+ services placed"),
    "completion time": (lambda sim: add(request_state(sim, dropped=False),
                                        "completed_ms", 1.0),
                        r"request \d+: completed at .*, not at its last finish"),
    "still hosts": (lambda sim: sim.machines[0].hosted.add((0, 1)),
                    r"machine 0: still hosts \[\(0, 1\)\]"),
    "cores released": (lambda sim: add(sim.machines[0], "used_cores", 1),
                       "machine 0: cores not released"),
    "memory released": (lambda sim: add(sim.machines[0], "used_memory_gb", 1.0),
                        "machine 0: memory not released"),
    "link load released": (lambda sim: add(next(iter(sim.topology.links.values())),
                                           "transfer_pps", 1.0),
                           "transfer load not released"),
    "ranked order": (lambda sim: sim.ranked.reverse(), "ranked machines out of order"),
    "machine rank": (lambda sim: setattr(sim.machines[0], "rank", None),
                     "machine 0: filed under rank None, not 0"),
    "slot bounds": (lambda sim: setattr(sim.topology.nodes[sim.machines[0].node_id],
                                        "vm_slots", 0), "slots exceeded"),
    "traffic recount": (lambda sim: add(sim, "traffic_kb", 1.0),
                        "!= online accumulator"),
}


def test_report_of_a_run_that_lost_a_request_raises():
    sim = finished_run()
    report(sim)
    add(sim, "completed", -1)
    with pytest.raises(AssertionError, match="requests lost"):
        report(sim)


def test_the_run_to_corrupt_passes_and_has_each_feature_a_corruption_needs():
    sim = finished_run()
    validate_run(sim)
    assert provisioned(sim) and colocated_successor(sim)
    assert request_state(sim, dropped=True) and request_state(sim, dropped=False)
    node = {(p.instance_id, p.service_id): sim.machines[p.machine_id].node_id
            for p in sim.placements}
    assert any(node[p.instance_id, pred] != node[p.instance_id, p.service_id]
               for p in sim.placements for pred in p.transfers_in)


@pytest.mark.parametrize("check", CORRUPTIONS)
def test_validate_run_flags_each_corruption_with_its_own_message(check):
    corrupt, message = CORRUPTIONS[check]
    sim = finished_run()
    corrupt(sim)
    with pytest.raises(AssertionError, match=message):
        validate_run(sim)


def rejudge(satisfied, cost_share):
    """Mark a completed request's record `satisfied`, and once `report` has
    judged it, bound the request's delay at its turnaround and its cost at
    `cost_share` times its attributed cost."""
    def corrupt(sim, records):
        record = first(records, lambda r: r.turnaround_ms)
        record.satisfied = satisfied
        state = sim.states[record.request_id]
        state.request = dataclasses.replace(
            state.request, delay_sla_ms=record.turnaround_ms,
            cost_sla=cost_share * record.attributed_cost)
    return corrupt


# recount check -> (corruption of the run's `report` records, and of its
# requests' SLAs after `report`, the message it must raise)
RECORD_CORRUPTIONS = {
    "turnaround": (lambda sim, records: add(first(records, lambda r: r.turnaround_ms),
                                            "turnaround_ms", 1.0),
                   r"request \d+: turnaround .* != recounted"),
    "attributed cost": (lambda sim, records: add(records[0], "attributed_cost", 1.0),
                        r"request \d+: attributed cost .* != recounted"),
    "delay SLA": (lambda sim, records: setattr(first(records, lambda r: r.turnaround_ms),
                                               "satisfied", True),
                  r"request \d+: satisfied, yet turnaround .* misses its delay SLA"),
    "cost SLA": (rejudge(True, 0.5),
                 r"request \d+: satisfied, yet cost .* exceeds its cost SLA"),
    # both bounds are inclusive
    "unsatisfied": (rejudge(False, 1.0),
                    r"request \d+: unsatisfied, yet within its delay and cost SLAs"),
}


@pytest.mark.parametrize("check", RECORD_CORRUPTIONS)
def test_validate_run_flags_each_corrupted_record_with_its_own_message(monkeypatch, check):
    corrupt, message = RECORD_CORRUPTIONS[check]

    def corrupted(sim):
        result = report(sim)
        corrupt(sim, result.per_request)
        return result

    sim = finished_run()
    monkeypatch.setattr(metrics, "report", corrupted)
    with pytest.raises(AssertionError, match=message):
        validate_run(sim)
