"""Run metrics, SLA evaluation and independent post-hoc validation."""

import heapq
import itertools
import math
from dataclasses import dataclass, field

from .fws import rank_key_fws
from .greedy import GREEDY_POLICIES
from .infrastructure import link_delay


@dataclass(slots=True)
class RequestRecord:
    request_id: int
    chain_id: int
    arrival_ms: float
    turnaround_ms: float  # None when the request was dropped
    attributed_cost: float
    satisfied: bool
    dropped: bool


@dataclass
class MetricsReport:
    policy: str
    total_traffic_kb: float
    avg_turnaround_ms: float
    satisfied_pct: float
    total_cost_per_hour: float
    per_request: list = field(default_factory=list)

    def metric(self, name):
        return getattr(self, _METRIC_FIELDS[name])


# metric name -> MetricsReport field, in the CSV's row order
_METRIC_FIELDS = {"traffic_kb": "total_traffic_kb",
                  "turnaround_ms": "avg_turnaround_ms",
                  "satisfied_pct": "satisfied_pct",
                  "cost_per_hour": "total_cost_per_hour"}
METRIC_NAMES = tuple(_METRIC_FIELDS)


def check_sla(request, turnaround_ms, attributed_cost, dropped=False) -> bool:
    """Satisfied iff completed within both the delay and the cost bound."""
    if dropped or turnaround_ms is None:
        return False
    return (turnaround_ms <= request.delay_sla_ms
            and attributed_cost <= request.cost_sla)


def total_cost(machines) -> float:
    """Hourly cost of every machine provisioned during the run; a float
    even when there is none."""
    total = 0.0  # left to right, as every total: 3.12's sum() rounds otherwise
    for m in machines:
        total += m.vm_type.hourly_cost
    return total


def _attributed_costs(sim):
    """Split each machine's hourly cost across requests by held time."""
    held_by_machine, held_by_request = {}, {}
    for p in sim.placements:
        span = p.finish_ms - p.dispatch_ms
        held_by_machine[p.machine_id] = held_by_machine.get(p.machine_id, 0.0) + span
        spans = held_by_request.setdefault(p.instance_id, {})
        spans[p.machine_id] = spans.get(p.machine_id, 0.0) + span
    costs = {}
    for rid, spans in held_by_request.items():
        total = 0.0
        for mid, span in spans.items():
            held = held_by_machine[mid]
            # every span on a machine is 0 only once the clock is too
            # large to resolve them; no request then held it measurably
            total += (span / held if held else 0.0) * \
                sim.machines[mid].vm_type.hourly_cost
        costs[rid] = total
    return costs


def report(sim) -> MetricsReport:
    """The metrics of a `SimulationRun` that has run to quiescence."""
    if sim.completed + sim.dropped != sim.arrived:
        raise AssertionError("requests lost: conservation violated")
    costs = _attributed_costs(sim)
    records = []
    turnaround_total = finished = satisfied = 0  # added as in `total_cost`
    for rid in sorted(sim.states):
        state = sim.states[rid]
        req = state.request
        turnaround = None if state.completed_ms is None \
            else state.completed_ms - req.arrival_time_ms
        if turnaround is not None:
            turnaround_total += turnaround
            finished += 1
        cost = costs.get(rid, 0.0)
        sla = check_sla(req, turnaround, cost, dropped=state.dropped)
        satisfied += sla
        records.append(RequestRecord(rid, req.chain_id, req.arrival_time_ms,
                                     turnaround, cost, sla, state.dropped))
    avg_turnaround = turnaround_total / finished if finished else 0.0
    satisfied_pct = 100.0 * satisfied / len(records) if records else 100.0
    return MetricsReport(sim.scenario.policy, sim.traffic_kb, avg_turnaround,
                         satisfied_pct, total_cost(sim.machines), records)


def validate_run(sim) -> None:
    """Assert schedule invariants from the recorded placements alone.

    Checks request conservation and label validity, then replays the
    placements (`_replay`): dispatch order, each boot wait and transfer
    delay, precedence, the start and finish times, machine capacity, and
    each request's completion or drop, and recounts the traffic of every
    crossing edge, which must match the online accumulator.  Then that
    every machine has its capacity back and every link its transfer load
    (to 1e-9 pps) at quiescence, that `ranked` holds the machines in the
    policy's machine order, each filed under its key, and node slot bounds.
    Last, `_check_records` recounts each request's record of `report`.
    Raises AssertionError.
    """
    chain_of_instance = {rid: sim.chains[st.request.chain_id]
                         for rid, st in sim.states.items()}

    # conservation
    assert sim.completed + sim.dropped == sim.arrived, "conservation violated"

    # labels: permutation per chain, decreasing along edges
    for cid, labels in sim.labels.items():
        chain = sim.chains[cid]
        assert sorted(labels.values()) == list(range(1, len(chain.nodes) + 1)), \
            f"chain {cid}: labels are not a permutation"
        for i, j in chain.edges:
            assert labels[i] > labels[j], \
                f"chain {cid}: label({i}) <= label({j}) on edge"

    recount, progress = _replay(sim, chain_of_instance)
    assert math.isclose(recount, sim.traffic_kb, rel_tol=1e-9, abs_tol=1e-6), \
        f"traffic recount {recount} != online accumulator {sim.traffic_kb}"

    # quiescence: every service and transfer finished, so each machine has
    # its capacity back and each link its transfer load; each machine is
    # filed under its key, in the policy's machine order; node slot bounds
    key, _ = GREEDY_POLICIES.get(sim.scenario.policy, (rank_key_fws, None))
    per_node = {}
    for m in sim.machines:
        assert not m.hosted, f"machine {m.machine_id}: still hosts {sorted(m.hosted)}"
        assert m.used_cores == 0, f"machine {m.machine_id}: cores not released"
        assert m.used_memory_gb <= 1e-9, f"machine {m.machine_id}: memory not released"
        assert m.rank == key(m), \
            f"machine {m.machine_id}: filed under rank {m.rank}, not {key(m)}"
        per_node[m.node_id] = per_node.get(m.node_id, 0) + 1
    for link_key, link in sim.topology.links.items():
        assert abs(link.transfer_pps) <= 1e-9, \
            f"link {link_key}: transfer load not released"
    assert sim.ranked == sorted(sim.machines, key=key), "ranked machines out of order"
    for nid, count in per_node.items():
        assert count <= sim.topology.nodes[nid].vm_slots, f"node {nid}: slots exceeded"
    _check_records(sim, progress)


def _check_records(sim, progress):
    """Recount each request's `report` record from the placements and the
    machines: its turnaround from its last finish (`progress`, from
    `_replay`), its attributed cost as the sum of its placements' shares of
    their machines' held time, and both SLA tests, written out here rather
    than by `check_sla`."""
    held = {}  # machine id -> the time every placement on it held it
    for p in sim.placements:
        held[p.machine_id] = held.get(p.machine_id, 0.0) + (p.finish_ms - p.dispatch_ms)
    costs = {}
    for p in sim.placements:
        if held[p.machine_id]:
            costs[p.instance_id] = costs.get(p.instance_id, 0.0) + \
                (p.finish_ms - p.dispatch_ms) / held[p.machine_id] \
                * sim.machines[p.machine_id].vm_type.hourly_cost
    for rec in report(sim).per_request:
        rid, state = rec.request_id, sim.states[rec.request_id]
        req = state.request
        turnaround = None if state.dropped else progress[rid][1] - req.arrival_time_ms
        assert rec.turnaround_ms == turnaround, \
            f"request {rid}: turnaround {rec.turnaround_ms} != recounted {turnaround}"
        cost = costs.get(rid, 0.0)
        assert math.isclose(rec.attributed_cost, cost, rel_tol=1e-9, abs_tol=1e-12), \
            f"request {rid}: attributed cost {rec.attributed_cost} != recounted {cost}"
        in_delay = turnaround is not None and turnaround <= req.delay_sla_ms
        in_cost = rec.attributed_cost <= req.cost_sla
        assert in_delay or not rec.satisfied, \
            f"request {rid}: satisfied, yet turnaround {turnaround} misses its " \
            f"delay SLA {req.delay_sla_ms}"
        assert in_cost or not rec.satisfied, \
            f"request {rid}: satisfied, yet cost {rec.attributed_cost} exceeds its " \
            f"cost SLA {req.cost_sla}"
        assert rec.satisfied or not (in_delay and in_cost), \
            f"request {rid}: unsatisfied, yet within its delay and cost SLAs"


def _replay(sim, chain_of_instance):
    """Check every placement in one walk over the schedule in list order,
    which is dispatch order, from the topology and the machines alone.

    One heap of end times holds what is in use: each placement's memory
    and cores on its machine until it finishes, and each cross-node
    transfer's line rate on its route's links until the transfer ends.
    Before a placement is checked, everything that ends at or before its
    dispatch time is released, as the engine runs a finish or a transfer
    end before any pass at its time.  The walk recomputes the placement's
    boot wait and inbound transfer delays, adding each transfer's load in
    ascending predecessor id order, and checks precedence, the start and
    finish times and the machine's capacity.  It counts each request's
    placed services and keeps its last finish: after the walk, a dropped
    request has some service never placed and no completion time, and any
    other has every service placed and completed at its last finish.
    Returns the traffic it recounts, each predecessor's output added when
    its successor is walked on another machine, and each request's
    services placed and last finish, {instance_id: (count, ms)}.
    """
    topo, scenario = sim.topology, sim.scenario
    latency = scenario.provision_latency_ms
    load = {}       # link key -> in-flight pps; (machine id, resource) -> held
    ends = []       # heap of (end_ms, seq, ((load key, amount), ...))
    seq = itertools.count()
    placed = {}     # (instance_id, service_id) -> placement, once replayed
    progress = {}   # instance_id -> (services placed, last finish_ms)
    last = -math.inf
    traffic_kb = 0.0  # crossing-edge output, in walk order

    def hold(end_ms, amounts):
        for k, amount in amounts:
            load[k] = load.get(k, 0.0) + amount
        heapq.heappush(ends, (end_ms, next(seq), amounts))

    for p in sim.placements:
        key = (p.instance_id, p.service_id)
        t = p.dispatch_ms
        assert t >= last, f"{key}: placements out of dispatch order"
        last = t
        while ends and ends[0][0] <= t:
            for k, amount in heapq.heappop(ends)[2]:
                load[k] = max(0.0, load[k] - amount)

        mid = p.machine_id
        machine = sim.machines[mid]
        used = (mid, "cores") in load   # the machine has an earlier placement
        if not used and machine.active_at_ms == t + latency:
            boot_ms = latency   # this placement provisioned the machine
        else:
            assert used or machine.active_at_ms == 0.0, \
                f"{key}: first placement on machine {mid} did not provision it"
            boot_ms = max(0.0, machine.active_at_ms - t)
        assert math.isclose(p.boot_wait_ms, boot_ms, rel_tol=1e-9, abs_tol=1e-9), \
            f"{key}: boot wait {p.boot_wait_ms} != replayed {boot_ms}"

        crossing = []
        for pred in chain_of_instance[p.instance_id].predecessors(p.service_id):
            pp = placed.get((p.instance_id, pred))
            assert pp is not None, f"{key}: placed before its predecessor {pred}"
            src = sim.machines[pp.machine_id]
            if src is not machine:
                crossing.append(pred)
                data_kb = sim.defs[pred].data_out_kb
                traffic_kb += data_kb
                got = p.transfers_in.get(pred)
                bw = min(src.vm_type.max_bandwidth_mbps,
                         machine.vm_type.max_bandwidth_mbps)
                want = data_kb / bw
                route = ()
                if src.node_id != machine.node_id:
                    route = topo.route(src.node_id, machine.node_id)
                    want += 1000.0 * sum(
                        link_delay(min(topo.links[k].background_pps + load.get(k, 0.0),
                                       topo.rho_max * topo.links[k].mu_pps),
                                   topo.links[k].mu_pps) for k in route)
                assert got is not None and math.isclose(got, want, rel_tol=1e-9,
                                                        abs_tol=1e-9), \
                    f"{key}: transfer from {pred} took {got} ms, replay gives {want}"
                if route:
                    rate_pps = bw * 1000.0 / topo.packet_kb
                    hold(t + got, tuple((k, rate_pps) for k in route))
            assert p.start_ms >= pp.finish_ms + p.transfers_in.get(pred, 0.0) - 1e-6, \
                "successor started before predecessor finish + transfer"
        assert sorted(p.transfers_in) == crossing, \
            f"{key}: transfers from {sorted(p.transfers_in)}, not {crossing}"
        assert p.transfer_ms == max(p.transfers_in.values(), default=0.0), \
            f"{key}: transfer wait is not its slowest transfer"

        sdef = sim.defs[p.service_id]
        assert math.isclose(p.finish_ms, p.start_ms + sdef.exec_time_ms,
                            rel_tol=1e-9, abs_tol=1e-6), "finish != start + exec"
        expected_start = t + p.boot_wait_ms + p.transfer_ms + scenario.resume_latency_ms
        assert math.isclose(p.start_ms, expected_start,
                            rel_tol=1e-9, abs_tol=1e-6), "start breakdown mismatch"

        hold(p.finish_ms, (((mid, "memory_gb"), sdef.memory_gb),
                           ((mid, "cores"), sdef.cores)))
        assert load[mid, "memory_gb"] <= machine.vm_type.memory_gb + 1e-6, \
            f"machine {mid}: memory overcommit"
        assert load[mid, "cores"] <= machine.vm_type.cores, f"machine {mid}: core overcommit"
        placed[key] = p
        count, last_finish = progress.get(p.instance_id, (0, -math.inf))
        progress[p.instance_id] = (count + 1, max(last_finish, p.finish_ms))

    for rid, state in sim.states.items():
        count, last_finish = progress.get(rid, (0, None))
        services = len(chain_of_instance[rid].nodes)
        if state.dropped:
            assert state.completed_ms is None, \
                f"request {rid}: dropped, yet completed at {state.completed_ms}"
            assert count < services, f"request {rid}: dropped, yet every service placed"
        else:
            assert count == services, \
                f"request {rid}: not dropped, yet {count} of {services} services placed"
            assert state.completed_ms == last_finish, \
                f"request {rid}: completed at {state.completed_ms}, not at its " \
                f"last finish {last_finish}"
    return traffic_kb, progress
