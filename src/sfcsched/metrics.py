"""Run metrics, SLA evaluation and independent post-hoc validation."""

import heapq
import itertools
import math
from dataclasses import dataclass, field

from .fws import rank_key_fws
from .greedy import GREEDY_POLICIES
from .infrastructure import link_delay


@dataclass
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


def accumulate_traffic(placements, chain_of_instance, defs) -> float:
    """Brute-force recount of crossing-edge traffic from the final schedule.

    Sums data_out of every precedence edge whose endpoints landed on
    different machines; co-located edges contribute nothing.
    """
    by_key = {(p.instance_id, p.service_id): p for p in placements}
    total = 0.0
    seen_instances = sorted({p.instance_id for p in placements})
    for iid in seen_instances:
        chain = chain_of_instance[iid]
        for i, j in sorted(chain.edges):
            pi, pj = by_key.get((iid, i)), by_key.get((iid, j))
            if pi is None or pj is None:
                continue
            if pi.machine_id != pj.machine_id:
                total += defs[i].data_out_kb
    return total


def total_cost(machines) -> float:
    """Hourly cost of every machine provisioned during the run."""
    return sum(m.vm_type.hourly_cost for m in machines)


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
    for rid in sorted(sim.states):
        state = sim.states[rid]
        req = state.request
        turnaround = None if state.completed_ms is None \
            else state.completed_ms - req.arrival_time_ms
        cost = costs.get(rid, 0.0)
        records.append(RequestRecord(
            rid, req.chain_id, req.arrival_time_ms, turnaround, cost,
            check_sla(req, turnaround, cost, dropped=state.dropped), state.dropped))
    finished = [r.turnaround_ms for r in records if r.turnaround_ms is not None]
    avg_turnaround = sum(finished) / len(finished) if finished else 0.0
    satisfied_pct = (100.0 * sum(1 for r in records if r.satisfied) /
                     len(records)) if records else 100.0
    return MetricsReport(sim.scenario.policy, sim.traffic_kb, avg_turnaround,
                         satisfied_pct, total_cost(sim.machines), records)


def validate_run(sim) -> None:
    """Assert schedule invariants from the recorded placements alone.

    Checks precedence timing, each boot wait and transfer delay by replay
    (`_replay_boot_and_transfers`), machine capacity at every holding
    boundary, request conservation, label validity, that every machine has
    its capacity back and every link its transfer load (to 1e-9 pps) at
    quiescence, that `ranked` holds the machines in the policy's machine
    order, and that the online traffic accumulator matches an independent
    recount.  Raises AssertionError.
    """
    defs = sim.defs
    chain_of_instance = {rid: sim.chains[st.request.chain_id]
                         for rid, st in sim.states.items()}
    by_key = {(p.instance_id, p.service_id): p for p in sim.placements}

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

    _replay_boot_and_transfers(sim, chain_of_instance, by_key)

    # placement timing identities and precedence
    for p in sim.placements:
        sdef = defs[p.service_id]
        assert math.isclose(p.finish_ms, p.start_ms + sdef.exec_time_ms,
                            rel_tol=1e-9, abs_tol=1e-6), "finish != start + exec"
        expected_start = (p.dispatch_ms + p.boot_wait_ms + p.transfer_ms
                          + sim.scenario.resume_latency_ms)
        assert math.isclose(p.start_ms, expected_start,
                            rel_tol=1e-9, abs_tol=1e-6), "start breakdown mismatch"
        chain = chain_of_instance[p.instance_id]
        for pred in chain.predecessors(p.service_id):
            pp = by_key[(p.instance_id, pred)]
            gap = p.transfers_in.get(pred, 0.0)
            assert p.start_ms >= pp.finish_ms + gap - 1e-6, \
                "successor started before predecessor finish + transfer"

    # machine capacity at every holding boundary
    by_machine = {}
    for p in sim.placements:
        by_machine.setdefault(p.machine_id, []).append(p)
    for mid, plist in by_machine.items():
        vm = sim.machines[mid].vm_type
        deltas = []
        for p in plist:
            sdef = defs[p.service_id]
            deltas.append((p.dispatch_ms, sdef.memory_gb, sdef.cores))
            deltas.append((p.finish_ms, -sdef.memory_gb, -sdef.cores))
        # releases sort before acquisitions at equal timestamps
        deltas.sort(key=lambda d: (d[0], d[1]))
        mem = cores = 0
        for _, dm, dc in deltas:
            mem += dm
            cores += dc
            assert mem <= vm.memory_gb + 1e-6, f"machine {mid}: memory overcommit"
            assert cores <= vm.cores, f"machine {mid}: core overcommit"

    # capacity and link load returned: every service and transfer finished
    for m in sim.machines:
        assert not m.hosted, f"machine {m.machine_id}: still hosts {sorted(m.hosted)}"
        assert m.used_cores == 0, f"machine {m.machine_id}: cores not released"
        assert m.used_memory_gb <= 1e-9, f"machine {m.machine_id}: memory not released"
    for key, link in sim.topology.links.items():
        assert abs(link.transfer_pps) <= 1e-9, f"link {key}: transfer load not released"

    # selection order: every machine, idle now, in the policy's machine order
    key, _ = GREEDY_POLICIES.get(sim.scenario.policy, (rank_key_fws, None))
    assert sim.ranked == sorted(sim.machines, key=key), "ranked machines out of order"

    # node slot bounds
    per_node = {}
    for m in sim.machines:
        per_node[m.node_id] = per_node.get(m.node_id, 0) + 1
    for nid, count in per_node.items():
        assert count <= sim.topology.nodes[nid].vm_slots, f"node {nid}: slots exceeded"

    # traffic recount
    recount = accumulate_traffic(sim.placements, chain_of_instance, defs)
    assert math.isclose(recount, sim.traffic_kb, rel_tol=1e-9, abs_tol=1e-6), \
        f"traffic recount {recount} != online accumulator {sim.traffic_kb}"


def _replay_boot_and_transfers(sim, chain_of_instance, by_key):
    """Recompute each placement's boot wait and inbound transfer delays
    from the schedule, the topology and the machines alone.

    Placements are walked in list order, which is dispatch order, with a
    link-load ledger of the replay's own: it adds each cross-node
    transfer's line rate, in ascending predecessor id order, and takes it
    off once the transfer's end time has passed.  A transfer that ends
    exactly at a dispatch time is still loaded for a pass that a finish at
    that time triggered, and gone for one a start or an arrival triggered,
    so at such a tie either delay passes.
    """
    topo = sim.topology
    latency = sim.scenario.provision_latency_ms
    ledger = dict.fromkeys(topo.links, 0.0)   # link key -> in-flight pps
    in_flight = []   # heap of (end_ms, seq, route, rate_pps)
    seq = itertools.count()
    tied = []        # in-flight transfers that end at the current dispatch time
    used = set()     # machines with an earlier placement
    last = -math.inf

    def retire(transfers):
        for _, _, route, rate_pps in transfers:
            for k in route:
                ledger[k] = max(0.0, ledger[k] - rate_pps)

    def path_ms(route, load):
        return 1000.0 * sum(link_delay(min(topo.links[k].background_pps + load[k],
                                           topo.rho_max * topo.links[k].mu_pps),
                                       topo.links[k].mu_pps) for k in route)

    def without_tied():
        load = dict(ledger)
        for _, _, route, rate_pps in tied:
            for k in route:
                load[k] -= rate_pps
        return load

    for p in sim.placements:
        key = (p.instance_id, p.service_id)
        t = p.dispatch_ms
        assert t >= last, f"{key}: placements out of dispatch order"
        last = t
        if tied and tied[0][0] < t:
            retire(tied)
            tied = []
        while in_flight and in_flight[0][0] <= t:
            transfer = heapq.heappop(in_flight)
            if transfer[0] == t:
                tied.append(transfer)
            else:
                retire([transfer])

        machine = sim.machines[p.machine_id]
        if p.machine_id not in used and machine.active_at_ms == t + latency:
            boot_ms = latency   # this placement provisioned the machine
        else:
            assert p.machine_id in used or machine.active_at_ms == 0.0, \
                f"{key}: first placement on machine {p.machine_id} did not provision it"
            boot_ms = max(0.0, machine.active_at_ms - t)
        used.add(p.machine_id)
        assert math.isclose(p.boot_wait_ms, boot_ms, rel_tol=1e-9, abs_tol=1e-9), \
            f"{key}: boot wait {p.boot_wait_ms} != replayed {boot_ms}"

        crossing = []
        for pred in chain_of_instance[p.instance_id].predecessors(p.service_id):
            src = sim.machines[by_key[(p.instance_id, pred)].machine_id]
            if src is machine:
                continue
            crossing.append(pred)
            got = p.transfers_in.get(pred)
            bw = min(src.vm_type.max_bandwidth_mbps, machine.vm_type.max_bandwidth_mbps)
            want = [sim.defs[pred].data_out_kb / bw]
            route = ()
            if src.node_id != machine.node_id:
                route = topo.route(src.node_id, machine.node_id)
                want = [want[0] + path_ms(route, load)
                        for load in ([ledger, without_tied()] if tied else [ledger])]
            assert got is not None and any(
                math.isclose(got, w, rel_tol=1e-9, abs_tol=1e-9) for w in want), \
                f"{key}: transfer from {pred} took {got} ms, replay gives {want}"
            if route:
                rate_pps = bw * 1000.0 / topo.packet_kb
                for k in route:
                    ledger[k] += rate_pps
                heapq.heappush(in_flight, (t + got, next(seq), route, rate_pps))
        assert sorted(p.transfers_in) == crossing, \
            f"{key}: transfers from {sorted(p.transfers_in)}, not {crossing}"
        assert p.transfer_ms == max(p.transfers_in.values(), default=0.0), \
            f"{key}: transfer wait is not its slowest transfer"
