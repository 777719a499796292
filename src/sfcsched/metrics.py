"""Run metrics, SLA evaluation and independent post-hoc validation."""

import math
from dataclasses import dataclass, field

from .fws import rank_key_fws
from .greedy import GREEDY_POLICIES, rank_key


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
        return {
            "traffic_kb": self.total_traffic_kb,
            "turnaround_ms": self.avg_turnaround_ms,
            "satisfied_pct": self.satisfied_pct,
            "cost_per_hour": self.total_cost_per_hour,
        }[name]


METRIC_NAMES = ("traffic_kb", "turnaround_ms", "satisfied_pct", "cost_per_hour")


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


def validate_run(sim) -> None:
    """Assert schedule invariants from the recorded placements alone.

    Checks precedence timing, machine capacity at every holding boundary,
    request conservation, label validity, that every machine has its
    capacity back at quiescence, that `ranked` holds the machines in the
    policy's machine order, and that the online traffic
    accumulator matches an independent recount.  Raises AssertionError.
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

    # capacity returned: every placed service finished and released
    for m in sim.machines:
        assert not m.hosted, f"machine {m.machine_id}: still hosts {sorted(m.hosted)}"
        assert m.used_cores == 0, f"machine {m.machine_id}: cores not released"
        assert m.used_memory_gb <= 1e-9, f"machine {m.machine_id}: memory not released"

    # selection order: every machine, idle now, in the policy's machine order
    greedy = GREEDY_POLICIES.get(sim.scenario.policy)
    key = rank_key_fws if greedy is None else rank_key(greedy.machine_bias)
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
