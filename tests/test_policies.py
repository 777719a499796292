import random

import pytest

from sfcsched.chains import ServiceChain
from sfcsched.fws import (LabeledService, WeightParams, assign_labels,
                          compute_weight, priority_key, rank_key_fws,
                          select_machine_fws)
from sfcsched.greedy import (GREEDY_POLICIES, decreasing_time, first_finish,
                             greedy_select_machine, least_full, most_full)
from sfcsched.infrastructure import (CloudNode, Link, Machine, Topology,
                                     TopologySpec, VmType, default_catalog,
                                     default_topology, nearest_vm_type)


def test_labels_linear_chain_reversed():
    chain = ServiceChain(0, {1, 2, 3}, {(1, 2), (2, 3)})
    exec_ms = {1: 42.0, 2: 11.0, 3: 99.0}
    assert assign_labels(chain, exec_ms) == {3: 1, 2: 2, 1: 3}


def test_labels_fork_prefers_short_execution():
    chain = ServiceChain(1, {1, 2, 3, 4, 5}, {(1, 2), (2, 3), (3, 4), (3, 5)})
    exec_ms = {1: 60.0, 2: 60.0, 3: 60.0, 4: 30.0, 5: 50.0}
    assert assign_labels(chain, exec_ms) == {4: 1, 5: 2, 3: 3, 2: 4, 1: 5}


def test_labels_singleton():
    chain = ServiceChain(0, {7}, set())
    assert assign_labels(chain, {7: 10.0}) == {7: 1}


def entry(inst, svc, label, enqueue=0.0, exec_ms=50.0, dependents=0):
    return LabeledService(instance_id=inst, service_id=svc, label=label,
                          enqueue_time_ms=enqueue, exec_time_ms=exec_ms,
                          dependents=dependents)


def test_weight_examples():
    params = WeightParams(alpha_dep=1.0, beta_wait=0.01)
    sink = entry(0, 4, 1, enqueue=100.0, dependents=0)
    assert compute_weight(sink, 100.0, params) == 0.0
    mid = entry(0, 3, 3, enqueue=100.0, dependents=2)
    assert compute_weight(mid, 100.0, params) == 2.0
    assert compute_weight(mid, 200.0, params) == pytest.approx(3.0)
    with pytest.raises(ValueError, match="before the service was enqueued"):
        compute_weight(mid, 99.5, params)


def test_weight_monotone_in_wait_and_dependents():
    rng = random.Random(3)
    params = WeightParams(alpha_dep=1.0, beta_wait=0.01)
    for _ in range(100):
        deps = rng.randint(0, 6)
        e = entry(0, 1, 1, enqueue=0.0, dependents=deps)
        t1, t2 = sorted((rng.uniform(0, 500), rng.uniform(0, 500)))
        assert compute_weight(e, t1, params) <= compute_weight(e, t2, params)
        bigger = entry(0, 1, 1, enqueue=0.0, dependents=deps + 1)
        assert compute_weight(e, t1, params) <= compute_weight(bigger, t1, params)


def test_weight_params_validation():
    with pytest.raises(ValueError):
        WeightParams(alpha_dep=0.0, beta_wait=0.0)
    with pytest.raises(ValueError):
        WeightParams(alpha_dep=-1.0)
    with pytest.raises(ValueError):
        WeightParams(dependents="nonsense")


def test_select_label_dominates_weight():
    key = priority_key(WeightParams())
    q = [entry(0, 1, 5, dependents=0), entry(1, 2, 3, dependents=9)]
    assert min(q, key=key).label == 5


def test_select_weight_breaks_label_tie():
    key = priority_key(WeightParams(alpha_dep=1.0, beta_wait=0.01))
    q = [entry(0, 1, 3, dependents=2), entry(1, 1, 3, dependents=1)]
    winner = min(q, key=key)
    assert (winner.instance_id, winner.service_id) == (0, 1)


def test_select_wait_decides_equal_dependents():
    key = priority_key(WeightParams(alpha_dep=1.0, beta_wait=0.01))
    old = entry(5, 1, 3, enqueue=0.0, dependents=1)
    young = entry(2, 1, 3, enqueue=90.0, dependents=1)
    assert min([young, old], key=key) is old


def test_select_final_tie_break_is_lowest_ids():
    key = priority_key(WeightParams())
    q = [entry(4, 9, 2), entry(4, 7, 2), entry(3, 9, 2)]
    winner = min(q, key=key)
    assert (winner.instance_id, winner.service_id) == (3, 9)


def two_node_topology():
    nodes = [CloudNode(0, "micro", 4), CloudNode(1, "micro", 4),
             CloudNode(2, "core", 8)]
    links = [Link((0, 2), 1000.0), Link((1, 2), 1000.0)]
    return Topology(nodes, links)


SMALL = VmType("t2.small", 2.0, 1, 25.0, 0.034)


def test_fws_affinity_rule_takes_predecessor_machine():
    topo = two_node_topology()
    m0 = Machine(0, 0, SMALL)
    m1 = Machine(1, 1, SMALL)
    preds = [(3, m0, 10.0)]
    kind, chosen = select_machine_fws(1.0, 1, preds, [m0, m1], topo,
                                      default_catalog())
    assert kind == "existing" and chosen is m0


def test_fws_traffic_rule_prefers_same_node():
    topo = two_node_topology()
    m0 = Machine(0, 0, SMALL)
    m0.allocate((0, 3), 1.0, 1)  # predecessor machine is full
    m_same_node = Machine(1, 0, SMALL)
    m_far = Machine(2, 1, SMALL)
    preds = [(3, m0, 10.0)]
    kind, chosen = select_machine_fws(1.0, 1, preds, [m0, m_same_node, m_far],
                                      topo, default_catalog())
    assert kind == "existing" and chosen is m_same_node
    # brute-force the hop-weighted objective over both candidates
    hops = {m_same_node.machine_id: topo.hops(0, 0), m_far.machine_id: topo.hops(0, 1)}
    assert hops[m_same_node.machine_id] < hops[m_far.machine_id]


class Unvisited:
    """A machine the selection must not reach: any attribute read fails."""

    def __getattr__(self, name):
        raise AssertionError(f"scan read .{name} past its stopping point")


def test_fws_scan_stops_at_the_first_zero_objective_fit():
    topo = two_node_topology()
    pred = Machine(0, 0, SMALL)
    pred.allocate((0, 3), 1.0, 1)  # no room: the fallback scan decides
    far = Machine(1, 1, SMALL)     # fits, one hop from the predecessor
    near = Machine(2, 0, SMALL)    # fits, zero hops
    kind, chosen = select_machine_fws(1.0, 1, [(3, pred, 10.0)],
                                      [pred, far, near, Unvisited()],
                                      topo, default_catalog())
    assert kind == "existing" and chosen is near


def test_fws_lowest_id_wins_among_zero_objective_nodes():
    # a chain source has no predecessor, so every node scores 0
    topo = two_node_topology()
    full = Machine(0, 0, SMALL)
    full.allocate((0, 1), 1.9, 1)
    on_node_1, on_node_0 = Machine(1, 1, SMALL), Machine(2, 0, SMALL)
    kind, chosen = select_machine_fws(1.0, 1, [], [full, on_node_1, on_node_0],
                                      topo, default_catalog())
    assert kind == "existing" and chosen is on_node_1


def test_fws_predecessor_machines_tie_to_the_lowest_id_in_any_order():
    # both predecessors sit on node 0, so both machines score 0; the
    # predecessors' order is not id order, so that pass scans them all
    topo = two_node_topology()
    high, low = Machine(5, 0, SMALL), Machine(3, 0, SMALL)
    kind, chosen = select_machine_fws(0.5, 1, [(1, high, 10.0), (2, low, 10.0)],
                                      [low, high], topo, default_catalog())
    assert kind == "existing" and chosen is low


def test_fws_cold_start_provisions_lowest_node():
    topo = two_node_topology()
    result = select_machine_fws(1.5, 1, [], [], topo, default_catalog())
    assert result == ("provision", 0, SMALL)


def test_fws_every_node_full_returns_none():
    topo = two_node_topology()
    for node in topo.nodes.values():
        node.used_slots = node.vm_slots
    full = Machine(0, 0, SMALL)
    full.allocate((0, 1), 1.9, 1)
    assert select_machine_fws(1.0, 1, [], [full], topo,
                              default_catalog()) is None


def test_greedy_service_bias_examples():
    fast = entry(1, 2, 4, exec_ms=30.0)
    slow = entry(0, 1, 4, exec_ms=70.0)
    assert min([slow, fast], key=first_finish) is fast
    assert min([slow, fast], key=decreasing_time) is slow
    assert min([fast], key=decreasing_time) is fast


def test_greedy_service_candidates_are_max_label_set():
    lower_label_shorter = entry(0, 1, 2, exec_ms=5.0)
    top = entry(1, 2, 6, exec_ms=90.0)
    assert min([lower_label_shorter, top], key=first_finish) is top


def test_greedy_machine_bias_examples():
    topo = two_node_topology()
    medium = VmType("t2.medium", 4.0, 2, 25.0, 0.068)
    low = Machine(0, 0, medium)
    low.allocate((0, 1), 0.8, 0)      # memory-only load: utilization 0.2
    high = Machine(1, 0, medium)
    high.allocate((0, 2), 3.2, 0)     # utilization 0.8
    _, m = greedy_select_machine(0.5, 1, [low, high], topo, default_catalog())
    assert m is low
    _, m = greedy_select_machine(0.5, 1, [high, low], topo, default_catalog())
    assert m is high
    assert sorted([high, low], key=least_full) == [low, high]
    assert sorted([low, high], key=most_full) == [high, low]


def test_greedy_most_full_respects_feasibility():
    topo = two_node_topology()
    full = Machine(0, 0, SMALL)
    full.allocate((0, 1), 1.9, 1)
    roomy = Machine(1, 0, VmType("t2.medium", 4.0, 2, 25.0, 0.068))
    roomy.allocate((0, 2), 1.0, 1)
    machines = sorted([roomy, full], key=most_full)
    assert machines == [full, roomy]
    _, m = greedy_select_machine(1.0, 1, machines, topo, default_catalog())
    assert m is roomy


def test_greedy_provisions_on_lowest_free_node():
    topo = two_node_topology()
    topo.nodes[0].used_slots = topo.nodes[0].vm_slots
    result = greedy_select_machine(1.0, 1, [], topo, default_catalog())
    assert result == ("provision", 1, SMALL)
    for node in topo.nodes.values():
        node.used_slots = node.vm_slots
    assert greedy_select_machine(1.0, 1, [], topo, default_catalog()) is None


def test_uncovered_demand_gets_no_machine():
    # every node has free slots, but no catalog type has 64 GB or 32 cores
    topo = two_node_topology()
    m0 = Machine(0, 0, SMALL)
    for demand in ((64.0, 1), (1.0, 32)):
        assert select_machine_fws(*demand, [(3, m0, 10.0)], [m0], topo,
                                  default_catalog()) is None
        assert greedy_select_machine(*demand, [m0], topo,
                                     default_catalog()) is None


def test_selection_rules_test_capacity_only_by_machine_fits(monkeypatch):
    # once `Machine.fits` refuses machine 0, both rules pass it over, fws
    # also when it is the predecessor's machine
    fits = Machine.fits
    monkeypatch.setattr(Machine, "fits", lambda m, memory_gb, cores:
                        m.machine_id != 0 and fits(m, memory_gb, cores))
    topo = two_node_topology()
    m0, m1 = Machine(0, 0, SMALL), Machine(1, 0, SMALL)
    for kind, chosen in (
            select_machine_fws(1.0, 1, [(3, m0, 10.0)], [m0, m1], topo,
                               default_catalog()),
            greedy_select_machine(1.0, 1, [m0, m1], topo, default_catalog())):
        assert kind == "existing" and chosen is m1


@pytest.mark.parametrize("short_gb, taken", [(5e-10, True), (1e-6, False)])
def test_selection_rules_allow_the_fit_rule_memory_slack_and_no_more(short_gb, taken):
    # an empty 2 GB machine short of the demand by `short_gb`
    topo = two_node_topology()
    machine = Machine(0, 0, SMALL)
    demand_gb = SMALL.memory_gb + short_gb
    for result in (select_machine_fws(demand_gb, 1, [], [machine], topo,
                                      default_catalog()),
                   greedy_select_machine(demand_gb, 1, [machine], topo,
                                         default_catalog())):
        assert (result == ("existing", machine)) is taken


def test_policy_registry_has_exactly_four():
    assert sorted(GREEDY_POLICIES) == ["lfdt", "lfff", "mfdt", "mfff"]


def random_queue(rng, size):
    # few distinct labels and dependents, and siblings that share an enqueue
    # time, so ties reach the later key fields
    times = [rng.uniform(0.0, 500.0) for _ in range(3)]
    return [entry(rng.randrange(4), sid, rng.randint(1, 3),
                  enqueue=rng.choice(times), dependents=rng.randrange(3))
            for sid in range(size)]


def test_static_fws_key_matches_refreshed_weight_order():
    # the engine ranks by a key fixed at enqueue; the paper ranks by the
    # weight at dispatch time, which every entry reads at the same `now`
    rng = random.Random(5)
    for _ in range(500):
        alpha, beta = rng.choice(((0.0, rng.uniform(0.001, 1.0)),
                                  (rng.uniform(0.1, 5.0), 0.0),
                                  (rng.uniform(0.1, 5.0), rng.uniform(0.001, 1.0))))
        params = WeightParams(alpha_dep=alpha, beta_wait=beta)
        q = random_queue(rng, rng.randint(1, 12))
        now = max(e.enqueue_time_ms for e in q) + rng.choice(
            (0.0, rng.uniform(0.0, 1e4)))

        def refreshed(e):
            return (-e.label, -compute_weight(e, now, params), e.enqueue_time_ms,
                    e.instance_id, e.service_id)

        assert sorted(q, key=priority_key(params)) == sorted(q, key=refreshed)


# Reference machine selection: the list-building implementations that the
# single-loop ones replaced.  Both must pick the same machine on any input.

LEAST_FULL = "least_full"
MOST_FULL = "most_full"


def oracle_greedy_select_machine(demand_memory_gb, demand_cores, machines,
                                 machine_bias, topology, catalog, now_ms):
    usable = [m for m in machines
              if m.active_at_ms <= now_ms and m.fits(demand_memory_gb, demand_cores)]
    if usable:
        if machine_bias == LEAST_FULL:
            key = lambda m: (m.utilization(), m.machine_id)
        elif machine_bias == MOST_FULL:
            key = lambda m: (-m.utilization(), m.machine_id)
        else:
            raise ValueError(f"unknown machine bias {machine_bias!r}")
        return ("existing", min(usable, key=key))
    open_nodes = [n for n in topology.nodes.values() if n.has_free_slot()]
    if not open_nodes:
        return None
    node = min(open_nodes, key=lambda n: n.node_id)
    return oracle_provision(node, demand_memory_gb, demand_cores, catalog)


def oracle_provision(node, demand_memory_gb, demand_cores, catalog):
    """A demand that no catalog type covers gets no machine."""
    vm_type = nearest_vm_type(demand_memory_gb, demand_cores, catalog)
    if vm_type is None:
        return None
    return ("provision", node.node_id, vm_type)


def oracle_traffic_objective(machine, pred_placements, topology):
    cost = 0.0
    for _, pred_machine, data_out_kb in pred_placements:
        if pred_machine.machine_id != machine.machine_id:
            cost += data_out_kb * topology.hops(pred_machine.node_id, machine.node_id)
    return cost


def oracle_select_machine_fws(demand_memory_gb, demand_cores, pred_placements,
                              machines, topology, catalog, now_ms):
    usable = [m for m in machines
              if m.active_at_ms <= now_ms and m.fits(demand_memory_gb, demand_cores)]
    pred_machine_ids = {pm.machine_id for _, pm, _ in pred_placements}
    affine = [m for m in usable if m.machine_id in pred_machine_ids]
    for candidates in (affine, usable):
        if candidates:
            best = min(candidates,
                       key=lambda m: (oracle_traffic_objective(m, pred_placements,
                                                               topology),
                                      m.machine_id))
            return ("existing", best)
    open_nodes = [n for n in topology.nodes.values() if n.has_free_slot()]
    if not open_nodes:
        return None
    pred_nodes = [pm.node_id for _, pm, _ in pred_placements]
    best_node = min(open_nodes,
                    key=lambda n: (sum(topology.path_delay_s(p, n.node_id)
                                       for p in pred_nodes), n.node_id))
    return oracle_provision(best_node, demand_memory_gb, demand_cores, catalog)


def outcome(select, *args):
    """A comparable summary of one selection call: machine ids, not objects."""
    result = select(*args)
    if result is None or result[0] == "provision":
        return result
    return ("existing", result[1].machine_id)


def random_machines(rng, topology, catalog, now_ms):
    """Machines on few nodes with coarse loads, so utilizations, hop counts
    and traffic objectives tie often; ids are shuffled against list order."""
    count = rng.randint(0, 12)
    ids = list(range(count))
    rng.shuffle(ids)
    machines = []
    for machine_id in ids:
        vm = rng.choice(catalog)
        m = Machine(machine_id, rng.choice(sorted(topology.nodes)), vm,
                    active_at_ms=rng.choice((0.0, now_ms, now_ms + 10.0)))
        for k in range(rng.randint(0, 3)):
            mem, cores = rng.choice((0.5, 1.0, 2.0)), rng.choice((0, 1))
            if m.fits(mem, cores):
                m.allocate((machine_id, k), mem, cores)
        machines.append(m)
    return machines


def test_single_loop_selection_matches_list_based_oracle():
    rng = random.Random(11)
    catalog = default_catalog()
    now_ms = 100.0
    for _ in range(3000):
        topology = default_topology(TopologySpec(micro_count=4, core_count=2,
                                                 micro_slots=2, core_slots=3))
        for node in topology.nodes.values():
            node.used_slots = rng.choice((0, node.vm_slots))
        for link in topology.links.values():
            link.background_pps = rng.choice((0.0, 0.5)) * link.mu_pps
        machines = random_machines(rng, topology, catalog, now_ms)
        # the engine passes only the machines that can take work now, in
        # policy order; the oracles see every machine, in list order, and
        # filter by the clock themselves
        active = [m for m in machines if m.active_at_ms <= now_ms]
        demand = (rng.choice((0.5, 1.0, 2.0, 4.0, 16.0)), rng.choice((1, 2)))
        for bias, order in ((LEAST_FULL, least_full), (MOST_FULL, most_full)):
            args = (*demand, machines, bias, topology, catalog, now_ms)
            assert outcome(greedy_select_machine, *demand,
                           sorted(active, key=order), topology, catalog) == \
                outcome(oracle_greedy_select_machine, *args)
        preds = [(sid, rng.choice(active), rng.choice((5.0, 10.0, 12.5)))
                 for sid in range(rng.randint(0, 3) if active else 0)]
        assert outcome(select_machine_fws, *demand, preds,
                       sorted(active, key=rank_key_fws), topology, catalog) == \
            outcome(oracle_select_machine_fws, *demand, preds, machines,
                    topology, catalog, now_ms)
