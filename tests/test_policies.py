import random

import pytest

from sfcsched.chains import build_chain
from sfcsched.errors import EmptyQueue, NoFeasibleType
from sfcsched.fws import (LabeledService, WeightParams, assign_labels,
                          compute_weight, priority_key, select_machine_fws,
                          select_next_service)
from sfcsched.greedy import (GREEDY_POLICIES, LEAST_FULL, MOST_FULL,
                             greedy_select_machine, greedy_select_service,
                             priority_key_for)
from sfcsched.infrastructure import (CloudNode, Link, Machine, Topology, VmType,
                                     default_catalog, default_topology,
                                     nearest_vm_type)


def naive_labels(chain, exec_time_ms):
    """Reference labeler: rescan all unlabeled services each round, keep the
    one with no unlabeled successor and the smallest execution time."""
    labels = {}
    for next_label in range(1, len(chain.nodes) + 1):
        candidates = [n for n in chain.nodes if n not in labels
                      and all(s in labels for s in chain.successors(n))]
        best = min(candidates, key=lambda n: (exec_time_ms[n], n))
        labels[best] = next_label
    return labels


def test_labels_linear_chain_reversed():
    chain = build_chain(0, {1, 2, 3}, {(1, 2), (2, 3)})
    exec_ms = {1: 42.0, 2: 11.0, 3: 99.0}
    assert assign_labels(chain, exec_ms) == {3: 1, 2: 2, 1: 3}


def test_labels_fork_prefers_short_execution():
    chain = build_chain(1, {1, 2, 3, 4, 5}, {(1, 2), (2, 3), (3, 4), (3, 5)})
    exec_ms = {1: 60.0, 2: 60.0, 3: 60.0, 4: 30.0, 5: 50.0}
    assert assign_labels(chain, exec_ms) == {4: 1, 5: 2, 3: 3, 2: 4, 1: 5}


def test_labels_singleton():
    chain = build_chain(0, {7}, set())
    assert assign_labels(chain, {7: 10.0}) == {7: 1}


def random_dag(rng, max_nodes=12):
    n = rng.randint(1, max_nodes)
    edges = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < 0.35}
    return build_chain(0, set(range(1, n + 1)), edges)


def test_labels_match_reference_on_random_dags():
    rng = random.Random(2024)
    for _ in range(150):
        chain = random_dag(rng)
        exec_ms = {n: rng.uniform(10, 100) for n in chain.nodes}
        got = assign_labels(chain, exec_ms)
        assert got == naive_labels(chain, exec_ms)
        assert sorted(got.values()) == list(range(1, len(chain.nodes) + 1))
        for i, j in chain.edges:
            assert got[i] > got[j]


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
    params = WeightParams()
    q = [entry(0, 1, 5, dependents=0), entry(1, 2, 3, dependents=9)]
    assert select_next_service(q, 0.0, params).label == 5


def test_select_weight_breaks_label_tie():
    params = WeightParams(alpha_dep=1.0, beta_wait=0.01)
    q = [entry(0, 1, 3, dependents=2), entry(1, 1, 3, dependents=1)]
    winner = select_next_service(q, 0.0, params)
    assert (winner.instance_id, winner.service_id) == (0, 1)


def test_select_wait_decides_equal_dependents():
    params = WeightParams(alpha_dep=1.0, beta_wait=0.01)
    old = entry(5, 1, 3, enqueue=0.0, dependents=1)
    young = entry(2, 1, 3, enqueue=90.0, dependents=1)
    assert select_next_service([young, old], 100.0, params) is old


def test_select_final_tie_break_is_lowest_ids():
    params = WeightParams()
    q = [entry(4, 9, 2), entry(4, 7, 2), entry(3, 9, 2)]
    winner = select_next_service(q, 0.0, params)
    assert (winner.instance_id, winner.service_id) == (3, 9)


def test_select_empty_queue_raises():
    with pytest.raises(EmptyQueue):
        select_next_service([], 0.0, WeightParams())
    with pytest.raises(EmptyQueue):
        greedy_select_service([], "first_finish")


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
                                      default_catalog(), now_ms=0.0)
    assert kind == "existing" and chosen is m0


def test_fws_traffic_rule_prefers_same_node():
    topo = two_node_topology()
    m0 = Machine(0, 0, SMALL)
    m0.allocate((0, 3), 1.0, 1)  # predecessor machine is full
    m_same_node = Machine(1, 0, SMALL)
    m_far = Machine(2, 1, SMALL)
    preds = [(3, m0, 10.0)]
    kind, chosen = select_machine_fws(1.0, 1, preds, [m0, m_same_node, m_far],
                                      topo, default_catalog(), now_ms=0.0)
    assert kind == "existing" and chosen is m_same_node
    # brute-force the hop-weighted objective over both candidates
    hops = {m_same_node.machine_id: topo.hops(0, 0), m_far.machine_id: topo.hops(0, 1)}
    assert hops[m_same_node.machine_id] < hops[m_far.machine_id]


def test_fws_cold_start_provisions_lowest_node():
    topo = two_node_topology()
    result = select_machine_fws(1.5, 1, [], [], topo, default_catalog(), 0.0)
    assert result == ("provision", 0, SMALL)


def test_fws_every_node_full_returns_none():
    topo = two_node_topology()
    for node in topo.nodes.values():
        node.used_slots = node.vm_slots
    full = Machine(0, 0, SMALL)
    full.allocate((0, 1), 1.9, 1)
    assert select_machine_fws(1.0, 1, [], [full], topo,
                              default_catalog(), 0.0) is None


def test_greedy_service_bias_examples():
    fast = entry(1, 2, 4, exec_ms=30.0)
    slow = entry(0, 1, 4, exec_ms=70.0)
    assert greedy_select_service([slow, fast], "first_finish") is fast
    assert greedy_select_service([slow, fast], "decreasing_time") is slow
    assert greedy_select_service([fast], "decreasing_time") is fast


def test_greedy_service_candidates_are_max_label_set():
    lower_label_shorter = entry(0, 1, 2, exec_ms=5.0)
    top = entry(1, 2, 6, exec_ms=90.0)
    assert greedy_select_service([lower_label_shorter, top], "first_finish") is top


def test_greedy_machine_bias_examples():
    topo = two_node_topology()
    medium = VmType("t2.medium", 4.0, 2, 25.0, 0.068)
    low = Machine(0, 0, medium)
    low.allocate((0, 1), 0.8, 0)      # memory-only load: utilization 0.2
    high = Machine(1, 0, medium)
    high.allocate((0, 2), 3.2, 0)     # utilization 0.8
    machines = [low, high]
    _, m = greedy_select_machine(0.5, 1, machines, "least_full", topo,
                                 default_catalog(), 0.0)
    assert m is low
    _, m = greedy_select_machine(0.5, 1, machines, "most_full", topo,
                                 default_catalog(), 0.0)
    assert m is high


def test_greedy_most_full_respects_feasibility():
    topo = two_node_topology()
    full = Machine(0, 0, SMALL)
    full.allocate((0, 1), 1.9, 1)
    roomy = Machine(1, 0, VmType("t2.medium", 4.0, 2, 25.0, 0.068))
    roomy.allocate((0, 2), 1.0, 1)
    _, m = greedy_select_machine(1.0, 1, [full, roomy], "most_full", topo,
                                 default_catalog(), 0.0)
    assert m is roomy


def test_greedy_provisions_on_lowest_free_node():
    topo = two_node_topology()
    topo.nodes[0].used_slots = topo.nodes[0].vm_slots
    result = greedy_select_machine(1.0, 1, [], "least_full", topo,
                                   default_catalog(), 0.0)
    assert result == ("provision", 1, SMALL)
    for node in topo.nodes.values():
        node.used_slots = node.vm_slots
    assert greedy_select_machine(1.0, 1, [], "least_full", topo,
                                 default_catalog(), 0.0) is None


def test_policy_registry_has_exactly_four():
    assert sorted(GREEDY_POLICIES) == ["lfdt", "lfff", "mfdt", "mfff"]


def random_queue(rng, size):
    # few distinct values, so ties reach the later key fields
    return [entry(rng.randrange(4), sid, rng.randint(1, 3),
                  enqueue=float(rng.choice((0.0, 10.0, 20.0))),
                  exec_ms=float(rng.choice((20.0, 50.0))),
                  dependents=rng.randrange(3))
            for sid in range(size)]


def drain(queue, select):
    """Repeated selection: the order a one-at-a-time dispatcher would offer."""
    queue, out = list(queue), []
    while queue:
        out.append(select(queue))
        queue.remove(out[-1])
    return out


def test_priority_keys_sort_in_selection_order():
    # the engine sorts its ready queue by these keys once per dispatch pass
    rng = random.Random(5)
    params = WeightParams(alpha_dep=1.0, beta_wait=0.05)
    for _ in range(50):
        q = random_queue(rng, rng.randint(1, 12))
        by_select = drain(q, lambda rest: select_next_service(rest, 30.0, params))
        assert sorted(q, key=priority_key) == by_select
        for bias in ("first_finish", "decreasing_time"):
            assert sorted(q, key=priority_key_for(bias)) == \
                drain(q, lambda rest: greedy_select_service(rest, bias))


def test_priority_key_for_rejects_unknown_bias():
    with pytest.raises(ValueError):
        priority_key_for("random")
    with pytest.raises(ValueError):
        greedy_select_service([entry(0, 1, 1)], "random")


# Reference machine selection: the list-building implementations that the
# single-loop ones replaced.  Both must pick the same machine on any input.

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
    return ("provision", node.node_id,
            nearest_vm_type(demand_memory_gb, demand_cores, catalog))


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
    return ("provision", best_node.node_id,
            nearest_vm_type(demand_memory_gb, demand_cores, catalog))


def outcome(select, *args):
    """A comparable summary of one selection call: machine ids, not objects."""
    try:
        result = select(*args)
    except NoFeasibleType:
        return "no feasible type"
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
        topology = default_topology(micro_count=4, core_count=2,
                                    micro_slots=2, core_slots=3)
        for node in topology.nodes.values():
            node.used_slots = rng.choice((0, node.vm_slots))
        for link in topology.links.values():
            link.background_pps = rng.choice((0.0, 0.5)) * link.mu_pps
        machines = random_machines(rng, topology, catalog, now_ms)
        demand = (rng.choice((0.5, 1.0, 2.0, 4.0, 16.0)), rng.choice((1, 2)))
        for bias in (LEAST_FULL, MOST_FULL):
            args = (*demand, machines, bias, topology, catalog, now_ms)
            assert outcome(greedy_select_machine, *args) == \
                outcome(oracle_greedy_select_machine, *args)
        preds = [(sid, rng.choice(machines), rng.choice((5.0, 10.0, 12.5)))
                 for sid in range(rng.randint(0, 3) if machines else 0)]
        args = (*demand, preds, machines, topology, catalog, now_ms)
        assert outcome(select_machine_fws, *args) == \
            outcome(oracle_select_machine_fws, *args)
