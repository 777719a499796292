import math
import random

import pytest

from sfcsched.chains import (MicroServiceDef, ServiceChain, UserRequest,
                             canonical_sfcs, ready_services)


def sfc1():
    return ServiceChain(1, {1, 2, 3, 4, 5}, {(1, 2), (2, 3), (3, 4), (3, 5)})


def test_build_chain_fork():
    chain = sfc1()
    assert set(chain.successors(3)) == {4, 5}
    assert chain.predecessors(2) == [1]


def test_build_chain_singleton():
    chain = ServiceChain(9, {7}, set())
    assert chain.sources() == [7] == chain.sinks()


def test_build_chain_rejects_cycle():
    with pytest.raises(ValueError, match="chain 1 edges contain a cycle"):
        ServiceChain(1, {1, 2}, {(1, 2), (2, 1)})


def test_build_chain_rejects_dangling_edge():
    with pytest.raises(ValueError, match=r"edge \(1, 3\) references unknown node"):
        ServiceChain(1, {1, 2}, {(1, 3)})


def test_build_chain_rejects_empty():
    with pytest.raises(ValueError):
        ServiceChain(1, set(), set())


def test_canonical_first_chain_has_linear_prefix():
    chain = canonical_sfcs()[0]
    assert (1, 2) in chain.edges and (2, 3) in chain.edges and (3, 4) in chain.edges


def test_canonical_second_chain_joins_on_nine():
    chain = canonical_sfcs()[1]
    assert sorted(chain.predecessors(9)) == [7, 8]


def test_canonical_ids_partition_1_to_20():
    chains = canonical_sfcs()
    assert len(chains) == 4
    seen = []
    for c in chains:
        seen.extend(c.nodes)
    assert sorted(seen) == list(range(1, 21))


def test_canonical_ids_ordered_along_every_path():
    for chain in canonical_sfcs():
        for i, j in chain.edges:
            assert i < j


def unfinished_preds(chain):
    return {n: len(chain.predecessors(n)) for n in chain.nodes}


def finish_in_turn(chain, order):
    """What ready_services returns as each service of `order` finishes."""
    counts = unfinished_preds(chain)
    return [ready_services(chain, sid, counts) for sid in order]


def test_ready_after_prefix():
    assert finish_in_turn(sfc1(), (1, 2)) == [[2], [3]]


def test_ready_parallel_branches():
    assert finish_in_turn(sfc1(), (1, 2, 3)) == [[2], [3], [4, 5]]


def test_ready_fresh_instance_source_only():
    chain = canonical_sfcs()[1]
    assert chain.sources() == [6]
    # the join 9 waits for its last predecessor
    assert finish_in_turn(chain, (6, 7, 8)) == [[7, 8], [], [9]]


def test_ready_disjoint_from_started():
    # finishing in any precedence order releases every non-source exactly
    # once, and only after all of its predecessors
    rng = random.Random(7)
    for _ in range(200):
        chain = random_dag(rng)
        counts = unfinished_preds(chain)
        released = list(chain.sources())
        finished = set()
        while len(finished) < len(chain.nodes):
            sid = rng.choice(sorted(set(released) - finished))
            finished.add(sid)
            for succ in ready_services(chain, sid, counts):
                assert set(chain.predecessors(succ)) <= finished
                released.append(succ)
        assert sorted(released) == sorted(chain.nodes)


def test_transitive_dependents_examples():
    assert sfc1().transitive_dependents(3) == 2
    assert sfc1().transitive_dependents(4) == 0
    assert canonical_sfcs()[1].transitive_dependents(6) == 4


def test_immediate_dependents_count_successors_only():
    # service 1 feeds service 2 alone, and 2, 3, 4 and 5 all wait on it
    assert sfc1().immediate_dependents(1) == 1
    assert sfc1().transitive_dependents(1) == 4
    assert sfc1().immediate_dependents(3) == 2
    assert sfc1().immediate_dependents(5) == 0
    with pytest.raises(KeyError, match="99"):
        sfc1().immediate_dependents(99)


def test_transitive_dependents_unknown_service():
    with pytest.raises(KeyError, match="99"):
        sfc1().transitive_dependents(99)


def random_dag(rng, max_nodes=10):
    n = rng.randint(1, max_nodes)
    nodes = list(range(1, n + 1))
    edges = set()
    for i in nodes:
        for j in nodes:
            if i < j and rng.random() < 0.3:
                edges.add((i, j))
    return ServiceChain(0, set(nodes), edges)


def reachable_matrix(chain):
    """Independent oracle: reflexive-transitive closure by iteration."""
    nodes = sorted(chain.nodes)
    reach = {i: set(chain.successors(i)) for i in nodes}
    changed = True
    while changed:
        changed = False
        for i in nodes:
            extra = set()
            for j in reach[i]:
                extra |= reach[j]
            if not extra <= reach[i]:
                reach[i] |= extra
                changed = True
    return reach


def test_transitive_dependents_matches_closure_oracle():
    rng = random.Random(1234)
    for _ in range(200):
        chain = random_dag(rng)
        reach = reachable_matrix(chain)
        for n in chain.nodes:
            assert chain.transitive_dependents(n) == len(reach[n])


def test_dependents_antitone_along_edges():
    rng = random.Random(99)
    for _ in range(200):
        chain = random_dag(rng)
        for i, j in chain.edges:
            di, dj = chain.transitive_dependents(i), chain.transitive_dependents(j)
            assert di >= dj
            if chain.successors(i) == [j]:
                assert di >= 1 + dj


def test_neighbour_lists_ascend_whatever_the_edge_order():
    # the engine sums traffic and link loads in predecessor order, so
    # seeded schedules depend on this order
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 10)
        ids = rng.sample(range(1, 50), n)  # topological order is not id order
        edges = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        rng.shuffle(edges)
        chain = ServiceChain(0, ids, edges)
        for node in ids:
            preds = chain.predecessors(node)
            succs = chain.successors(node)
            assert preds == sorted(a for a, b in edges if b == node)
            assert succs == sorted(b for a, b in edges if a == node)


def test_request_and_def_validation():
    with pytest.raises(ValueError):
        UserRequest(0, 1, 0.0, delay_sla_ms=-1.0, cost_sla=1.0)
    with pytest.raises(ValueError):
        MicroServiceDef(1, exec_time_ms=0.0, data_out_kb=5, memory_gb=1.0, cores=1)


REQUEST = dict(arrival_time_ms=0.0, delay_sla_ms=10.0, cost_sla=1.0)
SERVICE = dict(exec_time_ms=10.0, data_out_kb=5.0, memory_gb=1.0, cores=1)
# each numeric field, a value below its range, and the message naming both
# of its rules
REQUEST_RULES = (("arrival_time_ms", -1.0, "arrival time must be finite and >= 0"),
                 ("delay_sla_ms", 0.0, "SLA bounds must be finite and positive"),
                 ("cost_sla", -1.0, "SLA bounds must be finite and positive"))
SERVICE_RULES = (("exec_time_ms", 0.0, "times and sizes must be finite and positive"),
                 ("data_out_kb", -5.0, "times and sizes must be finite and positive"),
                 ("memory_gb", 0.0, "resource demand must be finite and positive"),
                 ("cores", 0, "resource demand must be finite and positive"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_numeric_field_rejects_nan_and_infinities(bad):
    # `nan <= 0` is false, so a bound written as a negated test lets NaN in
    for name, _, message in REQUEST_RULES:
        with pytest.raises(ValueError, match=message):
            UserRequest(0, 1, **{**REQUEST, name: bad})
    for name, _, message in SERVICE_RULES:
        with pytest.raises(ValueError, match=message):
            MicroServiceDef(1, **{**SERVICE, name: bad})


def test_every_numeric_field_rejects_a_value_below_its_range():
    for name, low, message in REQUEST_RULES:
        with pytest.raises(ValueError, match=message):
            UserRequest(0, 1, **{**REQUEST, name: low})
    for name, low, message in SERVICE_RULES:
        with pytest.raises(ValueError, match=message):
            MicroServiceDef(1, **{**SERVICE, name: low})
