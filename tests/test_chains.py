import random

import pytest

from sfcsched.chains import (ChainInstance, MicroServiceDef, UserRequest,
                             build_chain, canonical_sfcs, ready_services)
from sfcsched.errors import CycleDetected, DanglingEdge, UnknownService


def sfc1():
    return build_chain(1, {1, 2, 3, 4, 5}, {(1, 2), (2, 3), (3, 4), (3, 5)})


def test_build_chain_fork():
    chain = sfc1()
    assert set(chain.successors(3)) == {4, 5}
    assert chain.predecessors(2) == [1]


def test_build_chain_singleton():
    chain = build_chain(9, {7}, set())
    assert chain.sources() == [7] == chain.sinks()


def test_build_chain_rejects_cycle():
    with pytest.raises(CycleDetected):
        build_chain(1, {1, 2}, {(1, 2), (2, 1)})


def test_build_chain_rejects_dangling_edge():
    with pytest.raises(DanglingEdge):
        build_chain(1, {1, 2}, {(1, 3)})


def test_build_chain_rejects_empty():
    with pytest.raises(ValueError):
        build_chain(1, set(), set())


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


def make_instance(chain, done=()):
    inst = ChainInstance(0, chain, 0)
    order = sorted(done)
    for sid in order:
        inst.mark_ready(sid)
        inst.mark_running(sid)
        inst.mark_done(sid)
    return inst


def test_ready_after_prefix():
    inst = make_instance(sfc1(), done=(1, 2))
    assert ready_services(inst) == {3}


def test_ready_parallel_branches():
    inst = make_instance(sfc1(), done=(1, 2, 3))
    assert ready_services(inst) == {4, 5}


def test_ready_fresh_instance_source_only():
    inst = make_instance(canonical_sfcs()[1])
    assert ready_services(inst) == {6}


def test_ready_disjoint_from_started():
    inst = make_instance(sfc1(), done=(1,))
    inst.mark_ready(2)
    inst.mark_running(2)
    ready = ready_services(inst)
    assert 2 not in ready and ready <= inst.chain.nodes


def test_status_transitions_are_monotone():
    inst = make_instance(sfc1())
    with pytest.raises(ValueError):
        inst.mark_running(1)  # never marked ready
    inst.mark_ready(1)
    with pytest.raises(ValueError):
        inst.mark_done(1)  # never started


def test_transitive_dependents_examples():
    assert sfc1().transitive_dependents(3) == 2
    assert sfc1().transitive_dependents(4) == 0
    assert canonical_sfcs()[1].transitive_dependents(6) == 4


def test_transitive_dependents_unknown_service():
    with pytest.raises(UnknownService):
        sfc1().transitive_dependents(99)


def random_dag(rng, max_nodes=10):
    n = rng.randint(1, max_nodes)
    nodes = list(range(1, n + 1))
    edges = set()
    for i in nodes:
        for j in nodes:
            if i < j and rng.random() < 0.3:
                edges.add((i, j))
    return build_chain(0, set(nodes), edges)


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


def test_request_and_def_validation():
    with pytest.raises(ValueError):
        UserRequest(0, 1, 0.0, delay_sla_ms=-1.0, cost_sla=1.0)
    with pytest.raises(ValueError):
        MicroServiceDef(1, exec_time_ms=0.0, data_out_kb=5, capacity_rps=20,
                        memory_gb=1.0, cores=1)
