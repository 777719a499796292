import pytest

from sfcsched import infrastructure
from sfcsched.errors import (NodeFull, NonPositiveRate, NoPath, NotBuffered,
                             UnstableQueue)
from sfcsched.infrastructure import (CloudNode, Link, Machine, Topology, VmType,
                                     default_catalog, default_topology,
                                     link_delay, nearest_vm_type,
                                     provision_machine)


def md1_alternate_form(lam, mu):
    """Oracle: deterministic service time plus M/D/1 queueing wait."""
    rho = lam / mu
    return 1.0 / mu + rho / (2.0 * mu * (1.0 - rho))


def test_link_delay_zero_load_is_service_time():
    assert link_delay(0.0, 100.0) == pytest.approx(0.01, rel=1e-12)
    assert link_delay(0.0, 250.0) == 1.0 / 250.0


def test_link_delay_half_load():
    assert link_delay(50.0, 100.0) == pytest.approx(0.015, rel=1e-12)
    assert link_delay(50.0, 100.0) == pytest.approx(md1_alternate_form(50, 100),
                                                    rel=1e-12)


def test_link_delay_high_load():
    assert link_delay(90.0, 100.0) == pytest.approx(0.055, rel=1e-12)
    assert link_delay(90.0, 100.0) == pytest.approx(md1_alternate_form(90, 100),
                                                    rel=1e-12)


def test_link_delay_unstable_and_bad_rates():
    with pytest.raises(UnstableQueue):
        link_delay(100.0, 100.0)
    with pytest.raises(UnstableQueue):
        link_delay(150.0, 100.0)
    with pytest.raises(NonPositiveRate):
        link_delay(0.0, 0.0)
    with pytest.raises(ValueError):
        link_delay(-1.0, 100.0)


def test_link_delay_monotone_in_load_and_rate():
    rhos = [i / 20 for i in range(19)]
    for mu in (10.0, 100.0, 10000.0):
        delays = [link_delay(r * mu, mu) for r in rhos]
        assert all(b > a for a, b in zip(delays, delays[1:]))
    for rho in (0.0, 0.5, 0.9):
        d_small = link_delay(rho * 100, 100.0)
        d_big = link_delay(rho * 1000, 1000.0)
        assert d_big < d_small


def line_topology():
    nodes = [CloudNode(0, "micro", 2), CloudNode(1, "core", 2), CloudNode(2, "micro", 2)]
    links = [Link((0, 1), 100.0), Link((1, 2), 100.0)]
    return Topology(nodes, links)


def test_path_delay_same_node_is_zero():
    topo = line_topology()
    assert topo.path_delay_s(1, 1) == 0.0


def test_path_delay_single_link():
    topo = line_topology()
    assert topo.path_delay_s(0, 1) == pytest.approx(0.01, rel=1e-12)


def test_path_delay_sums_line():
    topo = line_topology()
    for link in topo.links.values():
        link.background_pps = 50.0
    assert topo.path_delay_s(0, 2) == pytest.approx(0.03, rel=1e-12)


def test_path_delay_no_route():
    nodes = [CloudNode(0, "micro", 1), CloudNode(1, "micro", 1), CloudNode(2, "micro", 1)]
    topo = Topology(nodes, [Link((0, 1), 10.0)])
    with pytest.raises(NoPath):
        topo.path_delay_s(0, 2)
    with pytest.raises(NoPath):
        topo.route(0, 7)


def test_default_topology_shape():
    topo = default_topology()
    assert len(topo.nodes) == 20
    micro_nodes = [n for n in topo.nodes.values() if n.kind == "micro"]
    core = [n for n in topo.nodes.values() if n.kind == "core"]
    assert len(micro_nodes) == 16 and len(core) == 4
    assert min(c.vm_slots for c in core) > max(m.vm_slots for m in micro_nodes)
    #.core mesh: 6 links; one access link per micro-cloud
    assert len(topo.links) == 6 + 16
    # every pair is connected within 3 hops
    for a in topo.nodes:
        for b in topo.nodes:
            assert topo.hops(a, b) <= 3


def test_route_table_is_shared_per_topology_shape():
    a, b = default_topology(), default_topology()
    assert a._routes is b._routes
    assert all(type(route) is tuple for route in a._routes.values())
    # the shared table carries no load: each topology keeps its own links
    a.set_background_load(0.5)
    route = a.route(0, 19)
    a.links[route[0]].transfer_pps += 100.0
    assert b.links[route[0]].lambda_pps == 0.0
    assert a.path_delay_s(0, 19) > b.path_delay_s(0, 19)

    small = default_topology(micro_count=4, core_count=2)
    assert small._routes is not a._routes
    shape = tuple((n, tuple(small.adj[n])) for n in sorted(small.adj))
    assert small._routes == infrastructure._all_pairs_routes.__wrapped__(shape)
    assert small.route(0, 3) == ((0, 4), (4, 5), (3, 5))


def test_nearest_vm_type_examples():
    catalog = default_catalog()
    assert nearest_vm_type(1.5, 1, catalog).name == "t2.small"
    # equal footprint: the cheaper of the two 8 GB types wins
    assert nearest_vm_type(8.0, 2, catalog).name == "t2.large"
    assert nearest_vm_type(64.0, 32, catalog) is None
    assert nearest_vm_type(1.0, 1, []) is None


def test_provision_takes_a_node_slot():
    node = CloudNode(3, "micro", 1)
    vm = default_catalog()[0]
    machine = provision_machine(node, vm, 0, active_at_ms=50.0)
    assert (machine.node_id, machine.vm_type, machine.active_at_ms) == (3, vm, 50.0)
    assert machine.utilization() == 0.0 and not machine.hosted
    assert not node.has_free_slot()
    with pytest.raises(NodeFull):
        provision_machine(node, vm, 1)


def test_machine_capacity_enforced():
    vm = VmType("small", 2.0, 1, 25.0, 0.034)
    m = Machine(0, 0, vm)
    m.allocate((0, 1), 1.5, 1)
    assert not m.fits(1.0, 1)
    with pytest.raises(ValueError):
        m.allocate((0, 2), 1.0, 1)
    assert m.utilization() == pytest.approx(1.0)  # cores bind


def test_buffer_service_releases_compute():
    vm = VmType("medium", 4.0, 2, 25.0, 0.068)
    m = Machine(0, 0, vm)
    m.allocate((7, 3), 2.0, 1)
    m.allocate((7, 4), 1.5, 1)
    assert m.hosted == {(7, 3), (7, 4)}
    assert not m.fits(0.5, 1)
    m.buffer_service((7, 3), 2.0, 1)
    assert m.hosted == {(7, 4)}
    assert (m.used_memory_gb, m.used_cores) == (1.5, 1)
    assert m.fits(2.5, 1)
    with pytest.raises(NotBuffered):
        m.buffer_service((7, 3), 2.0, 1)  # already released
    with pytest.raises(NotBuffered):
        m.buffer_service((0, 0), 1.0, 1)  # never hosted
    m.buffer_service((7, 4), 1.5, 1)
    assert not m.hosted and m.utilization() == 0.0


def test_machine_usage_never_exceeds_capacity_randomized():
    import random
    rng = random.Random(5)
    vm = VmType("large", 8.0, 2, 25.0, 0.136)
    m = Machine(0, 0, vm)
    live = {}
    for step in range(500):
        if live and rng.random() < 0.5:
            key = rng.choice(sorted(live))
            mem, cores = live.pop(key)
            m.buffer_service(key, mem, cores)
        else:
            key = (step, 0)
            mem, cores = rng.uniform(0.1, 3.0), rng.choice([1, 2])
            if m.fits(mem, cores):
                m.allocate(key, mem, cores)
                live[key] = (mem, cores)
        assert m.used_memory_gb <= vm.memory_gb + 1e-9
        assert m.used_cores <= vm.cores
        assert 0.0 <= m.utilization() <= 1.0 + 1e-9
        assert m.hosted == set(live)
