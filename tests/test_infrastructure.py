import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def delay_outcome(fn, *args):
    """The exact bits of fn's delay, or the type of what it raised."""
    try:
        return fn(*args).hex()
    except Exception as exc:  # the outcome under test
        return type(exc)


RATES = st.one_of(st.sampled_from((0.0, -0.0, 1.0, 3125.0, 12500.0, -1.0)),
                  st.floats(-1e5, 1e5, allow_nan=False, allow_infinity=False))
RHO_MAX = st.one_of(st.sampled_from((0.995, 0.5, 1.0, 0.0, -0.0, 1.5)),
                    st.floats(0.0, 1.5, allow_nan=False))
# "clamp" puts the whole load at rho_max * mu_pps times the factor drawn
STEPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(("background_pps", "transfer_pps", "mu_pps")), RATES),
    st.tuples(st.just("rho_max"), RHO_MAX),
    st.tuples(st.just("clamp"), st.sampled_from(
        (1.0, math.nextafter(1.0, 2.0), 1.5, 3.0)))), max_size=12)


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(mu=RATES, background=RATES, transfer=RATES, rho_max=RHO_MAX, steps=STEPS)
@example(mu=3125.0, background=0.0, transfer=0.0, rho_max=0.995,
         steps=[("background_pps", -0.0), ("transfer_pps", -0.0), ("rho_max", -0.0),
                ("rho_max", 0.0), ("clamp", 1.0), ("mu_pps", 0.0)])
def test_link_delay_s_equals_the_uncached_clamped_formula(mu, background, transfer,
                                                          rho_max, steps):
    # delay_s is memoised on (load, rate, clamp); a changed attribute must
    # give the fresh value, bit for bit, and a bad rate must raise each time
    link = Link((0, 1), mu, background, transfer)
    for attr, value in [(None, None)] + steps:
        if attr == "rho_max":
            rho_max = value
        elif attr == "clamp":
            link.background_pps, link.transfer_pps = rho_max * link.mu_pps * value, 0.0
        elif attr is not None:
            setattr(link, attr, value)
        lam = link.background_pps + link.transfer_pps
        expect = delay_outcome(link_delay, min(lam, rho_max * link.mu_pps), link.mu_pps)
        if link.mu_pps <= 0:
            assert expect is NonPositiveRate
        for _ in range(2):  # the second call is answered from the memo
            assert delay_outcome(link.delay_s, rho_max) == expect


def test_link_delay_s_raises_on_every_call_for_a_nonpositive_rate():
    link = Link((0, 1), 3125.0)
    assert link.delay_s() == link_delay(0.0, 3125.0)
    for mu in (0.0, -0.0, -3125.0):
        link.mu_pps = mu
        for _ in range(3):
            with pytest.raises(NonPositiveRate):
                link.delay_s()
    link.mu_pps = 3125.0
    assert link.delay_s() == link_delay(0.0, 3125.0)


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



def transfer_topology():
    """The default topology at 30% background load, with machines on micro
    nodes 0 and 1 (one core behind) and on micro node 5 (another core)."""
    topo = default_topology()
    topo.set_background_load(0.3)
    slow, fast = default_catalog()[0], default_catalog()[3]  # 25 and 56.25 MB/s
    a = Machine(0, 0, fast)
    return topo, a, Machine(1, 0, slow), Machine(2, 5, fast), Machine(3, 1, fast)


def test_transfer_within_a_node_serializes_only():
    topo, a, same_node, _, _ = transfer_topology()
    assert topo.start_transfer(a, same_node, 50.0) == (50.0 / 25.0, None)
    assert all(link.transfer_pps == 0.0 for link in topo.links.values())


def test_transfer_across_nodes_waits_out_its_route_and_loads_it():
    topo, a, _, far, _ = transfer_topology()
    route = topo.route(0, 5)
    assert len(route) == 3
    expected = 100.0 / 56.25 + 1000.0 * topo.path_delay_s(0, 5)
    delay_ms, transfer = topo.start_transfer(a, far, 100.0)
    assert delay_ms == expected
    assert transfer == (route, topo.line_rate_pps(56.25))
    for key, link in topo.links.items():
        assert link.transfer_pps == (transfer[1] if key in route else 0.0)


def test_second_transfer_sees_the_first_ones_load():
    topo, a, _, far, near = transfer_topology()
    idle_ms = 100.0 / 56.25 + 1000.0 * topo.path_delay_s(0, 1)
    _, first = topo.start_transfer(a, far, 100.0)
    shared = set(topo.route(0, 1)) & set(first[0])
    assert shared  # node 0's access link
    loaded_ms = 100.0 / 56.25 + 1000.0 * topo.path_delay_s(0, 1)
    assert loaded_ms > idle_ms
    second_ms, second = topo.start_transfer(a, near, 100.0)
    assert second_ms == loaded_ms
    for key in shared:
        assert topo.links[key].transfer_pps == first[1] + second[1]


def test_end_transfer_returns_every_link_to_background():
    topo, a, slow, far, near = transfer_topology()
    transfers = [topo.start_transfer(a, far, 100.0)[1],
                 topo.start_transfer(slow, near, 40.0)[1],
                 topo.start_transfer(a, near, 100.0)[1]]
    assert any(link.transfer_pps > 0.0 for link in topo.links.values())
    for transfer in transfers:
        topo.end_transfer(*transfer)
    for link in topo.links.values():
        assert link.transfer_pps == pytest.approx(0.0, abs=1e-9)
        assert link.lambda_pps == pytest.approx(0.3 * link.mu_pps)

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
