import math
from types import SimpleNamespace

import pytest

from sfcsched.chains import MicroServiceDef, ServiceChain, UserRequest
from sfcsched.engine import Placement, run
from sfcsched.infrastructure import Machine, default_catalog, default_topology
from sfcsched.metrics import (_replay_boot_and_transfers, accumulate_traffic,
                              check_sla, total_cost)
from sfcsched.scenario import Scenario


def place(iid, sid, mid):
    return Placement(instance_id=iid, service_id=sid, machine_id=mid,
                     start_ms=0.0, finish_ms=1.0, dispatch_ms=0.0,
                     boot_wait_ms=0.0, transfer_ms=0.0)


def mkdefs(data):
    return {sid: MicroServiceDef(sid, 50.0, kb, 1.0, 1)
            for sid, kb in data.items()}


def test_check_sla_examples():
    req = UserRequest(0, 1, 0.0, delay_sla_ms=250.0, cost_sla=1.0)
    assert check_sla(req, 200.0, 0.5)
    assert not check_sla(req, 300.0, 0.5)
    assert not check_sla(req, 200.0, 0.5, dropped=True)
    assert not check_sla(req, 200.0, 2.0)  # cost bound violated


def test_traffic_zero_when_colocated():
    chain = ServiceChain(1, {1, 2, 3}, {(1, 2), (2, 3)})
    placements = [place(0, 1, 0), place(0, 2, 0), place(0, 3, 0)]
    assert accumulate_traffic(placements, {0: chain}, mkdefs({1: 10, 2: 10, 3: 10})) == 0.0


def test_traffic_single_crossing_edge():
    chain = ServiceChain(1, {1, 2}, {(1, 2)})
    placements = [place(0, 1, 0), place(0, 2, 1)]
    assert accumulate_traffic(placements, {0: chain},
                              mkdefs({1: 12.0, 2: 9.0})) == 12.0


def test_traffic_sfc2_split():
    chain = ServiceChain(2, {6, 7, 8, 9, 10},
                         {(6, 7), (6, 8), (7, 9), (8, 9), (9, 10)})
    # 6 alone on machine 0; 7,8,9 on machine 1; 10 on machine 2:
    # crossing edges are (6,7), (6,8) and (9,10)
    placements = [place(0, 6, 0), place(0, 7, 1), place(0, 8, 1),
                  place(0, 9, 1), place(0, 10, 2)]
    defs = mkdefs({6: 10.0, 7: 5.0, 8: 5.0, 9: 8.0, 10: 5.0})
    assert accumulate_traffic(placements, {0: chain}, defs) == 10.0 + 10.0 + 8.0


def test_traffic_skips_unplaced_services():
    chain = ServiceChain(1, {1, 2}, {(1, 2)})
    placements = [place(0, 1, 0)]  # request dropped before service 2 ran
    assert accumulate_traffic(placements, {0: chain}, mkdefs({1: 12.0, 2: 9.0})) == 0.0


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
    tie = 10.0 + first_ms  # request 0's transfer starts at 10 ms

    def replay(dispatch_ms, delay_ms):
        placements = [Placement(0, 1, 0, 0.0, 5.0, 0.0, 0.0, 0.0),
                      Placement(1, 1, 0, 0.0, 5.0, 0.0, 0.0, 0.0),
                      Placement(0, 2, 1, tie, tie + 50.0, 10.0, 0.0, first_ms,
                                {1: first_ms}),
                      Placement(1, 2, 2, dispatch_ms + delay_ms,
                                dispatch_ms + delay_ms + 50.0, dispatch_ms, 0.0,
                                delay_ms, {1: delay_ms})]
        sim = SimpleNamespace(topology=topo, machines=machines, defs=defs,
                              placements=placements,
                              scenario=SimpleNamespace(provision_latency_ms=50.0))
        _replay_boot_and_transfers(
            sim, {0: chain, 1: chain},
            {(p.instance_id, p.service_id): p for p in placements})

    replay(tie, idle_ms)
    with pytest.raises(AssertionError, match="replay gives"):
        replay(tie, loaded_ms)
    earlier = math.nextafter(tie, -math.inf)
    replay(earlier, loaded_ms)
    with pytest.raises(AssertionError, match="replay gives"):
        replay(earlier, idle_ms)
