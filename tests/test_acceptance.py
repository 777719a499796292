"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `criterion NN: PASS/FAIL` line.  Comparison criteria
run `run_sweep` on the default scenario over subsets of the default sweep
grid (`SweepSpec()`), so a default `sfcsched sweep` reproduces what they
check.  Heavy run tables are computed once per session and shared.
"""

import math
import random

import pytest

from sfcsched.chains import ServiceChain
from sfcsched.engine import SimulationRun
from sfcsched.fws import assign_labels
from sfcsched.infrastructure import (CloudNode, Link, Topology, default_catalog,
                                     link_delay)
from sfcsched.metrics import validate_run
from sfcsched.reporting import SweepSpec, render_results, run_sweep
from sfcsched.scenario import POLICY_NAMES, Scenario

BASELINES = ("lfff", "mfff", "lfdt", "mfdt")
# sampling slack for the monotonicity check of criterion 7: the model's mean
# turnaround is exactly nondecreasing in background load, but finite seed
# averages of a ~250 ms metric wobble by a few hundredths of a millisecond
MONOTONE_SLACK_MS = 0.25


def _verdict(num, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {flag} - {detail}")
    return ok


def _means(var, **spec):
    """{(policy, point): {metric: mean}} from `run_sweep` on the default
    scenario, over the default sweep grid with `spec`'s fields replaced."""
    table = {}
    for row in run_sweep(Scenario(), SweepSpec(**spec), var=var):
        table.setdefault((row.policy, row.sweep_value), {})[row.metric] = row.mean
    return table


@pytest.fixture(scope="session")
def demand_table():
    """every policy at four demand points, fws alone at the other three"""
    return {**_means("demand", demand_points=(1000, 3000, 4000, 5000)),
            **_means("demand", demand_points=(100, 500, 2000), policies=("fws",))}


def test_criterion_01_link_delay_matches_alternate_form():
    worst = 0.0
    for mu in (10.0, 100.0, 10000.0):
        for i in range(20):
            rho = i * 0.05
            if rho > 0.951:
                continue
            lam = rho * mu
            got = link_delay(lam, mu)
            want = 1.0 / mu + rho / (2.0 * mu * (1.0 - rho))
            worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-12
    assert _verdict(1, ok, f"max relative error {worst:.2e} (tolerance 1e-12)")


def _reference_labels(chain, exec_ms):
    labels = {}
    for next_label in range(1, len(chain.nodes) + 1):
        candidates = [n for n in chain.nodes if n not in labels
                      and all(s in labels for s in chain.successors(n))]
        best = min(candidates, key=lambda n: (exec_ms[n], n))
        labels[best] = next_label
    return labels


def test_criterion_02_labeling_matches_bruteforce_reference():
    rng = random.Random(20_24)
    checked = 0
    for _ in range(1000):
        n = rng.randint(1, 12)
        edges = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.3}
        chain = ServiceChain(0, set(range(1, n + 1)), edges)
        exec_ms = {v: rng.uniform(10, 100) for v in chain.nodes}
        got = assign_labels(chain, exec_ms)
        assert sorted(got.values()) == list(range(1, n + 1))
        for i, j in chain.edges:
            assert got[i] > got[j]
        assert got == _reference_labels(chain, exec_ms)
        checked += 1
    assert _verdict(2, checked == 1000,
                    f"{checked} random DAGs matched the reference labeler")


def test_criterion_03_schedule_validity_over_100_runs():
    runs = 0
    for policy in POLICY_NAMES:
        for seed in range(500, 520):
            sim = SimulationRun(Scenario(policy=policy, rng_seed=seed))
            sim.execute()
            validate_run(sim)
            runs += 1
    assert _verdict(3, runs == 100,
                    f"{runs} seeded runs passed capacity/precedence/"
                    f"conservation checks and traffic recount")


def test_criterion_04_traffic_dominance_at_3000(demand_table):
    fws = demand_table[("fws", 3000)]["traffic_kb"]
    best = min(demand_table[(p, 3000)]["traffic_kb"] for p in BASELINES)
    ratio = fws / best
    ok = ratio <= 0.75
    assert _verdict(4, ok,
                    f"fws {fws:.0f} kB vs best greedy {best:.0f} kB, "
                    f"ratio {ratio:.3f} (need <= 0.75)")


def test_criterion_05_turnaround_dominance_at_4000(demand_table):
    fws = demand_table[("fws", 4000)]["turnaround_ms"]
    worst_ratio = 0.0
    for p in BASELINES:
        ratio = fws / demand_table[(p, 4000)]["turnaround_ms"]
        worst_ratio = max(worst_ratio, ratio)
    ok = worst_ratio <= 0.85
    assert _verdict(5, ok,
                    f"fws {fws:.1f} ms, worst ratio vs baselines "
                    f"{worst_ratio:.3f} (need <= 0.85)")


def test_criterion_06_satisfaction_across_sweep(demand_table):
    fws_by_point = {n: demand_table[("fws", n)]["satisfied_pct"]
                    for n in SweepSpec().demand_points}
    floor_ok = all(v >= 90.0 for v in fws_by_point.values())
    at_top = {p: demand_table[(p, 5000)]["satisfied_pct"] for p in BASELINES}
    top_ok = all(fws_by_point[5000] > v for v in at_top.values())
    ok = floor_ok and top_ok
    assert _verdict(6, ok,
                    f"fws min {min(fws_by_point.values()):.1f}% (need >= 90), "
                    f"at 5000: fws {fws_by_point[5000]:.1f}% vs baselines "
                    f"{max(at_top.values()):.1f}% max")


def test_criterion_07_load_sweep_shape():
    fws = _means("load", policies=("fws",), repetitions=8)
    fws_means = [fws[("fws", load)]["turnaround_ms"]
                 for load in SweepSpec().load_points]
    deltas = [b - a for a, b in zip(fws_means, fws_means[1:])]
    monotone = all(d >= -MONOTONE_SLACK_MS for d in deltas)
    rising = fws_means[-1] > fws_means[0]
    peak = _means("load", policies=BASELINES, load_points=(0.9,), repetitions=8)
    base_at_peak = {p: peak[(p, 0.9)]["turnaround_ms"] for p in BASELINES}
    below = all(fws_means[-1] < v for v in base_at_peak.values())
    min_ratio = min(v / fws_means[-1] for v in base_at_peak.values())
    ok = monotone and rising and below and min_ratio >= 1.3
    assert _verdict(7, ok,
                    f"fws {fws_means[0]:.1f}->{fws_means[-1]:.1f} ms over load "
                    f"0.1->0.9 (min delta {min(deltas):+.3f} ms, slack "
                    f"{MONOTONE_SLACK_MS}), baseline/fws at 0.9 >= "
                    f"{min_ratio:.2f} (need >= 1.3)")


def test_criterion_08_cost_ordering(demand_table):
    dominated = True
    for count in (1000, 2000, 3000, 4000, 5000):
        if ("fws", count) not in demand_table:
            continue
        fws_cost = demand_table[("fws", count)]["cost_per_hour"]
        for p in BASELINES:
            if (p, count) in demand_table and \
                    fws_cost > demand_table[(p, count)]["cost_per_hour"]:
                dominated = False
    gaps = []
    for count in (1000, 3000, 5000):
        best = min(demand_table[(p, count)]["cost_per_hour"] for p in BASELINES)
        gaps.append(best - demand_table[("fws", count)]["cost_per_hour"])
    widening = all(b >= a for a, b in zip(gaps, gaps[1:]))
    ok = dominated and widening
    assert _verdict(8, ok,
                    f"fws cheapest at every measured point >= 1000: {dominated}; "
                    f"gap over {{1000,3000,5000}} = "
                    f"{', '.join(f'{g:.3f}' for g in gaps)} (nondecreasing)")


def test_criterion_09_deterministic_csv():
    sweep = SweepSpec(demand_points=(60,), policies=("fws", "mfdt"),
                      repetitions=2)
    texts = [render_results(run_sweep(Scenario(rng_seed=7), sweep))
             for _ in range(2)]
    ok = texts[0].encode() == texts[1].encode()
    assert _verdict(9, ok, f"two seeded sweep runs emitted byte-identical CSV "
                           f"({len(texts[0])} bytes)")


# ---------------------------------------------------------------- fixture 10

FIXTURE_EXEC = {1: 40.0, 2: 60.0, 3: 30.0,
                4: 50.0, 5: 35.0, 6: 45.0, 7: 55.0,
                8: 70.0, 9: 25.0}


def _fixture_chains():
    return [ServiceChain(1, {1, 2, 3}, {(1, 2), (2, 3)}),
            ServiceChain(2, {4, 5, 6, 7}, {(4, 5), (4, 6), (5, 7), (6, 7)}),
            ServiceChain(3, {8, 9}, {(8, 9)})]


def _fixture_topology():
    nodes = [CloudNode(0, "micro", 2), CloudNode(1, "micro", 2),
             CloudNode(2, "micro", 1)]
    links = [Link((0, 1), 3125.0), Link((0, 2), 3125.0), Link((1, 2), 3125.0)]
    return Topology(nodes, links)


def _fixture_run(policy):
    from sfcsched.chains import MicroServiceDef, UserRequest
    small = default_catalog()[0]
    chains = _fixture_chains()
    sc = Scenario(policy=policy, chains=chains, request_count=3,
                  provision_latency_ms=0.0)
    defs = {sid: MicroServiceDef(sid, FIXTURE_EXEC[sid], 10.0, 1.0, 1)
            for sid in FIXTURE_EXEC}
    reqs = [UserRequest(0, 1, 0.0, 10_000.0, 10.0),
            UserRequest(1, 2, 0.0, 10_000.0, 10.0),
            UserRequest(2, 3, 0.0, 10_000.0, 10.0)]
    sim = SimulationRun(sc, topology=_fixture_topology(), requests=reqs,
                        service_defs=defs,
                        initial_machines=[(0, small), (0, small), (1, small),
                                          (1, small), (2, small)])
    sim.execute()
    return sim


def _fixture_optimum(resume_ms, bg_fraction):
    """Branch-and-bound over machine assignments of the fixture, timing each
    by earliest-start list scheduling.  Independent of the engine."""
    chains = _fixture_chains()
    machine_nodes = [0, 0, 1, 1, 2]
    hop_delay_ms = 1000.0 * link_delay(bg_fraction * 3125.0, 3125.0)
    serial_ms = 10.0 / 25.0
    preds = {}
    order = []
    for chain in chains:
        for sid in sorted(chain.nodes):
            preds[sid] = list(chain.predecessors(sid))
            order.append(sid)

    remaining_path = {}
    for chain in chains:
        for sid in sorted(chain.nodes, reverse=True):
            succ = chain.successors(sid)
            tail = max((remaining_path[s] for s in succ), default=0.0)
            remaining_path[sid] = FIXTURE_EXEC[sid] + resume_ms + tail

    best = [math.inf]

    def transfer(pm, m):
        if pm == m:
            return 0.0
        if machine_nodes[pm] == machine_nodes[m]:
            return serial_ms
        return serial_ms + hop_delay_ms

    def dfs(idx, finish, assign, machine_free, makespan):
        if makespan >= best[0]:
            return
        if idx == len(order):
            best[0] = makespan
            return
        sid = order[idx]
        lb_tail = max((remaining_path[order[k]] for k in range(idx, len(order))),
                      default=0.0)
        if makespan < lb_tail:
            pass  # weak bound; machine choice refines below
        for m in range(5):
            ready = max((finish[p] + transfer(assign[p], m) for p in preds[sid]),
                        default=0.0)
            start = max(ready, machine_free[m]) + resume_ms
            end = start + FIXTURE_EXEC[sid]
            if end + remaining_path.get(sid, 0.0) - FIXTURE_EXEC[sid] - resume_ms \
                    >= best[0]:
                continue
            finish[sid] = end
            assign[sid] = m
            saved = machine_free[m]
            machine_free[m] = end
            dfs(idx + 1, finish, assign, machine_free, max(makespan, end))
            machine_free[m] = saved
            del finish[sid], assign[sid]

    dfs(0, {}, {}, [0.0] * 5, 0.0)
    return best[0]


def test_criterion_10_fixture_schedule_quality():
    sims = {policy: _fixture_run(policy) for policy in POLICY_NAMES}
    validate_run(sims["fws"])
    makespans = {policy: max(p.finish_ms for p in sim.placements)
                 for policy, sim in sims.items()}
    optimum = _fixture_optimum(resume_ms=Scenario().resume_latency_ms,
                               bg_fraction=Scenario().background_load_fraction)
    fws = makespans["fws"]
    dominated = all(fws <= makespans[p] + 1e-9 for p in BASELINES)
    near_opt = fws <= 1.5 * optimum
    ok = dominated and near_opt
    assert _verdict(10, ok,
                    f"fws makespan {fws:.1f} ms vs baselines "
                    f"{{{', '.join(f'{makespans[p]:.0f}' for p in BASELINES)}}} ms, "
                    f"exhaustive optimum {optimum:.1f} ms "
                    f"(need <= {1.5 * optimum:.1f})")
