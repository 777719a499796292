"""The oracles against deliberately broken engines.

Each mutant below breaks one rule of the engine by a monkeypatch.  Over a
few small seeded runs past saturation, one of the oracles must flag it: the
pass-end invariant (`test_pass_invariant.Checked`), `validate_run`, or the
schedule and drop count of `test_reference.Reference`, all three run by
`test_reference.assert_matches_reference`.  The schedule digests are not
used, so a mutant that only they would catch fails here.  A mutant of the
code `Reference` shares with the engine (`_place`, the transfer model)
leaves both schedules alike, so `validate_run` itself must flag those.
"""

import dataclasses
import random
from types import SimpleNamespace

import pytest

from sfcsched import engine, fws, greedy, metrics
from sfcsched.engine import SimulationRun
from sfcsched.greedy import GREEDY_POLICIES, decreasing_time
from sfcsched.infrastructure import Topology, default_catalog, provision_choice
from sfcsched.metrics import validate_run
from sfcsched.scenario import POLICY_NAMES, Scenario, TopologySpec
from test_acceptance import _reference_labels
from test_reference import assert_matches_reference


def small_runs(count=10):
    """Seeded runs of 40 requests on 2-8 micro clouds with few VM slots, all
    five policies, boot latencies of 0 and 50 ms, some machines preprovisioned."""
    runs = []
    for seed in range(count):
        rng = random.Random(seed)
        core_slots = rng.randint(1, 3)
        topo = TopologySpec(micro_count=rng.randint(2, 8), core_count=1,
                            micro_slots=rng.randint(1, 2), core_slots=core_slots)
        sc = Scenario(policy=POLICY_NAMES[seed % len(POLICY_NAMES)], rng_seed=seed,
                      topology_spec=topo, request_count=40,
                      arrival_rate_rps=rng.choice((1000.0, 5000.0)),
                      provision_latency_ms=rng.choice((0.0, 50.0)),
                      sla_delay_range_ms=(50.0, 600.0),
                      service_cores_choices=(1, 1, 2))
        initial = [(topo.micro_count, rng.choice(default_catalog()))
                   for _ in range(rng.randint(0, core_slots))]
        runs.append((sc, {"initial_machines": initial}))
    return runs


def flagged(sc, inputs):
    """Whether an oracle rejects the engine's run of `sc`."""
    try:
        assert_matches_reference(sc, inputs)
    except AssertionError:
        return True
    return False


def flagged_by_validate_run(sc, inputs):
    """Whether `validate_run` alone rejects the engine's run of `sc`."""
    sim = SimulationRun(sc, **inputs)
    sim.execute()
    try:
        validate_run(sim)
    except AssertionError:
        return True
    return False


def no_fresh_machine(monkeypatch):
    """A release or a boot re-ranks the machine and keeps none as fresh."""
    monkeypatch.setattr(SimulationRun, "_freed", SimulationRun._rerank)


def rank_kept_on_key_change(monkeypatch):
    """A machine that stays in the machine order while its key changes keeps
    its old place and its old `rank`.  Under fws the key is the machine id,
    which never changes, so only the greedy baselines differ."""
    rerank = SimulationRun._rerank

    def lazy(self, machine):
        if machine.rank is not None and machine.active_at_ms <= self.now \
                and machine.used_cores < machine.vm_type.cores:
            return
        rerank(self, machine)

    monkeypatch.setattr(SimulationRun, "_rerank", lazy)


def stuck_demands_kept(monkeypatch):
    """A walked pass ends with the earlier stuck demands still stuck."""
    dispatch = SimulationRun._dispatch

    def keeping(self):
        stuck, before = self._stuck, self.ready
        dispatch(self)
        if self.ready is not before:  # the pass walked
            self._stuck = stuck | self._stuck

    monkeypatch.setattr(SimulationRun, "_dispatch", keeping)


def no_wake_on_enqueue(monkeypatch):
    """An enqueue whose demand is not stuck wakes no pass: it only lowers
    `_walk_at` to the entry's drop time, as a stuck demand's does."""
    enqueue = SimulationRun._enqueue

    def sleeping(self, state, service_id):
        walk_at = self._walk_at
        enqueue(self, state, service_id)
        self._walk_at = min(walk_at, state.drop_at)

    monkeypatch.setattr(SimulationRun, "_enqueue", sleeping)


def labels_prefer_longest_exec(monkeypatch):
    """The engine's labels go to the longest execution time first among the
    services whose successors are all labeled, not the shortest."""
    def longest_first(chain, exec_time_ms):
        return _reference_labels(chain, {sid: -ms for sid, ms in exec_time_ms.items()})

    monkeypatch.setattr(engine, "assign_labels", longest_first)


def boot_not_charged(monkeypatch):
    """A provisioning placement starts as if its new machine were active at
    once, though the machine still boots for the provisioning latency."""
    place, provision = SimulationRun._place, SimulationRun._provision

    def uncharged(self, entry, choice, preds):
        scenario = self.scenario
        self.scenario = dataclasses.replace(scenario, provision_latency_ms=0.0)
        self._provision = lambda node_id, vm_type, active_at_ms: provision(
            self, node_id, vm_type, active_at_ms + scenario.provision_latency_ms)
        try:
            place(self, entry, choice, preds)
        finally:
            self.scenario = scenario
            del self._provision

    monkeypatch.setattr(SimulationRun, "_place", uncharged)


def transfer_delays_halved(monkeypatch):
    """A transfer takes, and loads its links for, half its delay."""
    start_transfer = Topology.start_transfer

    def halved(self, src_machine, dst_machine, data_kb):
        delay_ms, transfer = start_transfer(self, src_machine, dst_machine, data_kb)
        return delay_ms / 2, transfer

    monkeypatch.setattr(Topology, "start_transfer", halved)


def transfers_load_no_link(monkeypatch):
    """A cross-node transfer waits out its route's delay but loads no link."""
    start_transfer = Topology.start_transfer

    def unloaded(self, src_machine, dst_machine, data_kb):
        delay_ms, transfer = start_transfer(self, src_machine, dst_machine, data_kb)
        if transfer is not None:
            self.end_transfer(*transfer)
        return delay_ms, None

    monkeypatch.setattr(Topology, "start_transfer", unloaded)


def traffic_counts_colocated_edges(monkeypatch):
    """The online traffic counter also adds the output of each predecessor
    on the successor's own machine."""
    place = SimulationRun._place

    def counting(self, entry, choice, preds):
        place(self, entry, choice, preds)
        machine = entry.state.placed[entry.service_id]
        for _, pred_machine, data_out_kb in preds:
            if pred_machine is machine:
                self.traffic_kb += data_out_kb

    monkeypatch.setattr(SimulationRun, "_place", counting)


def turnaround_from_first_dispatch(monkeypatch):
    """`report` counts each request's turnaround from its first dispatch,
    not from its arrival."""
    report = metrics.report

    def from_dispatch(sim):
        requests = {rid: state.request for rid, state in sim.states.items()}
        for p in reversed(sim.placements):  # each request's first dispatch last
            state = sim.states[p.instance_id]
            state.request = dataclasses.replace(requests[p.instance_id],
                                                arrival_time_ms=p.dispatch_ms)
        try:
            return report(sim)
        finally:
            for rid, request in requests.items():
                sim.states[rid].request = request

    monkeypatch.setattr(metrics, "report", from_dispatch)


def cost_spans_from_start(monkeypatch):
    """A placement holds its machine, in the attributed cost, from its start
    rather than its dispatch."""
    attributed = metrics._attributed_costs
    monkeypatch.setattr(metrics, "_attributed_costs", lambda sim: attributed(
        SimpleNamespace(machines=sim.machines,
                        placements=[dataclasses.replace(p, dispatch_ms=p.start_ms)
                                    for p in sim.placements])))


def delay_sla_20_ms_stricter(monkeypatch):
    """`check_sla` holds each request to 20 ms less than its delay SLA."""
    check_sla = metrics.check_sla
    monkeypatch.setattr(metrics, "check_sla",
                        lambda request, turnaround_ms, cost, dropped=False:
                        check_sla(request, turnaround_ms, cost, dropped)
                        and turnaround_ms <= request.delay_sla_ms - 20.0)


def first_finish_by_decreasing_time(monkeypatch):
    """`lfff` and `mfff` order their queues longest execution first."""
    for name in ("lfff", "mfff"):
        monkeypatch.setitem(GREEDY_POLICIES, name,
                            (GREEDY_POLICIES[name][0], decreasing_time))


def drop_at(factor):
    def mutant(monkeypatch):
        drop_time = engine._drop_time
        monkeypatch.setattr(engine, "_drop_time",
                            lambda arrival_ms, sla_ms: drop_time(arrival_ms, factor * sla_ms))

    mutant.__doc__ = f"A request expires at {factor} times its delay SLA."
    mutant.__name__ = f"drop_at_{factor}x_sla"
    return mutant


def fws_ignores_affinity(monkeypatch):
    """fws selects as if the service had no predecessors."""
    select = engine.select_machine_fws
    monkeypatch.setattr(engine, "select_machine_fws",
                        lambda memory_gb, cores, preds, *args: select(memory_gb, cores,
                                                                      [], *args))


def fws_takes_first_fit(monkeypatch):
    """fws takes the first machine with room, whatever its traffic."""
    select = engine.select_machine_fws

    def first_fit(memory_gb, cores, preds, machines, *args):
        fitting = [m for m in machines if m.fits(memory_gb, cores)]
        return ("existing", fitting[0]) if fitting else \
            select(memory_gb, cores, preds, machines, *args)

    monkeypatch.setattr(engine, "select_machine_fws", first_fit)


def fws_queue_ignores_label(monkeypatch):
    """The fws queue orders by weight alone, not label first."""
    priority_key = engine.priority_key
    monkeypatch.setattr(engine, "priority_key",
                        lambda params: (lambda e, key=priority_key(params): key(e)[1:]))


def provisioning_patched(monkeypatch, provision):
    for module in (fws, greedy):
        monkeypatch.setattr(module, "provision_choice", provision)


def provision_on_the_farthest_node(monkeypatch):
    """Provisioning takes the free-slot node farthest from the predecessors,
    ties to the highest id."""
    def farthest(memory_gb, cores, near_nodes, topology, catalog):
        choice = provision_choice(memory_gb, cores, near_nodes, topology, catalog)
        return choice and ("provision", max(topology.open_node_ids(), key=lambda n: (
            sum(topology.path_delay_s(p, n) for p in near_nodes), n)), choice[2])

    provisioning_patched(monkeypatch, farthest)


def provision_the_costliest_type(monkeypatch):
    """Provisioning takes the costliest catalog type covering the demand."""
    def costliest(memory_gb, cores, near_nodes, topology, catalog):
        choice = provision_choice(memory_gb, cores, near_nodes, topology, catalog)
        return choice and choice[:2] + (max(
            (t for t in catalog if t.memory_gb >= memory_gb and t.cores >= cores),
            key=lambda t: (t.hourly_cost, t.name)),)

    provisioning_patched(monkeypatch, costliest)


# the mutants of the report alone: no schedule changes
REPORT_MUTANTS = (turnaround_from_first_dispatch, cost_spans_from_start,
                  delay_sla_20_ms_stricter)
# the mutants only validate_run can flag: Reference shares what they change
VALIDATE_RUN_MUTANTS = (boot_not_charged, transfer_delays_halved, transfers_load_no_link,
                        traffic_counts_colocated_edges, *REPORT_MUTANTS)
MUTANTS = (no_fresh_machine, stuck_demands_kept, no_wake_on_enqueue,
           labels_prefer_longest_exec, *VALIDATE_RUN_MUTANTS,
           first_finish_by_decreasing_time, drop_at(0.5), drop_at(1.5),
           fws_ignores_affinity, fws_takes_first_fit, fws_queue_ignores_label,
           provision_on_the_farthest_node, provision_the_costliest_type)


def test_oracles_pass_every_run_of_the_engine():
    assert [sc.rng_seed for sc, inputs in small_runs() if flagged(sc, inputs)] == []


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.__name__)
def test_oracles_catch_the_mutant(monkeypatch, mutant):
    mutant(monkeypatch)
    assert any(flagged(sc, inputs) for sc, inputs in small_runs())


def test_oracles_flag_a_stale_machine_order_on_every_greedy_run(monkeypatch):
    rank_kept_on_key_change(monkeypatch)
    greedy_runs = [(sc, inputs) for sc, inputs in small_runs()
                   if sc.policy in GREEDY_POLICIES]
    assert greedy_runs and all(flagged(sc, inputs) for sc, inputs in greedy_runs)


@pytest.mark.parametrize("mutant", VALIDATE_RUN_MUTANTS, ids=lambda mutant: mutant.__name__)
def test_validate_run_itself_catches_the_mutant(monkeypatch, mutant):
    mutant(monkeypatch)
    assert any(flagged_by_validate_run(sc, inputs) for sc, inputs in small_runs())


def run_report(sc, inputs):
    sim = SimulationRun(sc, **inputs)
    sim.execute()
    return metrics.report(sim)


@pytest.mark.parametrize("mutant", REPORT_MUTANTS, ids=lambda mutant: mutant.__name__)
def test_validate_run_flags_a_report_mutant_on_every_run_whose_report_it_changes(
        monkeypatch, mutant):
    runs = small_runs()
    reports = [run_report(sc, inputs) for sc, inputs in runs]
    mutant(monkeypatch)
    changed = [(sc, inputs) for (sc, inputs), before in zip(runs, reports)
               if run_report(sc, inputs) != before]
    assert changed and all(flagged_by_validate_run(sc, inputs) for sc, inputs in changed)
