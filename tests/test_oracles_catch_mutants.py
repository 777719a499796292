"""The oracles against deliberately broken engines.

Each mutant below breaks one rule of the engine by a monkeypatch.  Over a
few small seeded runs past saturation, one of the oracles must flag it: the
pass-end invariant (`test_pass_invariant.Checked`), `validate_run`, or the
schedule and drop count of `test_reference.Reference`.  The schedule
digests are not used, so a mutant that only they would catch fails here.
"""

import random

import pytest

from sfcsched import engine
from sfcsched.engine import SimulationRun
from sfcsched.infrastructure import default_catalog
from sfcsched.metrics import validate_run
from sfcsched.scenario import POLICY_NAMES, Scenario, TopologySpec
from test_acceptance import _reference_labels
from test_pass_invariant import Checked
from test_reference import Reference, schedule


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
    sim = Checked(sc, **inputs)
    try:
        engine_schedule = schedule(sim)
        validate_run(sim)
    except AssertionError:
        return True
    return engine_schedule != schedule(Reference(sc, **inputs))


def no_fresh_machine(monkeypatch):
    """A release or a boot re-ranks the machine and keeps none as fresh."""
    monkeypatch.setattr(SimulationRun, "_freed", SimulationRun._rerank)


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


MUTANTS = (no_fresh_machine, stuck_demands_kept, no_wake_on_enqueue,
           labels_prefer_longest_exec)


def test_oracles_pass_every_run_of_the_engine():
    assert [sc.rng_seed for sc, inputs in small_runs() if flagged(sc, inputs)] == []


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.__name__)
def test_oracles_catch_the_mutant(monkeypatch, mutant):
    mutant(monkeypatch)
    assert any(flagged(sc, inputs) for sc, inputs in small_runs())
