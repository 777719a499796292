"""The engine's dispatch against the same rules stated plainly.

`Reference` re-sorts the ready queue each pass by the fair weight at `now`,
restarts from the top after each placement or drop, and runs the
list-building selection oracles of `test_policies` over every machine:
no failed-demand memo, no static queue keys, no kept machine order, no
first-fit walk.  Every fast path of the engine must leave the schedule
and the drop count as these rules make them.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from sfcsched.chains import MicroServiceDef, UserRequest, canonical_sfcs
from sfcsched.engine import SimulationRun, _drop_time
from sfcsched.fws import WeightParams, compute_weight
from sfcsched.infrastructure import VmType
from sfcsched.metrics import validate_run
from sfcsched.scenario import POLICY_NAMES, Scenario, TopologySpec
from test_engine import CATALOGS, random_chains
from test_policies import (LEAST_FULL, MOST_FULL, oracle_greedy_select_machine,
                           oracle_select_machine_fws)

# a type in no catalog, so a demand no catalog type covers may still fit
BIG = VmType("big", 16.0, 4, 25.0, 0.3)


class Reference(SimulationRun):
    """Dispatch and machine selection by their plain rules; slow."""

    def _order(self, entry):
        if self._greedy:
            return self._priority_key(entry)
        weight = compute_weight(entry, self.now, self.scenario.weights)
        return (-entry.label, -weight, entry.enqueue_time_ms,
                entry.instance_id, entry.service_id)

    def _dispatch(self):
        while True:
            for entry in sorted(self.ready, key=self._order):
                state = self.states[entry.instance_id]
                preds = self._pred_placements(entry)
                choice = self._select_machine(entry, preds)
                if choice is not None:
                    self._place(entry, choice, preds)
                elif self.now - state.request.arrival_time_ms > \
                        state.request.delay_sla_ms:
                    self._drop(state)
                else:
                    continue
                self.ready = [e for e in self.ready if e is not entry
                              and not self.states[e.instance_id].dropped]
                break
            else:
                return

    def _select_machine(self, entry, preds):
        sdef = self.defs[entry.service_id]
        args = (self.topology, self.scenario.catalog, self.now)
        if self._greedy:
            bias = LEAST_FULL if self.scenario.policy.startswith("lf") else MOST_FULL
            return oracle_greedy_select_machine(sdef.memory_gb, sdef.cores,
                                                self.machines, bias, *args)
        return oracle_select_machine_fws(sdef.memory_gb, sdef.cores, preds,
                                         self.machines, *args)


def schedule(sim):
    """The rows the schedule digest hashes, and the drop count."""
    sim.execute()
    return sorted((p.instance_id, p.service_id, p.machine_id, p.start_ms,
                   p.finish_ms) for p in sim.placements), sim.dropped


@st.composite
def reference_runs(draw, max_micro_count=8, max_core_count=1, max_requests=40):
    """A random scenario and its preprovisioned machines: policies, catalogs,
    topologies, chains, loads and SLAs that reach past saturation."""
    micro_count = draw(st.integers(1, max_micro_count))
    core_count = draw(st.integers(1, min(max_core_count, micro_count)))
    core_slots = draw(st.integers(1, 4))
    topo = TopologySpec(micro_count=micro_count, core_count=core_count,
                        micro_slots=draw(st.integers(1, 3)), core_slots=core_slots)
    sc = Scenario(policy=draw(st.sampled_from(POLICY_NAMES)),
                  rng_seed=draw(st.integers(0, 10_000)), topology_spec=topo,
                  catalog=draw(st.sampled_from(CATALOGS)),
                  chains=draw(st.one_of(st.just(canonical_sfcs()), random_chains())),
                  request_count=draw(st.integers(0, max_requests)),
                  arrival_rate_rps=draw(st.sampled_from((100.0, 1000.0, 5000.0))),
                  provision_latency_ms=draw(st.sampled_from((0.0, 50.0))),
                  sla_delay_range_ms=draw(st.sampled_from(((20.0, 80.0),
                                                           (50.0, 600.0)))),
                  weights=draw(st.builds(
                      WeightParams, alpha_dep=st.sampled_from((0.0, 1.0, 3.0)),
                      beta_wait=st.sampled_from((0.01, 0.5)),
                      dependents=st.sampled_from(("transitive", "immediate")))),
                  # one memory size for every service: demands differ in cores alone
                  service_memory_range_gb=draw(st.sampled_from(((0.5, 3.5),
                                                                (1.5, 1.5)))),
                  service_cores_choices=(1, 1, 2))
    initial = draw(st.lists(st.sampled_from([BIG, *CATALOGS[2]]), max_size=2))
    # the machines sit on the first core node, which every topology has
    return sc, {"initial_machines": [(micro_count, vm) for vm in initial[:core_slots]]}


def assert_matches_reference(sc, inputs):
    """The engine and `Reference` give one schedule for the scenario and
    the SimulationRun keyword inputs, and the engine's passes `validate_run`."""
    sim = SimulationRun(sc, **inputs)
    engine_schedule = schedule(sim)
    validate_run(sim)
    assert engine_schedule == schedule(Reference(sc, **inputs))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(run=reference_runs())
def test_engine_matches_reference(run):
    assert_matches_reference(*run)


@st.composite
def whole_ms_requests(draw, chain_ids, max_requests):
    """Requests with whole-millisecond arrivals and SLAs, so that starts and
    finishes can land on `arrival + sla`; some arrive exactly at an earlier
    request's drop time, or one float below it."""
    rows = []
    for _ in range(draw(st.integers(1, max_requests))):
        at = float(draw(st.integers(0, 80)))
        if rows and draw(st.booleans()):
            earlier_at, earlier_sla, _ = draw(st.sampled_from(rows))
            at = _drop_time(earlier_at, earlier_sla)
            if draw(st.booleans()):
                at = math.nextafter(at, -math.inf)
        rows.append((at, float(draw(st.integers(1, 60))),
                     draw(st.sampled_from(chain_ids))))
    rows.sort(key=lambda row: row[0])
    return [UserRequest(k, chain_id, at, sla, 10.0)
            for k, (at, sla, chain_id) in enumerate(rows)]


@st.composite
def whole_ms_service_defs(draw, chains):
    """Whole-millisecond execution times; 25 kB at 25 MB/s is 1 ms."""
    return {sid: MicroServiceDef(sid, float(draw(st.integers(1, 30))), 25.0,
                                 draw(st.sampled_from((0.5, 1.0, 2.0, 3.5))),
                                 draw(st.sampled_from((1, 1, 2))))
            for chain in chains for sid in sorted(chain.nodes)}


@st.composite
def whole_ms_runs(draw, max_micro_count=3, max_requests=25):
    chains = draw(st.one_of(st.just(canonical_sfcs()), random_chains()))
    requests = draw(whole_ms_requests([c.chain_id for c in chains], max_requests))
    sc = Scenario(policy=draw(st.sampled_from(POLICY_NAMES)),
                  topology_spec=TopologySpec(
                      micro_count=draw(st.integers(1, max_micro_count)), core_count=1,
                      micro_slots=draw(st.integers(1, 2)),
                      core_slots=draw(st.integers(1, 2))),
                  catalog=draw(st.sampled_from(CATALOGS)), chains=chains,
                  request_count=len(requests),
                  provision_latency_ms=draw(st.sampled_from((0.0, 5.0, 20.0))),
                  resume_latency_ms=draw(st.sampled_from((0.0, 5.0))))
    return sc, {"requests": requests,
                "service_defs": draw(whole_ms_service_defs(chains))}


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(run=whole_ms_runs())
def test_engine_matches_reference_on_exact_drop_times(run):
    assert_matches_reference(*run)
