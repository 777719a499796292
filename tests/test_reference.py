"""The engine's dispatch against the same rules stated plainly.

`Reference` re-sorts the ready queue each pass by the fair weight at `now`,
restarts from the top after each placement or drop, and runs the
list-building selection oracles of `test_policies` over every machine:
no failed-demand memo, no static queue keys, no kept machine order, no
first-fit walk.  Every fast path of the engine must leave the schedule
and the drop count as these rules make them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from sfcsched.chains import canonical_sfcs
from sfcsched.engine import SimulationRun
from sfcsched.fws import WeightParams, compute_weight
from sfcsched.infrastructure import VmType
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


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(policy=st.sampled_from(POLICY_NAMES),
       seed=st.integers(0, 10_000),
       micro_count=st.integers(1, 8),
       micro_slots=st.integers(1, 3),
       core_slots=st.integers(1, 4),
       catalog=st.sampled_from(CATALOGS),
       # one memory size for every service: demands differ in cores alone
       memory_gb=st.sampled_from(((0.5, 3.5), (1.5, 1.5))),
       chains=st.one_of(st.just(canonical_sfcs()), random_chains()),
       request_count=st.integers(0, 40),
       rate_rps=st.sampled_from((100.0, 1000.0, 5000.0)),
       provision_latency_ms=st.sampled_from((0.0, 50.0)),
       sla_delay_range_ms=st.sampled_from(((20.0, 80.0), (50.0, 600.0))),
       weights=st.builds(WeightParams, alpha_dep=st.sampled_from((0.0, 1.0, 3.0)),
                         beta_wait=st.sampled_from((0.01, 0.5)),
                         dependents=st.sampled_from(("transitive", "immediate"))),
       initial=st.lists(st.sampled_from([BIG, *CATALOGS[2]]), max_size=2))
def test_engine_matches_reference(policy, seed, micro_count, micro_slots,
                                  core_slots, catalog, memory_gb, chains,
                                  request_count, rate_rps, provision_latency_ms,
                                  sla_delay_range_ms, weights, initial):
    topo = TopologySpec(micro_count=micro_count, core_count=1,
                        micro_slots=micro_slots, core_slots=core_slots)
    sc = Scenario(policy=policy, rng_seed=seed, topology_spec=topo,
                  catalog=catalog, chains=chains, request_count=request_count,
                  arrival_rate_rps=rate_rps,
                  provision_latency_ms=provision_latency_ms,
                  sla_delay_range_ms=sla_delay_range_ms, weights=weights,
                  service_memory_range_gb=memory_gb,
                  service_cores_choices=(1, 1, 2))
    # the machines sit on the core node, which every topology has
    machines = [(micro_count, vm) for vm in initial[:core_slots]]
    assert schedule(SimulationRun(sc, initial_machines=machines)) == \
        schedule(Reference(sc, initial_machines=machines))
