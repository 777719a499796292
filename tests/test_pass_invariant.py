"""The claim the failed-demand memo rests on, checked after every walked pass.

A dispatch pass that walks the ready queue leaves an entry waiting only if
nothing could place it: no active machine with a free core fits its demand,
and either no node has a free VM slot or no catalog type covers the demand.
The check reads machines, nodes and the catalog directly, not the engine's
`ranked` order or kept node list.  The memo must then hold that claim's
record: every waiting entry's demand is stuck, and no machine is fresh.
The machine order must be whole and current as well: `ranked` holds the
active machines with a free core in the order of the policy's key, computed
afresh, and each machine's `rank` is that key, or None when it can take no
work.

Besides the overload cells below, every engine run that `test_reference`
compares with its reference dispatcher runs under this check.
"""

from sfcsched.engine import SimulationRun
from sfcsched.fws import rank_key_fws
from sfcsched.greedy import GREEDY_POLICIES
from sfcsched.scenario import Scenario


class Checked(SimulationRun):
    """A run that asserts the pass-end invariant after each walked pass;
    `contended` gets the waiting count of each pass that left one waiting."""

    def __init__(self, *args, **kwargs):
        self.contended = []
        super().__init__(*args, **kwargs)

    def _dispatch(self):
        before = self.ready
        super()._dispatch()
        if self.ready is before:  # the pass returned without walking
            return
        assert self._fresh == {}, f"at {self.now} ms, machines stay fresh"
        now = self.now
        key, _ = GREEDY_POLICIES.get(self.scenario.policy, (rank_key_fws, None))
        free_core = []
        for m in self.machines:
            want = None
            if m.active_at_ms <= now and m.used_cores < m.vm_type.cores:
                free_core.append(m)
                want = key(m)
            assert m.rank == want, \
                f"at {now} ms, machine {m.machine_id} is filed under {m.rank}, not {want}"
        assert self.ranked == sorted(free_core, key=key), \
            f"at {now} ms, ranked is not the free-core machines in policy order"
        waiting = [e for e in self.ready if not e.state.dropped]
        if not waiting:
            return
        self.contended.append(len(waiting))
        slot_free = any(n.used_slots < n.vm_slots
                        for n in self.topology.nodes.values())
        for entry in waiting:
            sdef = self.defs[entry.service_id]
            memory_gb, cores = sdef.memory_gb, sdef.cores
            assert (memory_gb, cores) in self._stuck, \
                f"at {now} ms, {entry.instance_id, entry.service_id} waits " \
                f"though its demand is not stuck"
            fitting = [m.machine_id for m in free_core if m.fits(memory_gb, cores)]
            assert not fitting, \
                f"at {now} ms, {entry.instance_id, entry.service_id} waits " \
                f"though machines {fitting} fit it"
            covered = any(t.memory_gb >= memory_gb and t.cores >= cores
                          for t in self.scenario.catalog)
            assert not (slot_free and covered), \
                f"at {now} ms, {entry.instance_id, entry.service_id} waits " \
                f"though a node has a free slot and a type covers it"


def checked_run(sc, **inputs):
    """Run `sc` to quiescence under the check; the contended pass sizes."""
    sim = Checked(sc, **inputs)
    sim.execute()
    return sim.contended


def test_overload_bursts_leave_only_unplaceable_entries_waiting():
    # the benchmark's overload cell shape: 200 requests at 2000 rps fill
    # every VM slot, so most walked passes leave entries waiting
    for policy, seed in (("fws", 100), ("lfff", 101)):
        contended = checked_run(Scenario(policy=policy, request_count=200,
                                         arrival_rate_rps=2000.0, rng_seed=seed))
        assert len(contended) > 300

