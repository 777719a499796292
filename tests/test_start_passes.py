"""The engine's start passes against the loop that ran one at every start.

A start frees nothing, so the engine keeps start times out of its event
heap and runs a pass at a start only where that pass can walk (see
`SimulationRun.execute`).  `ParentLoop` is the loop as it was before: it
runs a pass at every pending start, in the order boot < transfer < finish
< start < arrival, and calls `_dispatch` with no test of its own.  On the
`test_reference` runs, where starts and finishes land on drop times, the
engine must give the same placements, field for field, the same drops in
the same order, and, as its start passes, exactly the loop's start passes
that walked.  `Reference` inherits `execute`, so it cannot catch a fault
in the loop; the three loop mutants below must each fail this comparison.
"""

import heapq
import inspect
import math
import sys
import textwrap

import pytest
from hypothesis import Phase, find, given, settings

from sfcsched import engine
from sfcsched.engine import EVENT_ARRIVAL, EVENT_FINISH, EVENT_TRANSFER, SimulationRun
from sfcsched.metrics import report
from test_reference import reference_runs, whole_ms_runs


class Recorded(SimulationRun):
    """A run that records each drop as `(now, request_id)`, in order, as
    `test_engine.recorded_drops` does, and each pass that `execute` itself
    runs, at a start, as `(now, walked)`."""

    def __init__(self, *args, **kwargs):
        self.drops, self.start_passes = [], []
        super().__init__(*args, **kwargs)

    def _drop(self, state):
        self.drops.append((self.now, state.request.request_id))
        super()._drop(state)

    def _dispatch(self):
        before = self.ready
        super()._dispatch()
        if sys._getframe(1).f_code.co_name == "execute":
            self.start_passes.append((self.now, self.ready is not before))


class ParentLoop(Recorded):
    """The event loop that ran a pass at every start: the first pending start
    goes before the next arrival and after every heap event of its time."""

    def execute(self):
        events, requests, starts = self._events, self.requests, self._starts
        while True:
            i = self.arrived
            head = events[0][0] if events else math.inf
            arrival = requests[i].arrival_time_ms if i < len(requests) else math.inf
            if starts and starts[0] < head and starts[0] <= arrival:
                time_ms = starts.pop(0)
                kind = None
            elif i < len(requests) and arrival < head:
                time_ms, kind, payload = arrival, EVENT_ARRIVAL, requests[i]
                self.arrived = i + 1
            elif events:
                time_ms, kind, _, payload = heapq.heappop(events)
            else:
                break
            assert time_ms >= self.now, "event dequeued out of time order"
            self.now = time_ms
            if kind is None:
                self._dispatch()
            elif kind == EVENT_FINISH:
                self._on_finish(*payload)
            elif kind == EVENT_ARRIVAL:
                self._on_arrival(payload)
            elif kind == EVENT_TRANSFER:
                self.topology.end_transfer(*payload)
            else:
                self._freed(payload)
        for entry in self.ready:
            if not entry.state.dropped:
                self._drop(entry.state)
        self.ready.clear()
        return report(self)


def mismatch(sc, inputs, engine_cls=Recorded):
    """Why `engine_cls` and `ParentLoop` differ on the run, or None."""
    sim, parent = engine_cls(sc, **inputs), ParentLoop(sc, **inputs)
    sim.execute()
    parent.execute()
    if sim.placements != parent.placements:
        return "placements differ"
    if sim.drops != parent.drops:
        return f"drops differ: {sim.drops} against {parent.drops}"
    walked = [(now, True) for now, did in parent.start_passes if did]
    if sim.start_passes != walked:
        return f"start passes differ: {sim.start_passes} against {walked}"
    if sim._starts:
        return "starts left pending"
    return None


def comparison(runs, max_examples):
    """A test that the engine and `ParentLoop` agree on each run `runs` draws."""
    @settings(max_examples=max_examples, deadline=None, database=None,
              derandomize=True)
    @given(run=runs)
    def check(run):
        assert mismatch(*run) is None

    return check


test_start_passes_match_the_parent_loop = comparison(reference_runs(), 200)
test_start_passes_match_the_parent_loop_on_exact_drop_times = comparison(
    whole_ms_runs(), 300)


def mutated_execute(old, new):
    """`SimulationRun.execute` with its one occurrence of `old` made `new`."""
    source = textwrap.dedent(inspect.getsource(SimulationRun.execute))
    assert source.count(old) == 1, old
    namespace = {}
    exec(source.replace(old, new), vars(engine).copy(), namespace)
    return namespace["execute"]


LOOP_MUTANTS = {
    "a start tied with a finish runs before it": (
        "or time_ms < events[0][0]", "or time_ms <= events[0][0]"),
    "a start tied with an arrival runs after it": (
        "time_ms <= requests[i].arrival_time_ms",
        "time_ms < requests[i].arrival_time_ms"),
    "a start at exactly _walk_at is skipped": (
        "k = bisect.bisect_left(starts, walk_at",
        "k = (bisect.bisect_right if walk_at >= self.now "
        "else bisect.bisect_left)(starts, walk_at"),
}


@pytest.mark.parametrize("old, new", LOOP_MUTANTS.values(), ids=LOOP_MUTANTS)
def test_the_comparison_catches_the_loop_mutant(old, new):
    mutant = type("Mutant", (Recorded,), {"execute": mutated_execute(old, new)})
    # the first run that tells the mutant apart is enough: no shrinking
    run = find(whole_ms_runs(), lambda run: mismatch(*run, mutant) is not None,
               settings=settings(max_examples=300, deadline=None, database=None,
                                 derandomize=True, phases=[Phase.generate]))
    # the copy of `execute` itself is not what differs
    copy = type("Copy", (Recorded,), {"execute": mutated_execute(old, old)})
    assert mismatch(*run, copy) is None
