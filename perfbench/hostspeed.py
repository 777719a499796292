"""Host time scaled to a reference host speed.

The benchmark runs on a shared host whose CPU speed changes over time:
other tenants slow every instruction down, by up to 1.9x, for seconds or
minutes at a time.  Neither a minimum nor a median over a 30 s run removes
that, because a whole run can fall into one slow stretch.  So the host's
speed is measured all through every timed span, with a fixed reference
loop that does the same work whatever the simulator's code, and the
span's time is scaled by ``REFERENCE_S * mean(1 / the loop's time)``.  A
change to the simulator moves the scaled time by as much as it moves the
host time; a slow stretch of the host slows the span and the loop alike,
and cancels.

The loop runs EDGE_SAMPLES times just before and just after each span,
and every PROBE_EVERY_S during it, from a SIGALRM handler in this process
(no threads or other processes).  The span's time leaves out the time
spent in the handler: ``HostClock.now`` is host time less every probe.

The loop has two halves of about equal time: small objects pushed
through a heap with dict updates, and float arithmetic.  In slow
stretches the first slowed about 1.7x and the second about 1.5x, while
the simulator slowed 1.4x to 1.6x depending on the stretch; neither half
alone tracked it as well as both.  The garbage collector is off while the
loop runs, so its time does not depend on the heap the benchmark holds.
"""

import gc
import heapq
import signal
import statistics
from time import perf_counter

# The loop's time on a fast stretch of the host the benchmark was sized
# on (2 vCPUs, Python 3.11).  Scaled times therefore read as host seconds
# on such a stretch.
REFERENCE_S = 0.014
# Calibrations taken just before and just after each span.
EDGE_SAMPLES = 3
# A calibration this recent still describes the host; an older one is
# taken again ahead of the next span.
FRESH_S = 0.05
# Interval of the probes that calibrate during a span.  One probe takes
# about a tenth of it.
PROBE_EVERY_S = 0.15


class _Item:
    __slots__ = ("key", "value", "label")

    def __init__(self, key, value, label):
        self.key = key
        self.value = value
        self.label = label


def _objects_loop():
    heap, totals, acc = [], {}, 0
    for i in range(6500):
        item = _Item((i * 7919) % 1000, i, i % 97)
        heapq.heappush(heap, (item.key, i, item))
        totals[item.label] = totals.get(item.label, 0) + item.value
        if len(heap) > 64:
            acc += heapq.heappop(heap)[2].value
    return acc + len(sorted(totals.items(), key=lambda kv: kv[1]))


def _float_loop():
    x = 0.0
    for i in range(100000):
        x = x * 0.5 + i * 1.0001
    return x


def calibration_s():
    """Host time of one run of the reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _objects_loop()
        _float_loop()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Times spans at the reference speed, calibrating before, during and
    after each.  ``probe=False`` calibrates only before and after, for
    runs whose own timers must not see the probes (the traced run)."""

    def __init__(self, probe=True):
        self.probe = probe
        self.samples = []   # every calibration taken, in seconds
        self.paused = 0.0   # host time spent in probes
        self._edge = []     # the latest calibrations taken at a span's edge
        self._at = None     # when they were taken
        self._probes = []   # calibrations taken during the current span

    def now(self):
        """Host time less the time spent in probes."""
        return perf_counter() - self.paused

    def _calibrate(self):
        value = calibration_s()
        self.samples.append(value)
        return value

    def _edge_samples(self):
        self._edge = [self._calibrate() for _ in range(EDGE_SAMPLES)]
        self._at = perf_counter()
        return self._edge

    def _on_alarm(self, signum, frame):
        start = perf_counter()
        self._probes.append(self._calibrate())
        self.paused += perf_counter() - start

    def run(self, fn):
        """Run fn(); return (seconds, factor): fn's host time less probes,
        and the factor that scales it to the reference speed."""
        if self._at is None or perf_counter() - self._at > FRESH_S:
            self._edge_samples()
        before = self._edge
        self._probes = []
        if self.probe:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            start = self.now()
            fn()
            elapsed = self.now() - start
        finally:
            if self.probe:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        # Each calibration gives the host's speed at one moment; the span
        # did its work at the mean speed over its length.  A mean of speeds
        # (not of times) also keeps a probe that was itself preempted from
        # counting for much.
        samples = before + self._probes + self._edge_samples()
        return elapsed, REFERENCE_S * statistics.fmean(1.0 / x for x in samples)
