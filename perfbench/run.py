"""Host-time benchmark of the sfcsched simulator.

    python3 perfbench/run.py --workload nominal|overload|sweep --seed N
                             --seconds S --trace 0|1 [--record]

Run from the repository root.  Everything runs in this one process, with no
threads or pools.  ``--trace 0`` times the workload with nothing wrapped and
prints the end-to-end metrics; ``--trace 1`` runs it once untraced and twice
traced and prints the per-layer metrics.  ``--record`` stores this seed's
reference digests and metrics in ``perfbench/refs/``.  The last line of
standard output is the result as one JSON object; run artefacts (result
file, spans) go to ``.perfbench_out/``.  See README.md.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from hostspeed import REFERENCE_S, HostClock
from tracer import Tracer, install
from workloads import POLICIES, WORKLOADS, Sweep, cell_record, event_count, host_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS_DIR = BENCH_DIR / "refs"
OUT_DIR = ROOT / ".perfbench_out"
MODULES = ("chains", "cli", "engine", "fws", "greedy", "infrastructure",
           "metrics", "reporting", "scenario")
# Ahead of every timed cell (on sweep, the CLI call), set-up is repeated
# for at least SETUP_MIN_S and at least once; setup_s is the median of these
# samples (see measure).
SETUP_MIN_S = 0.15
# A --trace 0 run makes at least this many passes; it starts another only
# if it is expected to end within --seconds.
MIN_PASSES = 1
# Cell fields compared with the stored reference.
REF_FIELDS = ("policy", "seed", "digest", "traffic_kb", "turnaround_ms",
              "satisfied_pct", "cost_per_hour", "arrived", "completed", "dropped")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("traffic_kb", "kB"), ("turnaround_ms", "ms"),
              ("satisfied_pct", "%"), ("completed_pct", "%"),
              ("cost_per_hour", "USD/h"))
PER_LAYER = (("engine.select_calls", "count"), ("engine.select_ok_ratio", "ratio"),
             ("engine.peak_ready", "count"), ("engine.execute_s", "s"),
             ("engine.self_s", "s"), ("engine.events", "count"),
             ("engine.placements", "count"), ("engine.dropped_pct", "%"),
             ("fws.compute_weight.calls", "count"),
             ("fws.select_machine_fws.calls", "count"),
             ("fws.select_machine_fws.self_s", "s"),
             ("fws.machines_scanned", "count"),
             ("fws.assign_labels.calls", "count"), ("fws.assign_labels.self_s", "s"),
             ("greedy.greedy_select_machine.calls", "count"),
             ("greedy.greedy_select_machine.self_s", "s"),
             ("greedy.machines_scanned", "count"),
             ("infrastructure.Machine.buffer_service.calls", "count"),
             ("infrastructure.Machine.buffer_service.self_s", "s"),
             ("infrastructure.hosted_scanned", "count"),
             ("infrastructure.Link.delay_s.calls", "count"),
             ("infrastructure.Link.delay_s.self_s", "s"),
             ("infrastructure.Topology.route.calls", "count"),
             ("infrastructure.default_topology.self_s", "s"),
             ("chains.ready_services.calls", "count"),
             ("chains.ready_services.self_s", "s"),
             ("metrics.check_sla.calls", "count"),
             ("scenario.generate_workload.self_s", "s"),
             ("scenario.sample_service_defs.self_s", "s"),
             ("reporting.cells", "count"), ("reporting.run_sweep.self_s", "s"),
             ("reporting.render_results.self_s", "s"), ("cli.main.self_s", "s"),
             ("trace.overhead_s", "s"))


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_sfcsched():
    """Import sfcsched afresh from the checkout's src/, so that each set-up
    pays for the import as a new process would."""
    for name in [n for n in sys.modules if n == "sfcsched" or n.startswith("sfcsched.")]:
        del sys.modules[name]
    package = importlib.import_module("sfcsched")
    if Path(package.__file__).resolve().parent != SRC / "sfcsched":
        raise BenchError(f"imported sfcsched from {package.__file__}, not from {SRC}")
    return SimpleNamespace(package=package, **{
        m: importlib.import_module(f"sfcsched.{m}") for m in MODULES})


# ------------------------------------------------------------------- stamp

def git_sha():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    """Digest of the simulator's sources; names the code even without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sfcsched").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def read_loadavg():
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return None


# -------------------------------------------------------------------- gate

def csv_groups(text):
    """CSV data lines grouped by (policy, sweep value), e.g. 'fws/50'."""
    groups = {}
    for line in text.splitlines()[1:]:
        parts = line.split(",")
        groups.setdefault(f"{parts[0]}/{parts[2]}", []).append(line)
    return groups


def group_digests(text):
    return {key: hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
            for key, lines in csv_groups(text).items()}


class Gate:
    """Correctness of every cell, checked outside the timed section.

    A cell fails if it raised, if metrics.validate_run rejects its schedule,
    or if its digest or simulated metrics differ from the stored reference
    for this seed.  Failures are kept as (pass, cell) pairs."""

    def __init__(self, workload, seed, reference):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.attempted = 0
        self.failed = set()
        self.problems = []   # run-level problems that are not one cell's
        self.records = {}    # pass index -> cell records

    def fail(self, pass_index, cell_index, what, message):
        self.failed.add((pass_index, cell_index))
        line = f"FAILED {self.workload.name} pass {pass_index} {what}: {message}"
        self.problems.append(line)
        print(line, flush=True)

    def problem(self, message):
        line = f"FAILED {self.workload.name}: {message}"
        self.problems.append(line)
        print(line, flush=True)

    def check_cell(self, sf, pass_index, index, cell, expect=None, validate=True):
        """Check one finished simulation cell; returns its record."""
        what = f"cell {index} policy={cell.policy} seed={cell.seed}"
        if cell.error is not None:
            self.fail(pass_index, index, what, f"raised {cell.error}")
            return None
        try:
            if validate:
                sf.metrics.validate_run(cell.sim)
            record = cell_record(cell)
            record["events"] = event_count(cell.sim)
            record["placements"] = len(cell.sim.placements)
        except Exception as exc:  # any error in the checks fails the cell
            self.fail(pass_index, index, what,
                      f"validate_run: {type(exc).__name__}: {exc}")
            return None
        if expect is not None:
            for key in REF_FIELDS:
                if record[key] != expect[key]:
                    self.fail(pass_index, index, what,
                              f"{key} {record[key]!r} != reference {expect[key]!r}")
        return record

    def check_sim_pass(self, sf, pass_index, cells, like=None):
        """Gate a nominal/overload pass against the reference.  A pass given
        ``like``, the records of a validated pass with the same inputs, must
        reproduce them exactly; that subsumes validating it again."""
        self.attempted += len(cells)
        ref_cells = like if like is not None else \
            (self.reference["cells"] if self.reference else None)
        records = []
        for i, cell in enumerate(cells):
            expect = ref_cells[i] if ref_cells else None
            records.append(self.check_cell(sf, pass_index, i, cell, expect,
                                           validate=like is None or expect is None))
            cell.sim = None   # keep one pass's simulations alive at a time
        self.records[pass_index] = records
        return records

    def check_sweep_pass(self, pass_index, run, like_text=None):
        """Gate one CLI sweep by its CSV: exit status, then the sha256 of
        the whole file against the reference (or an earlier pass), with
        (policy, demand point) groups naming the cells that differ."""
        cells = self.workload.cell_count()
        self.attempted += cells
        everything = range(cells)
        if run.error is not None or run.status != 0:
            for i in everything:
                self.failed.add((pass_index, i))
            self.problem(f"pass {pass_index} sweep exited with {run.status} {run.error or ''}")
            return None
        text = run.csv.read_text()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if like_text is not None:
            expect_digest = hashlib.sha256(like_text.encode()).hexdigest()
            expect_groups = group_digests(like_text)
        elif self.reference:
            expect_digest = self.reference["csv_sha256"]
            expect_groups = self.reference["groups"]
        else:
            return text
        if digest != expect_digest:
            bad = [key for key, d in group_digests(text).items()
                   if expect_groups.get(key) != d]
            indices = self.group_cells(bad) if bad else everything
            for i in indices:
                self.failed.add((pass_index, i))
            self.problem(f"pass {pass_index} CSV sha256 {digest} != expected "
                         f"{expect_digest}; differing groups: {bad or 'all'} "
                         f"(cell seeds {self.workload.base_seed(self.seed)}.."
                         f"{self.workload.base_seed(self.seed) + self.workload.repetitions - 1})")
        return text

    def group_cells(self, keys):
        """Cell indices of (policy, point) groups, in run_sweep's order."""
        w = self.workload
        out = []
        for key in keys:
            policy, point = key.split("/")
            p = POLICIES.index(policy)
            q = [repr(x) for x in w.demand_points].index(point)
            start = (p * len(w.demand_points) + q) * w.repetitions
            out.extend(range(start, start + w.repetitions))
        return out

    def check_sweep_cells(self, sf, run, csv_text):
        """Run the sweep's cells one by one, validate each schedule, and
        require the CSV means to equal means of these direct runs."""
        records = []
        reports = {}
        for i, cell in enumerate(self.workload.rerun_cells(sf, run.scenario)):
            record = self.check_cell(sf, 0, i, cell)
            records.append(record)
            if cell.report is not None:
                reports.setdefault((cell.policy, cell.point), []).append(cell.report)
            cell.sim = None
        self.records["cells"] = records
        if csv_text is None:
            return records
        for row in sf.reporting.load_results(csv_text):
            group = reports.get((row.policy, row.sweep_value), [])
            mean = sum(r.metric(row.metric) for r in group) / len(group) if group else None
            if row.mean != mean:
                key = f"{row.policy}/{row.sweep_value!r}"
                for i in self.group_cells([key]):
                    self.failed.add((0, i))
                self.problem(f"CSV row {key} {row.metric} = {row.mean!r} but its "
                             f"cells give {mean!r}")
        return records


# ----------------------------------------------------------------- passes

def run_pass(workload, seed, tracer=None, timed=host_time):
    """Set up, execute and return the pass; nothing is checked.  Garbage
    from earlier work is collected first, so that every set-up and pass
    starts from the same heap.  ``timed`` times each cell (see
    SimWorkload.execute)."""
    gc.collect()
    sf = load_sfcsched()
    if tracer is not None:
        install(tracer, sf)
    try:
        cells = workload.build(sf, seed, OUT_DIR)
        times = workload.execute(sf, cells, timed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return SimpleNamespace(sf=sf, cells=cells, times=times, wall_s=sum(times))


def gate_pass(gate, index, p, like=None):
    if isinstance(gate.workload, Sweep):
        return gate.check_sweep_pass(index, p.cells, like)
    return gate.check_sim_pass(p.sf, index, p.cells, like)


def simulated_metrics(records):
    records = [r for r in records if r is not None]
    if not records:
        return {}
    n = len(records)
    arrived = sum(r["arrived"] for r in records)
    return {"traffic_kb": sum(r["traffic_kb"] for r in records),
            "turnaround_ms": sum(r["turnaround_ms"] for r in records) / n,
            "satisfied_pct": sum(r["satisfied_pct"] for r in records) / n,
            "completed_pct": 100.0 * sum(r["completed"] for r in records) / arrived,
            "cost_per_hour": sum(r["cost_per_hour"] for r in records),
            "dropped_pct": 100.0 * sum(r["dropped"] for r in records) / arrived,
            "events": sum(r["events"] for r in records),
            "placements": sum(r["placements"] for r in records)}


def cell_records(gate, first):
    """Records of the finished cells: the sweep's direct runs, else the
    first pass's cells."""
    return gate.records.get("cells", gate.records.get(first, []))


def timed_setup(workload, seed, now=perf_counter):
    """Time of one set-up, by the clock ``now``: a fresh import and every
    cell's inputs."""
    gc.collect()
    start = now()
    sf = load_sfcsched()
    cells = workload.build(sf, seed, OUT_DIR)
    elapsed = now() - start
    del cells, sf   # freed outside the timed span
    return elapsed


def scaled(clock, host=None):
    """A ``timed`` for workload.execute: each cell's time at the reference
    host speed (hostspeed.py).  Host seconds go to ``host``, if given."""
    def timed(fn):
        elapsed, factor = clock.run(fn)
        if host is not None:
            host.append(elapsed)
        return elapsed * factor
    return timed


def measure(workload, seed, seconds, gate):
    """Untraced: repeated set-up and timed passes while ``seconds`` allow.
    Returns the metrics, the pass count and the host-speed record."""
    began = perf_counter()
    clock = HostClock()
    setups = []   # set-up samples at the reference speed
    host = []     # host seconds of every timed cell, unscaled
    cell_time = scaled(clock, host)

    def setup_block(samples):
        samples.append(timed_setup(workload, seed, clock.now))
        block = perf_counter()
        while perf_counter() - block < SETUP_MIN_S:
            samples.append(timed_setup(workload, seed, clock.now))
        gc.collect()   # the cell that follows starts from a clean heap

    def timed(fn):
        """Set-up samples, then the cell; each scaled by the calibrations
        around and during it."""
        samples = []
        _, factor = clock.run(lambda: setup_block(samples))
        setups.extend(x * factor for x in samples)
        return cell_time(fn)

    times = []   # per pass, each cell's scaled time (sweep: the CLI call's)
    while True:
        pass_began = perf_counter()
        first_host = len(host)
        p = run_pass(workload, seed, timed=timed)
        times.append(p.times)
        index = len(times) - 1
        if index == 0:
            like = gate_pass(gate, 0, p)
            # Only the sweep's gate needs the first pass again, at the end.
            first = (p.sf, p.cells) if isinstance(workload, Sweep) else None
        else:
            gate_pass(gate, index, p, like)
        print(f"pass {index}: wall_s={p.wall_s:.3f} host_s={sum(host[first_host:]):.3f} "
              f"calibration_s={clock.samples[-1]:.4f}", flush=True)
        p = None
        now = perf_counter()
        if len(times) >= MIN_PASSES and now + (now - pass_began) > began + seconds:
            break
    # Read before the sweep gate reruns every cell, so the peak is the
    # workload's own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if first is not None:
        gate.check_sweep_cells(*first, like)
    # Scaled times leave little of the host's drift (hostspeed.py); the
    # median over passes drops an odd cell.
    metrics = {"wall_s": sum(statistics.median(cell) for cell in zip(*times)),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": peak_rss_mb}
    sim = simulated_metrics(cell_records(gate, 0))
    for name in ("traffic_kb", "turnaround_ms", "satisfied_pct", "completed_pct",
                 "cost_per_hour"):
        if name in sim:
            metrics[name] = sim[name]
    speed = {"reference_s": REFERENCE_S,
             "calibration_median_s": statistics.median(clock.samples),
             "calibrations": len(clock.samples),
             "cell_host_s": host, "setup_samples": len(setups)}
    return metrics, len(times), speed


def trace(workload, seed, gate, spans_path):
    """One untraced pass, then two traced ones: the traced passes must
    reproduce the untraced outputs and each other's counts exactly."""
    timed = scaled(HostClock(probe=False))
    base = run_pass(workload, seed, timed=timed)
    like = gate_pass(gate, 0, base)
    print(f"pass 0: wall_s={base.wall_s:.3f}", flush=True)
    sweep = isinstance(workload, Sweep)
    first = (base.sf, base.cells) if sweep else None
    base_wall = base.wall_s
    base = None
    tracers = []
    walls = []
    for index in (1, 2):
        tracer = Tracer()
        p = run_pass(workload, seed, tracer, timed)
        gate_pass(gate, index, p, like)
        walls.append(p.wall_s)
        tracers.append(tracer)
        print(f"pass {index} (traced): wall_s={p.wall_s:.3f}", flush=True)
        p = None
    if sweep:
        gate.check_sweep_cells(*first, like)
    first, second = tracers
    c, c2 = first.counts(), second.counts()
    if c != c2:
        diff = sorted(k for k in c.keys() | c2.keys() if c.get(k) != c2.get(k))
        gate.problem(f"two traced passes gave different counts: {diff}")
    tracers = second = None
    first.write_spans(spans_path)
    print(f"trace: {c['spans']} spans written to {spans_path}", flush=True)

    sim = simulated_metrics(cell_records(gate, 0))
    select_calls = c["engine.select_calls"]
    m = {"engine.select_calls": select_calls,
         "engine.select_ok_ratio": c["engine.select_ok"] / select_calls if select_calls else 0.0,
         "engine.peak_ready": c["engine.peak_ready"],
         "engine.execute_s": first.total_s("engine.execute"),
         "engine.self_s": first.self_s("engine.execute"),
         "trace.overhead_s": walls[0] - base_wall}
    for name in ("events", "placements", "dropped_pct"):
        if name in sim:
            m[f"engine.{name}"] = sim[name]
    for name, unit in PER_LAYER:
        if name in m:
            continue
        if name.endswith(".self_s"):
            m[name] = first.self_s(name[:-len(".self_s")])
        elif name.endswith(".calls") and name[:-len(".calls")] in first.names:
            m[name] = first.calls(name[:-len(".calls")])
        elif name in c:
            m[name] = c[name]
    configured = workload.cell_count()
    if sweep and m.get("reporting.cells") != configured:
        # The cells ran where the wrappers cannot see them: missing, not 0.
        print(f"trace: reporting.cells saw {m.get('reporting.cells')} of "
              f"{configured} cells; reported as missing", flush=True)
        m.pop("reporting.cells", None)
    return m


def purpose_checks(name, m):
    """Does the workload exercise what it was chosen for?  Reported only:
    a change that removes the waste a workload shows is not an error."""
    def ratio(a, b):
        return m[a] / m[b] if m.get(b) else float("nan")
    checks = {
        "overload": [("engine.select_ok_ratio <= 0.1", m["engine.select_ok_ratio"] <= 0.1),
                     ("engine.peak_ready >= 50", m["engine.peak_ready"] >= 50),
                     ("engine.dropped_pct > 0", m.get("engine.dropped_pct", 0) > 0)],
        "nominal": [("engine.select_ok_ratio == 1.0", m["engine.select_ok_ratio"] == 1.0),
                    ("hosted_scanned / buffer_service.calls > 100",
                     ratio("infrastructure.hosted_scanned",
                           "infrastructure.Machine.buffer_service.calls") > 100)],
        "sweep": [("reporting.cells == configured cells", "reporting.cells" in m)],
    }[name]
    return {label: bool(ok) for label, ok in checks}


# ------------------------------------------------------------------- main

def load_reference(workload, seed):
    path = REFS_DIR / f"{workload.name}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def record(workload, seed):
    """Store this seed's reference: cell digests and metrics, and for the
    sweep the CSV sha256 with per-group digests."""
    gate = Gate(workload, seed, None)
    p = run_pass(workload, seed)
    out = gate_pass(gate, 0, p)
    if isinstance(workload, Sweep):
        gate.check_sweep_cells(p.sf, p.cells, out)
    if gate.failed or gate.problems:
        raise BenchError("not recording a reference for a run that failed its checks")
    if isinstance(workload, Sweep):
        entry = {"csv_sha256": hashlib.sha256(out.encode()).hexdigest(),
                 "groups": group_digests(out)}
    else:
        entry = {"cells": [{k: r[k] for k in REF_FIELDS} for r in gate.records[0]]}
    path = REFS_DIR / f"{workload.name}.json"
    refs = json.loads(path.read_text()) if path.is_file() else {}
    refs[str(seed)] = entry
    REFS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"recorded {workload.name} seed {seed} in {path}", flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    loadavg = read_loadavg()
    if not (SRC / "sfcsched" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources at {SRC / 'sfcsched'}")
    # The CLI lets this variable override scenario seeds; the seed is ours.
    os.environ.pop("SFC_SCHED_SEED", None)
    sys.path.insert(0, str(SRC))
    # Compile the simulator from source at every import, whatever bytecode
    # caches the environment allows: set-up then costs the same in every
    # checkout, and nothing is written under src/.
    sys.dont_write_bytecode = True
    sys.pycache_prefix = str(OUT_DIR / "no-pycache")
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    if args.record:
        record(workload, args.seed)
        return 0

    stamp = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
             "git_sha": git_sha(), "source_sha256": source_sha256(),
             "python": platform.python_version(),
             "nproc": len(os.sched_getaffinity(0)), "loadavg_at_start": loadavg,
             "cells_per_pass": workload.cell_count()}
    print("stamp: " + json.dumps(stamp), flush=True)
    reference = load_reference(workload, args.seed)
    if reference is None:
        print(f"gate: no stored reference for {workload.name} seed {args.seed}: "
              "validity checks only", flush=True)
    gate = Gate(workload, args.seed, reference)
    if args.trace:
        spans = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.bin"
        metrics = trace(workload, args.seed, gate, spans)
        units = dict(PER_LAYER)
        checks = purpose_checks(workload.name, metrics)
        for label, ok in checks.items():
            print(f"purpose: {label}: {'yes' if ok else 'NO'}", flush=True)
        stamp["passes"] = 3
    else:
        metrics, stamp["passes"], speed = measure(workload, args.seed, args.seconds, gate)
        units = dict(END_TO_END)
        checks = {}
        print(f"host speed: calibration median {speed['calibration_median_s']:.4f} s "
              f"(reference {REFERENCE_S} s) over {speed['calibrations']} calibrations",
              flush=True)
        stamp["host_speed"] = speed
    result = {"correct": not gate.failed and not gate.problems,
              "attempted": gate.attempted, "failed": len(gate.failed),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    detail = dict(result, stamp=stamp, purpose=checks, problems=gate.problems)
    result_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
