"""Outside-in tracing of sfcsched for the traced benchmark run.

The program is not edited: the tracer replaces public callables on the
imported modules with wrappers, and restores them afterwards.  A *span*
wrapper times the call and records a span (name, start, end, parent span,
cell id); a *count* wrapper only counts calls, for callables too hot to time
without distorting the run.  Spans are kept in memory as columns and written
once, at the end of the run.

Self time of a span is its duration minus the time covered by the wrapped
spans nested directly inside it.
"""

import json
from array import array
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._stats = []          # per name id: [calls, total_s, self_s]
        self.counters = {}        # name -> one-element list
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_cell = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []          # open spans: [span index, child time]
        self._patches = []
        self.cell = -1            # id of the cell whose work is running
        self._next_cell = 0
        self.sim = None           # SimulationRun whose execute() is running

    # ------------------------------------------------------------ wrappers

    def counter(self, name):
        return self.counters.setdefault(name, [0])

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a timed span.  before(args, kwargs) runs ahead of the
        call and after(result) behind it; both stay outside the span."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._stats.append([0, 0.0, 0.0])
        nid = self._name_ids[name]
        stats = self._stats[nid]
        stack = self._stack
        names, parents, cells = self.span_name, self.span_parent, self.span_cell
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            cells.append(self.cell)
            frame = [idx, 0.0]
            stack.append(frame)
            start = perf_counter()
            starts.append(start)
            ends.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[idx] = end
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(result)
            return result

        return wrapper

    def count(self, name, fn):
        calls = self.counter(name + ".calls")

        def wrapper(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def in_cell(self, fn):
        """Wrap fn so that its work is tagged with a new cell id, unless it
        already runs inside a cell; the id is cleared when fn returns."""
        def wrapper(*args, **kwargs):
            if self.cell != -1:
                return fn(*args, **kwargs)
            self.cell = self._next_cell
            self._next_cell += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.cell = -1

        return wrapper

    def patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_everywhere(self, modules, fn, wrapper):
        """Replace fn in every module namespace that binds it by name, so
        calls through ``from x import fn`` bindings are seen too."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- results

    def calls(self, name):
        nid = self._name_ids.get(name)
        return self._stats[nid][0] if nid is not None else 0

    def total_s(self, name):
        nid = self._name_ids.get(name)
        return self._stats[nid][1] if nid is not None else 0.0

    def self_s(self, name):
        nid = self._name_ids.get(name)
        return self._stats[nid][2] if nid is not None else 0.0

    def counts(self):
        """Every count the trace made; equal inputs must give equal counts."""
        out = {f"{name}.calls": stats[0] for name, stats in zip(self.names, self._stats)}
        out.update((name, c[0]) for name, c in self.counters.items())
        out["spans"] = len(self.span_name)
        return out

    def write_spans(self, path):
        """One JSON header line, then the raw columns in header order."""
        columns = [("name", self.span_name), ("start", self.span_start),
                   ("end", self.span_end), ("parent", self.span_parent),
                   ("cell", self.span_cell)]
        header = {"names": self.names, "count": len(self.span_name),
                  "columns": [[c, a.typecode, a.itemsize] for c, a in columns]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, column in columns:
                column.tofile(fh)


def install(tracer, sf):
    """Wrap the layer boundaries of the imported sfcsched modules ``sf``."""
    t = tracer
    modules = [sf.package, sf.chains, sf.cli, sf.engine, sf.fws, sf.greedy,
               sf.infrastructure, sf.metrics, sf.reporting, sf.scenario]

    def enter_execute(args, kwargs):
        t.sim = args[0]

    # One execute() is one cell; a sweep cell also covers the set-up that
    # engine.run() does before it (see run_cell below).
    t.patch(sf.engine.SimulationRun, "execute",
            t.in_cell(t.span("engine.execute", sf.engine.SimulationRun.execute,
                             before=enter_execute)))

    select_calls = t.counter("engine.select_calls")
    select_ok = t.counter("engine.select_ok")
    peak_ready = t.counter("engine.peak_ready")

    def selection(name, fn, machines_pos, scanned_name):
        scanned = t.counter(scanned_name)

        def before(args, kwargs):
            select_calls[0] += 1
            machines = args[machines_pos] if len(args) > machines_pos \
                else kwargs["machines"]
            scanned[0] += len(machines)
            ready = len(t.sim.ready)
            if ready > peak_ready[0]:
                peak_ready[0] = ready

        def after(result):
            if result is not None:
                select_ok[0] += 1

        t.patch_everywhere(modules, fn, t.span(name, fn, before, after))

    selection("fws.select_machine_fws", sf.fws.select_machine_fws, 3,
              "fws.machines_scanned")
    selection("greedy.greedy_select_machine", sf.greedy.greedy_select_machine, 2,
              "greedy.machines_scanned")

    hosted = t.counter("infrastructure.hosted_scanned")

    def before_buffer(args, kwargs):
        hosted[0] += len(args[0].hosted)

    machine = sf.infrastructure.Machine
    t.patch(machine, "buffer_service",
            t.span("infrastructure.Machine.buffer_service", machine.buffer_service,
                   before=before_buffer))
    link = sf.infrastructure.Link
    t.patch(link, "delay_s", t.span("infrastructure.Link.delay_s", link.delay_s))
    topology = sf.infrastructure.Topology
    t.patch(topology, "route", t.count("infrastructure.Topology.route", topology.route))

    for name, fn in (("fws.assign_labels", sf.fws.assign_labels),
                     ("chains.ready_services", sf.chains.ready_services),
                     ("scenario.generate_workload", sf.scenario.generate_workload),
                     ("scenario.sample_service_defs", sf.scenario.sample_service_defs),
                     ("infrastructure.default_topology",
                      sf.infrastructure.default_topology),
                     ("reporting.run_sweep", sf.reporting.run_sweep),
                     ("reporting.render_results", sf.reporting.render_results)):
        t.patch_everywhere(modules, fn, t.span(name, fn))
    for name, fn in (("fws.compute_weight", sf.fws.compute_weight),
                     ("metrics.check_sla", sf.metrics.check_sla)):
        t.patch_everywhere(modules, fn, t.count(name, fn))

    # Each engine.run() reached from run_sweep is one sweep cell.
    cells = t.counter("reporting.cells")
    sweep_run = sf.reporting.run

    def run_cell(*args, **kwargs):
        cells[0] += 1
        return sweep_run(*args, **kwargs)

    t.patch(sf.reporting, "run", t.in_cell(run_cell))
    t.patch(sf.cli, "main", t.span("cli.main", sf.cli.main))
