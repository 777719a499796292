"""Scenario files, comparison sweeps and machine-readable results.

Scenario files are JSON with sections ``topology``, ``catalog``, ``chains``,
``workload``, ``fws`` and ``sweep``.  Every field has a documented default;
unknown keys are rejected with their dotted path.  The dataclasses define the
format: each section's keys are the checked fields of the class it builds, and
each field's rule sits in its metadata (see ``errors.check_fields``).
"""

import json
from dataclasses import MISSING, asdict, dataclass, fields, replace

from .chains import ServiceChain
from .engine import run
from .errors import (POSITIVE, IoError, ParseError, ValidationError, check_fields,
                     checked, int_in, is_int, is_number, list_of, section_keys)
from .fws import WeightParams
from .infrastructure import TopologySpec, VmType
from .metrics import METRIC_NAMES
from .scenario import MAX_REQUEST_COUNT, POLICY_NAMES, Scenario

# Demand sweeps hold the arrival window fixed so the offered rate scales
# with the demand count.
DEFAULT_DEMAND_WINDOW_S = 30.0

CSV_HEADER = "policy,sweep_var,sweep_value,metric,mean,reps"
MAX_REPETITIONS = 10_000


@dataclass
class SweepSpec:
    demand_points: tuple = checked(
        list_of(lambda p: is_int(p) and 0 <= p <= MAX_REQUEST_COUNT,
                f"integers in [0, {MAX_REQUEST_COUNT}]", increasing=True),
        (100, 500, 1000, 2000, 3000, 4000, 5000))
    load_points: tuple = checked(
        list_of(lambda p: is_number(p) and 0 <= p < 1, "numbers in [0, 1)",
                increasing=True), (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9))
    policies: tuple = checked(list_of(lambda p: p in POLICY_NAMES,
                                      f"policies from {', '.join(POLICY_NAMES)}"),
                              POLICY_NAMES)
    repetitions: int = checked(int_in(1, MAX_REPETITIONS), 5)
    demand_window_s: float = checked(POSITIVE, DEFAULT_DEMAND_WINDOW_S)
    load_demand_count: int = checked(int_in(1, MAX_REQUEST_COUNT), 3000)

    def validate(self, scenario):
        """Check each field, and that the clock resolves every sweep point of
        ``scenario``: each runs over the window, which alone sets its horizon."""
        check_fields(self, "sweep")
        scenario.check_horizon(1000.0 * self.demand_window_s, "sweep.demand_window_s")
        return self


@dataclass
class _ChainEntry:  # a chains entry as the file holds it
    chain_id: int = checked((is_int, "must be an integer"))
    nodes: tuple = checked(list_of(is_int, "integer service ids"))
    # _section made the section's lists tuples; an edge is still a list
    edges: tuple = checked((lambda v: isinstance(v, tuple) and all(
        isinstance(e, list) and len(e) == 2 and all(map(is_int, e)) for e in v),
        "must list [from, to] service id pairs"), ())


@dataclass
class ResultRow:
    policy: str
    sweep_var: str     # "demand" | "load"
    sweep_value: float
    metric: str
    mean: float
    reps: int


def _section(body, path, keys):
    """A section as keyword arguments: an object with known keys only, its
    lists turned into tuples."""
    if not isinstance(body, dict):
        raise ValidationError(path, "must be an object")
    for key in body:
        if key not in keys:
            raise ValidationError(f"{path}.{key}", "unknown key")
    return {k: (tuple(v) if isinstance(v, list) else v) for k, v in body.items()}


def _entries(raw, name, cls):
    """Each entry of a list section with its path, built as ``cls``."""
    if not isinstance(raw[name], list) or not raw[name]:
        raise ValidationError(name, "must be a nonempty list")
    for idx, body in enumerate(raw[name]):
        path = f"{name}[{idx}]"
        entry = _section(body, path, section_keys(cls))
        for f in fields(cls):
            if f.default is MISSING and f.name not in entry:
                raise ValidationError(path, f"missing {f.name!r}")
        yield path, cls(**entry)


_TOPOLOGY_KEYS = section_keys(TopologySpec)
_WORKLOAD_KEYS = section_keys(Scenario)
_FWS_KEYS = section_keys(WeightParams) + section_keys(Scenario, "fws")
_SWEEP_KEYS = section_keys(SweepSpec)
_CATALOG_KEYS = section_keys(VmType)
_CHAIN_KEYS = section_keys(_ChainEntry)


def read_scenario_file(path) -> dict:
    """The file's top-level object, its section names checked."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        raw = json.loads(data.decode("utf-8"))
    # ValueError covers bad JSON and bad UTF-8; nesting can go too deep
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in raw:
        if key not in ("topology", "catalog", "chains", "workload", "fws", "sweep"):
            raise ValidationError(key, "unknown section")
    return raw


def parse_scenario(path) -> Scenario:
    """Build a fully defaulted Scenario from a file; rejects unknown keys."""
    return scenario_from_dict(read_scenario_file(path))


def scenario_from_dict(raw) -> Scenario:
    kw = {"topology_spec": TopologySpec(
        **_section(raw.get("topology", {}), "topology", _TOPOLOGY_KEYS))}

    if "catalog" in raw:  # null too: it fails the list check
        # Scenario.validate checks each type's fields
        kw["catalog"] = [vm for _, vm in _entries(raw, "catalog", VmType)]

    if "chains" in raw:  # null too: it fails the list check
        kw["chains"] = []
        for path, entry in _entries(raw, "chains", _ChainEntry):
            check_fields(entry, path)
            try:
                kw["chains"].append(ServiceChain(entry.chain_id, set(entry.nodes),
                                                 {tuple(e) for e in entry.edges}))
            except ValueError as exc:
                raise ValidationError(f"{path}.edges", str(exc)) from exc

    kw.update(_section(raw.get("workload", {}), "workload", _WORKLOAD_KEYS))
    weights = _section(raw.get("fws", {}), "fws", _FWS_KEYS)
    for key in section_keys(Scenario, "fws"):  # resume_latency_ms
        if key in weights:
            kw[key] = weights.pop(key)
    if weights:
        kw["weights"] = WeightParams(**weights)
    return Scenario(**kw).validate()


def parse_sweep(path) -> SweepSpec:
    raw = read_scenario_file(path)
    return sweep_from_dict(raw, scenario_from_dict(raw))


def sweep_from_dict(raw, scenario) -> SweepSpec:
    """The file's sweep section, checked for the scenario it sweeps."""
    return SweepSpec(**_section(raw.get("sweep", {}), "sweep",
                                _SWEEP_KEYS)).validate(scenario)


def run_sweep(scenario: Scenario, sweep: SweepSpec, var="demand") -> list:
    """One row per (policy, sweep point, metric), averaged over repetitions.

    Repetition k runs with seed ``rng_seed + k`` so means are reproducible.
    The runs of one repetition and point go back to back, so its policies
    share one workload draw (see ``scenario.generate_workload``); the rows
    come out by policy, then point.
    """
    sweep.validate(scenario)
    # the scenario fields one point of each sweep variable sets
    point_fields = {"demand": lambda p: {"request_count": int(p)},
                    "load": lambda p: {"background_load_fraction": float(p),
                                       "request_count": sweep.load_demand_count}}
    if var not in point_fields:
        raise ValidationError("sweep.var", f"unknown sweep variable {var!r}")
    points = getattr(sweep, f"{var}_points")
    # keyed by (policy index, point), in row order: a policy may repeat
    bases = {(i, point): scenario.with_overrides(
                 policy=policy, arrival_window_s=sweep.demand_window_s,
                 **point_fields[var](point))
             for i, policy in enumerate(sweep.policies) for point in points}
    reports = {key: [] for key in bases}
    for k in range(sweep.repetitions):
        for point in points:
            for i in range(len(sweep.policies)):
                # the totals only: held across the sweep, the per-request
                # records would grow its peak memory with every cell
                reports[i, point].append(replace(
                    run(bases[i, point].with_overrides(rng_seed=scenario.rng_seed + k)),
                    per_request=[]))
    rows = []
    for (_, point), group in reports.items():
        rows += report_rows(group, var, point)
    return rows


def report_rows(reports, sweep_var, sweep_value) -> list:
    """One row per metric: its mean over the MetricsReports of one sweep
    point's repetitions, all of one policy; one run is the one-report case.
    Each total is added left to right, so the bits are the same on every Python."""
    rows = []
    for m in METRIC_NAMES:
        total = 0
        for r in reports:
            total += r.metric(m)
        rows.append(ResultRow(policy=reports[0].policy, sweep_var=sweep_var,
                              sweep_value=sweep_value, metric=m,
                              mean=total / len(reports), reps=len(reports)))
    return rows


def render_results(rows, fmt="csv") -> str:
    """Deterministic text for a row list; csv or an equivalent JSON object."""
    if not rows:
        raise ValidationError("rows", "nothing to emit")
    ordered = sorted(rows, key=lambda r: (r.policy, r.sweep_value, r.metric))
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in ordered:
            lines.append(f"{r.policy},{r.sweep_var},{r.sweep_value!r},"
                         f"{r.metric},{r.mean!r},{r.reps}")
        return "\n".join(lines) + "\n"
    if fmt == "structured":
        return json.dumps({"rows": [asdict(r) for r in ordered]}, indent=2,
                          sort_keys=True) + "\n"
    raise ValidationError("format", f"unknown output format {fmt!r}")


def emit_results(rows, path, fmt="csv") -> str:
    """Write rendered results to path; returns the path."""
    text = render_results(rows, fmt)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write results to {path}: {exc}") from exc
    return path


def _parse_number(text):
    value = float(text)
    return int(value) if value == int(value) and "." not in text else value


def load_results(text) -> list:
    """Parse csv results back into rows (round-trip inverse of render)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError("missing results header")
    rows = []
    for ln in lines[1:]:
        try:
            policy, var, value, metric, mean, reps = ln.split(",")
            rows.append(ResultRow(policy=policy, sweep_var=var,
                                  sweep_value=_parse_number(value), metric=metric,
                                  mean=float(mean), reps=int(reps)))
        except (ValueError, OverflowError) as exc:  # field count or a number
            raise ParseError(f"malformed results row: {ln!r}") from exc
    return rows
