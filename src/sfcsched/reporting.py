"""Scenario files, comparison sweeps and machine-readable results.

Scenario files are JSON with sections ``topology``, ``catalog``, ``chains``,
``workload``, ``fws`` and ``sweep``.  Every field has a documented default;
unknown keys are rejected with their dotted path.  The dataclasses define the
format: each section's keys are the fields of the class it builds.
"""

import json
from dataclasses import dataclass, fields

from .chains import ServiceChain
from .engine import run
from .errors import CycleDetected, DanglingEdge, IoError, ParseError, ValidationError
from .fws import WeightParams
from .infrastructure import VmType
from .metrics import METRIC_NAMES
from .scenario import (MAX_REQUEST_COUNT, POLICY_NAMES, Scenario, TopologySpec,
                       _is_int, _is_list, _is_number, _require)

DEFAULT_DEMAND_POINTS = (100, 500, 1000, 2000, 3000, 4000, 5000)
DEFAULT_LOAD_POINTS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# Demand sweeps hold the arrival window fixed so the offered rate scales
# with the demand count.
DEFAULT_DEMAND_WINDOW_S = 30.0

CSV_HEADER = "policy,sweep_var,sweep_value,metric,mean,reps"
MAX_REPETITIONS = 10_000


@dataclass
class SweepSpec:
    demand_points: tuple = DEFAULT_DEMAND_POINTS
    load_points: tuple = DEFAULT_LOAD_POINTS
    policies: tuple = POLICY_NAMES
    repetitions: int = 5
    demand_window_s: float = DEFAULT_DEMAND_WINDOW_S
    load_demand_count: int = 3000

    def validate(self):
        _require(_is_list(self.demand_points) and all(
            _is_int(p) and 0 <= p <= MAX_REQUEST_COUNT for p in self.demand_points),
            "sweep.demand_points", f"must list integers in [0, {MAX_REQUEST_COUNT}]")
        if not self.demand_points or \
                any(b <= a for a, b in zip(self.demand_points, self.demand_points[1:])):
            raise ValidationError("sweep.demand_points", "must be strictly increasing")
        _require(_is_list(self.load_points)
                 and all(_is_number(p) for p in self.load_points),
                 "sweep.load_points", "must list numbers")
        if not self.load_points or \
                any(b <= a for a, b in zip(self.load_points, self.load_points[1:])):
            raise ValidationError("sweep.load_points", "must be strictly increasing")
        if any(not 0 <= p < 1 for p in self.load_points):
            raise ValidationError("sweep.load_points", "must lie in [0, 1)")
        _require(_is_list(self.policies) and len(self.policies) > 0,
                 "sweep.policies", "must list at least one policy")
        unknown = [p for p in self.policies if p not in POLICY_NAMES]
        if unknown:
            raise ValidationError("sweep.policies", f"unknown policy {unknown[0]!r}")
        _require(_is_int(self.repetitions) and 1 <= self.repetitions <= MAX_REPETITIONS,
                 "sweep.repetitions", f"must be an integer in [1, {MAX_REPETITIONS}]")
        _require(_is_number(self.demand_window_s) and self.demand_window_s > 0,
                 "sweep.demand_window_s", "must be a positive number")
        _require(_is_int(self.load_demand_count)
                 and 1 <= self.load_demand_count <= MAX_REQUEST_COUNT,
                 "sweep.load_demand_count",
                 f"must be an integer in [1, {MAX_REQUEST_COUNT}]")
        return self


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
    _require(isinstance(body, dict), path, "must be an object")
    for key in body:
        _require(key in keys, f"{path}.{key}", "unknown key")
    return {k: (tuple(v) if isinstance(v, list) else v) for k, v in body.items()}


def _field_names(cls, exclude=()):
    return tuple(f.name for f in fields(cls) if f.name not in exclude)


_TOPOLOGY_KEYS = _field_names(TopologySpec)
# the other Scenario fields come from the topology, catalog, chains and fws
# sections
_WORKLOAD_KEYS = _field_names(Scenario, exclude=(
    "resume_latency_ms", "weights", "topology_spec", "catalog", "chains"))
_FWS_KEYS = _field_names(WeightParams) + ("resume_latency_ms",)
_SWEEP_KEYS = _field_names(SweepSpec)
_CATALOG_KEYS = _field_names(VmType)
_CHAIN_KEYS = ("chain_id", "nodes", "edges")


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

    catalog_raw = raw.get("catalog")
    if catalog_raw is not None:
        if not isinstance(catalog_raw, list) or not catalog_raw:
            raise ValidationError("catalog", "must be a nonempty list")
        kw["catalog"] = []
        for idx, entry in enumerate(catalog_raw):
            path = f"catalog[{idx}]"
            entry = _section(entry, path, _CATALOG_KEYS)
            try:
                kw["catalog"].append(VmType(**entry))
            except TypeError as exc:  # a missing key: VmType has no defaults
                raise ValidationError(path, str(exc)) from exc

    chains_raw = raw.get("chains")
    if chains_raw is not None:
        if not isinstance(chains_raw, list) or not chains_raw:
            raise ValidationError("chains", "must be a nonempty list")
        kw["chains"] = []
        for idx, entry in enumerate(chains_raw):
            path = f"chains[{idx}]"
            entry = _section(entry, path, _CHAIN_KEYS)
            for key in ("chain_id", "nodes"):
                _require(key in entry, path, f"missing {key!r}")
            nodes, edges = entry["nodes"], entry.get("edges", ())
            _require(_is_int(entry["chain_id"]), f"{path}.chain_id",
                     "must be an integer")
            _require(_is_list(nodes) and nodes and all(_is_int(n) for n in nodes),
                     f"{path}.nodes", "must list integer service ids")
            _require(_is_list(edges)
                     and all(_is_list(e) and len(e) == 2
                             and all(_is_int(n) for n in e) for e in edges),
                     f"{path}.edges", "must list [from, to] service id pairs")
            try:
                kw["chains"].append(ServiceChain(entry["chain_id"], set(nodes),
                                                 {tuple(e) for e in edges}))
            except (CycleDetected, DanglingEdge) as exc:
                raise ValidationError(f"{path}.edges", str(exc)) from exc

    kw.update(_section(raw.get("workload", {}), "workload", _WORKLOAD_KEYS))
    weights = _section(raw.get("fws", {}), "fws", _FWS_KEYS)
    if "resume_latency_ms" in weights:
        kw["resume_latency_ms"] = weights.pop("resume_latency_ms")
    if weights:
        kw["weights"] = WeightParams(**weights)
    return Scenario(**kw).validate()


def parse_sweep(path) -> SweepSpec:
    return sweep_from_dict(read_scenario_file(path))


def sweep_from_dict(raw) -> SweepSpec:
    return SweepSpec(**_section(raw.get("sweep", {}), "sweep", _SWEEP_KEYS)).validate()


def run_sweep(scenario: Scenario, sweep: SweepSpec, var="demand") -> list:
    """One row per (policy, sweep point, metric), averaged over repetitions.

    Repetition k runs with seed ``rng_seed + k`` so means are reproducible.
    """
    sweep.validate()
    if var == "demand":
        points = sweep.demand_points
    elif var == "load":
        points = sweep.load_points
    else:
        raise ValidationError("sweep.var", f"unknown sweep variable {var!r}")
    rows = []
    for policy in sweep.policies:
        for point in points:
            if var == "demand":
                base = scenario.with_overrides(
                    policy=policy, request_count=int(point),
                    arrival_window_s=sweep.demand_window_s)
            else:
                base = scenario.with_overrides(
                    policy=policy, background_load_fraction=float(point),
                    request_count=sweep.load_demand_count,
                    arrival_window_s=sweep.demand_window_s)
            reports = [run(base.with_overrides(rng_seed=scenario.rng_seed + k))
                       for k in range(sweep.repetitions)]
            for metric in METRIC_NAMES:
                mean = sum(r.metric(metric) for r in reports) / len(reports)
                rows.append(ResultRow(policy=policy, sweep_var=var,
                                      sweep_value=point, metric=metric,
                                      mean=mean, reps=sweep.repetitions))
    return rows


def report_rows(report, sweep_var, sweep_value) -> list:
    """Express one MetricsReport in the sweep row shape (reps = 1)."""
    return [ResultRow(policy=report.policy, sweep_var=sweep_var,
                      sweep_value=sweep_value, metric=m, mean=report.metric(m),
                      reps=1)
            for m in METRIC_NAMES]


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
        payload = [{"policy": r.policy, "sweep_var": r.sweep_var,
                    "sweep_value": r.sweep_value, "metric": r.metric,
                    "mean": r.mean, "reps": r.reps} for r in ordered]
        return json.dumps({"rows": payload}, indent=2, sort_keys=True) + "\n"
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
