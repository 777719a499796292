"""Scenario files, comparison sweeps and machine-readable results.

Scenario files are JSON with sections ``topology``, ``catalog``, ``chains``,
``workload``, ``fws`` and ``sweep``.  Every field has a documented default;
unknown keys are rejected with their dotted path.  The environment variable
``SFC_SCHED_SEED`` overrides the file seed.
"""

import json
import os
from dataclasses import dataclass

from .chains import ServiceChain
from .engine import run
from .errors import CycleDetected, DanglingEdge, IoError, ParseError, ValidationError
from .fws import WeightParams
from .infrastructure import VmType
from .metrics import METRIC_NAMES
from .scenario import (POLICY_NAMES, Scenario, TopologySpec, _is_int, _is_list,
                       _is_number, _require)

SEED_ENV_VAR = "SFC_SCHED_SEED"

DEFAULT_DEMAND_POINTS = (100, 500, 1000, 2000, 3000, 4000, 5000)
DEFAULT_LOAD_POINTS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# Demand sweeps hold the arrival window fixed so the offered rate scales
# with the demand count.
DEFAULT_DEMAND_WINDOW_S = 30.0

CSV_HEADER = "policy,sweep_var,sweep_value,metric,mean,reps"


@dataclass
class SweepSpec:
    demand_points: tuple = DEFAULT_DEMAND_POINTS
    load_points: tuple = DEFAULT_LOAD_POINTS
    policies: tuple = POLICY_NAMES
    repetitions: int = 5
    demand_window_s: float = DEFAULT_DEMAND_WINDOW_S
    load_demand_count: int = 3000

    def validate(self):
        _require(_is_list(self.demand_points)
                 and all(_is_int(p) and p >= 0 for p in self.demand_points),
                 "sweep.demand_points", "must list integers >= 0")
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
        _require(_is_int(self.repetitions) and self.repetitions >= 1,
                 "sweep.repetitions", "must be an integer >= 1")
        _require(_is_number(self.demand_window_s) and self.demand_window_s > 0,
                 "sweep.demand_window_s", "must be a positive number")
        _require(_is_int(self.load_demand_count) and self.load_demand_count >= 1,
                 "sweep.load_demand_count", "must be an integer >= 1")
        return self


@dataclass
class ResultRow:
    policy: str
    sweep_var: str     # "demand" | "load"
    sweep_value: float
    metric: str
    mean: float
    reps: int


def _section(raw, name, allowed):
    body = raw.get(name, {})
    if not isinstance(body, dict):
        raise ValidationError(name, "must be an object")
    for key in body:
        if key not in allowed:
            raise ValidationError(f"{name}.{key}", "unknown key")
    return body


_TOPOLOGY_KEYS = ("micro_count", "core_count", "micro_slots", "core_slots",
                  "micro_link_mu_pps", "core_link_mu_pps", "rho_max", "packet_kb")
_WORKLOAD_KEYS = ("request_count", "arrival_rate_rps", "arrival_window_s",
                  "sla_delay_range_ms", "sla_cost_range",
                  "background_load_fraction", "rng_seed", "policy",
                  "exec_time_range_ms", "data_out_range_kb", "capacity_range_rps",
                  "service_memory_range_gb", "service_cores_choices",
                  "provision_latency_ms")
_FWS_KEYS = ("alpha_dep", "beta_wait", "dependents", "resume_latency_ms")
_SWEEP_KEYS = ("demand_points", "load_points", "policies", "repetitions",
               "demand_window_s", "load_demand_count")
_CATALOG_KEYS = ("name", "memory_gb", "cores", "max_bandwidth_mbps", "hourly_cost")
_CHAIN_KEYS = ("chain_id", "nodes", "edges")


def _load_raw(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in raw:
        if key not in ("topology", "catalog", "chains", "workload", "fws", "sweep"):
            raise ValidationError(key, "unknown section")
    return raw


def parse_scenario(path) -> Scenario:
    """Build a fully defaulted Scenario from a file; rejects unknown keys."""
    raw = _load_raw(path)
    scenario = scenario_from_dict(raw)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            scenario = scenario.with_overrides(rng_seed=int(env_seed))
        except ValueError as exc:
            raise ValidationError(SEED_ENV_VAR, "must be an integer") from exc
    return scenario.validate()


def scenario_from_dict(raw) -> Scenario:
    topo = _section(raw, "topology", _TOPOLOGY_KEYS)
    try:
        topology_spec = TopologySpec(**topo)
    except TypeError as exc:
        raise ValidationError("topology", str(exc)) from exc

    catalog_raw = raw.get("catalog")
    if catalog_raw is None:
        catalog_kw = {}
    else:
        if not isinstance(catalog_raw, list) or not catalog_raw:
            raise ValidationError("catalog", "must be a nonempty list")
        catalog = []
        for idx, entry in enumerate(catalog_raw):
            _require(isinstance(entry, dict), f"catalog[{idx}]", "must be an object")
            for key in entry:
                if key not in _CATALOG_KEYS:
                    raise ValidationError(f"catalog[{idx}].{key}", "unknown key")
            try:
                catalog.append(VmType(**entry))
            except TypeError as exc:
                raise ValidationError(f"catalog[{idx}]", str(exc)) from exc
        catalog_kw = {"catalog": catalog}

    chains_raw = raw.get("chains")
    if chains_raw is None:
        chains_kw = {}
    else:
        if not isinstance(chains_raw, list) or not chains_raw:
            raise ValidationError("chains", "must be a nonempty list")
        chains = []
        for idx, entry in enumerate(chains_raw):
            path = f"chains[{idx}]"
            _require(isinstance(entry, dict), path, "must be an object")
            for key in entry:
                if key not in _CHAIN_KEYS:
                    raise ValidationError(f"{path}.{key}", "unknown key")
            for key in ("chain_id", "nodes"):
                _require(key in entry, path, f"missing {key!r}")
            nodes, edges = entry["nodes"], entry.get("edges", [])
            _require(_is_int(entry["chain_id"]), f"{path}.chain_id",
                     "must be an integer")
            _require(isinstance(nodes, list) and nodes
                     and all(_is_int(n) for n in nodes),
                     f"{path}.nodes", "must list integer service ids")
            _require(isinstance(edges, list)
                     and all(isinstance(e, list) and len(e) == 2
                             and all(_is_int(n) for n in e) for e in edges),
                     f"{path}.edges", "must list [from, to] service id pairs")
            try:
                chains.append(ServiceChain(entry["chain_id"], set(nodes),
                                           {tuple(e) for e in edges}))
            except (CycleDetected, DanglingEdge) as exc:
                raise ValidationError(f"{path}.edges", str(exc)) from exc
        chains_kw = {"chains": chains}

    workload = _section(raw, "workload", _WORKLOAD_KEYS)
    workload = {k: (tuple(v) if isinstance(v, list) else v)
                for k, v in workload.items()}
    fws_raw = _section(raw, "fws", _FWS_KEYS)
    fws_kw = dict(fws_raw)
    resume = fws_kw.pop("resume_latency_ms", None)
    weights_kw = {"weights": WeightParams(**fws_kw)} if fws_kw else {}
    resume_kw = {"resume_latency_ms": resume} if resume is not None else {}

    try:
        scenario = Scenario(topology_spec=topology_spec, **catalog_kw, **chains_kw,
                            **workload, **weights_kw, **resume_kw)
    except (TypeError, ValueError) as exc:
        raise ValidationError("workload", str(exc)) from exc
    return scenario.validate()


def parse_sweep(path) -> SweepSpec:
    raw = _load_raw(path)
    return sweep_from_dict(raw)


def sweep_from_dict(raw) -> SweepSpec:
    body = _section(raw, "sweep", _SWEEP_KEYS)
    body = {k: (tuple(v) if isinstance(v, list) else v) for k, v in body.items()}
    try:
        spec = SweepSpec(**body)
    except TypeError as exc:
        raise ValidationError("sweep", str(exc)) from exc
    return spec.validate()


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


def _sorted_rows(rows):
    return sorted(rows, key=lambda r: (r.policy, r.sweep_value, r.metric))


def render_results(rows, fmt="csv") -> str:
    """Deterministic text for a row list; csv or an equivalent JSON object."""
    if not rows:
        raise ValidationError("rows", "nothing to emit")
    ordered = _sorted_rows(rows)
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
        parts = ln.split(",")
        if len(parts) != 6:
            raise ParseError(f"malformed results row: {ln!r}")
        rows.append(ResultRow(policy=parts[0], sweep_var=parts[1],
                              sweep_value=_parse_number(parts[2]),
                              metric=parts[3], mean=float(parts[4]),
                              reps=int(parts[5])))
    return rows
