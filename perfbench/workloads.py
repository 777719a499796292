"""The benchmark's three workloads, built only from sfcsched's public API.

A workload turns the benchmark seed into cells (one cell is one simulated
run under one policy), executes them in the timed section and hands the
finished cells to the correctness gate.  See README.md for why each
workload exists.
"""

import hashlib
import json
from dataclasses import dataclass
from time import perf_counter

POLICIES = ("fws", "lfff", "mfff", "lfdt", "mfdt")


def host_time(fn):
    """Host seconds that fn() takes."""
    start = perf_counter()
    fn()
    return perf_counter() - start


@dataclass
class Cell:
    policy: str
    seed: int          # the scenario's rng_seed
    point: int = None  # sweep cells: the demand point
    sim: object = None
    report: object = None
    error: str = None  # set when the cell raised


def schedule_digest(sim):
    """sha256 over the sorted (instance, service, machine, start, finish) rows."""
    rows = sorted((p.instance_id, p.service_id, p.machine_id, p.start_ms, p.finish_ms)
                  for p in sim.placements)
    text = "\n".join(f"{i},{s},{m},{a!r},{b!r}" for i, s, m, a, b in rows)
    return hashlib.sha256(text.encode()).hexdigest()


def cell_record(cell):
    """What the gate compares for one finished cell: digest and report."""
    sim, report = cell.sim, cell.report
    return {"policy": cell.policy, "seed": cell.seed,
            "digest": schedule_digest(sim),
            "traffic_kb": report.total_traffic_kb,
            "turnaround_ms": report.avg_turnaround_ms,
            "satisfied_pct": report.satisfied_pct,
            "cost_per_hour": report.total_cost_per_hour,
            "arrived": sim.arrived, "completed": sim.completed,
            "dropped": sim.dropped}


def event_count(sim):
    """Events the finished run processed: arrivals, starts, finishes and
    transfers between machines on different nodes."""
    placed = {(p.instance_id, p.service_id): p for p in sim.placements}
    transfers = 0
    for p in sim.placements:
        node = sim.machines[p.machine_id].node_id
        for pred in p.transfers_in:
            pred_machine = placed[(p.instance_id, pred)].machine_id
            if sim.machines[pred_machine].node_id != node:
                transfers += 1
    return sim.arrived + 2 * len(sim.placements) + transfers


class SimWorkload:
    """Cells built as SimulationRun objects in set-up, executed when timed.

    Every cell shares one set of service definitions, drawn from scenario
    seed ``services_seed``: the deployed services are part of the workload,
    and the benchmark seed draws the request streams alone.  Drawn per seed,
    the services move traffic and turnaround by a fifth from seed to seed,
    and past saturation they move the run time several-fold."""

    services_seed = 7

    def cell_count(self):
        return len(self.policies)

    def scenarios(self, sf, seed):
        """(policy, scenario) per cell, in order."""
        raise NotImplementedError

    def build(self, sf, seed, workdir):
        defs = sf.scenario.sample_service_defs(
            sf.scenario.Scenario(rng_seed=self.services_seed))
        cells = []
        for policy, scenario in self.scenarios(sf, seed):
            cell = Cell(policy, scenario.rng_seed)
            cell.sim = sf.engine.SimulationRun(scenario, service_defs=defs)
            cells.append(cell)
        return cells

    def execute(self, sf, cells, timed=host_time):
        """Run every cell; returns each cell's time as ``timed`` measures
        it (host seconds by default)."""
        def run(cell):
            try:
                cell.report = cell.sim.execute()
            except Exception as exc:  # one cell's failure must not stop the rest
                cell.error = f"{type(exc).__name__}: {exc}"
        return [timed(lambda: run(cell)) for cell in cells]


class Nominal(SimWorkload):
    """All five policies, one long run each at the paper's top demand point:
    5000 requests over a 30 s window (about 167 rps), below saturation."""

    name = "nominal"
    policies = POLICIES
    requests = 5000
    window_s = 30.0

    def scenarios(self, sf, seed):
        return [(policy, sf.scenario.Scenario(
                    policy=policy, request_count=self.requests,
                    arrival_window_s=self.window_s, rng_seed=seed))
                for policy in self.policies]


class Overload(SimWorkload):
    """fws and lfff on short bursts far past saturation (all 192 VM slots
    fill near 500 rps).  Each cell gets its own arrival stream, scenario
    seed ``100 * seed + k``, so the bursts average out each other's cost:
    past the knee one burst's cost swings by about 15% with its stream."""

    name = "overload"
    policies = ("fws", "lfff") * 5
    requests = 200
    rate_rps = 2000.0

    def scenarios(self, sf, seed):
        return [(policy, sf.scenario.Scenario(
                    policy=policy, request_count=self.requests,
                    arrival_rate_rps=self.rate_rps, rng_seed=100 * seed + k))
                for k, policy in enumerate(self.policies)]


@dataclass
class SweepRun:
    scenario: object   # path of the generated scenario file
    csv: object        # path the CLI writes its CSV to
    status: int = None
    error: str = None


class Sweep:
    """``sfcsched sweep`` run in-process on a generated scenario file: five
    policies x two demand points below saturation x 32 repetitions.  The
    CLI draws services per repetition seed, and one draw moves a cell's
    traffic and run time by tens of percent, so the many repetitions are
    what keep both steady across seeds.  The short 20-request cells carry
    the per-cell fixed cost; the 160-request cells most of the traffic.

    Repetition k runs scenario seed ``base + k``; the base is spaced out
    (``1000 * seed``) so that no two benchmark seeds share a cell."""

    name = "sweep"
    demand_points = (20, 160)
    repetitions = 32
    window_s = 30.0

    def base_seed(self, seed):
        return 1000 * seed

    def scenario_dict(self, seed):
        return {"workload": {"rng_seed": self.base_seed(seed), "policy": "fws"},
                "sweep": {"demand_points": list(self.demand_points),
                          "policies": list(POLICIES),
                          "repetitions": self.repetitions,
                          "demand_window_s": self.window_s}}

    def cell_count(self):
        return len(POLICIES) * len(self.demand_points) * self.repetitions

    def build(self, sf, seed, workdir):
        path = workdir / f"sweep-seed{seed}.json"
        path.write_text(json.dumps(self.scenario_dict(seed), indent=2) + "\n")
        csv = workdir / f"sweep-seed{seed}.csv"
        csv.unlink(missing_ok=True)
        return SweepRun(path, csv)

    def execute(self, sf, run, timed=host_time):
        """Run the CLI sweep; returns its time, as ``timed`` measures it,
        as a one-item list."""
        def call():
            try:
                run.status = sf.cli.main(["sweep", "--scenario", str(run.scenario),
                                          "--var", "demand", "--out", str(run.csv)])
            except Exception as exc:  # reported by the gate as failed cells
                run.error = f"{type(exc).__name__}: {exc}"
        return [timed(call)]

    def rerun_cells(self, sf, scenario_path):
        """The sweep's cells run one by one, outside the timed section, in
        the order and with the seeds run_sweep uses, so the gate can check
        each finished schedule."""
        scenario = sf.reporting.parse_scenario(str(scenario_path))
        spec = sf.reporting.parse_sweep(str(scenario_path))
        for policy in spec.policies:
            for point in spec.demand_points:
                base = scenario.with_overrides(policy=policy, request_count=int(point),
                                               arrival_window_s=spec.demand_window_s)
                for k in range(spec.repetitions):
                    cell = Cell(policy, scenario.rng_seed + k, point)
                    cell.sim = sf.engine.SimulationRun(
                        base.with_overrides(rng_seed=scenario.rng_seed + k))
                    try:
                        cell.report = cell.sim.execute()
                    except Exception as exc:  # reported by the gate
                        cell.error = f"{type(exc).__name__}: {exc}"
                    yield cell


WORKLOADS = {w.name: w for w in (Nominal(), Overload(), Sweep())}
