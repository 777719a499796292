import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcsched import infrastructure, metrics, reporting
from sfcsched.cli import main as cli_main
from sfcsched.engine import run
from sfcsched.errors import ParseError, ValidationError, section_keys
from sfcsched.fws import WeightParams
from sfcsched.infrastructure import TopologySpec
from sfcsched.metrics import METRIC_NAMES
from sfcsched.reporting import (_CATALOG_KEYS, _CHAIN_KEYS, _FWS_KEYS, _SWEEP_KEYS,
                                _TOPOLOGY_KEYS, _WORKLOAD_KEYS, SweepSpec,
                                emit_results, load_results, parse_scenario,
                                parse_sweep, render_results, report_rows,
                                run_sweep, scenario_from_dict, sweep_from_dict)
from sfcsched.scenario import Scenario


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_minimal_file_gets_defaults(tmp_path):
    path = write_scenario(tmp_path, {"workload": {"policy": "lfff"}})
    sc = parse_scenario(path)
    assert sc.policy == "lfff"
    assert sc.request_count == Scenario().request_count
    assert len(sc.chains) == 4 and len(sc.catalog) == 4


def test_out_of_range_field_names_path(tmp_path):
    path = write_scenario(tmp_path,
                          {"workload": {"background_load_fraction": 1.2}})
    with pytest.raises(ValidationError) as err:
        parse_scenario(path)
    assert "background_load_fraction" in str(err.value)


def test_unknown_keys_rejected(tmp_path):
    path = write_scenario(tmp_path, {"workload": {"burst_factor": 2}})
    with pytest.raises(ValidationError) as err:
        parse_scenario(path)
    assert "workload.burst_factor" in str(err.value)
    path = write_scenario(tmp_path, {"unknown_section": {}}, name="s2.json")
    with pytest.raises(ValidationError):
        parse_scenario(path)


def test_malformed_json_is_parse_error(tmp_path, capsys):
    contents = {"bad.json": b"{nope",
                "latin1.json": b'{"workload": {"policy": "f\xffws"}}',
                "deep.json": b"[" * 100_000}
    for name, data in contents.items():
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(ParseError):
            parse_scenario(str(path))
        assert cli_main(["validate", "--scenario", str(path)]) == 2, name
        err = capsys.readouterr().err
        assert "not valid JSON" in err and "Traceback" not in err, name


def test_catalog_override(tmp_path):
    payload = {"catalog": [
        {"name": "a", "memory_gb": 2.0, "cores": 1,
         "max_bandwidth_mbps": 25.0, "hourly_cost": 0.05},
        {"name": "b", "memory_gb": 8.0, "cores": 4,
         "max_bandwidth_mbps": 50.0, "hourly_cost": 0.2},
    ]}
    sc = parse_scenario(write_scenario(tmp_path, payload))
    assert [t.name for t in sc.catalog] == ["a", "b"]


def test_chain_override_round_trip(tmp_path):
    payload = {"chains": [
        {"chain_id": 1, "nodes": [1, 2, 3], "edges": [[1, 2], [2, 3]]},
    ]}
    sc = parse_scenario(write_scenario(tmp_path, payload))
    assert len(sc.chains) == 1
    assert sc.chains[0].edges == {(1, 2), (2, 3)}


def test_file_seed_and_cli_seed_override(tmp_path, capsys):
    path = write_scenario(tmp_path, {"workload": {"rng_seed": 10,
                                                  "request_count": 20}})
    scenario = parse_scenario(path)
    assert scenario.rng_seed == 10

    def rows_text(sc):
        return render_results(report_rows([run(sc)], "demand", sc.request_count))

    assert cli_main(["run", "--scenario", path, "--seed", "99"]) == 0
    out = capsys.readouterr().out
    assert out == rows_text(scenario.with_overrides(rng_seed=99))
    assert out != rows_text(scenario)


def tiny_sweep(policies=("fws",), points=(2,), reps=1):
    return SweepSpec(demand_points=points, policies=policies,
                     repetitions=reps, demand_window_s=0.05)


def test_sweep_row_cardinality_single():
    rows = run_sweep(Scenario(), tiny_sweep())
    assert len(rows) == 4
    assert sorted(r.metric for r in rows) == sorted(METRIC_NAMES)


def test_sweep_row_cardinality_full_grid():
    rows = run_sweep(Scenario(),
                     tiny_sweep(policies=("fws", "lfff", "mfff", "lfdt", "mfdt"),
                                points=(1, 2, 3, 4, 5, 6, 7)))
    assert len(rows) == 5 * 7 * 4


@pytest.mark.parametrize("var", ["demand", "load"])
def test_sweep_means_equal_individual_runs(var):
    sc = Scenario(rng_seed=31)
    sweep = SweepSpec(demand_points=(3,), load_points=(0.3,), policies=("fws",),
                      repetitions=3, demand_window_s=0.05, load_demand_count=4)
    rows = run_sweep(sc, sweep, var=var)
    point = {"demand": {"request_count": 3},
             "load": {"background_load_fraction": 0.3,
                      "request_count": sweep.load_demand_count}}[var]
    per_seed = [run(sc.with_overrides(policy="fws", rng_seed=31 + k,
                                      arrival_window_s=sweep.demand_window_s, **point))
                for k in range(3)]
    for metric in METRIC_NAMES:
        total = 0  # left to right, as `report_rows` adds
        for r in per_seed:
            total += r.metric(metric)
        row = next(r for r in rows if r.metric == metric)
        assert row.mean == total / 3
        assert row.reps == 3 and row.sweep_var == var


def sweep_by_policy_point_repetition(scenario, sweep, var):
    """The sweep's rows as a policy -> point -> repetition loop makes them:
    the oracle for `run_sweep`, which runs the cells in another order."""
    point_fields = {"demand": lambda p: {"request_count": int(p)},
                    "load": lambda p: {"background_load_fraction": float(p),
                                       "request_count": sweep.load_demand_count}}
    rows = []
    for policy in sweep.policies:
        for point in getattr(sweep, f"{var}_points"):
            base = scenario.with_overrides(policy=policy,
                                           arrival_window_s=sweep.demand_window_s,
                                           **point_fields[var](point))
            reports = [run(base.with_overrides(rng_seed=scenario.rng_seed + k))
                       for k in range(sweep.repetitions)]
            rows += report_rows(reports, var, point)
    return rows


@pytest.mark.parametrize("var", ["demand", "load"])
def test_sweep_rows_equal_the_policy_point_repetition_loop_in_order(var, monkeypatch):
    # a policy listed twice gets its rows twice, as in the loop
    sc = Scenario(rng_seed=5)
    sweep = SweepSpec(demand_points=(2, 4), load_points=(0.2, 0.5),
                      policies=("mfdt", "fws", "lfff", "fws"), repetitions=3,
                      demand_window_s=0.05, load_demand_count=4)
    expected = sweep_by_policy_point_repetition(sc, sweep, var)
    cells = []
    monkeypatch.setattr(reporting, "run",
                        lambda scenario: cells.append(scenario) or run(scenario))
    rows = run_sweep(sc, sweep, var=var)
    assert rows == expected
    assert len(rows) == 4 * 2 * len(METRIC_NAMES)
    assert len(cells) == 4 * 2 * 3


def test_totals_are_added_left_to_right_not_by_sum(monkeypatch):
    # sum() rounds floats differently since Python 3.12; the run's metrics,
    # the sweep means and the provisioning node choice must not change with it
    def raiser(*args):
        raise AssertionError("sum() called")

    for module in (metrics, reporting, infrastructure):
        monkeypatch.setattr(module, "sum", raiser, raising=False)
    reports = [run(Scenario(request_count=5, rng_seed=seed)) for seed in (1, 2, 3)]
    assert len(report_rows(reports, "demand", 5)) == len(METRIC_NAMES)
    topology = infrastructure.default_topology()
    choice = infrastructure.provision_choice(1.0, 1, [0, 5], topology,
                                             infrastructure.default_catalog())
    assert choice[0] == "provision"


def test_unknown_sweep_variable_fails_before_any_cell(monkeypatch):
    def no_cell(scenario):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr(reporting, "run", no_cell)
    with pytest.raises(ValidationError) as err:
        run_sweep(Scenario(), tiny_sweep(), var="bogus")
    assert err.value.field == "sweep.var"


def test_sweep_spec_validation():
    with pytest.raises(ValidationError):
        SweepSpec(demand_points=(5, 5)).validate(Scenario())
    with pytest.raises(ValidationError):
        SweepSpec(load_points=(0.5, 0.4)).validate(Scenario())
    with pytest.raises(ValidationError):
        SweepSpec(load_points=(0.5, 1.0)).validate(Scenario())
    with pytest.raises(ValidationError):
        SweepSpec(policies=("fws", "random")).validate(Scenario())
    with pytest.raises(ValidationError):
        SweepSpec(repetitions=0).validate(Scenario())
    # too long for the clock: rejected before any cell runs
    with pytest.raises(ValidationError, match="sweep.demand_window_s"):
        run_sweep(Scenario(), SweepSpec(demand_window_s=1e308))


def test_render_single_row():
    rows = run_sweep(Scenario(), tiny_sweep())
    text = render_results(rows[:1])
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0] == "policy,sweep_var,sweep_value,metric,mean,reps"


def test_render_deterministic_and_round_trips(tmp_path):
    rows = run_sweep(Scenario(), tiny_sweep(policies=("fws", "mfdt"),
                                            points=(2, 4)))
    a = render_results(rows)
    b = render_results(list(reversed(rows)))
    assert a == b  # emission order fixed by the sort contract
    emit_results(rows, tmp_path / "out.csv")
    emit_results(rows, tmp_path / "out2.csv")
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "out2.csv").read_bytes()
    parsed = load_results(a)
    assert parsed == sorted(rows, key=lambda r: (r.policy, r.sweep_value, r.metric))


def test_structured_output_has_identical_content():
    rows = run_sweep(Scenario(), tiny_sweep())
    payload = json.loads(render_results(rows, "structured"))
    assert len(payload["rows"]) == len(rows)
    csv_rows = load_results(render_results(rows, "csv"))
    for obj, row in zip(payload["rows"], csv_rows):
        assert obj["policy"] == row.policy
        assert obj["mean"] == row.mean


def test_sweep_section_parses(tmp_path):
    path = write_scenario(tmp_path, {"sweep": {"demand_points": [10, 20],
                                               "policies": ["fws", "lfff"],
                                               "repetitions": 2}})
    spec = parse_sweep(path)
    assert spec.demand_points == (10, 20)
    assert spec.policies == ("fws", "lfff")
    assert spec.repetitions == 2


def test_cli_run_writes_csv(tmp_path, capsys):
    scenario = write_scenario(tmp_path, {"workload": {"request_count": 5}})
    out = tmp_path / "res.csv"
    code = cli_main(["run", "--scenario", scenario, "--policy", "mfff",
                     "--seed", "3", "--out", str(out)])
    assert code == 0
    rows = load_results(out.read_text())
    assert {r.policy for r in rows} == {"mfff"}
    assert len(rows) == 4


GOOD_VM = {"name": "a", "memory_gb": 2.0, "cores": 1,
           "max_bandwidth_mbps": 25.0, "hourly_cost": 0.05}


def test_cli_run_prints_the_one_report_sweep_rows(tmp_path, capsys):
    # with the sweep's window and count and one repetition, `run` and `sweep`
    # run the same cell; a run that provisions no machine costs 0.0 in both
    for count in (0, 5):
        path = write_scenario(tmp_path, {
            "workload": {"request_count": count, "arrival_window_s": 0.05},
            "sweep": {"demand_points": [count], "policies": ["fws"],
                      "repetitions": 1, "demand_window_s": 0.05}}, f"one{count}.json")
        outputs = []
        for command in ("run", "sweep"):
            assert cli_main([command, "--scenario", path]) == 0, command
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1], count


def test_python_m_cli_exits_with_mains_status(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    bad = write_scenario(tmp_path, {"workload": {"policy": "bogus"}}, "bad.json")
    for path, code in ((str(root / "demos" / "example_scenario.json"), 0), (bad, 2)):
        result = subprocess.run(
            [sys.executable, "-m", "sfcsched.cli", "validate", "--scenario", path],
            env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == code, result.stderr


def test_cli_validate_exit_codes(tmp_path, capsys):
    good = write_scenario(tmp_path, {"workload": {"request_count": 1}})
    assert cli_main(["validate", "--scenario", good]) == 0
    bad = write_scenario(tmp_path, {"workload": {"policy": "bogus"}}, "bad.json")
    assert cli_main(["validate", "--scenario", bad]) == 2
    zero = write_scenario(tmp_path, {"fws": {"alpha_dep": 0, "beta_wait": 0}},
                          "zero.json")
    assert cli_main(["validate", "--scenario", zero]) == 2
    assert "fws:" in capsys.readouterr().err
    bad_topologies = [
        ({"micro_count": 1, "core_count": 2}, "topology.micro_count"),
        ({"core_count": 0}, "topology.core_count"),
        ({"micro_count": 0}, "topology.micro_count"),
        ({"core_count": "abc"}, "topology.core_count"),
        ({"micro_slots": 0}, "topology.micro_slots"),
        ({"core_slots": -1}, "topology.core_slots"),
        ({"micro_link_mu_pps": 0}, "topology.micro_link_mu_pps"),
        ({"core_link_mu_pps": -5.0}, "topology.core_link_mu_pps"),
        ({"packet_kb": 0}, "topology.packet_kb"),
        ({"rho_max": 1.5}, "topology.rho_max"),
        ({"rho_max": 0}, "topology.rho_max"),
        ({"micro_link_mu_pps": 5e-324}, "topology.micro_link_mu_pps"),
        ({"core_link_mu_pps": float("inf")}, "topology.core_link_mu_pps"),
        ({"micro_count": 496, "core_count": 5}, "topology.micro_count"),
        ({"micro_count": 10**30}, "topology.micro_count"),
    ]
    cases = [({"topology": topology}, field, ("validate", "run"))
             for topology, field in bad_topologies]
    cases += [({"workload": workload}, field, ("validate", "run"))
              for workload, field in [
                  ({"request_count": "abc"}, "workload.request_count"),
                  ({"arrival_rate_rps": None}, "workload.arrival_rate_rps"),
                  ({"sla_delay_range_ms": 7}, "workload.sla_delay_range_ms"),
                  ({"service_cores_choices": 2}, "workload.service_cores_choices"),
                  ({"rng_seed": "x"}, "workload.rng_seed"),
                  ({"arrival_rate_rps": 10**400}, "workload.arrival_rate_rps"),
                  ({"exec_time_range_ms": [1, float("inf")]},
                   "workload.exec_time_range_ms"),
                  ({"capacity_range_rps": [20, 100]},
                   "workload.capacity_range_rps"),
                  ({"request_count": 10**30}, "workload.request_count"),
                  ({"request_count": 10_000_001}, "workload.request_count"),
                  # horizons too long for the float clock to resolve an exec time
                  ({"arrival_rate_rps": 2.8e-70, "request_count": 5},
                   "workload.arrival_rate_rps"),
                  ({"arrival_window_s": 1e308}, "workload.arrival_window_s")]]
    cases += [({"chains": [chain]}, field, ("validate", "run"))
              for chain, field in [
                  ({"chain_id": 1, "nodes": 5}, "chains[0].nodes"),
                  ({"chain_id": 1, "nodes": [1], "edges": [[1]]}, "chains[0].edges"),
                  ({"chain_id": 1, "nodes": [1, 2], "edges": [[1, 2], [2, 1]]},
                   "chains[0].edges"),
                  ({"chain_id": 1, "nodes": [1], "edges": [[1, 2]]}, "chains[0].edges"),
                  (5, "chains[0]")]]
    cases += [({"catalog": [dict(GOOD_VM, **vm)]}, field, ("validate", "run"))
              for vm, field in [
                  ({"memory_gb": 0}, "catalog[0].memory_gb"),
                  ({"cores": 0}, "catalog[0].cores"),
                  ({"hourly_cost": -1}, "catalog[0].hourly_cost")]]
    # both list sections name the first required key an entry lacks
    cases += [({section: [entry]}, f"{section}[0]: missing {key!r}",
               ("validate", "run"))
              for section, entry, key in [
                  ("catalog", {k: v for k, v in GOOD_VM.items() if k != "hourly_cost"},
                   "hourly_cost"),
                  ("chains", {"chain_id": 1}, "nodes"),
                  ("chains", {"nodes": [1]}, "chain_id")]]
    # a null section is rejected like any other non-list
    cases += [({"catalog": None}, "catalog", ("validate", "run")),
              ({"chains": None}, "chains", ("validate", "run"))]
    cases += [({"fws": fws}, field, ("validate", "run"))
              for fws, field in [
                  ({"alpha_dep": True, "beta_wait": False}, "fws.alpha_dep"),
                  ({"alpha_dep": "x"}, "fws.alpha_dep"),
                  ({"beta_wait": -1}, "fws.beta_wait"),
                  ({"beta_wait": 10**400}, "fws.beta_wait"),
                  ({"dependents": 3}, "fws.dependents"),
                  ({"resume_latency_ms": None}, "fws.resume_latency_ms")]]
    # `run` checks the sweep section too, so a file `validate` rejects never runs
    cases += [({"sweep": sweep}, field, ("validate", "run", "sweep"))
              for sweep, field in [
                  ({"repetitions": "a"}, "sweep.repetitions"),
                  ({"demand_points": 5}, "sweep.demand_points"),
                  ({"policies": []}, "sweep.policies"),
                  ({"repetitions": 10_001}, "sweep.repetitions"),
                  ({"load_demand_count": 10**30}, "sweep.load_demand_count"),
                  ({"demand_points": [1, 10_000_001]}, "sweep.demand_points"),
                  # a horizon too long for the clock, at every sweep point
                  ({"demand_window_s": 1e308, "demand_points": [2],
                    "policies": ["fws"], "repetitions": 1}, "sweep.demand_window_s")]]
    cases.append(({"workload": {"request_count": 1}, "sweep": {"repetitions": 0}},
                  "sweep.repetitions", ("validate", "run", "sweep")))
    for idx, (payload, field, commands) in enumerate(cases):
        path = write_scenario(tmp_path, payload, f"bad{idx}.json")
        for command in commands:
            assert cli_main([command, "--scenario", path]) == 2, (payload, command)
            err = capsys.readouterr().err
            assert field in err and "Traceback" not in err, (payload, command)


GOOD_CHAIN = {"chain_id": 1, "nodes": [1, 2], "edges": [[1, 2]]}
KEY_TABLES = {"topology": _TOPOLOGY_KEYS, "workload": _WORKLOAD_KEYS,
              "fws": _FWS_KEYS, "sweep": _SWEEP_KEYS, "catalog": _CATALOG_KEYS,
              "chains": _CHAIN_KEYS}
# One rejected value for every key of every section.  A key added to a
# section without an entry here fails its test below.
REJECTED = {
    "topology": {"micro_count": 0, "core_count": "abc", "micro_slots": 0,
                 "core_slots": 1.5, "micro_link_mu_pps": 5e-324,
                 "core_link_mu_pps": -5.0, "rho_max": 1.0, "packet_kb": 0},
    "workload": {"request_count": -1, "arrival_rate_rps": None,
                 "arrival_window_s": 0, "sla_delay_range_ms": 7,
                 "sla_cost_range": [2, 1], "background_load_fraction": 1.0,
                 "rng_seed": "x", "policy": "bogus", "exec_time_range_ms": [0, 1],
                 "data_out_range_kb": [1], "service_memory_range_gb": "a",
                 "service_cores_choices": [0], "provision_latency_ms": -1},
    "fws": {"alpha_dep": -1, "beta_wait": "x", "dependents": 3,
            "resume_latency_ms": None},
    "sweep": {"demand_points": [2, 1], "load_points": [0.5, 1.0],
              "policies": ["fws", "random"], "repetitions": 0,
              "demand_window_s": 0, "load_demand_count": 0},
    "catalog": {"name": 5, "memory_gb": 0, "cores": 0, "max_bandwidth_mbps": 0,
                "hourly_cost": -1},
    "chains": {"chain_id": "x", "nodes": 5, "edges": [[1]]},
}


@pytest.mark.parametrize("section,key", [(section, key)
                                         for section, keys in KEY_TABLES.items()
                                         for key in keys])
def test_every_key_rejects_a_bad_value_at_its_path(tmp_path, capsys, section, key):
    assert key in REJECTED[section], f"no rejected value for {section}.{key}"
    value = REJECTED[section][key]
    if section in ("catalog", "chains"):
        good = GOOD_VM if section == "catalog" else GOOD_CHAIN
        payload, path = {section: [dict(good, **{key: value})]}, f"{section}[0].{key}"
    else:
        payload, path = {section: {key: value}}, f"{section}.{key}"
    scenario = write_scenario(tmp_path, payload)
    for command in ("validate", "run"):
        assert cli_main([command, "--scenario", scenario]) == 2, command
        err = capsys.readouterr().err
        assert path in err and "Traceback" not in err, (command, err)


def test_readme_example_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("```json\n", readme.index("## Scenario files")) + 8
    raw = json.loads(readme[start:readme.index("```", start)])
    scenario = scenario_from_dict(raw)
    assert set(raw) == set(KEY_TABLES)
    for name, keys in KEY_TABLES.items():
        for body in (raw[name] if name in ("catalog", "chains") else [raw[name]]):
            assert sorted(body) == sorted(keys), name
    # the README says these sections hold the defaults
    assert scenario.topology_spec == TopologySpec()
    assert scenario.weights == WeightParams()
    assert sweep_from_dict(raw, scenario) == SweepSpec()
    for key in _WORKLOAD_KEYS + section_keys(Scenario, "fws"):
        assert getattr(scenario, key) == getattr(Scenario(), key), key


def test_cli_empty_scenario_path_is_unreadable(capsys):
    # an empty path names no file; it must not fall back to the defaults
    for command in ("validate", "run", "sweep"):
        assert cli_main([command, "--scenario", ""]) == 1, command
        captured = capsys.readouterr()
        assert "cannot read scenario file" in captured.err, command
        assert "Traceback" not in captured.err and not captured.out, command


def test_load_results_rejects_malformed_rows():
    header = "policy,sweep_var,sweep_value,metric,mean,reps"
    good = "fws,demand,100,traffic_kb,1.5,5"
    assert load_results(f"{header}\n{good}\n")[0].sweep_value == 100
    bad_rows = ("fws,demand,abc,traffic_kb,1.5,5",
                "fws,demand,1e400,traffic_kb,1.5,5",
                "fws,demand,nan,traffic_kb,1.5,5",
                "fws,demand,100,traffic_kb,x,5",
                "fws,demand,100,traffic_kb,1.5,x",
                "fws,demand,100,traffic_kb,1.5")
    for row in bad_rows:
        with pytest.raises(ParseError) as err:
            load_results(f"{header}\n{good}\n{row}\n")
        assert row in str(err.value)
    with pytest.raises(ParseError):
        load_results(good + "\n")


def test_cli_reads_scenario_file_once(capsys):
    # a pipe can be read only once
    payload = json.dumps({"sweep": {"demand_points": [2], "policies": ["fws"],
                                    "repetitions": 1, "demand_window_s": 0.05}})
    for command in ("validate", "sweep"):
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "w") as fh:
            fh.write(payload)
        try:
            assert cli_main([command, "--scenario", f"/dev/fd/{read_fd}"]) == 0, \
                capsys.readouterr().err
        finally:
            os.close(read_fd)


def test_cli_sweep_stdout(tmp_path, capsys):
    scenario = write_scenario(
        tmp_path,
        {"sweep": {"demand_points": [2], "load_points": [0.2, 0.5],
                   "load_demand_count": 2, "policies": ["fws"],
                   "repetitions": 1, "demand_window_s": 0.05}})
    code = cli_main(["sweep", "--scenario", scenario, "--format", "structured"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 4
    code = cli_main(["sweep", "--scenario", scenario, "--var", "load",
                     "--format", "structured"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert {r["sweep_var"] for r in rows} == {"load"}
    groups = {p: [r["metric"] for r in rows if r["sweep_value"] == p]
              for p in (0.2, 0.5)}
    assert all(sorted(g) == sorted(METRIC_NAMES) for g in groups.values())
    assert len(rows) == 8


def test_cli_sweep_policy_narrows_the_file_policies(tmp_path, capsys):
    sweep = {"demand_points": [2], "repetitions": 1, "demand_window_s": 0.05}
    outputs = []
    for policies, argv in ((["fws", "lfff", "mfdt"], ["--policy", "lfff"]),
                           (["lfff"], [])):
        path = write_scenario(tmp_path, {"sweep": {**sweep, "policies": policies}},
                              f"{len(policies)}.json")
        assert cli_main(["sweep", "--scenario", path, *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert {r.policy for r in load_results(outputs[0])} == {"lfff"}
    assert outputs[0] == outputs[1]


def test_render_rejects_no_rows_and_an_unknown_format():
    with pytest.raises(ValidationError, match="nothing to emit"):
        render_results([])
    rows = run_sweep(Scenario(), tiny_sweep())
    with pytest.raises(ValidationError, match="unknown output format 'xml'"):
        render_results(rows, "xml")


def test_cli_run_into_a_directory_exits_1(tmp_path, capsys):
    path = write_scenario(tmp_path, {"workload": {"request_count": 5}})
    assert cli_main(["run", "--scenario", path, "--out", str(tmp_path)]) == 1
    assert "cannot write results" in capsys.readouterr().err


# Any JSON value; small numbers and short lists of them are drawn often, so
# many examples get past the first checks to the later ones.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.integers()
    | st.floats(-1.0, 2.0) | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4) | st.sampled_from(("fws", "lfff", "transitive")),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6)


def section(keys):
    return st.dictionaries(st.sampled_from(keys), json_values) | json_values


def entries(keys):
    return st.lists(section(keys), max_size=3) | json_values


SECTIONS = {"topology": section(_TOPOLOGY_KEYS), "workload": section(_WORKLOAD_KEYS),
            "fws": section(_FWS_KEYS), "sweep": section(_SWEEP_KEYS),
            "catalog": entries(_CATALOG_KEYS), "chains": entries(_CHAIN_KEYS)}


# one section alone reaches its own checks; several test their order
SCENARIO_DICTS = st.one_of(*[st.fixed_dictionaries({name: body})
                             for name, body in SECTIONS.items()],
                           st.fixed_dictionaries({}, optional=SECTIONS))


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(raw=SCENARIO_DICTS)
def test_scenario_fuzz_fails_only_with_scenario_errors(raw):
    for parse in (scenario_from_dict, lambda raw: sweep_from_dict(raw, Scenario())):
        try:
            parse(raw)
        except (ParseError, ValidationError):
            pass


# `validate` builds no topology and draws no workload, so the huge counts
# it may accept cost nothing
@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(raw=SCENARIO_DICTS | json_values)
def test_cli_validate_fuzz_exits_0_or_2(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(raw))
    assert cli_main(["validate", "--scenario", str(path)]) in (0, 2)


# Few SCENARIO_DICTS examples pass validation, and `run` only reaches the
# engine with those that do.  These sections are objects holding values the
# checks often accept: positive numbers of every magnitude, infinity too,
# ordered pairs of them and names.  Integers stay at most 30, so counts keep
# every run short.
positive = (st.integers(1, 30) | st.floats(0.01, 0.99)
            | st.floats(0.0, exclude_min=True))
run_values = (positive | st.lists(positive, min_size=2, max_size=2).map(sorted)
              | st.sampled_from(("fws", "mfdt", "immediate")))
RUN_DICTS = st.fixed_dictionaries({}, optional={
    name: st.dictionaries(st.sampled_from(keys), run_values, max_size=3)
    for name, keys in (("topology", _TOPOLOGY_KEYS), ("workload", _WORKLOAD_KEYS),
                       ("fws", _FWS_KEYS))})


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(raw=RUN_DICTS)
def test_cli_run_fuzz_exits_0_or_2(tmp_path_factory, raw):
    tmp = tmp_path_factory.mktemp("fuzz")
    path = tmp / "scenario.json"
    path.write_text(json.dumps(raw))
    assert cli_main(["run", "--scenario", str(path),
                     "--out", str(tmp / "out.csv")]) in (0, 2)


PINNED_SCENARIO = {
    "workload": {"request_count": 20, "rng_seed": 3},
    "sweep": {"demand_points": [2, 4], "load_points": [0.2, 0.5],
              "load_demand_count": 4, "policies": ["fws", "mfdt"],
              "repetitions": 2, "demand_window_s": 0.05}}
# sha256 of the stdout of each command on PINNED_SCENARIO: a change to the
# rows, their order, or the csv or JSON rendering of any value fails here.
PINNED_OUTPUT = {
    ("run", "--format", "csv"):
        "75eaa551cc8f4e110aecc676cb6bd8a2fbbdd10f339fa1c9b0411637793d8092",
    ("run", "--format", "structured"):
        "931c6216d196b57cd91731b26d63310b00011203c0dbe42a37f4c62c3270d9f1",
    ("sweep", "--format", "csv"):
        "f64ad825b185fc34454f9495bd6f109378b53db1ff5bc7d12c92798cde64a986",
    ("sweep", "--format", "structured"):
        "a35e411aac03886056979d879b325c7c8cacf955faa70ae0550dfcb4149c8135",
    ("sweep", "--var", "load", "--format", "csv"):
        "7c583868282441633df7e79d4e9e0658f8404571d31ea150bfff3cd7c77606fb",
    ("sweep", "--var", "load", "--format", "structured"):
        "6c0fcdf4b29e401cfbb05d92aff8880cc06f8192cf910cfcc3e2af0ab90829e5",
}


def test_cli_output_bytes_are_pinned(tmp_path, capsys):
    scenario = write_scenario(tmp_path, PINNED_SCENARIO)
    for args, digest in PINNED_OUTPUT.items():
        assert cli_main([*args, "--scenario", scenario]) == 0, args
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args
