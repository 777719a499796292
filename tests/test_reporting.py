import json

import pytest

from sfcsched.cli import main as cli_main
from sfcsched.engine import run
from sfcsched.errors import ParseError, ValidationError
from sfcsched.metrics import METRIC_NAMES
from sfcsched.reporting import (SEED_ENV_VAR, SweepSpec, emit_results,
                                load_results, parse_scenario, parse_sweep,
                                render_results, run_sweep)
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


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ParseError):
        parse_scenario(str(path))


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


def test_env_seed_override(tmp_path, monkeypatch):
    path = write_scenario(tmp_path, {"workload": {"rng_seed": 10}})
    assert parse_scenario(path).rng_seed == 10
    monkeypatch.setenv(SEED_ENV_VAR, "99")
    assert parse_scenario(path).rng_seed == 99
    monkeypatch.setenv(SEED_ENV_VAR, "not-a-number")
    with pytest.raises(ValidationError):
        parse_scenario(path)


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


def test_sweep_means_equal_individual_runs():
    sc = Scenario(rng_seed=31)
    sweep = tiny_sweep(points=(3,), reps=3)
    rows = run_sweep(sc, sweep)
    per_seed = [run(sc.with_overrides(policy="fws", request_count=3,
                                      arrival_window_s=sweep.demand_window_s,
                                      rng_seed=31 + k))
                for k in range(3)]
    for metric in METRIC_NAMES:
        expected = sum(r.metric(metric) for r in per_seed) / 3
        row = next(r for r in rows if r.metric == metric)
        assert row.mean == pytest.approx(expected, rel=1e-12)
        assert row.reps == 3


def test_sweep_spec_validation():
    with pytest.raises(ValidationError):
        SweepSpec(demand_points=(5, 5)).validate()
    with pytest.raises(ValidationError):
        SweepSpec(load_points=(0.5, 0.4)).validate()
    with pytest.raises(ValidationError):
        SweepSpec(load_points=(0.5, 1.0)).validate()
    with pytest.raises(ValidationError):
        SweepSpec(policies=("fws", "random")).validate()
    with pytest.raises(ValidationError):
        SweepSpec(repetitions=0).validate()


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
    ]
    for idx, (topology, field) in enumerate(bad_topologies):
        path = write_scenario(tmp_path, {"topology": topology}, f"topo{idx}.json")
        for command in ("validate", "run"):
            assert cli_main([command, "--scenario", path]) == 2, (topology, command)
            err = capsys.readouterr().err
            assert field in err and "Traceback" not in err, (topology, command)


def test_cli_sweep_stdout(tmp_path, capsys):
    scenario = write_scenario(
        tmp_path,
        {"sweep": {"demand_points": [2], "policies": ["fws"],
                   "repetitions": 1, "demand_window_s": 0.05}})
    code = cli_main(["sweep", "--scenario", scenario, "--format", "structured"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 4
