import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcsched.cli import main as cli_main
from sfcsched.engine import run
from sfcsched.errors import ParseError, ValidationError
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
        return render_results(report_rows(run(sc), "demand", sc.request_count))

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
        ({"micro_link_mu_pps": 5e-324}, "topology.micro_link_mu_pps"),
        ({"core_link_mu_pps": float("inf")}, "topology.core_link_mu_pps"),
        ({"micro_count": 496, "core_count": 5}, "topology.micro_count"),
        ({"micro_count": 10**30}, "topology.micro_count"),
    ]
    cases = [({"topology": topology}, field, ("validate", "run"))
             for topology, field in bad_topologies]
    good_vm = {"name": "a", "memory_gb": 2.0, "cores": 1,
               "max_bandwidth_mbps": 25.0, "hourly_cost": 0.05}
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
                  ({"request_count": 10_000_001}, "workload.request_count")]]
    cases += [({"chains": [chain]}, field, ("validate", "run"))
              for chain, field in [
                  ({"chain_id": 1, "nodes": 5}, "chains[0].nodes"),
                  ({"chain_id": 1, "nodes": [1], "edges": [[1]]}, "chains[0].edges"),
                  ({"chain_id": 1, "nodes": [1, 2], "edges": [[1, 2], [2, 1]]},
                   "chains[0].edges"),
                  (5, "chains[0]")]]
    cases += [({"catalog": [dict(good_vm, **vm)]}, field, ("validate", "run"))
              for vm, field in [
                  ({"memory_gb": 0}, "catalog[0].memory_gb"),
                  ({"cores": 0}, "catalog[0].cores"),
                  ({"hourly_cost": -1}, "catalog[0].hourly_cost")]]
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
                  ({"demand_points": [1, 10_000_001]}, "sweep.demand_points")]]
    cases.append(({"workload": {"request_count": 1}, "sweep": {"repetitions": 0}},
                  "sweep.repetitions", ("validate", "run", "sweep")))
    for idx, (payload, field, commands) in enumerate(cases):
        path = write_scenario(tmp_path, payload, f"bad{idx}.json")
        for command in commands:
            assert cli_main([command, "--scenario", path]) == 2, (payload, command)
            err = capsys.readouterr().err
            assert field in err and "Traceback" not in err, (payload, command)


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
        {"sweep": {"demand_points": [2], "policies": ["fws"],
                   "repetitions": 1, "demand_window_s": 0.05}})
    code = cli_main(["sweep", "--scenario", scenario, "--format", "structured"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 4


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
    for parse in (scenario_from_dict, sweep_from_dict):
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
