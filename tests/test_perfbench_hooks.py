"""The benchmark's traced run wraps sfcsched callables by name, so a refactor
that renames or deletes one of them breaks it.  This loads the tracer as the
benchmark does and checks that its hooks still see the work of a run."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import sfcsched
from sfcsched import (chains, cli, engine, fws, greedy, infrastructure, metrics,
                      reporting, scenario)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_hooks_count_a_run_and_uninstall_cleanly():
    tracer_module = load_tracer_module()
    sf = SimpleNamespace(package=sfcsched, chains=chains, cli=cli, engine=engine,
                         fws=fws, greedy=greedy, infrastructure=infrastructure,
                         metrics=metrics, reporting=reporting, scenario=scenario)
    modules = [sfcsched, chains, cli, engine, fws, greedy, infrastructure, metrics,
               reporting, scenario]
    before = [dict(vars(m)) for m in modules]
    execute = engine.SimulationRun.execute
    buffer_service = infrastructure.Machine.buffer_service

    tracer = tracer_module.Tracer()
    tracer_module.install(tracer, sf)
    try:
        assert engine.SimulationRun.execute is not execute
        for policy in ("fws", "lfff"):
            engine.run(scenario.Scenario(policy=policy, request_count=20))
    finally:
        tracer.uninstall()

    counts = tracer.counts()
    assert counts["engine.execute.calls"] == 2
    # the engine reaches the builder through the name the tracer patches
    assert counts["infrastructure.default_topology.calls"] == 2
    assert counts["fws.select_machine_fws.calls"] > 0
    assert counts["greedy.greedy_select_machine.calls"] > 0
    assert counts["engine.select_calls"] == (counts["fws.select_machine_fws.calls"]
                                             + counts["greedy.greedy_select_machine.calls"])
    assert counts["chains.ready_services.calls"] > 0
    assert counts["metrics.check_sla.calls"] == 40
    # the ready queue is ordered by keys fixed at enqueue: no weight refresh
    assert counts["fws.compute_weight.calls"] == 0

    assert engine.SimulationRun.execute is execute
    assert infrastructure.Machine.buffer_service is buffer_service
    for module, namespace in zip(modules, before):
        assert dict(vars(module)) == namespace, module.__name__
