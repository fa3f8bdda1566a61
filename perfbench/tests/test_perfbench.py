"""Self-tests of the benchmark harness on tiny case subsets.

    python3 -m pytest perfbench/tests -q
"""
import os
from dataclasses import replace

import anesopt
import anesopt.cli
import anesopt.lti
import anesopt.patient
import anesopt.problem
import anesopt.shooting
import anesopt.strategies
import pytest

import run
import tracing
import workloads

MODULES = (anesopt.cli, anesopt.lti, anesopt.patient, anesopt.problem,
           anesopt.shooting, anesopt.strategies)


def _workload(cls, tmp_path, n=1, seed=0):
    wl = cls(tmp_path, seed, tmp_path / "run", dict(os.environ))
    wl.cases = wl.cases[:n]
    wl.setup()
    return wl


def _snapshot():
    out = {m.__name__: dict(vars(m)) for m in MODULES}
    out["LTISystem"] = dict(vars(anesopt.lti.LTISystem))
    return out


def test_perturbed_t_f_fails_the_output_check(tmp_path):
    wl = _workload(workloads.StrategyPopulation, tmp_path)
    case = wl.cases[0]
    res = anesopt.strategies.solve_time_optimal(wl.problems[case.id])
    assert wl.check(case, res) is None
    bumped = replace(res.schedule, t_f=res.schedule.t_f + 1e-6)
    wl.first.clear()
    assert wl.check(case, replace(res, schedule=bumped)) == "check:rk-replay"
    wl.first.clear()
    wl.frozen["population"][case.id] += 1e-6
    assert wl.check(case, res) == "check:frozen"


def test_perturbed_replay_endpoint_fails_the_output_check(tmp_path):
    wl = _workload(workloads.Replay, tmp_path)
    case = wl.cases[0]
    assert wl.run(case)[1] is None
    wl.t_f[case.id] += 1e-6
    wl.first.clear()
    assert wl.run(case)[1] == "check:endpoint"


def test_budget_overrun_is_a_failure_not_an_error(tmp_path, monkeypatch):
    wl = _workload(workloads.InductionPanel, tmp_path)
    monkeypatch.setattr(workloads, "BUDGET_S", 0.05)
    passes = run.measure(wl, 0.0)
    seconds, reason = passes[0].cases[wl.cases[0].id]
    assert reason == "budget"
    assert seconds >= 0.05
    values, _ = run.end_to_end(passes, ([1.0], run.REF_S))
    assert values["ok_share"][0] == 0.0
    # the budget is wall clock, not work: it is not scaled to host speed
    assert values["wall_ref_s"][0] == seconds
    assert not any(r.startswith("check:") for r in run.failures(passes))


def test_wrappers_restore_the_module_attributes():
    before = _snapshot()
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    assert anesopt.shooting.shooting_residual is not before[
        "anesopt.shooting"]["shooting_residual"]
    frame = tracer.open("bench", "case")
    with pytest.raises(anesopt.DomainError):
        anesopt.shooting.shooting_residual(None, None, -1.0)
    tracer.close(frame)
    tracing.uninstall(saved)
    after = _snapshot()
    assert after.keys() == before.keys()
    for name in before:
        assert after[name].keys() == before[name].keys(), name
        for attr, value in before[name].items():
            assert after[name][attr] is value, f"{name}.{attr}"


def test_layer_self_times_add_up_to_the_traced_wall(tmp_path):
    wl = _workload(workloads.StrategyPopulation, tmp_path, n=2)
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        traced = run.measure(wl, 0.0, tracer, tag="t")
    finally:
        tracing.uninstall(saved)
    cost = {"span": 1e-6, "leaf": 5e-7, "feval": 1e-7}
    m = run.per_layer(tracer, traced, traced, cost)
    assert m["strategies.solve_pattern.calls"][0] == 8
    assert m["lti.propagate.calls"][0] > 0
    wall = m["trace.wall_s"][0]
    closed = m["trace.self_sum_s"][0] + m["trace.overhead_est_s"][0]
    assert closed == pytest.approx(wall, rel=1e-9)


def test_tail_leaves_ten_cases_beyond():
    times = [float(i) for i in range(100)]
    value, pct = run.tail(times)
    assert sum(t > value for t in times) == run.TAIL_BEYOND
    assert pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_reference_speed_scales_pass_times():
    slow = run.Pass({"a": (2.0, None), "b": (1.0, "budget"),
                     "c": (None, "error:ValueError")}, 2 * run.REF_S)
    assert run.pass_walls([slow]) == [3.0]
    assert run.ref_walls([slow]) == [2.0]
