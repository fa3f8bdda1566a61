"""End-to-end CLI tests: exit codes, file outputs, determinism, replay."""
import json
import os

import numpy as np
import pytest

from anesopt import cli
from anesopt.cli import CSV_HEADER, _g10, load_config, main
from anesopt.errors import ConfigError
from anesopt.problem import ControlSchedule

from conftest import FROZEN, U_MAX_REF, endpoint

BASE = {
    "sex": "male",
    "age": 53,
    "weight": 77,
    "height": 177,
    "u_max": 106.0907,
}


def write_config(tmp_path, name="cfg.json", **extra):
    doc = {**BASE, **extra}
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    return [list(map(float, ln.split(","))) for ln in lines[1:]]


# ------------------------------------------------------------------- config

def test_load_config_defaults(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.method == "both" and cfg.step == 0.001
    assert cfg.bis_target == 50.0 and cfg.x0 == (0.0, 0.0, 0.0, 0.0)


def test_load_config_overrides_win(tmp_path):
    cfg = load_config(write_config(tmp_path), method="strategy", step=0.5,
                      out=None)
    assert cfg.method == "strategy" and cfg.step == 0.5
    assert cfg.out == "out"  # None override leaves the config value


def test_load_config_rejects_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))


def test_missing_required_field_exits_2(tmp_path, capsys):
    doc = {k: v for k, v in BASE.items() if k != "height"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    rc = main(["params", "--config", str(path)])
    assert rc == 2
    assert "height" in capsys.readouterr().err


def test_unknown_field_exits_2(tmp_path, capsys):
    rc = main(["params", "--config", write_config(tmp_path, infusion_cap=5)])
    assert rc == 2
    assert "infusion_cap" in capsys.readouterr().err


@pytest.mark.parametrize("x0", ["1234", 5.0, {"x1": 1.0}])
def test_x0_that_is_not_a_list_exits_2(tmp_path, capsys, x0):
    rc = main(["params", "--config", write_config(tmp_path, x0=x0)])
    assert rc == 2
    assert "x0" in capsys.readouterr().err


def test_bad_method_exits_2(tmp_path, capsys):
    rc = main(["solve", "--config", write_config(tmp_path, method="triple")])
    assert rc == 2
    assert "method" in capsys.readouterr().err


def test_nonpositive_step_exits_2(tmp_path, capsys):
    rc = main(["solve", "--config", write_config(tmp_path, step=0)])
    assert rc == 2


def _never(*_):
    raise AssertionError("a solver ran on a rejected config")


@pytest.mark.parametrize("method", ["shooting", "strategy", "both"])
@pytest.mark.parametrize("field, value", [
    ("x0", [float("nan"), 0.0, 0.0, 0.0]),
    ("u_max", float("inf")),
    ("step", float("inf")),
], ids=["x0-nan", "u_max-inf", "step-inf"])
def test_nonfinite_number_exits_2_before_any_solve(tmp_path, capsys,
                                                   monkeypatch, method, field,
                                                   value):
    # JSON admits NaN and Infinity; once they hung shooting, crashed the
    # strategy route and sampled a CSV with no t = 0 row
    monkeypatch.setattr(cli, "solve_shooting", _never)
    monkeypatch.setattr(cli, "solve_time_optimal", _never)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, method=method, **{field: value})
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


def test_unknown_sex_exits_2(tmp_path, capsys):
    rc = main(["params", "--config", write_config(tmp_path, sex="other")])
    assert rc == 2


def test_bound_below_equilibrium_rate_exits_2(tmp_path, capsys):
    rc = main(["params", "--config", write_config(tmp_path, u_max=5.0)])
    assert rc == 2
    assert "u_e" in capsys.readouterr().err


# ------------------------------------------------------------------- params

def test_params_report(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["params", "--config", write_config(tmp_path), "--out", str(out)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    on_disk = json.loads((out / "params.json").read_text())
    assert doc == on_disk
    assert doc["lbm"] == pytest.approx(FROZEN["lbm_male"], abs=1e-8)
    assert doc["a10"] == pytest.approx(FROZEN["a10"], abs=1e-9)
    assert doc["u_e"] == pytest.approx(FROZEN["u_e"], abs=1e-8)
    assert doc["A"][0][0] == pytest.approx(-0.9175, abs=1e-4)
    assert doc["B"] == [1, 0, 0, 0]
    assert doc["eigenvalues"] == pytest.approx(FROZEN["eigs"], abs=1e-8)
    assert doc["x_e"] == pytest.approx(list(FROZEN["x_e"]), abs=1e-6)


def test_params_female_lean_body_mass(tmp_path, capsys):
    rc = main(["params", "--config", write_config(tmp_path, sex="female"),
               "--out", str(tmp_path / "o")])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lbm"] == pytest.approx(FROZEN["lbm_female"], abs=1e-8)


# -------------------------------------------------------------------- solve

def test_solve_strategy_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, method="strategy")
    rc = main(["solve", "--config", cfg, "--out", str(out)])
    assert rc == 0
    sched = json.loads((out / "schedule_strategy.json").read_text())
    assert set(sched) == {"u_levels", "breakpoints", "t_f"}
    assert sched["u_levels"] == [106.0907, 0]
    assert sched["breakpoints"][0] == pytest.approx(FROZEN["t_c"], abs=1e-6)
    assert sched["t_f"] == pytest.approx(FROZEN["t_f"], abs=1e-6)

    rows = read_csv(out / "trajectory_strategy.csv")
    t_c, t_f = sched["breakpoints"][0], sched["t_f"]
    assert rows[0] == [0, 0, 0, 0, 0, 106.0907, 100]
    for r in rows:
        assert r[5] == (106.0907 if r[0] < t_c else 0.0)
    last = rows[-1]
    assert last[0] == pytest.approx(t_f, abs=1e-9)
    assert last[1] == pytest.approx(14.518, abs=1e-6)
    assert last[4] == pytest.approx(3.4, abs=1e-6)
    assert last[6] == pytest.approx(50.0, abs=1e-4)

    summary = json.loads(capsys.readouterr().out)
    assert summary["strategy"]["t_f"] == sched["t_f"]


def test_solve_both_is_bitwise_deterministic_and_consistent(tmp_path, capsys):
    cfg = write_config(tmp_path, step=0.01)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    capsys.readouterr()
    names = ["schedule_shooting.json", "schedule_strategy.json",
             "trajectory_shooting.csv", "trajectory_strategy.csv",
             "comparison.json"]
    for name in names:
        a, b = (out1 / name).read_bytes(), (out2 / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
    comp = json.loads((out1 / "comparison.json").read_text())
    assert comp["switch_structure_match"] is True
    assert comp["delta_t_f"] < 1e-6
    assert comp["delta_t_c"] < 1e-6


def test_solve_infeasible_bound_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, u_max=6.2, method="strategy")
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "solver failed" in capsys.readouterr().err


# ----------------------------------------------------------------- simulate

def test_simulate_replays_the_solver_schedule(tmp_path, capsys):
    cfg = write_config(tmp_path, method="strategy")
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    rc = main(["simulate", "--config", cfg, str(out / "schedule_strategy.json"),
               "--out", str(tmp_path / "replay")])
    assert rc == 0
    capsys.readouterr()
    solved = read_csv(out / "trajectory_strategy.csv")
    replay = read_csv(tmp_path / "replay" / "simulated.csv")
    assert len(solved) == len(replay)
    # the written schedule is quantized to 10 significant digits, so the
    # replay endpoint can move at most ~1e-9 mg
    for a, b in zip(solved[-1], replay[-1]):
        assert a == pytest.approx(b, abs=2e-9)
    assert replay[-1][1] == pytest.approx(14.518, abs=1e-6)
    assert replay[-1][4] == pytest.approx(3.4, abs=1e-6)
    worst = max(abs(a - b) for ra, rb in zip(solved, replay)
                for a, b in zip(ra, rb))
    assert worst < 1e-6


def test_schedule_quantization_preserves_the_endpoint(ref_sys, optimal):
    d = optimal.schedule.as_dict()
    rounded = {"u_levels": [_g10(u) for u in d["u_levels"]],
               "breakpoints": [_g10(b) for b in d["breakpoints"]],
               "t_f": _g10(d["t_f"])}
    again = ControlSchedule.from_dict(rounded)
    x1 = endpoint(ref_sys, optimal.schedule)
    x2 = endpoint(ref_sys, again)
    assert np.max(np.abs(x1 - x2)) < 1e-9


def test_simulate_constant_hold_at_equilibrium(tmp_path, capsys, ref_eq):
    cfg = write_config(tmp_path, x0=list(ref_eq.x_e), step=0.25)
    sched = tmp_path / "hold.json"
    sched.write_text(json.dumps(
        {"u_levels": [ref_eq.u_e], "breakpoints": [], "t_f": 2.0}))
    rc = main(["simulate", "--config", cfg, str(sched),
               "--out", str(tmp_path / "o")])
    assert rc == 0
    rows = read_csv(tmp_path / "o" / "simulated.csv")
    assert len(rows) == 9
    for r in rows:
        assert r[1:5] == pytest.approx(list(ref_eq.x_e), abs=1e-6)
        assert r[5] == pytest.approx(ref_eq.u_e, abs=1e-9)
        assert r[6] == pytest.approx(50.0, abs=1e-6)


def test_simulate_zero_horizon_schedule_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    sched = tmp_path / "empty.json"
    sched.write_text(json.dumps({"u_levels": [], "breakpoints": [], "t_f": 0}))
    rc = main(["simulate", "--config", cfg, str(sched),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "schedule" in capsys.readouterr().err
    assert not (tmp_path / "o" / "simulated.csv").exists()


def test_simulate_malformed_schedule_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    bad = tmp_path / "bad.json"
    # read one character at a time, "10" and "1" would replay (1, 0) with a
    # switch at 1 and exit 0
    for doc in ({"u_levels": [1.0], "t_f": 1.0},
                {"u_levels": "10", "breakpoints": "1", "t_f": 3}):
        bad.write_text(json.dumps(doc))
        rc = main(["simulate", "--config", cfg, str(bad),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "schedule" in capsys.readouterr().err
        assert not (tmp_path / "o" / "simulated.csv").exists()


def test_simulate_non_json_schedule_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text("u = bolus until asleep")
    rc = main(["simulate", "--config", cfg, str(bad),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_output_directory_is_created(tmp_path, capsys):
    out = tmp_path / "deep" / "nested"
    rc = main(["params", "--config", write_config(tmp_path), "--out", str(out)])
    assert rc == 0
    assert os.path.exists(out / "params.json")
