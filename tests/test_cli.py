"""End-to-end CLI tests: exit codes, file outputs, determinism, replay."""
import json
import math
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from anesopt import cli
from anesopt.cli import CSV_HEADER, _fmt, _g10, load_config, main
from anesopt.errors import ConfigError, DomainError
from anesopt.lti import Trajectory
from anesopt.patient import bis
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


@pytest.mark.parametrize("field, value", [
    ("step", True), ("u_max", True), ("x0", [0.0, 0.0, False, 0.0]),
], ids=["step", "u_max", "x0-entry"])
def test_boolean_number_exits_2(tmp_path, capsys, monkeypatch, field, value):
    # a JSON boolean is a Python int: "step": true once solved at step 1.0
    monkeypatch.setattr(cli, "solve_shooting", _never)
    monkeypatch.setattr(cli, "solve_time_optimal", _never)
    rc = main(["solve", "--config", write_config(tmp_path, **{field: value}),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err and "boolean" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value", [
    ("age", "53"), ("u_max", "106.0907"), ("out", None), ("out", 7),
    ("sex", 5),
], ids=["age-string", "u_max-string", "out-null", "out-number", "sex-number"])
def test_wrong_json_type_exits_2_and_writes_nothing(tmp_path, capsys,
                                                    monkeypatch, field, value):
    # "53" once read as 53, and "out": null wrote into a directory "None"
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, **{field: value})
    rc = main(["params", "--config", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("command", ["params", "simulate"])
@pytest.mark.parametrize("text", [
    "1" + "0" * 400, "[" * 100_000 + "]" * 100_000,
], ids=["integer-past-the-double-range", "nested-past-the-parser"])
def test_json_past_the_double_range_or_the_parser_exits_2(tmp_path, capsys,
                                                          command, text):
    # each once raised a traceback: OverflowError from float(), and
    # RecursionError from json.load
    out = tmp_path / "o"
    sched = tmp_path / "sched.json"
    if command == "params":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(BASE)[:-1] + f', "step": {text}}}')
    else:
        cfg = write_config(tmp_path)
        sched.write_text(f'{{"u_levels": [{text}], "breakpoints": [], '
                         f'"t_f": 1.0}}')
    argv = [command, "--config", str(cfg), "--out", str(out)]
    rc = main(argv + [str(sched)] if command == "simulate" else argv)
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["params", "solve", "simulate"])
def test_age_outside_the_model_range_exits_2(tmp_path, capsys, monkeypatch,
                                             command):
    monkeypatch.setattr(cli, "solve_shooting", _never)
    monkeypatch.setattr(cli, "solve_time_optimal", _never)
    sched = tmp_path / "hold.json"
    sched.write_text(json.dumps(
        {"u_levels": [50.0], "breakpoints": [], "t_f": 2.0}))
    out = tmp_path / "out"
    argv = [command, "--config", write_config(tmp_path, age=90),
            "--out", str(out)]
    rc = main(argv + [str(sched)] if command == "simulate" else argv)
    assert rc == 2
    assert "age 90.0 is outside the Schnider range" in capsys.readouterr().err
    assert not out.exists()


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


def test_solve_bound_just_above_u_e_exits_0(tmp_path, capsys):
    # u_max = 6.2 against u_e = 6.09: the target lies 1246 min out, far past
    # every start of the strategy search, which reaches it
    cfg = write_config(tmp_path, u_max=6.2, method="strategy", step=1.0)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert "solver failed" not in capsys.readouterr().err
    sched = json.loads((out / "schedule_strategy.json").read_text())
    assert sched["t_f"] == pytest.approx(1246.1142484778702, abs=1e-6)
    assert len(sched["breakpoints"]) == 1


@pytest.mark.parametrize("method, rc", [("strategy", 0), ("both", 3)])
def test_x4_above_its_target_fails_only_the_shooting_route(tmp_path, capsys,
                                                           method, rc):
    # a valid config: the strategy route solves it, while shooting has no
    # onset to seed from, which is a solver failure, not a config error
    cfg = write_config(tmp_path, x0=[2.0, 19.2711, 243.9024, 4.0],
                       method=method, step=0.01)
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == rc
    err = capsys.readouterr().err
    if rc:
        assert "solver failed" in err and "config error" not in err
    else:
        sched = json.loads((out / "schedule_strategy.json").read_text())
        assert sched["t_f"] == pytest.approx(0.4728, abs=1e-4)


# ----------------------------------------------------------- JSON emission

@pytest.mark.parametrize("x", [sys.float_info.max, -sys.float_info.max])
def test_fmt_keeps_the_largest_double_finite(x):
    # %.10g rounds the largest double up to 1.797693135e308, which is inf;
    # json.dump would then write Infinity, which is not JSON
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    doc = json.loads(json.dumps(_fmt({"x": x, "np": np.float64(x)})),
                     parse_constant=reject)
    for v in doc.values():
        assert math.isfinite(v) and v == pytest.approx(x, rel=1e-9)


# ------------------------------------------------------------ CSV emission

def _per_row_csv(traj):
    """The trajectory CSV as first written: one scalar BIS and one _g10
    round trip per cell, row by row."""
    lines = [CSV_HEADER]
    for t, x, u in zip(traj.times, traj.states, traj.control):
        b = bis(max(float(x[3]), 0.0))
        cells = [t, x[0], x[1], x[2], x[3], u, b]
        lines.append(",".join(f"{_g10(c):.10g}" for c in cells))
    return "\n".join(lines) + "\n"


def _edge_trajectory():
    rng = np.random.default_rng(7)
    n = 2 * cli._CSV_BLOCK_ROWS + 37  # two block seams and a short tail
    # magnitudes from 1e-300 to 1e300 with random signs, then edge values:
    # signed zeros, subnormals and exact binary ties at the tenth digit
    cols = rng.choice([-1.0, 1.0], (n, 6)) * 10.0 ** rng.uniform(-300, 300,
                                                                 (n, 6))
    edges = [-0.0, 0.0, 1e-300, 5e-324, 2.5e-310, 1234567890.5,
             1234567891.5, 12345678905.0, 0.5, 1.0]
    cols[:len(edges)] = np.array(edges)[:, None]
    # x4 near the BIS range, a little below 0 to exercise the clamp, with
    # the same zeros, subnormals and ties
    x4 = rng.uniform(-1e-3, 10.0, n)
    x4[:len(edges)] = edges
    # 9.994132051438763: numpy 2.4.6's SIMD array power (x86-64, AVX-512)
    # and libm pow differ in the last bit here, which moves the tenth digit
    # of its BIS
    specials = (-1e-12, -5e-324, -0.0, -0.5, 9.994132051438763)
    x4[len(edges):len(edges) + len(specials)] = specials
    cols[:, 4] = x4
    return Trajectory(cols[:, 0], cols[:, 1:5], cols[:, 5])


def test_csv_writer_matches_the_per_row_formula(tmp_path):
    traj = _edge_trajectory()
    path = tmp_path / "t.csv"
    cli._write_trajectory_csv(str(path), traj)
    got = path.read_text().split("\n")
    want = _per_row_csv(traj).split("\n")
    # a row-by-row report: a diff of two multi-megabyte strings is slow
    bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert bad is None, f"line {bad}: {got[bad]!r} != {want[bad]!r}"
    assert len(got) == len(want)


def test_csv_writer_bytes_do_not_depend_on_the_block_size(tmp_path,
                                                         monkeypatch):
    traj = _edge_trajectory()
    cli._write_trajectory_csv(str(tmp_path / "default.csv"), traj)
    want = (tmp_path / "default.csv").read_bytes()
    for rows in (1, 5, 4096):
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", rows)
        path = tmp_path / f"rows{rows}.csv"
        cli._write_trajectory_csv(str(path), traj)
        assert path.read_bytes() == want, rows


def test_csv_kernel_and_writer_leave_read_only_inputs_unchanged(tmp_path):
    # the kernel's passes write in place: into arrays of its own, never
    # into the values it formats or a trajectory column
    traj = _edge_trajectory()
    times, states = traj.times.copy(), traj.states.copy()
    control = np.asarray(traj.control).copy()
    values = np.concatenate([ORACLE["specials"](),
                             _ties(range(cli._X_LO - 9, cli._X_HI - 9)),
                             states.ravel()])
    kept = values.copy()
    for a in (values, times, states, control):
        a.setflags(write=False)
    assert _cell_texts(values) == ["%.10g" % v for v in kept.tolist()]
    assert values.tobytes() == kept.tobytes()
    frozen = Trajectory(times, states, control)
    path = tmp_path / "ro.csv"
    cli._write_trajectory_csv(str(path), frozen)
    assert path.read_text() == _per_row_csv(traj)
    assert times.tobytes() == traj.times.tobytes()
    assert states.tobytes() == traj.states.tobytes()
    assert control.tobytes() == np.asarray(traj.control).tobytes()


def test_csv_control_runs_across_block_seams_match_the_per_row_formula(
        tmp_path):
    # a piecewise-constant control: a run longer than a block, runs that
    # start before a block seam and end past it, signed zeros in adjacent
    # runs, and a one-row final run
    blk = cli._CSV_BLOCK_ROWS
    n = 2 * blk + 5
    levels = [(0, 106.0907), (blk + 3, 0.0), (blk + 6, -0.0),
              (2 * blk + 2, 0.0), (2 * blk + 4, 1.25e-7)]
    u = np.empty(n)
    for (a, v), (b, _) in zip(levels, levels[1:] + [(n, None)]):
        u[a:b] = v
    rng = np.random.default_rng(11)
    states = rng.uniform(-1e-3, 20.0, (n, 4))
    traj = Trajectory(np.arange(n) * 1e-3, states, u)
    path = tmp_path / "runs.csv"
    cli._write_trajectory_csv(str(path), traj)
    got = path.read_text()
    assert got == _per_row_csv(traj)
    control = [row.split(",")[5] for row in got.split("\n")[1:-1]]
    assert control[blk + 2:blk + 4] == ["106.0907", "0"]
    assert control[blk + 5:blk + 7] == ["0", "-0"]
    assert control[2 * blk + 1:] == ["-0", "0", "0", "1.25e-07"]


def test_csv_writer_rejects_a_nan_effect_site_level(tmp_path):
    states = np.zeros((5, 4))
    states[3, 3] = np.nan
    traj = Trajectory(np.arange(5.0), states, np.ones(5))
    path = tmp_path / "nan.csv"
    with pytest.raises(DomainError):
        cli._write_trajectory_csv(str(path), traj)
    assert not path.exists()


def test_csv_writer_rejection_leaves_an_old_file_intact(tmp_path):
    states = np.zeros((5, 4))
    states[3, 3] = np.nan
    traj = Trajectory(np.arange(5.0), states, np.ones(5))
    path = tmp_path / "simulated.csv"
    path.write_bytes(b"t,x1,x2,x3,x4,u,bis\n0,1,2,3,4,5,6\n")
    with pytest.raises(DomainError):
        cli._write_trajectory_csv(str(path), traj)
    assert path.read_bytes() == b"t,x1,x2,x3,x4,u,bis\n0,1,2,3,4,5,6\n"


@pytest.mark.parametrize("value", [np.nan, 1e120], ids=["nan", "overflow"])
@pytest.mark.parametrize("old", [None, b"t,x1,x2,x3,x4,u,bis\n0,1,2,3,4,5,6\n"],
                         ids=["no-file", "old-file"])
def test_csv_writer_checks_every_block_before_the_file_is_made(tmp_path,
                                                               value, old):
    # the one bad level sits in the third block, so a writer that scored
    # BIS only block by block would already have written two blocks
    n = 3 * cli._CSV_BLOCK_ROWS
    states = np.ones((n, 4))
    states[2 * cli._CSV_BLOCK_ROWS + 5, 3] = value
    traj = Trajectory(np.arange(n) * 1e-3, states, np.ones(n))
    path = tmp_path / "simulated.csv"
    if old is not None:
        path.write_bytes(old)
    with pytest.raises(DomainError):
        cli._write_trajectory_csv(str(path), traj)
    if old is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == old


def test_trajectory_output_works_in_block_bounded_memory(tmp_path, ref_sys):
    # a 300-min hold at step 1e-3 (300,001 rows, 14.4 MB of result): past
    # the result, the sampler works in chunks and the writer in blocks, so
    # neither holds a temporary of the trajectory's length but u_at's index
    # (2.4 MB here); numpy reports its allocations to tracemalloc, so the
    # peaks repeat exactly
    s = ControlSchedule(levels=(7.308896726938233,), breakpoints=(),
                        t_f=300.0)
    path = tmp_path / "hold.csv"
    tracemalloc.start()
    try:
        traj = cli.sample_trajectory(ref_sys, s, 1e-3)
        sampler_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        cli._write_trajectory_csv(str(path), traj)
        writer_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = traj.times.nbytes + traj.states.nbytes + traj.control.nbytes
    assert traj.times.size == 300_001
    assert sampler_peak <= size + 4e6, (sampler_peak, size)
    assert writer_peak <= size + 4e6, (writer_peak, size)
    assert path.stat().st_size > 0


# the CSV cell formatter against Python's own %.10g

def _cell_texts(values):
    cells = cli._csv_cells(np.asarray(values, dtype=float))
    return cells.tobytes().translate(None, b"\0").decode().split(",")[:-1]


def _ulp_neighbours(v):
    return np.concatenate([v, np.nextafter(v, -np.inf),
                           np.nextafter(v, np.inf)])


def _powers_of_ten():
    # float("1e-330") is 0 and float("1e310") is inf: both ends included
    return _ulp_neighbours(np.array([float(f"1e{k}")
                                     for k in range(-330, 311)]))


def _ties(exponents):
    # the double nearest (m + 1/2) 10^e, m a ten-digit integer, and its
    # neighbours: within 1e-5 of a tie once scaled to ten integer digits
    rng = np.random.default_rng(5)
    m = rng.integers(10**9, 10**10, 20 * len(exponents))
    e = np.repeat(exponents, 20)
    return _ulp_neighbours(np.array(
        [float(f"{a}5e{b - 1}") for a, b in zip(m.tolist(), e.tolist())]))


ORACLE = {
    "random-bits": lambda: np.random.default_rng(3).integers(
        0, 2**64, 200_000, dtype=np.uint64).view(np.float64),
    "powers-of-ten": _powers_of_ten,
    "ties": lambda: _ties(range(-330, 300)),
    "carry-edge": lambda: _ulp_neighbours(np.array(
        [float(f"99999999995e{k - 10}") for k in range(-330, 300)])),
    "specials": lambda: np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
         2.225073858507201e-308, -1.5e-315, sys.float_info.min,
         sys.float_info.max, -sys.float_info.max]),
}


@pytest.mark.parametrize("name", list(ORACLE))
def test_csv_cells_equal_python_g10(name):
    values = ORACLE[name]()
    got = _cell_texts(values)
    want = ["%.10g" % v for v in values.tolist()]
    assert len(got) == len(want)
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def _layout_by_hand(neg, e, sig):
    """One template, written out per row as "%.10g" lays it out, with its
    digits before the point and digits shown."""
    cell = bytearray(cli._CELL)
    cell[-1] = ord(",")
    if neg:
        cell[0] = ord("-")
    if e < -4 or e >= 10:
        cell[19:23] = b"e%+03d" % e
        shown, point = sig, 1
    elif e < 0:
        cell[1:2 - e] = b"0." + b"0" * (-1 - e)
        shown, point = sig, sig
    else:
        shown, point = max(sig, e + 1), e + 1
    if point < shown:
        cell[8 + point] = ord(".")
    return bytes(cell), point, shown


def test_cell_tables_equal_their_per_row_construction():
    rows = [_layout_by_hand(neg, e, sig) for neg in (False, True)
            for e in range(cli._X_LO, cli._X_HI + 1) for sig in range(1, 11)]
    zero = bytearray(cli._CELL)
    zero[-1] = ord(",")
    rows.append((bytes(zero), 0, 0))  # the undecided row
    zero[8] = ord("0")
    rows += [(bytes(zero), 0, 0), (b"-" + bytes(zero[1:]), 0, 0)]
    templates, point, shown = cli._layouts()
    want = np.frombuffer(b"".join(r[0] for r in rows), "<u8").reshape(-1, 3)
    assert templates.dtype == want.dtype and np.array_equal(templates, want)
    assert point.ravel().tolist() == [r[1] for r in rows]
    assert shown.ravel().tolist() == [r[2] for r in rows]
    # "%05d" % k as words, and the carry "10000"
    texts = ["%05d" % k for k in range(100_000)] + ["10000"]
    digits5, sig_hi, sig_lo = cli._cell_tables()[:3]
    words = np.frombuffer(b"".join(t.encode() + b"\0" * 3 for t in texts),
                          "<u8")
    assert np.array_equal(digits5, words)
    zeros = np.array([len(t) - len(t.rstrip("0")) for t in texts])
    assert sig_hi[:-1].tolist() == (4 - zeros[:-1]).tolist()
    assert sig_hi[-1] == 10
    assert sig_lo[1:].tolist() == (9 - zeros[1:]).tolist()
    assert sig_lo[0] == -1
    # the factors 10**(9 - X): exact at or below X = 9, rounded once above
    scale = cli._cell_tables()[5]
    want = [float(10 ** (9 - x)) if x <= 9 else 1 / 10 ** (x - 9)
            for x in range(cli._X_LO, cli._X_HI)]
    assert scale.tolist() == want


def test_csv_cells_leave_near_ties_to_python(monkeypatch):
    # a tie at every exponent X the tables hold (-13 to 31), whose scaling
    # is exact for X <= 9 and rounded above it, is undecidable by the tables
    values = _ties(range(cli._X_LO - 9, cli._X_HI - 9))
    seen = []
    g10 = cli._g10_text
    monkeypatch.setattr(cli, "_g10_text", lambda x: seen.append(x) or g10(x))
    assert _cell_texts(values) == ["%.10g" % v for v in values.tolist()]
    assert seen == values.tolist()


def test_csv_block_without_undecidable_values_never_calls_python(
        monkeypatch):
    # nine significant digits scale to a multiple of ten, far from a tie,
    # at every exponent the tables hold; zeros have layouts of their own.
    # A few ulps below a power of ten, log10 can round up to it, and the
    # one correction of X catches that.
    def refuse(x):
        raise AssertionError(f"{x!r} sent to Python's formatter")

    rng = np.random.default_rng(13)
    n = 7 * cli._CSV_BLOCK_ROWS
    drawn = rng.choice([-1, 1], n) * 10.0 ** rng.uniform(-13, 32, n)
    values = np.array([float(f"{v:.9g}") for v in drawn.tolist()])
    below = np.array([float(f"1e{k}") for k in range(-12, 32)])
    for _ in range(3):
        below = np.nextafter(below, 0.0)
    assert (np.floor(np.log10(below)) == range(-12, 32)).any()
    values[:4] = [0.0, -0.0, 1e-13, -9.99999999e31]
    values[4:4 + len(below)] = below
    monkeypatch.setattr(cli, "_g10_text", refuse)
    assert _cell_texts(values) == ["%.10g" % v for v in values.tolist()]


def test_strategy_csv_matches_the_committed_reference(tmp_path, capsys):
    root = Path(__file__).resolve().parent
    out = tmp_path / "o"
    rc = main(["solve", "--config", str(root.parent / "configs" / "reference.json"),
               "--method", "strategy", "--step", "0.05", "--out", str(out)])
    assert rc == 0
    expected = (root / "data" / "reference_strategy_step0.05.csv").read_bytes()
    assert (out / "trajectory_strategy.csv").read_bytes() == expected


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


def _simulate_reference(out):
    data = Path(__file__).resolve().parent / "data"
    config = data.parent.parent / "configs" / "reference.json"
    return main(["simulate", "--config", str(config),
                 str(data / "reference_schedule.json"), "--step", "0.05",
                 "--out", str(out)])


def test_simulate_csv_matches_the_committed_reference(tmp_path, capsys):
    # the schedule that solve --method strategy writes for the reference
    # config, replayed; both files were written before the vector writer
    assert _simulate_reference(tmp_path / "o") == 0
    expected = (Path(__file__).resolve().parent / "data"
                / "reference_simulated_step0.05.csv").read_bytes()
    assert (tmp_path / "o" / "simulated.csv").read_bytes() == expected


def test_main_calls_in_one_process_write_identical_files(tmp_path, capsys):
    # the parser is built once per process and must carry nothing from one
    # call to the next, a different command in between included
    assert _simulate_reference(tmp_path / "a") == 0
    assert main(["params", "--config", write_config(tmp_path),
                 "--out", str(tmp_path / "p")]) == 0
    assert _simulate_reference(tmp_path / "b") == 0
    a = (tmp_path / "a" / "simulated.csv").read_bytes()
    assert a == (tmp_path / "b" / "simulated.csv").read_bytes()
    assert cli._parser() is cli._parser()


def test_a_longer_old_output_is_replaced_by_exactly_the_new_bytes(
        tmp_path, capsys):
    # outputs are written as new files: nothing of an old file's tail stays
    expected = (Path(__file__).resolve().parent / "data"
                / "reference_simulated_step0.05.csv").read_bytes()
    out = tmp_path / "o"
    out.mkdir()
    (out / "simulated.csv").write_bytes(expected + b"9,9,9,9,9,9,9\n" * 100)
    assert _simulate_reference(out) == 0
    assert (out / "simulated.csv").read_bytes() == expected
    cfg = write_config(tmp_path, method="strategy", step=0.5)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    fresh = (tmp_path / "a" / "schedule_strategy.json").read_bytes()
    (out / "schedule_strategy.json").write_bytes(b" " * 4096 + fresh)
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "schedule_strategy.json").read_bytes() == fresh


def test_a_symlink_at_an_output_path_is_replaced_not_followed(tmp_path,
                                                              capsys):
    target = tmp_path / "elsewhere.csv"
    target.write_bytes(b"kept\n")
    out = tmp_path / "o"
    out.mkdir()
    (out / "simulated.csv").symlink_to(target)
    assert _simulate_reference(out) == 0
    written = out / "simulated.csv"
    assert written.is_file() and not written.is_symlink()
    assert written.read_bytes() == (Path(__file__).resolve().parent / "data"
                                    / "reference_simulated_step0.05.csv"
                                    ).read_bytes()
    assert target.read_bytes() == b"kept\n"


def test_schedule_quantization_preserves_the_endpoint(ref_sys, optimal):
    d = optimal.schedule.as_dict()
    rounded = {"u_levels": [_g10(u) for u in d["u_levels"]],
               "breakpoints": [_g10(b) for b in d["breakpoints"]],
               "t_f": _g10(d["t_f"])}
    again = ControlSchedule(rounded["u_levels"], rounded["breakpoints"],
                            rounded["t_f"])
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


def test_simulate_from_an_overflowing_effect_site_exits_2(tmp_path, capsys):
    # x4 = 1e120 has no BIS score: x4**3 overflows the float range
    cfg = write_config(tmp_path, x0=[0.0, 0.0, 0.0, 1e120])
    sched = tmp_path / "hold.json"
    sched.write_text(json.dumps(
        {"u_levels": [50.0], "breakpoints": [], "t_f": 2.0}))
    rc = main(["simulate", "--config", cfg, str(sched),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o" / "simulated.csv").exists()


def test_simulate_step_past_the_sample_cap_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path)
    sched = tmp_path / "hold.json"
    sched.write_text(json.dumps(
        {"u_levels": [50.0], "breakpoints": [], "t_f": 2.0}))
    rc = main(["simulate", "--config", cfg, str(sched), "--step", "1e-300",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "samples" in capsys.readouterr().err
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


@pytest.mark.parametrize("doc", [
    {"u_levels": [1.0, 0.0], "breakpoints": [float("nan")], "t_f": 1.84},
    {"u_levels": [float("nan"), 0.0], "breakpoints": [0.5], "t_f": 1.84},
    {"u_levels": [True, False], "breakpoints": [0.5], "t_f": 1.84},
    {"u_levels": [1e308, 0.0], "breakpoints": [0.5], "t_f": 1.84},
    {"u_levels": [-50, 0], "breakpoints": [0.5], "t_f": 1.84},
    {"u_levels": ["50", "0"], "breakpoints": ["0.5"], "t_f": "1.84"},
    [[50.0, 0.0], [0.5], 1.84],
    {"u_levels": [50.0, 0.0], "breakpoints": [0.5]},
    {"u_levels": [1.0], "t_f": 1.0},
    {"u_levels": None, "breakpoints": [], "t_f": 1.0},
    {"u_levels": [1.0], "breakpoints": [], "t_f": "soon"},
    {"u_levels": [1.0, 1.0], "breakpoints": [0.5], "t_f": 1.0},
    {"u_levels": "10", "breakpoints": "1", "t_f": 3},
    {"u_levels": "1", "breakpoints": [], "t_f": 3},
    {"u_levels": [1.0, 0.0], "breakpoints": "1", "t_f": 3},
], ids=["nan-breakpoint", "nan-level", "boolean-levels", "overflowing-level",
        "negative-level", "string-numbers", "not-an-object", "no-t_f",
        "no-breakpoints", "null-levels", "string-t_f", "null-switch",
        "string-lists", "string-levels", "string-breakpoints"])
def test_simulate_invalid_schedule_numbers_exit_2(tmp_path, capsys, doc):
    # each once failed later or not at all: a NaN breakpoint as a negative
    # propagation time, a NaN level as a negative effect-site level,
    # booleans replayed as levels 1 and 0 with exit 0, a level of 1e308
    # overflowed the modal offset of the flow map (a RuntimeWarning fails
    # this test), a level of -50 replayed negative drug amounts, and "50"
    # read as 50
    cfg = write_config(tmp_path)
    sched = tmp_path / "bad.json"
    sched.write_text(json.dumps(doc))
    rc = main(["simulate", "--config", cfg, str(sched),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_admits_a_level_above_u_max(tmp_path, capsys):
    # u_max bounds the solvers' controls, not a replay: only u >= 0 is
    # required of a schedule's levels
    cfg = write_config(tmp_path)
    sched = tmp_path / "double.json"
    sched.write_text(json.dumps({"u_levels": [2 * BASE["u_max"], 0.0],
                                 "breakpoints": [0.5], "t_f": 1.84}))
    rc = main(["simulate", "--config", cfg, str(sched), "--step", "0.5",
               "--out", str(tmp_path / "o")])
    assert rc == 0
    rows = read_csv(tmp_path / "o" / "simulated.csv")
    assert [r[5] for r in rows] == [2 * BASE["u_max"], 0.0, 0.0, 0.0, 0.0]


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
