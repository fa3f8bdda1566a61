"""Command-line front end: parameter reports, solve runs, schedule replay.

Config and schedule files are read here by one reader and one value rule:
a value of the wrong JSON type or a non-finite number is a ConfigError.

Outputs are plain JSON/CSV with 10-significant-digit numeric emission so
repeated runs of the same config are bitwise identical. A CSV number is
the text of "%.10g"; the trajectory writer builds it for whole blocks of
rows from tables, and leaves each value they cannot decide to Python.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .errors import (ConfigError, DomainError, InfeasibleError,
                     IntegrationError, NoConvergenceError)
from .patient import (PatientDemographics, assemble_system, bis, bis_inverse,
                      equilibrium, lean_body_mass, schnider_parameters)
from .problem import ControlSchedule, build_problem, sample_trajectory
from .shooting import solve_shooting
from .strategies import solve_time_optimal

_METHODS = ("shooting", "strategy", "both")

CSV_HEADER = "t,x1,x2,x3,x4,u,bis"
_CSV_BLOCK_ROWS = 2048


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """One run of the CLI, as `load_config` reads it from a config file.

    sex, "male" or "female" once `PatientDemographics` checks it; age in
    years, weight in kg and height in cm; u_max the pump's bound in mg/min;
    bis_target the BIS score to reach; method one of "shooting", "strategy"
    and "both"; out the output directory; step the CSV sampling step in
    min; x0 the start state, x1-x3 in mg and x4 in mg/L. Every number is
    finite and every string a str (`load_config` is the only constructor);
    method is one of the three, step is positive and x0 has four
    components.
    """

    sex: str
    age: float
    weight: float
    height: float
    u_max: float
    bis_target: float = 50.0
    method: str = "both"
    out: str = "out"
    step: float = 0.001
    x0: tuple = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ConfigError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.step > 0:
            raise ConfigError("step must be positive")
        if len(self.x0) != 4:
            raise ConfigError("x0 must have four components")


def _read_json(path: str, what: str) -> dict:
    """The JSON object in the file at path; what names it in errors."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
        raise ConfigError(f"{what} file is not valid JSON: {exc}") from exc
    if type(doc) is not dict:
        raise ConfigError(f"{what} must be a JSON object")
    return doc


def _value(v, kind: str):
    """v by the one value rule: a "string" is a str, a "number" a finite int
    or float (not a bool, an int subclass) and an "array" a list of numbers;
    an integer past the double range raises OverflowError."""
    got = {bool: "boolean", str: "string", type(None): "null", list: "array",
           dict: "object"}.get(type(v), "number")
    if got != kind:
        raise TypeError(f"expected a JSON {kind}, got {got}")
    if kind == "array":
        return tuple(_value(x, "number") for x in v)
    if kind == "number" and not math.isfinite(v):
        raise ValueError(f"expected a finite number, got {v}")
    return float(v) if kind == "number" else v


# the JSON type per annotation (a string under postponed evaluation)
_COERCE = {"str": "string", "float": "number", "tuple": "array"}


def _field(doc: dict, key: str, kind: str, what: str):
    """doc[key] read by `_value`; a missing key or a value it rejects is a
    ConfigError that names the document and the key."""
    if key not in doc:
        raise ConfigError(f"missing required {what} field: {key}")
    try:
        return _value(doc[key], kind)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{what} field {key}: {exc}") from exc


def load_config(path: str, **overrides) -> RunConfig:
    """Read the flat JSON config; command-line overrides (non-None) win."""
    merged = _read_json(path, "config")
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(merged) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    merged.update((k, v) for k, v in overrides.items() if v is not None)
    return RunConfig(**{
        f.name: _field(merged, f.name, _COERCE[f.type], "config")
        for f in fields.values()
        if f.name in merged or f.default is dataclasses.MISSING})


def _g10(x) -> float:
    """x rounded to 10 significant digits; a finite x stays finite."""
    x = float(x)
    y = float(f"{x:.10g}")
    if math.isinf(y) and not math.isinf(x):
        # %.10g rounds the doubles above 1.7976931345e308 up past the largest
        y = math.copysign(1.797693134e308, x)
    return y


def _fmt(obj):
    """Round every float to 10 significant digits, recursively."""
    if isinstance(obj, float):
        return _g10(obj)
    if isinstance(obj, (np.floating, np.integer)):
        return _g10(float(obj))
    if isinstance(obj, np.ndarray):
        return [_fmt(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _fmt(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fmt(v) for v in obj]
    return obj


def _create(path: str, mode: str):
    """Open path as a new file (mode "x" or "xb"): any file there is removed
    first, a symlink itself and not its target. Truncating a file and
    writing it again can start its writeback at close (ext4 does so), while
    the dirty pages of a removed file never reach the disk."""
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    return open(path, mode)


def _write_json(path: str, doc: dict) -> None:
    """The rounded document as indented JSON; its text is built before any
    old file is removed."""
    text = json.dumps(_fmt(doc), indent=2) + "\n"
    with _create(path, "x") as fh:
        fh.write(text)


def _resolve(cfg: RunConfig):
    """Demographics -> (params, equilibrium); enforces the u_max invariant."""
    demo = PatientDemographics(sex=cfg.sex, age=cfg.age, weight=cfg.weight,
                               height=cfg.height)
    params = schnider_parameters(demo)
    eq = equilibrium(params, bis_inverse(cfg.bis_target))
    if not cfg.u_max > eq.u_e:
        raise ConfigError(
            f"u_max = {cfg.u_max:g} must exceed the equilibrium infusion "
            f"u_e = {eq.u_e:.6g}; the target is unreachable from rest")
    return demo, params, eq


# A CSV cell is 24 bytes, three little-endian words, NUL where it has no
# text:
#   byte 0        the sign
#   bytes 1-5     "0." and up to three zeros, for 1e-4 <= |x| < 1
#   bytes 8-18    the digits, with at most one point among them
#   bytes 19-22   "e+XX" or "e-XX"
#   byte 23       the separator, "," ("\n" at the end of a row)
# Deleting the NULs leaves "%.10g" % x and its separator.
_CELL = 24
_X_LO, _X_HI = -13, 32    # exponents with a layout; 32 only by a carry
_N_X = _X_HI - _X_LO + 1
_UNDECIDED = 2 * _N_X * 10  # the row left to Python's formatter
_ZERO = _UNDECIDED + 1      # then "0" and "-0"
_SHIFTS = tuple(np.uint64(k) for k in (8, 24, 40, 56))


def _layouts() -> tuple:
    """The templates of every (sign, exponent e, significant digits sig), in
    that order and as "%.10g" lays them out, then the undecided row, "0" and
    "-0"; with the digits before the point and those shown, as columns."""
    e = np.tile(np.repeat(np.arange(_X_LO, _X_HI + 1), 10), 2)
    sig = np.tile(np.arange(1, 11), 2 * _N_X)
    sci, lead = (e < -4) | (e >= 10), (e < 0) & (e >= -4)
    point = np.pad(np.where(sci, 1, np.where(lead, sig, e + 1)), (0, 3))
    shown = np.pad(np.where(sci | lead, sig, np.maximum(sig, e + 1)), (0, 3))
    cells = np.zeros((len(e) + 3, _CELL), np.uint8)
    cells[:, -1] = ord(",")
    cells[len(e) // 2:-3, 0] = cells[-1, 0] = ord("-")
    cells[-2:, 8] = ord("0")
    # "0." and up to three zeros, the point among the digits, and "e+XX"
    byte = np.arange(_CELL)
    zero = lead[:, None] & (byte > 0) & (byte < 2 - e[:, None])
    cells[:-3][zero] = ord("0")
    cells[np.flatnonzero(lead), 2] = ord(".")
    dot = np.flatnonzero(point < shown)
    cells[dot, 8 + point[dot]] = ord(".")
    exp = b"".join(b"e%+03d" % k for k in range(_X_LO, _X_HI + 1))
    rows = np.flatnonzero(sci)
    cells[rows, 19:23] = np.frombuffer(exp, np.uint8).reshape(-1, 4)[
        e[rows] - _X_LO]
    return cells.view("<u8"), point[:, None], shown[:, None]


@functools.cache
def _cell_tables() -> tuple:
    """The tables of `_csv_cells`, built at the first CSV write.

    For k < 100,000: the text of "%05d" % k as a word, and the significant
    digits less one that k brings as the first and as the last five of ten
    digits. Entry 100,000 is the carry of N = 1e10: the text "10000" and
    10 more, which `_classify` reads as the next exponent with one digit.
    Then the masks and templates of the layouts, and the factors 10**(9 - X),
    rounded once for X > 9, that scale x to ten integer digits.
    """
    text = np.zeros((100_001, 8), np.uint8)
    text[-1, :5] = np.frombuffer(b"10000", np.uint8)
    # digit j of k runs along axis j of a (10,) * 5 grid
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    grid = text[:-1].reshape((10,) * 5 + (8,))
    zeros = np.zeros((10,) * 5, np.int8)  # trailing zeros of "%05d" % k
    trailing = True
    for j in reversed(range(5)):
        column = digits.reshape((10,) + (1,) * (4 - j))
        grid[..., j] = column
        trailing = trailing & (column == ord("0"))
        zeros += trailing
    zeros = np.append(zeros.ravel(), np.int8(4))  # "10000"
    # a nonzero last half decides alone: it gives 5-9, and 0 gives -1
    sig_hi = 4 - zeros
    sig_hi[-1] = 10
    sig_lo = 9 - zeros
    sig_lo[0] = -1
    templates, point, shown = _layouts()
    # the digit bytes shown before the point, and those shown after it
    byte = np.arange(16)
    masks = np.concatenate([byte < point, (byte >= point) & (byte < shown)],
                           axis=1) * np.uint8(0xff)
    # exact to 10**22 whatever pow the platform has; 1 / 10**k rounds once
    scale = np.array([float(10 ** (9 - e)) if e <= 9 else 1 / 10 ** (e - 9)
                      for e in range(_X_LO, _X_HI)])
    tables = (text.view("<u8").ravel(), sig_hi, sig_lo,
              masks.view("<u8").T.copy(), templates, scale)
    for t in tables:  # shared by every caller in the process
        t.setflags(write=False)
    return tables


def _g10_text(x: float) -> bytes:
    """Python's own "%.10g", for the cells the tables cannot decide."""
    return ("%.10g" % x).encode("ascii")


def _classify(v: np.ndarray) -> tuple:
    """The layout row of each x, and the two 5-digit halves of N.

    A finite nonzero x with X = floor(log10|x|) in [-13, 31] is scaled by
    one multiply to y = |x| 10**(9 - X) within 2.2e-6 of the exact product
    (a factor rounded only for X > 9, then the product); log10 may be one
    off, and X is corrected once. For y in [1e9, 1e10), rint(y) is the
    correctly rounded ten-digit integer N unless y lies within 1e-5 of a
    tie, and N = 1e10 carries to 1e9 with X + 1. The halves of N give the
    significant digits, which with the sign and X pick the layout. Zeros
    have layouts of their own. Non-finite values, magnitudes outside
    [1e-13, 1e32), scalings that stay out of range and near-ties get the
    row `_UNDECIDED` and N = 0. Each 8-byte pass writes into an array returned.
    """
    _, sig_hi, sig_lo, _, _, scale = _cell_tables()
    a = np.abs(v)
    with np.errstate(all="ignore"):
        # fmax sends NaN to the lowest exponent, and the range check drops it
        y = np.log10(a)
        np.fmin(np.fmax(np.floor(y, out=y), _X_LO, out=y), _X_HI - 1, out=y)
        xi = np.subtract(y, _X_LO, out=y).astype(np.intp)
        # "clip" gathers into out itself, where "raise" fills a copy first
        y = np.multiply(a, scale.take(xi, out=y, mode="clip"), out=y)
        out = np.flatnonzero((y < 1e9) | (y >= 1e10))
        if out.size:  # log10 one off next to a power of ten, or no fit
            xi[out] = xo = np.clip(xi[out] + np.where(y[out] < 1e9, -1, 1),
                                   0, len(scale) - 1)
            y[out] = a[out] * scale.take(xo)
            out = out[(y[out] < 1e9) | (y[out] >= 1e10)]
        n = np.rint(y, out=a.view(np.int64), casting="unsafe")
        undecided = ~(np.abs(np.subtract(y, n, out=y), out=y) < 0.5 - 1e-5)
    undecided[out] = True
    np.copyto(n, 0, where=undecided)
    hi, lo = np.divmod(n, 100_000, out=(y.view(np.int64), n))
    xi += np.signbit(v) * np.int8(_N_X)
    xi *= 10
    xi += np.maximum(sig_hi.take(hi), sig_lo.take(lo))
    xi[undecided] = _UNDECIDED
    zero = out[v[out] == 0]
    xi[zero] = _ZERO + np.signbit(v[zero])
    return xi, hi, lo


def _csv_cells(v: np.ndarray) -> np.ndarray:
    """The (n, 24) uint8 cells of a float vector, each "%.10g" % x then ","
    once the NULs are deleted: the digits of N from the text table, placed
    by the masks of the layout `_classify` picks, in its template, and the
    text of `_g10_text` for each undecided x, all built in place."""
    code, hi, lo = _classify(v)
    digits5, _, _, masks, templates, _ = _cell_tables()
    s8, s24, s40, s56 = _SHIFTS
    cells = templates.take(code, axis=0)
    w0, w1, m = digits5.take(hi), digits5.take(lo), lo.view(np.uint64)
    w0 |= np.left_shift(w1, s40, out=m)       # digits 1-8 as text
    w1 >>= s24                                # digits 9-10
    # the digits after the point move one byte up, past it
    for c, w, head, tail in zip(cells.T[1:], (w0, w1), masks[:2], masks[2:]):
        c |= np.bitwise_and(w, head.take(code, out=m, mode="clip"), out=m)
        w &= tail.take(code, out=m, mode="clip")
        c |= np.left_shift(w, s8, out=m)
    cells[:, 2] |= np.right_shift(w0, s56, out=w0)  # word 1's last digit
    for i in np.flatnonzero(code == _UNDECIDED).tolist():
        text = _g10_text(float(v[i]))
        cells.view(np.uint8)[i, :len(text)] = np.frombuffer(text, np.uint8)
    return cells.view(np.uint8)


def _write_trajectory_csv(path: str, traj) -> None:
    """One row per sample: t, x1..x4, u and the BIS of max(x4, 0).

    A single %.10g prints the same text as _g10 then .10g, since rounding
    to 10 significant digits twice changes nothing. Before the file is
    created, one scalar `bis` of the largest max(x4, 0) checks the whole
    column: x4**gamma grows with x4 and np.max passes a NaN on (Python's
    max does not), so it raises exactly when some row has no score, and
    such a trajectory leaves an old file as it was. Each block's BIS is
    then one array call of `bis`, bitwise its scalar values.
    `_csv_cells` prints the seven columns of 2,048 rows at a time, from
    tables, and leaves each value the tables cannot decide to Python's
    formatter. Each block is written before the next is formatted, so
    neither the text nor any column of the whole file is made, and each
    step rebinds `block`, so a block is held in one form at a time: its
    values, its cells, then their bytes.
    """
    x4 = traj.states[:, 3]
    bis(np.max(x4, initial=0.0))
    control = np.asarray(traj.control, dtype=float)
    with _create(path, "xb") as fh:
        fh.write(CSV_HEADER.encode("ascii") + b"\n")
        for i in range(0, len(traj.times), _CSV_BLOCK_ROWS):
            j = i + _CSV_BLOCK_ROWS
            block = np.column_stack((traj.times[i:j], traj.states[i:j],
                                     control[i:j],
                                     bis(np.maximum(x4[i:j], 0.0))))
            block = _csv_cells(block.ravel()).reshape(-1, 7, _CELL)
            block[:, -1, -1] = ord("\n")
            block = block.tobytes()
            fh.write(block.translate(None, b"\0"))


def cmd_params(cfg: RunConfig) -> int:
    demo, params, eq = _resolve(cfg)
    sys_ = assemble_system(params)
    doc = {
        "lbm": lean_body_mass(demo.sex, demo.weight, demo.height),
        "a10": params.a10, "a12": params.a12, "a13": params.a13,
        "a21": params.a21, "a31": params.a31, "ae0": params.ae0,
        "v1": params.v1,
        "A": sys_.A, "B": sys_.B,
        "eigenvalues": sys_.eigenvalues,
        "x_e": eq.x_e, "u_e": eq.u_e,
    }
    os.makedirs(cfg.out, exist_ok=True)
    _write_json(os.path.join(cfg.out, "params.json"), doc)
    print(json.dumps(_fmt(doc), indent=2))
    return 0


def cmd_solve(cfg: RunConfig) -> int:
    _, params, _ = _resolve(cfg)
    prob = build_problem(params, cfg.u_max, cfg.bis_target, x0=np.array(cfg.x0))
    methods = ("shooting", "strategy") if cfg.method == "both" else (cfg.method,)
    os.makedirs(cfg.out, exist_ok=True)
    schedules = {}
    summary = {}
    for method in methods:
        solve = solve_time_optimal if method == "strategy" else solve_shooting
        sched = solve(prob).schedule
        schedules[method] = sched
        _write_json(os.path.join(cfg.out, f"schedule_{method}.json"),
                    sched.as_dict())
        traj = sample_trajectory(prob.sys, sched, cfg.step, x0=prob.x0)
        _write_trajectory_csv(os.path.join(cfg.out, f"trajectory_{method}.csv"),
                              traj)
        summary[method] = {"t_f": sched.t_f, "breakpoints": list(sched.breakpoints)}
    if cfg.method == "both":
        a, b = schedules["shooting"], schedules["strategy"]
        same_shape = (len(a.breakpoints) == len(b.breakpoints)
                      and a.levels[0] == b.levels[0])
        comparison = {
            "delta_t_f": abs(a.t_f - b.t_f),
            "delta_t_c": (max(abs(p - q) for p, q in
                              zip(a.breakpoints, b.breakpoints))
                          if same_shape and a.breakpoints else None),
            "switch_structure_match": same_shape,
        }
        _write_json(os.path.join(cfg.out, "comparison.json"), comparison)
        summary["comparison"] = comparison
    print(json.dumps(_fmt(summary), indent=2))
    return 0


def cmd_simulate(cfg: RunConfig, schedule_path: str) -> int:
    """Replay a schedule file. Its levels must lie in the admissible set
    u >= 0; a level above the config's u_max is replayed, since u_max bounds
    the solvers' controls and not a replay."""
    _, params, _ = _resolve(cfg)
    sys_ = assemble_system(params)
    doc = _read_json(schedule_path, "schedule")
    levels = _field(doc, "u_levels", "array", "schedule")
    breakpoints = _field(doc, "breakpoints", "array", "schedule")
    t_f = _field(doc, "t_f", "number", "schedule")
    try:
        schedule = ControlSchedule(levels, breakpoints, t_f)
    except DomainError as exc:
        raise ConfigError(f"schedule file {schedule_path}: {exc}") from exc
    traj = sample_trajectory(sys_, schedule, cfg.step, x0=np.array(cfg.x0))
    os.makedirs(cfg.out, exist_ok=True)
    out_path = os.path.join(cfg.out, "simulated.csv")
    _write_trajectory_csv(out_path, traj)
    print(out_path)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="anesopt",
        description="Minimum-time induction schedules for a 4-compartment "
                    "infusion model")
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="report model parameters")
    p_solve = sub.add_parser("solve", help="compute the minimum-time schedule")
    p_sim = sub.add_parser("simulate", help="replay a schedule file")
    for p in (p_params, p_solve, p_sim):
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory override")
    p_solve.add_argument("--method", default=None, choices=list(_METHODS))
    p_solve.add_argument("--step", default=None, type=float,
                         help="trajectory sampling step override (min)")
    p_sim.add_argument("schedule", help="path to a schedule JSON file")
    p_sim.add_argument("--step", default=None, type=float)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        overrides = {"out": args.out}
        if hasattr(args, "method"):
            overrides["method"] = args.method
        if hasattr(args, "step"):
            overrides["step"] = args.step
        cfg = load_config(args.config, **overrides)
        if args.command == "params":
            return cmd_params(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        return cmd_simulate(cfg, args.schedule)
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleError, IntegrationError, NoConvergenceError) as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
