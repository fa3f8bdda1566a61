"""Command-line front end: parameter reports, solve runs, schedule replay.

Outputs are plain JSON/CSV with 10-significant-digit numeric emission so
repeated runs of the same config are bitwise identical.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
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


@dataclasses.dataclass(frozen=True)
class RunConfig:
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
        # JSON admits NaN and Infinity; no solver stage is defined on them
        for name in ("age", "weight", "height", "u_max", "bis_target", "step",
                     "x0"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigError(f"{name} must be finite")
        if not self.step > 0:
            raise ConfigError("step must be positive")
        if len(self.x0) != 4:
            raise ConfigError("x0 must have four components")


def _float_tuple(v) -> tuple:
    # a string is iterable too: "1234" must not read as (1, 2, 3, 4)
    if not isinstance(v, list):
        raise TypeError(f"expected a JSON list, got {type(v).__name__}")
    return tuple(float(x) for x in v)


# coercion per annotation; annotations are strings under postponed evaluation
_COERCE = {"str": str, "float": float, "tuple": _float_tuple}


def load_config(path: str, **overrides) -> RunConfig:
    """Read the flat JSON config; command-line overrides (non-None) win."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    for f in fields.values():
        if f.default is dataclasses.MISSING and f.name not in doc:
            raise ConfigError(f"missing required config field: {f.name}")
    merged = dict(doc)
    for key, val in overrides.items():
        if val is not None:
            merged[key] = val
    kwargs = {}
    for key, val in merged.items():
        try:
            kwargs[key] = _COERCE[fields[key].type](val)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"config field {key} has the wrong type: {exc}") from exc
    return RunConfig(**kwargs)


def _g10(x) -> float:
    return float(f"{float(x):.10g}")


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


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_fmt(doc), fh, indent=2)
        fh.write("\n")


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


def _write_trajectory_csv(path: str, traj) -> None:
    lines = [CSV_HEADER]
    for t, x, u in zip(traj.times, traj.states, traj.control):
        b = bis(max(float(x[3]), 0.0))
        cells = [t, x[0], x[1], x[2], x[3], u, b]
        lines.append(",".join(f"{_g10(c):.10g}" for c in cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
    _, params, _ = _resolve(cfg)
    sys_ = assemble_system(params)
    try:
        with open(schedule_path) as fh:
            schedule = ControlSchedule.from_dict(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read schedule file: {exc}") from exc
    except DomainError as exc:  # before ValueError, its base class
        raise ConfigError(f"schedule file {schedule_path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"schedule file is not valid JSON: {exc}") from exc
    os.makedirs(cfg.out, exist_ok=True)
    out_path = os.path.join(cfg.out, "simulated.csv")
    traj = sample_trajectory(sys_, schedule, cfg.step, x0=np.array(cfg.x0))
    _write_trajectory_csv(out_path, traj)
    print(out_path)
    return 0


def main(argv=None) -> int:
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

    args = parser.parse_args(argv)
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
