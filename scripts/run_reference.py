"""Solve the reference patient end to end with both methods and compare.

Writes the usual solver artifacts under --out and prints a small table:

    python scripts/run_reference.py [--config configs/reference.json] [--out out]
"""
import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from anesopt.cli import load_config, main as cli_main
from anesopt.patient import (PatientDemographics, bis, bis_inverse, equilibrium,
                             schnider_parameters)
from anesopt.problem import build_problem, sample_trajectory
from anesopt.shooting import solve_shooting
from anesopt.strategies import solve_all_patterns, solve_time_optimal


def run(config_path: str, out_dir: str) -> int:
    cfg = load_config(config_path, out=out_dir)
    demo = PatientDemographics(sex=cfg.sex, age=cfg.age, weight=cfg.weight,
                               height=cfg.height)
    params = schnider_parameters(demo)
    prob = build_problem(params, cfg.u_max, cfg.bis_target)

    print(f"patient: {cfg.sex}, {cfg.age:g} y, {cfg.weight:g} kg, {cfg.height:g} cm")
    eq = equilibrium(params, bis_inverse(cfg.bis_target))
    print(f"targets: x1 = {prob.target_fast[0]:.4f} mg, x4 = {prob.target_fast[1]:.4f} mg"
          f"  (u_e = {eq.u_e:.4f} mg/min, bound u_max = {cfg.u_max:g})")
    print()

    print("strategy enumeration (all eight patterns):")
    results = solve_all_patterns(prob)
    for r in results:
        if r.feasible:
            print(f"  strategy {r.strategy}: t_f = {r.t_f:.6f} min  "
                  f"switches at {[round(b, 6) for b in r.schedule.breakpoints]}  "
                  f"certified {r.certified}")
        else:
            print(f"  strategy {r.strategy}: infeasible ({r.note})")
    best = solve_time_optimal(prob)

    cert = solve_shooting(prob)

    print()
    print(f"{'method':<10} {'t_f (min)':>12} {'t_c (min)':>12} {'residual':>12}")
    strat_resid = float(np.linalg.norm(best.residual, np.inf))
    print(f"{'strategy':<10} {best.t_f:>12.6f} "
          f"{best.schedule.breakpoints[0]:>12.6f} {strat_resid:>12.2e}")
    print(f"{'shooting':<10} {cert.t_f:>12.6f} {cert.switch_times[0]:>12.6f} "
          f"{cert.residual_norm:>12.2e}")
    print(f"{'delta':<10} {abs(best.t_f - cert.t_f):>12.2e} "
          f"{abs(best.schedule.breakpoints[0] - cert.switch_times[0]):>12.2e}")

    x_end = sample_trajectory(prob.sys, best.schedule,
                              step=best.schedule.t_f).states[-1]
    print()
    print(f"endpoint state: {np.array2string(x_end, precision=4)}")
    print(f"endpoint BIS:   {bis(x_end[3]):.4f}")

    rc = cli_main(["solve", "--config", config_path, "--out", out_dir])
    print(f"\nartifacts written to {out_dir}/ (exit {rc})")
    return rc


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_cfg = os.path.join(os.path.dirname(__file__), "..", "configs",
                               "reference.json")
    ap.add_argument("--config", default=default_cfg)
    ap.add_argument("--out", default="out")
    args = ap.parse_args()
    raise SystemExit(run(args.config, args.out))
