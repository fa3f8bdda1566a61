"""Write the coverage corpus: what each route answers on a fixed set of cases.

    python scripts/coverage_corpus.py [--out tests/data/coverage.json]

The cases, 200 in all, each with its patient, BIS target, u_max and x0:

- population: the six panel patients at u_max / u_e in {2, 5, 17.4, 40}
  and BIS 40, 50 and 60 from rest, and the reference patient re-dosed from
  0.3 x_e and 0.6 x_e at its clinical bound
- grid: three patients at u_max / u_e in {2, 5, 17.4} from the
  non-equilibrium starts x0 = x_e * (f1, 0.3, 0.3, f4), f1 in
  {0.5, 1, 2, 3}, f4 in {0.2, 0.5, 0.8}
- ray: the reference patient at its clinical bound from s (43.554, 19.2711,
  243.9024, 2.72), where the optimal bolus shrinks to nothing near
  s = 0.81462
- x4hi: the reference patient from a start with x4 above its target
- slow: the grid's three patients from rest at u_max = 6.2 and at 1.05,
  1.2 and 2 u_e

For each route the record holds its status and, where it answers, t_f: the
strategy route's status is "certified", "uncertified" or the error it
raises, and shooting's is "solved" or its error. The run is deterministic,
and the file is written one case a line with sorted keys, so a rerun on
the same code writes the same bytes. tests/test_coverage.py replays the
file, and the tests rebuild its problems through problem().
"""
import argparse
import json
import os
import sys

if __name__ == "__main__":  # run from a checkout, with no install
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from anesopt.errors import (DomainError, InfeasibleError, IntegrationError,
                            NoConvergenceError)
from anesopt.patient import (PatientDemographics, bis_inverse, equilibrium,
                             schnider_parameters)
from anesopt.problem import build_problem
from anesopt.shooting import solve_shooting
from anesopt.strategies import solve_time_optimal

U_MAX_REF = 106.0907
REFERENCE = ("male", 53.0, 77.0, 177.0)
PANEL = (
    REFERENCE,
    ("female", 30.0, 55.0, 160.0),
    ("male", 80.0, 70.0, 170.0),
    ("female", 65.0, 62.0, 158.0),
    ("male", 28.0, 95.0, 188.0),
    ("female", 45.0, 82.0, 168.0),
)
HOT = (43.554, 19.2711, 243.9024, 2.72)
RAY = (0.813, 0.814, 0.8146, 0.81462, 0.8147)
X4HI = (2.0, 19.2711, 243.9024, 4.0)
FAILURES = (DomainError, InfeasibleError, IntegrationError,
            NoConvergenceError)


def _equilibrium(patient, bis):
    params = schnider_parameters(PatientDemographics(*patient))
    return equilibrium(params, bis_inverse(bis))


def _case(patient, u_max, x0=(0.0, 0.0, 0.0, 0.0), bis=50.0):
    return {"patient": list(patient), "bis": bis, "u_max": float(u_max),
            "x0": [float(v) for v in x0]}


def _name(patient):
    return f"{patient[0]}{patient[1]:g}"


def cases() -> dict:
    """Case name -> inputs, in a fixed order."""
    out = {}
    for i, patient in enumerate(PANEL):
        for ratio in (2.0, 5.0, 17.4, 40.0):
            for bis in (40.0, 50.0, 60.0):
                u_e = _equilibrium(patient, bis).u_e
                out[f"population/p{i}-r{ratio:g}-bis{bis:g}"] = _case(
                    patient, ratio * u_e, bis=bis)
    x_e = _equilibrium(REFERENCE, 50.0).x_e
    for frac in (0.3, 0.6):
        out[f"population/p0-redose{frac:g}"] = _case(REFERENCE, U_MAX_REF,
                                                     frac * x_e)
    for patient in PANEL[:3]:
        eq = _equilibrium(patient, 50.0)
        for ratio in (2.0, 5.0, 17.4):
            for f1 in (0.5, 1.0, 2.0, 3.0):
                for f4 in (0.2, 0.5, 0.8):
                    name = f"{_name(patient)}-{ratio:g}ue-f1{f1:g}-f4{f4:g}"
                    out["grid/" + name] = _case(patient, ratio * eq.u_e,
                                                eq.x_e * [f1, 0.3, 0.3, f4])
    for s in RAY:
        out[f"ray/s{s:g}"] = _case(REFERENCE, U_MAX_REF,
                                   [s * v for v in HOT])
    out["x4hi"] = _case(REFERENCE, U_MAX_REF, X4HI)
    for patient in PANEL[:3]:
        u_e = _equilibrium(patient, 50.0).u_e
        out[f"slow/{_name(patient)}-u6.2"] = _case(patient, 6.2)
        for ratio in (1.05, 1.2, 2.0):
            out[f"slow/{_name(patient)}-{ratio:g}ue"] = _case(patient,
                                                             ratio * u_e)
    return out


def problem(case: dict):
    """The case's TimeOptimalProblem, built through the public API."""
    params = schnider_parameters(PatientDemographics(*case["patient"]))
    return build_problem(params, case["u_max"], case["bis"], x0=case["x0"])


def strategy_outcome(prob) -> dict:
    try:
        best = solve_time_optimal(prob)
    except FAILURES as exc:
        return {"status": type(exc).__name__}
    return {"status": "certified" if best.certified else "uncertified",
            "strategy": best.strategy, "t_f": best.t_f}


def shooting_outcome(prob) -> dict:
    try:
        cert = solve_shooting(prob)
    except FAILURES as exc:
        return {"status": type(exc).__name__}
    return {"status": "solved", "t_f": cert.t_f}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(
        os.path.dirname(__file__), "..", "tests", "data", "coverage.json"))
    args = ap.parse_args(argv)
    corpus = {}
    for name, case in cases().items():
        prob = problem(case)
        corpus[name] = {**case, "strategy": strategy_outcome(prob),
                        "shooting": shooting_outcome(prob)}
    # one case a line, so a re-freeze shows in a diff case by case
    lines = [f"{json.dumps(name)}: {json.dumps(corpus[name], sort_keys=True)}"
             for name in sorted(corpus)]
    with open(args.out, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
