"""Seeded case sets for the three workloads.

The default seed (0) gives the fixed clinical panel and population below,
whose strategy final times are frozen in ``data/frozen_seed0.json``. Any
other seed draws the six population patients from the Schnider validity
range, restricted to a positive James lean body mass; for those seeds only
the invariant output checks apply.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace

DEFAULT_SEED = 0

REFERENCE = ("male", 53.0, 77.0, 177.0)
U_MAX_REF = 106.0907

DEFAULT_PATIENTS = (
    REFERENCE,
    ("female", 30.0, 55.0, 160.0),
    ("male", 80.0, 70.0, 170.0),
    ("female", 65.0, 62.0, 158.0),
    ("male", 28.0, 95.0, 188.0),
    ("female", 45.0, 82.0, 168.0),
)

# Schnider et al. (1998) volunteer ranges: age y, weight kg, height cm
AGE_RANGE = (26.0, 81.0)
WEIGHT_RANGE = (44.0, 123.0)
HEIGHT_RANGE = (155.0, 196.0)

RATIOS = (2.0, 5.0, 17.4, 40.0)        # u_max / u_e
BIS_TARGETS = (40.0, 50.0, 60.0)
REDOSE_FRACTIONS = (0.3, 0.6)          # x0 = fraction * x_e
STEP = 1e-3                            # CLI sampling step, min


@dataclass(frozen=True)
class Case:
    """One solve: a patient, a pump bound and a target.

    The bound is ``u_max`` when given, else ``ratio`` times the equilibrium
    rate u_e at the case's BIS target. ``x0_frac`` scales x_e into a
    re-dosing start state.
    """

    id: str
    sex: str
    age: float
    weight: float
    height: float
    bis: float = 50.0
    ratio: float | None = None
    u_max: float | None = None
    x0_frac: float = 0.0

    @property
    def patient(self) -> tuple:
        return (self.sex, self.age, self.weight, self.height)


def _james_lbm(sex: str, weight: float, height: float) -> float:
    r2 = (weight / height) ** 2
    return (1.1 * weight - 128.0 * r2 if sex == "male"
            else 1.07 * weight - 148.0 * r2)


def draw_patients(seed: int, count: int = 6) -> list:
    """``count`` patients for ``seed``; the default seed gives the fixed six.

    Other seeds draw a Latin hypercube over age, weight and height (one
    draw per stratum of each range, strata paired at random) with the sexes
    split evenly, so every seed spans the validity range and seeds differ in
    the patients, not in how much of the range they cover.
    """
    if seed == DEFAULT_SEED:
        return list(DEFAULT_PATIENTS[:count])
    rng = random.Random(seed)
    sexes = ["male", "female"] * (count // 2) + ["male"] * (count % 2)
    rng.shuffle(sexes)
    columns = []
    for lo, hi in (AGE_RANGE, WEIGHT_RANGE, HEIGHT_RANGE):
        width = (hi - lo) / count
        strata = list(range(count))
        rng.shuffle(strata)
        columns.append([lo + width * (k + rng.random()) for k in strata])
    out = []
    for sex, age, weight, height in zip(sexes, *columns):
        while _james_lbm(sex, weight, height) <= 0:
            weight = rng.uniform(WEIGHT_RANGE[0], weight)
        out.append((sex, round(age, 1), round(weight, 1), round(height, 1)))
    return out


def population_cases(seed: int) -> list:
    """6 patients x 4 bounds x 3 BIS targets, plus the re-dosing cases."""
    patients = draw_patients(seed)
    cases = []
    for i, pat in enumerate(patients):
        for ratio in RATIOS:
            for b in BIS_TARGETS:
                cases.append(Case(f"p{i}-r{ratio:g}-bis{b:g}", *pat,
                                  bis=b, ratio=ratio))
    # re-dosing runs on the first patient at its clinical bound
    first = patients[0]
    bound = ({"u_max": U_MAX_REF} if seed == DEFAULT_SEED
             else {"ratio": 17.4})
    for frac in REDOSE_FRACTIONS:
        cases.append(Case(f"p0-redose{frac:g}", *first, bis=50.0,
                          x0_frac=frac, **bound))
    return cases


def replay_cases(seed: int) -> list:
    """The BIS-50 population cases and the re-dosing cases."""
    return [c for c in population_cases(seed) if c.bis == 50.0]


def induction_cases(seed: int) -> list:
    """The clinical panel; a non-default seed only shuffles the order.

    The panel is fixed because a drawn patient could make shooting run
    unbounded, which would turn the seed into a failure generator.
    """
    ref = Case("reference", *REFERENCE, u_max=U_MAX_REF)
    cases = [
        ref,
        Case("female30", "female", 30.0, 55.0, 160.0, ratio=17.4),
        Case("male80", "male", 80.0, 70.0, 170.0, ratio=17.4),
        replace(ref, id="redose0.3", x0_frac=0.3),
        replace(ref, id="bound2ue", u_max=None, ratio=2.0),
    ]
    if seed != DEFAULT_SEED:
        random.Random(seed).shuffle(cases)
    return cases


def build(case: Case):
    """The case's problem, built through the package's public API."""
    from anesopt import patient, problem

    demo = patient.PatientDemographics(case.sex, case.age, case.weight,
                                       case.height)
    params = patient.schnider_parameters(demo)
    eq = patient.equilibrium(params, patient.bis_inverse(case.bis))
    u_max = case.u_max if case.u_max is not None else case.ratio * eq.u_e
    x0 = case.x0_frac * eq.x_e if case.x0_frac else None
    return problem.build_problem(params, u_max, case.bis, x0=x0)


def cli_config(case: Case, prob) -> dict:
    """The flat CLI config document for a built case."""
    return {"sex": case.sex, "age": case.age, "weight": case.weight,
            "height": case.height, "u_max": prob.u_max,
            "bis_target": case.bis, "x0": [float(v) for v in prob.x0]}


CASES = {
    "induction-panel": induction_cases,
    "strategy-population": population_cases,
    "replay": replay_cases,
}
