"""Patient-specific PK/PD model: Schnider rate constants from demographics,
the four-compartment system matrices, the BIS effect map, and the BIS-target
equilibrium.

Units: mass mg, time min, volume L, height cm, weight kg, age years.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDemographicsError, DomainError, ParameterRangeError
from .lti import LTISystem


@dataclass(frozen=True)
class PatientDemographics:
    """The patient covariates of the Schnider model: sex "male" or
    "female", age in years, weight in kg and height in cm, each positive.
    `schnider_parameters` checks them against SCHNIDER_RANGE."""

    sex: str
    age: float
    weight: float
    height: float

    def __post_init__(self):
        if self.sex not in ("male", "female"):
            raise DomainError(f"sex must be 'male' or 'female', got {self.sex!r}")
        if self.age <= 0 or self.weight <= 0 or self.height <= 0:
            raise DomainError("age, weight and height must be positive")


@dataclass(frozen=True)
class PKPDParameters:
    """Rate constants in 1/min plus the central volume v1 in L."""

    a10: float
    a12: float
    a13: float
    a21: float
    a31: float
    ae0: float
    v1: float

    def __post_init__(self):
        for name in ("a10", "a12", "a13", "a21", "a31", "ae0", "v1"):
            value = getattr(self, name)
            if not value > 0:
                raise ParameterRangeError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class EquilibriumState:
    """The steady state that holds the effect site at one level: x_e, a
    read-only 4-vector (x1-x3 in mg, x4 = the level in mg/L), and u_e, the
    constant infusion in mg/min that holds it, a10 v1 times the level."""

    x_e: np.ndarray
    u_e: float


# Schnider et al. (1998) volunteer range, inclusive: age y, weight kg,
# height cm. The model is defined only here, and every system in it has a
# real, well-separated spectrum (smallest eigenvalue gap 0.0315, at male
# 26 y, 44 kg, 155 cm).
SCHNIDER_RANGE = {"age": (26.0, 81.0), "weight": (44.0, 123.0),
                  "height": (155.0, 196.0)}

# BIS effect curve: the awake score, the effect-site level at half effect,
# and the Hill exponent
BIS0 = 100.0
EC50 = 3.4
BIS_GAMMA = 3.0


def lean_body_mass(sex: str, weight: float, height: float) -> float:
    """James-formula lean body mass; weight in kg, height in cm."""
    if weight <= 0 or height <= 0:
        raise DomainError("weight and height must be positive")
    r2 = (weight / height) ** 2
    if sex == "male":
        lbm = 1.1 * weight - 128.0 * r2
    elif sex == "female":
        lbm = 1.07 * weight - 148.0 * r2
    else:
        raise DomainError(f"sex must be 'male' or 'female', got {sex!r}")
    if lbm <= 0:
        raise DegenerateDemographicsError(
            f"lean body mass {lbm:.3g} kg is non-physical for w={weight}, h={height}")
    return lbm


def schnider_parameters(demo: PatientDemographics) -> PKPDParameters:
    """Schnider regression for the four-compartment propofol model; raises
    ParameterRangeError outside SCHNIDER_RANGE."""
    for name, (lo, hi) in SCHNIDER_RANGE.items():
        value = getattr(demo, name)
        if not lo <= value <= hi:  # NaN fails this too
            raise ParameterRangeError(
                f"{name} {value} is outside the Schnider range [{lo}, {hi}]")
    lbm = lean_body_mass(demo.sex, demo.weight, demo.height)
    a10 = (0.443 + 0.0107 * (demo.weight - 77.0)
           - 0.0159 * (lbm - 59.0) + 0.0062 * (demo.height - 177.0))
    a12 = 0.302 - 0.0056 * (demo.age - 53.0)
    a21 = ((1.29 - 0.024 * (demo.age - 53.0))
           / (18.9 - 0.391 * (demo.age - 53.0)))
    return PKPDParameters(a10=a10, a12=a12, a13=0.196, a21=a21,
                          a31=0.0035, ae0=0.456, v1=4.27)


def assemble_system(p: PKPDParameters) -> LTISystem:
    """Four-compartment system: blood, muscle, fat, effect site."""
    A = np.array([
        [-(p.a10 + p.a12 + p.a13), p.a21, p.a31, 0.0],
        [p.a12, -p.a21, 0.0, 0.0],
        [p.a13, 0.0, -p.a31, 0.0],
        [p.ae0 / p.v1, 0.0, 0.0, -p.ae0],
    ])
    B = np.array([1.0, 0.0, 0.0, 0.0])
    return LTISystem.from_matrices(A, B)


def bis(x4):
    """Decreasing sigmoid from effect-site level to the BIS score.

    x4 is a scalar, which gives a float, or an array, which gives an array
    of its shape. Per element x4**γ is libm pow (np.float_power calls it, as
    Python's float ** does; numpy's SIMD np.power can differ in the last
    bit) and the rest is float64 arithmetic, so an array gives the scalar
    values bit for bit. A negative or NaN x4, or one whose x4**γ is not
    finite, raises DomainError.
    """
    x = np.asarray(x4, dtype=float)
    if not np.all(x >= 0):  # NaN fails this too
        raise DomainError("effect-site level must be nonnegative")
    with np.errstate(over="ignore"):
        xg = np.float_power(x, BIS_GAMMA)
    if not np.all(np.isfinite(xg)):
        raise DomainError(f"effect-site level too large: x4**{BIS_GAMMA:g} "
                          "overflows")
    b = BIS0 * (1.0 - xg / (xg + EC50 ** BIS_GAMMA))
    return float(b) if b.ndim == 0 else b


def bis_inverse(target_bis: float) -> float:
    """Effect-site level achieving a BIS score; inverse of bis()."""
    if not 0 < target_bis < BIS0:
        raise DomainError(f"BIS target must lie in (0, {BIS0})")
    return EC50 * ((BIS0 - target_bis) / target_bis) ** (1.0 / BIS_GAMMA)


def equilibrium(p: PKPDParameters, level: float) -> EquilibriumState:
    """Steady state holding the effect site at the given level."""
    if not 0 < level < np.inf:
        raise DomainError(
            f"effect-site level must be positive and finite, got {level}")
    x_e = np.array([
        p.v1 * level,
        p.a12 * p.v1 * level / p.a21,
        p.a13 * p.v1 * level / p.a31,
        level,
    ])
    x_e.setflags(write=False)
    return EquilibriumState(x_e=x_e, u_e=p.a10 * p.v1 * level)
