import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anesopt.errors import (DegenerateDemographicsError, DomainError,
                            ParameterRangeError)
from anesopt.patient import (BIS0, BIS_GAMMA, EC50, SCHNIDER_RANGE,
                             PatientDemographics, PKPDParameters,
                             assemble_system, bis, bis_inverse, equilibrium,
                             lean_body_mass, schnider_parameters)

from conftest import FROZEN


def test_lean_body_mass_male():
    assert lean_body_mass("male", 77.0, 177.0) == pytest.approx(
        FROZEN["lbm_male"], abs=1e-12)


def test_lean_body_mass_female():
    assert lean_body_mass("female", 77.0, 177.0) == pytest.approx(
        FROZEN["lbm_female"], abs=1e-12)


def test_lean_body_mass_rejects_nonphysical():
    # heavy + short pushes the quadratic term past the linear one
    with pytest.raises(DegenerateDemographicsError):
        lean_body_mass("male", 200.0, 140.0)


def test_lean_body_mass_rejects_unknown_sex():
    with pytest.raises(DomainError):
        lean_body_mass("unspecified", 77.0, 177.0)


@pytest.mark.parametrize("field,value", [
    ("age", 0.0), ("age", -1.0),
    ("weight", 0.0), ("weight", -5.0),
    ("height", 0.0), ("height", -170.0),
])
def test_demographics_must_be_positive(field, value):
    kw = dict(sex="male", age=53.0, weight=77.0, height=177.0)
    kw[field] = value
    with pytest.raises(DomainError):
        PatientDemographics(**kw)


def test_demographics_rejects_unknown_sex():
    with pytest.raises(DomainError):
        PatientDemographics(sex="?", age=53.0, weight=77.0, height=177.0)


def test_rates_degenerate_far_outside_validity():
    # past the range the denominator of a21 changes sign near age 101
    demo = PatientDemographics(sex="male", age=102.0, weight=77.0, height=177.0)
    with pytest.raises(ParameterRangeError):
        schnider_parameters(demo)


def test_schnider_reference_rates(ref_params):
    assert ref_params.a10 == pytest.approx(FROZEN["a10"], abs=1e-14)
    assert ref_params.a21 == pytest.approx(FROZEN["a21"], abs=1e-14)
    assert ref_params.a12 == pytest.approx(0.302, abs=1e-14)
    assert ref_params.a13 == 0.196
    assert ref_params.a31 == 0.0035
    assert ref_params.ae0 == 0.456
    assert ref_params.v1 == 4.27


def test_parameters_must_be_positive():
    with pytest.raises(ParameterRangeError):
        PKPDParameters(a10=-0.1, a12=0.3, a13=0.196, a21=0.07, a31=0.0035,
                       ae0=0.456, v1=4.27)


def test_system_assembly(ref_sys, ref_params):
    p = ref_params
    A = ref_sys.A
    assert A[0, 0] == pytest.approx(-(p.a10 + p.a12 + p.a13), abs=1e-15)
    assert A[0, 1] == p.a21 and A[0, 2] == p.a31 and A[0, 3] == 0.0
    assert A[1, 0] == p.a12 and A[1, 1] == -p.a21
    assert A[2, 0] == p.a13 and A[2, 2] == -p.a31
    assert A[3, 0] == pytest.approx(FROZEN["a41"], abs=1e-14)
    assert A[3, 3] == -p.ae0
    assert np.array_equal(ref_sys.B, np.array([1.0, 0.0, 0.0, 0.0]))


def test_bis_anchor_values():
    assert bis(0.0) == 100.0
    assert bis(3.4) == pytest.approx(50.0, abs=1e-12)
    assert bis(6.8) == pytest.approx(FROZEN["bis_6_8"], abs=1e-12)


def test_bis_rejects_negative_level():
    with pytest.raises(DomainError):
        bis(-0.001)
    with pytest.raises(DomainError):
        bis(float("nan"))


# zeros, subnormals, the anchors, and 9.994132051438763, where numpy's SIMD
# array power (x86-64, AVX-512) and libm pow differ in the last bit
BIS_SPECIALS = (-0.0, 0.0, 1e-300, 5e-324, 2.5e-310, 0.5, 1.0, 3.4, 6.8,
                1234567890.5, 9.994132051438763)


def _bis_on_floats(v: float) -> float:
    """The BIS curve on Python floats, whose ** is libm pow."""
    xg = v ** BIS_GAMMA
    return BIS0 * (1.0 - xg / (xg + EC50 ** BIS_GAMMA))


def test_array_bis_is_the_scalar_bis_bit_for_bit():
    # uniform over the clinical range, then log-uniform from 1e-300 to 1e100,
    # where x4**3 runs from underflow to just short of overflow
    rng = np.random.default_rng(3)
    x4 = np.concatenate([BIS_SPECIALS, rng.uniform(0.0, 10.0, 500),
                         10.0 ** rng.uniform(-300.0, 100.0, 20_000)])
    want = np.array([_bis_on_floats(v) for v in x4.tolist()])
    got = bis(x4)
    assert got.shape == x4.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    scalar = np.array([bis(v) for v in x4.tolist()])
    assert np.array_equal(scalar.view(np.int64), want.view(np.int64))
    grid = bis(x4[:500].reshape(20, 25))
    assert np.array_equal(grid.ravel().view(np.int64), want[:500].view(np.int64))
    assert type(bis(np.float64(9.994132051438763))) is float


@pytest.mark.parametrize("bad", [-1e-12, -5e-324, float("nan")])
def test_array_bis_rejects_a_negative_or_nan_entry(bad):
    with pytest.raises(DomainError):
        bis(np.array([*BIS_SPECIALS, bad, 2.0]))


@pytest.mark.parametrize("big", [5.7e102, 1e120, float("inf")])
def test_bis_rejects_a_level_whose_power_overflows(big):
    # x4**3 is not finite past about 5.64e102; 1e100 still has a score
    assert bis(1e100) == 0.0
    for x4 in (big, np.array([*BIS_SPECIALS, big, 2.0])):
        with pytest.raises(DomainError, match="overflows"):
            bis(x4)


@pytest.mark.parametrize("target", [0.0, 100.0, -5.0, 120.0])
def test_bis_inverse_domain(target):
    with pytest.raises(DomainError):
        bis_inverse(target)


def test_bis_inverse_at_half_effect():
    assert bis_inverse(50.0) == pytest.approx(3.4, rel=1e-14)


@given(st.floats(min_value=0.01, max_value=20.0),
       st.floats(min_value=1.001, max_value=3.0))
@settings(max_examples=100, deadline=None)
def test_bis_strictly_decreasing(x4, ratio):
    # separated pair: adjacent floats near 0 would underflow the difference
    assert bis(x4) > bis(x4 * ratio)


@given(st.floats(min_value=0.2, max_value=20.0))
@settings(max_examples=100, deadline=None)
def test_bis_round_trip(x4):
    # below ~0.2 the 100 - b subtraction cancels past the 1e-12 bound
    assert bis_inverse(bis(x4)) == pytest.approx(x4, rel=1e-12)


@given(st.floats(min_value=1.0, max_value=99.0))
@settings(max_examples=100, deadline=None)
def test_bis_round_trip_from_score(score):
    assert bis(bis_inverse(score)) == pytest.approx(score, rel=1e-12)


def test_system_sign_structure(ref_sys):
    A = ref_sys.A
    off = A[~np.eye(4, dtype=bool)]
    assert np.all(off >= 0)
    assert np.all(np.diag(A) < 0)


def test_equilibrium_is_homogeneous(ref_params):
    # level 0 is rejected, so homogeneity is checked by doubling the level;
    # a factor of two is exact in floating point
    one, two = equilibrium(ref_params, 1.7), equilibrium(ref_params, 3.4)
    assert np.array_equal(two.x_e, 2.0 * one.x_e)
    assert two.u_e == 2.0 * one.u_e


@pytest.mark.parametrize("level", [np.nan, -1.0, 0.0, np.inf])
def test_equilibrium_rejects_a_level_not_positive_and_finite(ref_params,
                                                            level):
    with pytest.raises(DomainError):
        equilibrium(ref_params, level)


def test_equilibrium_reference(ref_eq):
    assert np.allclose(ref_eq.x_e, FROZEN["x_e"], rtol=0, atol=1e-10)
    assert ref_eq.u_e == pytest.approx(FROZEN["u_e"], abs=1e-12)


def test_equilibrium_state_is_write_protected(ref_eq):
    with pytest.raises(ValueError):
        ref_eq.x_e[0] = 0.0


_demo_strategy = st.builds(
    PatientDemographics,
    sex=st.sampled_from(["male", "female"]),
    **{name: st.floats(min_value=lo, max_value=hi)
       for name, (lo, hi) in SCHNIDER_RANGE.items()},
)


def _at_the_corners(test):
    """An @example at each of the eight corners of the range, per sex."""
    for sex in ("male", "female"):
        for corner in itertools.product(*SCHNIDER_RANGE.values()):
            test = example(PatientDemographics(sex, *corner))(test)
    return test


@given(_demo_strategy)
@settings(max_examples=60, deadline=None)
# male 26 y, 44 kg, 155 cm has the smallest eigenvalue gap (0.0315) found
# on a 23^3 grid per sex
@_at_the_corners
def test_parameter_box_property(demo):
    """Inside the Schnider range the rates are positive and the system
    constructs, so its spectrum is real and separated; it is also strictly
    negative."""
    p = schnider_parameters(demo)  # would raise on a non-positive rate
    sysm = assemble_system(p)  # would raise on an inadmissible spectrum
    assert np.isrealobj(sysm.eigenvalues)
    assert np.all(sysm.eigenvalues < 0)


@pytest.mark.parametrize("field", list(SCHNIDER_RANGE))
@pytest.mark.parametrize("side", ["low", "high"])
def test_schnider_range_is_inclusive(field, side):
    # perfbench draws round to 0.1 and can land exactly on an edge
    lo, hi = SCHNIDER_RANGE[field]
    edge, away = (lo, -np.inf) if side == "low" else (hi, np.inf)
    for sex in ("male", "female"):
        kw = dict(sex=sex, age=53.0, weight=77.0, height=177.0)
        kw[field] = edge
        assemble_system(schnider_parameters(PatientDemographics(**kw)))
        kw[field] = float(np.nextafter(edge, away))
        with pytest.raises(ParameterRangeError, match=field):
            schnider_parameters(PatientDemographics(**kw))


@given(_demo_strategy, st.floats(min_value=0.5, max_value=8.0))
@settings(max_examples=60, deadline=None)
def test_equilibrium_residual_property(demo, level):
    """A x_e + B u_e = 0 to near machine precision for any patient/level."""
    p = schnider_parameters(demo)
    sysm = assemble_system(p)
    eq = equilibrium(p, level)
    assert np.max(np.abs(sysm.A @ eq.x_e + sysm.B * eq.u_e)) < 1e-12

