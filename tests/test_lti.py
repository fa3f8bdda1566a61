"""Linear-systems kernel tests.

The matrix exponential, which the library applies through the
eigendecomposition in its zero-input propagator, is checked against an
extended-precision Taylor oracle written here, and against scipy as a third
route. The integrator is checked against the propagator.
"""
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings, strategies as st

from anesopt.errors import DomainError, IntegrationError
from anesopt.lti import (
    LTISystem,
    Trajectory,
    _dense,
    _dense_rows,
    _error_norm,
    _steps,
    constant_input_propagator,
    integrate,
    integrate_with_sign_event,
)

from conftest import EXPECTED_EIGS, FROZEN, U_MAX_REF, expm, kalman_rank

# the relative and absolute step tolerances of the integrator tests
TOL = {"tol": 1e-10, "atol": 1e-12}


def propagate(sys, x0, u, dt):
    return constant_input_propagator(sys, u)(x0, dt)


def flow_matrix(sys, t):
    """e^(A t) as the runtime applies it: the zero-input propagator on each
    basis vector, one column each."""
    return np.column_stack([propagate(sys, e, 0.0, t) for e in np.eye(sys.n)])


def augmented_flow(sys, x0, u, dt):
    """Third route: scipy's exponential of [[A, B u], [0, 0]] on (x0, 1)."""
    n = sys.n
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = sys.A
    M[:n, n] = sys.B * u
    return (scipy.linalg.expm(M * dt) @ np.append(x0, 1.0))[:n]


def taylor_expm(M, terms=30, squarings=20):
    """Independent oracle: fixed 20 doublings, 30-term series, no shortcuts.

    Runs in extended precision because 20 repeated squarings amplify
    rounding by ~2^20, which would swamp a 1e-12 comparison in float64.
    """
    Ms = np.asarray(M, dtype=np.longdouble) / np.longdouble(2.0) ** squarings
    E = np.eye(Ms.shape[0], dtype=np.longdouble)
    T = np.eye(Ms.shape[0], dtype=np.longdouble)
    for k in range(1, terms + 1):
        T = T @ Ms / k
        E = E + T
    for _ in range(squarings):
        E = E @ E
    return E.astype(float)


# ---------------------------------------------------------------- expm

def test_expm_zero_time_is_identity(ref_sys):
    assert np.array_equal(expm(np.diag([-1.0, -2.0, -3.0]), 0.0), np.eye(3))
    assert np.allclose(flow_matrix(ref_sys, 0.0), np.eye(4), atol=1e-14)


def test_expm_diagonal_matrix():
    d = np.array([-0.5, -2.0, 1.25])
    E = expm(np.diag(d), 0.8)
    assert np.allclose(E, np.diag(np.exp(d * 0.8)), rtol=0, atol=1e-13)


def test_expm_reference_system_vs_series_oracle(ref_sys):
    E = expm(ref_sys.A, 1.0)
    assert np.max(np.abs(E - taylor_expm(ref_sys.A))) < 1e-12


def test_expm_reference_system_vs_scipy(ref_sys):
    for t in (0.25, 1.0, 5.0, 30.0):
        E = flow_matrix(ref_sys, t)
        assert np.max(np.abs(E - scipy.linalg.expm(ref_sys.A * t))) < 1e-11


def test_expm_rejects_non_finite():
    bad = np.array([[0.0, np.nan], [0.0, 0.0]])
    with pytest.raises(DomainError):
        expm(bad, 1.0)


def test_expm_spectral_path_on_separated_spectrum():
    rng = np.random.default_rng(7)
    R = rng.normal(size=(4, 4)) + 4 * np.eye(4)
    A = R @ np.diag([-0.1, -1.0, -3.0, -7.0]) @ np.linalg.inv(R)
    sys = LTISystem.from_matrices(A, [1, 0, 0, 0])
    assert np.isrealobj(sys.eigenvalues)
    for t in (0.1, 1.0, 2.5):
        assert np.max(np.abs(flow_matrix(sys, t) - taylor_expm(A * t))) < 1e-10


@pytest.mark.parametrize("A", [
    np.array([[0.0, 1.0], [-1.0, 0.0]]),           # complex
    np.array([[-1.0, 1.0], [0.0, -1.0 + 1e-9]]),   # clustered, gap 1e-9
    np.zeros((2, 2)),                              # zero matrix
    np.array([[-1.0, 1.0], [0.0, -1.0]]),          # Jordan block
    # an eigenvalue at or within 1e-6 of 0: a pure integrator mode, a
    # 4-compartment chain whose last compartment only accumulates, and
    # denormal eigenvalues, where Vi B u / lam overflows to NaN or inf states
    np.array([[-2.0, 0.0], [1.0, 0.0]]),
    np.array([[-2.0, 0.0, 0.0, 0.0],
              [1.0, -1.0, 0.0, 0.0],
              [0.0, 0.5, -0.5, 0.0],
              [0.0, 0.0, 0.25, 0.0]]),
    np.array([[-2.0, 0.0], [1.0, 5e-324]]),
    np.array([[-2.0, 0.0], [1.0, 1e-310]]),
    np.array([[-2.0, 0.0], [1.0, -5e-7]]),         # inside the 1e-6 bound
], ids=["complex", "clustered", "zero", "jordan", "singular",
        "integrator-chain", "denormal-5e-324", "denormal-1e-310",
        "near-zero"])
def test_from_matrices_rejects_a_spectrum_that_is_not_real_and_separated(A):
    with pytest.raises(DomainError, match="spectrum"):
        LTISystem.from_matrices(A, np.ones(len(A)))


def test_propagator_near_the_zero_bound_matches_the_augmented_flow():
    # the smallest admitted |lam| is just past the 1e-6 bound, where
    # expm1(lam dt) / lam is still exact: a slow mode grows almost linearly
    A = np.array([[-2.0, 0.0], [1.0, -2e-6]])
    sys = LTISystem.from_matrices(A, [1.0, 1.0])
    assert np.min(np.abs(sys.eigenvalues)) < 3e-6
    step = constant_input_propagator(sys, 1.5)
    x0 = np.array([0.4, -1.0])
    dts = (1e-6, 0.5, 3.0)
    for dt in dts:
        x = step(x0, dt)
        assert np.max(np.abs(x - augmented_flow(sys, x0, 1.5, dt))) < 1e-12
    rows = step(x0, np.array(dts))
    assert np.max(np.abs(rows - [step(x0, dt) for dt in dts])) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(st.floats(-0.2, 0.2), min_size=16, max_size=16),
    gaps=st.lists(st.floats(0.1, 2.0), min_size=4, max_size=4),
    s=st.floats(0.0, 5.0),
    t=st.floats(0.0, 5.0),
)
def test_expm_semigroup_property(entries, gaps, s, t):
    # A = R diag(lam) R^-1 with negative lam at least 0.1 apart; the entries
    # of R - I give ||R - I||_2 <= 0.8, so cond(R) <= 9
    R = np.eye(4) + np.array(entries).reshape(4, 4)
    lam = -np.cumsum(gaps)
    A = R @ np.diag(lam) @ np.linalg.inv(R)
    left = expm(A, s) @ expm(A, t)
    assert np.max(np.abs(left - expm(A, s + t))) < 1e-10


def test_system_constructor_validation():
    with pytest.raises(DomainError):
        LTISystem.from_matrices(np.zeros((3, 4)), np.zeros(3))
    with pytest.raises(DomainError):
        LTISystem.from_matrices(np.full((2, 2), np.inf), np.zeros(2))
    with pytest.raises(DomainError):
        LTISystem.from_matrices(np.zeros((4, 4)), np.zeros(3))


def test_system_arrays_are_write_protected(ref_sys):
    with pytest.raises(ValueError):
        ref_sys.A[0, 0] = 5.0
    with pytest.raises(ValueError):
        ref_sys.B[0] = 2.0


def test_reference_spectrum(ref_sys):
    lam = ref_sys.eigenvalues
    assert np.isrealobj(lam)
    assert np.all(np.diff(lam) > 0)
    assert np.allclose(np.sort(lam), np.sort(EXPECTED_EIGS), atol=1e-4)
    recon = (ref_sys.V * lam) @ ref_sys.Vi
    assert np.max(np.abs(recon - ref_sys.A)) < 1e-10


# ---------------------------------------------- constant-input propagation

def test_propagate_zero_state_zero_input(ref_sys):
    for dt in (0.0, 0.3, 7.0):
        out = propagate(ref_sys, np.zeros(4), 0.0, dt)
        assert np.array_equal(out, np.zeros(4))


def test_propagate_holds_equilibrium(ref_sys, ref_eq):
    for dt in (0.1, 1.0, 25.0):
        out = propagate(ref_sys, ref_eq.x_e, ref_eq.u_e, dt)
        assert np.allclose(out, ref_eq.x_e, rtol=0, atol=1e-9)


def test_propagate_bolus_then_drift_hits_published_targets(ref_sys):
    x_tc = propagate(ref_sys, np.zeros(4), U_MAX_REF, 0.5467)
    x_tf = propagate(ref_sys, x_tc, 0.0, 1.8397 - 0.5467)
    assert abs(x_tf[0] - 14.518) < 1e-3
    assert abs(x_tf[3] - 3.4) < 1e-3


def test_propagate_rejects_negative_dt(ref_sys):
    with pytest.raises(DomainError):
        propagate(ref_sys, np.zeros(4), 1.0, -0.1)


def test_propagate_zero_dt_returns_independent_copy(ref_sys):
    x0 = np.array([1.0, 2.0, 3.0, 4.0])
    out = propagate(ref_sys, x0, 50.0, 0.0)
    assert np.array_equal(out, x0)
    out[0] = 99.0
    assert x0[0] == 1.0


def test_propagator_closure_matches_one_shot(ref_sys):
    step = constant_input_propagator(ref_sys, 42.0)
    x0 = np.array([0.5, 0.0, 1.0, 0.2])
    for dt in (0.05, 0.9, 4.0):
        a = step(x0, dt)
        b = propagate(ref_sys, x0, 42.0, dt)
        assert np.allclose(a, b, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    x0=st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4),
    u=st.floats(0.0, 120.0),
    dt=st.floats(0.0, 4.0),
)
def test_propagate_half_step_composition(ref_sys, x0, u, dt):
    x0 = np.array(x0)
    full = propagate(ref_sys, x0, u, dt)
    half = propagate(ref_sys, x0, u, dt / 2)
    two = propagate(ref_sys, half, u, dt / 2)
    assert np.max(np.abs(two - full)) < 1e-10


def test_propagate_matches_integrator(ref_sys):
    u = 80.0

    def f(t, x):
        return ref_sys.A @ x + ref_sys.B * u

    x0 = np.zeros(4)
    traj = integrate(f, x0, 0.0, 0.7, tol=1e-12, atol=1e-14)
    exact = propagate(ref_sys, x0, u, 0.7)
    assert np.max(np.abs(traj.states[-1] - exact)) < 1e-8


def test_propagator_array_dt_matches_scalar_calls(ref_sys):
    step = constant_input_propagator(ref_sys, 42.0)
    x0 = np.array([0.5, 0.0, 1.0, 0.2])
    dts = np.array([0.0, 0.05, 0.9, 4.0, 30.0])
    rows = step(x0, dts)
    assert rows.shape == (dts.size, 4)
    for dt, row in zip(dts, rows):
        assert np.max(np.abs(row - step(x0, dt))) < 1e-12
    with pytest.raises(DomainError):
        step(x0, np.array([0.1, -0.1]))


# ------------------------------------------------------------- integrate

def test_integrate_linear_system_against_expm(ref_sys):
    def f(t, x):
        return ref_sys.A @ x

    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    traj = integrate(f, e1, 0.0, 1.0, **TOL)
    exact = propagate(ref_sys, e1, 0.0, 1.0)
    assert np.max(np.abs(traj.states[-1] - exact)) < 1e-10 * 10


def test_integrate_zero_field_is_constant():
    x0 = np.array([1.5, -2.0])
    traj = integrate(lambda t, x: np.zeros(2), x0, 0.0, 2.0, **TOL)
    assert np.all(traj.states == x0)
    assert traj.times[0] == 0.0 and traj.times[-1] == 2.0
    assert np.all(np.diff(traj.times) > 0)


def test_integrate_scalar_decay():
    traj = integrate(lambda t, x: -x, np.array([1.0]), 0.0, 1.0, **TOL)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-9


def test_integrate_zero_span_is_single_row():
    traj = integrate(lambda t, x: -x, np.array([3.0]), 1.0, 1.0, **TOL)
    assert traj.times.shape == (1,) and traj.times[0] == 1.0
    assert traj.states[0, 0] == 3.0


def test_integrate_order_check_across_tolerances(ref_sys):
    def f(t, x):
        return ref_sys.A @ x

    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    exact = propagate(ref_sys, e1, 0.0, 2.0)
    errs = []
    for tol in (1e-6, 1e-9, 1e-12):
        traj = integrate(f, e1, 0.0, 2.0, tol=tol, atol=tol * 1e-2)
        errs.append(np.max(np.abs(traj.states[-1] - exact)))
    assert errs[0] > errs[1] > errs[2]


def test_integrate_rejects_reversed_interval():
    with pytest.raises(DomainError):
        integrate(lambda t, x: -x, np.array([1.0]), 1.0, 0.0, **TOL)


def test_integrate_dense_output_between_nodes():
    # interpolated samples, not just step endpoints, must track the flow
    def f(t, x):
        return -x

    ts = np.linspace(0.0, 3.0, 101)
    got = np.full_like(ts, np.nan)
    got[0] = 1.0
    for t, y, h, K, y1 in _steps(f, np.array([1.0]), 0.0, 3.0, 1e-10, 1e-12):
        F = _dense_rows(f, t, y, h, K, y1)
        inside = (ts > t) & (ts <= t + h)
        got[inside] = [_dense(y, F, th)[0] for th in (ts[inside] - t) / h]
    assert np.max(np.abs(got - np.exp(-ts))) < 1e-9


def test_dense_output_coefficients_match_scipy():
    # the DOP853 tableau is copied in as literals; scipy is the reference
    from scipy.integrate._ivp import dop853_coefficients as ref
    from anesopt.lti import _A_ROWS, _B, _C, _D, _ERR

    def close(a, b):
        return np.allclose(a, b, rtol=0, atol=1e-13)

    assert _C.shape == ref.C.shape and close(_C, ref.C)
    assert len(_A_ROWS) == ref.A.shape[0] and not np.triu(ref.A).any()
    for i, row in enumerate(_A_ROWS):
        assert row.shape == (i,) and close(row, ref.A[i, :i])
    assert _B.shape == ref.B.shape and close(_B, ref.B)
    # scipy's estimates weigh the FSAL stage by zero, so _ERR leaves it out
    assert ref.E5[-1] == ref.E3[-1] == 0.0
    assert _ERR.shape == (2, ref.N_STAGES)
    assert close(_ERR, [ref.E5[:-1], ref.E3[:-1]])
    assert _D.shape == ref.D.shape and close(_D, ref.D)


def test_error_norm_matches_scipy():
    # scipy's norm reads only the class's E5 and E3, so the class itself
    # can stand in for an instance
    rng = np.random.default_rng(11)
    for n in (1, 4):
        K = rng.normal(size=(13, n))
        scale = 1e-12 + 1e-10 * rng.uniform(size=n)
        want = scipy.integrate.DOP853._estimate_error_norm(
            scipy.integrate.DOP853, K, 0.37, scale)
        assert _error_norm(K[:12], 0.37, scale) == pytest.approx(want,
                                                                 rel=1e-13)
    assert _error_norm(np.zeros((12, 2)), 0.5, np.ones(2)) == 0.0


def test_integrate_blowup_raises():
    with pytest.raises(IntegrationError):
        integrate(lambda t, x: x ** 2, np.array([1.0]), 0.0, 1.2, **TOL)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_nan_field_raises():
    # the initial step is NaN, which a plain h < min-step test lets through
    # into an endless loop
    with pytest.raises(IntegrationError):
        integrate(lambda t, x: np.array([np.nan]), np.array([1.0]), 0.0, 1.0,
                  **TOL)


def test_integrate_nonnegative_states_under_nonnegative_input(ref_sys):
    def f(t, x):
        return ref_sys.A @ x + ref_sys.B * U_MAX_REF

    traj = integrate(f, np.zeros(4), 0.0, 0.5, **TOL)
    assert np.all(traj.states >= -1e-9)
    assert np.all(np.isfinite(traj.states))


# ---------------------------------------------------------------- events

def test_event_scalar_linear_known_root():
    # y(t) = exp(-t) - 0.5 crosses zero at ln 2
    t, x, crossed = integrate_with_sign_event(
        lambda t, y: -(y + 0.5), np.array([0.5]), 0.0, 3.0, watch=0, **TOL)
    assert crossed
    assert abs(t - np.log(2.0)) < 1e-9
    assert x.shape == (1,)


def test_event_reports_all_crossings_in_order():
    def f(t, y):
        return np.array([y[1], -y[0]])

    # each call stops at its first crossing; restarting from the returned
    # event finds the next one
    events, t, y = [], 0.0, np.array([1.0, 0.0])
    while True:
        t, y, crossed = integrate_with_sign_event(f, y, t, 9.0, watch=0, **TOL)
        if not crossed:
            break
        events.append(t)
    expected = [np.pi / 2, 3 * np.pi / 2, 5 * np.pi / 2]
    assert len(events) == 3
    for got, want in zip(events, expected):
        assert abs(got - want) < 1e-9
    assert np.all(np.diff(events) > 0)


def test_event_finds_a_close_pair_inside_one_step():
    # y0 = cos t + c dips below zero on pi -+ arccos(c): a pair of roots
    # 0.009 apart, under a tenth of the step that holds both, at the
    # tolerances of the shooting route
    c, tol, atol = 0.99999, 1e-12, 1e-14

    def f(t, y):
        return np.array([y[1], -(y[0] - c)])

    y0 = np.array([1.0 + c, 0.0])
    roots = np.pi + np.array([-1.0, 1.0]) * np.arccos(c)
    holding = [t for t, _, h, _, _ in _steps(f, y0, 0.0, 4.0, tol, atol)
               if t < roots[0] and roots[1] < t + h]
    assert len(holding) == 1
    events, t, y = [], 0.0, y0
    while True:
        t, y, crossed = integrate_with_sign_event(f, y, t, 4.0, watch=0,
                                                  tol=tol, atol=atol)
        if not crossed:
            break
        events.append(t)
    assert len(events) == 2
    assert np.max(np.abs(np.array(events) - roots)) < 1e-9


def test_event_stop_at_first_truncates_trajectory():
    def f(t, y):
        return np.array([y[1], -y[0]])

    t, x, crossed = integrate_with_sign_event(
        f, np.array([1.0, 0.0]), 0.0, 9.0, watch=0, **TOL)
    assert crossed
    assert abs(t - np.pi / 2) < 1e-9
    assert abs(x[0]) < 1e-9


def test_event_no_sign_change_is_empty():
    t, x, crossed = integrate_with_sign_event(
        lambda t, y: -y, np.array([1.0]), 0.0, 2.0, watch=0, **TOL)
    assert not crossed


def test_event_identically_positive_component_is_empty():
    t, x, crossed = integrate_with_sign_event(
        lambda t, y: np.array([0.0, -y[1]]), np.array([2.0, 1.0]), 0.0, 4.0,
        watch=0, **TOL)
    assert not crossed


def test_event_zero_start_is_not_a_crossing():
    # leaving zero at t0 is an initial condition, not a sign change
    t, x, crossed = integrate_with_sign_event(
        lambda t, y: np.ones(1), np.array([0.0]), 0.0, 1.0, watch=0, **TOL)
    assert not crossed


def test_event_without_a_crossing_ends_at_the_integrate_state():
    # both take the same DOP853 step sequence, so the end state is bitwise
    # the last node of integrate
    def f(t, y):
        return np.array([-0.3 * y[0] + 0.1, y[0] - 2.0 * y[1]])

    x0 = np.array([1.0, 0.5])
    t, x, crossed = integrate_with_sign_event(f, x0, 0.25, 7.5, watch=0, **TOL)
    assert not crossed
    assert t == 7.5
    assert np.array_equal(x, integrate(f, x0, 0.25, 7.5, **TOL).states[-1])


# ----------------------------------------------------------- kalman rank

# the tests' Krylov oracle (conftest.kalman_rank), which the modal record's
# controllability test is checked against in test_strategies

def test_kalman_rank_reference_system(ref_sys):
    assert kalman_rank(ref_sys) == 4


def test_kalman_rank_zero_dynamics():
    # decoupled modes: the input reaches only the first
    sys = LTISystem.from_matrices(np.diag([-1.0, -2.0, -3.0, -4.0]),
                                  [1, 0, 0, 0])
    assert kalman_rank(sys) == 1


def test_kalman_rank_unreachable_compartment(ref_sys):
    # severing the slow-compartment exchange leaves it unreachable
    A = np.array(ref_sys.A)
    A[2, 0] = 0.0
    A[0, 2] = 0.0
    sys = LTISystem.from_matrices(A, ref_sys.B)
    assert kalman_rank(sys) < 4
    assert kalman_rank(sys) == 3


def test_trajectory_holds_optional_control():
    tr = Trajectory(np.array([0.0, 1.0]), np.zeros((2, 4)))
    assert tr.control is None
