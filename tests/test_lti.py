"""Linear-systems kernel tests.

The matrix exponential is checked against a Taylor oracle written here with
different truncation and scaling choices than the library path, and against
scipy as a third route. The integrator is checked against the exponential.
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
    _steps,
    constant_input_propagator,
    integrate,
    integrate_with_sign_event,
    kalman_rank,
)

from conftest import EXPECTED_EIGS, FROZEN, U_MAX_REF, expm


def propagate(sys, x0, u, dt):
    return constant_input_propagator(sys, u)(x0, dt)


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
    assert np.array_equal(expm(np.zeros((3, 3)), 0.0), np.eye(3))
    assert np.allclose(ref_sys.expm(0.0), np.eye(4), atol=1e-14)


def test_expm_diagonal_matrix():
    d = np.array([-0.5, -2.0, 1.25])
    E = expm(np.diag(d), 0.8)
    assert np.allclose(E, np.diag(np.exp(d * 0.8)), rtol=0, atol=1e-13)


def test_expm_reference_system_vs_series_oracle(ref_sys):
    E = expm(ref_sys.A, 1.0)
    assert np.max(np.abs(E - taylor_expm(ref_sys.A))) < 1e-12


def test_expm_reference_system_vs_scipy(ref_sys):
    for t in (0.25, 1.0, 5.0, 30.0):
        E = ref_sys.expm(t)
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
    assert sys.spectral_valid
    for t in (0.1, 1.0, 2.5):
        assert np.max(np.abs(sys.expm(t) - taylor_expm(A * t))) < 1e-10


def test_expm_series_fallback_on_clustered_spectrum():
    # eigenvalue gap 1e-9 is below the separation cutoff for the spectral path
    A = np.array([[-1.0, 1.0], [0.0, -1.0 + 1e-9]])
    sys = LTISystem.from_matrices(A, [1, 0])
    assert sys.real_spectrum
    assert not sys.spectral_valid
    E = sys.expm(2.0)
    assert np.max(np.abs(E - scipy.linalg.expm(A * 2.0))) < 1e-12


def test_expm_complex_spectrum_uses_series():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    sys = LTISystem.from_matrices(A, [1, 0])
    assert not sys.real_spectrum
    assert not sys.spectral_valid
    t = 0.7
    exact = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    assert np.allclose(sys.expm(t), exact, rtol=0, atol=1e-13)
    assert np.allclose(expm(A, t), exact, rtol=0, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    entries=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
    s=st.floats(0.0, 5.0),
    t=st.floats(0.0, 5.0),
)
def test_expm_semigroup_property(entries, s, t):
    M = np.array(entries).reshape(4, 4)
    A = M - (np.max(np.sum(np.abs(M), axis=1)) + 0.1) * np.eye(4)
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
    assert ref_sys.real_spectrum and ref_sys.spectral_valid
    lam = ref_sys.eigenvalues
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


@pytest.mark.parametrize("A", [
    np.array([[-1.0, 1.0], [0.0, -1.0 + 1e-9]]),  # clustered spectrum
    np.array([[0.0, 1.0], [-1.0, 0.0]]),          # complex spectrum
])
def test_propagator_series_fallback_matches_scipy(A):
    sys = LTISystem.from_matrices(A, [1.0, 0.5])
    assert not sys.spectral_valid
    step = constant_input_propagator(sys, 3.0)
    x0 = np.array([0.7, -0.2])
    dts = np.array([0.0, 0.3, 2.0])
    rows = step(x0, dts)
    for dt, row in zip(dts, rows):
        exact = augmented_flow(sys, x0, 3.0, dt)
        assert np.max(np.abs(step(x0, dt) - exact)) < 1e-12
        assert np.max(np.abs(row - exact)) < 1e-12


def test_propagator_singular_system_takes_the_phi1_limit():
    # a pure integrator mode (eigenvalue 0): x2' = u grows linearly in dt
    A = np.array([[-2.0, 0.0], [1.0, 0.0]])
    sys = LTISystem.from_matrices(A, [1.0, 1.0])
    assert sys.spectral_valid and 0.0 in sys.eigenvalues
    step = constant_input_propagator(sys, 1.5)
    x0 = np.array([0.4, -1.0])
    for dt in (1e-6, 0.5, 3.0):
        x = step(x0, dt)
        assert np.all(np.isfinite(x))
        assert np.max(np.abs(x - augmented_flow(sys, x0, 1.5, dt))) < 1e-12


# ------------------------------------------------------------- integrate

def test_integrate_linear_system_against_expm(ref_sys):
    def f(t, x):
        return ref_sys.A @ x

    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    traj = integrate(f, e1, 0.0, 1.0)
    exact = ref_sys.expm(1.0) @ e1
    assert np.max(np.abs(traj.states[-1] - exact)) < 1e-10 * 10


def test_integrate_zero_field_is_constant():
    x0 = np.array([1.5, -2.0])
    traj = integrate(lambda t, x: np.zeros(2), x0, 0.0, 2.0)
    assert np.all(traj.states == x0)
    assert traj.times[0] == 0.0 and traj.times[-1] == 2.0
    assert np.all(np.diff(traj.times) > 0)


def test_integrate_scalar_decay():
    traj = integrate(lambda t, x: -x, np.array([1.0]), 0.0, 1.0, tol=1e-10)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-9


def test_integrate_zero_span_is_single_row():
    traj = integrate(lambda t, x: -x, np.array([3.0]), 1.0, 1.0)
    assert traj.times.shape == (1,) and traj.times[0] == 1.0
    assert traj.states[0, 0] == 3.0


def test_integrate_order_check_across_tolerances(ref_sys):
    def f(t, x):
        return ref_sys.A @ x

    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    exact = ref_sys.expm(2.0) @ e1
    errs = []
    for tol in (1e-6, 1e-9, 1e-12):
        traj = integrate(f, e1, 0.0, 2.0, tol=tol, atol=tol * 1e-2)
        errs.append(np.max(np.abs(traj.states[-1] - exact)))
    assert errs[0] > errs[1] > errs[2]


def test_integrate_rejects_reversed_interval():
    with pytest.raises(DomainError):
        integrate(lambda t, x: -x, np.array([1.0]), 1.0, 0.0)


def test_integrate_dense_output_between_nodes():
    # interpolated samples, not just step endpoints, must track the flow
    ts = np.linspace(0.0, 3.0, 101)
    got = np.full_like(ts, np.nan)
    got[0] = 1.0
    for t, y, h, K, _ in _steps(lambda t, x: -x, np.array([1.0]), 0.0, 3.0,
                                1e-10, 1e-12):
        inside = (ts > t) & (ts <= t + h)
        got[inside] = [_dense(y, h, K, th)[0] for th in (ts[inside] - t) / h]
    assert np.max(np.abs(got - np.exp(-ts))) < 1e-9


def test_dense_output_coefficients_match_scipy():
    from anesopt.lti import _P

    assert _P.shape == scipy.integrate.RK45.P.shape
    assert np.allclose(_P, scipy.integrate.RK45.P, rtol=0, atol=1e-13)


def test_integrate_blowup_raises():
    with pytest.raises(IntegrationError):
        integrate(lambda t, x: x ** 2, np.array([1.0]), 0.0, 1.2)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_integrate_nan_field_raises():
    # the initial step is NaN, which a plain h < min-step test lets through
    # into an endless loop
    with pytest.raises(IntegrationError):
        integrate(lambda t, x: np.array([np.nan]), np.array([1.0]), 0.0, 1.0)


def test_integrate_nonnegative_states_under_nonnegative_input(ref_sys):
    def f(t, x):
        return ref_sys.A @ x + ref_sys.B * U_MAX_REF

    traj = integrate(f, np.zeros(4), 0.0, 0.5)
    assert np.all(traj.states >= -1e-9)
    assert np.all(np.isfinite(traj.states))


# ---------------------------------------------------------------- events

def test_event_scalar_linear_known_root():
    # y(t) = exp(-t) - 0.5 crosses zero at ln 2
    traj, events = integrate_with_sign_event(
        lambda t, y: -(y + 0.5), np.array([0.5]), 0.0, 3.0, watch=0)
    assert len(events) == 1
    assert abs(events[0] - np.log(2.0)) < 1e-9
    assert traj.times[-1] == events[0]


def test_event_reports_all_crossings_in_order():
    def f(t, y):
        return np.array([y[1], -y[0]])

    # each call stops at its first crossing; restarting from the returned
    # event finds the next one
    events, t, y = [], 0.0, np.array([1.0, 0.0])
    while True:
        traj, hit = integrate_with_sign_event(f, y, t, 9.0, watch=0)
        if not hit:
            break
        events += hit
        t, y = traj.times[-1], traj.states[-1]
    expected = [np.pi / 2, 3 * np.pi / 2, 5 * np.pi / 2]
    assert len(events) == 3
    for got, want in zip(events, expected):
        assert abs(got - want) < 1e-9
    assert np.all(np.diff(events) > 0)


def test_event_stop_at_first_truncates_trajectory():
    def f(t, y):
        return np.array([y[1], -y[0]])

    traj, events = integrate_with_sign_event(
        f, np.array([1.0, 0.0]), 0.0, 9.0, watch=0)
    assert len(events) == 1
    assert abs(events[0] - np.pi / 2) < 1e-9
    assert traj.times[-1] == pytest.approx(events[0], abs=1e-12)
    assert abs(traj.states[-1, 0]) < 1e-9


def test_event_no_sign_change_is_empty():
    traj, events = integrate_with_sign_event(
        lambda t, y: -y, np.array([1.0]), 0.0, 2.0, watch=0)
    assert events == []


def test_event_identically_positive_component_is_empty():
    traj, events = integrate_with_sign_event(
        lambda t, y: np.array([0.0, -y[1]]), np.array([2.0, 1.0]), 0.0, 4.0,
        watch=0)
    assert events == []


def test_event_zero_start_is_not_a_crossing():
    # leaving zero at t0 is an initial condition, not a sign change
    traj, events = integrate_with_sign_event(
        lambda t, y: np.ones(1), np.array([0.0]), 0.0, 1.0, watch=0)
    assert events == []


# ----------------------------------------------------------- kalman rank

def test_kalman_rank_reference_system(ref_sys):
    assert kalman_rank(ref_sys) == 4


def test_kalman_rank_zero_dynamics():
    sys = LTISystem.from_matrices(np.zeros((4, 4)), [1, 0, 0, 0])
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
