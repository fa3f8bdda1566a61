"""Shooting-method tests: sign law, forward residual, seeds, certificate.

The frozen costate root in conftest is the independent cross-check for the
strategy-enumeration answer; both must land on the same switching structure.
"""
import ast
import functools
import pathlib

import numpy as np
import pytest

from anesopt import shooting, strategies
from anesopt.errors import DomainError, NoConvergenceError
from anesopt.lti import constant_input_propagator
from anesopt.patient import (PatientDemographics, bis_inverse, equilibrium,
                             schnider_parameters)
from anesopt.shooting import (
    RESIDUAL_ACCEPT,
    T_F_SEED_FACTORS,
    THETA_SEEDS,
    TRANSVERSALITY_ACCEPT,
    ExtremalCertificate,
    bang_control,
    default_seed_grid,
    full_rate_onset,
    hamiltonian,
    shooting_residual,
    solve_shooting,
)
from anesopt.strategies import solve_time_optimal
from anesopt.problem import FAST_IDX, ControlSchedule, build_problem

from conftest import FROZEN, U_MAX_REF, endpoint, expm, extremal


# ------------------------------------------------------------- pointwise law

def test_bang_control_sign_law():
    assert bang_control(0.5, 10.0) == 0.0
    assert bang_control(-0.5, 10.0) == 10.0
    assert bang_control(0.0, 10.0) == 10.0  # tie goes to the bound


def test_hamiltonian_with_zero_costate_is_one(ref_problem):
    assert hamiltonian(ref_problem, np.zeros(4), 50.0, np.zeros(4)) == 1.0


def test_hamiltonian_at_equilibrium_is_one_for_any_costate(ref_problem, ref_eq):
    rng = np.random.default_rng(3)
    for _ in range(5):
        psi = rng.normal(size=4)
        h = hamiltonian(ref_problem, ref_eq.x_e, ref_eq.u_e, psi)
        assert h == pytest.approx(1.0, abs=1e-12)


def test_shooting_route_takes_only_the_integrator_from_lti():
    # the two routes must share nothing past the problem statement: the
    # shooting route may not reach the closed-form propagation kernel
    tree = ast.parse(pathlib.Path(shooting.__file__).read_text())
    from_lti = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any("lti" in a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if "lti" in (node.module or ""):
                from_lti |= names
            else:
                assert "lti" not in names
    assert from_lti == {"integrate", "integrate_with_sign_event"}


def test_strategy_route_takes_no_integrator():
    # the mirror guard: the closed-form route may not reach the RK route
    tree = ast.parse(pathlib.Path(strategies.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any("shooting" in a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            assert "shooting" not in (node.module or "")
            assert "shooting" not in names
            if "lti" in (node.module or ""):
                assert not names & {"integrate", "integrate_with_sign_event"}
        elif isinstance(node, ast.Attribute):
            assert node.attr not in {"integrate", "integrate_with_sign_event"}


# ------------------------------------------------------------------ residual

def test_residual_at_frozen_root(ref_problem):
    r = shooting_residual(ref_problem, FROZEN["psi0"], FROZEN["t_f"])
    assert np.linalg.norm(r) < 1e-9


def test_residual_discriminates_a_plausible_wrong_seed(ref_problem):
    wrong = np.array([-0.0076, 0.0031, -0.0393, -0.0374])
    r = shooting_residual(ref_problem, wrong, 1.8397)
    assert 18.5 < np.linalg.norm(r) < 19.2


def test_four_decimal_rounding_of_the_root_is_not_a_root(ref_problem):
    # the boundary value problem is sharp: four printed digits are far
    # outside the acceptance bound
    psi = np.round(FROZEN["psi0"], 4)
    r = shooting_residual(ref_problem, psi, round(FROZEN["t_f"], 4))
    assert np.linalg.norm(r) > 1e-3


def test_positive_costate_means_no_infusion(ref_problem):
    psi0 = np.array([0.05, 0.0, 0.0, 0.0])
    r = shooting_residual(ref_problem, psi0, 1.0)
    assert np.allclose(r, [-14.518, -3.4, 1.0], rtol=0, atol=1e-12)
    # psi1(t) = (e^(-A^T t) psi0)_1 stays positive, so the pump stays off
    psi1 = [(expm(-ref_problem.sys.A.T, t) @ psi0)[0]
            for t in np.linspace(0.0, 1.0, 101)]
    assert min(psi1) > 0.0


def test_residual_rejects_nonpositive_horizon(ref_problem):
    with pytest.raises(DomainError):
        shooting_residual(ref_problem, FROZEN["psi0"], 0.0)
    with pytest.raises(DomainError):
        shooting_residual(ref_problem, FROZEN["psi0"], -1.0)


def test_costate_scaling_preserves_the_flight_but_not_the_hamiltonian(ref_problem):
    c = 3.0
    r = shooting_residual(ref_problem, c * FROZEN["psi0"], FROZEN["t_f"])
    assert np.max(np.abs(r[:2])) < 1e-9  # same control, same endpoint
    assert r[2] == pytest.approx(1.0 - c, abs=1e-9)
    M = -ref_problem.sys.A  # rows psi follow dpsi/dt = psi (-A)
    base, _ = shooting._sweep(M, FROZEN["psi0"], FROZEN["t_f"])
    scaled, _ = shooting._sweep(M, c * FROZEN["psi0"], FROZEN["t_f"])
    assert len(base) == len(scaled) == 1
    assert base[0][0] == pytest.approx(scaled[0][0], abs=1e-9)


# ----------------------------------------------------------------- seed grid

def test_full_rate_onset_bounds_t_f_from_below(ref_problem):
    t_on = full_rate_onset(ref_problem)
    full = constant_input_propagator(ref_problem.sys, U_MAX_REF)
    x = full(ref_problem.x0, t_on)
    assert x[3] == pytest.approx(ref_problem.target_fast[1], abs=1e-9)
    assert 0.0 < t_on < FROZEN["t_f"]


def test_default_seed_grid_order_and_size():
    t_on = 0.9
    seeds = default_seed_grid(t_on)
    assert len(THETA_SEEDS) == 16
    assert len(seeds) == 16 * 3
    assert seeds[0] == (-np.pi / 2, 1.5 * t_on)
    assert seeds[1] == (-np.pi / 2, 1.05 * t_on)
    theta, t = seeds[3]
    assert theta == pytest.approx(-np.pi / 2 + np.pi / 8, abs=1e-15)
    assert t == 1.5 * t_on
    assert all(any(t == f * t_on for f in T_F_SEED_FACTORS) for _, t in seeds)


def test_solver_reports_no_convergence_with_best_residual(ref_problem,
                                                         monkeypatch):
    # theta = 0 puts psi(t_f) = e1, which keeps psi1 > 0 throughout: the
    # state never leaves zero, so the residual cannot move and H stays 1
    monkeypatch.setattr(shooting, "default_seed_grid",
                        lambda t_on: [(0.0, 1.0)])
    with pytest.raises(NoConvergenceError) as exc:
        solve_shooting(ref_problem)
    assert exc.value.seeds_tried == 1
    assert exc.value.best_residual == pytest.approx(14.944307411185035, abs=1e-6)


def test_solver_stops_at_the_residual_evaluation_cap(ref_problem, monkeypatch):
    monkeypatch.setattr(shooting, "MAX_RESIDUAL_EVALS", 5)
    with pytest.raises(NoConvergenceError) as exc:
        solve_shooting(ref_problem)
    assert exc.value.residual_evals == 5
    assert exc.value.seeds_tried == 1
    assert np.isfinite(exc.value.best_residual)


# --------------------------------------------------------------- certificate

def test_certificate_matches_frozen_solution(certificate):
    assert certificate.residual_norm < RESIDUAL_ACCEPT
    assert abs(certificate.t_f - FROZEN["t_f"]) < 1e-6
    assert len(certificate.switch_times) == 1
    assert abs(certificate.switch_times[0] - FROZEN["t_c"]) < 1e-6
    assert certificate.schedule.levels == (U_MAX_REF, 0.0)
    assert certificate.schedule.breakpoints == certificate.switch_times


def test_solver_psi0_matches_frozen_root(certificate):
    assert np.max(np.abs(certificate.psi0 - FROZEN["psi0"])) < 1e-9


def test_certificate_satisfies_transversality(certificate):
    psi_f = certificate.terminal_costate
    assert certificate.transversality_residual < TRANSVERSALITY_ACCEPT
    assert np.max(np.abs(psi_f[1:3])) < TRANSVERSALITY_ACCEPT * np.linalg.norm(psi_f)


def test_certificate_transversality_identity(certificate):
    # H(0) = 1 + psi1(0) u_max = 0 pins the initial costate component
    assert certificate.psi0[0] * U_MAX_REF == pytest.approx(-1.0, abs=1e-6)


def test_certificate_endpoint_reaches_target(ref_problem, certificate):
    x = endpoint(ref_problem.sys, certificate.schedule)
    assert np.max(np.abs(ref_problem.fast_residual(x))) < 1e-6


def test_hamiltonian_conserved_along_extremal(ref_problem, certificate):
    traj, psi = extremal(ref_problem, certificate)
    hs = [hamiltonian(ref_problem, x, u, p)
          for x, u, p in zip(traj.states, traj.control, psi)]
    assert np.max(np.abs(hs)) < 1e-7


def test_costate_changes_sign_exactly_once(ref_problem, certificate):
    _, psi = extremal(ref_problem, certificate)
    psi1 = psi[:, 0]
    signs = np.sign(psi1[np.abs(psi1) > 1e-12])
    assert np.count_nonzero(np.diff(signs)) == 1
    assert psi1[0] < 0 and psi1[-1] > 0


def test_costate_matches_closed_form(ref_problem, certificate):
    # the solver's sweep, run forward from psi0 to sample times along the
    # extremal, against psi(t) = e^(-A^T t) psi0
    At = -ref_problem.sys.A.T
    worst = 0.0
    for t in np.linspace(0.0, certificate.t_f, 11)[1:]:
        _, psi = shooting._sweep(-ref_problem.sys.A, certificate.psi0, t)
        closed = expm(At, t) @ certificate.psi0
        worst = max(worst, np.max(np.abs(psi - closed)))
    assert worst < 1e-9
    closed_f = expm(At, certificate.t_f) @ certificate.psi0
    assert np.max(np.abs(certificate.terminal_costate - closed_f)) < 1e-9


def test_extremal_control_is_right_continuous_at_the_switch(ref_problem,
                                                            certificate):
    sched = certificate.schedule
    (switch,) = certificate.switch_times
    assert sched.u_at(0.0) == U_MAX_REF
    assert sched.u_at(np.nextafter(switch, 0.0)) == U_MAX_REF
    assert sched.u_at(switch) == 0.0
    after = np.linspace(switch, certificate.t_f, 101)
    assert np.all(sched.u_at(after) == 0.0)
    # past the switch the sign law on the closed-form costate agrees
    At = -ref_problem.sys.A.T
    for t in after[1:]:
        psi1 = (expm(At, t) @ certificate.psi0)[0]
        assert bang_control(psi1, U_MAX_REF) == 0.0


def test_certificate_invariants_rejected():
    sched = ControlSchedule(levels=(1.0, 0.0), breakpoints=(0.5,), t_f=1.0)
    ok = dict(psi0=np.zeros(4), t_f=1.0, switch_times=(0.5,),
              residual_norm=1e-10, terminal_costate=np.array([1.0, 0, 0, 0.5]),
              schedule=sched)
    ExtremalCertificate(**ok)  # sanity: the base case is accepted
    with pytest.raises(DomainError):
        ExtremalCertificate(**{**ok, "residual_norm": 1e-6})
    with pytest.raises(DomainError):
        ExtremalCertificate(**{**ok, "switch_times": (0.1, 0.2, 0.3, 0.4)})
    with pytest.raises(DomainError):
        ExtremalCertificate(**{**ok, "switch_times": (1.5,)})
    with pytest.raises(DomainError):  # psi2(t_f) != 0 on a free compartment
        ExtremalCertificate(**{**ok, "terminal_costate": np.array([1.0, 1e-4, 0, 0])})
    with pytest.raises(DomainError):  # a zero costate is no multiplier
        ExtremalCertificate(**{**ok, "terminal_costate": np.zeros(4)})


# ------------------------------------------------------- off-reference cases

def _panel_problem(sex, age, weight, height, ratio=None, x0_frac=None,
                   bis=50.0):
    params = schnider_parameters(PatientDemographics(sex, age, weight, height))
    eq = equilibrium(params, bis_inverse(bis))
    u_max = U_MAX_REF if ratio is None else ratio * eq.u_e
    x0 = None if x0_frac is None else x0_frac * eq.x_e
    return build_problem(params, u_max, bis, x0=x0)


CASES = {
    "reference": dict(sex="male", age=53.0, weight=77.0, height=177.0),
    "female30-17.4ue": dict(sex="female", age=30.0, weight=55.0,
                            height=160.0, ratio=17.4),
    "male80-17.4ue": dict(sex="male", age=80.0, weight=70.0, height=170.0,
                          ratio=17.4),
    "redose0.3": dict(sex="male", age=53.0, weight=77.0, height=177.0,
                      x0_frac=0.3),
    "bound2ue": dict(sex="male", age=53.0, weight=77.0, height=177.0,
                     ratio=2.0),
    # u_max = 2 u_e with t_f of 18-19 min: the forward costate grows like
    # e^(0.94 t) over that horizon, which once spent the evaluation cap
    "female30-2ue-bis40": dict(sex="female", age=30.0, weight=55.0,
                               height=160.0, ratio=2.0, bis=40.0),
    "female30-2ue-bis60": dict(sex="female", age=30.0, weight=55.0,
                               height=160.0, ratio=2.0, bis=60.0),
    "male32-2ue-bis40": dict(sex="male", age=32.0, weight=73.0, height=164.2,
                             ratio=2.0, bis=40.0),
}
PANEL = ["female30-17.4ue", "male80-17.4ue", "redose0.3", "bound2ue"]
LONG_HORIZON = ["female30-2ue-bis40", "female30-2ue-bis60",
                "male32-2ue-bis40"]


@functools.lru_cache(maxsize=None)
def _solved(case):
    """(problem, certificate), one shooting solve per case and run."""
    prob = _panel_problem(**CASES[case])
    return prob, solve_shooting(prob)


def _assert_routes_agree(case):
    prob, cert = _solved(case)
    best = solve_time_optimal(prob)
    assert cert.schedule.levels == best.schedule.levels
    assert abs(cert.t_f - best.t_f) < 1e-6
    gaps = [abs(a - b) for a, b in zip(cert.switch_times,
                                       best.schedule.breakpoints)]
    assert max(gaps, default=0.0) < 1e-6


@pytest.mark.parametrize("case", PANEL)
def test_shooting_agrees_with_strategies_off_reference(case):
    _assert_routes_agree(case)


@pytest.mark.parametrize("case", LONG_HORIZON)
def test_shooting_converges_on_long_horizons(case):
    _assert_routes_agree(case)
    assert _solved(case)[1].t_f > 15.0


@pytest.mark.parametrize("case", list(CASES))
def test_strategy_multipliers_witness_the_terminal_costate(case):
    # psi(t_f) = C^T mu from the strategy route's KKT system shares no code
    # with the certificate, whose transversality holds by construction
    prob, cert = _solved(case)
    psi_f = solve_time_optimal(prob).terminal_costate
    scale = np.linalg.norm(cert.terminal_costate)
    assert np.linalg.norm(psi_f - cert.terminal_costate) <= 1e-8 * scale


@pytest.mark.parametrize("case", list(CASES))
def test_costate_closed_form_holds_on_every_case(case):
    # psi0 = e^(A^T t_f) psi(t_f) from the backward sweep, and transversality
    # measured again on the forward closed form e^(-A^T t_f) psi0
    prob, cert = _solved(case)
    A, psi_f = prob.sys.A, cert.terminal_costate
    back = expm(A.T, cert.t_f) @ psi_f
    assert np.linalg.norm(cert.psi0 - back) <= 1e-9 * np.linalg.norm(back)
    fwd = expm(-A.T, cert.t_f) @ cert.psi0
    free = np.delete(fwd, list(FAST_IDX))
    assert np.max(np.abs(free)) < TRANSVERSALITY_ACCEPT * np.linalg.norm(psi_f)


# ------------------------------------------------------------ exact Jacobian

def _gap(shooter, theta, t_f):
    return shooter(theta, t_f).gap


@pytest.mark.parametrize("case", ["reference"] + PANEL + LONG_HORIZON)
def test_exact_jacobian_matches_central_differences(case):
    prob, cert = _solved(case)
    psi_f = cert.terminal_costate
    theta0 = np.arctan2(psi_f[3], psi_f[0])
    shooter = shooting._Shooter(prob)
    h = 1e-5
    for theta, t_f in [(theta0, cert.t_f), (theta0 + 0.02, 1.03 * cert.t_f),
                       (theta0 + 0.01, 0.98 * cert.t_f)]:
        p = shooter(theta, t_f)
        assert len(p.switches) == 1
        central = [
            (_gap(shooter, theta + h, t_f) - _gap(shooter, theta - h, t_f))
            / (2 * h),
            (_gap(shooter, theta, t_f + h * t_f)
             - _gap(shooter, theta, t_f - h * t_f)) / (2 * h * t_f),
        ]
        for k in range(2):
            col = p.jac[:, k]
            assert np.linalg.norm(col - central[k]) <= 1e-6 * np.linalg.norm(col)


@pytest.mark.parametrize("theta", [-np.pi / 2, np.pi / 2],
                         ids=["minus-half-pi", "plus-half-pi"])
def test_jacobian_at_a_terminal_tie_is_the_right_derivative(ref_problem, theta):
    # psi1(t_f) = cos theta ~ 6e-17: no switch lies inside (0, t_f), but any
    # theta step to the right lets one enter at t_f
    t_f = T_F_SEED_FACTORS[0] * full_rate_onset(ref_problem)
    shooter = shooting._Shooter(ref_problem)
    p = shooter(theta, t_f)
    assert p.switches == ()
    col = p.jac[:, 0]
    assert np.linalg.norm(col) > 0.0
    h = 1e-6  # second-order one-sided difference
    forward = (-3 * p.gap + 4 * _gap(shooter, theta + h, t_f)
               - _gap(shooter, theta + 2 * h, t_f)) / (2 * h)
    assert np.linalg.norm(col - forward) <= 1e-6 * np.linalg.norm(col)
