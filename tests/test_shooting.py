"""Shooting-method tests: sign law, residual, seeds, certificate.

The frozen costate root in conftest is the independent cross-check for the
strategy-enumeration answer; both must land on the same switching structure.
"""
import ast
import dataclasses
import functools
import pathlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from anesopt import shooting, strategies
from anesopt.errors import (DomainError, InfeasibleError, IntegrationError,
                            NoConvergenceError)
from anesopt.lti import constant_input_propagator
from anesopt.patient import (SCHNIDER_RANGE, PatientDemographics, bis_inverse,
                             equilibrium, schnider_parameters)
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

from conftest import (CORPUS, FROZEN, U_MAX_REF, coverage_corpus, endpoint,
                      expm, extremal)


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
    # shooting route imports nothing from lti, integrator or kernel
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
    assert from_lti == set()
    assert not hasattr(shooting, "integrate")


def test_shooting_route_calls_nothing_from_lti():
    # the placeholder integrate_with_sign_event is bound for a tracer that
    # wraps it, and never read: the route propagates on its own cell maps,
    # no lti name is read, no eigenbasis is touched, and neither scipy nor
    # numpy.polynomial is used
    tree = ast.parse(pathlib.Path(shooting.__file__).read_text())
    banned = {"integrate_with_sign_event", "constant_input_propagator",
              "integrate", "polynomial"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                assert node.id not in banned | {"lti"}, node.id
        elif isinstance(node, ast.Attribute):
            assert node.attr not in banned | {"V", "Vi", "eigenvalues"}, \
                node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            mods = [node.module or ""] if isinstance(node, ast.ImportFrom) \
                else [a.name for a in node.names]
            assert not any("scipy" in m or "polynomial" in m for m in mods)


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

def _frozen_theta(prob):
    """The root's theta from the closed form psi(t_f) = e^(-A^T t_f) psi0."""
    psi_f = expm(-prob.sys.A.T, FROZEN["t_f"]) @ FROZEN["psi0"]
    return np.arctan2(psi_f[3], psi_f[0])


def test_residual_at_frozen_root(ref_problem):
    theta = _frozen_theta(ref_problem)
    p = shooting_residual(ref_problem, theta, FROZEN["t_f"])
    assert p.d < 0.0
    psi0 = -p.psi0 / p.d  # the scale that makes H(t_f) = 0
    h0 = hamiltonian(ref_problem, ref_problem.x0, p.levels[0], psi0)
    assert np.linalg.norm([p.gap[0], p.gap[1], h0]) < 1e-9
    assert np.max(np.abs(psi0 - FROZEN["psi0"])) < 1e-9


def test_residual_discriminates_a_plausible_wrong_seed(ref_problem):
    # one switch, about 0.02 rad off the root's theta, at its t_f to four
    # digits
    p = shooting_residual(ref_problem, -1.3682, 1.8397)
    assert len(p.switches) == 1
    assert 3.43 < np.linalg.norm(p.gap) < 3.57


def test_four_decimal_rounding_of_the_root_is_not_a_root(ref_problem):
    # the boundary value problem is sharp: four printed digits are far
    # outside the acceptance bound
    theta = round(_frozen_theta(ref_problem), 4)
    p = shooting_residual(ref_problem, theta, round(FROZEN["t_f"], 4))
    assert np.linalg.norm(p.gap) > 1e-3


def test_positive_costate_means_no_infusion(ref_problem):
    # theta = 0 puts psi(t_f) = e1: the pump stays off from rest, so the
    # endpoint is x0 = 0 and the gap is the target exactly
    p = shooting_residual(ref_problem, 0.0, 1.0)
    assert p.levels == (0.0,) and p.switches == ()
    assert np.array_equal(p.gap, -ref_problem.target_fast)
    # psi1(t) = (e^(A^T (t_f - t)) e1)_1 stays positive
    e1 = np.eye(4)[0]
    psi1 = [(expm(ref_problem.sys.A.T, s) @ e1)[0]
            for s in np.linspace(0.0, 1.0, 101)]
    assert min(psi1) > 0.0


def test_residual_rejects_nonpositive_horizon(ref_problem):
    with pytest.raises(DomainError):
        shooting_residual(ref_problem, 0.0, 0.0)
    with pytest.raises(DomainError):
        shooting_residual(ref_problem, 0.0, -1.0)


def test_costate_scaling_preserves_the_flight_but_not_the_hamiltonian(ref_problem):
    c = 3.0
    M = -ref_problem.sys.A  # rows psi follow dpsi/dt = psi (-A)
    base, _ = shooting._sweep(M, FROZEN["psi0"], FROZEN["t_f"])
    scaled, _ = shooting._sweep(M, c * FROZEN["psi0"], FROZEN["t_f"])
    assert len(base) == len(scaled) == 1  # same control, same endpoint
    assert base[0][0] == pytest.approx(scaled[0][0], abs=1e-9)
    # H(t_f) on the closed-form endpoint: 0 at the scale -1/d, 1 - c at c
    # times it
    theta = _frozen_theta(ref_problem)
    p = shooting_residual(ref_problem, theta, FROZEN["t_f"])
    x_f = endpoint(ref_problem.sys,
                   ControlSchedule(p.levels, p.switches, FROZEN["t_f"]))
    psi_f = np.array([np.cos(theta), 0.0, 0.0, np.sin(theta)]) / -p.d
    h = hamiltonian(ref_problem, x_f, p.levels[-1], c * psi_f)
    assert h == pytest.approx(1.0 - c, abs=1e-9)


# ----------------------------------------------------------------- seed grid

def test_full_rate_onset_bounds_t_f_from_below(ref_problem):
    t_on = full_rate_onset(ref_problem)
    full = constant_input_propagator(ref_problem.sys, U_MAX_REF)
    x = full(ref_problem.x0, t_on)
    assert x[3] == pytest.approx(ref_problem.target_fast[1], abs=1e-9)
    assert 0.0 < t_on < FROZEN["t_f"]


def _full_rate_x4(prob, t):
    """x4(t) under u_max from the closed form e^(A t) x0 + A^-1 (e^(A t) - I)
    B u_max, on the tests' eigenbasis exponential."""
    A = prob.sys.A
    eAt = expm(A, t)
    x = eAt @ prob.x0 + np.linalg.solve(A, (eAt - np.eye(4)) @ prob.sys.B) \
        * prob.u_max
    return x[3]


def test_full_rate_onset_meets_the_closed_form_target():
    # every corpus start with x4 below its target: rest and re-dosing, the
    # hot starts, and the slow bounds, whose onsets lie 7 to 1250 min out
    probs = {name: coverage_corpus.problem(case)
             for name, case in CORPUS.items()}
    below = {name: prob for name, prob in probs.items()
             if prob.x0[3] < prob.target_fast[1]}
    assert set(probs) - set(below) == {"x4hi"}
    for name, prob in below.items():
        t_on = full_rate_onset(prob)
        x4 = _full_rate_x4(prob, t_on)
        assert abs(x4 - prob.target_fast[1]) <= 1e-9, name


def test_full_rate_onset_next_to_t_0_is_reported(ref_problem):
    # x4 starts 1e-12 below its target and rises at about 3.79 per min: the
    # onset lies 2.64e-13 min out, far inside the sweep's terminal guard,
    # and is still an onset
    target = ref_problem.target_fast[1]
    prob = dataclasses.replace(
        ref_problem, x0=np.array([50.0, 0.0, 0.0, target - 1e-12]))
    rate = (prob.sys.A @ prob.x0 + prob.sys.B * prob.u_max)[3]
    t_on = full_rate_onset(prob)
    assert 0.0 < t_on < shooting._GUARD
    assert t_on == pytest.approx((target - prob.x0[3]) / rate, rel=1e-6)
    assert t_on == pytest.approx(2.64e-13, rel=1e-2)


@pytest.mark.parametrize("name", ["population/p0-r17.4-bis50",
                                  "slow/male53-1.2ue"])
def test_full_rate_onset_walks_its_windows_without_seams(name, monkeypatch):
    # 3 and about 900 cells, walked in windows that double from 16 cells to
    # _WINDOW, then in windows of at most 5 cells: the same onset
    prob = coverage_corpus.problem(CORPUS[name])
    whole = full_rate_onset(prob)
    monkeypatch.setattr(shooting, "_WINDOW", 5)
    assert full_rate_onset(prob) == pytest.approx(whole, rel=1e-12)


def test_full_rate_onset_scan_to_its_horizon_is_bounded(ref_params,
                                                       monkeypatch):
    # below u_e the scan runs to the horizon: uniform cells of
    # ||A||_1 h = 0.5 in windows of at most _WINDOW cells, so it walks
    # at most one window past horizon / h cells (about 30,700 here)
    cells = _count_cells(monkeypatch)
    u_e = equilibrium(ref_params, bis_inverse(50.0)).u_e
    prob = build_problem(ref_params, u_max=0.9 * u_e)
    with pytest.raises(InfeasibleError):
        full_rate_onset(prob)
    norm = np.abs(prob.sys.A).sum(axis=0).max()
    assert cells[0] <= (shooting._ONSET_HORIZON * norm / shooting._CELL_NORM
                        + shooting._WINDOW)


def test_full_rate_onset_below_the_equilibrium_rate_is_infeasible(ref_params):
    # at u_max < u_e x4 settles below its target: no onset, so no t_f
    u_e = equilibrium(ref_params, bis_inverse(50.0)).u_e
    with pytest.raises(InfeasibleError, match="does not reach its target"):
        full_rate_onset(build_problem(ref_params, u_max=0.9 * u_e))


@pytest.mark.parametrize("T", [0.01, 0.1, 0.3, 0.5])
def test_short_full_rate_target_is_shot_at_the_onset(ref_problem, T):
    # the fast rows of the full-rate state at T: t_f = T = t_on, the lower
    # end of Newton's t_f range, which a t_f below the onset once missed
    full = constant_input_propagator(ref_problem.sys, ref_problem.u_max)
    x_T = full(ref_problem.x0, T)
    prob = dataclasses.replace(ref_problem, target_fast=x_T[list(FAST_IDX)])
    cert = solve_shooting(prob)
    assert cert.t_f == pytest.approx(T, rel=1e-9)
    assert cert.switch_times == () and cert.schedule.levels == (U_MAX_REF,)


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


@pytest.mark.parametrize("above", [0.0, 0.6])  # x4 at, then above the target
def test_x4_at_or_above_its_target_is_a_solver_failure(ref_problem, above):
    # a valid problem that the strategy route solves (t_f = 0.4728 from
    # x4 = 4), but the onset seed grid is empty: no seed is tried
    x4 = ref_problem.target_fast[1] + above
    prob = dataclasses.replace(
        ref_problem, x0=np.array([2.0, 19.2711, 243.9024, x4]))
    for solve in (full_rate_onset, solve_shooting):
        with pytest.raises(NoConvergenceError) as exc:
            solve(prob)
        assert exc.value.seeds_tried == 0 and exc.value.residual_evals == 0
        assert exc.value.best_residual is None
    if above:
        assert solve_time_optimal(prob).t_f == pytest.approx(0.4728, abs=1e-4)


def test_solver_stops_at_the_residual_evaluation_cap(ref_problem, monkeypatch):
    monkeypatch.setattr(shooting, "MAX_RESIDUAL_EVALS", 5)
    with pytest.raises(NoConvergenceError) as exc:
        solve_shooting(ref_problem)
    assert exc.value.residual_evals == 5
    assert exc.value.seeds_tried == 1
    assert np.isfinite(exc.value.best_residual)


def _count_cells(monkeypatch):
    """A list whose entry 0 sums the cells of every flow-map walk."""
    cells = [0]
    walk = shooting._walk

    def counted(rows, E, n):
        cells[0] += n
        return walk(rows, E, n)

    monkeypatch.setattr(shooting, "_walk", counted)
    return cells


def test_reference_solve_stays_inside_its_cell_budget(ref_problem,
                                                     monkeypatch):
    # the onset walks 16 cells, and each of the 8 residual evaluations one
    # sweep of 16 cells, with the endpoint read from its adjoint columns:
    # 144 cells in all; the bound leaves about 1.4x of headroom
    cells = _count_cells(monkeypatch)
    cert = solve_shooting(ref_problem)
    assert cert.residual_norm < RESIDUAL_ACCEPT
    assert 0 < cells[0] <= 200


def test_solver_integrates_no_state(ref_problem):
    # the endpoint comes from the adjoint columns of the backward sweep; the
    # module has no state integrator to call
    assert not hasattr(shooting, "integrate")
    cert = solve_shooting(ref_problem)
    assert abs(cert.t_f - FROZEN["t_f"]) < 1e-9


def test_every_evaluation_goes_through_the_module_attribute(ref_problem,
                                                            monkeypatch):
    # a wrapper on shooting.shooting_residual, as a tracer installs one,
    # sees each evaluation the solver counts
    calls = [0]
    residual = shooting.shooting_residual

    def counted(*args):
        calls[0] += 1
        return residual(*args)

    monkeypatch.setattr(shooting, "shooting_residual", counted)
    cert = solve_shooting(ref_problem)
    assert abs(cert.t_f - FROZEN["t_f"]) < 1e-9
    assert calls[0] > 0
    # a hot start that shooting fails: the count is the one it reports
    hot = dataclasses.replace(
        ref_problem, x0=np.array([43.554, 19.2711, 243.9024, 2.72]))
    calls[0] = 0
    with pytest.raises(NoConvergenceError) as exc:
        solve_shooting(hot)
    assert calls[0] == exc.value.residual_evals > 0


# (theta, t_f): one-switch, rest-first and switchless sweeps; the pump-off
# point leaves the endpoint to y(t_f) x0 alone
_ROOT_OFFSETS = [(0.0, 1.0), (0.02, 1.03)]  # (dtheta, t_f / t_f*)
_ENDPOINT_POINTS = {"reference": [(2.0, 3.0), (-2.0, 2.0)],
                    "redose0.3": [(2.0, 3.0), (-2.0, 2.0), (0.0, 1.0)]}


@pytest.mark.parametrize("case", list(_ENDPOINT_POINTS))
def test_adjoint_endpoint_matches_the_forward_walk(case):
    prob, cert = _solved(case)
    A, B = prob.sys.A, prob.sys.B
    fast = list(FAST_IDX)
    theta0 = np.arctan2(cert.terminal_costate[3], cert.terminal_costate[0])
    points = [(theta0 + dt, f * cert.t_f) for dt, f in _ROOT_OFFSETS]
    switchless = 0
    for theta, t_f in points + _ENDPOINT_POINTS[case]:
        p = shooting_residual(prob, theta, t_f)
        switchless += not p.switches
        x = endpoint(prob.sys, ControlSchedule(p.levels, p.switches, t_f),
                     x0=prob.x0)
        x_dot = A @ x + B * p.levels[-1]
        assert np.linalg.norm(x[fast]) > 0.0
        gap = prob.fast_residual(x)
        assert np.linalg.norm(p.gap - gap) <= 1e-9 * np.linalg.norm(x[fast])
        c, s = np.cos(theta), np.sin(theta)
        scale = np.linalg.norm(x_dot[fast])
        assert abs(p.d - (c * x_dot[0] + s * x_dot[3])) <= 1e-9 * scale
        # dx(t_f)/dt_f: the end rate plus each switch's closed-form jump,
        # which cancel from rest at the root (a delayed start changes nothing)
        jumps = [(expm(A, t_f - t_i) @ B * (u_a - u_b))[fast]
                 for t_i, u_a, u_b in zip(p.switches, p.levels,
                                          p.levels[1:])]
        col = x_dot[fast] + sum(jumps)
        scale += sum(np.linalg.norm(j) for j in jumps)
        assert np.linalg.norm(p.jac[:, 1] - col) <= 1e-9 * scale
    assert switchless == len(_ENDPOINT_POINTS[case]) - 1


def _rotating_sweep(t1):
    # rows y = [cos s, sin s, 0, 0 | w] with w' = y_0: a costate that
    # switches at s = pi/2 + k pi, carrying one quadrature column
    M = np.zeros((4, 5))
    M[0, 1], M[1, 0], M[0, 4] = 1.0, -1.0, 1.0
    y0 = np.zeros((2, 5))
    y0[0, 0] = y0[1, 1] = 1.0
    try:
        return shooting._sweep(M, y0, t1)
    except IntegrationError:
        return None


def test_sweep_reads_chattering_after_2n_plus_4_restarts():
    # n = 4 rows of M allow 2n + 3 = 11 events, and the 12th is read as
    # chattering; the quadrature column adds none. Eleven switches fit in
    # s < 34.5, twelve in s < 38.
    events, y_f = _rotating_sweep(34.5)
    assert len(events) == 11
    for k, (s, y) in enumerate(events):
        assert s == pytest.approx(np.pi / 2 + k * np.pi, abs=1e-12)
        assert abs(y[0, 0]) < 1e-12
    assert y_f[0, 0] == pytest.approx(np.cos(34.5), abs=1e-9)
    assert y_f[0, 4] == pytest.approx(np.sin(34.5), abs=1e-9)
    assert _rotating_sweep(38.0) is None


def test_sweep_walks_its_windows_without_seams(monkeypatch):
    # 69 cells, walked whole and then in windows of 5 cells: the same events
    # and endpoint
    events, y_f = _rotating_sweep(34.5)
    monkeypatch.setattr(shooting, "_WINDOW", 5)
    windowed, y_w = _rotating_sweep(34.5)
    assert [s for s, _ in windowed] == pytest.approx([s for s, _ in events],
                                                     abs=1e-12)
    for (_, a), (_, b) in zip(events, windowed):
        assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(y_f - y_w)) < 1e-12


# rows [psi1, psi1', psi1''] of a nilpotent M: psi1 is a quadratic
_NILPOTENT = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _quadratic(r1, r2):
    """Row y(0) whose psi1(s) = (s - r1) (s - r2)."""
    return np.array([r1 * r2, -(r1 + r2), 2.0])


def test_sweep_finds_a_close_pair_of_zeros_inside_one_cell():
    # 16 cells of 0.125 on [0, 2]: both zeros lie in [0.625, 0.75], whose
    # ends have the same sign, so only the curvature bound can find them
    r1, r2 = 0.7, 0.7 + 1e-4
    events, y_f = shooting._sweep(_NILPOTENT, _quadratic(r1, r2), 2.0)
    assert [s for s, _ in events] == pytest.approx([r1, r2], abs=1e-12)
    for s, y in events:
        assert abs(y[0]) < 1e-12
        assert y[1] == pytest.approx(2.0 * s - (r1 + r2), abs=1e-12)
    assert y_f == pytest.approx([(2.0 - r1) * (2.0 - r2), 4.0 - r1 - r2, 2.0],
                                abs=1e-12)


@pytest.mark.parametrize("cap", [37, 36])
def test_a_cell_decided_in_exactly_the_part_cap_is_decided(monkeypatch, cap):
    # the close pair's cell is decided after 37 parts: a cap of 37 finds
    # both zeros, and only a cap of 36 leaves the cell undecided
    monkeypatch.setattr(shooting, "_MAX_PARTS", cap)
    r1, r2 = 0.7, 0.7 + 1e-4
    if cap == 36:
        with pytest.raises(IntegrationError, match="sign undecided"):
            shooting._sweep(_NILPOTENT, _quadratic(r1, r2), 2.0)
        return
    events, _ = shooting._sweep(_NILPOTENT, _quadratic(r1, r2), 2.0)
    assert [s for s, _ in events] == pytest.approx([r1, r2], abs=1e-12)


def test_sweep_reads_a_zero_at_s_0_as_no_event():
    # psi1 = s (s - 0.5): the zero at s = 0 is the terminal tie, not a switch
    events, _ = shooting._sweep(_NILPOTENT, _quadratic(0.0, 0.5), 2.0)
    assert [s for s, _ in events] == pytest.approx([0.5], abs=1e-12)
    events, _ = shooting._sweep(_NILPOTENT, _quadratic(1e-11, 1.5), 2.0)
    assert [s for s, _ in events] == pytest.approx([1.5], abs=1e-12)


@pytest.mark.parametrize("share", [1.0, 0.37, 1e-3], ids=["cell", "short",
                                                          "sliver"])
def test_cell_map_matches_scipy_expm(ref_problem, share):
    # the reference sweep's K = [[A, B], [0, 0]] at its cell width, and at
    # shorter widths, against scipy's Pade exponential
    A, B = ref_problem.sys.A, ref_problem.sys.B
    K = np.zeros((5, 5))
    K[:4] = np.column_stack((A, B))
    # the sweep's cells: uniform, ||A||_1 h <= 0.5, at least 16
    cells = max(16, np.ceil(FROZEN["t_f"] * np.abs(A).sum(axis=0).max() / 0.5))
    h = share * FROZEN["t_f"] / cells
    E = shooting._taylor(K, h).sum(axis=0)
    want = scipy.linalg.expm(K * h)
    assert np.linalg.norm(E - want) <= 1e-14 * np.linalg.norm(want)


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
    ok = dict(psi0=np.zeros(4), residual_norm=1e-10,
              terminal_costate=np.array([1.0, 0, 0, 0.5]), schedule=sched)
    cert = ExtremalCertificate(**ok)  # sanity: the base case is accepted
    # t_f and the switch times are the schedule's, with nothing to disagree
    assert cert.t_f == sched.t_f and cert.switch_times == sched.breakpoints
    with pytest.raises(DomainError):
        ExtremalCertificate(**{**ok, "residual_norm": 1e-6})
    with pytest.raises(DomainError):
        ExtremalCertificate(**{**ok, "schedule": ControlSchedule(
            levels=(1.0, 0.0, 1.0, 0.0, 1.0),
            breakpoints=(0.1, 0.2, 0.3, 0.4), t_f=1.0)})
    with pytest.raises(DomainError):  # a switch outside (0, t_f)
        ExtremalCertificate(**{**ok, "schedule": ControlSchedule(
            levels=(1.0, 0.0), breakpoints=(1.5,), t_f=1.0)})
    with pytest.raises(DomainError):  # psi2(t_f) != 0 on a free compartment
        ExtremalCertificate(**{**ok, "terminal_costate": np.array([1.0, 1e-4, 0, 0])})
    with pytest.raises(DomainError):  # a zero costate is no multiplier
        ExtremalCertificate(**{**ok, "terminal_costate": np.zeros(4)})


# ------------------------------------------------------- off-reference cases

def _panel_problem(sex, age, weight, height, ratio=None, x0_frac=None,
                   bis=50.0, u_max=U_MAX_REF):
    params = schnider_parameters(PatientDemographics(sex, age, weight, height))
    eq = equilibrium(params, bis_inverse(bis))
    u_max = u_max if ratio is None else ratio * eq.u_e
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
    # t_f = 31.02 min, past the strategy route's last start at 30 min
    # (GRID_TOP), which its search reaches from a start
    "male28.8-2ue": dict(sex="male", age=28.8, weight=44.8, height=158.4,
                         ratio=2.0),
    # bounds just above u_e: t_f of 294.5, 1246.1 and 340.4 min, far past
    # every start, which the strategy search, bounded by d >= 0 alone,
    # walks to
    "reference-1.2ue": dict(sex="male", age=53.0, weight=77.0, height=177.0,
                            ratio=1.2),
    "reference-u6.2": dict(sex="male", age=53.0, weight=77.0, height=177.0,
                           u_max=6.2),
    "female30-1.2ue": dict(sex="female", age=30.0, weight=55.0, height=160.0,
                           ratio=1.2),
}
PANEL = ["female30-17.4ue", "male80-17.4ue", "redose0.3", "bound2ue"]
SLOW = ["reference-1.2ue", "reference-u6.2", "female30-1.2ue"]
LONG_HORIZON = ["female30-2ue-bis40", "female30-2ue-bis60",
                "male32-2ue-bis40"] + SLOW
PAST_GRID = ["male28.8-2ue"]


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


@pytest.mark.parametrize("case", LONG_HORIZON + PAST_GRID)
def test_shooting_converges_on_long_horizons(case):
    _assert_routes_agree(case)
    assert _solved(case)[1].t_f > 15.0


@pytest.mark.parametrize("case", list(CASES))
def test_strategy_multipliers_witness_the_terminal_costate(case):
    # psi(t_f) = C^T mu from the strategy route's KKT system shares no code
    # with the certificate, whose transversality holds by construction
    prob, cert = _solved(case)
    best = solve_time_optimal(prob)
    assert best.certified
    psi_f = best.terminal_costate
    scale = np.linalg.norm(cert.terminal_costate)
    assert np.linalg.norm(psi_f - cert.terminal_costate) <= 1e-8 * scale


@given(sex=st.sampled_from(["male", "female"]),
       demo=st.fixed_dictionaries(
           {name: st.floats(lo, hi)
            for name, (lo, hi) in SCHNIDER_RANGE.items()}),
       ratio=st.floats(2.0, 40.0), bis=st.floats(40.0, 60.0),
       x0_frac=st.one_of(st.none(), st.floats(0.0, 0.9)))
# 60 draws at about 20 ms each: 1.6-2 s of the suite
@settings(max_examples=60, deadline=None, derandomize=True)
def test_routes_agree_from_equilibrium_starts(sex, demo, ratio, bis, x0_frac):
    # from rest or a re-dosing start f x_e the strategy route certifies its
    # answer, and shooting must land on the same extremal
    prob = _panel_problem(sex, ratio=ratio, x0_frac=x0_frac, bis=bis, **demo)
    best = solve_time_optimal(prob)
    assert best.certified
    cert = solve_shooting(prob)
    assert len(cert.switch_times) == len(best.schedule.breakpoints)
    assert abs(cert.t_f - best.t_f) <= 1e-9
    for t_c, t_s in zip(cert.switch_times, best.schedule.breakpoints):
        assert abs(t_c - t_s) <= 1e-9
    a, b = cert.terminal_costate, best.terminal_costate
    assert np.linalg.norm(a / np.linalg.norm(a)
                          - b / np.linalg.norm(b)) <= 1e-8


# the forward closed form e^(-A^T t_f) amplifies rounding by about
# e^(0.94 t_f), past what its bound allows beyond 30 min: a limit of this
# oracle, so the cases past 30 min are left out
@pytest.mark.parametrize("case", [c for c in CASES
                                  if c not in PAST_GRID + SLOW])
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

def _gap(prob, theta, t_f):
    return shooting_residual(prob, theta, t_f).gap


@pytest.mark.parametrize("case", ["reference"] + PANEL + LONG_HORIZON)
def test_exact_jacobian_matches_central_differences(case):
    prob, cert = _solved(case)
    psi_f = cert.terminal_costate
    theta0 = np.arctan2(psi_f[3], psi_f[0])
    h = 1e-5
    for theta, t_f in [(theta0, cert.t_f), (theta0 + 0.02, 1.03 * cert.t_f),
                       (theta0 + 0.01, 0.98 * cert.t_f)]:
        p = shooting_residual(prob, theta, t_f)
        assert len(p.switches) == 1
        central = [
            (_gap(prob, theta + h, t_f) - _gap(prob, theta - h, t_f))
            / (2 * h),
            (_gap(prob, theta, t_f + h * t_f)
             - _gap(prob, theta, t_f - h * t_f)) / (2 * h * t_f),
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
    p = shooting_residual(ref_problem, theta, t_f)
    assert p.switches == ()
    col = p.jac[:, 0]
    assert np.linalg.norm(col) > 0.0
    h = 1e-6  # second-order one-sided difference
    forward = (-3 * p.gap + 4 * _gap(ref_problem, theta + h, t_f)
               - _gap(ref_problem, theta + 2 * h, t_f)) / (2 * h)
    assert np.linalg.norm(col - forward) <= 1e-6 * np.linalg.norm(col)
