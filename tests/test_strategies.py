"""Strategy enumeration tests against the frozen reference solution.

The reference patient yields exactly one feasible bolus-first pattern (one
switch), a KKT point of min sum(d) s.t. r(d) = 0. Every other candidate has
no root, or is dominated: from rest a rest-first pattern reduces to the
bolus-first pattern with one switch fewer without a search, and the KKT
Newton solve from any root of strategies 5 and 7 makes a segment vanish.
"""
import dataclasses
import itertools
import json
import pathlib

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from anesopt import strategies
from anesopt.errors import DomainError, InfeasibleError
from anesopt.lti import LTISystem, constant_input_propagator, integrate
from anesopt.patient import (SCHNIDER_RANGE, PatientDemographics,
                             assemble_system, bis_inverse, equilibrium,
                             schnider_parameters)
from anesopt.problem import (FAST_IDX, ControlSchedule, TimeOptimalProblem,
                             build_problem, sample_trajectory)
from anesopt.shooting import solve_shooting
from anesopt.strategies import (
    FEAS_TOL,
    GRID_TOP,
    Pattern,
    StrategyResult,
    _GapSolver,
    _ModalRecord,
    _certify,
    _select,
    enumerate_patterns,
    solve_all_patterns,
    solve_pattern,
    solve_time_optimal,
)

from conftest import (CORPUS, FROZEN, U_MAX_REF, coverage_corpus, endpoint,
                      expm, kalman_rank)


# ------------------------------------------------------------- enumeration

def test_enumerate_all_patterns():
    pats = enumerate_patterns()
    assert [p.strategy for p in pats] == [1, 2, 3, 4, 5, 6, 7, 8]
    for p in pats:
        assert p.starts_high == (p.strategy % 2 == 1)
        assert p.switches == (p.strategy - 1) // 2


def test_pattern_levels_alternate():
    p = Pattern(strategy=7, starts_high=True, switches=3)
    assert p.levels(2.0) == (2.0, 0.0, 2.0, 0.0)
    q = Pattern(strategy=6, starts_high=False, switches=2)
    assert q.levels(2.0) == (0.0, 2.0, 0.0)


# ---------------------------------------------------------- schedule endpoint

def test_endpoint_equilibrium_hold(ref_sys, ref_eq):
    s = ControlSchedule(levels=(ref_eq.u_e,), breakpoints=(), t_f=5.0)
    x = endpoint(ref_sys, s, x0=ref_eq.x_e)
    assert np.allclose(x, ref_eq.x_e, rtol=0, atol=1e-9)


def test_endpoint_published_schedule_hits_targets(ref_sys):
    s = ControlSchedule(levels=(U_MAX_REF, 0.0), breakpoints=(0.5467,),
                        t_f=1.8397)
    x = endpoint(ref_sys, s)
    assert abs(x[0] - 14.518) < 1e-3
    assert abs(x[3] - 3.4) < 1e-3


def test_endpoint_matches_ode_integration(ref_sys, optimal):
    s = optimal.schedule
    tc = s.breakpoints[0]

    def on(t, x):
        return ref_sys.A @ x + ref_sys.B * U_MAX_REF

    def off(t, x):
        return ref_sys.A @ x

    mid = integrate(on, np.zeros(4), 0.0, tc, tol=1e-12, atol=1e-14)
    end = integrate(off, mid.states[-1], tc, s.t_f, tol=1e-12, atol=1e-14)
    assert np.max(np.abs(end.states[-1] - endpoint(ref_sys, s))) < 1e-8


@settings(max_examples=40, deadline=None)
@given(
    d1=st.floats(0.1, 2.0),
    d2=st.floats(0.1, 2.0),
    theta=st.floats(0.05, 0.95),
)
def test_endpoint_invariant_under_segment_split(ref_sys, d1, d2, theta):
    s = ControlSchedule(levels=(U_MAX_REF, 0.0), breakpoints=(d1,), t_f=d1 + d2)
    whole = endpoint(ref_sys, s)
    on = constant_input_propagator(ref_sys, U_MAX_REF)
    x = on(np.zeros(4), theta * d1)
    x = on(x, (1 - theta) * d1)
    x = constant_input_propagator(ref_sys, 0.0)(x, d2)
    assert np.max(np.abs(whole - x)) < 1e-10


# ------------------------------------------------------- reference verdicts

def test_one_switch_bolus_root_matches_frozen_values(bolus_results):
    r = next(r for r in bolus_results if r.strategy == 3)
    assert r.feasible
    assert r.schedule.levels == (U_MAX_REF, 0.0)
    assert abs(r.schedule.breakpoints[0] - FROZEN["t_c"]) < 1e-9
    assert abs(r.schedule.t_f - FROZEN["t_f"]) < 1e-9
    assert np.linalg.norm(r.residual, np.inf) < FEAS_TOL


def test_bolus_set_has_single_feasible_pattern(bolus_results):
    verdicts = {r.strategy: r.feasible for r in bolus_results}
    assert verdicts == {1: False, 3: True, 5: False, 7: False}
    for r in bolus_results:
        if not r.feasible:
            assert r.schedule is None and r.t_f is None


def test_full_enumeration_verdicts(all_results):
    assert [r.strategy for r in all_results] == [1, 2, 3, 4, 5, 6, 7, 8]
    feasible = [r.strategy for r in all_results if r.feasible]
    assert feasible == [3]


DOMINATED = "dominated: the minimum-time representative has a vanishing segment"


def test_redundant_families_collapse_to_the_one_switch_root(all_results):
    by_id = {r.strategy: r for r in all_results}
    for sid in (5, 6, 7, 8):
        assert not by_id[sid].feasible and by_id[sid].terminal_costate is None
    # the KKT solve leaves the one-switch root embedded in 5 and 7 on a face;
    # the note names neither a t_f nor a switch count, which depend on the start
    assert by_id[5].note == by_id[7].note == DOMINATED
    assert by_id[6].note == "dominated by strategy 3"
    assert by_id[8].note == "dominated by strategy 5"


# ------------------------------------------------- switching-time Jacobian

def _states(prob, zs):
    """The walk's modal rows z_j mapped to states x_j = V z_j."""
    return np.array(zs) @ prob.sys.V.T


def _resid(prob, sol, gaps):
    return prob.fast_residual(_states(prob, sol.walk(gaps))[-1])


def _jac(sol, gaps):
    """J as a 2 x k array from jac's two rows."""
    return np.array(sol.jac(gaps, sol.walk(gaps))[0])


def _central(prob, sol, gaps, h=1e-5):
    J = np.empty((2, len(gaps)))
    for j in range(len(gaps)):
        e = np.zeros(len(gaps))
        e[j] = h
        J[:, j] = (_resid(prob, sol, gaps + e)
                   - _resid(prob, sol, gaps - e)) / (2 * h)
    return J


@pytest.mark.parametrize("strategy", [3, 5, 7])
def test_jacobian_matches_central_differences(ref_problem, strategy):
    pat = Pattern(strategy=strategy, starts_high=True, switches=(strategy - 1) // 2)
    sol = _GapSolver(_ModalRecord(ref_problem), pat)
    rng = np.random.default_rng(strategy)
    for _ in range(4):
        g = rng.uniform(0.2, 3.0, pat.switches + 1)
        np.testing.assert_allclose(_jac(sol, g), _central(ref_problem, sol, g),
                                   rtol=1e-6)


def test_jacobian_at_a_zero_gap_is_the_right_derivative(ref_problem):
    sol = _GapSolver(_ModalRecord(ref_problem),
                     Pattern(strategy=7, starts_high=True, switches=3))
    g = np.array([0.8, 0.0, 0.6, 0.5])
    h = 1e-5
    e = np.array([0.0, h, 0.0, 0.0])
    # second-order forward difference: no point with a negative duration
    fwd = (-3 * _resid(ref_problem, sol, g)
           + 4 * _resid(ref_problem, sol, g + e)
           - _resid(ref_problem, sol, g + 2 * e)) / (2 * h)
    np.testing.assert_allclose(_jac(sol, g)[:, 1], fwd, rtol=1e-6)


@pytest.mark.parametrize("strategy, gaps", [
    (7, [0.5, 0.8, 1.2, 0.6]),   # interior
    (7, [0.8, 0.0, 0.6, 0.5]),   # a zero gap: the right-derivative
    (4, [1.0, 0.5]),             # a leading rest from rest
], ids=["interior", "zero-gap", "rest-first"])
def test_modal_transports_match_scipy_expm(ref_problem, strategy, gaps):
    # column j is C e^(A tau_j) (A x_j + B u_j), taken here from scipy's
    # exponential in state coordinates instead of the eigenbasis
    pat = Pattern(strategy=strategy, starts_high=strategy % 2 == 1,
                  switches=(strategy - 1) // 2)
    sol = _GapSolver(_ModalRecord(ref_problem), pat)
    g = np.array(gaps)
    zs = sol.walk(g)
    J = np.array(sol.jac(g, zs)[0])
    A, B = ref_problem.sys.A, ref_problem.sys.B
    for j, (u, x) in enumerate(zip(sol.levels, _states(ref_problem, zs))):
        v = scipy.linalg.expm(A * g[j + 1:].sum()) @ (A @ x + B * u)
        oracle = v[list(FAST_IDX)]
        assert np.max(np.abs(J[:, j] - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    if strategy == 4:
        # the rest segment leaves x = 0: its column is exactly zero, which
        # test_search_stops_when_a_free_gap_is_invisible relies on
        assert not J[:, 0].any() and J[:, 1].any()


def _integrator_chain():
    """A controllable 4-compartment chain fed at its head whose last
    compartment leaks at 1e-3/min, so it almost only accumulates: the
    spectrum holds an eigenvalue close to 0 (though above the 1e-6 bound
    LTISystem enforces), where expm1(lam d) / lam is nearly d."""
    A = np.array([[-2.0, 0.0, 0.0, 0.0],
                  [1.0, -1.0, 0.0, 0.0],
                  [0.0, 0.5, -0.5, 0.0],
                  [0.0, 0.0, 0.25, -1e-3]])
    sys = LTISystem.from_matrices(A, [1.0, 0.0, 0.0, 0.0])
    assert np.min(np.abs(sys.eigenvalues)) == pytest.approx(1e-3)
    assert kalman_rank(sys) == 4
    return TimeOptimalProblem(sys=sys, target_fast=np.array([1.0, 2.0]),
                              u_max=3.0, x0=np.array([0.2, 0.1, 0.4, 0.3]))


@pytest.mark.parametrize("start, strategy, gaps", [
    ("rest", 7, [0.5, 0.8, 1.2, 0.6]),
    ("rest", 7, [0.8, 0.0, 0.6, 0.0]),   # zero gaps leave the state alone
    ("rest", 5, [0.0, 0.0, 0.0]),
    ("rest", 4, [1.0, 0.5]),             # a leading rest from rest
    ("rest", 8, [0.3, 0.0, 1.2, 0.4]),
    ("redose", 5, [0.4, 1.1, 0.7]),      # x0 = 0.3 x_e
    ("redose", 6, [0.9, 0.0, 2.5]),
    ("integrator", 7, [0.5, 0.8, 1.2, 0.6]),
    ("integrator", 8, [0.7, 1.5, 0.0, 2.0]),
])
def test_walk_matches_chained_propagators(ref_problem, ref_eq, start, strategy,
                                          gaps):
    # V z_j after every segment against one constant_input_propagator call
    # per segment, in state coordinates
    if start == "integrator":
        prob = _integrator_chain()
    elif start == "redose":
        prob = dataclasses.replace(ref_problem, x0=0.3 * ref_eq.x_e)
    else:
        prob = ref_problem
    pat = Pattern(strategy=strategy, starts_high=strategy % 2 == 1,
                  switches=(strategy - 1) // 2)
    sol = _GapSolver(_ModalRecord(prob), pat)
    x = prob.x0
    for u, d, got in zip(sol.levels, gaps, _states(prob, sol.walk(gaps))):
        x = constant_input_propagator(prob.sys, u)(x, d)
        assert np.max(np.abs(got - x)) <= 1e-13 * np.max(np.abs(x))


@pytest.mark.parametrize("strategy", [5, 7])
def test_kkt_jacobian_matches_central_differences(ref_problem, strategy):
    pat = Pattern(strategy=strategy, starts_high=True, switches=(strategy - 1) // 2)
    sol = _GapSolver(_ModalRecord(ref_problem), pat)
    n = pat.switches + 1
    rng = np.random.default_rng(strategy)
    h = 1e-5

    def kkt_system(z):
        return sol.kkt_system(z[:n], sol.walk(z[:n]), z[n:])

    for _ in range(4):
        z = np.concatenate([rng.uniform(0.2, 3.0, n), rng.normal(size=2)])
        K = kkt_system(z)[1]
        central = np.empty_like(K)
        for j in range(n + 2):
            e = np.zeros(n + 2)
            e[j] = h
            hi = kkt_system(z + e)[0]
            lo = kkt_system(z - e)[0]
            central[:, j] = np.subtract(hi, lo) / (2 * h)
        np.testing.assert_allclose(K, central, rtol=1e-6)


@pytest.mark.parametrize("strategy", [3, 7])
def test_second_derivatives_match_central_differences(ref_problem, strategy):
    # d J_j / d d_i = C A v_min(i,j): jac's C A v rows against central
    # differences of J's columns, the second derivatives that the KKT block
    # and the search's Chebyshev step read
    pat = Pattern(strategy=strategy, starts_high=True, switches=(strategy - 1) // 2)
    sol = _GapSolver(_ModalRecord(ref_problem), pat)
    k, h = pat.switches + 1, 1e-5
    g = np.random.default_rng(strategy).uniform(0.2, 3.0, k)
    CAv = np.array(sol.jac(g, sol.walk(g))[1])
    for i in range(k):
        e = np.zeros(k)
        e[i] = h
        dJ = (_jac(sol, g + e) - _jac(sol, g - e)) / (2 * h)
        want = CAv[:, [min(i, j) for j in range(k)]]
        np.testing.assert_allclose(dJ, want, rtol=1e-6,
                                   atol=1e-9 * np.abs(CAv).max())


@pytest.mark.parametrize("f", [0.99, 1.01])
def test_one_switch_step_is_chebyshevs(ref_problem, optimal, monkeypatch, f):
    # from 1% off the reference root, the search's first step, Newton's step
    # plus J^-1 (-H(s, s) / 2), lowers |r| at third order: at least 100 times
    # further than the Newton step from the same point
    sol = _GapSolver(_ModalRecord(ref_problem),
                     Pattern(strategy=3, starts_high=True, switches=1))
    t_c, t_f = optimal.schedule.breakpoints[0], optimal.schedule.t_f
    g0 = [f * t_c, f * (t_f - t_c)]
    zs = sol.walk(g0)
    r = np.array(sol.residual(zs))
    newton = np.add(g0, np.linalg.solve(_jac(sol, np.array(g0)), -r))
    r_newton = np.linalg.norm(_resid(ref_problem, sol, newton), np.inf)
    walked = []
    walk = _GapSolver.walk

    def recording_walk(self, gaps):
        zs = walk(self, gaps)
        walked.append(self.residual(zs))
        return zs

    monkeypatch.setattr(_GapSolver, "walk", recording_walk)
    sol.search(g0, zs)
    # the first trial point is the full step: it lowered |r|, so no halving
    r_step = np.linalg.norm(walked[0], np.inf)
    assert np.linalg.norm(r, np.inf) > 1e-2 > r_newton > 1e-5
    assert r_step * 100 <= r_newton


def test_search_slides_along_a_pinned_gap(ref_problem):
    # strategy 7 from (3.75, 0, 0, 0): the descent direction pushes the zero
    # gaps negative, so an unpinned projected step is clipped back and
    # stalls near FEAS_TOL
    sol = _GapSolver(_ModalRecord(ref_problem),
                     Pattern(strategy=7, starts_high=True, switches=3))
    g, r, _ = sol.search(np.array([3.75, 0.0, 0.0, 0.0]))
    assert np.linalg.norm(r, np.inf) < 1e-12
    assert np.all(g >= 0.0)


def test_search_and_kkt_walk_each_point_once(ref_problem, monkeypatch):
    # the Jacobian reads the modal rows of the walk that scored its point
    walked = []
    walk = _GapSolver.walk

    def counting_walk(self, gaps):
        walked.append(tuple(gaps))
        return walk(self, gaps)

    monkeypatch.setattr(_GapSolver, "walk", counting_walk)
    sol = _GapSolver(_ModalRecord(ref_problem),
                     Pattern(strategy=3, starts_high=True, switches=1))
    g, r, zs = sol.search(np.array([1.0, 1.0]))
    assert np.linalg.norm(r, np.inf) < FEAS_TOL
    assert len(walked) > 2 and len(set(walked)) == len(walked)
    assert np.array_equal(zs, walk(sol, g))
    # the KKT Newton starts from the search's walk of the root, which is
    # already a KKT point of this square pattern: one Jacobian, no K
    walked.clear()
    jacs = []
    jac = _GapSolver.jac

    def counting_jac(self, gaps, zs):
        jacs.append(tuple(gaps))
        return jac(self, gaps, zs)

    monkeypatch.setattr(_GapSolver, "jac", counting_jac)
    point = sol.kkt(g, zs)
    assert point is not None and np.array_equal(point[0], g)
    assert walked == [] and jacs == [tuple(g)]
    # female 30 y at 5 u_e: strategy 5's root from the grid start
    # (T/128, T/128, T/32), T = GRID_TOP, is no KKT point, so the Newton
    # steps, walking each new point once and never the root again
    params = schnider_parameters(PatientDemographics("female", 30.0, 55.0, 160.0))
    prob = build_problem(params, 5.0 * equilibrium(params, bis_inverse(50.0)).u_e)
    sol = _GapSolver(_ModalRecord(prob),
                     Pattern(strategy=5, starts_high=True, switches=2))
    g0 = [GRID_TOP / 128, 0.0, 3 * GRID_TOP / 128]
    assert g0 in _start_gaps(sol)
    g, r, zs = sol.search(g0)
    assert np.linalg.norm(r, np.inf) < FEAS_TOL
    walked.clear()
    sol.kkt(g, zs)
    assert len(walked) > 0 and len(set(walked)) == len(walked)
    assert tuple(g) not in walked


class _CountingModule:
    """A module stand-in that counts the attribute lookups made on it."""

    def __init__(self, module):
        self.module, self.lookups = module, 0

    def __getattr__(self, name):
        self.lookups += 1
        return getattr(self.module, name)


def test_search_iterations_make_no_numpy_call(ref_problem, monkeypatch):
    # the walk, the residual, the Jacobian, _lstsq's closed form and the
    # pinned-face test run on Python floats: searches of different lengths
    # look numpy up equally often, so no lookup happens per iteration
    sol = _GapSolver(_ModalRecord(ref_problem),
                     Pattern(strategy=3, starts_high=True, switches=1))
    jacs = []
    jac = _GapSolver.jac

    def counting_jac(self, gaps, zs):
        jacs.append(gaps)
        return jac(self, gaps, zs)

    monkeypatch.setattr(_GapSolver, "jac", counting_jac)
    counted = _CountingModule(np)
    monkeypatch.setattr(strategies, "np", counted)
    iterations, lookups = set(), set()
    # the last start holds a zero gap, so its search runs the pinned-face test
    for g0 in ([1.0, 1.0], [0.1, 0.1], [0.234375, 0.0]):
        jacs.clear()
        counted.lookups = 0
        g, r, _ = sol.search(g0)
        assert np.linalg.norm(r, np.inf) < FEAS_TOL
        iterations.add(len(jacs))
        lookups.add(counted.lookups)
    assert len(iterations) > 1 and len(lookups) == 1


def test_onset_scan_makes_no_numpy_call(ref_problem, ref_params, monkeypatch):
    # the scan for the first start walks one segment per grid point on
    # Python floats: scans of different lengths look numpy up equally often
    walks = []
    walk = _GapSolver.walk

    def counting_walk(self, gaps):
        walks.append(gaps)
        return walk(self, gaps)

    monkeypatch.setattr(_GapSolver, "walk", counting_walk)
    u_e = equilibrium(ref_params, bis_inverse(50.0)).u_e
    sols = [_GapSolver(_ModalRecord(build_problem(ref_params, u_max)),
                       Pattern(3, True, 1))
            for u_max in (U_MAX_REF, 2.0 * u_e, 1.05 * u_e)]
    counted = _CountingModule(np)
    monkeypatch.setattr(strategies, "np", counted)
    scans, lookups = set(), set()
    for sol in sols:
        walks.clear()
        counted.lookups = 0
        next(sol.starts())
        scans.add(len(walks))
        lookups.add(counted.lookups)
    assert len(scans) == 3 and len(lookups) == 1


def test_start_grid_is_drawn_only_up_to_the_first_root(ref_problem, ref_eq,
                                                       monkeypatch):
    drawn, searched = [], []
    combos = itertools.combinations_with_replacement

    def counting_combos(pts, ndim):
        for c in combos(pts, ndim):
            drawn.append(c)
            yield c

    search = _GapSolver.search

    def counting_search(self, gaps0, zs=None):
        g, r, zs = search(self, gaps0, zs)
        searched.append(np.linalg.norm(r, np.inf))
        return g, r, zs

    monkeypatch.setattr(itertools, "combinations_with_replacement", counting_combos)
    monkeypatch.setattr(_GapSolver, "search", counting_search)
    # the reference: the full-rate onset start is a root, so no grid point
    # is drawn at all
    r = solve_pattern(ref_problem, Pattern(strategy=3, starts_high=True, switches=1))
    assert r.feasible
    assert drawn == [] and len(searched) == 1 and searched[0] < FEAS_TOL
    # from x_e (3, 0.3, 0.3, 0.2), strategy 7's onset start finds no root:
    # the grid is drawn up to its first root, and the onset start is the one
    # search more than the grid points drawn
    drawn.clear()
    searched.clear()
    prob = dataclasses.replace(ref_problem,
                               x0=ref_eq.x_e * np.array([3.0, 0.3, 0.3, 0.2]))
    solve_pattern(prob, Pattern(strategy=7, starts_high=True, switches=3))
    assert 0 < len(drawn) == len(searched) - 1 < len(list(
        combos(range(strategies.GRID_POINTS), 4)))
    assert searched[-1] < FEAS_TOL and all(nr >= FEAS_TOL for nr in searched[:-1])


def _start_gaps(sol):
    """The gap vectors of sol.starts(), without the walks they carry."""
    return [g for g, _ in sol.starts()]


def _grid_order(ndim):
    """The dyadic grid's starts in their own order, as lists."""
    pts = sorted(GRID_TOP / 2 ** i for i in range(strategies.GRID_POINTS))
    return [[b - a for a, b in zip((0.0,) + c, c)]
            for c in itertools.combinations_with_replacement(pts, ndim)]


@pytest.mark.parametrize("switches", [0, 1, 2, 3])
def test_bolus_first_search_starts_at_the_full_rate_onset(ref_problem,
                                                          switches):
    # the first start is [p, 0, ...] for the first grid point p where one
    # u_max segment lifts x4 to its target; the rest is the grid in its own
    # order, so that start does not come again
    sol = _GapSolver(_ModalRecord(ref_problem),
                     Pattern(2 * switches + 1, True, switches))
    starts, walks = zip(*sol.starts())
    p = starts[0][0]
    assert starts[0] == [p] + [0.0] * switches
    # the onset start carries the scan's walk of [p], which is its own walk
    assert walks[0] == sol.walk(starts[0]) and set(walks[1:]) == {None}
    assert sol.residual(sol.walk([p]))[1] >= 0.0
    assert p > GRID_TOP / 128 and sol.residual(sol.walk([p / 2]))[1] < 0.0
    grid = _grid_order(switches + 1)
    grid.remove(starts[0])
    assert list(starts[1:]) == grid


@pytest.mark.parametrize("case", ["rest-first", "x4hi", "onset-past-T/2"])
def test_other_searches_keep_the_grid_order(ref_problem, ref_params, case):
    pattern = Pattern(strategy=3, starts_high=True, switches=1)
    if case == "rest-first":
        prob, pattern = ref_problem, Pattern(strategy=4, starts_high=False,
                                             switches=1)
    elif case == "x4hi":  # the CI start with x4 above its target
        prob = dataclasses.replace(ref_problem,
                                   x0=np.array([2.0, 19.2711, 243.9024, 4.0]))
    else:  # at 1.05 u_e, full rate lifts x4 to its target after GRID_TOP
        u_e = equilibrium(ref_params, bis_inverse(50.0)).u_e
        prob = build_problem(ref_params, 1.05 * u_e)
        sol = _GapSolver(_ModalRecord(prob), pattern)
        assert sol.residual(sol.walk([GRID_TOP]))[1] < 0.0
    sol = _GapSolver(_ModalRecord(prob), pattern)
    assert list(sol.starts()) == [(g, None) for g in _grid_order(2)]


def test_search_stops_when_a_free_gap_is_invisible(ref_problem, monkeypatch):
    # strategy 4's levels from rest: the leading rest segment leaves x = 0,
    # so its Jacobian column is exactly zero and no start earns a Newton step
    # (solve_pattern reports the pattern dominated before any search)
    jacs = []
    jac = _GapSolver.jac

    def counting_jac(self, gaps, zs):
        jacs.append(gaps)
        return jac(self, gaps, zs)

    monkeypatch.setattr(_GapSolver, "jac", counting_jac)
    sol = _GapSolver(_ModalRecord(ref_problem),
                     Pattern(strategy=4, starts_high=False, switches=1))
    starts = _start_gaps(sol)
    assert len(starts) == len(list(itertools.combinations_with_replacement(
        range(strategies.GRID_POINTS), 2)))
    for g0 in starts:
        g, r, _ = sol.search(g0)
        assert np.array_equal(g, g0) and np.linalg.norm(r, np.inf) > FEAS_TOL
    assert len(jacs) == len(starts)


# ------------------------------------------------ closed-form least squares

# s_min / s_max is 1.03 times lstsq's cut-off here (lstsq: rank 2), within
# rounding of the closed-form D; from a hot-start or u_max = 6.2 search
BORDERLINE = np.array([[0.09227907941607955, 0.0, 0.09227907941607949],
                       [0.025404940576197833, 0.0, 0.02540494057619795]])


def _oracle_matrices():
    """2 x m matrices, m = 1..4: random over six decades of scale, with
    zeroed (pinned) columns, exactly rank 1, all zero, and BORDERLINE."""
    rng = np.random.default_rng(19)
    for m in range(1, 5):
        for _ in range(40):
            yield rng.normal(size=(2, m)) * 10.0 ** rng.uniform(-3, 3)
        for _ in range(20):
            J = rng.normal(size=(2, m))
            J[:, rng.random(m) < 0.5] = 0.0
            yield J
        # rows v and 2 v: every 2 x 2 minor rounds to exactly 0
        v = rng.normal(size=m)
        yield np.array([v, 2.0 * v])
        yield np.zeros((2, m))
    yield BORDERLINE


def test_closed_form_step_matches_lstsq(monkeypatch):
    # the search's step lstsq(J, -r) and the KKT start lstsq(J^T, -1)
    rng = np.random.default_rng(7)
    lstsq = np.linalg.lstsq
    fallbacks = []

    def spy(*args, **kwargs):
        fallbacks.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    ranks = set()
    for J in _oracle_matrices():
        for A, tall in ((J, False), (J.T, True)):
            b = rng.normal(size=A.shape[0])
            fallbacks.clear()
            x, rank = strategies._lstsq(J.tolist(), tuple(b), tall)
            want, _, want_rank, _ = lstsq(A, b, rcond=None)
            assert rank == want_rank, A
            assert np.linalg.norm(np.subtract(x, want)) <= 1e-12 * np.linalg.norm(want)
            # lstsq itself runs only within _RANK_BAND of its cut-off
            assert bool(fallbacks) == (J is BORDERLINE), A
            ranks.add(rank)
    assert ranks == {0, 1, 2}


@pytest.mark.parametrize("case", ["reference", "male80-5ue", "hot-start",
                                  "slow-u6.2", "unreachable"])
def test_every_rank_decision_is_lstsqs(ref_problem, ref_params, case,
                                       monkeypatch):
    # the search stops on the rank, so the closed form must never turn it
    prob = {"reference": lambda: ref_problem,
            "male80-5ue": _male80_5ue,
            "hot-start": lambda: dataclasses.replace(
                ref_problem, x0=np.array([43.554, 19.2711, 243.9024, 2.72])),
            "slow-u6.2": lambda: build_problem(ref_params, u_max=6.2),
            "unreachable": lambda: build_problem(ref_params, u_max=5.0)}[case]()
    ranks = []  # (closed-form rank, lstsq rank) of each step
    closed = strategies._lstsq

    def audited(rows, b, tall=False):
        x, rank = closed(rows, b, tall)
        A = np.array(rows).T if tall else np.array(rows)
        ranks.append((rank, np.linalg.lstsq(A, np.asarray(b), rcond=None)[2]))
        return x, rank

    monkeypatch.setattr(strategies, "_lstsq", audited)
    solve_all_patterns(prob)
    assert len(ranks) > 20
    assert all(closed == want for closed, want in ranks)


def _male80_5ue():
    demo = PatientDemographics(sex="male", age=80.0, weight=70.0, height=170.0)
    params = schnider_parameters(demo)
    u_max = 5.0 * equilibrium(params, bis_inverse(50.0)).u_e
    return build_problem(params, u_max=u_max, bis_target=50.0)


def test_restoration_searches_run_to_a_root_not_to_a_small_step():
    # the family descent once stopped short of the face here, and strategy 5
    # turned into a false interior minimum; the KKT solve leaves on the face
    r = solve_pattern(_male80_5ue(), Pattern(strategy=5, starts_high=True, switches=2))
    assert not r.feasible
    assert r.note == DOMINATED


@pytest.mark.parametrize("case", ["reference", "male80-5ue"])
def test_verdicts_do_not_depend_on_the_start_order(ref_problem, case, monkeypatch):
    prob = ref_problem if case == "reference" else _male80_5ue()
    forward = solve_all_patterns(prob)
    starts = _GapSolver.starts
    monkeypatch.setattr(_GapSolver, "starts",
                        lambda self: reversed(list(starts(self))))
    backward = solve_all_patterns(prob)
    compared = 0
    for a, b in zip(forward, backward):
        if a.note.startswith("no "):
            continue  # rootless: the note is the best residual of every start
        compared += 1
        assert (a.feasible, a.note) == (b.feasible, b.note)
        if a.feasible:
            assert abs(a.t_f - b.t_f) < 1e-9
    assert compared >= 3


def test_rootless_searches_stop_once_the_step_moves_nothing(ref_problem, monkeypatch):
    # a converged multistart used to run out its lambda escalations: with
    # central-difference Jacobians the three searches took 1,048 propagations,
    # one per segment of positive duration walked
    calls = []
    walk = _GapSolver.walk

    def counting_walk(self, gaps):
        calls.extend(d for d in gaps if d > 0)
        return walk(self, gaps)

    monkeypatch.setattr(_GapSolver, "walk", counting_walk)
    r = solve_pattern(ref_problem, Pattern(strategy=1, starts_high=True, switches=0))
    assert not r.feasible and r.note.startswith("no root")
    assert np.linalg.norm(r.residual, np.inf) == pytest.approx(3.2858202287560356,
                                                               rel=1e-9)
    # from rest the rest-first patterns 2 and 4 are reported without a search:
    # strategy 4 is strategy 1 behind a rest segment, not a floor of 7.86
    for sid, note in {2: "never leaves rest", 4: "dominated by strategy 1"}.items():
        r = solve_pattern(ref_problem, Pattern(strategy=sid, starts_high=False,
                                               switches=(sid - 1) // 2))
        assert not r.feasible and r.note == note and r.residual.size == 0
    assert len(calls) < 1048 // 2


def test_rootless_patterns_report_the_residual_floor(all_results):
    by_id = {r.strategy: r for r in all_results}
    assert not by_id[1].feasible
    assert "no root" in by_id[1].note or "no certified" in by_id[1].note
    assert np.linalg.norm(by_id[1].residual, np.inf) > 1e-6
    # rest-first patterns from rest are dominated, with no residual to report
    assert by_id[2].note == "never leaves rest"
    assert by_id[4].note == "dominated by strategy 1"
    for sid in (2, 4):
        assert not by_id[sid].feasible and by_id[sid].residual.size == 0


def test_optimal_selection(optimal):
    assert optimal.strategy == 3
    assert optimal.feasible
    assert abs(optimal.t_f - FROZEN["t_f"]) < 1e-9
    assert optimal.schedule.levels == (U_MAX_REF, 0.0)


def test_kkt_multipliers_satisfy_the_maximum_principle(ref_sys, optimal):
    # psi(t) = e^(A^T (t_f - t)) C^T mu: H = 1 + psi . (A x + B u) vanishes on
    # both sides of the switch, so psi1(t_c) = 0, and psi2 = psi3 = 0 at t_f
    psi_f = optimal.terminal_costate
    assert psi_f[1] == psi_f[2] == 0.0
    s = optimal.schedule
    tc = s.breakpoints[0]
    x_c = endpoint(ref_sys, ControlSchedule(s.levels[:1], (), tc))
    psi_c = expm(ref_sys.A.T, s.t_f - tc) @ psi_f
    for u in s.levels:
        assert abs(1.0 + psi_c @ (ref_sys.A @ x_c + ref_sys.B * u)) < 1e-9
    x_f = endpoint(ref_sys, s)
    assert abs(1.0 + psi_f @ (ref_sys.A @ x_f + ref_sys.B * s.levels[-1])) < 1e-9


def test_optimal_endpoint_full_state(ref_sys, optimal):
    x = endpoint(ref_sys, optimal.schedule)
    assert np.allclose(x, FROZEN["x_tf"], rtol=0, atol=1e-6)


def test_effect_site_rises_monotonically_to_the_target(ref_sys, optimal):
    # x4' = ae0 (x1/v1 - x4) stays positive until the final time, where the
    # two targets make it exactly zero: x4 peaks at t_f
    traj = sample_trajectory(ref_sys, optimal.schedule, step=0.01)
    x4 = traj.states[:, 3]
    assert np.all(np.diff(x4) > -1e-10)
    tc = optimal.schedule.breakpoints[0]
    on = traj.times[:-1] < tc
    assert np.all(np.diff(x4)[on] > 0)


def test_one_switch_root_past_a_one_minute_grid_is_found(ref_problem,
                                                         monkeypatch):
    # every start ends by 1 min and the root lies at 1.84: the search,
    # bounded by d >= 0 alone, walks out to it
    monkeypatch.setattr(strategies, "GRID_TOP", 1.0)
    pat = Pattern(strategy=3, starts_high=True, switches=1)
    assert max(sum(g) for g in _start_gaps(
        _GapSolver(_ModalRecord(ref_problem), pat))) == 1.0
    r = solve_pattern(ref_problem, pat)
    assert r.feasible and r.certified
    assert r.t_f == pytest.approx(1.839754399944804, abs=1e-12)


# ------------------------------------------------------------- validation

def test_uncontrollable_system_rejected():
    # every entry point refuses the system, a single pattern too, and before
    # a rest-first pattern's no-search verdict
    solves = [solve_all_patterns, solve_time_optimal,
              lambda prob: solve_pattern(prob, Pattern(3, True, 1)),
              lambda prob: solve_pattern(prob, Pattern(2, False, 0))]
    for B in ([1, 0, 0, 0], [1, 0, 0, 1]):
        sys = LTISystem.from_matrices(np.diag([-1.0, -2.0, -3.0, -4.0]), B)
        prob = TimeOptimalProblem(sys=sys, target_fast=(1.0, 1.0), u_max=10.0)
        for solve in solves:
            with pytest.raises(DomainError, match="^system is not "
                               "controllable from the infusion input$"):
                solve(prob)


def _schnider_sweep():
    """The corners and the centre of the Schnider range, both sexes."""
    lo, hi = [np.array([r[k] for r in SCHNIDER_RANGE.values()])
              for k in (0, 1)]
    names = list(SCHNIDER_RANGE)
    points = [np.where(corner, hi, lo)
              for corner in itertools.product((0, 1), repeat=len(names))]
    points.append((lo + hi) / 2)
    return [assemble_system(schnider_parameters(PatientDemographics(
        sex=sex, **dict(zip(names, p.tolist())))))
        for sex in ("male", "female") for p in points]


def test_record_controllability_equals_the_krylov_rank(ref_sys):
    # the record reads controllability from Vi B (the Hautus test); the
    # Krylov oracle decides it by full rank at its 1e-10 rule
    diag = np.diag([-1.0, -2.0, -3.0, -4.0])
    severed = np.array(ref_sys.A)  # no slow-compartment exchange: x3 unreachable
    severed[2, 0] = severed[0, 2] = 0.0
    cases = [ref_sys, LTISystem.from_matrices(diag, [1, 0, 0, 0]),
             LTISystem.from_matrices(diag, [1, 0, 0, 1]),
             LTISystem.from_matrices(severed, ref_sys.B)]
    sweep = _schnider_sweep()
    decisions = []
    for sys in cases + sweep:
        prob = TimeOptimalProblem(sys=sys, target_fast=(1.0, 1.0), u_max=10.0)
        try:
            _ModalRecord(prob)
            admitted = True
        except DomainError:
            admitted = False
        decisions.append(admitted)
        assert admitted == (kalman_rank(sys) == sys.n)
    assert decisions == [True, False, False, False] + [True] * len(sweep)


def test_complex_spectrum_rejected():
    # no problem can be stated on a complex spectrum: the system rejects it
    A = np.array([[0.0, 1.0, 0.0, 0.0],
                  [-1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, -1.0, 0.0],
                  [0.0, 0.0, 0.0, -2.0]])
    with pytest.raises(DomainError, match="spectrum"):
        LTISystem.from_matrices(A, [1.0, 1.0, 1.0, 1.0])


def test_unreachable_target_raises_infeasible(ref_params):
    # bound below the equilibrium rate u_e = 6.09: no control holds the target
    prob = build_problem(ref_params, u_max=5.0)
    with pytest.raises(InfeasibleError, match="best residual"):
        solve_time_optimal(prob)


def test_bound_just_above_the_equilibrium_rate_is_solved(ref_params):
    # u_max = 6.2 against u_e = 6.09: the target is reachable, 1246 min out,
    # far past every start, and the one-switch answer is certified
    best = solve_time_optimal(build_problem(ref_params, u_max=6.2))
    assert best.strategy == 3 and best.certified
    assert abs(best.t_f - 1246.1142484778702) < 1e-9


def test_result_invariants():
    with pytest.raises(DomainError):
        StrategyResult(strategy=1, schedule=None, residual=np.zeros(2),
                       feasible=True)
    s = ControlSchedule(levels=(1.0,), breakpoints=(), t_f=1.0)
    with pytest.raises(DomainError):
        StrategyResult(strategy=1, schedule=s, residual=np.array([0.1, 0.0]),
                       feasible=True)


def test_a_nan_residual_is_never_feasible():
    # Python's max drops a NaN that is not its first argument; the bound
    # check must not
    s = ControlSchedule(levels=(1.0,), breakpoints=(), t_f=1.0)
    for residual in ([np.nan, 0.0], [0.0, np.nan]):
        with pytest.raises(DomainError):
            StrategyResult(strategy=1, schedule=s, residual=residual,
                           feasible=True)


def test_kkt_system_at_a_nan_residual_is_no_kkt_point(ref_problem, optimal):
    sol = _GapSolver(_ModalRecord(ref_problem),
                     Pattern(strategy=3, starts_high=True, switches=1))
    t_c, t_f = optimal.schedule.breakpoints[0], optimal.t_f
    g = [t_c, t_f - t_c]
    zs = sol.walk(g)
    assert sol.kkt_system(g, zs)[1] is None  # the optimum is a KKT point
    sol.record.target = [sol.record.target[0], np.nan]
    F, K, *_ = sol.kkt_system(g, zs)
    assert np.isnan(F[1]) and K is not None


def test_certified_result_needs_a_kkt_point():
    s = ControlSchedule(levels=(1.0, 0.0), breakpoints=(0.5,), t_f=1.0)
    with pytest.raises(DomainError):
        StrategyResult(strategy=3, schedule=None, residual=np.array([0.1, 0.0]),
                       feasible=False, certified=True)
    with pytest.raises(DomainError):  # feasible, but no multipliers
        StrategyResult(strategy=3, schedule=s, residual=np.zeros(2),
                       feasible=True, certified=True)


# -------------------------------------------------------------- certificate

def _modal(prob, res):
    """Modal coefficients c of psi1(s) = sum c_i e^(lam_i s)."""
    sys = prob.sys
    return (sys.Vi @ sys.B) * (sys.V.T @ res.terminal_costate)


def _sign_changes(prob, res):
    return int(np.count_nonzero(np.diff(np.sign(_modal(prob, res)))))


def _psi1_at_switches(prob, res):
    """|psi1| u_max at each switch."""
    sys, s, c = prob.sys, res.schedule, _modal(prob, res)
    lam_s = np.multiply.outer(s.t_f - np.array(s.breakpoints), sys.eigenvalues)
    return np.abs(np.exp(lam_s) @ c) * prob.u_max


def _certifies(prob, res):
    """_certify on a result, with mu = psi(t_f)[FAST_IDX]."""
    mu = res.terminal_costate[list(FAST_IDX)].tolist()
    return _certify(_ModalRecord(prob), res.schedule, mu)


def _mutations(res, shift=1e-6):
    """Near misses of a KKT point. A uniform positive scaling of mu is the
    same certificate; scaling one multiplier turns psi(t_f), which moves the
    zero of psi1 off the switch. The first switch moves by shift of itself."""
    s = res.schedule
    bumped = res.terminal_costate.copy()
    bumped[FAST_IDX[0]] *= 1 + 1e-6
    moved = (s.breakpoints[0] * (1 + shift),) + s.breakpoints[1:]
    return {
        "flipped-levels": dataclasses.replace(res, schedule=ControlSchedule(
            s.levels[::-1], s.breakpoints, s.t_f)),
        "scaled-mu1": dataclasses.replace(res, terminal_costate=bumped),
        "moved-switch": dataclasses.replace(res, schedule=ControlSchedule(
            s.levels, moved, s.t_f)),
    }


def test_reference_optimum_is_certified(ref_problem, optimal):
    assert optimal.certified and _sign_changes(ref_problem, optimal) == 1
    assert _certifies(ref_problem, optimal) is True
    assert np.max(_psi1_at_switches(ref_problem, optimal)) <= 1e-13
    for name, bad in _mutations(optimal).items():
        assert _certifies(ref_problem, bad) is False, name


def test_a_nan_terminal_costate_is_not_certified(ref_problem, optimal):
    # the certificate reads psi(t_f) = C^T mu through mu alone
    record = _ModalRecord(ref_problem)
    for i in range(len(FAST_IDX)):
        mu = optimal.terminal_costate[list(FAST_IDX)].tolist()
        mu[i] = np.nan
        assert _certify(record, optimal.schedule, mu) is False, i


def test_a_zero_input_column_holds_no_start(ref_problem):
    # a zero B is uncontrollable: the record refuses it before any start test
    sys = LTISystem.from_matrices(ref_problem.sys.A, np.zeros(4))
    for x0 in (np.zeros(4), np.ones(4)):
        prob = dataclasses.replace(ref_problem, sys=sys, x0=x0)
        with pytest.raises(DomainError, match="controllable"):
            _ModalRecord(prob)


def test_non_equilibrium_start_falls_back_to_the_enumeration(ref_problem,
                                                             monkeypatch):
    # a bolus already in the blood and nowhere else is held by no input
    prob = dataclasses.replace(ref_problem, x0=np.array([5.0, 0.0, 0.0, 0.0]))
    assert not _ModalRecord(prob).held
    calls = _recording(monkeypatch)
    best = solve_time_optimal(prob)
    assert calls == [3, 1, 2, 4, 5, 6, 7, 8]
    assert best.feasible and not best.certified


@pytest.mark.parametrize("f, x1_scale, u_max, held, strategy, t_f", [
    (1.6, 1.0, 1.5, False, 4, 4.989322838),       # u0 = 1.6 u_e > u_max
    (-0.5, 1.0, 2.0, False, 3, 24.837076972),     # u0 = -0.5 u_e < 0
    (0.3, 1 + 1e-9, None, False, 3, 1.6581915357421635),  # off x_e by 1e-9
    (0.3, 1 + 1e-13, None, True, 3, 1.6581915357839314),  # rounding only
], ids=["u0-above-u_max", "u0-negative", "x1-off-by-1e-9", "x1-off-by-1e-13"])
def test_only_an_admissible_equilibrium_start_is_certified(
        ref_params, ref_eq, f, x1_scale, u_max, held, strategy, t_f):
    # x0 = f x_e with x1 scaled, at u_max = (ratio) u_e or the clinical
    # bound: each near miss of the start test has a reachable target, and
    # a certificate that let it through would certify a KKT point there
    x0 = f * ref_eq.x_e * np.array([x1_scale, 1.0, 1.0, 1.0])
    u = U_MAX_REF if u_max is None else u_max * ref_eq.u_e
    prob = build_problem(ref_params, u, 50.0, x0=x0)
    assert _ModalRecord(prob).held is held
    best = solve_time_optimal(prob)
    assert best.certified is held
    assert best.strategy == strategy
    assert best.t_f == pytest.approx(t_f, rel=1e-9)


@pytest.mark.parametrize("demo", coverage_corpus.PANEL,
                         ids=[f"{d[0]}{d[1]:g}" for d in coverage_corpus.PANEL])
def test_a_bound_just_above_equilibrium_is_certified(demo):
    # at 1.001 u_e the switch lies 1.2e-5 min before a t_f of about 2,400
    # min and max|c| is about 2.7e4 on the reference patient: there psi1 at
    # the switch is rounding of that size, above FEAS_TOL / u_max, and only
    # a switch test relative to max|c| certifies the point
    params = schnider_parameters(PatientDemographics(*demo))
    prob = build_problem(params, 1.001 * equilibrium(params, bis_inverse(50.0)).u_e)
    best = solve_time_optimal(prob)
    assert best.strategy == 3 and best.certified
    assert best.t_f == pytest.approx(solve_shooting(prob).t_f, rel=1e-10)
    if demo == coverage_corpus.REFERENCE:
        assert prob.u_max == 6.096838019720976
        assert best.t_f == pytest.approx(2461.6853671977215, rel=1e-12)
        assert np.max(_psi1_at_switches(prob, best)) > FEAS_TOL
    # the switch moved earlier: 1e-6 of it later would pass t_f
    for name, bad in _mutations(best, shift=-1e-6).items():
        assert _certifies(prob, bad) is False, name


def _population():
    """26 cases: six patients at four bounds u_max / u_e at BIS 50, and two
    re-dosing starts f x_e of the reference patient at its clinical bound."""
    patients = [("male", 53.0, 77.0, 177.0), ("female", 30.0, 55.0, 160.0),
                ("male", 80.0, 70.0, 170.0), ("female", 65.0, 62.0, 158.0),
                ("male", 28.0, 95.0, 188.0), ("female", 45.0, 82.0, 168.0)]
    cases = {}
    for demo in patients:
        params = schnider_parameters(PatientDemographics(*demo))
        u_e = equilibrium(params, bis_inverse(50.0)).u_e
        for ratio in (2.0, 5.0, 17.4, 40.0):
            cases[f"{demo[0]}{demo[1]:g}-{ratio:g}ue"] = (params, ratio * u_e, None)
    params = schnider_parameters(PatientDemographics(*patients[0]))
    x_e = equilibrium(params, bis_inverse(50.0)).x_e
    for frac in (0.3, 0.6):
        cases[f"redose{frac:g}"] = (params, U_MAX_REF, frac * x_e)
    return cases


POPULATION = _population()


def test_population_solves_take_fewer_jacobians(monkeypatch):
    # the full-rate onset start skips the search's climb from the grid's
    # first point (208 Jacobians); the one-switch Chebyshev step and the
    # onset start's reuse of its scan's walk cut the first-order search's
    # 171 Jacobians and 289 walks to 130 and 221
    jacs, walks = [], []
    jac, walk = _GapSolver.jac, _GapSolver.walk

    def counting_jac(self, gaps, zs):
        jacs.append(gaps)
        return jac(self, gaps, zs)

    def counting_walk(self, gaps):
        walks.append(gaps)
        return walk(self, gaps)

    monkeypatch.setattr(_GapSolver, "jac", counting_jac)
    monkeypatch.setattr(_GapSolver, "walk", counting_walk)
    for params, u_max, x0 in POPULATION.values():
        solve_time_optimal(build_problem(params, u_max, 50.0, x0=x0))
    assert len(jacs) < 171 and len(walks) < 289


def _same(a, b):
    """Field-for-field bitwise equality of two StrategyResults."""
    for f in dataclasses.fields(StrategyResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert isinstance(y, np.ndarray) and x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("case", list(POPULATION))
def test_certified_solve_equals_the_full_enumeration(case):
    params, u_max, x0 = POPULATION[case]
    prob = build_problem(params, u_max, 50.0, x0=x0)
    best = solve_time_optimal(prob)
    assert best.certified and _sign_changes(prob, best) == 1
    _same(best, _select(solve_all_patterns(prob)))
    assert np.max(_psi1_at_switches(prob, best)) <= 1e-13
    for name, bad in _mutations(best).items():
        assert _certifies(prob, bad) is False, name
        if name != "flipped-levels":  # the flip keeps the zero, not the law
            assert np.max(_psi1_at_switches(prob, bad)) >= 1e-7, name


FROZEN_POPULATION = pathlib.Path(__file__).parent / "data" / "population_strategy.json"


def test_population_answers_match_the_frozen_file():
    # strategy, certificate, t_f and switch times of each POPULATION case,
    # frozen from the state-coordinate Jacobian (one 4x4 exponential per
    # switch): a change of basis may move them by rounding only. Never
    # regenerate the file to make this pass.
    frozen = json.loads(FROZEN_POPULATION.read_text())
    assert set(frozen) == set(POPULATION)
    for case, (params, u_max, x0) in POPULATION.items():
        best = solve_time_optimal(build_problem(params, u_max, 50.0, x0=x0))
        want = frozen[case]
        assert (best.strategy, best.certified) == (want["strategy"],
                                                   want["certified"]), case
        assert best.t_f == pytest.approx(want["t_f"], rel=1e-12), case
        np.testing.assert_allclose(best.schedule.breakpoints,
                                   want["breakpoints"], rtol=1e-12, atol=0,
                                   err_msg=case)


def _grid():
    """36 non-equilibrium starts x0 = x_e * (f1, 0.3, 0.3, f4): three
    patients at three bounds u_max / u_e, f1 in (1, 3) and f4 in (0.2, 0.8).
    No start is held by an admissible control, so every case walks all
    eight patterns and returns _select's uncertified answer."""
    cases = {}
    for demo in (("male", 53.0, 77.0, 177.0), ("female", 30.0, 55.0, 160.0),
                 ("male", 80.0, 70.0, 170.0)):
        params = schnider_parameters(PatientDemographics(*demo))
        eq = equilibrium(params, bis_inverse(50.0))
        for ratio in (2.0, 5.0, 17.4):
            for f1 in (1.0, 3.0):
                for f4 in (0.2, 0.8):
                    case = f"{demo[0]}{demo[1]:g}-{ratio:g}ue-f1{f1:g}-f4{f4:g}"
                    cases[case] = (params, ratio * eq.u_e,
                                   eq.x_e * np.array([f1, 0.3, 0.3, f4]))
    return cases


FROZEN_GRID = pathlib.Path(__file__).parent / "data" / "grid_strategy.json"


def test_grid_answers_match_the_frozen_file():
    # strategy, certificate, t_f and switch times of each _grid case, frozen
    # from the state-coordinate walk (one constant_input_propagator call per
    # segment): strategy 4 and uncertified answers, which the population
    # lacks. Never regenerate the file to make this pass.
    frozen = json.loads(FROZEN_GRID.read_text())
    grid = _grid()
    assert set(frozen) == set(grid)
    seen = set()
    for case, (params, u_max, x0) in grid.items():
        best = solve_time_optimal(build_problem(params, u_max, 50.0, x0=x0))
        want = frozen[case]
        assert (best.strategy, best.certified) == (want["strategy"],
                                                   want["certified"]), case
        assert best.t_f == pytest.approx(want["t_f"], rel=1e-12), case
        np.testing.assert_allclose(best.schedule.breakpoints,
                                   want["breakpoints"], rtol=1e-12, atol=0,
                                   err_msg=case)
        seen.add((best.strategy, best.certified))
    assert seen == {(3, False), (4, False)}


def test_reachable_target_past_the_longest_start_is_solved():
    # male 28.8 y, 44.8 kg, 158.4 cm at u_max = 2 u_e: t_f = 31.02 min lies
    # past the longest start (GRID_TOP, 30 min), and the search reaches it
    params = schnider_parameters(PatientDemographics("male", 28.8, 44.8, 158.4))
    prob = build_problem(params, 2.0 * equilibrium(params, bis_inverse(50.0)).u_e)
    alone = solve_pattern(prob, Pattern(3, True, 1))
    assert alone.feasible and alone.certified
    assert alone.t_f > GRID_TOP
    assert alone.t_f == pytest.approx(31.0217001172425, rel=1e-12)
    best = solve_time_optimal(prob)
    assert best.certified and best.strategy == 3


@pytest.mark.parametrize("T", [1e-4, 5e-4, 9e-4, 0.3, 1.0, 2.0])
def test_full_rate_target_is_the_isolated_root_of_strategy_one(ref_problem, T):
    # the fast rows of the full-rate state at T: strategy 1 reaches them at
    # T, and no control sooner (x1 and x4 rise fastest at full rate). Below
    # 1e-3 min the segment still moves the endpoint by about u_max T, far
    # above FEAS_TOL, so it is real; its root is read to 1e-9 relative there
    rel = 1e-9 if T < 1e-3 else 1e-12
    full = constant_input_propagator(ref_problem.sys, ref_problem.u_max)
    x_T = full(ref_problem.x0, T)
    prob = dataclasses.replace(ref_problem, target_fast=x_T[list(FAST_IDX)])
    alone = solve_pattern(prob, Pattern(1, True, 0))
    assert alone.feasible and alone.note == "isolated root"
    assert alone.schedule.levels == (ref_problem.u_max,)
    assert alone.t_f == pytest.approx(T, rel=rel)
    best = solve_time_optimal(prob)
    assert best.strategy == 1
    assert best.t_f == pytest.approx(T, rel=rel)


@pytest.mark.parametrize("T, vanishes", [(1e-12, True), (1e-10, False)])
def test_zero_switch_root_vanishes_by_its_endpoint_move(ref_problem, T,
                                                        vanishes):
    # from rest the full-rate segment moves x1 at u_max per minute: below
    # T = FEAS_TOL / u_max, about 9.4e-12 min, dropping it moves the
    # endpoint by less than FEAS_TOL, so the root is degenerate. Its target
    # then lies within FEAS_TOL of x0 too, which TimeOptimalProblem refuses,
    # so the rule is read on the Jacobian of the segment of length T
    sol = _GapSolver(_ModalRecord(ref_problem), Pattern(1, True, 0))
    J = sol.jac([T], sol.walk([T]))[0]
    assert strategies._vanishing([T], J) is vanishes
    if not vanishes:
        full = constant_input_propagator(ref_problem.sys, ref_problem.u_max)
        x_T = full(ref_problem.x0, T)
        prob = dataclasses.replace(ref_problem,
                                   target_fast=x_T[list(FAST_IDX)])
        r = solve_pattern(prob, Pattern(1, True, 0))
        assert r.feasible and r.note == "isolated root"


@pytest.mark.parametrize("T, gap", [(1e-12, 1.0609e-10), (1e-11, 1.0609e-9)])
def test_a_target_that_x0_already_meets_is_degenerate(ref_problem, T, gap):
    # the full-rate state at T = 1e-12 min lies within FEAS_TOL of x0, so no
    # solve is asked for; ten times further out, strategy 1 reaches it at T
    full = constant_input_propagator(ref_problem.sys, ref_problem.u_max)
    target = full(ref_problem.x0, T)[list(FAST_IDX)]
    moved = np.max(np.abs(target - ref_problem.x0[list(FAST_IDX)]))
    assert moved == pytest.approx(gap, rel=1e-4)
    if moved < FEAS_TOL:
        with pytest.raises(DomainError, match="degenerate problem"):
            dataclasses.replace(ref_problem, target_fast=target)
        return
    best = solve_time_optimal(dataclasses.replace(ref_problem,
                                                  target_fast=target))
    assert best.strategy == 1 and best.schedule.levels == (ref_problem.u_max,)
    assert best.t_f == pytest.approx(T, rel=1e-9)


# support-function minimum times t* on the ray x0 = s (43.554, 19.2711,
# 243.9024, 2.72) of the reference patient at its clinical bound, where the
# optimal bolus shrinks to zero near s = 0.81462
_RAY = {0.813: (3, 1.087377824043033), 0.814: (3, 1.086454783),
        0.8146: (3, 1.085901140), 0.81462: (3, 1.085882688),
        0.8147: (4, 1.110166066446506)}


@pytest.mark.parametrize("s", list(_RAY))
def test_a_vanishing_bolus_is_still_a_segment(ref_problem, s):
    # at s = 0.814 to 0.81462 the bolus lasts 4.4e-4 to 3.9e-6 min: short,
    # yet it moves the endpoint by far more than FEAS_TOL, so strategy 3
    # reaches t* there instead of being called dominated
    prob = dataclasses.replace(
        ref_problem, x0=s * np.array([43.554, 19.2711, 243.9024, 2.72]))
    strategy, t_star = _RAY[s]
    best = solve_time_optimal(prob)
    assert best.strategy == strategy
    assert best.t_f == pytest.approx(t_star, rel=1e-9)


def _recording(monkeypatch):
    """The list that records the strategy of each solve_pattern call."""
    calls = []
    solve = strategies.solve_pattern

    def recording(prob, pattern):
        calls.append(pattern.strategy)
        return solve(prob, pattern)

    monkeypatch.setattr(strategies, "solve_pattern", recording)
    return calls


def test_unreachable_target_solves_each_pattern_once(ref_params, monkeypatch):
    calls = _recording(monkeypatch)
    with pytest.raises(InfeasibleError):
        solve_time_optimal(build_problem(ref_params, u_max=5.0))
    assert calls == [3, 1, 2, 4, 5, 6, 7, 8]


def test_hot_start_is_solved_by_a_rest_first_pattern(ref_problem, monkeypatch):
    # x1 starts three times its target and x4 below it: a leading rest lets
    # x1 fall while x4 rises, and no bolus-first pattern is feasible
    prob = dataclasses.replace(
        ref_problem, x0=np.array([43.554, 19.2711, 243.9024, 2.72]))
    calls = _recording(monkeypatch)
    best = solve_time_optimal(prob)
    assert len(calls) == 8
    assert best.strategy == 4 and best.schedule.levels == (0.0, U_MAX_REF)
    assert best.t_f == pytest.approx(2.5232, abs=1e-4)
    table = solve_all_patterns(prob)
    _same(best, _select(table))
    assert not any(r.feasible for r in table if r.strategy % 2)
    x = endpoint(prob.sys, best.schedule, x0=prob.x0)
    assert np.max(np.abs(x[list(FAST_IDX)] - prob.target_fast)) < FEAS_TOL



def _hot_start_1_2ue(params, f1, f4):
    """x0 = x_e * (f1, 0.3, 0.3, f4) at u_max = 1.2 u_e: held by no control."""
    eq = equilibrium(params, bis_inverse(50.0))
    return build_problem(params, 1.2 * eq.u_e,
                         x0=eq.x_e * np.array([f1, 0.3, 0.3, f4]))


def _counting_searches(monkeypatch):
    """The list that records the levels of each search."""
    calls = []
    search = _GapSolver.search

    def counting(self, gaps0, zs=None):
        calls.append(self.levels)
        return search(self, gaps0, zs)

    monkeypatch.setattr(_GapSolver, "search", counting)
    return calls


@pytest.mark.parametrize("demo, t_f", [
    (("male", 53.0, 77.0, 177.0), 1.6106342399530145),
    (("male", 80.0, 70.0, 170.0), 1.698726400348011)])
def test_a_root_past_the_grid_does_not_hide_a_shorter_one(demo, t_f,
                                                          monkeypatch):
    # from x_e (3, 0.3, 0.3, 0.2) strategy 3 has a root past 160 min besides
    # the short one (the reference's is shooting's t_f, 1.61063423995301);
    # once the first root a search reached ended the pattern, and strategy 4
    # won at 2.2397 and 2.1326 min
    prob = _hot_start_1_2ue(schnider_parameters(PatientDemographics(*demo)),
                            3.0, 0.2)
    best = solve_time_optimal(prob)
    assert best.strategy == 3 and not best.certified
    assert best.t_f == pytest.approx(t_f, rel=1e-12)
    # a root within the grid ends the pattern's search at once
    calls = _counting_searches(monkeypatch)
    assert solve_pattern(prob, Pattern(3, True, 1)).t_f == best.t_f
    assert len(calls) < 10


def test_a_step_onto_the_plateau_ends_the_search(ref_params, monkeypatch):
    # from the onset start [1.875, 0] a near-singular step leaps 784,308 min,
    # where every mode has decayed: two trial points there give the same
    # residual bitwise, and the search ends at its last point instead of
    # halving back, one walk at a time, into the 165.64-min root
    prob = _hot_start_1_2ue(ref_params, 3.0, 0.2)
    sol = _GapSolver(_ModalRecord(prob), Pattern(3, True, 1))
    far = []
    walk = _GapSolver.walk

    def recording(self, gaps):
        if sum(gaps) > 1e4:
            far.append(list(gaps))
        return walk(self, gaps)

    monkeypatch.setattr(_GapSolver, "walk", recording)
    g0, zs0 = next(sol.starts())
    assert g0 == [1.875, 0.0]
    g, r, _ = sol.search(g0, zs0)
    assert len(far) == 2 and far[0][0] > 7e5
    assert sum(g) < 3.0 and max(map(abs, r)) > FEAS_TOL


def test_an_uncertified_root_past_the_grid_is_kept(ref_params, monkeypatch):
    # every root of strategy 3 lies past the grid and x0 is held by no
    # control, so its search runs from every start and keeps the fastest KKT
    # point: shooting's t_f, 172.3337095599344
    prob = _hot_start_1_2ue(ref_params, 0.5, 0.2)
    calls = _counting_searches(monkeypatch)
    res = solve_pattern(prob, Pattern(3, True, 1))
    assert len(calls) == len(list(_GapSolver(_ModalRecord(prob),
                                             Pattern(3, True, 1)).starts()))
    assert res.feasible and not res.certified
    assert res.t_f > GRID_TOP
    assert res.t_f == pytest.approx(172.3337095599344, rel=1e-9)
    # a dominated first root still ends its pattern's search: strategy 7
    # stops after 41 of its 330 starts
    calls.clear()
    assert solve_pattern(prob, Pattern(7, True, 3)).note == DOMINATED
    assert len(calls) < 100
    best = solve_time_optimal(prob)
    assert best.strategy == 3 and best.t_f == res.t_f


def _recording_walks(monkeypatch):
    """The list that records the gaps of each walk."""
    walks = []
    walk = _GapSolver.walk

    def recording(self, gaps):
        walks.append(list(gaps))
        return walk(self, gaps)

    monkeypatch.setattr(_GapSolver, "walk", recording)
    return walks


def _corpus_solver(name, pattern):
    return _GapSolver(_ModalRecord(coverage_corpus.problem(CORPUS[name])),
                      pattern)


def test_a_repeated_projection_ends_the_search_on_its_plateau(monkeypatch):
    # x4 starts above its target, so strategy 3 has no root; once a trial
    # point that repeated the one before was not walked, which hid the
    # plateau, and these two searches walked 81 and 102 times
    sol = _corpus_solver("x4hi", Pattern(3, True, 1))
    walks = _recording_walks(monkeypatch)
    sol.search([0.234375, 0.0])
    assert len(walks) <= 14
    walks.clear()
    # both halvings of the first step project onto one point: its second
    # walk gives the first one's residual bitwise and the search ends
    g, _, _ = sol.search([0.234375, 1.640625])
    assert len(walks) == 3 and walks[-1] == walks[-2] != walks[0]
    assert g.tolist() == walks[0]


def test_a_step_that_is_no_descent_direction_is_not_halved(monkeypatch):
    # from this start every trial point of the last step, scale 1 down to
    # 2^-40, has a larger |r| than the point it left: its slope there is
    # not negative, so the step is walked once, whole, in place of 40 times
    sol = _corpus_solver("grid/male53-5ue-f13-f40.5", Pattern(4, False, 1))
    walks = _recording_walks(monkeypatch)
    g, r, _ = sol.search([0.234375, 0.703125])
    assert len(walks) <= 3
    # the point where the 40 halvings left it
    assert g.tolist() == [1.5201340951906144, 0.050818343530795285]
    nr = np.hypot(*r)
    assert nr > FEAS_TOL and np.hypot(*sol.residual(sol.walk(walks[-1]))) > nr

# ---------------------------------------------------------------- selection

def _fake(strategy, t_f, switches):
    levels = tuple(1.0 if i % 2 == 0 else 0.0 for i in range(switches + 1))
    bps = tuple(t_f * (i + 1) / (switches + 1) for i in range(switches))
    sched = ControlSchedule(levels=levels, breakpoints=bps, t_f=t_f)
    return StrategyResult(strategy=strategy, schedule=sched,
                          residual=np.zeros(2), feasible=True)


def test_select_prefers_smaller_final_time():
    picked = _select([_fake(1, 2.0, 0), _fake(3, 1.5, 1)])
    assert picked.strategy == 3


def test_select_breaks_time_ties_by_switch_count():
    picked = _select([_fake(5, 2.0, 2), _fake(3, 2.0, 1)])
    assert picked.strategy == 3


def test_select_breaks_full_ties_by_strategy_number():
    picked = _select([_fake(7, 2.0, 1), _fake(3, 2.0, 1)])
    assert picked.strategy == 3


def test_select_with_no_feasible_raises():
    bad = StrategyResult(strategy=1, schedule=None,
                         residual=np.array([3.0, 1.0]), feasible=False)
    with pytest.raises(InfeasibleError):
        _select([bad])


def _rejected(strategy, residual, note):
    return StrategyResult(strategy=strategy, schedule=None,
                          residual=np.array(residual), feasible=False,
                          note=note)


def test_select_names_the_best_residual_of_rootless_searches_only():
    # a dominated root's residual lies below FEAS_TOL and is no miss
    table = [_rejected(3, [3.6e-15, 1e-16], "dominated: the minimum-time "
                       "representative has a vanishing segment"),
             _rejected(1, [0.25, 2.0], "no root"),
             _rejected(5, [4.0e-3, 1e-4], "no certified root"),
             _rejected(2, [], "dominated by strategy 1")]
    with pytest.raises(InfeasibleError, match=r"best residual 4\.000e-03\)"):
        _select(table)


def test_select_says_when_every_root_was_dominated():
    table = [_rejected(3, [3.6e-15, 1e-16], "dominated"),
             _rejected(7, [0.0, 2e-13], "root degenerate: a segment vanishes"),
             _rejected(4, [], "dominated by strategy 1")]
    with pytest.raises(InfeasibleError,
                       match=r"\(every root found was dominated\)$"):
        _select(table)
