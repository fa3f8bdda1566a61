"""Indirect (shooting) solution of the minimum-time induction problem.

The maximum principle turns the problem into a boundary value problem for
the state/costate pair under the sign control law: pick the terminal
costate and t_f so that the fast target (x1, x4) is met, the Hamiltonian
vanishes, and the costate of the free compartments x2 and x3 vanishes at
t_f (transversality). The terminal costate therefore lies on
psi(t_f) = r (cos theta, 0, 0, sin theta). The control reads only the sign
of psi1, so the scale r plays no part: (theta, t_f) solve the two target
conditions, a square 2x2 system, by damped Newton inside a trust region,
and r is fixed afterwards by H(t_f) = 0.

One evaluation, shooting_residual(prob, theta, t_f), is one backward pass:
the costate runs in s = t_f - t, where it decays, and this sweep (_sweep)
yields the switch times and the unit-scale psi0. Its rows are the adjoints
of x1 and x4 with one quadrature column, so they obey dy/ds = y[:, :n] M for
the route's one generator M = [A | B], and the endpoint x(t_f) follows by
the adjoint identity: no state is propagated. The onset t_on below is the
same adjoint read for the row of x4. Each is one scan (_scan) of M: uniform
cells, one exact cell map e^(K h) of K = [M; 0] summed from its Taylor
series, and each zero of a watched g = y . c - tau located on its cell's
Taylor polynomial, with a curvature bound that rules out a pair of zeros
inside a cell. Nothing here reads the eigenbasis, so the route shares no
propagation code with the strategy route.

The exact Jacobian comes from the same sweep: the adjoints at each switch,
and the rate at which each switch moves with theta. So Newton pays one
evaluation per step, and the solver makes no other. The certificate is
built from the last evaluation, scaled by H(t_f) = 0 at that endpoint;
H(0) = 0 at x0 joins the target gap in its residual, so both ends of the
extremal hold the same Hamiltonian.

Seeds are a short theta grid crossed with multiples of t_on, the first time
x4 reaches its target at full rate, which bounds t_f from below. Every
residual evaluation counts against MAX_RESIDUAL_EVALS, so a failure is a
prompt NoConvergenceError.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InfeasibleError, IntegrationError,
                     NoConvergenceError)
# not called: kept so that a tracer which wraps this name still finds it
from .lti import integrate_with_sign_event  # noqa: F401
from .problem import FAST_IDX, ControlSchedule, TimeOptimalProblem

THETA_SEEDS = tuple(-np.pi / 2 + k * np.pi / 8 for k in range(16))
T_F_SEED_FACTORS = (1.5, 1.05, 2.5)
RESIDUAL_ACCEPT = 1e-8
# |psi2(t_f)|, |psi3(t_f)| relative to |psi(t_f)|
TRANSVERSALITY_ACCEPT = 1e-8
MAX_RESIDUAL_EVALS = 200

# the flow-map cells: with ||A||_1 h <= 0.5, the Taylor series of a cell
# map cut after its x^15 / 15! term leaves a tail below 1e-18 of its sum
_CELL_NORM = 0.5
_MIN_CELLS = 16
_TERMS = 16
_FACTORIALS = np.array([math.factorial(j) for j in range(_TERMS)], float)
_POWERS = np.arange(_TERMS, dtype=float)
_CURVE = _POWERS[2:] * (_POWERS[2:] - 1.0)  # p'' = sum_j j (j-1) c_j x^(j-2)
_GUARD = 1e-10  # a zero of psi1 this close to s = 0 is not an event
_MIN_SHARE = 2.0 ** -40  # of a cell's width: a part this narrow is not split
_MAX_PARTS = 256  # parts examined in one cell before g reads as vanishing
_MAX_ROOT_STEPS = 100
_ROOT_STEP = 4e-15  # a Newton step this small, in cell widths, ends the search

_WINDOW = 1024  # the most cells one walk stacks, which bounds its memory
_ONSET_HORIZON = 1e4
_GAP_TOL = 1e-10
_TIE_COS = 1e-12  # |cos theta| = |psi1(t_f)| read as a tie
_MAX_NEWTON_STEPS = 30
_MAX_HALVINGS = 8
_THETA_STEP_MAX = np.pi / 8


def bang_control(psi1: float, u_max: float) -> float:
    """Pointwise Hamiltonian minimizer over [0, u_max].

    The psi1 = 0 tie goes to u_max; the tie set has measure zero along any
    nondegenerate extremal.
    """
    return 0.0 if psi1 > 0.0 else float(u_max)


def hamiltonian(prob: TimeOptimalProblem, x, u: float, psi) -> float:
    drift = prob.sys.A @ np.asarray(x, dtype=float) + prob.sys.B * u
    return 1.0 + float(np.dot(np.asarray(psi, dtype=float), drift))


def _taylor(K, h):
    """(K h)^j / j! for j < _TERMS, stacked. Their sum is the cell map
    e^(K h), and a row r's flow over the cell is the polynomial
    sum_j x^j r (K h)^j / j! in x = (s - s_k) / h."""
    m = K.shape[0]
    P = np.empty((_TERMS, m, m))
    P[0] = np.eye(m)
    P[1] = K * h
    k = 2
    while k < _TERMS:
        c = min(k, _TERMS - k)
        np.matmul(P[:c], P[k - 1] @ P[1], out=P[k:k + c])
        k += c
    P /= _FACTORIALS[:, None, None]
    return P


def _walk(rows, E, cells):
    """rows E^k at each cell boundary k = 0..cells, stacked; the powers
    E^(2^j) fill the stack in doublings."""
    Y = np.empty((cells + 1,) + rows.shape)
    Y[0] = rows
    k = 1
    while True:
        c = min(k, cells + 1 - k)
        np.matmul(Y[:c], E, out=Y[k:k + c])
        k += c
        if k > cells:
            return Y
        E = E @ E


def _tail(rho):
    """What the cut Taylor series of a cell map leaves out of g'', in
    x = (s - s_k) / h, over a cell [s_k, s_k + h], per unit of
    h ||M c||_1 ||z(s_k)||_inf, for g = y . c - tau, z = y[:n] and
    rho = ||A||_1 h.

    g^(j) = z A^(j-1) M c, so the j-th coefficient is at most
    rho^(j-1) h ||M c||_1 ||z||_inf / j!, and the terms from j = _TERMS on
    sum to at most rho^(_TERMS-1) e^rho / (_TERMS-2)! times that."""
    return rho ** (_TERMS - 1) * math.exp(rho) / _FACTORIALS[_TERMS - 2]


def _poly(c, x):
    """p(x) and p'(x) of p = sum_j c[j] x^j, by Horner on Python floats."""
    p = dp = 0.0
    for cj in reversed(c):
        dp = dp * x + p
        p = p * x + cj
    return p, dp


def _root(c, a, b, pa, pb):
    """The zero of p = sum_j c[j] x^j in [a, b], where the class p > 0 flips
    from pa = p(a) to pb = p(b): Newton from the chord's zero, kept inside
    the bracket by bisection."""
    up = pa > 0.0
    x = a + (b - a) * pa / (pa - pb)
    if not a < x < b:
        x = 0.5 * (a + b)
    for _ in range(_MAX_ROOT_STEPS):
        p, dp = _poly(c, x)
        if (p > 0.0) == up:
            a = x
        else:
            b = x
        nxt = x - p / dp if dp else x
        if not a < nxt < b:
            nxt = 0.5 * (a + b)
        if abs(nxt - x) <= _ROOT_STEP:
            return nxt
        x = nxt
    return x


def _crossings(coef, tail):
    """(k, x), in order: the zeros of a watched entry g where its class
    g > 0 (the sign law's) changes, at x in [0, 1] of cell k.

    Row k of coef holds the Taylor coefficients of g on cell k, in x, and
    tail[k] bounds what the cut series leaves out of g''. So
    sum_j j (j-1) |c_j| + tail[k] bounds |g''| on the cell, from its own
    rows. A cell, or part of one, is clear when g' keeps its sign on it
    (|g'| at its start above its width times that bound), so that g is
    monotone there, or when g keeps its sign and |g| at both ends stays
    above the most g can sag below its chord (width^2 / 8 times the bound).
    Any other part is halved, and a part narrower than _MIN_SHARE is read
    by its end classes alone. So a pair of zeros inside one cell is found,
    not stepped over.
    """
    g = coef[:, 0]
    up = g > 0.0
    flips = up[:-1] != up[1:]
    ends = np.minimum(np.abs(g[:-1]), np.abs(g[1:]))
    bend = np.abs(coef[:-1, 2:]) @ _CURVE + tail
    mono = np.abs(coef[:-1, 1]) > bend
    quiet = ~flips & (ends > 0.125 * bend)
    for k in np.flatnonzero(flips | ~(mono | quiet)).tolist():
        c = coef[k].tolist()
        b2 = float(bend[k])
        parts = [(0.0, 1.0, c[0], float(g[k + 1]), c[1])]
        for _ in range(_MAX_PARTS):
            if not parts:
                break
            a, b, ga, gb, da = parts.pop()
            w = b - a
            flip = (ga > 0.0) != (gb > 0.0)
            sag = 0.125 * w * w * b2
            if (w < _MIN_SHARE or abs(da) > w * b2
                    or not flip and min(abs(ga), abs(gb)) > sag):
                if flip:
                    yield k, _root(c, a, b, ga, gb)
                continue
            m = 0.5 * (a + b)
            gm, dm = _poly(c, m)
            parts += [(m, b, gm, gb, dm), (a, m, ga, gm, da)]
        if parts:
            raise IntegrationError(
                "sign undecided: the watched entry stays at 0 across a cell")


def _scan(M, y0, t1, c, tau, window):
    """Rows y with dy/ds = y[:, :n] M over [0, t1], M of n rows, and the
    zeros of g = y[0] . c - tau where its class g > 0 changes.

    Columns of M past n append quadratures of the first n entries. With
    K = [M; 0] the rows obey y(s) = y(0) e^(K s) (Van Loan 1978), so one
    cell map e^(K h), summed from its Taylor series, steps them over the
    uniform cells of [0, t1], ||A||_1 h <= _CELL_NORM and at least
    _MIN_CELLS: no integrator, no step-size control and no modal data.
    Each class change is located on its cell's Taylor polynomial of g, and
    _crossings rules out a pair of zeros in a cell from a bound on g''.

    Yields, window by window, the list of its class changes (s_i, y(s_i)),
    in increasing s, each y(s_i) built from its cell's rows, and the rows
    at its end. The first window has `window` cells, each next one twice as
    many up to _WINDOW, so memory does not grow with t1.
    """
    n, m = M.shape
    K = np.zeros((m, m))
    K[:n] = M
    norm = float(np.abs(M[:, :n]).sum(axis=0).max())  # ||A||_1
    cells = max(_MIN_CELLS, math.ceil(t1 * norm / _CELL_NORM))
    h = t1 / cells
    P = _taylor(K, h)
    E, F = P.sum(axis=0), P.reshape(_TERMS, -1)  # e^(K h x) = x^j F[j]
    G = (P.reshape(-1, m) @ c).reshape(_TERMS, m)  # g_j = y . G[j] (- tau)
    bound = _tail(norm * h) * sum(map(abs, G[1].tolist()))  # G[1] = h M c
    rows = np.asarray(y0, dtype=float).reshape(-1, m)
    k0 = 0
    while k0 < cells:
        Y = _walk(rows, E, min(window, cells - k0))
        coef = Y[:, 0] @ G.T
        coef[:, 0] -= tau
        tail = bound * np.abs(Y[:-1, 0, :n]).max(axis=1)
        yield [((k0 + k + x) * h, Y[k] @ (x ** _POWERS @ F).reshape(m, m))
               for k, x in _crossings(coef, tail)], Y[-1]
        rows = Y[-1]
        k0 += len(Y) - 1
        window = min(2 * window, _WINDOW)


def _sweep(M, y0, t1):
    """_scan of the rows y0 with g = y[0, 0], its windows all _WINDOW cells.

    Returns ([(s_i, y(s_i))], y(t1)), the sign changes of y[0, 0] in
    increasing s, with y in the shape of y0. A zero within _GUARD of s = 0
    is the terminal tie, not an event; the 2n + 4-th event is read as a
    chattering extremal.
    """
    y = np.asarray(y0, dtype=float)
    n, m = M.shape
    events = []
    for found, rows in _scan(M, y, t1, np.eye(m)[0], 0.0, _WINDOW):
        events += [(s, r.reshape(y.shape)) for s, r in found if s > _GUARD]
        if len(events) > 2 * n + 3:
            raise IntegrationError(
                "control keeps switching; chattering extremal")
    return events, rows.reshape(y.shape)


def _levels(psi1_0, u_max, switches):
    """The sign law's level at t = 0, flipped at each switch: re-reading the
    sign at a located event would decide on a psi1 of order 1e-15."""
    levels = [bang_control(psi1_0, u_max)]
    for _ in range(switches):
        levels.append(u_max if levels[-1] == 0.0 else 0.0)
    return tuple(levels)


def full_rate_onset(prob: TimeOptimalProblem) -> float:
    """First time x4 reaches its target under u = u_max, a lower bound on t_f.

    The system is positive, so x4(t) is monotone in the input and no
    admissible control brings x4 to its target sooner. An x4 that starts at
    or above its target gives no onset, so the seed grid is empty: a valid
    problem that this solver cannot seed, reported as NoConvergenceError
    with no seed tried. No onset by _ONSET_HORIZON raises InfeasibleError.

    x4(t) = y(t) . [x0; u_max] for y = [e4 e^(A t) | int_0^t e4 e^(A s) B ds]
    (Bryson & Ho 1975), and y' = y[:n] [A | B], the sweep's generator: the
    onset is the first class change of that read less x4's target, scanned
    in windows of doubling length.
    """
    i = FAST_IDX[1]
    target = prob.target_fast[1]
    if not prob.x0[i] < target:
        raise NoConvergenceError(
            "no shooting seed: x4 starts at or above its target, so there "
            "is no full-rate onset to seed t_f from", seeds_tried=0)
    y = np.eye(prob.sys.n + 1)[i]
    c = np.concatenate((prob.x0, [prob.u_max]))
    M = np.column_stack((prob.sys.A, prob.sys.B))
    for found, _ in _scan(M, y, _ONSET_HORIZON, c, target, _MIN_CELLS):
        if found:
            return found[0][0]
    raise InfeasibleError("x4 does not reach its target at full rate "
                          f"within {_ONSET_HORIZON:g} min")


def default_seed_grid(t_on: float) -> list:
    """(theta, t_f) seeds: theta outer, the multiples of t_on inner."""
    return [(theta, f * t_on) for theta in THETA_SEEDS
            for f in T_F_SEED_FACTORS]


@dataclass(frozen=True)
class ExtremalCertificate:
    """A shooting solution that meets the maximum principle's conditions:
    psi0 the costate at t = 0 and terminal_costate psi(t_f), both
    read-only and scaled by H(t_f) = 0; residual_norm the norm of the
    target gap and H(0), below RESIDUAL_ACCEPT; schedule the bang-bang
    control, with at most 3 switches. Its transversality residual is below
    TRANSVERSALITY_ACCEPT. t_f and switch_times are the schedule's."""

    psi0: np.ndarray
    residual_norm: float
    terminal_costate: np.ndarray
    schedule: ControlSchedule

    def __post_init__(self):
        for name in ("psi0", "terminal_costate"):
            p = np.array(getattr(self, name), dtype=float)
            p.setflags(write=False)
            object.__setattr__(self, name, p)
        if not self.residual_norm < RESIDUAL_ACCEPT:
            raise DomainError("certificate residual above the acceptance bound")
        if not self.transversality_residual < TRANSVERSALITY_ACCEPT:
            raise DomainError("terminal costate violates transversality")
        if len(self.schedule.breakpoints) > 3:
            raise DomainError("more than n-1 = 3 switches on a certificate")

    @property
    def t_f(self) -> float:
        return self.schedule.t_f

    @property
    def switch_times(self) -> tuple:
        return self.schedule.breakpoints

    @property
    def transversality_residual(self) -> float:
        """max |psi_i(t_f)| over the free compartments, relative to |psi(t_f)|.

        A zero terminal costate is no multiplier at all and reads as inf.
        """
        psi_f = self.terminal_costate
        scale = float(np.linalg.norm(psi_f))
        free = np.delete(psi_f, FAST_IDX)
        return float(np.max(np.abs(free))) / scale if scale > 0 else np.inf


class _BudgetSpent(Exception):
    """MAX_RESIDUAL_EVALS residual evaluations have been spent."""


@dataclass(frozen=True)
class _Point:
    """One residual evaluation at (theta, t_f), at the unit costate scale.

    gap is the target gap and jac its exact Jacobian in (theta, t_f); psi0 is
    psi(0) for psi(t_f) = (cos theta, 0, 0, sin theta), and d = psi(t_f) .
    x'(t_f), so that psi0 <- -psi0 / d makes H(t_f) = 0 whenever d < 0; gap
    and d are read from the backward sweep's adjoint columns.
    """

    theta: float
    t_f: float
    gap: np.ndarray
    jac: np.ndarray
    psi0: np.ndarray
    d: float
    switches: tuple
    levels: tuple


def shooting_residual(prob: TimeOptimalProblem, theta, t_f) -> _Point:
    """One backward sweep: switches, psi0, endpoint and exact Jacobian.

    In s = t_f - t the costate obeys dpsi/ds = A^T psi and decays (A is
    stable, see TimeOptimalProblem), so the rows y = [psi_theta; psi_perp]
    are swept in s from psi_theta = (cos theta, 0, 0, sin theta) and its
    theta-derivative psi_perp, and each zero s_i of psi_theta,1 is a
    switch at t_i = t_f - s_i.
    The control starts at the sign of psi0 and flips at each switch.

    One more column carries w(s) = int_0^s y B, and the endpoint comes from
    the adjoint identity y(0) x(t_f) = y(t_f) x0 + int y B u ds (Bryson &
    Ho 1975, ch. 2): with R = R(theta) and the levels u_k in s order,
    E x(t_f) = R (y(t_f) x0 + sum_k u_k dw_k) and E x'(t_f) =
    R (y(t_f) A x0 + sum_k u_k dy_k B + y(0) B u(t_f)), E the rows x1 and
    x4. No state is propagated.

    With Psi = [psi_theta, psi_perp] R^T, the adjoints of x1 and x4, a
    switch at t_i moves the target by Psi(s_i)^T B (u_i- - u_i+) per unit
    of t_i. t_i moves one for one with t_f, and with theta at
    -ds_i/dtheta = psi_perp,1 / (A^T psi_theta)_1 (Kaya & Noakes 1996).
    """
    if not t_f > 0:
        raise DomainError("shooting horizon t_f must be positive")
    A, B, n = prob.sys.A, prob.sys.B, prob.sys.n
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    y = np.zeros((2, n + 1))  # [y | w], w(0) = 0
    y[:, FAST_IDX[0]] = c, -s
    y[:, FAST_IDX[1]] = s, c
    events, y_f = _sweep(np.column_stack((A, B)), y, t_f)
    psi0 = y_f[0, :n]
    levels = _levels(psi0[0], prob.u_max, len(events))
    switches = tuple(t_f - s_i for s_i, _ in reversed(events))
    # sum_k u_k (Y(s_k+1) - Y(s_k)) over the s-segments, levels reversed
    knots = [y] + [P for _, P in events] + [y_f]
    drive = sum(u * (b - a) for u, a, b
                in zip(reversed(levels), knots, knots[1:]))
    x0 = prob.x0
    gap = rot @ (y_f[:, :n] @ x0 + drive[:, n]) - prob.target_fast
    # y(0) x'(t_f), whose first row is d = psi(t_f) . x'(t_f)
    v = (y_f[:, :n] @ (A @ x0) + drive[:, :n] @ B
         + y[:, :n] @ B * levels[-1])
    d = float(v[0])

    jac = np.zeros((2, 2))
    jac[:, 1] = rot @ v
    # switch k (in t order) lies between levels[k] and levels[k + 1]
    for k, (_, P) in zip(reversed(range(len(events))), events):
        jump = rot @ (P[:, :n] @ B) * (levels[k] - levels[k + 1])
        jac[:, 1] += jump
        jac[:, 0] += jump * P[1, 0] / (P[0, :n] @ A[:, 0])
    if not events and abs(c) <= _TIE_COS:
        # psi1(t_f) = 0: take the right-derivative, in which a switch enters
        # at s = 0 when ds/dtheta > 0
        rate = y[1, 0] / (y[0, :n] @ A[:, 0])  # -ds/dtheta
        if rate < 0.0:
            u_in = prob.u_max if levels[-1] == 0.0 else 0.0
            jac[:, 0] += rot @ (y[:, :n] @ B) * (levels[-1] - u_in) * rate
    return _Point(theta, t_f, gap, jac, psi0, d, switches, tuple(levels))


class _Shooter:
    """Residual evaluations on the transversality subspace, under a cap."""

    def __init__(self, prob):
        self.prob = prob
        self.evals = 0
        self.best = np.inf

    def __call__(self, theta, t_f) -> _Point:
        """shooting_residual at (theta, t_f), counted against the cap; the
        name is read from the module at each call."""
        if self.evals >= MAX_RESIDUAL_EVALS:
            raise _BudgetSpent
        self.evals += 1
        p = shooting_residual(self.prob, theta, t_f)
        # no positive scale zeroes H when d >= 0; the unit scale is reported
        h = 0.0 if p.d < 0.0 else 1.0 + p.d
        self.best = min(self.best,
                        float(np.linalg.norm([p.gap[0], p.gap[1], h])))
        return p

    def newton(self, theta, t_f, t_on) -> _Point:
        """Damped Newton on the gap; returns the last point reached.

        Steps are cut to |dtheta| <= pi/8 and |dt_f| <= t_f / 2, t_f stays
        at or above t_on, the full-rate onset, a lower bound on t_f, and a
        step is halved until the gap shrinks. A singular Jacobian or a step
        that cannot shrink the gap ends the search."""
        p = self(theta, t_f)
        for _ in range(_MAX_NEWTON_STEPS):
            ng = np.linalg.norm(p.gap)
            if ng < _GAP_TOL:
                break
            try:
                step = np.linalg.solve(p.jac, -p.gap)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            over = np.max(np.abs(step) / [_THETA_STEP_MAX, 0.5 * p.t_f])
            if over > 1.0:
                step /= over
            for _ in range(_MAX_HALVINGS):
                t_n = float(max(t_on, p.t_f + step[1]))
                q = self(p.theta + step[0], t_n)
                if np.linalg.norm(q.gap) < ng:
                    p = q
                    break
                step *= 0.5
            else:
                break
        return p


def solve_shooting(prob: TimeOptimalProblem) -> ExtremalCertificate:
    """Try the default_seed_grid(full_rate_onset(prob)) seeds in order; the
    first certified root wins.

    A root is certified when its target gap and H(0) are below
    RESIDUAL_ACCEPT and H(t_f) = 0 has a positive costate scale. Raises
    NoConvergenceError with the best residual, the seeds tried and the
    residual evaluations spent when every seed stalls or the
    MAX_RESIDUAL_EVALS cap is reached.
    """
    t_on = full_rate_onset(prob)
    shooter = _Shooter(prob)
    tried = 0
    try:
        for theta0, t_f0 in default_seed_grid(t_on):
            tried += 1
            p = shooter.newton(theta0, t_f0, t_on)
            if np.linalg.norm(p.gap) < RESIDUAL_ACCEPT and p.d < 0.0:
                try:
                    return _certify(prob, p)
                except DomainError:
                    continue
    except _BudgetSpent:
        pass
    raise NoConvergenceError(
        f"no shooting seed converged: best residual {shooter.best:.3e} "
        f"after {tried} seeds and {shooter.evals} residual evaluations",
        best_residual=shooter.best, seeds_tried=tried,
        residual_evals=shooter.evals)


def _certify(prob, p: _Point) -> ExtremalCertificate:
    """Scale the last evaluation by H(t_f) = 0 at its adjoint endpoint;
    H(0) = 0 at x0 then checks that scale at the other end."""
    psi0 = -p.psi0 / p.d
    psi_f = np.zeros(prob.sys.n)
    psi_f[list(FAST_IDX)] = np.cos(p.theta), np.sin(p.theta)
    psi_f /= -p.d
    h0 = hamiltonian(prob, prob.x0, p.levels[0], psi0)
    schedule = ControlSchedule(levels=p.levels, breakpoints=p.switches,
                               t_f=p.t_f)
    return ExtremalCertificate(
        psi0=psi0,
        residual_norm=float(np.linalg.norm([p.gap[0], p.gap[1], h0])),
        terminal_costate=psi_f, schedule=schedule)
