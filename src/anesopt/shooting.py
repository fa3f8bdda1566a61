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
the costate is integrated in s = t_f - t, where it decays, and this sweep
(_sweep) yields the switch times and the unit-scale psi0. The rows it
carries are the adjoints of x1 and x4, so one appended quadrature column
gives the endpoint x(t_f) by the adjoint identity, and no state is
integrated. The exact Jacobian comes from the same sweep: the adjoints at
each switch, and the rate at which each switch moves with theta. So Newton
pays one evaluation per step, and the solver makes no other. The
certificate is built from the last evaluation, scaled by H(t_f) = 0 at that
endpoint; H(0) = 0 at x0 joins the target gap in its residual, so both ends
of the extremal hold the same Hamiltonian.

Seeds are a short theta grid crossed with multiples of t_on, the first time
x4 reaches its target at full rate, which bounds t_f from below. Every
residual evaluation counts against MAX_RESIDUAL_EVALS, so a failure is a
prompt NoConvergenceError.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, InfeasibleError, IntegrationError,
                     NoConvergenceError)
from .lti import integrate_with_sign_event
from .problem import FAST_IDX, ControlSchedule, TimeOptimalProblem

THETA_SEEDS = tuple(-np.pi / 2 + k * np.pi / 8 for k in range(16))
T_F_SEED_FACTORS = (1.5, 1.05, 2.5)
RESIDUAL_ACCEPT = 1e-8
# |psi2(t_f)|, |psi3(t_f)| relative to |psi(t_f)|
TRANSVERSALITY_ACCEPT = 1e-8
MAX_RESIDUAL_EVALS = 200

# switch-time error feeds the endpoint at a rate of order u_max, so the
# sweep runs tighter than the module-default integrator tolerance
_RTOL = 1e-12
_ATOL = 1e-14

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


def _sweep(M, y0, t1):
    """Integrate rows y with dy/ds = y[..., :n] M over [0, t1], M of n rows,
    restarting at each sign change of entry 0.

    Columns of M past n append quadratures of the first n entries; the
    solver's M = [A | B] carries one. Returns ([(s_i, y(s_i))], y(t1)), the
    events in increasing s, with y in the shape of y0. Restarting at each
    event keeps every crossing exact; an event on each of 2n + 4 restarts is
    read as a chattering extremal.
    """
    y = np.asarray(y0, dtype=float)
    shape = y.shape
    n, m = M.shape
    # the same product on the flat rows: y K, with K = I (x) [M; 0]
    K = np.zeros((m, m))
    K[:n] = M
    K = np.kron(np.eye(y.size // m), K)

    def rhs(_, y):
        return y @ K

    events = []
    s_at = 0.0
    for _ in range(2 * n + 4):
        s_at, y, crossed = integrate_with_sign_event(
            rhs, y.reshape(-1), s_at, t1, watch=0, tol=_RTOL, atol=_ATOL)
        y = y.reshape(shape)
        if not crossed:
            return events, y
        s_at = float(s_at)
        events.append((s_at, y))
    raise IntegrationError("control keeps switching; chattering extremal")


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
    with no seed tried.
    """
    i = FAST_IDX[1]
    target = prob.target_fast[1]
    if not prob.x0[i] < target:
        raise NoConvergenceError(
            "no shooting seed: x4 starts at or above its target, so there "
            "is no full-rate onset to seed t_f from", seeds_tried=0)
    # shift x4 by its target so the event is a sign change of the state
    shift = np.zeros(prob.sys.n)
    shift[i] = target
    drive = prob.sys.A @ shift + prob.sys.B * prob.u_max
    A = prob.sys.A

    def rhs(t, y):
        return A @ y + drive

    t_on, _, crossed = integrate_with_sign_event(
        rhs, prob.x0 - shift, 0.0, _ONSET_HORIZON, watch=i, tol=_RTOL,
        atol=_ATOL)
    if not crossed:
        raise InfeasibleError("x4 does not reach its target at full rate")
    return t_on


def default_seed_grid(t_on: float) -> list:
    """(theta, t_f) seeds: theta outer, the multiples of t_on inner."""
    return [(theta, f * t_on) for theta in THETA_SEEDS
            for f in T_F_SEED_FACTORS]


@dataclass(frozen=True)
class ExtremalCertificate:
    psi0: np.ndarray
    t_f: float
    switch_times: tuple
    residual_norm: float
    terminal_costate: np.ndarray
    schedule: ControlSchedule

    def __post_init__(self):
        for name in ("psi0", "terminal_costate"):
            p = np.array(getattr(self, name), dtype=float)
            p.setflags(write=False)
            object.__setattr__(self, name, p)
        object.__setattr__(self, "switch_times",
                           tuple(float(s) for s in self.switch_times))
        if not self.residual_norm < RESIDUAL_ACCEPT:
            raise DomainError("certificate residual above the acceptance bound")
        if not self.transversality_residual < TRANSVERSALITY_ACCEPT:
            raise DomainError("terminal costate violates transversality")
        if len(self.switch_times) > 3:
            raise DomainError("more than n-1 = 3 switches on a certificate")
        if any(not 0.0 < s < self.t_f for s in self.switch_times):
            raise DomainError("switch times must lie strictly inside (0, t_f)")

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

    In s = t_f - t the costate obeys dpsi/ds = A^T psi and decays, so the
    rows y = [psi_theta; psi_perp] are integrated in s from psi_theta =
    (cos theta, 0, 0, sin theta) and its theta-derivative psi_perp,
    restarting at each zero s_i of psi_theta,1: a switch at t_i = t_f - s_i.
    The control starts at the sign of psi0 and flips at each switch.

    One more column carries w(s) = int_0^s y B, and the endpoint comes from
    the adjoint identity y(0) x(t_f) = y(t_f) x0 + int y B u ds (Bryson &
    Ho 1975, ch. 2): with R = R(theta) and the levels u_k in s order,
    E x(t_f) = R (y(t_f) x0 + sum_k u_k dw_k) and E x'(t_f) =
    R (y(t_f) A x0 + sum_k u_k dy_k B + y(0) B u(t_f)), E the rows x1 and
    x4. No state is integrated.

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
        psi0=psi0, t_f=p.t_f, switch_times=p.switches,
        residual_norm=float(np.linalg.norm([p.gap[0], p.gap[1], h0])),
        terminal_costate=psi_f, schedule=schedule)
