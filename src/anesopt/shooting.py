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

One evaluation at (theta, t_f) integrates the costate backward, in
s = t_f - t, where it decays: this sweep (_sweep) yields the switch times
and the unit-scale psi0. The state is then walked forward between the known
switches (_walk). The exact Jacobian comes from the same sweep: the adjoints
of x1 and x4 at each switch, and the rate at which each switch moves with
theta. So Newton pays one evaluation per step. The certificate is built
from the last evaluation; H(0) = 0 joins the target gap in its residual,
tying the backward costate and the forward state to one extremal.

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
from .lti import integrate, integrate_with_sign_event
from .problem import FAST_IDX, ControlSchedule, TimeOptimalProblem

THETA_SEEDS = tuple(-np.pi / 2 + k * np.pi / 8 for k in range(16))
T_F_SEED_FACTORS = (1.5, 1.05, 2.5)
RESIDUAL_ACCEPT = 1e-8
# |psi2(t_f)|, |psi3(t_f)| relative to |psi(t_f)|
TRANSVERSALITY_ACCEPT = 1e-8
MAX_RESIDUAL_EVALS = 200

# switch-time error feeds the endpoint at a rate of order u_max, so the
# sweep and the walk run tighter than the module-default integrator tolerance
_RTOL = 1e-12
_ATOL = 1e-14

_T_F_FLOOR = 1e-3
_T_F_CEIL = 10.0  # times t_on
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
    """Integrate rows y with dy/ds = y M over [0, t1], restarting at each
    sign change of entry 0.

    Returns ([(s_i, y(s_i))], y(t1)), the events in increasing s, with y in
    the shape of y0. Restarting at each event keeps every crossing exact; an
    event on each of 2n + 4 restarts is read as a chattering extremal.
    """
    y = np.asarray(y0, dtype=float)
    shape = y.shape

    def rhs(_, y):
        return (y.reshape(shape) @ M).reshape(-1)

    events = []
    s_at = 0.0
    for _ in range(2 * len(M) + 4):
        seg, hit = integrate_with_sign_event(
            rhs, y.reshape(-1), s_at, t1, watch=0, tol=_RTOL, atol=_ATOL)
        y = seg.states[-1].reshape(shape)
        if not hit:
            return events, y
        s_at = float(seg.times[-1])
        events.append((s_at, y))
    raise IntegrationError("control keeps switching; chattering extremal")


def _walk(prob, levels, switches, t_f):
    """x(t_f) from x0 under levels[k] between the knots 0, switches, t_f:
    one integration per segment."""
    A, B = prob.sys.A, prob.sys.B
    knots = (0.0,) + tuple(switches) + (t_f,)
    x = prob.x0
    for u, a, b in zip(levels, knots, knots[1:]):
        def state(_, x, drive=B * u):
            return A @ x + drive

        x = integrate(state, x, a, b, tol=_RTOL, atol=_ATOL).states[-1]
    return x


def _levels(psi1_0, u_max, switches):
    """The sign law's level at t = 0, flipped at each switch: re-reading the
    sign at a located event would decide on a psi1 of order 1e-15."""
    levels = [bang_control(psi1_0, u_max)]
    for _ in range(switches):
        levels.append(u_max if levels[-1] == 0.0 else 0.0)
    return tuple(levels)


def shooting_residual(prob: TimeOptimalProblem, psi0, t_f: float) -> np.ndarray:
    """(x1(t_f) - target1, x4(t_f) - target4, H(t_f)) for the extremal from psi0.

    A forward diagnostic on the solver's sweep and walk, not the solver path:
    it sweeps the costate forward from psi0, where it grows with the fastest
    system mode (e^(0.94 t) on the reference patient), so it loses accuracy
    on long horizons.
    """
    if not t_f > 0:
        raise DomainError("shooting horizon t_f must be positive")
    events, psi_f = _sweep(-prob.sys.A, psi0, t_f)
    levels = _levels(psi0[0], prob.u_max, len(events))
    x_f = _walk(prob, levels, [s for s, _ in events], t_f)
    gap = prob.fast_residual(x_f)
    return np.array([gap[0], gap[1], hamiltonian(prob, x_f, levels[-1], psi_f)])


def full_rate_onset(prob: TimeOptimalProblem) -> float:
    """First time x4 reaches its target under u = u_max, a lower bound on t_f.

    The system is positive, so x4(t) is monotone in the input and no
    admissible control brings x4 to its target sooner.
    """
    i = FAST_IDX[1]
    target = prob.target_fast[1]
    if not prob.x0[i] < target:
        raise DomainError("shooting seeds need x4 to start below its target")
    # shift x4 by its target so the event is a sign change of the state
    shift = np.zeros(prob.sys.n)
    shift[i] = target
    drive = prob.sys.A @ shift + prob.sys.B * prob.u_max
    A = prob.sys.A

    def rhs(t, y):
        return A @ y + drive

    _, events = integrate_with_sign_event(rhs, prob.x0 - shift, 0.0,
                                          _ONSET_HORIZON, watch=i, tol=_RTOL,
                                          atol=_ATOL)
    if not events:
        raise InfeasibleError("x4 does not reach its target at full rate")
    return events[0]


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
    x'(t_f), so that psi0 <- -psi0 / d makes H(t_f) = 0 whenever d < 0.
    """

    theta: float
    t_f: float
    gap: np.ndarray
    jac: np.ndarray
    psi0: np.ndarray
    d: float
    switches: tuple
    levels: tuple


class _Shooter:
    """Residual evaluations on the transversality subspace, under a cap."""

    def __init__(self, prob):
        self.prob = prob
        self.evals = 0
        self.best = np.inf

    def __call__(self, theta, t_f) -> _Point:
        """Backward costate sweep, forward state, exact Jacobian.

        In s = t_f - t the costate obeys dpsi/ds = A^T psi and decays, so
        the pair [psi_theta, psi_perp] is integrated in s from
        psi_theta = (cos theta, 0, 0, sin theta) and its theta-derivative
        psi_perp, restarting at each zero s_i of psi_theta,1: a switch at
        t_i = t_f - s_i. The control starts at the sign of psi0 and flips at
        each switch; the state is then integrated forward segment by segment.

        With Psi = [psi_theta, psi_perp] R(theta)^T, the adjoints of x1 and
        x4, a switch at t_i moves the target by Psi(s_i)^T B (u_i- - u_i+)
        per unit of t_i. t_i moves one for one with t_f, and with theta at
        -ds_i/dtheta = psi_perp,1 / (A^T psi_theta)_1 (Kaya & Noakes 1996).
        """
        if self.evals >= MAX_RESIDUAL_EVALS:
            raise _BudgetSpent
        self.evals += 1
        prob = self.prob
        A, B, n = prob.sys.A, prob.sys.B, prob.sys.n
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        y = np.zeros((2, n))
        y[:, FAST_IDX[0]] = c, -s
        y[:, FAST_IDX[1]] = s, c
        events, (psi0, _) = _sweep(A, y, t_f)
        levels = _levels(psi0[0], prob.u_max, len(events))
        switches = tuple(t_f - s_i for s_i, _ in reversed(events))
        x = _walk(prob, levels, switches, t_f)
        x_dot = A @ x + B * levels[-1]
        gap = prob.fast_residual(x)
        d = c * x_dot[FAST_IDX[0]] + s * x_dot[FAST_IDX[1]]

        jac = np.zeros((2, 2))
        jac[:, 1] = x_dot[list(FAST_IDX)]
        # switch k (in t order) lies between levels[k] and levels[k + 1]
        for k, (_, P) in zip(reversed(range(len(events))), events):
            jump = rot @ (P @ B) * (levels[k] - levels[k + 1])
            jac[:, 1] += jump
            jac[:, 0] += jump * P[1, 0] / (P[0] @ A[:, 0])
        if not events and abs(c) <= _TIE_COS:
            # psi1(t_f) = 0: take the right-derivative, in which a switch
            # enters at s = 0 when ds/dtheta > 0
            rate = y[1, 0] / (y[0] @ A[:, 0])  # -ds/dtheta
            if rate < 0.0:
                u_in = prob.u_max if levels[-1] == 0.0 else 0.0
                jac[:, 0] += rot @ (y @ B) * (levels[-1] - u_in) * rate

        # no positive scale zeroes H when d >= 0; the unit scale is reported
        h = 0.0 if d < 0.0 else 1.0 + d
        self.best = min(self.best, float(np.linalg.norm([gap[0], gap[1], h])))
        return _Point(theta, t_f, gap, jac, psi0, d, switches, tuple(levels))

    def newton(self, theta, t_f, t_hi) -> _Point:
        """Damped Newton on the gap; returns the last point reached.

        Steps are cut to |dtheta| <= pi/8 and |dt_f| <= t_f / 2, t_f stays in
        [_T_F_FLOOR, t_hi], and a step is halved until the gap shrinks. A
        singular Jacobian or a step that cannot shrink the gap ends the search.
        """
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
                t_n = float(np.clip(p.t_f + step[1], _T_F_FLOOR, t_hi))
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
    t_hi = _T_F_CEIL * t_on
    tried = 0
    try:
        for theta0, t_f0 in default_seed_grid(t_on):
            tried += 1
            t_f0 = float(np.clip(t_f0, _T_F_FLOOR, t_hi))
            p = shooter.newton(float(theta0), t_f0, t_hi)
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
    """Scale the last evaluation by H(t_f) = 0; H(0) ties its backward
    costate and forward state to one extremal."""
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
