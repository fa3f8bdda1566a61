"""Indirect (shooting) solution of the minimum-time induction problem.

The maximum principle turns the problem into a boundary value problem for
the state/costate pair: integrate forward from (x0, psi0) under the sign
control law, and pick (psi0, t_f) so that the fast target (x1, x4) is met,
the Hamiltonian vanishes at t_f, and the costate of the free compartments x2
and x3 vanishes at t_f (transversality). The terminal costate therefore lies
on psi(t_f) = r (cos theta, 0, 0, sin theta). The control reads only the
sign of psi1, so the scale r plays no part in the flight: (theta, t_f) solve
the two target conditions, a square 2x2 system, by damped Newton inside a
trust region, and r is fixed afterwards by H(t_f) = 0. psi0 comes from
psi(t_f) by integrating the costate backward with the same Runge-Kutta
integrator as the flights.

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
from .lti import Trajectory, integrate, integrate_with_sign_event
from .problem import FAST_IDX, ControlSchedule, TimeOptimalProblem

THETA_SEEDS = tuple(-np.pi / 2 + k * np.pi / 8 for k in range(16))
T_F_SEED_FACTORS = (1.5, 1.05, 2.5)
RESIDUAL_ACCEPT = 1e-8
# |psi2(t_f)|, |psi3(t_f)| relative to |psi(t_f)|
TRANSVERSALITY_ACCEPT = 1e-8
MAX_RESIDUAL_EVALS = 200

# switch-time error feeds the endpoint at a rate of order u_max, so the
# extremal flights run tighter than the module-default integrator tolerance
_RTOL = 1e-12
_ATOL = 1e-14

_T_F_FLOOR = 1e-3
_T_F_CEIL = 10.0  # times t_on
_ONSET_HORIZON = 1e4
_GAP_TOL = 1e-10
_FD_STEP = 1e-7
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


def _flight(prob, psi0, t_f, rtol, atol):
    """Integrate the extremal with event-exact switch restarts.

    The running control is carried explicitly and flipped at each detected
    psi1 crossing; re-reading the sign at the interpolated event state would
    be deciding on a value of order 1e-15. Returns (times, states, switches,
    levels) with the accepted nodes of all segments and the control level
    of each segment.
    """
    n = prob.sys.n
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = prob.sys.A
    M[n:, n:] = -prob.sys.A.T
    z = np.concatenate([prob.x0, np.asarray(psi0, dtype=float)])
    levels = [bang_control(z[n], prob.u_max)]
    t = 0.0
    times = [0.0]
    states = [z.copy()]
    switches = []
    for _ in range(2 * n + 4):
        b = np.zeros(2 * n)
        b[:n] = prob.sys.B * levels[-1]

        def rhs(s, y, M=M, b=b):
            return M @ y + b

        seg, events = integrate_with_sign_event(rhs, z, t, t_f, watch=n,
                                                tol=rtol, atol=atol,
                                                stop_at_first=True)
        times.extend(seg.times[1:].tolist())
        states.extend(list(seg.states[1:]))
        if not events:
            return np.array(times), np.array(states), switches, levels
        t = float(seg.times[-1])
        z = seg.states[-1]
        switches.append(t)
        levels.append(prob.u_max if levels[-1] == 0.0 else 0.0)
    raise IntegrationError("control keeps switching; chattering extremal")


def _endpoint_residual(prob, z_f, u_f) -> np.ndarray:
    n = prob.sys.n
    x_f, psi_f = z_f[:n], z_f[n:]
    gap = prob.fast_residual(x_f)
    return np.array([gap[0], gap[1], hamiltonian(prob, x_f, u_f, psi_f)])


def shooting_residual(prob: TimeOptimalProblem, psi0, t_f: float,
                      rtol: float = _RTOL, atol: float = _ATOL) -> np.ndarray:
    """(x1(t_f) - target1, x4(t_f) - target4, H(t_f)) for the extremal flight."""
    if not t_f > 0:
        raise DomainError("shooting horizon t_f must be positive")
    _, states, _, levels = _flight(prob, psi0, t_f, rtol, atol)
    return _endpoint_residual(prob, states[-1], levels[-1])


def extremal_trajectory(prob: TimeOptimalProblem, psi0, t_f: float,
                        rtol: float = _RTOL, atol: float = _ATOL):
    """Full extremal as a Trajectory of (x, psi) nodes plus the switch times.

    The control array is right-continuous at switches.
    """
    times, states, switches, levels = _flight(prob, psi0, t_f, rtol, atol)
    control = np.array(levels)[np.searchsorted(switches, times, side="right")]
    return Trajectory(times, states, control), list(switches)


def full_rate_onset(prob: TimeOptimalProblem, rtol: float = _RTOL,
                    atol: float = _ATOL) -> float:
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
                                          _ONSET_HORIZON, watch=i, tol=rtol,
                                          atol=atol, stop_at_first=True)
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


class _Shooter:
    """Residual evaluations on the transversality subspace, under a cap.

    A point (theta, t_f) stands for psi(t_f) = (cos theta, 0, 0, sin theta)
    on the fast compartments. Each evaluation returns the target gap, the
    unit-scale psi0 and d = psi(t_f) . x'(t_f), so that psi0 <- -psi0 / d
    makes H(t_f) = 0 whenever d < 0.
    """

    def __init__(self, prob, rtol, atol):
        self.prob, self.rtol, self.atol = prob, rtol, atol
        self.evals = 0
        self.best = np.inf
        self._basis_t = None
        self._basis = None

    def costate_basis(self, t_f):
        """psi(0) for psi(t_f) = e1 and e4, as the columns of an n x 2 matrix.

        With s = t_f - t the costate obeys dpsi/ds = A^T psi, so one forward
        RK solve of the pair maps the terminal costate back to t = 0.
        """
        if t_f != self._basis_t:
            n = self.prob.sys.n
            At = self.prob.sys.A.T
            P = np.zeros((n, 2))
            P[FAST_IDX[0], 0] = P[FAST_IDX[1], 1] = 1.0

            def rhs(s, y):
                return (At @ y.reshape(n, 2)).reshape(-1)

            traj = integrate(rhs, P.reshape(-1), 0.0, t_f, tol=self.rtol,
                             atol=self.atol)
            self._basis_t, self._basis = t_f, traj.states[-1].reshape(n, 2)
        return self._basis

    def __call__(self, theta, t_f):
        if self.evals >= MAX_RESIDUAL_EVALS:
            raise _BudgetSpent
        self.evals += 1
        psi0 = self.costate_basis(t_f) @ np.array([np.cos(theta),
                                                   np.sin(theta)])
        r = shooting_residual(self.prob, psi0, t_f, rtol=self.rtol,
                              atol=self.atol)
        d = r[2] - 1.0
        # no positive scale zeroes H when d >= 0; the unit scale is reported
        h = 0.0 if d < 0.0 else r[2]
        self.best = min(self.best, float(np.linalg.norm([r[0], r[1], h])))
        return r[:2], psi0, d

    def newton(self, theta, t_f, t_hi):
        """Damped Newton on the gap; returns (t_f, gap, psi0, d) at the last
        point reached.

        Steps are cut to |dtheta| <= pi/8 and |dt_f| <= t_f / 2, t_f stays in
        [_T_F_FLOOR, t_hi], and a step is halved until the gap shrinks. A
        singular Jacobian or a step that cannot shrink the gap ends the search.
        """
        g, psi0, d = self(theta, t_f)
        for _ in range(_MAX_NEWTON_STEPS):
            ng = np.linalg.norm(g)
            if ng < _GAP_TOL:
                break
            J = np.empty((2, 2))
            J[:, 0] = (self(theta + _FD_STEP, t_f)[0] - g) / _FD_STEP
            h_t = _FD_STEP * t_f
            J[:, 1] = (self(theta, t_f + h_t)[0] - g) / h_t
            try:
                step = np.linalg.solve(J, -g)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            over = np.max(np.abs(step) / [_THETA_STEP_MAX, 0.5 * t_f])
            if over > 1.0:
                step /= over
            for _ in range(_MAX_HALVINGS):
                theta_n = theta + step[0]
                t_n = float(np.clip(t_f + step[1], _T_F_FLOOR, t_hi))
                g_n, psi0_n, d_n = self(theta_n, t_n)
                if np.linalg.norm(g_n) < ng:
                    theta, t_f, g, psi0, d = theta_n, t_n, g_n, psi0_n, d_n
                    break
                step *= 0.5
            else:
                break
        return t_f, g, psi0, d


def solve_shooting(prob: TimeOptimalProblem, initial_guesses=None,
                   rtol: float = _RTOL, atol: float = _ATOL) -> ExtremalCertificate:
    """Try (theta, t_f) seeds in order; the first certified root wins.

    With no seeds given, default_seed_grid(full_rate_onset(prob)) is used.
    A root is certified when its target gap is below RESIDUAL_ACCEPT and
    H(t_f) = 0 has a positive costate scale. Raises NoConvergenceError with
    the best residual, the seeds tried and the residual evaluations spent
    when every seed stalls or the MAX_RESIDUAL_EVALS cap is reached.
    """
    t_on = full_rate_onset(prob, rtol, atol)
    seeds = (default_seed_grid(t_on) if initial_guesses is None
             else list(initial_guesses))
    if not seeds:
        raise DomainError("seed set must be nonempty")
    shooter = _Shooter(prob, rtol, atol)
    t_hi = _T_F_CEIL * t_on
    tried = 0
    try:
        for theta0, t_f0 in seeds:
            tried += 1
            t_f0 = float(np.clip(t_f0, _T_F_FLOOR, t_hi))
            t_f, g, psi0, d = shooter.newton(float(theta0), t_f0, t_hi)
            if np.linalg.norm(g) < RESIDUAL_ACCEPT and d < 0.0:
                try:
                    return _certify(prob, -psi0 / d, t_f, rtol, atol)
                except DomainError:
                    continue
    except _BudgetSpent:
        pass
    raise NoConvergenceError(
        f"no shooting seed converged: best residual {shooter.best:.3e} "
        f"after {tried} seeds and {shooter.evals} residual evaluations",
        best_residual=shooter.best, seeds_tried=tried,
        residual_evals=shooter.evals)


def _certify(prob, psi0, t_f, rtol, atol) -> ExtremalCertificate:
    _, states, switches, levels = _flight(prob, psi0, t_f, rtol, atol)
    residual = _endpoint_residual(prob, states[-1], levels[-1])
    schedule = ControlSchedule(levels=tuple(levels),
                               breakpoints=tuple(switches), t_f=t_f)
    return ExtremalCertificate(
        psi0=psi0, t_f=t_f, switch_times=tuple(switches),
        residual_norm=float(np.linalg.norm(residual)),
        terminal_costate=states[-1][prob.sys.n:], schedule=schedule)
