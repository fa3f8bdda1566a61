"""Bang-bang strategy enumeration for the minimum-time induction problem.

Candidate controls alternate between 0 and u_max with at most n - 1 = 3
switches: eight patterns. The unknowns of a pattern are its segment
durations, solved by a gap solver built for that pattern's levels; endpoints
come from closed-form propagation, and their exact first and second
switching-time derivatives from transports on the eigenbasis of A, read on
the two fast rows only, so neither the projected Gauss-Newton root search
nor the KKT Newton solve of min sum(d) s.t. r(d) = 0 touches an ODE solver.
The KKT multipliers give the terminal costate psi(t_f) = C^T mu, and a
pattern whose minimum-time representative has a vanishing segment is
dominated.

From an equilibrium of an admissible constant control, a KKT point whose
switching function psi^T B has exactly as many zeros as switches, with the
sign law between them, is the unique minimum-time control (Lee and Markus
1967, ch. 2). The test reads the real eigendecomposition that every
LTISystem carries, so it applies to every problem. solve_time_optimal
walks one table of all eight patterns, the one-switch pattern first, and
stops at the first certified one; otherwise it keeps the fastest feasible
pattern.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InfeasibleError
from .lti import constant_input_propagator, kalman_rank
from .problem import FAST_IDX, ControlSchedule, TimeOptimalProblem

T_MAX = 60.0         # search horizon, min
FEAS_TOL = 1e-9      # inf-norm residual bound for a feasible root
COLLAPSE_TOL = 1e-3  # segments shorter than this are vanishing
GRID_POINTS = 8      # multistart points per time dimension
STALL_TOL = 1e-6     # relative residual drop below which a search has stalled
_EQUILIBRIUM_RTOL = 1e-12  # |A x0 + B u0| against |A| |x0|: rounding only
_MODAL_RTOL = 1e-12  # a modal coefficient below this share of the largest
                     # has no sign that rounding can be trusted with


@dataclass(frozen=True)
class Pattern:
    """Alternating on/off sequence, identified by its strategy number."""

    strategy: int
    starts_high: bool
    switches: int

    def levels(self, u_max: float) -> tuple:
        on = [float(u_max), 0.0] if self.starts_high else [0.0, float(u_max)]
        return tuple(on[i % 2] for i in range(self.switches + 1))


def enumerate_patterns() -> list:
    """The eight alternating patterns with up to n - 1 = 3 switches, in
    strategy order: bolus-first ones have odd numbers, rest-first ones even."""
    pats = []
    for k in range(4):
        pats.append(Pattern(strategy=2 * k + 1, starts_high=True, switches=k))
        pats.append(Pattern(strategy=2 * k + 2, starts_high=False, switches=k))
    return pats


@dataclass(frozen=True)
class StrategyResult:
    strategy: int
    schedule: ControlSchedule | None
    residual: np.ndarray
    feasible: bool
    note: str = ""
    terminal_costate: np.ndarray | None = None  # psi(t_f) = C^T mu, if feasible
    certified: bool = False  # proven the unique minimum-time control

    def __post_init__(self):
        for name in ("residual", "terminal_costate"):
            if getattr(self, name) is not None:
                a = np.array(getattr(self, name), dtype=float)
                a.setflags(write=False)
                object.__setattr__(self, name, a)
        if self.feasible:
            if self.schedule is None:
                raise DomainError("feasible result requires a schedule")
            if not np.linalg.norm(self.residual, np.inf) < FEAS_TOL:
                raise DomainError("feasible result violates the residual bound")
        if self.certified and (not self.feasible or self.terminal_costate is None):
            raise DomainError("a certificate needs a feasible KKT point")

    @property
    def t_f(self):
        return None if self.schedule is None else self.schedule.t_f


class _GapSolver:
    """Root finding over the nonnegative segment durations of one pattern's
    levels on one problem."""

    def __init__(self, prob: TimeOptimalProblem, pattern: Pattern):
        self.prob = prob
        self.levels = pattern.levels(prob.u_max)
        self.props = {u: constant_input_propagator(prob.sys, u)
                      for u in set(self.levels)}
        # modal data of the transports: row j of ViBu is Vi B u_j, and the
        # fast rows read C V and C V Lambda = C A V
        sys = prob.sys
        self.ViBu = np.multiply.outer(self.levels, sys.Vi @ sys.B)
        self.CV = sys.V[list(FAST_IDX)]
        self.CVL = self.CV * sys.eigenvalues

    def walk(self, gaps) -> np.ndarray:
        """The state after each segment, one row per gap."""
        xs = np.empty((len(gaps), self.prob.sys.n))
        x = self.prob.x0
        for j, (u, d) in enumerate(zip(self.levels, gaps)):
            if d > 0:
                x = self.props[u](x, d)
            xs[j] = x
        return xs

    def jac(self, gaps, xs, mu=None):
        """Exact switching-time derivatives of the residual (Kaya and Noakes
        1996): column j is C v_j, the fast rows of the transport
        v_j = e^(A tau_j) (A x_j + B u_j), x_j = xs[j] the state after
        segment j and tau_j the time left after it; at d_j = 0 it is the
        right-derivative. The transports are taken on the eigenbasis,
        v_j = V z_j with z_j = e^(lam tau_j) * (lam * Vi x_j + Vi B u_j), so
        J = (C V) Z costs one exp over the (k, n) array of tau x lam.

        With KKT multipliers mu it returns (J, w), w_j = mu^T C A v_j =
        mu^T (C V Lambda) z_j, the row of the KKT block (see kkt_system).
        """
        sys = self.prob.sys
        lam = sys.eigenvalues
        tau = np.zeros(len(gaps))
        tau[:-1] = np.cumsum(gaps[:0:-1])[::-1]
        Zt = (np.exp(np.multiply.outer(tau, lam))
              * (lam * (xs @ sys.Vi.T) + self.ViBu)).T
        J = self.CV @ Zt
        return J if mu is None else (J, (mu @ self.CVL) @ Zt)

    def _clip(self, gaps) -> np.ndarray:
        g = np.maximum(gaps, 0.0)
        total = g.sum()
        if total > T_MAX:
            g = g * (T_MAX / total)
        return g

    def starts(self):
        """Multistart gap vectors, one gap per level, yielded lazily: ordered
        cut points on a dyadic refinement of the horizon, T_MAX/2 down to
        T_MAX/256, which reaches the sub-minute root scale that a uniform
        horizon grid never does. A root past T_MAX/2 is reached by the
        search, not a start."""
        pts = sorted(T_MAX / 2 ** i for i in range(1, GRID_POINTS + 1))
        ndim = len(self.levels)
        for combo in itertools.combinations_with_replacement(pts, ndim):
            yield np.diff(combo, prepend=0.0)

    def search(self, gaps0):
        """Projected Gauss-Newton toward a residual zero: (gaps, r, xs) at
        the last point reached, with xs its walk.

        The minimum-norm least-squares step (Ben-Israel 1966) serves square,
        over- and underdetermined patterns alike; it is halved until the
        clipped point lowers |r|.
        """
        g = np.asarray(gaps0, dtype=float)
        xs = self.walk(g)
        r = self.prob.fast_residual(xs[-1])
        nr = math.sqrt(r @ r)
        for _ in range(100):
            if nr < 1e-12:
                break
            J = self.jac(g, xs)
            # pin gaps held at zero by the projection, so the step runs
            # along the face instead of being clipped back every time
            pinned = (g == 0) & (J.T @ r > 0)
            J[:, pinned] = 0.0
            step, _, rank, _ = np.linalg.lstsq(J, -r, rcond=None)
            if rank < min(len(r), np.count_nonzero(~pinned)):
                break  # a free gap the endpoint cannot see has no Newton step
            scale = 1.0
            while scale >= 1e-12:
                gn = self._clip(g + scale * step)
                if (gn == g).all():
                    return g, r, xs
                xn = self.walk(gn)
                rn = self.prob.fast_residual(xn[-1])
                nrn = math.sqrt(rn @ rn)
                if nrn < nr:
                    break
                scale *= 0.5
            else:
                break  # no halving lowers the residual
            stalled = nr - nrn < STALL_TOL * nr
            g, r, nr, xs = gn, rn, nrn, xn
            if stalled:
                break  # a least-squares minimum, not a root
        return g, r, xs

    def kkt_system(self, gaps, xs, mu):
        """F(d, mu) = [r(d); 1 + J(d)^T mu], square for k >= 1 switches, and
        its Jacobian [[J, 0], [M, J^T]], from xs = walk(gaps). Since
        dv_j/dd_i = A v_min(i,j), M_ji = w_min(i,j) with w = mu^T C A v
        (Maurer, Buskens, Kim and Kaya 2005), read from the same modal
        transports as J."""
        J, w = self.jac(gaps, xs, mu)
        k = len(gaps)
        F = np.concatenate([self.prob.fast_residual(xs[-1]), 1.0 + J.T @ mu])
        K = np.zeros((k + 2, k + 2))
        K[:2, :k] = J
        K[2:, :k] = w[np.minimum.outer(range(k), range(k))]
        K[2:, k:] = J.T
        return F, K

    def kkt(self, gaps, xs):
        """Newton on the KKT system from a root and its walk xs, with
        mu0 = lstsq(J^T, -1): (gaps, mu, r) at a KKT point with no vanishing
        segment, or None when a segment vanishes, K is singular or Newton
        does not converge."""
        g, n = gaps, len(gaps)
        J = self.jac(g, xs)
        mu = np.linalg.lstsq(J.T, -np.ones(n), rcond=None)[0]
        for i in range(20):
            if g.min() < COLLAPSE_TOL:
                return None
            if i:  # the root's walk came with it
                xs = self.walk(g)
            F, K = self.kkt_system(g, xs, mu)
            if np.linalg.norm(F, np.inf) < FEAS_TOL:
                return g, mu, F[:2]
            try:
                step = np.linalg.solve(K, -F)
            except np.linalg.LinAlgError:
                return None
            g, mu = g + step[:n], mu + step[n:]
        return None


def _to_schedule(levels, gaps) -> ControlSchedule:
    cum = np.cumsum(gaps)
    return ControlSchedule(levels=tuple(levels),
                           breakpoints=tuple(cum[:-1]),
                           t_f=float(cum[-1]))


def solve_pattern(prob: TimeOptimalProblem, pattern: Pattern) -> StrategyResult:
    """Solve one pattern for its minimum-time representative.

    From an equilibrium of u = 0 a leading rest segment leaves the state
    where it is, so a rest-first pattern is dominated without a search.
    Otherwise the search runs from each start of the ordered duration
    simplex up to the first root; past zero switches, the KKT Newton solve
    takes that root to a KKT point or reports the pattern dominated. A KKT
    point records whether it is certified (see _certify).
    """
    k = pattern.switches
    if not pattern.starts_high and not (prob.sys.A @ prob.x0).any():
        note = f"dominated by strategy {2 * k - 1}" if k else "never leaves rest"
        return StrategyResult(pattern.strategy, None, np.empty(0), False, note)
    sol = _GapSolver(prob, pattern)
    best_nr, best_r, zero = np.inf, None, None
    for g0 in sol.starts():
        g, r, xs = sol.search(g0)
        nr = np.linalg.norm(r, np.inf)
        if nr < best_nr:
            best_nr, best_r = nr, r
        if nr < FEAS_TOL:
            zero = g
            break
    if zero is None:
        return StrategyResult(pattern.strategy, None, best_r, False,
                              f"no root: best residual {best_nr:.3e}")
    if k == 0:
        if zero.min() < COLLAPSE_TOL:
            return StrategyResult(pattern.strategy, None, best_r, False,
                                  "root degenerate: a segment vanishes")
        return StrategyResult(pattern.strategy, _to_schedule(sol.levels, zero),
                              r, True, "isolated root")
    point = sol.kkt(zero, xs)
    if point is None:
        return StrategyResult(pattern.strategy, None, best_r, False,
                              "dominated: the minimum-time representative "
                              "has a vanishing segment")
    g, mu, r = point
    psi_f = np.eye(prob.sys.n)[list(FAST_IDX)].T @ mu  # C^T mu
    res = StrategyResult(pattern.strategy, _to_schedule(sol.levels, g),
                         r, True, "KKT point", psi_f)
    return replace(res, certified=_certify(prob, res))


def _admissible_equilibrium(prob: TimeOptimalProblem) -> bool:
    """Whether x0 is held by a constant control 0 <= u0 <= u_max: rest and
    the re-dosing starts f x_e qualify. u0 is the least-squares input."""
    A, B, x0 = prob.sys.A, prob.sys.B, prob.x0
    drift = A @ x0
    u0 = -(B @ drift) / (B @ B)
    scale = np.max(np.abs(A) @ np.abs(x0))
    return bool(np.max(np.abs(drift + B * u0)) <= _EQUILIBRIUM_RTOL * scale
                and 0.0 <= u0 <= prob.u_max)


def _certify(prob: TimeOptimalProblem, result: StrategyResult) -> bool:
    """Whether a feasible KKT result is certified, read from the problem
    statement alone: the modal data of A and psi(t_f) = C^T mu.

    In s = t_f - t the switching function is psi1(s) = psi(s)^T B =
    sum c_i e^(lam_i s), c = (V^-1 B) * (V^T C^T mu). By Laguerre's rule
    (Polya and Szego, Part V) it has at most as many real zeros as c has
    sign changes in ascending lam order. A k-switch point is certified when
    that count is exactly k, psi1 vanishes at each switch (|psi1| u_max <=
    FEAS_TOL) and psi1 < 0 at each segment's midpoint exactly where
    u = u_max: the midpoint signs alternate, so the switches hold the only
    zeros. From an admissible equilibrium start the sign law then makes the
    control the unique minimum-time one (Lee and Markus 1967, ch. 2): a
    faster control, held first at the equilibrium input, would give
    int psi1 (u - u*) = 0 with a nonnegative integrand.
    """
    sys, sched = prob.sys, result.schedule
    c = (sys.Vi @ sys.B) * (sys.V.T @ result.terminal_costate)
    signs = np.sign(c[c != 0])
    sign_changes = int(np.count_nonzero(np.diff(signs)))
    knots = np.array((0.0,) + sched.breakpoints + (sched.t_f,))

    def psi1(t):
        return np.exp(np.multiply.outer(sched.t_f - t, sys.eigenvalues)) @ c

    mid = psi1((knots[:-1] + knots[1:]) / 2)
    return bool(
        np.all(np.abs(c) > _MODAL_RTOL * np.max(np.abs(c)))
        and sign_changes == len(sched.breakpoints)
        and np.all(np.abs(psi1(knots[1:-1])) * prob.u_max <= FEAS_TOL)
        and np.all(mid != 0)
        and np.array_equal(sched.levels, np.where(mid < 0, prob.u_max, 0.0))
        and _admissible_equilibrium(prob))


def _validate(prob: TimeOptimalProblem) -> None:
    if kalman_rank(prob.sys) != prob.sys.n:
        raise DomainError("system is not controllable from the infusion input")


def solve_all_patterns(prob: TimeOptimalProblem) -> list:
    """StrategyResult for every candidate pattern, in strategy order."""
    _validate(prob)
    return [solve_pattern(prob, p) for p in enumerate_patterns()]


def _select(results) -> StrategyResult:
    """Deterministic reduction: minimal t_f, ties to fewer switches."""
    feas = [r for r in results if r.feasible]
    if not feas:
        # a search found a root exactly when its residual is below FEAS_TOL;
        # such a root was then rejected as dominated, so it names no miss.
        # Every table holds searched bolus-first patterns, so norms is not
        # empty.
        norms = [float(np.linalg.norm(r.residual, np.inf)) for r in results
                 if r.residual.size]
        rootless = [nr for nr in norms if nr >= FEAS_TOL]
        why = (f"best residual {min(rootless):.3e}" if rootless
               else "every root found was dominated")
        raise InfeasibleError(
            f"target unreachable under the control bound within the horizon "
            f"({why})")
    return min(feas, key=lambda r: (r.schedule.t_f, len(r.schedule.breakpoints),
                                    r.strategy))


def solve_time_optimal(prob: TimeOptimalProblem) -> StrategyResult:
    """The minimum-time pattern: the first certified one, else the fastest
    feasible pattern (ties to fewer switches).

    Strategy 3 is solved first, then the other seven in strategy order. A
    certified control is the unique optimum among all admissible controls,
    so the patterns after it need no solve.
    """
    _validate(prob)
    results = []
    for pattern in sorted(enumerate_patterns(), key=lambda p: p.strategy != 3):
        res = solve_pattern(prob, pattern)
        if res.certified:
            return res
        results.append(res)
    return _select(results)
