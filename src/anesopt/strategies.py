"""Bang-bang strategy enumeration for the minimum-time induction problem.

Candidate controls alternate between 0 and u_max with at most n-1 switches.
The unknowns of each pattern are its segment durations; endpoints and their
exact first and second switching-time derivatives come from closed-form
propagation, so neither the projected Gauss-Newton root search nor the KKT
Newton solve of min sum(d) s.t. r(d) = 0 touches an ODE solver. The KKT
multipliers give the terminal costate psi(t_f) = C^T mu, and a pattern whose
minimum-time representative has a vanishing segment is dominated.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError
from .lti import constant_input_propagator, kalman_rank
from .problem import FAST_IDX, ControlSchedule, TimeOptimalProblem

T_MAX = 30.0         # search horizon, min
FEAS_TOL = 1e-9      # inf-norm residual bound for a feasible root
FLOOR_TOL = 1e-6     # best residual above this declares nonexistence
COLLAPSE_TOL = 1e-3  # segments shorter than this are vanishing
GRID_POINTS = 8      # multistart points per time dimension
STALL_TOL = 1e-6     # relative residual drop below which a search has stalled


@dataclass(frozen=True)
class Pattern:
    """Alternating on/off sequence, identified by its strategy number."""

    strategy: int
    starts_high: bool
    switches: int

    def levels(self, u_max: float) -> tuple:
        on = [float(u_max), 0.0] if self.starts_high else [0.0, float(u_max)]
        return tuple(on[i % 2] for i in range(self.switches + 1))


def enumerate_patterns(start_level=None, max_switches: int = 3) -> list:
    """All alternating patterns with up to max_switches switches.

    start_level None returns every pattern; a positive value keeps only the
    bolus-first ones (odd strategy numbers), zero only the rest-first ones.
    """
    if max_switches < 0:
        raise DomainError("max_switches must be nonnegative")
    pats = []
    for k in range(max_switches + 1):
        pats.append(Pattern(strategy=2 * k + 1, starts_high=True, switches=k))
        pats.append(Pattern(strategy=2 * k + 2, starts_high=False, switches=k))
    if start_level is not None:
        want_high = bool(start_level)
        pats = [p for p in pats if p.starts_high == want_high]
    return sorted(pats, key=lambda p: p.strategy)


@dataclass(frozen=True)
class StrategyResult:
    strategy: int
    schedule: ControlSchedule | None
    residual: np.ndarray
    feasible: bool
    note: str = ""
    terminal_costate: np.ndarray | None = None  # psi(t_f) = C^T mu, if feasible

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

    @property
    def t_f(self):
        return None if self.schedule is None else self.schedule.t_f


class _GapSolver:
    """Root finding over nonnegative segment durations for one problem."""

    def __init__(self, prob: TimeOptimalProblem, levels):
        self.prob = prob
        self.props = {u: constant_input_propagator(prob.sys, u) for u in set(levels)}

    def walk(self, levels, gaps) -> np.ndarray:
        """The state after each segment, one row per gap."""
        xs = np.empty((len(gaps), self.prob.sys.n))
        x = self.prob.x0
        for j, (u, d) in enumerate(zip(levels, gaps)):
            if d > 0:
                x = self.props[u](x, d)
            xs[j] = x
        return xs

    def jac(self, levels, gaps, xs) -> np.ndarray:
        """Exact switching-time derivatives of the endpoint (Kaya and Noakes
        1996): column j is the transport v_j = e^(A tau_j) (A x_j + B u_j),
        x_j = xs[j] the state after segment j and tau_j the time left after
        it; at d_j = 0 it is the right-derivative. Rows FAST_IDX are dr/dd."""
        sys = self.prob.sys
        tau = np.append(np.cumsum(gaps[:0:-1])[::-1], 0.0)
        V = np.empty((sys.n, len(gaps)))
        for j, (u, x) in enumerate(zip(levels, xs)):
            V[:, j] = sys.expm(tau[j]) @ (sys.A @ x + sys.B * u)
        return V

    def _clip(self, gaps) -> np.ndarray:
        g = np.maximum(gaps, 0.0)
        total = g.sum()
        if total > T_MAX:
            g = g * (T_MAX / total)
        return g

    def starts(self, ndim: int):
        """Multistart gap vectors, yielded lazily: ordered cut points on a
        dyadic refinement of the horizon, which reaches the sub-minute root
        scale that a uniform horizon grid never does."""
        pts = sorted(T_MAX / 2 ** i for i in range(GRID_POINTS))
        for combo in itertools.combinations_with_replacement(pts, ndim):
            yield np.diff(combo, prepend=0.0)

    def search(self, levels, gaps0):
        """Projected Gauss-Newton toward a residual zero: (gaps, r, xs) at
        the last point reached, with xs its walk.

        The minimum-norm least-squares step (Ben-Israel 1966) serves square,
        over- and underdetermined patterns alike; it is halved until the
        clipped point lowers |r|.
        """
        g = np.asarray(gaps0, dtype=float)
        xs = self.walk(levels, g)
        r = self.prob.fast_residual(xs[-1])
        nr = np.linalg.norm(r)
        for _ in range(100):
            if nr < 1e-12:
                break
            J = self.jac(levels, g, xs)[FAST_IDX, :]
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
                if np.array_equal(gn, g):
                    return g, r, xs
                xn = self.walk(levels, gn)
                rn = self.prob.fast_residual(xn[-1])
                nrn = np.linalg.norm(rn)
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

    def kkt_system(self, levels, gaps, xs, mu):
        """F(d, mu) = [r(d); 1 + J(d)^T mu], square for k >= 1 switches, and
        its Jacobian [[J, 0], [M, J^T]], from xs = walk(levels, gaps). Since
        dv_j/dd_i = A v_min(i,j), M_ji = mu^T C A v_min(i,j) (Maurer,
        Buskens, Kim and Kaya 2005)."""
        V = self.jac(levels, gaps, xs)
        J = V[FAST_IDX, :]
        w = mu @ self.prob.sys.A[FAST_IDX, :] @ V
        M = w[np.minimum.outer(range(len(gaps)), range(len(gaps)))]
        F = np.concatenate([self.prob.fast_residual(xs[-1]), 1.0 + J.T @ mu])
        return F, np.block([[J, np.zeros((2, 2))], [M, J.T]])

    def kkt(self, levels, gaps, xs):
        """Newton on the KKT system from a root and its walk xs, with
        mu0 = lstsq(J^T, -1): (gaps, mu, r) at a KKT point with no vanishing
        segment, or None when a segment vanishes, K is singular or Newton
        does not converge."""
        g, n = gaps, len(gaps)
        J = self.jac(levels, g, xs)[FAST_IDX, :]
        mu = np.linalg.lstsq(J.T, -np.ones(n), rcond=None)[0]
        for i in range(20):
            if g.min() < COLLAPSE_TOL:
                return None
            if i:  # the root's walk came with it
                xs = self.walk(levels, g)
            F, K = self.kkt_system(levels, g, xs, mu)
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
    takes that root to a KKT point or reports the pattern dominated.
    """
    k = pattern.switches
    if not pattern.starts_high and not (prob.sys.A @ prob.x0).any():
        note = f"dominated by strategy {2 * k - 1}" if k else "never leaves rest"
        return StrategyResult(pattern.strategy, None, np.empty(0), False, note)
    levels = pattern.levels(prob.u_max)
    sol = _GapSolver(prob, levels)
    best_nr, best_r, zero = np.inf, None, None
    for g0 in sol.starts(k + 1):
        g, r, xs = sol.search(levels, g0)
        nr = np.linalg.norm(r, np.inf)
        if nr < best_nr:
            best_nr, best_r = nr, r
        if nr < FEAS_TOL:
            zero = g
            break
    if zero is None:
        if best_nr > FLOOR_TOL:
            note = f"no root: best residual {best_nr:.3e} exceeds the {FLOOR_TOL:g} floor"
        else:
            note = f"no certified root: best residual {best_nr:.3e}"
        return StrategyResult(pattern.strategy, None, best_r, False, note)
    if k == 0:
        if zero.min() < COLLAPSE_TOL:
            return StrategyResult(pattern.strategy, None, best_r, False,
                                  "root degenerate: a segment vanishes")
        return StrategyResult(pattern.strategy, _to_schedule(levels, zero),
                              r, True, "isolated root")
    point = sol.kkt(levels, zero, xs)
    if point is None:
        return StrategyResult(pattern.strategy, None, best_r, False,
                              "dominated: the minimum-time representative "
                              "has a vanishing segment")
    g, mu, r = point
    psi_f = np.eye(prob.sys.n)[list(FAST_IDX)].T @ mu  # C^T mu
    return StrategyResult(pattern.strategy, _to_schedule(levels, g),
                          r, True, "KKT point", psi_f)


def _validate(prob: TimeOptimalProblem) -> None:
    if kalman_rank(prob.sys) != prob.sys.n:
        raise DomainError("system is not controllable from the infusion input")
    if not prob.sys.real_spectrum:
        raise DomainError("bang-bang enumeration requires a real spectrum")


def solve_all_patterns(prob: TimeOptimalProblem, bolus_filter: bool = True) -> list:
    """StrategyResult for every candidate pattern, in strategy order."""
    _validate(prob)
    start = prob.u_max if bolus_filter else None
    pats = enumerate_patterns(start, prob.sys.n - 1)
    return [solve_pattern(prob, p) for p in pats]


def _select(results) -> StrategyResult:
    """Deterministic reduction: minimal t_f, ties to fewer switches."""
    feas = [r for r in results if r.feasible]
    if not feas:
        best = min((float(np.linalg.norm(r.residual, np.inf)) for r in results
                    if r.residual is not None and r.residual.size), default=np.inf)
        raise InfeasibleError(
            f"target unreachable under the control bound within the horizon "
            f"(best residual {best:.3e})")
    return min(feas, key=lambda r: (r.schedule.t_f, len(r.schedule.breakpoints),
                                    r.strategy))


def solve_time_optimal(prob: TimeOptimalProblem,
                       bolus_filter: bool = True) -> StrategyResult:
    return _select(solve_all_patterns(prob, bolus_filter))
