"""Bang-bang strategy enumeration for the minimum-time induction problem.

Candidate controls alternate between 0 and u_max with at most n - 1 = 3
switches: eight patterns. The unknowns of a pattern are its segment
durations, solved by a gap solver built for that pattern's levels. It walks
the segments in the modal coordinates z = V^-1 x of A's eigenbasis, with the
closed-form flow of lti.constant_input_propagator on Python floats, and
reads the endpoint and the exact first and second switching-time
derivatives, transports on the same eigenbasis, from the walked modal rows
on the two fast rows only; so neither the projected Gauss-Newton root
search nor the KKT Newton solve of min sum(d) s.t. r(d) = 0 touches an ODE
solver or leaves the eigenbasis. The KKT multipliers give the terminal
costate psi(t_f) = C^T mu, and a pattern whose minimum-time representative
has a vanishing segment is dominated.

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
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InfeasibleError
# unused here: the benchmark tracer (perfbench/tracing.py) wraps this module
# attribute and fails without it, until that tracer spans the modal walk
from .lti import constant_input_propagator  # noqa: F401
from .problem import FAST_IDX, ControlSchedule, TimeOptimalProblem

T_MAX = 60.0         # search horizon, min
FEAS_TOL = 1e-9      # inf-norm residual bound for a feasible root
COLLAPSE_TOL = 1e-3  # segments shorter than this are vanishing
GRID_POINTS = 8      # multistart points per time dimension
STALL_TOL = 1e-6     # relative residual drop below which a search has stalled
_EQUILIBRIUM_RTOL = 1e-12  # |A x0 + B u0| against |A| |x0|: rounding only
_MODAL_RTOL = 1e-12  # a modal coefficient below this share of the largest
                     # has no sign that rounding can be trusted with
_EPS = 2.0 ** -52    # double machine epsilon, the unit of lstsq's rank cut-off
_RANK_BAND = 1e3     # within this factor of that cut-off, lstsq decides the rank


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


# solve_time_optimal's order: strategy 3 first, then the rest in strategy order
_SOLVE_ORDER = tuple(sorted(enumerate_patterns(),
                            key=lambda p: p.strategy != 3))


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


def _lstsq(A, b):
    """np.linalg.lstsq(A, b, rcond=None)'s solution, as a list, and its rank
    for an A with two rows or two columns, in closed form on Python floats.

    The singular values of a 2 x m matrix W with rows p and q follow from
    T = |W|_F^2 = s1^2 + s2^2 and D = det(W W^T) = s1^2 s2^2, the sum of
    W's squared 2 x 2 minors (Cauchy-Binet; Golub and Van Loan, 8.6). The
    rank is lstsq's: the count of s > eps max(2, m) s1. At rank 2, W^+ is
    the mean of the inverses of W's 2 x 2 submatrices weighted by their
    squared minors (Berg 1986; Ben-Israel 1992), so it reads the same
    minors; at rank 1 it is W^T / T. Within a factor _RANK_BAND of the
    cut-off, where rounding in D could turn the rank, and for a T near the
    ends of the float range, np.linalg.lstsq is called instead.
    """
    tall = A.shape[0] != 2
    p, q = (A.T if tall else A).tolist()
    m = len(p)
    T = 0.0
    for a in p + q:
        T += a * a
    if T == 0.0:
        return [0.0] * A.shape[1], 0
    minors = [(i, j, p[i] * q[j] - p[j] * q[i])
              for i, j in itertools.combinations(range(m), 2)]
    D = 0.0
    for _, _, M in minors:
        D += M * M
    cut = _EPS * max(2, m)
    ratio = math.sqrt(D) / (0.5 * (T + math.sqrt(max(T * T - 4.0 * D, 0.0))))
    if not 1e-150 < T < 1e150 or cut / _RANK_BAND <= ratio <= cut * _RANK_BAND:
        x, _, rank, _ = np.linalg.lstsq(A, np.asarray(b, dtype=float), rcond=None)
        return x.tolist(), int(rank)
    if ratio > cut:
        rank, P0, P1 = 2, [0.0] * m, [0.0] * m
        for i, j, M in minors:
            M /= D
            P0[i] += M * q[j]
            P1[i] -= M * p[j]
            P0[j] -= M * q[i]
            P1[j] += M * p[i]
    else:
        rank, P0, P1 = 1, [a / T for a in p], [a / T for a in q]
    # P = [P0 P1] is W^+, m x 2; A^+ is P for a wide A and P^T for a tall one
    if tall:
        x0 = x1 = 0.0
        for u, v, c in zip(P0, P1, b):
            x0 += u * c
            x1 += v * c
        return [x0, x1], rank
    return [x * b[0] + y * b[1] for x, y in zip(P0, P1)], rank


class _GapSolver:
    """Root finding over the nonnegative segment durations of one pattern's
    levels on one problem."""

    def __init__(self, prob: TimeOptimalProblem, pattern: Pattern):
        self.prob = prob
        self.levels = pattern.levels(prob.u_max)
        self.target = prob.target_fast.tolist()
        sys = prob.sys
        # modal data of the transports: row j of ViBu is Vi B u_j, and the
        # fast rows read C V and C V Lambda = C A V
        self.ViBu = np.multiply.outer(self.levels, sys.Vi @ sys.B)
        self.CV = sys.V[list(FAST_IDX)]
        self.CVL = self.CV * sys.eigenvalues
        # the walk's data, as Python floats: z0 = Vi x0, lam, the rows of C V,
        # and per segment Vi B u_j / lam (Vi B u_j itself at lam = 0, where
        # phi1 = d), or None at u_j = 0
        self.lam = sys.eigenvalues.tolist()
        self.z0 = (sys.Vi @ prob.x0).tolist()
        self.rows = self.CV.tolist()
        self.inputs = [[w / l if l else w for l, w in zip(self.lam, row)]
                       if u else None
                       for u, row in zip(self.levels, self.ViBu.tolist())]

    def walk(self, gaps) -> list:
        """The modal state z = Vi x after each segment, one row per gap: the
        closed form of constant_input_propagator on the eigenbasis,
        z_j = e^(lam d_j) * z_(j-1) + expm1(lam d_j) * w_j / lam, on Python
        floats, so a segment costs no numpy call and no change of basis."""
        exp, expm1, lam = math.exp, math.expm1, self.lam
        zs = []
        z = self.z0
        for d, wl in zip(gaps, self.inputs):
            if d > 0:
                if wl is None:
                    z = [exp(l * d) * y for l, y in zip(lam, z)]
                else:
                    z = [exp(x := l * d) * y + (expm1(x) * w if l else d * w)
                         for l, y, w in zip(lam, z, wl)]
            zs.append(z)
        return zs

    def residual(self, zs) -> tuple:
        """fast_residual of the walk's end state, C V z_k - target, as two
        Python floats."""
        z = zs[-1]
        (p, q), (t0, t1) = self.rows, self.target
        x0 = x1 = 0.0
        for a, b, y in zip(p, q, z):
            x0 += a * y
            x1 += b * y
        return (x0 - t0, x1 - t1)

    def jac(self, gaps, zs, kkt=False):
        """Exact switching-time derivatives of the residual (Kaya and Noakes
        1996): column j is C v_j, the fast rows of the transport
        v_j = e^(A tau_j) (A x_j + B u_j), x_j = V zs[j] the state after
        segment j and tau_j the time left after it; at d_j = 0 it is the
        right-derivative. The transports are taken on the eigenbasis,
        v_j = V y_j with y_j = e^(lam tau_j) * (lam * zs[j] + Vi B u_j), so
        J = (C V) Y costs one exp over the (k, n) array of tau x lam.

        With kkt=True it returns (J, CAv), CAv = (C V Lambda) Y the fast
        rows of A v_j, which the KKT block reads (see kkt_system).
        """
        lam = self.prob.sys.eigenvalues
        tau = [0.0] * len(gaps)
        for j in range(len(gaps) - 1, 0, -1):
            tau[j - 1] = tau[j] + gaps[j]
        Yt = (np.exp(np.multiply.outer(tau, lam))
              * (lam * np.array(zs) + self.ViBu)).T
        J = self.CV @ Yt
        return (J, self.CVL @ Yt) if kkt else J

    def _clip(self, gaps) -> list:
        g = [0.0 if d <= 0.0 else d for d in gaps]
        total = 0.0
        for d in g:
            total += d
        if total > T_MAX:
            f = T_MAX / total
            g = [d * f for d in g]
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
            yield [b - a for a, b in zip((0.0,) + combo, combo)]

    def search(self, gaps0):
        """Projected Gauss-Newton toward a residual zero: (gaps, r, zs) at
        the last point reached, with r as two floats and zs its walk's
        modal rows.

        The minimum-norm least-squares step (Ben-Israel 1966) serves square,
        over- and underdetermined patterns alike; it is halved until the
        clipped point lowers |r|. Step and rank come from _lstsq's closed
        form, so np.linalg.lstsq runs only near its own rank cut-off, and
        every stop decision is the one lstsq would make.
        """
        g = [float(d) for d in gaps0]
        zs = self.walk(g)
        r = self.residual(zs)
        nr = math.sqrt(r[0] * r[0] + r[1] * r[1])
        for _ in range(100):
            if nr < 1e-12:
                break
            J = self.jac(g, zs)
            free = len(g)
            if 0.0 in g:
                # pin gaps held at zero by the projection, so the step runs
                # along the face instead of being clipped back every time
                pinned = (np.array(g) == 0) & (J.T @ np.array(r) > 0)
                J[:, pinned] = 0.0
                free -= int(np.count_nonzero(pinned))
            step, rank = _lstsq(J, (-r[0], -r[1]))
            if rank < min(2, free):
                break  # a free gap the endpoint cannot see has no Newton step
            scale = 1.0
            while scale >= 1e-12:
                gn = self._clip([d + scale * s for d, s in zip(g, step)])
                if gn == g:
                    return np.array(g), r, zs
                zn = self.walk(gn)
                rn = self.residual(zn)
                nrn = math.sqrt(rn[0] * rn[0] + rn[1] * rn[1])
                if nrn < nr:
                    break
                scale *= 0.5
            else:
                break  # no halving lowers the residual
            stalled = nr - nrn < STALL_TOL * nr
            g, r, nr, zs = gn, rn, nrn, zn
            if stalled:
                break  # a least-squares minimum, not a root
        return np.array(g), r, zs

    def kkt_system(self, gaps, zs, mu=None):
        """(F, K, mu): F(d, mu) = [r(d); 1 + J(d)^T mu], square for k >= 1
        switches, and its Jacobian K = [[J, 0], [M, J^T]], from the modal
        rows zs = walk(gaps). Since dv_j/dd_i = A v_min(i,j),
        M_ji = w_min(i,j) with w = mu^T C A v (Maurer, Buskens, Kim and Kaya
        2005), read from the same modal transports as J. mu defaults to
        lstsq(J^T, -1), the multipliers that best fit stationarity at d. K is
        None when |F|_inf < FEAS_TOL: a KKT point takes no Newton step."""
        J, CAv = self.jac(gaps, zs, kkt=True)
        k = len(gaps)
        if mu is None:
            mu = np.array(_lstsq(J.T, (-1.0,) * k)[0])
        F = np.concatenate([self.residual(zs), 1.0 + J.T @ mu])
        if np.linalg.norm(F, np.inf) < FEAS_TOL:
            return F, None, mu
        K = np.zeros((k + 2, k + 2))
        K[:2, :k] = J
        K[2:, :k] = (mu @ CAv)[np.minimum.outer(range(k), range(k))]
        K[2:, k:] = J.T
        return F, K, mu

    def kkt(self, gaps, zs):
        """Newton on the KKT system from a root and its walk's modal rows zs,
        with mu0 = lstsq(J^T, -1) in _lstsq's closed form: (gaps, mu, r) at a
        KKT point with no vanishing segment, or None when a segment vanishes,
        K is singular or Newton does not converge. A root that is already a
        KKT point, as every root of a square pattern is, costs one jac."""
        g, n, mu = gaps, len(gaps), None
        for i in range(20):
            if g.min() < COLLAPSE_TOL:
                return None
            if i:  # the root's walk came with it
                zs = self.walk(g.tolist())
            F, K, mu = self.kkt_system(g, zs, mu)
            if K is None:
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
        g, r, zs = sol.search(g0)
        nr = max(abs(r[0]), abs(r[1]))
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
    point = sol.kkt(zero, zs)
    if point is None:
        return StrategyResult(pattern.strategy, None, best_r, False,
                              "dominated: the minimum-time representative "
                              "has a vanishing segment")
    g, mu, r = point
    schedule = _to_schedule(sol.levels, g)
    psi_f = np.eye(prob.sys.n)[list(FAST_IDX)].T @ mu  # C^T mu
    return StrategyResult(pattern.strategy, schedule, r, True, "KKT point",
                          psi_f, _certify(prob, schedule, psi_f))


def _admissible_equilibrium(prob: TimeOptimalProblem) -> bool:
    """Whether x0 is held by a constant control 0 <= u0 <= u_max: rest and
    the re-dosing starts f x_e qualify. u0 is the least-squares input."""
    A, B, x0 = prob.sys.A, prob.sys.B, prob.x0
    drift = A @ x0
    u0 = -(B @ drift) / (B @ B)
    scale = np.max(np.abs(A) @ np.abs(x0))
    return bool(np.max(np.abs(drift + B * u0)) <= _EQUILIBRIUM_RTOL * scale
                and 0.0 <= u0 <= prob.u_max)


def _certify(prob: TimeOptimalProblem, sched: ControlSchedule,
             psi_f: np.ndarray) -> bool:
    """Whether the schedule of a feasible KKT point is certified, read from
    the problem statement alone: the modal data of A and psi(t_f) = C^T mu.

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
    sys = prob.sys
    c = (sys.Vi @ sys.B) * (sys.V.T @ psi_f)
    cs = c.tolist()
    signs = [x < 0 for x in cs if x != 0]
    sign_changes = sum(a != b for a, b in zip(signs, signs[1:]))
    big = max(abs(x) for x in cs)
    knots = (0.0,) + sched.breakpoints + (sched.t_f,)
    mids = [(a + b) / 2 for a, b in zip(knots, knots[1:])]
    # psi1 at the segment midpoints, then at the switches: one exp
    s = sched.t_f - np.array(mids + list(sched.breakpoints))
    psi1 = (np.exp(np.multiply.outer(s, sys.eigenvalues)) @ c).tolist()
    mid, at_switch = psi1[:len(mids)], psi1[len(mids):]
    return bool(
        all(abs(x) > _MODAL_RTOL * big for x in cs)
        and sign_changes == len(sched.breakpoints)
        and all(abs(x) * prob.u_max <= FEAS_TOL for x in at_switch)
        and 0.0 not in mid
        and sched.levels == tuple(prob.u_max if x < 0 else 0.0 for x in mid)
        and _admissible_equilibrium(prob))


def _validate(prob: TimeOptimalProblem) -> None:
    if prob.sys.controllability_rank != prob.sys.n:
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
    for pattern in _SOLVE_ORDER:
        res = solve_pattern(prob, pattern)
        if res.certified:
            return res
        results.append(res)
    return _select(results)
