"""Bang-bang strategy enumeration for the minimum-time induction problem.

Candidate controls alternate between 0 and u_max with at most n - 1 = 3
switches: eight patterns. A pattern solve reads its problem once, into one
modal record (A's eigenvalues, V^-1 x0, the fast rows C V and C A V, V^-1 B
and the start facts); building it rejects an uncontrollable system, one
with an entry of V^-1 B at rounding level (the Hautus test, since the
eigenvalues are distinct; none is near 0, see lti.LTISystem). The unknowns
of a pattern are its segment durations, solved by a gap solver built on
that record for the pattern's levels. It walks the segments in the
modal coordinates z = V^-1 x of A's eigenbasis, with the closed-form flow of
lti.constant_input_propagator on Python floats, and reads the endpoint and
the exact first and second switching-time derivatives, transports on the
same eigenbasis, from the walked modal rows on the two fast rows only; so
neither the projected Gauss-Newton root search nor the KKT Newton solve of
min sum(d) s.t. r(d) = 0 touches an ODE solver or leaves the eigenbasis.
Both read the second derivatives: a one-switch search takes Chebyshev's
third-order step. The search runs from the starts of one dyadic grid (see
starts) and is bounded by d >= 0 alone, so a root is reached however late
it lies. The Jacobian, the closed-form least-squares step, the KKT check
and the certificate are Python floats too: past the set-up and the result's
arrays, numpy runs only np.linalg.lstsq near its rank cut-off and
np.linalg.solve for a KKT Newton step. The KKT multipliers mu give the
terminal costate psi(t_f) = C^T mu. A segment vanishes, and its point is
dominated, when dropping it moves the endpoint by less than FEAS_TOL.

From an equilibrium of an admissible constant control, a KKT point whose
switching function psi^T B has exactly as many zeros as switches, with the
sign law between them, is the unique minimum-time control (Lee and Markus
1967, ch. 2). The test reads mu and the record alone, so it applies to every
problem. solve_time_optimal walks one table of all eight patterns, the
one-switch pattern first, and stops at the first certified one; otherwise
it keeps the fastest feasible pattern.
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
from .problem import FAST_IDX, FEAS_TOL, ControlSchedule, TimeOptimalProblem

GRID_TOP = 30.0      # the start grid's largest cut point, min
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
    """One pattern's answer: strategy is its number (1-8); schedule the
    control, None when no root is kept; residual the fast-state gap
    (x1 in mg, x4 in mg/L) at t_f, read-only; feasible whether that gap is
    below FEAS_TOL; note why; terminal_costate psi(t_f) = C^T mu of a KKT
    point, read-only; certified whether it is proven the unique
    minimum-time control. A feasible result has a schedule, and a
    certified one is feasible with a terminal costate."""

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
            r = self.residual.tolist()
            if not (r and all(abs(x) < FEAS_TOL for x in r)):
                raise DomainError("feasible result violates the residual bound")
        if self.certified and (not self.feasible or self.terminal_costate is None):
            raise DomainError("a certificate needs a feasible KKT point")

    @property
    def t_f(self):
        return None if self.schedule is None else self.schedule.t_f


# index pairs (i, j), i < j, of the 2 x 2 minors of a 2 x m matrix, m <= 4
_PAIRS = [tuple(itertools.combinations(range(m), 2)) for m in range(5)]


def _lstsq(rows, b, tall=False):
    """np.linalg.lstsq(A, b, rcond=None)'s solution, as a list, and its rank
    for A = W, or A = W^T when tall, with W the 2 x m matrix of the two rows
    (p, q), in closed form on Python floats.

    The singular values of W follow from T = |W|_F^2 = s1^2 + s2^2 and
    D = det(W W^T) = s1^2 s2^2, the sum of W's squared 2 x 2 minors
    (Cauchy-Binet; Golub and Van Loan, 8.6). The rank is lstsq's: the count
    of s > eps max(2, m) s1. At rank 2, W^+ is the mean of the inverses of
    W's 2 x 2 submatrices weighted by their squared minors (Berg 1986;
    Ben-Israel 1992), so it reads the same minors; at rank 1 it is W^T / T.
    Within a factor _RANK_BAND of the cut-off, where rounding in D could turn
    the rank, and for a T near the ends of the float range, np.linalg.lstsq
    is called on an array built from the rows instead.
    """
    p, q = rows
    m = len(p)
    T = 0.0
    for a in p + q:
        T += a * a
    if T == 0.0:
        return [0.0] * (2 if tall else m), 0
    minors = [(i, j, p[i] * q[j] - p[j] * q[i]) for i, j in _PAIRS[m]]
    D = 0.0
    for _, _, M in minors:
        D += M * M
    cut = _EPS * max(2, m)
    ratio = math.sqrt(D) / (0.5 * (T + math.sqrt(max(T * T - 4.0 * D, 0.0))))
    if not 1e-150 < T < 1e150 or cut / _RANK_BAND <= ratio <= cut * _RANK_BAND:
        W = np.array(rows, dtype=float)
        x, _, rank, _ = np.linalg.lstsq(W.T if tall else W,
                                        np.asarray(b, dtype=float), rcond=None)
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
        for a, c, v in zip(P0, P1, b):
            x0 += a * v
            x1 += c * v
        return [x0, x1], rank
    return [x * b[0] + y * b[1] for x, y in zip(P0, P1)], rank


class _ModalRecord:
    """What a pattern solve reads of its problem, as Python floats: lam,
    z0 = Vi x0, C V, C V Lambda = C A V, Vi B, the target, u_max, and the
    start facts rest (A x0 = 0), held (x0 is held by a constant control
    0 <= u0 <= u_max, u0 the least-squares input of A x0 + B u0 = 0, to
    _EQUILIBRIUM_RTOL |A| |x0| per row) and x4_low (x4 below its target).

    With distinct eigenvalues, (A, B) is controllable iff no entry of Vi B
    is zero (the Hautus test; Kailath 1980, 2.4); an entry at most
    _MODAL_RTOL times the largest, a zero B included, raises DomainError."""

    def __init__(self, prob: TimeOptimalProblem):
        sys = prob.sys
        self.ViB = ViB = (sys.Vi @ sys.B).tolist()
        mags = [abs(w) for w in ViB]
        if min(mags) <= _MODAL_RTOL * max(mags):
            raise DomainError("system is not controllable from the infusion input")
        B, x0 = sys.B.tolist(), prob.x0.tolist()
        drift, scale = [], []  # A x0 and |A| |x0|, row by row
        for row in sys.A.tolist():
            d = s = 0.0
            for a, x in zip(row, x0):
                d += a * x
                s += abs(a) * abs(x)
            drift.append(d)
            scale.append(s)
        BB = Bd = 0.0
        for b, d in zip(B, drift):
            BB += b * b
            Bd += b * d
        u0 = -Bd / BB if BB else math.nan  # an underflowed B B^T holds nothing
        tol = _EQUILIBRIUM_RTOL * max(scale)
        self.rest = not any(drift)
        self.held = (all(abs(d + b * u0) <= tol for d, b in zip(drift, B))
                     and 0.0 <= u0 <= prob.u_max)
        self.lam = lam = sys.eigenvalues.tolist()
        self.z0 = (sys.Vi @ prob.x0).tolist()
        self.CV = sys.V[list(FAST_IDX)].tolist()
        self.CAV = [[a * l for a, l in zip(row, lam)] for row in self.CV]
        self.target = prob.target_fast.tolist()
        self.x4_low = x0[FAST_IDX[1]] < self.target[1]
        self.u_max = prob.u_max


class _GapSolver:
    """Root finding over the nonnegative segment durations of one pattern's
    levels on one problem's modal record."""

    def __init__(self, record: _ModalRecord, pattern: Pattern):
        self.record = record
        self.levels = pattern.levels(record.u_max)
        # row j of ViBu is Vi B u_j; the walk's input is Vi B u_j / lam,
        # or None at u_j = 0
        self.ViBu = [[u * w for w in record.ViB] for u in self.levels]
        self.inputs = [[w / l for l, w in zip(record.lam, row)] if u else None
                       for u, row in zip(self.levels, self.ViBu)]

    def walk(self, gaps) -> list:
        """The modal state z = Vi x after each segment, one row per gap: the
        closed form of constant_input_propagator on the eigenbasis,
        z_j = e^(lam d_j) * z_(j-1) + expm1(lam d_j) * w_j / lam, on Python
        floats, so a segment costs no numpy call and no change of basis."""
        exp, expm1, lam = math.exp, math.expm1, self.record.lam
        zs = []
        z = self.record.z0
        for d, wl in zip(gaps, self.inputs):
            if d > 0:
                if wl is None:
                    z = [exp(l * d) * y for l, y in zip(lam, z)]
                else:
                    z = [exp(x := l * d) * y + expm1(x) * w
                         for l, y, w in zip(lam, z, wl)]
            zs.append(z)
        return zs

    def residual(self, zs) -> tuple:
        """fast_residual of the walk's end state, C V z_k - target, as two
        Python floats."""
        z, rec = zs[-1], self.record
        (p, q), (t0, t1) = rec.CV, rec.target
        x0 = x1 = 0.0
        for a, b, y in zip(p, q, z):
            x0 += a * y
            x1 += b * y
        return (x0 - t0, x1 - t1)

    def jac(self, gaps, zs):
        """Exact switching-time derivatives of the residual (Kaya and Noakes
        1996), as the two rows of J: column j is C v_j, the fast rows of the
        transport v_j = e^(A tau_j) (A x_j + B u_j), x_j = V zs[j] the state
        after segment j and tau_j the time left after it; at d_j = 0 it is
        the right-derivative. The transports are taken on the eigenbasis,
        v_j = V y_j with y_j = e^(lam tau_j) * (lam * zs[j] + Vi B u_j), on
        Python floats with tau accumulated from the last segment back. Each
        column, and the two rows of C A v_j = (C V Lambda) y_j beside it, is
        summed in one pass over the modes in index order, so a column costs
        n exps, no intermediate list and no numpy call. Returns (J, CAv),
        CAv those two rows, which the KKT block reads (see kkt_system).
        """
        exp, rec, k = math.exp, self.record, len(gaps)
        lam, (p, q), (pa, qa) = rec.lam, rec.CV, rec.CAV
        J0, J1 = [0.0] * k, [0.0] * k
        C0, C1 = [0.0] * k, [0.0] * k
        tau = 0.0
        for j in range(k - 1, -1, -1):
            x0 = x1 = c0 = c1 = 0.0
            for l, z, w, a, b, c, d in zip(lam, zs[j], self.ViBu[j],
                                           p, q, pa, qa):
                v = exp(l * tau) * (l * z + w)
                x0 += a * v
                x1 += b * v
                c0 += c * v
                c1 += d * v
            J0[j], J1[j], C0[j], C1[j] = x0, x1, c0, c1
            tau += gaps[j]
        return (J0, J1), (C0, C1)

    def starts(self):
        """Multistart gap vectors, one gap per level, yielded lazily as
        (gaps, zs), zs the start's walked modal rows or None: ordered cut
        points on the dyadic points GRID_TOP down to GRID_TOP/128, which
        reach the sub-minute root scale that a uniform grid never does; a
        later root is reached by the search, not by a start.

        A bolus-first pattern from x4 below its target first tries [p, 0,
        ..., 0], p the first grid point at which one u_max segment lifts x4
        to its target (the full-rate onset, a lower bound on t_f since the
        system is positive), with the walk of [p] that found it; the grid
        follows in its own order, so the set of starts is unchanged."""
        pts = sorted(GRID_TOP / 2 ** i for i in range(GRID_POINTS))
        ndim = len(self.levels)
        first = None
        if self.levels[0] and self.record.x4_low:
            for p in pts:
                zs = self.walk([p])
                if self.residual(zs)[1] >= 0.0:
                    first = (p,) * ndim
                    yield [p] + [0.0] * (ndim - 1), zs * ndim
                    break
        for combo in itertools.combinations_with_replacement(pts, ndim):
            if combo != first:
                yield [b - a for a, b in zip((0.0,) + combo, combo)], None

    def search(self, gaps0, zs=None):
        """Projected Gauss-Newton toward a residual zero from gaps0 and its
        walk's modal rows zs (walked here when None): (gaps, r, zs) at the
        last point reached, with gaps as an array, r as two floats and zs
        its walk's modal rows.

        The minimum-norm least-squares step (Ben-Israel 1966) serves square,
        over- and underdetermined patterns alike; it is halved until its
        projection onto d >= 0 lowers |r|. A step is halved only if it is a
        descent direction: the slope r^T J s~ of |r|^2 / 2 along its
        projection at scale 0+ (s~_i = s_i where d_i > 0, max(s_i, 0) where
        d_i = 0), read from the J in hand, is negative (Nocedal and Wright
        2006, 3.1); any other step is tried whole, once. No duration is
        bounded (A is stable, see TimeOptimalProblem): a step that leaps far
        is halved back, unless two trial points in a row give the same r
        bitwise, a plateau where the walk no longer sees the step, which
        ends the search; a projection that repeats the one before is such a
        pair. Step and rank come from _lstsq's closed form, so
        np.linalg.lstsq runs only near its own rank cut-off, and every stop
        decision is the one lstsq would make.
        A square step of rank 2 with no pinned gap, every one-switch step,
        is Chebyshev's (Traub 1964): the Newton step s plus
        J^-1 (-H(s, s) / 2), H the second switching-time derivatives
        C A v_min(i,j) that the same jac call sums (see kkt_system), so it
        converges at third order for a few multiplies. An iteration makes
        no other numpy call.
        """
        g = [float(d) for d in gaps0]
        if zs is None:
            zs = self.walk(g)
        r = self.residual(zs)
        nr = math.sqrt(r[0] * r[0] + r[1] * r[1])
        for _ in range(100):
            if nr < 1e-12:
                break
            J, (c0, c1) = self.jac(g, zs)
            free = len(g)
            if 0.0 in g:
                # pin gaps held at zero by the projection, so the step runs
                # along the face instead of being clipped back every time
                pinned = [d == 0.0 and a * r[0] + b * r[1] > 0.0
                          for d, a, b in zip(g, *J)]
                J = tuple([0.0 if s else a for s, a in zip(pinned, row)]
                          for row in J)
                free -= sum(pinned)
            step, rank = _lstsq(J, (-r[0], -r[1]))
            if rank < min(2, free):
                break  # a free gap the endpoint cannot see has no Newton step
            if free == rank == len(g) == 2:
                # H(s, s) = sum_k C A v_k s_k (s_k + 2 sum_(j>k) s_j), and
                # J^-1 (-H / 2) from the inverse of J, the one minor
                (p0, p1), (q0, q1) = J
                s0, s1 = step
                w0, w1 = s0 * (s0 + 2.0 * s1), s1 * s1
                h0 = 0.5 * (c0[0] * w0 + c0[1] * w1)
                h1 = 0.5 * (c1[0] * w0 + c1[1] * w1)
                det = p0 * q1 - p1 * q0
                step = [s0 - (q1 * h0 - p1 * h1) / det,
                        s1 - (p0 * h1 - q0 * h0) / det]
            # the slope of |r|^2 / 2 along the step's projection at scale
            # 0+; a step that is no descent direction is tried once, whole
            slope = 0.0
            for d, s, a, b in zip(g, step, *J):
                if d > 0.0 or s > 0.0:
                    slope += (a * r[0] + b * r[1]) * s
            scale, last = 1.0, None
            while scale >= (1e-12 if slope < 0.0 else 1.0):
                gn = [0.0 if (x := d + scale * s) <= 0.0 else x
                      for d, s in zip(g, step)]
                if gn == g:
                    return np.array(g), r, zs
                zn = self.walk(gn)
                rn = self.residual(zn)
                nrn = math.sqrt(rn[0] * rn[0] + rn[1] * rn[1])
                if nrn < nr:
                    break
                if rn == last:
                    return np.array(g), r, zs  # on the plateau
                last = rn
                scale *= 0.5
            else:
                break  # no trial point lowers the residual
            stalled = nr - nrn < STALL_TOL * nr
            g, r, nr, zs = gn, rn, nrn, zn
            if stalled:
                break  # a least-squares minimum, not a root
        return np.array(g), r, zs

    def kkt_system(self, gaps, zs, mu=None):
        """(F, K, mu, J): F(d, mu) = [r(d); 1 + J(d)^T mu], square for k >= 1
        switches, and its Jacobian K = [[J, 0], [M, J^T]], from the modal
        rows zs = walk(gaps). Since dv_j/dd_i = A v_min(i,j),
        M_ji = w_min(i,j) with w = mu^T C A v (Maurer, Buskens, Kim and Kaya
        2005), read from the same modal transports as J. mu defaults to
        lstsq(J^T, -1), the multipliers that best fit stationarity at d.

        F, its inf-norm test and mu are Python floats; K is assembled as an
        array only when a Newton step is needed, and is None when every
        |F_i| < FEAS_TOL: a KKT point takes no Newton step (a NaN in F
        fails the test). J is the two rows that the one jac call gave."""
        J, (c0, c1) = self.jac(gaps, zs)
        k = len(gaps)
        if mu is None:
            mu = _lstsq(J, [-1.0] * k, tall=True)[0]
        m0, m1 = mu
        F = [*self.residual(zs),
             *[1.0 + (a * m0 + b * m1) for a, b in zip(*J)]]
        if all(abs(f) < FEAS_TOL for f in F):
            return F, None, mu, J
        w = [m0 * a + m1 * b for a, b in zip(c0, c1)]
        K = np.zeros((k + 2, k + 2))
        K[:2, :k] = J
        K[2:, :k] = [[w[min(i, j)] for j in range(k)] for i in range(k)]
        K[2:, k:] = np.transpose(J)
        return F, K, mu, J

    def kkt(self, gaps, zs):
        """Newton on the KKT system from a root and its walk's modal rows zs,
        with mu0 = lstsq(J^T, -1) in _lstsq's closed form: (gaps, mu, r), as
        lists, at a KKT point with no vanishing segment, or None when an
        iterate has one (_vanishing on kkt_system's J), K is singular or
        Newton does not converge. A root that is already a KKT point, as every
        root of a square pattern is, costs one jac and no numpy call; a Newton
        step costs one np.linalg.solve."""
        g, n, mu = [float(d) for d in gaps], len(gaps), None
        for i in range(20):
            if min(g) <= 0.0:  # no walk or jac past a negative gap
                return None
            if i:  # the root's walk came with it
                zs = self.walk(g)
            F, K, mu, J = self.kkt_system(g, zs, mu)
            if _vanishing(g, J):
                return None
            if K is None:
                return g, mu, F[:2]
            try:
                step = np.linalg.solve(K, [-f for f in F]).tolist()
            except np.linalg.LinAlgError:
                return None
            g = [d + s for d, s in zip(g, step)]
            mu = [m + s for m, s in zip(mu, step[n:])]
        return None


def _vanishing(gaps, J) -> bool:
    """Whether |J_j|_inf d_j < FEAS_TOL for a segment j, d_j <= 0 included:
    dropping it moves the endpoint by -J_j d_j to first order, so fewer
    switches reach the target sooner, within FEAS_TOL; J is r's Jacobian."""
    return any(abs(a) * d < FEAS_TOL and abs(b) * d < FEAS_TOL
               for d, a, b in zip(gaps, *J))


def _to_schedule(levels, gaps) -> ControlSchedule:
    knots, t = [], 0.0
    for d in gaps:
        t += d
        knots.append(t)
    return ControlSchedule(levels=tuple(levels), breakpoints=tuple(knots[:-1]),
                           t_f=knots[-1])


def solve_pattern(prob: TimeOptimalProblem, pattern: Pattern) -> StrategyResult:
    """Solve one pattern for its minimum-time representative.

    The problem is read once, into the modal record (DomainError for an
    uncontrollable system). From rest a leading rest segment leaves the
    state where it is, so a rest-first pattern is dominated without a
    search. Otherwise the search runs from each start of the ordered
    duration simplex; past zero switches, the KKT Newton solve takes a root
    to a KKT point (d, mu), certified or not (see _certify), or reports the
    pattern dominated. The first root that is certified, dominated or within
    the grid (sum(d) <= GRID_TOP) ends the search. A feasible root past the
    grid may hide a shorter one at a later start: it is kept, and the
    fastest kept KKT point stands when no start ends the search.
    """
    record = _ModalRecord(prob)
    k = pattern.switches
    if not pattern.starts_high and record.rest:
        note = f"dominated by strategy {2 * k - 1}" if k else "never leaves rest"
        return StrategyResult(pattern.strategy, None, np.empty(0), False, note)
    sol, kept = _GapSolver(record, pattern), []
    best_nr, best_r = math.inf, None
    for g0, zs0 in sol.starts():
        g, r, zs = sol.search(g0, zs0)
        nr = max(abs(r[0]), abs(r[1]))
        if nr < best_nr:
            best_nr, best_r = nr, r
        if nr >= FEAS_TOL:
            continue
        zero = g.tolist()
        if k == 0 and _vanishing(zero, sol.jac(zero, zs)[0]):
            res = StrategyResult(pattern.strategy, None, best_r, False,
                                 "root degenerate: a segment vanishes")
        elif k == 0:
            res = StrategyResult(pattern.strategy,
                                 _to_schedule(sol.levels, zero), r, True,
                                 "isolated root")
        elif (point := sol.kkt(zero, zs)) is None:
            res = StrategyResult(pattern.strategy, None, best_r, False,
                                 "dominated: the minimum-time representative "
                                 "has a vanishing segment")
        else:
            d, mu, rd = point
            schedule = _to_schedule(sol.levels, d)
            psi_f = np.zeros(prob.sys.n)  # C^T mu
            psi_f[list(FAST_IDX)] = mu
            res = StrategyResult(pattern.strategy, schedule, rd, True,
                                 "KKT point", psi_f,
                                 _certify(record, schedule, mu))
        if res.certified or sum(zero) <= GRID_TOP or not (res.feasible or kept):
            return res
        if res.feasible:
            kept.append(res)
    if kept:
        return min(kept, key=lambda x: x.t_f)
    return StrategyResult(pattern.strategy, None, best_r, False,
                          f"no root: best residual {best_nr:.3e}")


def _certify(record: _ModalRecord, sched: ControlSchedule, mu) -> bool:
    """Whether the schedule of a feasible KKT point with multipliers mu is
    certified, read from the modal record alone, on Python floats.

    In s = t_f - t the switching function is psi1(s) = psi(s)^T B =
    sum c_i e^(lam_i s), c = (V^-1 B) * ((C V)^T mu). By Laguerre's rule
    (Polya and Szego, Part V) it has at most as many real zeros as c has
    sign changes in ascending lam order. A k-switch point is certified when
    x0 is held (the record's held), that count is exactly k, psi1 vanishes
    at each switch to rounding (|psi1| <= _MODAL_RTOL max|c|, a test free of
    the scale of mu and u_max) and psi1 < 0 at each segment's midpoint
    exactly where u = u_max: the midpoint signs alternate, so the switches
    hold the only zeros. From that equilibrium start the sign law makes the
    control the unique minimum-time one (Lee and Markus 1967, ch. 2): a
    faster control, held first at the equilibrium input, would give
    int psi1 (u - u*) = 0 with a nonnegative integrand. A NaN in mu fails
    every test.
    """
    if not record.held:
        return False
    m0, m1 = mu
    cs = [w * (a * m0 + b * m1) for w, a, b in zip(record.ViB, *record.CV)]
    signs = [x < 0 for x in cs if x != 0]
    sign_changes = sum(a != b for a, b in zip(signs, signs[1:]))
    big = max(abs(x) for x in cs)
    knots = (0.0,) + sched.breakpoints + (sched.t_f,)
    mids = [(a + b) / 2 for a, b in zip(knots, knots[1:])]
    # psi1 at the segment midpoints, then at the switches
    exp, psi1 = math.exp, []
    for t in mids + list(sched.breakpoints):
        s, v = sched.t_f - t, 0.0
        for l, c in zip(record.lam, cs):
            v += exp(s * l) * c
        psi1.append(v)
    mid, at_switch = psi1[:len(mids)], psi1[len(mids):]
    return bool(
        all(abs(x) > _MODAL_RTOL * big for x in cs)
        and sign_changes == len(sched.breakpoints)
        and all(abs(x) <= _MODAL_RTOL * big for x in at_switch)
        and 0.0 not in mid
        and sched.levels == tuple(record.u_max if x < 0 else 0.0 for x in mid))


def solve_all_patterns(prob: TimeOptimalProblem) -> list:
    """StrategyResult for every candidate pattern, in strategy order: the
    per-pattern table of scripts/run_reference.py, and the reference answer
    _select(solve_all_patterns(prob)) that solve_time_optimal's early stop
    is tested against."""
    return [solve_pattern(prob, p) for p in enumerate_patterns()]


def _select(results) -> StrategyResult:
    """Deterministic reduction: minimal t_f, ties to fewer switches."""
    feas = [r for r in results if r.feasible]
    if not feas:
        # a residual below FEAS_TOL is a root rejected as dominated, no miss
        norms = [float(np.linalg.norm(r.residual, np.inf)) for r in results
                 if r.residual.size]
        rootless = [nr for nr in norms if nr >= FEAS_TOL]
        why = (f"best residual {min(rootless):.3e}" if rootless
               else "every root found was dominated")
        raise InfeasibleError(
            f"target unreachable under the control bound: no pattern has a "
            f"root ({why})")
    return min(feas, key=lambda r: (r.schedule.t_f, len(r.schedule.breakpoints),
                                    r.strategy))


def solve_time_optimal(prob: TimeOptimalProblem) -> StrategyResult:
    """The minimum-time pattern: the first certified one, else the fastest
    feasible pattern (ties to fewer switches).

    Strategy 3 is solved first, then the other seven in strategy order. A
    certified control is the unique optimum among all admissible controls,
    so the patterns after it need no solve.
    """
    results = []
    for pattern in _SOLVE_ORDER:
        res = solve_pattern(prob, pattern)
        if res.certified:
            return res
        results.append(res)
    return _select(results)
