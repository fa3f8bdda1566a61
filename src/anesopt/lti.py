"""Linear-systems kernel: exact constant-input propagation in modal form,
and adaptive DOP853 integration (8th order; the event integration reads a
7th-order dense output and returns only the first sign change).

Neither integrator has a runtime caller: both solvers propagate exactly,
and the integrators serve the tests' oracles and the benchmark's RK replay.
The shooting module still imports integrate_with_sign_event, unused,
because the benchmark tracer wraps that name.

Every LTISystem has a real spectrum, its eigenvalues separated from each
other and from 0; the constructor rejects any other, so A is invertible and
the propagator has one path, through the eigendecomposition, which the
strategy route also reads directly. Time is in minutes and states in mg
throughout the package, but nothing in this module depends on that
convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError

# spectrum admission: real, well-separated eigenvalues and a residual check
_REAL_TOL = 1e-10
_SEPARATION_TOL = 1e-6
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class LTISystem:
    """x' = A x + B u with its eigendecomposition computed at construction.

    The eigenvalues are real and sorted ascending, A = V diag(lam) Vi.
    from_matrices raises DomainError unless every imaginary part is below
    1e-10, the pairwise separation and every |lam| are above 1e-6 (so A is
    invertible) and the reconstruction residual ||V diag(lam) Vi - A||_inf
    is below 1e-10.
    """

    A: np.ndarray
    B: np.ndarray
    eigenvalues: np.ndarray
    V: np.ndarray
    Vi: np.ndarray

    @classmethod
    def from_matrices(cls, A, B) -> "LTISystem":
        A = np.array(A, dtype=float)
        B = np.array(B, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != B.shape[0]:
            raise DomainError("A must be square and match B")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise DomainError("non-finite system matrices")
        lam, V = np.linalg.eig(A)
        order = np.argsort(lam.real)
        lam, V = lam[order], V[:, order]
        if lam.size and np.max(np.abs(lam.imag)) >= _REAL_TOL:
            raise DomainError(f"spectrum {lam} is not real")
        lam, V = lam.real, V.real
        if lam.size > 1 and np.min(np.diff(lam)) <= _SEPARATION_TOL:
            raise DomainError(f"spectrum {lam} is not separated")
        if lam.size and np.min(np.abs(lam)) <= _SEPARATION_TOL:
            raise DomainError(f"spectrum {lam} is not separated from 0")
        try:
            Vi = np.linalg.inv(V)
        except np.linalg.LinAlgError:
            raise DomainError(f"spectrum {lam} has no eigenbasis") from None
        if np.max(np.abs((V * lam) @ Vi - A)) >= _RESIDUAL_TOL:
            raise DomainError(f"spectrum {lam} does not reconstruct A")
        A.setflags(write=False)
        B.setflags(write=False)
        return cls(A=A, B=B, eigenvalues=lam, V=V, Vi=Vi)

    @property
    def n(self) -> int:
        return self.A.shape[0]


def constant_input_propagator(sys: LTISystem, u: float):
    """Exact flow map (x0, dt) -> x(dt) for constant input u, in modal form:
    x(dt) = V (e^(lam dt) * Vi x0 + expm1(lam dt) * Vi B u / lam), where no
    lam is near 0 (LTISystem admits no other spectrum). dt is a scalar or a
    1-D array; an array gives one state per entry, as rows.
    """
    lam, V, Vi = sys.eigenvalues, sys.V, sys.Vi
    w_lam = Vi @ (sys.B * u) / lam

    def flow(x0, dt):
        # in place, in two arrays: a long dt array maps fewer fresh pages
        ldt = lam * dt
        y = np.exp(ldt)
        y *= Vi @ x0
        np.expm1(ldt, out=ldt)
        ldt *= w_lam
        y += ldt
        return y @ V.T

    def step(x0, dt):
        x0 = np.asarray(x0, dtype=float)
        if isinstance(dt, float) or np.ndim(dt) == 0:  # a float skips ndim's cost
            if not dt >= 0:
                raise DomainError("propagation time must be >= 0")
            return flow(x0, dt) if dt > 0 else x0.copy()
        dt = np.asarray(dt, dtype=float)
        if not (dt >= 0).all():
            raise DomainError("propagation time must be >= 0")
        out = flow(x0, dt[:, None])
        out[dt == 0] = x0
        return out

    return step


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    control: np.ndarray | None = None


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.10): an
# explicit 8th-order pair with 12 stages, a combined 5th/3rd-order error
# estimate and a 7th-order dense output. Row i of _A_ROWS holds the stage-i
# coefficients on stages 0..i-1, at the node _C[i]. Row 12 is the solution
# weight vector, so stage 12 is f(t + h, y1), the first stage of the next
# step (FSAL). Rows 13-15 are the 3 extra stages of the dense output.
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778])
_A_ROWS = [np.array(row) for row in (
    [],
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
     0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
    [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
)]
_B = _A_ROWS[12]
# the 5th- and 3rd-order error estimates, as rows; neither weighs stage 12
_ERR = np.array([
    [0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
     -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
     0.3341791187130175, 0.08192320648511571, -0.022355307863886294],
    [-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, -0.4226823213237919,
     -0.1521609496625161, 0.20136540080403034, 0.02265179219836082],
])
# rows 3-6 of the dense output's F, on all 16 stages; rows 0-2 come from
# y, y1 and the end-point slopes
_D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])

_MIN_STEP = 1e-14
_MAX_FACTOR = 10.0
_MIN_FACTOR = 0.2
_SAFETY = 0.9
_EXPONENT = -1.0 / 8.0  # one over the error estimator's order plus one


def _error_norm(K, h, scale):
    """DOP853's error norm: the 5th-order estimate, damped where the
    3rd-order one is much larger."""
    e = (_ERR @ K) / scale
    e5, e3 = (e * e).sum(axis=1).tolist()
    if e5 == 0.0 and e3 == 0.0:
        return 0.0
    return abs(h) * e5 / math.sqrt((e5 + 0.01 * e3) * scale.size)


def _initial_step(f, t0, y0, f0, rtol, atol):
    sc = atol + rtol * np.abs(y0)
    d0 = float(np.sqrt(np.mean((y0 / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((f0 / sc) ** 2)))
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    f1 = f(t0 + h0, y0 + h0 * f0)
    d2 = float(np.sqrt(np.mean(((f1 - f0) / sc) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_EXPONENT
    return min(100 * h0, h1)


def _steps(f, x0, t0, t1, rtol, atol):
    """Generator of accepted DOP853 steps (t, y, h, K, y1).

    K is the live (16, n) stage buffer: rows 0-11 are the stages, row 12 is
    f(t + h, y1), and rows 13-15 are free for _dense_rows. The next step
    overwrites it, so use it before resuming the generator.
    """
    y = np.array(x0, dtype=float)
    t = t0
    if t1 <= t0:
        return
    k = np.empty((16, y.size))
    k[0] = f(t, y)
    h = min(_initial_step(f, t, y, k[0], rtol, atol), t1 - t0)
    while t < t1:
        h = min(h, t1 - t)
        if not h >= _MIN_STEP:  # a NaN step fails here too
            raise IntegrationError(f"step underflow at t={t:.6g}")
        for i in range(1, 12):
            k[i] = f(t + _C[i] * h, y + h * (_A_ROWS[i] @ k[:i]))
        y1 = y + h * (_B @ k[:12])
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y1))
        en = _error_norm(k[:12], h, scale)
        if en <= 1.0:
            k[12] = f(t + h, y1)
            yield t, y, h, k, y1
            t = t1 if (t1 - t - h) < _MIN_STEP else t + h
            y = y1
            k[0] = k[12]  # FSAL
            h *= _MAX_FACTOR if en == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * en ** _EXPONENT))
        else:
            h *= max(_MIN_FACTOR, _SAFETY * en ** _EXPONENT)


def _dense_rows(f, t, y, h, K, y1):
    """The 7 rows F of the dense output over one accepted step from _steps;
    evaluates the 3 extra stages into K[13:16]."""
    for i in range(13, 16):
        K[i] = f(t + _C[i] * h, y + h * (_A_ROWS[i] @ K[:i]))
    dy = y1 - y
    F = np.empty((7, y.size))
    F[0] = dy
    F[1] = h * K[0] - dy
    F[2] = 2.0 * dy - h * (K[12] + K[0])
    F[3:] = h * (_D @ K)
    return F


def _dense(y, F, theta):
    """The 7th-order interpolant y(t + theta h) from the step's start y and
    its rows F, theta in [0, 1]; F may be one component's 7 values."""
    s = 1.0 - theta
    return y + theta * (F[0] + s * (F[1] + theta * (F[2] + s * (
        F[3] + theta * (F[4] + s * (F[5] + theta * F[6]))))))


# sign samples of the watched component per step: DOP853 steps are long, and
# a close pair of roots must still fall into different sample intervals
_EVENT_SAMPLES = 33
_THETA = np.linspace(0.0, 1.0, _EVENT_SAMPLES)
# _dense is linear in F, so its value at each theta on unit rows is the basis
_THETA_BASIS = _dense(0.0, np.eye(7)[:, :, None], _THETA)


def integrate(f, x0, t0, t1, tol, atol) -> Trajectory:
    """Adaptive DOP853 integration of x' = f(t, x) from t0 to t1, returning
    the accepted step nodes; tol is the relative tolerance. No dense output
    is built. Neither solver calls it: it is kept as the RK replay of a
    schedule in the benchmark's rk_gap check and in the tests' oracles."""
    if t1 < t0:
        raise DomainError("integrate: t1 < t0")
    x0 = np.asarray(x0, dtype=float)
    ts = [t0]
    ys = [x0.copy()]
    for t, y, h, K, y1 in _steps(f, x0, t0, t1, tol, atol):
        ts.append(min(t + h, t1))
        ys.append(y1)
    return Trajectory(np.array(ts), np.array(ys))


def integrate_with_sign_event(f, x0, t0, t1, watch: int, tol, atol):
    """Integrate up to the first time component `watch` changes sign.

    Each accepted DOP853 step builds its 7th-order dense output, samples the
    watched component at _EVENT_SAMPLES points, and bisects the first
    bracketed crossing to a ~1e-13 relative time window. Returns
    (t, x, crossed): the crossing time, the dense-output state there and
    True, or t1, x(t1) and False when the sign never changes. Successive
    crossings are found by restarting from the returned (t, x).
    """
    x = np.array(x0, dtype=float)
    # a zero at the start point is an initial condition, not a crossing
    t_guard = t0 + 1e-10 * max(1.0, abs(t0))
    for t, y, h, K, y1 in _steps(f, x, t0, t1, tol, atol):
        F = _dense_rows(f, t, y, h, K, y1)
        yw = float(y[watch])
        w = yw + F[:, watch] @ _THETA_BASIS
        w[0], w[-1] = yw, y1[watch]
        fw = F[:, watch].tolist()
        for j in np.flatnonzero((w[:-1] != 0.0) & (w[:-1] * w[1:] < 0.0)):
            a, b, wa = _THETA[j], _THETA[j + 1], w[j]
            while (b - a) * h > 1e-13 * max(1.0, abs(t + a * h)):
                m = 0.5 * (a + b)
                if wa * _dense(yw, fw, m) <= 0.0:
                    b = m
                else:
                    a = m
            t_ev = t + 0.5 * (a + b) * h
            if t_ev > t_guard:
                return t_ev, _dense(y, F, 0.5 * (a + b)), True
        x = y1
    return t1, x, False

