"""Linear-systems kernel: exact constant-input propagation in modal form,
and adaptive DOP853 integration (8th order) that returns its step nodes.

Both solvers propagate exactly, and no solve calls the integrator: it is
the RK replay of a schedule in the benchmark's rk_gap check and in the
tests' oracles.

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
    1-D array; an array gives one state per entry, as rows. A u whose modal
    offset Vi B u / lam overflows raises DomainError.
    """
    lam, V, Vi = sys.eigenvalues, sys.V, sys.Vi
    with np.errstate(all="ignore"):
        w_lam = Vi @ (sys.B * u) / lam
    if not np.all(np.isfinite(w_lam)):
        raise DomainError(f"input level {u:g} overflows the flow map")

    def flow(x0, dt):
        # in place, in two arrays: a call on m times makes two (m, n)
        # temporaries, which the sampler keeps small by calling on chunks
        ldt = lam * dt
        y = np.exp(ldt)
        y *= Vi @ x0
        np.expm1(ldt, out=ldt)
        ldt *= w_lam
        y += ldt
        return y @ V.T

    def step(x0, dt):
        x0 = np.asarray(x0, dtype=float)
        if np.ndim(dt) == 0:
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
    """States sampled at increasing times: times (n,) in min, states (n, d)
    with row i the state at times[i] (for the PK/PD model d = 4, x1-x3 in
    mg and x4 in mg/L), and control (n,) the input at each time in mg/min,
    or None for an integration that has no input."""

    times: np.ndarray
    states: np.ndarray
    control: np.ndarray | None = None


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.10): an
# explicit 8th-order pair with 12 stages and a combined 5th/3rd-order error
# estimate. Row i of _A_ROWS holds the stage-i coefficients on stages
# 0..i-1, at the node _C[i]. Row 12 is the solution weight vector, so
# f(t + h, y1) is the first stage of the next step (FSAL).
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0])
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


def integrate(f, x0, t0, t1, tol, atol) -> Trajectory:
    """Adaptive DOP853 integration of x' = f(t, x) from t0 to t1, returning
    the accepted step nodes; tol is the relative tolerance. A step below
    1e-14, or a NaN step, raises IntegrationError."""
    if t1 < t0:
        raise DomainError("integrate: t1 < t0")
    t, y = t0, np.array(x0, dtype=float)
    ts, ys = [t], [y]
    k = np.empty((12, y.size))  # the stages of one step
    if t < t1:
        k[0] = f(t, y)
        h = min(_initial_step(f, t, y, k[0], tol, atol), t1 - t0)
    while t < t1:
        h = min(h, t1 - t)
        if not h >= _MIN_STEP:  # a NaN step fails here too
            raise IntegrationError(f"step underflow at t={t:.6g}")
        for i in range(1, 12):
            k[i] = f(t + _C[i] * h, y + h * (_A_ROWS[i] @ k[:i]))
        y1 = y + h * (_B @ k)
        scale = atol + tol * np.maximum(np.abs(y), np.abs(y1))
        en = _error_norm(k, h, scale)
        if en <= 1.0:
            k[0] = f(t + h, y1)  # FSAL
            ts.append(min(t + h, t1))
            ys.append(y1)
            t = t1 if (t1 - t - h) < _MIN_STEP else t + h
            y = y1
            h *= _MAX_FACTOR if en == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * en ** _EXPONENT))
        else:
            h *= max(_MIN_FACTOR, _SAFETY * en ** _EXPONENT)
    return Trajectory(np.array(ts), np.array(ys))
