"""Linear-systems kernel: matrix exponential, exact constant-input propagation
in modal form, adaptive Runge-Kutta integration with sign-event detection,
controllability rank.

Time is in minutes and states in mg throughout the package, but nothing in this
module depends on that convention.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError

# spectral-path admission: real, well-separated spectrum and a residual check
_REAL_TOL = 1e-10
_SEPARATION_TOL = 1e-6
_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class LTISystem:
    """x' = A x + B u with a spectral cache computed at construction.

    The cache (eigenvalues sorted ascending, V, Vi) is populated only when the
    spectrum is real with pairwise separation above 1e-6 and the reconstruction
    residual ||V diag(lam) Vi - A||_inf is below 1e-10; expm then takes the
    eigendecomposition path, otherwise a scaling-and-squaring series.
    """

    A: np.ndarray
    B: np.ndarray
    eigenvalues: np.ndarray
    V: np.ndarray | None
    Vi: np.ndarray | None
    real_spectrum: bool

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
        real = bool(lam.size == 0 or np.max(np.abs(lam.imag)) < _REAL_TOL)
        eigenvalues = lam.real if real else lam
        V_ok = Vi_ok = None
        if real:
            data = _check_spectral(A, lam.real, V.real)
            if data is not None:
                V_ok, Vi_ok = data
        A.setflags(write=False)
        B.setflags(write=False)
        return cls(A=A, B=B, eigenvalues=eigenvalues, V=V_ok, Vi=Vi_ok,
                   real_spectrum=real)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def spectral_valid(self) -> bool:
        return self.V is not None

    def expm(self, t: float) -> np.ndarray:
        if self.spectral_valid:
            return (self.V * np.exp(self.eigenvalues * t)) @ self.Vi
        return _expm_series(self.A * t)


def _check_spectral(A, lam, V):
    """(V, Vi) if the real eigendecomposition is usable, else None."""
    if lam.size > 1 and np.min(np.diff(np.sort(lam))) <= _SEPARATION_TOL:
        return None
    try:
        Vi = np.linalg.inv(V)
    except np.linalg.LinAlgError:
        return None
    if np.max(np.abs((V * lam) @ Vi - A)) >= _RESIDUAL_TOL:
        return None
    return V, Vi


def _expm_series(M, terms=18):
    """Scaling-and-squaring with a truncated Taylor series."""
    M = np.asarray(M, dtype=float)
    norm = np.max(np.sum(np.abs(M), axis=1)) if M.size else 0.0
    s = 0
    if norm > 0.5:
        s = int(np.ceil(np.log2(norm / 0.5)))
    Ms = M / (2.0 ** s)
    E = np.eye(M.shape[0])
    T = np.eye(M.shape[0])
    for k in range(1, terms + 1):
        T = T @ Ms / k
        E = E + T
    for _ in range(s):
        E = E @ E
    return E


def _augmented(A, B, u):
    n = A.shape[0]
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = A
    M[:n, n] = B * u
    return M


def constant_input_propagator(sys: LTISystem, u: float):
    """Exact flow map (x0, dt) -> x(dt) for constant input u.

    With the system's spectral cache this is the modal form
    x(dt) = V (e^(lam dt) * Vi x0 + phi1(lam, dt) * Vi B u), where
    phi1 = expm1(lam dt) / lam and phi1 = dt at lam = 0, so a singular A
    needs no inverse. Without the cache each call exponentiates the
    augmented matrix [[A, B u], [0, 0]] by the series. dt is a scalar or a
    1-D array; an array gives one state per entry, as rows.
    """
    n = sys.n
    if sys.spectral_valid:
        lam, V, Vi = sys.eigenvalues, sys.V, sys.Vi
        zero = lam == 0
        w = Vi @ (sys.B * u)
        w_lam = np.divide(w, lam, out=np.zeros(n), where=~zero)
        w_zero = np.where(zero, w, 0.0)

        def flow(x0, dt):
            ldt = lam * dt
            y = np.exp(ldt) * (Vi @ x0) + np.expm1(ldt) * w_lam + dt * w_zero
            return y @ V.T
    else:
        M = _augmented(sys.A, sys.B, u)

        def flow(x0, dt):
            E = np.array([_expm_series(M * d) for d in np.ravel(dt)])
            out = E[:, :n, :n] @ x0 + E[:, :n, n]
            return out if np.ndim(dt) else out[0]

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
    times: np.ndarray
    states: np.ndarray
    control: np.ndarray | None = None


# Dormand-Prince 5(4) pair with the standard quartic dense output.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A_ROWS = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_ERR = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                 22 / 525, -1 / 40])
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_MIN_STEP = 1e-14
_MAX_FACTOR = 5.0
_MIN_FACTOR = 0.2
_SAFETY = 0.9

_TH9 = np.linspace(0.0, 1.0, 9)
_TH9_POW = np.vstack([_TH9, _TH9 ** 2, _TH9 ** 3, _TH9 ** 4])


def _error_norm(err, y0, y1, rtol, atol):
    sc = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.sqrt(np.mean((err / sc) ** 2)))


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
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def _steps(f, x0, t0, t1, rtol, atol, max_step):
    """Generator of accepted steps (t, y, h, K, y1); FSAL Dormand-Prince."""
    y = np.array(x0, dtype=float)
    t = t0
    if t1 <= t0:
        return
    k = np.empty((7, y.size))
    k[0] = f(t, y)
    h = min(_initial_step(f, t, y, k[0], rtol, atol), t1 - t0, max_step)
    while t < t1:
        h = min(h, t1 - t)
        if h < _MIN_STEP:
            raise IntegrationError(f"step underflow at t={t:.6g}")
        for i in range(1, 7):
            yi = y + h * (_A_ROWS[i] @ k[:i])
            k[i] = f(t + _C[i] * h, yi)
        y1 = y + h * (_B5 @ k)
        err = h * (_ERR @ k)
        en = _error_norm(err, y, y1, rtol, atol)
        if en <= 1.0:
            yield t, y.copy(), h, k.copy(), y1.copy()
            t = t1 if (t1 - t - h) < _MIN_STEP else t + h
            y = y1
            k[0] = k[6]  # FSAL
            factor = _MAX_FACTOR if en == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * en ** -0.2))
            h = min(h * factor, max_step)
        else:
            h *= max(_MIN_FACTOR, _SAFETY * en ** -0.2)


def _dense(y, h, K, theta):
    """Quartic interpolant over one step, theta in [0, 1]."""
    p = np.array([theta, theta ** 2, theta ** 3, theta ** 4])
    return y + h * ((K.T @ _P) @ p)


def integrate(f, x0, t0, t1, tol=1e-10, atol=1e-12, max_step=np.inf) -> Trajectory:
    """Adaptive RK 5(4) integration of x' = f(t, x) from t0 to t1, returning
    the accepted step nodes; tol is the relative tolerance."""
    if t1 < t0:
        raise DomainError("integrate: t1 < t0")
    x0 = np.asarray(x0, dtype=float)
    ts = [t0]
    ys = [x0.copy()]
    for t, y, h, K, y1 in _steps(f, x0, t0, t1, tol, atol, max_step):
        ts.append(min(t + h, t1))
        ys.append(y1)
    return Trajectory(np.array(ts), np.array(ys))


def integrate_with_sign_event(f, x0, t0, t1, watch: int, tol=1e-10, atol=1e-12,
                              max_step=np.inf, stop_at_first=False):
    """Integrate and report times where component `watch` changes sign.

    Crossings are bracketed on the quartic interpolant of each accepted step
    and bisected to a ~1e-13 relative time window. With stop_at_first the
    returned trajectory ends at the event state. Returns (Trajectory, [t_ev]).
    """
    x0 = np.asarray(x0, dtype=float)
    ts = [t0]
    ys = [x0.copy()]
    events = []
    # a zero at the start point is an initial condition, not a crossing
    t_guard = t0 + 1e-10 * max(1.0, abs(t0))
    for t, y, h, K, y1 in _steps(f, x0, t0, t1, tol, atol, max_step):
        # interpolant restricted to the watched component: quartic in theta
        q = K[:, watch] @ _P
        yw = float(y[watch])
        w = yw + h * (q @ _TH9_POW)
        w[0], w[-1] = yw, y1[watch]

        def wval(th):
            return yw + h * th * (q[0] + th * (q[1] + th * (q[2] + th * q[3])))

        for a, b, wa, wb in zip(_TH9[:-1], _TH9[1:], w[:-1], w[1:]):
            if wa == 0.0 or wa * wb >= 0.0:
                continue
            while (b - a) * h > 1e-13 * max(1.0, abs(t + a * h)):
                m = 0.5 * (a + b)
                if wa * wval(m) <= 0.0:
                    b = m
                else:
                    a = m
            t_ev = t + 0.5 * (a + b) * h
            if t_ev <= t_guard:
                continue
            events.append(t_ev)
            if stop_at_first:
                ts.append(t_ev)
                ys.append(_dense(y, h, K, 0.5 * (a + b)))
                return Trajectory(np.array(ts), np.array(ys)), events
        ts.append(min(t + h, t1))
        ys.append(y1)
    return Trajectory(np.array(ts), np.array(ys)), events


def kalman_rank(sys: LTISystem) -> int:
    """Numerical rank of the controllability matrix [B, AB, ..., A^(n-1)B]."""
    cols = [sys.B]
    for _ in range(sys.n - 1):
        cols.append(sys.A @ cols[-1])
    s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-10 * s[0]))
