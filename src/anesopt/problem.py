"""Shared problem statement: bang-bang control schedules and the minimum-time
reachability problem for the fast state pair (x1, x4).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lti import LTISystem, Trajectory, constant_input_propagator
from .patient import PKPDParameters, assemble_system, bis_inverse, equilibrium

# compartments whose target values define induction completion
FAST_IDX = (0, 3)
# sample_trajectory's bound on the row count: far above the 2.46M rows of
# the slowest certified answer CI solves (2,461.7 min, the reference patient
# from rest at u_max = 1.001 u_e) at step 1e-3, far below an allocation that
# fails
MAX_SAMPLES = 10 ** 7
# samples per propagator call in sample_trajectory: each (m, 4) float
# temporary of the flow is then 64 KiB, under glibc's 128 KiB mmap
# threshold, so a chunk reuses heap pages where a whole segment would map
# fresh ones
_SAMPLE_CHUNK = 2048
# inf-norm bound on the fast residual of a feasible root; a target that x0
# already meets within it is degenerate
FEAS_TOL = 1e-9


@dataclass(frozen=True)
class ControlSchedule:
    """Piecewise-constant control: levels[i] on (breakpoints[i-1], breakpoints[i])."""

    levels: tuple
    breakpoints: tuple
    t_f: float

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(float(u) for u in self.levels))
        object.__setattr__(self, "breakpoints",
                           tuple(float(t) for t in self.breakpoints))
        if not self.t_f > 0:
            raise DomainError("t_f must be positive")
        if not all(0.0 <= u < math.inf for u in self.levels):  # NaN fails
            raise DomainError("levels must be finite and in the admissible "
                              "set u >= 0")
        if len(self.levels) != len(self.breakpoints) + 1:
            raise DomainError("need exactly one more level than breakpoints")
        knots = (0.0,) + self.breakpoints + (self.t_f,)
        if not all(a < b for a, b in zip(knots, knots[1:])):  # NaN fails
            raise DomainError("breakpoints must be strictly increasing inside (0, t_f)")
        if any(a == b for a, b in zip(self.levels, self.levels[1:])):
            raise DomainError("adjacent levels must differ (null switch)")

    def u_at(self, t):
        """Right-continuous control value; t may be an array of times."""
        i = np.searchsorted(self.breakpoints, t, side="right")
        return np.array(self.levels)[i]

    def segments(self):
        """Yields (u, t_start, t_end) per constant piece."""
        knots = (0.0,) + self.breakpoints + (self.t_f,)
        for u, a, b in zip(self.levels, knots, knots[1:]):
            yield u, a, b

    def as_dict(self) -> dict:
        return {"u_levels": list(self.levels),
                "breakpoints": list(self.breakpoints),
                "t_f": self.t_f}


@dataclass(frozen=True)
class TimeOptimalProblem:
    """Steer the fast state (x1, x4) from x0 (rest when None) to target_fast
    in minimum time with 0 <= u <= u_max. x0 and target_fast are kept as
    read-only copies, so the caller's arrays stay writable.

    The system must be stable, every eigenvalue of A negative (DomainError
    otherwise), as both solvers assume: the shooting costate decays in
    backward time, and the strategy walk's e^(lam d) stays finite for any
    duration d. With (A, B) controllable, it also makes an equilibrium
    target held by an input inside (0, u_max) reachable in finite time
    (Lee and Markus 1967, ch. 2)."""

    sys: LTISystem
    target_fast: np.ndarray
    u_max: float
    x0: np.ndarray = None

    def __post_init__(self):
        if not np.all(self.sys.eigenvalues < 0.0):
            raise DomainError(f"spectrum {self.sys.eigenvalues} is not stable: "
                              "A needs every eigenvalue negative")
        if not 0 < self.u_max < np.inf:
            raise DomainError("u_max must be positive and finite")
        x0 = np.zeros(self.sys.n) if self.x0 is None else np.array(self.x0, float)
        if x0.shape != (self.sys.n,):
            raise DomainError(f"x0 must have shape ({self.sys.n},)")
        if not np.all(np.isfinite(x0)):
            raise DomainError("x0 must be finite")
        target = np.array(self.target_fast, dtype=float)
        if target.shape != (2,):
            raise DomainError("target_fast must have two components (x1, x4)")
        if not np.all(np.isfinite(target)):
            raise DomainError("target_fast must be finite")
        if np.max(np.abs(target - x0[list(FAST_IDX)])) < FEAS_TOL:
            raise DomainError("degenerate problem: the initial fast state "
                              "already meets the target within FEAS_TOL")
        x0.setflags(write=False)
        target.setflags(write=False)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "target_fast", target)

    def fast_residual(self, x) -> np.ndarray:
        return np.array([x[FAST_IDX[0]] - self.target_fast[0],
                         x[FAST_IDX[1]] - self.target_fast[1]])


def build_problem(params: PKPDParameters, u_max: float, bis_target: float = 50.0,
                  x0=None) -> TimeOptimalProblem:
    """Assemble the system and the BIS-target equilibrium into a problem."""
    eq = equilibrium(params, bis_inverse(bis_target))
    sys = assemble_system(params)
    return TimeOptimalProblem(sys=sys,
                              target_fast=eq.x_e[list(FAST_IDX)],
                              u_max=u_max, x0=x0)


def sample_trajectory(sys: LTISystem, schedule: ControlSchedule, step: float,
                      x0=None) -> Trajectory:
    """Exact piecewise propagation sampled every `step` minutes.

    Sample times are i*step plus the exact final time. One pass over the
    segments propagates each segment's samples from its start state by the
    segment's closed-form flow map, never an ODE solve. The map is called
    on at most _SAMPLE_CHUNK samples at a time, each chunk written straight
    into the result, so past the result's arrays the working memory does
    not grow with the trajectory. A row of the map's matrix product does
    not depend on the other rows of a call of two or more, so the chunking
    changes no bit.
    """
    if not 0 < step < np.inf:
        raise DomainError("step must be positive and finite")
    # checked before anything is allocated; t_f / step may overflow to inf
    n_whole = np.floor(schedule.t_f / step + 1e-9)
    if not n_whole + 2 <= MAX_SAMPLES:
        raise DomainError(
            f"step {step:g} over t_f = {schedule.t_f:g} asks for about "
            f"{n_whole:.3g} samples, over the cap of {MAX_SAMPLES}")
    n_whole = int(n_whole)
    x = np.zeros(sys.n) if x0 is None else np.asarray(x0, dtype=float)
    if x.shape != (sys.n,):
        raise DomainError(f"x0 must have shape ({sys.n},)")
    if not np.all(np.isfinite(x)):
        raise DomainError("x0 must be finite")
    times = np.arange(n_whole + 1) * step
    if schedule.t_f - times[-1] > 1e-12:
        times = np.append(times, schedule.t_f)
    else:
        times[-1] = schedule.t_f
    states = np.empty((times.size, sys.n))
    states[0] = x
    for u, a, b in schedule.segments():
        prop = constant_input_propagator(sys, u)
        lo, hi = np.searchsorted(times, (a, b), side="right")  # (a, b]
        for k in range(lo, hi, _SAMPLE_CHUNK):
            j = min(k + _SAMPLE_CHUNK, hi)
            # numpy multiplies a one-row matrix as a vector, which can round
            # differently, so a lone sample rides with the row before it
            i = max(lo, min(k, j - 2))
            states[i:j] = prop(x, times[i:j] - a)
        x = prop(x, b - a)
    return Trajectory(times, states, schedule.u_at(times))
