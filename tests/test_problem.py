"""Schedule representation and problem-statement tests."""
import numpy as np
import pytest

from anesopt import problem
from anesopt.errors import DomainError
from anesopt.lti import LTISystem, constant_input_propagator
from anesopt.problem import (
    FAST_IDX,
    FEAS_TOL,
    MAX_SAMPLES,
    ControlSchedule,
    TimeOptimalProblem,
    build_problem,
    sample_trajectory,
)

from conftest import FROZEN, U_MAX_REF


@pytest.fixture
def two_level():
    return ControlSchedule(levels=(U_MAX_REF, 0.0), breakpoints=(0.5467,),
                           t_f=1.8397)


# ---------------------------------------------------------- ControlSchedule

def test_schedule_coerces_to_floats(two_level):
    assert all(isinstance(u, float) for u in two_level.levels)
    assert all(isinstance(b, float) for b in two_level.breakpoints)


def test_schedule_u_at_is_right_continuous(two_level):
    b = two_level.breakpoints[0]
    assert two_level.u_at(0.0) == U_MAX_REF
    assert two_level.u_at(b - 1e-9) == U_MAX_REF
    assert two_level.u_at(b) == 0.0
    assert two_level.u_at(two_level.t_f) == 0.0


def test_schedule_segments_tile_the_horizon(two_level):
    segs = list(two_level.segments())
    assert segs == [(U_MAX_REF, 0.0, 0.5467), (0.0, 0.5467, 1.8397)]
    durations = [b - a for _, a, b in segs]
    assert durations == pytest.approx([0.5467, 1.8397 - 0.5467])
    assert sum(durations) == pytest.approx(two_level.t_f)


def test_schedule_single_segment():
    s = ControlSchedule(levels=(5.0,), breakpoints=(), t_f=2.0)
    assert s.u_at(0.0) == 5.0 and s.u_at(1.999) == 5.0
    assert list(s.segments()) == [(5.0, 0.0, 2.0)]


def test_schedule_rejects_nonpositive_horizon():
    with pytest.raises(DomainError):
        ControlSchedule(levels=(1.0,), breakpoints=(), t_f=0.0)
    with pytest.raises(DomainError):
        ControlSchedule(levels=(1.0,), breakpoints=(), t_f=-1.0)


def test_schedule_rejects_level_count_mismatch():
    with pytest.raises(DomainError):
        ControlSchedule(levels=(1.0, 0.0, 1.0), breakpoints=(0.5,), t_f=1.0)


def test_schedule_rejects_boundary_breakpoints():
    with pytest.raises(DomainError):
        ControlSchedule(levels=(1.0, 0.0), breakpoints=(0.0,), t_f=1.0)
    with pytest.raises(DomainError):
        ControlSchedule(levels=(1.0, 0.0), breakpoints=(1.0,), t_f=1.0)


def test_schedule_rejects_unordered_breakpoints():
    with pytest.raises(DomainError):
        ControlSchedule(levels=(1.0, 0.0, 1.0), breakpoints=(0.7, 0.3), t_f=1.0)
    with pytest.raises(DomainError):
        ControlSchedule(levels=(1.0, 0.0, 1.0), breakpoints=(0.5, 0.5), t_f=1.0)


def test_schedule_rejects_null_switch():
    with pytest.raises(DomainError):
        ControlSchedule(levels=(1.0, 1.0), breakpoints=(0.5,), t_f=1.0)


@pytest.mark.parametrize("level", [-50.0, -1e-300, np.nan, np.inf])
def test_schedule_rejects_levels_outside_the_admissible_set(level):
    # the admissible set is 0 <= u; a negative level once replayed negative
    # drug amounts in every compartment
    with pytest.raises(DomainError, match="admissible"):
        ControlSchedule(levels=(level, 0.0), breakpoints=(0.5,), t_f=1.0)
    ControlSchedule(levels=(-0.0, 1.0), breakpoints=(0.5,), t_f=1.0)


# ------------------------------------------------------ TimeOptimalProblem

def test_problem_defaults_and_selection(ref_problem):
    assert np.array_equal(ref_problem.x0, np.zeros(4))
    # the residual reads exactly the fast components of the state
    base = ref_problem.fast_residual(np.zeros(4))
    picked = np.array([ref_problem.fast_residual(e) - base for e in np.eye(4)]).T
    assert np.array_equal(picked, np.eye(4)[list(FAST_IDX)])


def test_problem_fast_residual(ref_problem, ref_eq):
    r = ref_problem.fast_residual(ref_eq.x_e)
    assert np.max(np.abs(r)) < 1e-12
    r0 = ref_problem.fast_residual(np.zeros(4))
    assert r0 == pytest.approx([-FROZEN["x_e"][0], -FROZEN["x_e"][3]])


def test_problem_arrays_write_protected(ref_problem):
    with pytest.raises(ValueError):
        ref_problem.x0[0] = 1.0
    with pytest.raises(ValueError):
        ref_problem.target_fast[0] = 1.0


def test_problem_copies_the_callers_arrays(ref_params, ref_sys):
    # the problem freezes its own copies, never the arrays it was given
    x0 = np.array([1.0, 2.0, 3.0, 0.5])
    prob = build_problem(ref_params, u_max=U_MAX_REF, x0=x0)
    target = np.array(prob.target_fast)
    direct = TimeOptimalProblem(sys=ref_sys, target_fast=target,
                                u_max=U_MAX_REF, x0=x0)
    assert x0.flags.writeable and target.flags.writeable
    x0[0] = 7.0
    target[1] = 9.0
    for p in (prob, direct):
        assert p.x0[0] == 1.0
    assert direct.target_fast[1] == prob.target_fast[1] != 9.0


def test_problem_rejects_an_unstable_system(ref_sys):
    # the reference eigenbasis with its slowest mode at +0.05: the strategy
    # walk's e^(lam d) would overflow on a long search, and shooting's
    # costate would grow in backward time
    lam = ref_sys.eigenvalues.copy()
    lam[-1] = 0.05
    sys = LTISystem.from_matrices((ref_sys.V * lam) @ ref_sys.Vi, ref_sys.B)
    assert sys.eigenvalues[-1] == pytest.approx(0.05)
    with pytest.raises(DomainError, match="not stable"):
        TimeOptimalProblem(sys=sys, target_fast=(14.518, 3.4), u_max=U_MAX_REF)


def test_problem_rejects_nonpositive_bound(ref_sys):
    with pytest.raises(DomainError):
        TimeOptimalProblem(sys=ref_sys, target_fast=(1.0, 1.0), u_max=0.0)


@pytest.mark.parametrize("u_max", [np.inf, np.nan])
def test_problem_rejects_nonfinite_bound(ref_sys, u_max):
    with pytest.raises(DomainError):
        TimeOptimalProblem(sys=ref_sys, target_fast=(1.0, 1.0), u_max=u_max)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_nonfinite_start(ref_sys, two_level, bad):
    x0 = [bad, 0.0, 0.0, 0.0]
    with pytest.raises(DomainError):
        TimeOptimalProblem(sys=ref_sys, target_fast=(1.0, 1.0), u_max=1.0,
                           x0=x0)
    # the sampler once returned NaN states for a NaN start, and met an
    # infinite one with numpy's invalid-value warning
    with pytest.raises(DomainError, match="x0 must be finite"):
        sample_trajectory(ref_sys, two_level, 0.1, x0=x0)


@pytest.mark.parametrize("target", [(np.nan, 3.4), (np.inf, 3.4),
                                    (14.518, np.nan)])
def test_problem_rejects_nonfinite_target(ref_sys, target):
    # the strategy route once met these with an AttributeError or an
    # InfeasibleError instead of a clear domain error
    with pytest.raises(DomainError, match="target_fast must be finite"):
        TimeOptimalProblem(sys=ref_sys, target_fast=target, u_max=106.0907)


@pytest.mark.parametrize("shape", [(5,), (3,), (2, 4), (1,), ()],
                         ids=["5", "3", "2x4", "1", "scalar"])
def test_x0_of_the_wrong_shape_is_a_domain_error(ref_sys, two_level, shape):
    # a (5,) start was once accepted and failed in the solvers with a bare
    # numpy ValueError, the others with an IndexError, and the sampler met
    # each with a numpy ValueError
    x0 = np.ones(shape)
    with pytest.raises(DomainError, match=r"x0 must have shape \(4,\)"):
        TimeOptimalProblem(sys=ref_sys, target_fast=(1.0, 3.4), u_max=1.0,
                           x0=x0)
    with pytest.raises(DomainError, match=r"x0 must have shape \(4,\)"):
        sample_trajectory(ref_sys, two_level, 0.1, x0=x0)


def test_problem_rejects_bad_target_shape(ref_sys):
    with pytest.raises(DomainError):
        TimeOptimalProblem(sys=ref_sys, target_fast=(1.0, 2.0, 3.0), u_max=1.0)


def test_problem_rejects_degenerate_target(ref_sys):
    with pytest.raises(DomainError):
        TimeOptimalProblem(sys=ref_sys, target_fast=(0.0, 0.0), u_max=1.0)


@pytest.mark.parametrize("gap, degenerate", [(0.99 * FEAS_TOL, True),
                                             (1.01 * FEAS_TOL, False)])
def test_problem_rejects_a_target_within_feas_tol_of_x0(ref_sys, gap,
                                                       degenerate):
    # x0 meets a target within FEAS_TOL as a feasible root would: degenerate
    kwargs = dict(sys=ref_sys, target_fast=(1.0, 4.0 - gap), u_max=1.0,
                  x0=np.array([1.0, 2.0, 3.0, 4.0]))
    if degenerate:
        with pytest.raises(DomainError, match="degenerate problem"):
            TimeOptimalProblem(**kwargs)
    else:
        TimeOptimalProblem(**kwargs)


def test_build_problem_reference_values(ref_params, ref_problem):
    assert ref_problem.u_max == U_MAX_REF
    assert ref_problem.target_fast == pytest.approx(
        [FROZEN["x_e"][0], FROZEN["x_e"][3]], abs=1e-12)


def test_build_problem_rejects_out_of_range_bis(ref_params):
    with pytest.raises(DomainError):
        build_problem(ref_params, u_max=U_MAX_REF, bis_target=0.0)
    with pytest.raises(DomainError):
        build_problem(ref_params, u_max=U_MAX_REF, bis_target=100.0)


# -------------------------------------------------------- sample_trajectory

def test_sample_grid_ends_exactly_at_t_f(ref_sys, two_level):
    traj = sample_trajectory(ref_sys, two_level, step=0.001)
    assert traj.times[-1] == two_level.t_f
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[1] == pytest.approx(0.001)


def test_sample_grid_no_duplicate_when_t_f_on_grid(ref_sys):
    s = ControlSchedule(levels=(50.0,), breakpoints=(), t_f=0.5)
    traj = sample_trajectory(ref_sys, s, step=0.1)
    assert traj.times.shape == (6,)
    assert traj.times[-1] == 0.5


def test_sample_step_larger_than_horizon(ref_sys):
    s = ControlSchedule(levels=(50.0,), breakpoints=(), t_f=0.3)
    traj = sample_trajectory(ref_sys, s, step=1.0)
    assert np.array_equal(traj.times, [0.0, 0.3])


def test_sample_rejects_nonpositive_step(ref_sys, two_level):
    with pytest.raises(DomainError):
        sample_trajectory(ref_sys, two_level, step=0.0)


@pytest.mark.parametrize("step", [np.inf, np.nan])
def test_sample_rejects_nonfinite_step(ref_sys, two_level, step):
    # an infinite step once sampled only t_f: arange(1) * inf is NaN
    with pytest.raises(DomainError):
        sample_trajectory(ref_sys, two_level, step=step)


class _NoArrays:
    """numpy as `problem` sees it, except that building an array fails."""

    def __getattr__(self, name):
        if name in ("arange", "empty", "zeros", "asarray", "append"):
            raise AssertionError(f"np.{name} reached")
        return getattr(np, name)


@pytest.mark.parametrize("step", [1.0 / MAX_SAMPLES, 1e-8, 1e-300, 5e-324])
def test_sample_count_is_capped_before_any_allocation(ref_sys, monkeypatch,
                                                      step):
    s = ControlSchedule(levels=(50.0,), breakpoints=(), t_f=1.0)
    monkeypatch.setattr(problem, "np", _NoArrays())
    with pytest.raises(DomainError, match="samples"):
        sample_trajectory(ref_sys, s, step=step)


def test_sample_count_just_under_the_cap_is_allocated(ref_sys, monkeypatch):
    # the cap is not stricter than it says: this step passes it and goes on
    # to build the grid, which the stand-in stops before any memory is used
    s = ControlSchedule(levels=(50.0,), breakpoints=(), t_f=1.0)
    monkeypatch.setattr(problem, "np", _NoArrays())
    with pytest.raises(AssertionError, match="reached"):
        sample_trajectory(ref_sys, s, step=1.0 / (MAX_SAMPLES - 3))


def test_sample_matches_closed_form_propagation(ref_sys, two_level):
    traj = sample_trajectory(ref_sys, two_level, step=0.01)
    tc = two_level.breakpoints[0]
    on = constant_input_propagator(ref_sys, U_MAX_REF)
    x_tc = on(np.zeros(4), tc)
    x_tf = constant_input_propagator(ref_sys, 0.0)(x_tc, two_level.t_f - tc)
    # the sampler propagates each sample from its segment's start state
    assert np.max(np.abs(traj.states[-1] - x_tf)) < 1e-9
    i = np.searchsorted(traj.times, 0.3)
    assert traj.times[i] == pytest.approx(0.3)
    x_03 = on(np.zeros(4), traj.times[i])
    assert np.max(np.abs(traj.states[i] - x_03)) < 1e-9


def test_sample_output_does_not_depend_on_the_chunk_size(ref_sys,
                                                        monkeypatch):
    # 5,002 rows over three segments: a breakpoint inside a chunk, one
    # exactly on a sample time (that sample ends its segment), and t_f off
    # the grid, so its row is appended; chunks of 1 and 3 leave lone
    # samples (3 at the last segment's end), 2,048 splits the long
    # segments and 10**7 propagates each segment in one call
    step = 1e-3
    on_grid = 4100 * step
    assert (np.arange(4101) * step)[-1] == on_grid
    s = ControlSchedule(levels=(U_MAX_REF, 0.0, U_MAX_REF),
                        breakpoints=(0.5467, on_grid), t_f=5.0005)
    runs = []
    for rows in (1, 3, 2048, 10 ** 7):
        monkeypatch.setattr(problem, "_SAMPLE_CHUNK", rows)
        runs.append(sample_trajectory(ref_sys, s, step=step))
    want = runs[-1]
    assert want.times.size == 5002 and want.times[-1] == s.t_f
    assert np.count_nonzero(want.times == on_grid) == 1
    for got in runs[:-1]:
        for name in ("times", "states", "control"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def test_sample_control_column_right_continuous(ref_sys):
    s = ControlSchedule(levels=(10.0, 0.0), breakpoints=(0.5,), t_f=1.0)
    traj = sample_trajectory(ref_sys, s, step=0.25)
    assert np.array_equal(traj.control, [10.0, 10.0, 0.0, 0.0, 0.0])


def test_sample_respects_initial_state(ref_sys, ref_eq):
    s = ControlSchedule(levels=(ref_eq.u_e,), breakpoints=(), t_f=2.0)
    x0 = np.array(ref_eq.x_e)
    traj = sample_trajectory(ref_sys, s, step=0.5, x0=x0)
    assert np.allclose(traj.states, ref_eq.x_e, rtol=0, atol=1e-9)
    assert np.array_equal(x0, ref_eq.x_e)  # caller's array untouched
