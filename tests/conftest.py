import numpy as np
import pytest

from anesopt.lti import LTISystem
from anesopt.patient import (EC50, PatientDemographics, assemble_system,
                             equilibrium, schnider_parameters)
from anesopt.problem import build_problem, sample_trajectory
from anesopt.shooting import solve_shooting
from anesopt.strategies import solve_all_patterns, solve_time_optimal

U_MAX_REF = 106.0907

# Frozen full-precision values for the reference patient (male, 53 y, 77 kg,
# 177 cm), computed once from the closed-form formulas and pinned here so a
# regression in any layer shows up as a drift against these numbers.
FROZEN = {
    "lbm_male": 60.476054135146356,
    "lbm_female": 54.381062593762969,
    "a10": 0.41953073925117296,
    "a21": 0.068253968253968261,
    "a41": 0.10679156908665106,
    "x_e": np.array([14.518, 64.237085581395348, 813.008, 3.4]),
    "u_e": 6.0907472724485281,
    "eigs": np.array([-0.94185684843044948, -0.456,
                      -0.045066735384238048, -0.0023611236904530026]),
    "t_c": 0.5467168029720757,
    "t_f": 1.8397543999448038,
    "x_tf": np.array([14.518, 13.70034450313041, 9.4618450520724071, 3.4]),
    "bis_6_8": 11.111111111111105,
    "psi0": np.array([-0.0094258968976545683, 0.0022322957476672146,
                      0.00012676324384331929, -0.18890667803116998]),
}

# Four-decimal reference values reported for this patient model; acceptance
# tolerances are tied to the number of digits given.
EXPECTED_A = np.array([
    [-0.9175, 0.0683, 0.0035, 0.0],
    [0.3020, -0.0683, 0.0, 0.0],
    [0.1960, 0.0, -0.0035, 0.0],
    [0.1068, 0.0, 0.0, -0.4560],
])
EXPECTED_EIGS = np.array([-0.9419, -0.4560, -0.0451, -0.0024])
EXPECTED_X_E = np.array([14.518, 64.2371, 813.008, 3.4])
EXPECTED_U_E = 6.0907
EXPECTED_T_C = 0.5467
EXPECTED_T_F = 1.8397


def endpoint(sys, schedule, x0=None):
    """State at t_f under the schedule: the sampler's last row."""
    return sample_trajectory(sys, schedule, step=schedule.t_f, x0=x0).states[-1]


def expm(A, t):
    """e^(A t) = V e^(lam t) Vi from the eigendecomposition of a system
    built on A."""
    A = np.asarray(A, dtype=float)
    sys = LTISystem.from_matrices(A, np.zeros(A.shape[0]))
    return (sys.V * np.exp(sys.eigenvalues * t)) @ sys.Vi


def kalman_rank(sys):
    """Numerical rank of the controllability matrix [B, AB, ..., A^(n-1)B]:
    the count of its singular values above 1e-10 times the largest. The
    Krylov oracle for the modal record's controllability test."""
    cols = [sys.B]
    for _ in range(sys.n - 1):
        cols.append(sys.A @ cols[-1])
    s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > 1e-10 * s[0]))


def extremal(prob, cert, step=1e-2):
    """The certificate's extremal from closed forms, sharing no integrator
    with the solver: the state sampled from its schedule, and the costate
    psi(t) = e^(-A^T t) psi0 at the same times, one row per sample."""
    traj = sample_trajectory(prob.sys, cert.schedule, step, x0=prob.x0)
    psi = np.array([expm(-prob.sys.A.T, t) @ cert.psi0 for t in traj.times])
    return traj, psi


@pytest.fixture(scope="session")
def ref_demo():
    return PatientDemographics(sex="male", age=53.0, weight=77.0, height=177.0)


@pytest.fixture(scope="session")
def ref_params(ref_demo):
    return schnider_parameters(ref_demo)


@pytest.fixture(scope="session")
def ref_sys(ref_params):
    return assemble_system(ref_params)


@pytest.fixture(scope="session")
def ref_eq(ref_params):
    return equilibrium(ref_params, EC50)


@pytest.fixture(scope="session")
def ref_problem(ref_params):
    return build_problem(ref_params, u_max=U_MAX_REF)


@pytest.fixture(scope="session")
def all_results(ref_problem):
    """StrategyResults for the full eight-pattern enumeration."""
    return solve_all_patterns(ref_problem)


@pytest.fixture(scope="session")
def bolus_results(all_results):
    """The bolus-first rows (odd strategies) of the eight-pattern table."""
    return [r for r in all_results if r.strategy % 2]


@pytest.fixture(scope="session")
def optimal(ref_problem):
    return solve_time_optimal(ref_problem)


@pytest.fixture(scope="session")
def certificate(ref_problem):
    """The shooting certificate from the default seed grid (one solve per run)."""
    return solve_shooting(ref_problem)
