"""Acceptance gate: one test per published-number criterion, in order.

Each test asserts exactly the documented tolerance and prints a PASS line
with the measured value, so `pytest -v -rA` reads as a checklist.
"""
import numpy as np

from anesopt.lti import LTISystem, constant_input_propagator, integrate
from anesopt.patient import (PatientDemographics, bis, bis_inverse,
                             equilibrium, schnider_parameters)
from anesopt.problem import ControlSchedule
from anesopt.shooting import hamiltonian

from conftest import (EXPECTED_A, EXPECTED_EIGS, EXPECTED_T_C, EXPECTED_T_F,
                      EXPECTED_U_E, EXPECTED_X_E, U_MAX_REF, endpoint, expm,
                      extremal, kalman_rank)


def test_criterion_01_system_matrix_reproduction(ref_sys):
    err = np.max(np.abs(ref_sys.A - EXPECTED_A))
    assert err < 1e-4
    assert abs(ref_sys.A[0, 0] - (-0.9175)) < 1e-4
    assert abs(ref_sys.A[3, 0] - 0.1068) < 1e-4
    print(f"criterion 1 PASS: max entry error {err:.2e} < 1e-4")


def test_criterion_02_equilibrium_reproduction(ref_eq):
    ex = np.max(np.abs(ref_eq.x_e - EXPECTED_X_E))
    eu = abs(ref_eq.u_e - EXPECTED_U_E)
    assert ex < 1e-3
    assert eu < 1e-4
    print(f"criterion 2 PASS: max|x_e err| {ex:.2e} < 1e-3, "
          f"|u_e err| {eu:.2e} < 1e-4")


def test_criterion_03_spectrum(ref_sys):
    assert np.isrealobj(ref_sys.eigenvalues)
    err = np.max(np.abs(np.sort(ref_sys.eigenvalues) - np.sort(EXPECTED_EIGS)))
    assert err < 1e-4
    print(f"criterion 3 PASS: real spectrum, max eigenvalue error {err:.2e} < 1e-4")


def test_criterion_04_strategy_method(optimal, bolus_results):
    assert optimal.strategy == 3
    t_c = optimal.schedule.breakpoints[0]
    assert abs(t_c - EXPECTED_T_C) < 1e-3
    assert abs(optimal.t_f - EXPECTED_T_F) < 1e-3
    verdicts = {r.strategy: r.feasible for r in bolus_results}
    assert not verdicts[1] and not verdicts[5] and not verdicts[7]
    print(f"criterion 4 PASS: strategy 3 optimal, t_c = {t_c:.4f}, "
          f"t_f = {optimal.t_f:.4f}; strategies 1, 5, 7 infeasible")


def test_criterion_05_shooting_method(certificate):
    assert certificate.residual_norm < 1e-8
    assert abs(certificate.t_f - EXPECTED_T_F) < 1e-3
    assert len(certificate.switch_times) == 1
    assert abs(certificate.switch_times[0] - EXPECTED_T_C) < 1e-3
    print(f"criterion 5 PASS: t_f = {certificate.t_f:.4f}, residual "
          f"{certificate.residual_norm:.2e} < 1e-8, switch at "
          f"{certificate.switch_times[0]:.4f}")


def test_criterion_06_cross_method_agreement(certificate, optimal):
    dt = abs(certificate.t_f - optimal.t_f)
    assert dt < 1e-3
    assert certificate.schedule.levels == optimal.schedule.levels
    assert len(certificate.schedule.breakpoints) == len(optimal.schedule.breakpoints)
    print(f"criterion 6 PASS: |t_f difference| = {dt:.2e} < 1e-3, "
          f"identical switch structure {optimal.schedule.levels}")


def test_criterion_07_certificate_properties(ref_problem, certificate):
    traj, psi = extremal(ref_problem, certificate)
    h_max = max(abs(hamiltonian(ref_problem, x, u, p))
                for x, u, p in zip(traj.states, traj.control, psi))
    assert h_max < 1e-7
    psi1 = psi[:, 0]
    signs = np.sign(psi1[np.abs(psi1) > 1e-12])
    changes = int(np.count_nonzero(np.diff(signs)))
    assert changes == 1
    print(f"criterion 7 PASS: max|H| = {h_max:.2e} < 1e-7, "
          f"psi1 sign changes = {changes}")


def test_criterion_08_oracle_equivalence(ref_sys, optimal):
    sched = optimal.schedule
    closed = endpoint(ref_sys, sched)
    x = np.zeros(4)
    t = 0.0
    for u, a, b in sched.segments():
        def f(s, y, u=u):
            return ref_sys.A @ y + ref_sys.B * u

        x = integrate(f, x, a, b, tol=1e-12, atol=1e-14).states[-1]
    err = np.max(np.abs(x - closed))
    assert err < 1e-8
    print(f"criterion 8 PASS: closed form vs integration, max state error "
          f"{err:.2e} < 1e-8")


def test_criterion_09_bis_endpoint(ref_sys, optimal):
    x = endpoint(ref_sys, optimal.schedule)
    score = bis(x[3])
    assert abs(score - 50.0) < 0.5
    print(f"criterion 9 PASS: BIS(x4(t_f)) = {score:.4f} within 50 +/- 0.5")


def test_criterion_10_property_suites(ref_sys, ref_eq):
    rng = np.random.default_rng(2026)

    worst_semi = 0.0
    for _ in range(25):
        # separated negative spectrum, cond(R) <= 9
        R = np.eye(4) + rng.uniform(-0.2, 0.2, size=(4, 4))
        lam = -np.cumsum(rng.uniform(0.1, 2.0, size=4))
        A = R @ np.diag(lam) @ np.linalg.inv(R)
        s, t = rng.uniform(0.0, 5.0, size=2)
        diff = np.max(np.abs(expm(A, s) @ expm(A, t) - expm(A, s + t)))
        worst_semi = max(worst_semi, diff)
    assert worst_semi < 1e-10

    worst_eq = 0.0
    for _ in range(25):
        demo = PatientDemographics(
            sex=("male", "female")[int(rng.integers(2))],
            age=rng.uniform(26, 81), weight=rng.uniform(44, 123),
            height=rng.uniform(155, 196))
        p = schnider_parameters(demo)
        e = equilibrium(p, rng.uniform(0.5, 8.0))
        sys = LTISystem.from_matrices(
            np.array([[-(p.a10 + p.a12 + p.a13), p.a21, p.a31, 0.0],
                      [p.a12, -p.a21, 0.0, 0.0],
                      [p.a13, 0.0, -p.a31, 0.0],
                      [p.ae0 / p.v1, 0.0, 0.0, -p.ae0]]),
            [1.0, 0.0, 0.0, 0.0])
        resid = np.max(np.abs(sys.A @ e.x_e + sys.B * e.u_e))
        worst_eq = max(worst_eq, resid)
    assert worst_eq < 1e-12

    worst_rt = 0.0
    for _ in range(50):
        lo = rng.uniform(0.2, 15.0)
        hi = lo * rng.uniform(1.001, 3.0)
        assert bis(lo) > bis(hi)  # strictly decreasing
        worst_rt = max(worst_rt, abs(bis_inverse(bis(lo)) - lo) / lo)
    assert worst_rt < 1e-12

    assert kalman_rank(ref_sys) == 4

    worst_split = 0.0
    on = constant_input_propagator(ref_sys, U_MAX_REF)
    off = constant_input_propagator(ref_sys, 0.0)
    for _ in range(25):
        d1, d2 = rng.uniform(0.1, 2.0, size=2)
        theta = rng.uniform(0.05, 0.95)
        sched = ControlSchedule(levels=(U_MAX_REF, 0.0), breakpoints=(d1,),
                                t_f=d1 + d2)
        whole = endpoint(ref_sys, sched)
        x = on(np.zeros(4), theta * d1)
        x = on(x, (1 - theta) * d1)
        x = off(x, d2)
        worst_split = max(worst_split, float(np.max(np.abs(whole - x))))
    assert worst_split < 1e-10

    print("criterion 10 PASS: semigroup "
          f"{worst_semi:.2e} < 1e-10, equilibrium residual {worst_eq:.2e} "
          f"< 1e-12, BIS round-trip {worst_rt:.2e} < 1e-12 rel, Kalman rank 4, "
          f"segment split {worst_split:.2e} < 1e-10")
