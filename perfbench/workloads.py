"""The three workloads: how each case runs, and the checks on its output.

Every case returns (seconds, reason). ``reason`` is None for a case that
passed its checks, else ``budget``, ``error:<type>`` or ``check:<name>``;
any reason counts the case as failed. Only the program call is timed; the
checks run outside the timed interval. The first measured pass checks every
output in full, and later passes check that each output repeats exactly.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
from anesopt import cli, lti, strategies

import cases as C

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

BUDGET_S = 15.0          # wall budget of one CLI solve
GRACE_S = 10.0           # time a terminated child gets to exit
AGREE_TOL = 1e-6         # |dt_f|, |dt_c| between the two methods
REF_TOL = 1e-4           # one unit in the last digit of the published
REF_T_F, REF_T_C = 1.8397, 0.5467  # four-decimal t_f and t_c
# The root finder stops once its residual is below 1e-9, so the same problem
# solved along another path (a reordered sum, another kernel) can move t_f by
# about 1e-9; drawn seeds show 2.2e-9 across BIS targets. Checks that compare
# t_f values allow ten times that.
SOLVER_RTOL = 1e-8
FROZEN_RTOL = SOLVER_RTOL       # seed-0 strategy t_f against the frozen table
HOMOGENEITY_RTOL = SOLVER_RTOL  # t_f spread across BIS targets
RK_RTOL = 1e-7           # fast target reached when replayed by RK 5(4)
TARGET_RTOL = 1e-8       # fast target at the last replayed CSV row


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def load_frozen() -> dict:
    with open(DATA / "frozen_seed0.json") as fh:
        return json.load(fh)


def _write_json(path: Path, doc) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")


class Workload:
    """A seeded case set run one case at a time in a closed loop."""

    name = ""
    case_layer = "bench"     # layer charged with time around the program call

    def __init__(self, root: Path, seed: int, workdir: Path, env: dict):
        self.root = root
        self.workdir = workdir / self.name
        self.env = env
        self.cases = C.CASES[self.name](seed)
        self.frozen = load_frozen() if seed == C.DEFAULT_SEED else None
        self.problems = {}
        self.first = {}          # case id -> output of the first measured pass

    def build_all(self) -> None:
        self.problems = {c.id: C.build(c) for c in self.cases}

    def setup(self) -> None:
        """Generate the inputs; not timed."""
        self.build_all()

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, case, tracer=None, key=None):
        """Time one case; returns (seconds, reason), seconds None if not run."""
        frame = tracer.open(self.case_layer, key) if tracer else None
        start = frame[2] if frame else perf_counter()
        try:
            out = self.call(case, tracer, frame)
            err = None
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            out, err = None, exc
        end = perf_counter()
        if tracer:
            tracer.close(frame, end)
        if err is not None:
            return end - start, f"error:{type(err).__name__}"
        try:
            return end - start, self.check(case, out)
        except (OSError, KeyError, IndexError, ValueError):
            return end - start, "check:output-unreadable"

    def call(self, case, tracer, frame):
        raise NotImplementedError

    def check(self, case, out):
        raise NotImplementedError

    def end_pass(self, reasons: dict) -> None:
        """Checks across the cases of a pass; may set further reasons."""


class InductionPanel(Workload):
    """``anesopt solve --method both`` as a subprocess, one per config."""

    name = "induction-panel"
    case_layer = "process"

    def setup(self):
        super().setup()
        for c in self.cases:
            _write_json(self.workdir / c.id / "config.json",
                        dict(C.cli_config(c, self.problems[c.id]),
                             method="both", step=C.STEP))

    def _solve(self, case, out: Path, extra=(), spans_path=None):
        argv = ["solve", "--config", str(self.workdir / case.id / "config.json"),
                "--out", str(out), *extra]
        if spans_path is None:
            cmd = [sys.executable, "-m", "anesopt", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
                   *argv]
        shutil.rmtree(out, ignore_errors=True)
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.root,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            return proc.wait(timeout=BUDGET_S), False
        except subprocess.TimeoutExpired:
            proc.terminate()
            try:
                proc.wait(timeout=GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            return proc.returncode, True

    def warmup(self):
        case = self.cases[0]
        self._solve(case, self.workdir / "warmup", ("--method", "strategy"))

    def call(self, case, tracer, frame):
        out = self.workdir / case.id / "out"
        spans_path = self.workdir / case.id / "spans.json" if tracer else None
        if spans_path is not None and spans_path.exists():
            spans_path.unlink()
        rc, timed_out = self._solve(case, out, spans_path=spans_path)
        if tracer and spans_path.exists():
            with open(spans_path) as fh:
                tracer.adopt(frame, json.load(fh))
        return out, rc, timed_out

    def check(self, case, result):
        out, rc, timed_out = result
        if timed_out:
            return "budget"
        if rc != 0:
            return f"error:exit{rc}"
        with open(out / "comparison.json") as fh:
            comp = json.load(fh)
        with open(out / "schedule_strategy.json") as fh:
            sched = json.load(fh)
        if comp["switch_structure_match"] is not True:
            return "check:structure"
        if comp["delta_t_f"] > AGREE_TOL or (comp["delta_t_c"] or 0.0) > AGREE_TOL:
            return "check:agreement"
        t_f = sched["t_f"]
        if case.id == "reference" and (
                abs(t_f - REF_T_F) > REF_TOL
                or abs(sched["breakpoints"][0] - REF_T_C) > REF_TOL):
            return "check:reference"
        if self.frozen and _rel(t_f, self.frozen["induction"][case.id]) > FROZEN_RTOL:
            return "check:frozen"
        if self.first.setdefault(case.id, comp) != comp:
            return "check:repeat"
        return None


class StrategyPopulation(Workload):
    """``solve_time_optimal`` in process over the seeded population."""

    name = "strategy-population"

    def warmup(self):
        for c in self.cases[:len(C.RATIOS)]:
            strategies.solve_time_optimal(self.problems[c.id])

    def call(self, case, tracer, frame):
        return strategies.solve_time_optimal(self.problems[case.id])

    def check(self, case, res):
        if not res.feasible or res.schedule is None:
            return "check:feasible"
        sched = res.schedule
        if case.id in self.first:
            return None if self.first[case.id] == sched else "check:repeat"
        self.first[case.id] = sched
        prob = self.problems[case.id]
        if rk_gap(prob, sched) > RK_RTOL:
            return "check:rk-replay"
        if self.frozen and _rel(sched.t_f, self.frozen["population"][case.id]) > FROZEN_RTOL:
            return "check:frozen"
        return None

    def end_pass(self, reasons):
        groups = {}
        for c in self.cases:
            if c.x0_frac == 0.0 and c.id in self.first:
                groups.setdefault((c.patient, c.ratio), []).append(c.id)
        for ids in groups.values():
            t_fs = [self.first[i].t_f for i in ids]
            if (max(t_fs) - min(t_fs)) > HOMOGENEITY_RTOL * max(1.0, max(t_fs)):
                for i in ids:
                    reasons[i] = reasons[i] or "check:homogeneity"


def rk_gap(prob, sched) -> float:
    """Largest relative fast-target miss when ``sched`` is integrated by RK."""
    A, B = prob.sys.A, prob.sys.B
    x = np.array(prob.x0, dtype=float)
    for u, a, b in sched.segments():
        x = lti.integrate(lambda t, y, u=u: A @ y + B * u, x, a, b,
                          tol=1e-12, atol=1e-14).states[-1]
    gap = prob.fast_residual(x)
    return float(np.max(np.abs(gap) / np.maximum(1.0, np.abs(prob.target_fast))))


class Replay(Workload):
    """``anesopt.cli.main(["simulate", ...])`` over kept schedule files."""

    name = "replay"

    def setup(self):
        super().setup()
        self.inputs = {}         # case id -> (config, schedule, step)
        self.input_errors = {}
        self.t_f = {}
        seed0_t_f = load_frozen()["population"]
        for c in self.cases:
            if self.frozen:
                sched_path = DATA / "replay_seed0" / f"{c.id}.json"
            else:
                sched_path = self.workdir / c.id / "schedule.json"
                try:
                    res = strategies.solve_time_optimal(self.problems[c.id])
                except (ValueError, RuntimeError) as exc:
                    self.input_errors[c.id] = f"error:{type(exc).__name__}"
                    continue
                _write_json(sched_path, res.schedule.as_dict())
            with open(sched_path) as fh:
                self.t_f[c.id] = json.load(fh)["t_f"]
            # other seeds scale each case's step by its t_f over the seed-0
            # t_f of the same case, so the case replays as many samples
            step = C.STEP
            if not self.frozen:
                step *= self.t_f[c.id] / seed0_t_f[c.id]
            cfg = self.workdir / c.id / "config.json"
            _write_json(cfg, C.cli_config(c, self.problems[c.id]))
            self.inputs[c.id] = (cfg, sched_path, step)

    def _simulate(self, case, out: Path) -> int:
        cfg, sched, step = self.inputs[case.id]
        argv = ["simulate", "--config", str(cfg), "--out", str(out),
                str(sched), "--step", repr(step)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.main(argv)

    def warmup(self):
        for c in self.cases[:len(C.RATIOS)]:
            if c.id in self.inputs:
                self._simulate(c, self.workdir / "warmup")

    def run(self, case, tracer=None, key=None):
        if case.id in self.input_errors:
            return None, self.input_errors[case.id]
        return super().run(case, tracer, key)

    def call(self, case, tracer, frame):
        out = self.workdir / case.id / "out"
        return out, self._simulate(case, out)

    def check(self, case, result):
        out, rc = result
        if rc != 0:
            return f"error:exit{rc}"
        last = _last_line(out / "simulated.csv")
        if self.first.setdefault(case.id, last) != last:
            return "check:repeat"
        t, x1, _, _, x4 = (float(v) for v in last.split(",")[:5])
        target = self.problems[case.id].target_fast
        if (_rel(t, self.t_f[case.id]) > TARGET_RTOL
                or _rel(x1, target[0]) > TARGET_RTOL
                or _rel(x4, target[1]) > TARGET_RTOL):
            return "check:endpoint"
        return None


def _last_line(path: Path) -> str:
    with open(path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        fh.seek(max(0, fh.tell() - 512))
        return fh.read().decode().rstrip("\n").rsplit("\n", 1)[-1]


WORKLOADS = {w.name: w for w in (InductionPanel, StrategyPopulation, Replay)}
