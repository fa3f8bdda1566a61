"""anesopt benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--out FILE]

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src``. With ``--trace 0`` the last stdout line is a JSON
object with the end-to-end metrics; with ``--trace 1`` the run measures
untraced, then again with tracing wrappers installed, and reports the
per-layer metrics. Lines before it give units, sample counts, failures and
provenance. See README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, namedtuple
from pathlib import Path
from time import perf_counter

import cases

# the system matrices are 4x4 to 8x8: BLAS threads only add jitter
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 9
TAIL_BEYOND = 10

# The host's speed swings by up to 1.5x within a minute, in CPU time as much
# as in wall time, so raw times from two runs are not comparable. After each
# case and each set-up probe the harness times a fixed reference kernel (for
# at least REF_SHARE of the timed call) and scales the times by REF_S over
# the kernel's mean time: ``wall_ref_s`` is the pass's wall time, and
# ``setup_s`` the set-up time, at the host speed where one kernel call takes
# REF_S. REF_S is about the kernel's median time on a shared 2-vCPU Intel
# Xeon host.
REF_S = 0.008
REF_SHARE = 0.05

END_TO_END = {            # name -> unit
    "wall_ref_s": "s",
    "wall_s": "s",
    "case_s.p50": "s",
    "case_s.tail": "s",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed but left out of the result line, because no bound holds them from
# run to run: raw wall_s follows the host's speed swings (wall_ref_s is the
# bounded form); on induction-panel the case times are one case's single
# sample (five cases a pass), and on strategy-population the median case
# depends on the drawn patients (the median per-case propagation count
# spreads by 0.27 across seeds 1-10, the total by 0.07)
PRINTED_ONLY = {"wall_s", "case_s.p50", "case_s.tail"}

# one measured pass: case id -> (seconds or None, reason), and the mean time
# of one reference kernel call made between the pass's cases
Pass = namedtuple("Pass", "cases ref_s")


def _import_program():
    """Import anesopt from this checkout's source tree, or exit 2."""
    if not (SRC / "anesopt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'anesopt'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import anesopt
    if Path(anesopt.__file__).resolve().parent != SRC / "anesopt":
        sys.exit(f"perfbench: imported anesopt from {anesopt.__file__}, "
                 f"not from {SRC}")


def _git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    import numpy as np
    digest = hashlib.sha256()
    for path in sorted((SRC / "anesopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_seconds(workload: str, seed: int, env: dict) -> tuple:
    """Wall times of fresh interpreters that import and build every problem,
    and the mean reference kernel time measured between them."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    inputs = _reference_inputs()
    out, ref_s, ref_calls = [], 0.0, 0
    for _ in range(SETUP_REPS):
        start = perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        out.append(perf_counter() - start)
        spent, calls = reference_after(out[-1], inputs)
        ref_s, ref_calls = ref_s + spent, ref_calls + calls
    return out, ref_s / ref_calls


def _reference_inputs():
    import numpy as np
    rng = np.random.default_rng(0)
    return rng.standard_normal((5, 5)), rng.standard_normal(5), np.eye(5)


def reference(inputs) -> float:
    """Seconds of one fixed call of small numpy linear algebra and Python
    arithmetic, the mix of the program's inner loops; it uses no anesopt
    code, so a change to the program leaves it alone."""
    import numpy as np
    m, v, eye = inputs
    start = perf_counter()
    acc = 0.0
    for k in range(200):
        w = np.linalg.eigvals(m + 1e-3 * k * eye)
        x = np.linalg.solve(m + k * eye, v)
        acc += float(w.real.sum()) + float(x @ x)
        for j in range(20):
            acc += (j * 0.5) ** 0.5
    return perf_counter() - start


def reference_after(seconds: float, inputs) -> tuple:
    """Run the reference kernel once, and on until it has taken REF_SHARE
    of ``seconds``; returns (its total time, its number of calls)."""
    spent, calls = 0.0, 0
    while calls == 0 or spent < REF_SHARE * seconds:
        spent += reference(inputs)
        calls += 1
    return spent, calls


def measure(wl, seconds: float, tracer=None, tag: str = "u") -> list:
    """Whole passes over the case set until ``seconds`` have gone by.

    Returns one :class:`Pass` per pass. The reference kernel runs after
    each case, outside its timed interval.
    """
    inputs = _reference_inputs()
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        k = len(passes)
        res, ref_s, ref_calls = {}, 0.0, 0
        for c in wl.cases:
            res[c.id] = wl.run(c, tracer, f"{tag}{k}:{c.id}")
            spent, calls = reference_after(res[c.id][0] or 0.0, inputs)
            ref_s, ref_calls = ref_s + spent, ref_calls + calls
        reasons = {i: r for i, (_, r) in res.items()}
        wl.end_pass(reasons)
        passes.append(Pass({i: (res[i][0], reasons[i]) for i in res},
                           ref_s / ref_calls))
    return passes


def pass_walls(passes) -> list:
    return [sum(t for t, _ in p.cases.values() if t is not None)
            for p in passes]


def ref_walls(passes) -> list:
    """Pass wall times at the reference host speed.

    A budget failure's time is the budget's wall clock, not work, so it is
    not scaled.
    """
    out = []
    for p in passes:
        speed = REF_S / p.ref_s
        out.append(sum(t if r == "budget" else t * speed
                       for t, r in p.cases.values() if t is not None))
    return out


def failures(passes) -> Counter:
    return Counter(r for p in passes for _, r in p.cases.values() if r)


def tail(times: list):
    """(value, percentile): the slowest case with TAIL_BEYOND cases beyond.

    With too few cases for that, the median stands in (percentile 50).
    """
    n = len(times)
    if n <= TAIL_BEYOND:
        return statistics.median(times), 50.0
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(passes, setup: tuple) -> tuple:
    """End-to-end values (value, sample count) and notes; ``setup`` is what
    :func:`setup_seconds` returns."""
    times = [t for p in passes for t, _ in p.cases.values() if t is not None]
    attempted = sum(len(p.cases) for p in passes)
    failed = sum(failures(passes).values())
    tail_s, tail_pct = tail(times)
    setup_times, setup_ref_s = setup
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    values = {
        "wall_ref_s": (statistics.median(ref_walls(passes)), len(passes)),
        "wall_s": (statistics.median(pass_walls(passes)), len(passes)),
        "case_s.p50": (statistics.median(times), len(times)),
        "case_s.tail": (tail_s, len(times)),
        "ok_share": (1.0 - failed / attempted, attempted),
        "setup_s": (statistics.median(setup_times) * REF_S / setup_ref_s,
                    len(setup_times)),
        "peak_rss_mb": (rss_kb / 1024.0, 1),
    }
    notes = {"case_s.tail": f"p{tail_pct:.1f}",
             "ok_share": f"fail_share {failed}/{attempted}",
             "setup_s": f"raw median {statistics.median(setup_times):.4f} s"}
    return values, notes


def per_layer(tracer, traced, untraced, cost) -> dict:
    """Per-layer metrics per pass: name -> (value, unit)."""
    import tracing
    n = len(traced)
    keys = {f"t{k}:{i}" for k, p in enumerate(traced) for i in p.cases}
    summ = tracing.summarize(tracer.spans, cost, keys)
    by_name = summ["by_name"]

    def get(name):
        return by_name.get(name, {"calls": 0, "s": 0.0, "info": 0, "fevals": 0})

    def us(seconds, calls):
        return 1e6 * seconds / calls if calls else 0.0

    res, rk = get("shooting.residual"), get("lti.rk")
    pat, st = get("strategies.solve_pattern"), get("problem.sample_trajectory")
    leaf_calls = sum(c for c, _ in summ["leaves"].values())
    leaf_s = sum(s for _, s in summ["leaves"].values())
    pat_leaves = summ["leaves"].get("strategies.solve_pattern", (0, 0.0))[0]
    self_s = summ["self_s"]
    traced_wall = statistics.fmean(pass_walls(traced))
    untraced_wall = statistics.fmean(pass_walls(untraced))
    m = {
        "shooting.solve_s": (get("shooting.solve")["s"] / n, "s"),
        "shooting.residual.calls": (res["calls"] / n, "count"),
        "shooting.residual.us": (us(res["s"], res["calls"]), "us"),
        "lti.rk.segments": (rk["calls"] / n, "count"),
        "lti.rk.fevals": (rk["fevals"] / n, "count"),
        "lti.rk.us_per_feval": (us(rk["s"], rk["fevals"]), "us"),
        "lti.propagator.builds": (get("lti.propagator")["calls"] / n, "count"),
        "lti.propagate.calls": (leaf_calls / n, "count"),
        "lti.propagate.us": (us(leaf_s, leaf_calls), "us"),
        "strategies.solve_pattern.calls": (pat["calls"] / n, "count"),
        "strategies.solve_pattern.s": (pat["s"] / n, "s"),
        "strategies.feasible_share": (pat["info"] / pat["calls"]
                                      if pat["calls"] else 0.0, "ratio"),
        "strategies.propagations_per_pattern": (pat_leaves / pat["calls"]
                                                if pat["calls"] else 0.0,
                                                "count"),
        "problem.sample_trajectory.s": (st["s"] / n, "s"),
        "problem.samples": (st["info"] / n, "count"),
        "problem.us_per_sample": (us(st["s"], st["info"]), "us"),
        "cli.main.self_s": (self_s["cli"] / n, "s"),
        "patient.build_s": (tracing.build_time(tracer.spans, {"setup"}), "s"),
    }
    for layer in tracing.LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = (self_s[layer] / n, "s")
    m.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (statistics.fmean(ref_walls(traced))
                             - statistics.fmean(ref_walls(untraced)), "s"),
        "trace.overhead_est_s": (summ["overhead"] / n, "s"),
        "trace.self_sum_s": (sum(self_s.values()) / n, "s"),
    })
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=list(cases.CASES))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result document, "
                    "with the spans of a traced run, here")
    args = ap.parse_args(argv)

    _import_program()
    import workloads

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    workdir = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    doc = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "provenance": provenance()}
    try:
        wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, workdir, env)
        setup = None if args.trace else setup_seconds(args.workload, args.seed, env)
        wl.setup()
        wl.warmup()
        untraced = measure(wl, args.seconds)
        passes = list(untraced)
        if args.trace:
            import tracing
            cost = tracing.calibrate()
            tracer = tracing.Tracer()
            saved = tracing.install(tracer)
            try:
                frame = tracer.open("bench", "setup")
                wl.build_all()
                tracer.close(frame)
                traced = measure(wl, args.seconds, tracer, tag="t")
            finally:
                tracing.uninstall(saved)
            passes += traced
            metrics = per_layer(tracer, traced, untraced, cost)
            notes = {}
            counts = {k: len(traced) for k in metrics}
            doc["calibration_s"] = cost
            doc["spans"] = tracer.spans
        else:
            values, notes = end_to_end(untraced, setup)
            metrics = {k: (v, END_TO_END[k]) for k, (v, _) in values.items()}
            counts = {k: n for k, (_, n) in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass        # another run still uses it

    fails = failures(passes)
    attempted = sum(len(p.cases) for p in passes)
    failed = sum(fails.values())
    correct = not any(r.startswith("check:") for r in fails)
    doc.update({
        "passes": [{"ref_s": p.ref_s,
                    "cases": {i: list(v) for i, v in p.cases.items()}}
                   for p in passes],
        "failures": dict(fails),
        "metrics": {k: {"value": v, "unit": u, "n": counts[k],
                        **({"note": notes[k]} if k in notes else {})}
                    for k, (v, u) in metrics.items()},
    })
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")

    print(f"# {args.workload} seed {args.seed}: {len(untraced)} untraced "
          f"pass(es)" + (f", {len(passes) - len(untraced)} traced"
                         if args.trace else ""))
    print("# provenance " + json.dumps(doc["provenance"]))
    for k, m in doc["metrics"].items():
        print(f"#   {k:<38} {m['value']:>14.6g} {m['unit']:<6} n={m['n']}"
              + (f" ({m['note']})" if "note" in m else "")
              + (" [printed only]" if k in PRINTED_ONLY else ""))
    for reason, count in sorted(fails.items()):
        print(f"# failed {count}x: {reason}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k not in PRINTED_ONLY},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
