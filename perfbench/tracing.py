"""Span tracer for the traced benchmark run.

Wrappers are installed on the module attributes that callers look up (for
example ``anesopt.shooting.shooting_residual``) and removed afterwards; the
untraced runs never import this module. Spans live in memory until the run
ends. Each finished span is a list

    [id, parent_id, name, case, start, end, child_s, n_spans, n_leaves,
     leaf_s, fevals, info]

where ``child_s`` is the time covered by child spans, ``n_leaves`` and
``leaf_s`` aggregate the leaf calls made directly under the span (the
propagation step maps, too many to keep one by one), ``fevals`` counts the
right-hand-side evaluations of an RK segment and ``info`` is a per-name
detail (pattern feasibility, sample count).

A span's self time is its duration minus its children and leaves, minus the
wrapper cost those children added inside it (calibrated per call), so the
layers' self times add up to the traced wall time less that overhead.
"""
from __future__ import annotations

import statistics
from time import perf_counter

# span name -> layer: the package module that defines the traced function;
# "bench" is harness glue around an in-process case, "process" the start-up
# and tear-down of a CLI subprocess
LAYERS = ("cli", "patient", "problem", "strategies", "shooting", "lti",
          "process", "bench")
BUILD_SPANS = ("patient.schnider_parameters", "problem.build_problem",
               "lti.from_matrices")


class Budget(BaseException):
    """Raised inside a traced child process when its case budget expires."""


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.case = None
        self._ids = 0

    def _new_id(self) -> int:
        self._ids += 1
        return self._ids

    # -- frames -------------------------------------------------------------
    # frame: [id, name, start, child_s, n_spans, n_leaves, leaf_s, fevals]

    def open(self, name: str, case):
        """Open a root frame for one case; returns it for :meth:`close`."""
        self.case = case
        frame = [self._new_id(), name, perf_counter(), 0.0, 0, 0, 0.0, 0]
        self.stack.append(frame)
        return frame

    def close(self, frame, end=None):
        end = perf_counter() if end is None else end
        self.stack.pop()
        self.spans.append([frame[0], None, frame[1], self.case, frame[2], end,
                           frame[3], frame[4], frame[5], frame[6], frame[7],
                           None])
        self.case = None

    def adopt(self, frame, child: dict) -> None:
        """Graft a child process's spans under ``frame``."""
        base = self._ids
        root = child["root"]
        for s in child["spans"]:
            s[0] += base
            s[1] = frame[0] if s[1] == root["id"] else s[1] + base
            s[3] = self.case
            self.spans.append(s)
        self._ids = base + child["max_id"]
        frame[3] += root["child_s"]
        frame[4] += root["n_spans"]

    def export(self, frame) -> dict:
        """The spans under the root ``frame`` as a JSON-ready document."""
        return {"spans": self.spans, "max_id": self._ids,
                "root": {"id": frame[0], "child_s": frame[3],
                         "n_spans": frame[4]}}

    # -- wrappers -------------------------------------------------------------

    def span(self, name: str, fn, info=None, post=None, rhs_arg=None):
        """Wrap ``fn`` so each call inside a case records a span.

        ``info(result)`` fills the span's detail, ``post(result)`` replaces
        the result (used to wrap returned step maps), and ``rhs_arg`` names
        the positional index of a right-hand side to count evaluations of.
        """
        stack = self.stack
        spans = self.spans

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            frame = [self._new_id(), name, 0.0, 0.0, 0, 0, 0.0, 0]
            if rhs_arg is not None:
                args = list(args)
                args[rhs_arg] = _counting(args[rhs_arg], frame)
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                parent = stack[-1]
                parent[3] += end - start
                parent[4] += 1
                rec = [frame[0], parent[0], name, self.case, start, end,
                       frame[3], frame[4], frame[5], frame[6], frame[7], None]
                spans.append(rec)
            if info is not None:
                rec[11] = info(out)
            return post(out) if post is not None else out

        return traced

    def leaf(self, fn):
        """Wrap a hot leaf call: counted and timed into the enclosing frame."""
        stack = self.stack

        def traced(*args):
            start = perf_counter()
            out = fn(*args)
            dt = perf_counter() - start
            if stack:
                frame = stack[-1]
                frame[5] += 1
                frame[6] += dt
            return out

        return traced


def _counting(f, frame):
    def rhs(t, y):
        frame[7] += 1
        return f(t, y)
    return rhs


# -- installation --------------------------------------------------------------

def _plan(tracer: Tracer):
    """(owner, attribute, replacement) for every traced lookup site."""
    import anesopt.cli as cli
    import anesopt.patient as patient
    import anesopt.problem as problem
    import anesopt.shooting as shooting
    import anesopt.strategies as strategies
    from anesopt.lti import LTISystem

    span = tracer.span

    def samples(traj):
        return len(traj.times)

    def feasible(result):
        return bool(result.feasible)

    def propagator(owner):
        return span("lti.propagator", owner.constant_input_propagator,
                    post=tracer.leaf)

    out = [
        (cli, "main", span("cli.main", cli.main)),
        (cli, "solve_shooting", span("shooting.solve", cli.solve_shooting)),
        (shooting, "shooting_residual",
         span("shooting.residual", shooting.shooting_residual)),
        (shooting, "integrate_with_sign_event",
         span("lti.rk", shooting.integrate_with_sign_event, rhs_arg=0)),
        (strategies, "solve_pattern",
         span("strategies.solve_pattern", strategies.solve_pattern,
              info=feasible)),
        (strategies, "constant_input_propagator", propagator(strategies)),
        (problem, "constant_input_propagator", propagator(problem)),
    ]
    for owner in (cli, strategies):
        out.append((owner, "solve_time_optimal",
                    span("strategies.solve_time_optimal",
                         owner.solve_time_optimal)))
    for owner in (cli, problem):
        out.append((owner, "sample_trajectory",
                    span("problem.sample_trajectory", owner.sample_trajectory,
                         info=samples)))
        out.append((owner, "build_problem",
                    span("problem.build_problem", owner.build_problem)))
    for owner in (cli, patient):
        out.append((owner, "schnider_parameters",
                    span("patient.schnider_parameters",
                         owner.schnider_parameters)))
    from_matrices = LTISystem.__dict__["from_matrices"].__func__
    out.append((LTISystem, "from_matrices",
                classmethod(span("lti.from_matrices", from_matrices))))
    return out


def install(tracer: Tracer):
    """Install the wrappers; returns the undo list for :func:`uninstall`."""
    saved = []
    for owner, attr, new in _plan(tracer):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)
    return saved


def uninstall(saved) -> None:
    for owner, attr, old in reversed(saved):
        setattr(owner, attr, old)


# -- calibration -----------------------------------------------------------------

def _noop(*args):
    return None


def calibrate(reps: int = 7, n: int = 20000) -> dict:
    """Per-call cost each wrapper kind adds to its caller, in seconds."""
    def loop(fn, args):
        start = perf_counter()
        for _ in range(n):
            fn(*args)
        return (perf_counter() - start) / n

    costs = {"span": [], "leaf": [], "feval": []}
    for _ in range(reps):
        t = Tracer()
        frame = t.open("bench", None)
        bare = loop(_noop, (0.0, None))
        costs["span"].append(loop(t.span("cal", _noop), (0.0, None)) - bare)
        costs["leaf"].append(loop(t.leaf(_noop), (0.0, None)) - bare)
        costs["feval"].append(loop(_counting(_noop, frame), (0.0, None)) - bare)
        t.close(frame)
    return {k: max(statistics.median(v), 0.0) for k, v in costs.items()}


# -- aggregation -----------------------------------------------------------------

def summarize(spans, cost: dict, cases: set) -> dict:
    """Totals over the spans of ``cases``: per-layer self time and counters."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    overhead = 0.0
    by_name = {}
    leaves = {}
    for (_, _, name, case, start, end, child_s, n_spans, n_leaves, leaf_s,
         fevals, info) in spans:
        if case not in cases:
            continue
        over = (n_spans * cost["span"] + n_leaves * cost["leaf"]
                + fevals * cost["feval"])
        dur = end - start
        self_s[name.split(".", 1)[0]] += dur - child_s - leaf_s - over
        self_s["lti"] += leaf_s
        overhead += over
        acc = by_name.setdefault(name, {"calls": 0, "s": 0.0, "info": 0,
                                        "fevals": 0})
        acc["calls"] += 1
        acc["s"] += dur
        acc["fevals"] += fevals
        if info is not None:
            acc["info"] += int(info)
        lv = leaves.setdefault(name, [0, 0.0])
        lv[0] += n_leaves
        lv[1] += leaf_s
    return {"self_s": self_s, "overhead": overhead, "by_name": by_name,
            "leaves": leaves}


def build_time(spans, cases: set) -> float:
    """Time in the outermost problem-building calls of ``cases``."""
    ids = {s[0]: s for s in spans if s[3] in cases}
    out = 0.0
    for s in ids.values():
        parent = ids.get(s[1])
        if s[2] in BUILD_SPANS and not (parent and parent[2] in BUILD_SPANS):
            out += s[5] - s[4]
    return out
