"""In-memory span tracer wrapped around hybridmp's layer boundaries.

``Tracer.install`` replaces, from outside the package, every module
attribute through which one layer calls another (``lq.solve_adjoint_bsde``,
``harness.coupled_forward``, ``pathsim.run_blocks`` and so on) with a
wrapper that records a span: name, start, end, parent span and op id.
The policy class gets the same treatment on ``fit`` and ``__call__``.
Nothing in the package itself is edited, and ``uninstall`` puts every
original attribute back.

Spans stay in memory until the run ends.  ``layer_metrics`` turns them
into per-op self times and counts; a span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field

# (module, attribute, span name).  Each is wrapped wherever the package
# holds a reference to it, so calls made through ``from .x import f``
# names are caught as well.
FUNCTION_SPANS = (
    ("pathsim", "draw_normals", "pathsim.draw_normals"),
    ("pathsim", "draw_uniforms", "pathsim.draw_uniforms"),
    ("pathsim", "simulate_chain", "pathsim.simulate_chain"),
    ("pathsim", "simulate_state", "pathsim.simulate_state"),
    ("pathsim", "cost_from_paths", "pathsim.cost_from_paths"),
    ("pathsim", "estimate_cost", "pathsim.estimate_cost"),
    ("wonham", "coupled_forward", "wonham.coupled_forward"),
    ("wonham", "run_normalized_filter", "wonham.run_normalized_filter"),
    ("wonham", "run_zakai_filter", "wonham.run_zakai_filter"),
    ("wonham", "discrete_bayes_oracle", "wonham.discrete_bayes_oracle"),
    ("wonham", "innovation_forward", "wonham.innovation_forward"),
    ("wonham", "transformed_cost_paths", "wonham.transformed_cost_paths"),
    ("adjoint", "solve_adjoint_bsde", "adjoint.solve_adjoint_bsde"),
    ("adjoint", "gateaux_derivative", "adjoint.gateaux_derivative"),
    ("adjoint", "hamiltonian_direction_value", "adjoint.hamiltonian_direction_value"),
    ("adjoint", "stationarity_report", "adjoint.stationarity_report"),
    ("lq", "solve_lq", "lq.solve_lq"),
    ("lq", "_forward", "lq.forward"),
    ("lq", "_policy_sup_change", "lq.sup_change"),
    ("parallel", "run_blocks", "parallel.run_blocks"),
    ("harness", "run_suite", "harness.run_suite"),
)
METHOD_SPANS = (
    ("lq", "PiecewisePolyPolicy", "fit", "lq.policy_fit"),
    ("lq", "PiecewisePolyPolicy", "__call__", "lq.policy_eval"),
)
PACKAGE_MODULES = ("__init__", "model", "pathsim", "parallel", "wonham",
                   "adjoint", "lq", "harness", "cli")

# Forward passes whose (paths x steps) count as wonham work.
WONHAM_PASSES = ("wonham.coupled_forward", "wonham.run_normalized_filter",
                 "wonham.run_zakai_filter", "wonham.discrete_bayes_oracle",
                 "wonham.innovation_forward")
SELF_TIME_SPANS = (
    "pathsim.draw_normals", "pathsim.draw_uniforms", "pathsim.simulate_chain",
    "pathsim.simulate_state", "pathsim.cost_from_paths",
    *WONHAM_PASSES, "wonham.transformed_cost_paths",
    "adjoint.solve_adjoint_bsde", "adjoint.gateaux_derivative",
    "adjoint.hamiltonian_direction_value", "adjoint.stationarity_report",
    "lq.policy_fit", "lq.sup_change", "lq.policy_eval", "lq.solve_lq",
    "harness.run_suite",
)

# name -> unit; the order is the order of the printed report.  The
# self-test checks these against BENCHMARK.json.
LAYER_METRICS = {
    **{f"{name}.self_s": "s" for name in SELF_TIME_SPANS},
    "pathsim.rng_streams": "count",
    "wonham.path_steps": "count",
    "wonham.path_steps_per_busy_s": "1/s",
    "wonham.clamp_events": "count",
    "adjoint.solve_adjoint_bsde.calls": "count",
    "adjoint.regression_steps": "count",
    "adjoint.full_rank_ratio": "ratio",
    "lq.iterations": "count",
    "lq.iteration_p50_s": "s",
    "lq.policy_eval.calls": "count",
    "lq.solve_lq.child_coverage": "ratio",
    "parallel.blocks": "count",
    "parallel.block_busy_s": "s",
    "parallel.efficiency": "ratio",
    "harness.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.spans": "count",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    info: dict = field(default_factory=dict)


def _path_steps(result) -> int:
    """paths x steps of a forward pass, read from the array it returns."""
    for attr in ("bundle", "states", "probs"):
        if hasattr(result, attr):
            result = getattr(result, attr)
            if attr == "bundle":
                result = result.states
            break
    return int(result.shape[0]) * (int(result.shape[1]) - 1)


def _clamp_events(result) -> int:
    fpath = getattr(result, "filter_path", result)
    return int(getattr(fpath, "clamp_events", 0))


class Tracer:
    """Collects spans for the calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.rng_streams: dict[int | None, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, info_fn=None):
        stack = self._stack()
        span = Span(next(self._ids), name, 0.0, 0.0,
                    stack[-1] if stack else None, self.op)
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        if info_fn is not None:
            span.info = info_fn(result, args, kwargs)
        return result

    def wrap(self, name, fn, info_fn=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs, info_fn)
        return traced

    def _wrap_run_blocks(self, fn):
        """run_blocks span whose blocks, on any thread, are its children."""

        @functools.wraps(fn)
        def run_blocks(block_fn, n_total, *args, **kwargs):
            def call(*inner_args, **inner_kwargs):
                parent = self._stack()[-1]

                def block(offset, count):
                    stack = self._stack()
                    saved = stack[:]
                    stack[:] = [parent]
                    try:
                        return self._call("parallel.block", block_fn,
                                          (offset, count), {})
                    finally:
                        stack[:] = saved
                return fn(block, *inner_args, **inner_kwargs)

            workers = kwargs.get("workers", args[1] if len(args) > 1 else 1)
            return self._call("parallel.run_blocks", call, (n_total, *args),
                              kwargs, lambda r, a, k: {"workers": int(workers)})
        return run_blocks

    def _count_rng(self, fn):
        @functools.wraps(fn)
        def path_rng(*args, **kwargs):
            with self._lock:
                self.rng_streams[self.op] = self.rng_streams.get(self.op, 0) + 1
            return fn(*args, **kwargs)
        return path_rng

    # -- installing -------------------------------------------------------

    def _replace_everywhere(self, modules, orig, new) -> None:
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._patched.append((mod, key, orig))
                    setattr(mod, key, new)

    def install(self) -> None:
        import importlib

        modules = [importlib.import_module("hybridmp" if m == "__init__"
                                           else f"hybridmp.{m}")
                   for m in PACKAGE_MODULES]
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        info = {name: (lambda r, a, k: {"path_steps": _path_steps(r),
                                        "clamp_events": _clamp_events(r)})
                for name in WONHAM_PASSES}
        info["adjoint.solve_adjoint_bsde"] = lambda r, a, k: {
            "ranks": [int(v) for v in r.ranks],
            "n_terms": _n_terms(r.basis_degree),
        }
        for module, attr, name in FUNCTION_SPANS:
            orig = getattr(by_name[module], attr)
            new = (self._wrap_run_blocks(orig) if name == "parallel.run_blocks"
                   else self.wrap(name, orig, info.get(name)))
            self._replace_everywhere(modules, orig, new)
        pathsim = by_name["pathsim"]
        self._patched.append((pathsim, "path_rng", pathsim.path_rng))
        pathsim.path_rng = self._count_rng(pathsim.path_rng)
        for module, cls_name, attr, name in METHOD_SPANS:
            cls = getattr(by_name[module], cls_name)
            raw = cls.__dict__[attr]
            self._patched.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    # -- reading ----------------------------------------------------------

    def to_json(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "op": s.op, "info": s.info}
                for s in self.spans]


def _n_terms(degree: int) -> int:
    from hybridmp.adjoint import PolyBasis

    return PolyBasis(degree).n_terms


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [(max(lo, s.start), min(hi, s.end))
                for lo, hi in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def nesting_errors(spans: list[Span], slack: float = 1e-6) -> list[str]:
    """Children must lie inside their parent's interval and share its op."""
    by_id = {s.id: s for s in spans}
    errors = []
    for s in spans:
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            errors.append(f"{s.name} #{s.id}: parent #{s.parent} missing")
        elif s.start < p.start - slack or s.end > p.end + slack:
            errors.append(f"{s.name} #{s.id} leaves {p.name} #{p.id}")
        elif s.op != p.op:
            errors.append(f"{s.name} #{s.id}: op {s.op} under op {p.op}")
    return errors


def layers_seen(spans: list[Span]) -> set[str]:
    return {s.name.partition(".")[0] for s in spans}


def _op_metrics(spans: list[Span], selfs: dict[int, float], rng_streams: int) -> dict:
    m = {name: 0.0 for name in LAYER_METRICS}
    for s in spans:
        key = f"{s.name}.self_s"
        if key in m:
            m[key] += selfs[s.id]
    passes = [s for s in spans if s.name in WONHAM_PASSES]
    m["pathsim.rng_streams"] = rng_streams
    m["wonham.path_steps"] = sum(s.info.get("path_steps", 0) for s in passes)
    busy = sum(selfs[s.id] for s in passes)
    m["wonham.path_steps_per_busy_s"] = m["wonham.path_steps"] / busy if busy else 0.0
    m["wonham.clamp_events"] = sum(s.info.get("clamp_events", 0) for s in passes)

    bsde = [s for s in spans if s.name == "adjoint.solve_adjoint_bsde"]
    ranks = [(r, s.info["n_terms"]) for s in bsde for r in s.info.get("ranks", ())]
    m["adjoint.solve_adjoint_bsde.calls"] = len(bsde)
    m["adjoint.regression_steps"] = len(ranks)
    m["adjoint.full_rank_ratio"] = (sum(r == n for r, n in ranks) / len(ranks)
                                    if ranks else 0.0)

    solves = [s for s in spans if s.name == "lq.solve_lq"]
    iteration_s = []
    m["lq.iterations"] = 0
    for solve in solves:
        # One forward pass per iteration, then one for the certificate;
        # counted from the trace so a solve that raises NonConvergence
        # still reports its iterations.
        starts = sorted(s.start for s in spans
                        if s.name == "lq.forward" and s.parent == solve.id)
        m["lq.iterations"] += max(0, len(starts) - 1)
        iteration_s += [b - a for a, b in zip(starts, starts[1:])]
    m["lq.iteration_p50_s"] = statistics.median(iteration_s) if iteration_s else 0.0
    m["lq.policy_eval.calls"] = sum(s.name == "lq.policy_eval" for s in spans)
    solve_wall = sum(s.end - s.start for s in solves)
    m["lq.solve_lq.child_coverage"] = (1.0 - m["lq.solve_lq.self_s"] / solve_wall
                                       if solve_wall else 0.0)

    blocks = [s for s in spans if s.name == "parallel.block"]
    m["parallel.blocks"] = len(blocks)
    m["parallel.block_busy_s"] = sum(s.end - s.start for s in blocks)
    capacity = 0.0
    for rb in (s for s in spans if s.name == "parallel.run_blocks"):
        n_blocks = sum(b.parent == rb.id for b in blocks)
        workers = max(1, min(rb.info.get("workers", 1), n_blocks))
        capacity += workers * (rb.end - rb.start)
    m["parallel.efficiency"] = m["parallel.block_busy_s"] / capacity if capacity else 0.0
    m["trace.spans"] = len(spans)
    return m


def layer_metrics(tracer: Tracer, op_walls: list[float], op_bytes: list[int]) -> dict:
    """Median over ops of each per-op layer metric."""
    selfs = self_times(tracer.spans)
    by_op: dict[int | None, list[Span]] = {}
    for s in tracer.spans:
        by_op.setdefault(s.op, []).append(s)
    per_op = []
    for op, (wall, nbytes) in enumerate(zip(op_walls, op_bytes)):
        m = _op_metrics(by_op.get(op, []), selfs, tracer.rng_streams.get(op, 0))
        m["harness.bytes_written"] = nbytes
        m["trace.wall_s"] = wall
        per_op.append(m)
    return {name: statistics.median(m[name] for m in per_op) for name in LAYER_METRICS}
