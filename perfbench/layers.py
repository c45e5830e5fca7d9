"""Per-layer measurement for the traced run.

The harness times each layer from outside: :func:`install_wrappers` wraps
public functions and methods of the program in ``repro.obs`` spans named
``<layer>:<function>``, next to the spans the program already emits
(``session.*``, ``job.execute``, ``pipeline``, ``stage``, ``refine``,
``ilp.solve``, ``serve.*``).  The wrappers record through ``repro.obs``, so
spans of forked Session workers come back through the existing spill files.

:func:`self_times` turns one repetition's spans into self times that add up
to the repetition's wall time: at every instant the elapsed time goes to
the innermost open spans, split evenly when several run at once (the two
Session workers), and to the ``bench.rep`` root when no other span is open
(the ``unattributed_s`` row).
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.obs.metrics import nearest_rank_percentile

ROOT_SPAN = "bench.rep"
CHECK_SPAN = "bench.check"

#: Layer of each span name the program emits itself.
PROGRAM_LAYERS = {
    "session.run": "exec.session",
    "session.job": "exec.session",
    "job.execute": "exec.session",
    "pipeline": "pipeline",
    "stage": "pipeline",
    "race.branch": "pipeline",
    "refine": "refine",
    "ilp.solve": "ilp.solve",
    "serve.run": "serve.run",
    "serve.simulate": "serve.simulate",
    "serve.execute": "serve.execute",
    "serve.join": "serve.join",
    ROOT_SPAN: "unattributed",
    CHECK_SPAN: "bench.check",
}


def layer_of(name: str) -> str:
    if ":" in name:
        return name.split(":", 1)[0]
    return PROGRAM_LAYERS.get(name, name)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _solve_attrs(args, kwargs, solution) -> dict:
    options = args[1] if len(args) > 1 else kwargs.get("options")
    return {
        "has_solution": bool(solution.has_solution),
        "nodes": int(solution.node_count or 0),
        "mip_gap": solution.mip_gap,
        "time_limit": getattr(options, "time_limit", None),
    }


def _refine_attrs(args, kwargs, result) -> dict:
    return {
        "proposals": result.proposals,
        "accepted": result.accepted,
        "invalid": result.invalid,
    }


#: (module, function, layer, attrs) -- every module binding of the function
#: is replaced, which covers ``from module import function`` call sites.
FUNCTIONS = (
    ("repro.bsp.greedy", "greedy_bsp_schedule", "bsp", None),
    ("repro.bsp.cilk", "cilk_bsp_schedule", "bsp", None),
    ("repro.bsp.etf", "etf_bsp_schedule", "bsp", None),
    ("repro.bsp.dfs", "dfs_bsp_schedule", "bsp", None),
    ("repro.cache.conversion", "two_stage_schedule", "cache", None),
    ("repro.model.validation", "validate_schedule", "model.validate", None),
    ("repro.model.cost", "synchronous_cost", "model.cost", None),
    ("repro.core.extraction", "extract_schedule", "core.extract", None),
    ("repro.ilp", "solve", "ilp.solve", _solve_attrs),
    ("repro.serve.arrivals", "request_pool", "serve.generate", None),
    ("repro.serve.arrivals", "generate_requests", "serve.generate", None),
)

#: (module, class, method, layer, attrs)
METHODS = (
    ("repro.refine.engine", "Refiner", "refine", "refine", _refine_attrs),
    ("repro.core.full_ilp", "MbspIlpBuilder", "build", "core.ilp_build", None),
    ("repro.ilp.model", "IlpModel", "compile", "ilp.compile", None),
    ("repro.exec.session", "Session", "run", "exec.session", None),
    ("repro.serve.service", "ScheduleService", "run", "serve.run", None),
    ("repro.serve.service", "ServiceReport", "slo_summary", "serve.report", None),
    ("repro.serve.service", "ServiceReport", "trace_digest", "serve.report", None),
)

#: Modules whose ``from ... import`` bindings must be patched too.
CALLERS = (
    "repro",
    "repro.model",
    "repro.core",
    "repro.core.two_stage",
    "repro.core.scheduler",
    "repro.refine.engine",
    "repro.pipeline.stages",
    "repro.serve",
    "repro.serve.service",
    "repro.serve.bench",
)


def _wrap(fn: Callable, name: str, attrs: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.trace_span(name, category="bench") as span:
            out = fn(*args, **kwargs)
            if attrs is not None:
                span.set(**attrs(args, kwargs, out))
            return out

    return wrapper


def install_wrappers() -> None:
    """Wrap every measured entry point and check every pipeline result.

    Call once per process, before the traced repetitions; the wrappers cost
    one Python call each while tracing is off.
    """
    for module in CALLERS:
        importlib.import_module(module)
    from repro.exceptions import ScheduleError
    from repro.model.cost import synchronous_cost
    from repro.model.validation import validate_schedule
    from repro.pipeline.pipeline import Pipeline

    def check(result) -> None:
        if result.schedule is None or result.inapplicable:
            return
        with obs.trace_span(CHECK_SPAN, category="bench") as span:
            try:
                validate_schedule(result.schedule)
                cost = synchronous_cost(result.schedule)
            except ScheduleError as exc:
                span.set(ok=False, detail=f"{result.instance_name}: {exc!r}")
                return
            ok = abs(cost - result.cost) <= 1e-9 * max(1.0, abs(cost))
            span.set(
                ok=ok,
                detail="" if ok else f"{result.instance_name}: "
                f"synchronous_cost {cost} != reported {result.cost}",
            )

    pipeline_run = Pipeline.run

    @functools.wraps(pipeline_run)
    def checked_run(self, *args, **kwargs):
        result = pipeline_run(self, *args, **kwargs)
        check(result)
        return result

    Pipeline.run = checked_run

    loaded = [m for n, m in sys.modules.items() if n.startswith("repro")]
    for module_name, function, layer, attrs in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), function)
        wrapper = _wrap(original, f"{layer}:{function}", attrs)
        for module in loaded:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    for module_name, cls_name, method, layer, attrs in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = getattr(cls, method)
        setattr(cls, method, _wrap(original, f"{layer}:{cls_name}.{method}", attrs))


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def _link_jobs(spans, parent, main_pid) -> None:
    """Attach every ``job.execute`` span to the ``session.job`` span that
    dispatched it (same instance, enclosing interval, closest start).

    The Session opens ``session.job`` detached from the thread's span stack,
    so the program records ``job.execute`` as its sibling when the job runs
    inline and as a root in a forked worker."""
    jobs = sorted(
        (s for s in spans.values() if s.pid == main_pid and s.name == "session.job"),
        key=lambda s: s.start,
    )
    taken = set()
    for key in sorted(
        (k for k, s in spans.items() if s.name == "job.execute"),
        key=lambda k: spans[k].start,
    ):
        span = spans[key]
        best = None
        for job in jobs:
            if job.start > span.start + 1e-3:
                break
            if (
                (job.pid, job.span_id) not in taken
                and job.attrs.get("instance") == span.attrs.get("instance")
                and job.start + job.duration >= span.start + span.duration - 1e-3
            ):
                best = job
        if best is not None:
            taken.add((best.pid, best.span_id))
            parent[key] = (best.pid, best.span_id)


def self_times(spans: List[obs.Span], main_pid: int) -> Dict[tuple, float]:
    """Self time of every span of one repetition, keyed by ``(pid, span_id)``.

    The values sum to the duration of the ``bench.rep`` root span.
    """
    by_key = {(s.pid, s.span_id): s for s in spans}
    root = next(k for k, s in by_key.items() if s.name == ROOT_SPAN and s.pid == main_pid)
    parent = {}
    for key, span in by_key.items():
        up = (span.pid, span.parent_id) if span.parent_id is not None else None
        parent[key] = up if up in by_key else None
    _link_jobs(by_key, parent, main_pid)
    for key in by_key:
        if parent[key] is None and key != root:
            parent[key] = root

    t0 = by_key[root].start
    t1 = t0 + by_key[root].duration
    events = []
    for key, span in by_key.items():
        start = max(span.start, t0)
        end = min(span.start + span.duration, t1)
        if end > start:
            events.append((start, 1, key))
            events.append((end, 0, key))
    events.sort()
    active = set()
    open_children: Dict[tuple, int] = defaultdict(int)
    result: Dict[tuple, float] = defaultdict(float)
    previous = t0
    for at, starting, key in events:
        if at > previous and active:
            leaves = [k for k in active if open_children[k] == 0]
            share = (at - previous) / len(leaves)
            for k in leaves:
                result[k] += share
        previous = at
        up = parent[key]
        if starting:
            active.add(key)
            if up is not None:
                open_children[up] += 1
        else:
            active.discard(key)
            if up is not None:
                open_children[up] -= 1
    return result


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
class LayerTable:
    """Self times and counters accumulated over the traced repetitions."""

    def __init__(self) -> None:
        self.reps = 0
        self.wall = 0.0
        self.by_name: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.by_layer: Dict[str, float] = defaultdict(float)
        self.spans: List[obs.Span] = []
        self.check_failures: List[str] = []
        self.checked = 0

    def add(self, spans: List[obs.Span], main_pid: int) -> float:
        """Add one repetition; returns its traced wall time."""
        selfs = self_times(spans, main_pid)
        self.reps += 1
        wall = 0.0
        for span in spans:
            key = (span.pid, span.span_id)
            row = self.by_name[span.name]
            row[0] += 1
            row[1] += selfs.get(key, 0.0)
            row[2] += span.duration
            self.by_layer[layer_of(span.name)] += selfs.get(key, 0.0)
            if span.name == ROOT_SPAN and span.pid == main_pid:
                wall = span.duration
            if span.name == CHECK_SPAN:
                self.checked += 1
                if not span.attrs.get("ok", False):
                    self.check_failures.append(str(span.attrs.get("detail", "")))
        self.wall += wall
        self.spans.extend(spans)
        return wall

    def rows(self) -> List[str]:
        """The self-time table, one row per span name, per repetition."""
        n = max(self.reps, 1)
        lines = [f"{'span':40s} {'layer':16s} {'count':>9s} {'self_s':>10s} {'total_s':>10s}"]
        for name, (count, self_s, total) in sorted(
            self.by_name.items(), key=lambda item: -item[1][1]
        ):
            label = "unattributed_s" if name == ROOT_SPAN else name
            lines.append(
                f"{label:40s} {layer_of(name):16s} {count / n:9.1f} "
                f"{self_s / n:10.4f} {total / n:10.4f}"
            )
        summed = sum(row[1] for row in self.by_name.values())
        lines.append(
            f"{'sum of self times':40s} {'':16s} {'':9s} {summed / n:10.4f} "
            f"{self.wall / n:10.4f} (traced wall)"
        )
        return lines

    def _named(self, name: str) -> List[obs.Span]:
        return [s for s in self.spans if s.name == name]

    def _layer_spans(self, layer: str) -> List[obs.Span]:
        return [s for s in self.spans if ":" in s.name and layer_of(s.name) == layer]

    def metrics(self) -> Dict[str, float]:
        n = max(self.reps, 1)
        layer = lambda name: self.by_layer.get(name, 0.0) / n  # noqa: E731
        calls = lambda name: len(self._layer_spans(name)) / n  # noqa: E731

        refines = self._layer_spans("refine")
        proposals = sum(s.attrs.get("proposals", 0) for s in refines)
        invalid = sum(s.attrs.get("invalid", 0) for s in refines)
        jobs = self._named("session.job")
        job_ms = sorted(s.duration * 1000.0 for s in jobs)
        solves = self._layer_spans("ilp.solve")
        gaps = [s.attrs["mip_gap"] for s in solves if s.attrs.get("mip_gap") is not None]
        overrun = sum(
            max(0.0, s.duration - s.attrs["time_limit"])
            for s in solves
            if s.attrs.get("time_limit") is not None
        )
        simulate = self._named("serve.simulate")
        return {
            "bsp.calls": calls("bsp"),
            "bsp.self_s": layer("bsp"),
            "cache.calls": calls("cache"),
            "cache.self_s": layer("cache"),
            "model.validate.self_s": layer("model.validate"),
            "model.cost.self_s": layer("model.cost"),
            "refine.calls": calls("refine"),
            "refine.self_s": layer("refine"),
            "refine.proposals": proposals / n,
            "refine.accepted": sum(s.attrs.get("accepted", 0) for s in refines) / n,
            "refine.invalid_frac": invalid / proposals if proposals else 0.0,
            "pipeline.self_s": layer("pipeline"),
            "exec.jobs": len(jobs) / n,
            "exec.session.self_s": layer("exec.session"),
            "exec.job.p50_ms": nearest_rank_percentile(job_ms, 50),
            "exec.job.p90_ms": nearest_rank_percentile(job_ms, 90),
            "exec.job.samples": float(len(job_ms)),
            "exec.job.queued_wait_s": sum(
                float(s.attrs.get("queued_wait", 0.0)) for s in jobs
            ) / len(jobs) if jobs else 0.0,
            "core.ilp_build.self_s": layer("core.ilp_build"),
            "ilp.compile.self_s": layer("ilp.compile"),
            "core.extract.self_s": layer("core.extract"),
            "ilp.solve.calls": len(solves) / n,
            "ilp.solve.self_s": layer("ilp.solve"),
            "ilp.solve.overrun_s": overrun / n,
            "ilp.solve.incumbent_frac": (
                sum(1 for s in solves if s.attrs.get("has_solution")) / len(solves)
                if solves else 0.0
            ),
            "ilp.solve.nodes": sum(s.attrs.get("nodes", 0) for s in solves) / n,
            "ilp.solve.mip_gap_mean": sum(gaps) / len(gaps) if gaps else 0.0,
            "serve.generate.self_s": layer("serve.generate"),
            "serve.simulate.self_s": layer("serve.simulate"),
            "serve.execute.self_s": layer("serve.execute"),
            "serve.join.self_s": layer("serve.join"),
            "serve.report.self_s": layer("serve.report"),
            "serve.distinct_jobs": sum(
                s.attrs.get("distinct_jobs", 0) for s in simulate
            ) / n,
            "unattributed_s": layer("unattributed"),
            "bench.check_s": layer("bench.check"),
        }
