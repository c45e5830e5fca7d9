"""Span-based tracer: the substrate of :mod:`repro.obs`.

One process-wide :class:`Tracer` records :class:`Span` records into a
bounded in-memory buffer.  Spans carry thread/process-aware identity
(``pid``/``tid``/per-process ``span_id``), parent chaining via a
per-thread span stack, wall-clock epoch start times (cross-process
comparable, so sharded traces merge into one timeline) and
``perf_counter`` durations.

The hard constraint is zero cost when disabled: :func:`trace_span`
returns a shared no-op scope without allocating, and hot call sites can
guard attribute construction behind :func:`tracing_enabled`.

Cross-process collection uses a *spill directory*: each process appends
its finished spans to ``spans-<pid>.jsonl`` on :func:`flush` (called at
job and session boundaries — worker processes exit via ``os._exit`` so
``atexit`` hooks never run there).  Setting ``REPRO_TRACE`` enables
tracing in every process that imports this module, which is how
spawn-started shard/pool workers join a trace; fork-started workers
inherit the configured tracer and a pid check drops the parent's
buffered spans from the child.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional

ENV_TRACE = "REPRO_TRACE"
"""Env knob: ``1``/``true`` enables tracing; any other non-empty value
enables tracing *and* names the spill directory for cross-process runs."""

DEFAULT_MAX_SPANS = 100_000


@dataclass
class Span:
    """One finished span: a named, timed region with free-form attrs."""

    name: str
    category: str
    span_id: int
    parent_id: Optional[int]
    pid: int
    tid: int
    start: float  # epoch seconds (cross-process comparable)
    duration: float  # seconds (perf_counter delta)
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "category": self.category,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "tid": self.tid,
            "start": self.start,
            "duration": self.duration,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        return cls(
            name=str(data["name"]),
            category=str(data.get("category", "")),
            span_id=int(data["span_id"]),
            parent_id=(
                None if data.get("parent_id") is None else int(data["parent_id"])
            ),
            pid=int(data["pid"]),
            tid=int(data["tid"]),
            start=float(data["start"]),
            duration=float(data["duration"]),
            attrs=dict(data.get("attrs", {})),
        )


class _NullScope:
    """The shared no-op span scope returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


NULL_SCOPE = _NullScope()


class _SpanScope:
    """Context manager for one live span; records it into the tracer on exit.

    *Detached* scopes (an explicit ``parent``) skip the per-thread span
    stack entirely: concurrently-open async spans in one event-loop thread
    would corrupt each other's stack-derived parents, so the Session's job
    lifecycle spans chain to the session span explicitly instead.
    """

    __slots__ = (
        "_tracer", "name", "category", "attrs", "span_id", "parent_id",
        "_t0", "_start", "_detached",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        attrs: Dict[str, object],
        parent: Optional[int] = None,
        detached: bool = False,
    ):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = parent
        self._t0 = 0.0
        self._start = 0.0
        self._detached = detached

    def set(self, **attrs) -> None:
        """Attach attrs discovered mid-span (cost out, winner, ...)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_SpanScope":
        tracer = self._tracer
        tracer._check_pid()
        self.span_id = tracer._next_id()
        if not self._detached:
            stack = tracer._stack()
            self.parent_id = stack[-1] if stack else None
            stack.append(self.span_id)
        self._start = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        tracer = self._tracer
        if not self._detached:
            stack = tracer._stack()
            if stack and stack[-1] == self.span_id:
                stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        tracer._record(
            Span(
                name=self.name,
                category=self.category,
                span_id=self.span_id,
                parent_id=self.parent_id,
                pid=tracer._pid,
                tid=threading.get_ident() & 0xFFFFFFFF,
                start=self._start,
                duration=duration,
                attrs=self.attrs,
            )
        )
        return False


class Tracer:
    """Process-wide span recorder with a bounded buffer and JSONL spill."""

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.enabled = False
        self.spill_dir: Optional[str] = None
        self.max_spans = max_spans
        self._spans: Deque[Span] = deque(maxlen=max_spans)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counter = 0
        self._pid = os.getpid()
        self._spill_handle = None
        self.dropped = 0

    # -- identity ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._counter += 1
            return self._counter

    def _check_pid(self) -> None:
        """Drop state inherited across ``fork``: the parent's buffered
        spans belong to (and are flushed by) the parent process."""
        if os.getpid() != self._pid:
            self._pid = os.getpid()
            self._spans = deque(maxlen=self.max_spans)
            self._local = threading.local()
            self._spill_handle = None
            self.dropped = 0

    # -- recording -----------------------------------------------------
    def span(self, name: str, category: str = "", **attrs) -> _SpanScope:
        return _SpanScope(self, name, category, attrs)

    def span_detached(
        self, name: str, category: str = "", parent: Optional[int] = None, **attrs
    ) -> _SpanScope:
        """A span chained to an explicit parent, outside the thread stack
        (for concurrently-open async spans in one thread)."""
        return _SpanScope(self, name, category, attrs, parent=parent, detached=True)

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(span)

    def current_span_id(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    def drain(self) -> List[Span]:
        """Remove and return every buffered span (local collection path)."""
        with self._lock:
            spans = list(self._spans)
            self._spans.clear()
        return spans

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    # -- spill ---------------------------------------------------------
    def flush(self) -> int:
        """Append buffered spans to the per-pid spill file; returns count.

        No spill directory configured -> spans stay buffered (the local
        exporter drains them directly).
        """
        self._check_pid()
        if self.spill_dir is None:
            return 0
        spans = self.drain()
        if not spans:
            return 0
        path = os.path.join(self.spill_dir, f"spans-{self._pid}.jsonl")
        try:
            with self._lock:
                if self._spill_handle is None:
                    os.makedirs(self.spill_dir, exist_ok=True)
                    self._spill_handle = open(path, "a")
                for span in spans:
                    self._spill_handle.write(
                        json.dumps(span.to_dict(), default=repr, sort_keys=True)
                        + "\n"
                    )
                self._spill_handle.flush()
        except OSError:  # pragma: no cover - spill must never break runs
            return 0
        return len(spans)

    def close(self) -> None:
        self.flush()
        self._close_spill_handle()

    def _close_spill_handle(self) -> None:
        with self._lock:
            if self._spill_handle is not None:
                try:
                    self._spill_handle.close()
                except OSError:  # pragma: no cover
                    pass
                self._spill_handle = None

    def reset(self) -> None:
        """Forget everything (tests / between CLI trace scopes)."""
        self.close()
        with self._lock:
            self._spans.clear()
            self._counter = 0
            self.dropped = 0
        self._local = threading.local()


_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def tracing_enabled() -> bool:
    """Guard for call sites whose attr construction is not free."""
    return _TRACER.enabled


def trace_span(name: str, category: str = "", **attrs):
    """Open a span scope — the shared no-op scope when tracing is off.

    Usage::

        with trace_span("stage", category="pipeline", spec=token) as sp:
            ...
            sp.set(cost_out=cost)
    """
    if not _TRACER.enabled:
        return NULL_SCOPE
    return _TRACER.span(name, category, **attrs)


def trace_span_detached(
    name: str, category: str = "", parent: Optional[int] = None, **attrs
):
    """Like :func:`trace_span` but chained to an explicit ``parent`` span id
    (and kept off the per-thread stack) — for async code that holds several
    spans open concurrently in one thread."""
    if not _TRACER.enabled:
        return NULL_SCOPE
    return _TRACER.span_detached(name, category, parent=parent, **attrs)


def configure_tracing(
    enabled: bool, spill_dir: Optional[str] = None, max_spans: Optional[int] = None
) -> Tracer:
    """Turn tracing on/off process-wide; optionally set the spill directory."""
    if max_spans is not None and max_spans != _TRACER.max_spans:
        _TRACER.max_spans = max_spans
        _TRACER._spans = deque(_TRACER._spans, maxlen=max_spans)
    if spill_dir != _TRACER.spill_dir:
        # the open spill file lives in the old directory
        _TRACER._close_spill_handle()
    _TRACER.spill_dir = spill_dir
    _TRACER.enabled = enabled
    return _TRACER


def flush_observability() -> None:
    """Flush spans (and metrics) to the spill directory, if one is set.

    Called at job/session/worker boundaries: pool and shard workers exit
    via ``os._exit`` after ``_bootstrap``, so ``atexit`` never runs there.
    """
    _TRACER.flush()
    from repro.obs.metrics import metrics

    metrics().flush(_TRACER.spill_dir)


class trace_scope:
    """Context manager enabling tracing for a region (CLI ``--trace``).

    Exports ``REPRO_TRACE=<spill_dir>`` so worker processes started inside
    the scope (spawn *or* fork) join the trace; restores the previous
    configuration and environment on exit, flushing first.
    """

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self.spill_dir = spill_dir
        self._saved: Optional[tuple] = None

    def __enter__(self) -> Tracer:
        self._saved = (_TRACER.enabled, _TRACER.spill_dir, os.environ.get(ENV_TRACE))
        configure_tracing(True, spill_dir=self.spill_dir)
        os.environ[ENV_TRACE] = self.spill_dir if self.spill_dir else "1"
        return _TRACER

    def __exit__(self, *exc) -> bool:
        flush_observability()
        enabled, spill_dir, env = self._saved if self._saved else (False, None, None)
        configure_tracing(enabled, spill_dir=spill_dir)
        if env is None:
            os.environ.pop(ENV_TRACE, None)
        else:
            os.environ[ENV_TRACE] = env
        return False


def read_spill_spans(spill_dir: str) -> List[Span]:
    """Read every span spilled under ``spill_dir`` (all processes)."""
    spans: List[Span] = []
    try:
        names = sorted(os.listdir(spill_dir))
    except OSError:
        return spans
    for name in names:
        if not (name.startswith("spans-") and name.endswith(".jsonl")):
            continue
        try:
            with open(os.path.join(spill_dir, name)) as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        spans.append(Span.from_dict(json.loads(line)))
                    except (ValueError, KeyError, TypeError):
                        continue
        except OSError:  # pragma: no cover - unreadable spill file
            continue
    return spans


def _configure_from_env() -> None:
    value = os.environ.get(ENV_TRACE, "").strip()
    if not value or value.lower() in ("0", "false", "off", "no"):
        return
    if value.lower() in ("1", "true", "on", "yes"):
        configure_tracing(True)
    else:
        configure_tracing(True, spill_dir=value)


_configure_from_env()
