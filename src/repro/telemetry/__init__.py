"""Unified observability: tracing spans, a metrics registry, profiling hooks.

One :class:`Telemetry` object bundles the three pillars — a
:class:`~repro.telemetry.tracing.Tracer`, a
:class:`~repro.telemetry.metrics.MetricsRegistry`, and the opt-in profiling
switches — behind a process-global handle (:func:`get_telemetry`).  Every
instrumented call site asks that handle for a span / counter / gauge /
histogram at the moment of use; when telemetry is disabled (the default) the
handle returns shared no-op singletons, so the off-path cost is one attribute
check plus one branch — cheap enough that instrumentation lives permanently
in the hot paths of ingest, training, evaluation and serving (the
``bench_telemetry_overhead`` CI gate holds it within 2% of an uninstrumented
baseline).

Enablement flows from the ``[telemetry]`` knob section
(:mod:`repro.api.schema`): the spec/CLI/env knobs land in
``ExperimentSpec.telemetry``, the pipeline ``Runner`` reads it and calls
:func:`configure`, and every layer below simply uses ``get_telemetry()``.
Crucially, the telemetry section never perturbs spec fingerprints and the
instrumented code paths never branch on telemetry state in a way that
touches numerics — a traced run is bit-identical to an untraced one.

For tests and pool workers, :func:`scoped` swaps in a fresh instance for the
duration of a ``with`` block, so concurrent tasks cannot cross-contaminate
counts.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Sequence

from .metrics import (
    DEFAULT_TIME_BUCKETS,
    OCCUPANCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .profiling import peak_rss_bytes, profile_block, rss_bytes
from .tracing import (
    Span,
    Tracer,
    chrome_trace,
    read_trace_jsonl,
    write_chrome_trace,
    write_trace_jsonl,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Telemetry",
    "Tracer",
    "DEFAULT_TIME_BUCKETS",
    "OCCUPANCY_BUCKETS",
    "SIZE_BUCKETS",
    "chrome_trace",
    "configure",
    "get_telemetry",
    "peak_rss_bytes",
    "profile_block",
    "read_trace_jsonl",
    "rss_bytes",
    "scoped",
    "write_chrome_trace",
    "write_trace_jsonl",
]


# -- no-op singletons (the disabled fast path) -------------------------------
class _NullSpan:
    __slots__ = ()

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class _NullCounter:
    __slots__ = ()

    def add(self, amount: int = 1) -> None:
        return None


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        return None


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        return None


_NULL_SPAN = _NullSpan()
_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class Telemetry:
    """The per-process bundle of tracer + registry + profiling switches."""

    def __init__(self, enabled: bool = False, profile: bool = False) -> None:
        self.enabled = bool(enabled)
        self.profile = bool(profile)
        self.registry = MetricsRegistry()
        self.tracer = Tracer()

    # -- instrumentation surface (null objects when disabled) --------------
    def span(self, name: str, **attrs: Any):
        if not self.enabled:
            return _NULL_SPAN
        return self.tracer.span(name, **attrs)

    def counter(self, name: str):
        if not self.enabled:
            return _NULL_COUNTER
        return self.registry.counter(name)

    def gauge(self, name: str):
        if not self.enabled:
            return _NULL_GAUGE
        return self.registry.gauge(name)

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BUCKETS):
        if not self.enabled:
            return _NULL_HISTOGRAM
        return self.registry.histogram(name, bounds)

    # -- aggregation --------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """The metrics snapshot (JSON-safe, mergeable — see metrics module)."""
        return self.registry.snapshot()

    def trace_records(self):
        """Finished span records, including absorbed worker spans."""
        return self.tracer.records()

    def absorb_worker_payload(self, payload: Optional[Dict[str, Any]]) -> None:
        """Fold a worker's ``{"metrics": ..., "spans": ...}`` payload in."""
        if not payload:
            return
        metrics = payload.get("metrics")
        if metrics:
            self.registry.merge_snapshot(metrics)
        spans = payload.get("spans")
        if spans:
            self.tracer.absorb(spans)

    def worker_payload(self) -> Dict[str, Any]:
        """The mirror of :meth:`absorb_worker_payload`, built on the worker."""
        return {"metrics": self.snapshot(), "spans": self.trace_records()}


#: The process-global handle every call site reads at the moment of use.
_current = Telemetry()


def get_telemetry() -> Telemetry:
    return _current


def configure(
    enabled: Optional[bool] = None, profile: Optional[bool] = None
) -> Telemetry:
    """Flip switches on the current global instance (None = leave as is)."""
    if enabled is not None:
        _current.enabled = bool(enabled)
    if profile is not None:
        _current.profile = bool(profile)
    return _current


@contextmanager
def scoped(telemetry: Optional[Telemetry] = None) -> Iterator[Telemetry]:
    """Swap the global instance for a block (fresh one by default).

    Pool workers wrap each task in ``scoped(Telemetry(enabled=True))`` so the
    returned payload covers exactly that task; tests use it for isolation.
    """
    global _current
    previous = _current
    _current = telemetry if telemetry is not None else Telemetry()
    try:
        yield _current
    finally:
        _current = previous
