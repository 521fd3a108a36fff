"""The telemetry bundle: one registry + one tracer, pluggable anywhere.

``Telemetry`` is what instrumented components hold: the middleware
manager, the resolution service, the constraint checker and the engine
shards all accept one and record through it.  A disabled bundle turns
every hot-path hook into a shared no-op, so un-instrumented runs pay
one attribute check per stage and nothing else.

The canonical instrument names (see docs/observability.md):

* ``repro_stage_seconds{stage=receive|check|resolve|use|deliver|discard}``
  -- per-stage latency histograms, fed by :meth:`Telemetry.stage`;
* ``strategy_discards_total{strategy=...}`` -- discard decisions per
  strategy plug-in;
* ``engine_shard_*_total{shard=...}`` -- the per-shard accounting the
  engine's :class:`~repro.engine.metrics.EngineMetrics` is a view of;
* ``engine_batch_seconds`` -- per-batch resolution latency on a shard.

:meth:`Telemetry.stage` records **both** a span (named ``stage.<name>``,
nested under any open span) and one observation in the stage latency
histogram, so traces and metrics never disagree about what was timed.
"""

from __future__ import annotations

import time
from typing import Dict, Mapping, Optional, Sequence

from .registry import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry
from .tracer import SpanTracer

__all__ = ["Telemetry", "NULL_TELEMETRY", "NULL_HISTOGRAM", "STAGE_HISTOGRAM"]

#: Family name of the per-stage latency histogram.
STAGE_HISTOGRAM = "repro_stage_seconds"


class _StageTimer:
    """Context manager recording one span + one histogram observation.

    The tracer's open/close protocol is inlined here (with the
    per-thread span stack cached after the first entry) so the span
    and the histogram share a single ``perf_counter`` pair, a single
    lock round-trip on the ring and no per-call method dispatch --
    stage timers run several times per context (see the telemetry
    overhead benchmark).  The cached stack pins the timer to the
    thread that first enters it, which is the documented contract:
    one owner component, one thread.
    """

    __slots__ = (
        "_tracer", "_name", "_attrs", "_histogram",
        "_stack", "_start", "_span_id", "_parent_id",
    )

    def __init__(self, tracer, name: str, attrs, histogram: Histogram) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._histogram = histogram
        self._stack = None

    def __enter__(self) -> "_StageTimer":
        tracer = self._tracer
        stack = self._stack
        if stack is None:
            stack = self._stack = tracer._stack()
        self._parent_id = stack[-1] if stack else None
        span_id = next(tracer._ids)
        self._span_id = span_id
        stack.append(span_id)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        self._histogram.observe(duration)
        stack = self._stack
        if stack:
            stack.pop()
        attrs = self._attrs
        if exc_type is not None:
            # Copy before annotating: reusable timers share one attrs
            # dict across all their spans.
            attrs = dict(attrs)
            attrs["error"] = exc_type.__name__
        tracer = self._tracer
        entry = (
            self._name, tracer._wall_base + self._start, duration,
            self._span_id, self._parent_id, attrs,
        )
        with tracer._lock:
            tracer._ring.append(entry)
            tracer.counts[self._name] = tracer.counts.get(self._name, 0) + 1


class _StageObserver:
    """Histogram-only reusable timer: latency without a span.

    The cheapest instrumented tier, for high-frequency wrapper stages
    whose interesting sub-work is already spanned (the engine
    pipeline's receive/use wrappers around the spanned check/resolve/
    deliver stages).
    """

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram

    def __enter__(self) -> "_StageObserver":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


#: Shared attrs dict for attr-less reusable timers; never mutated.
_NO_ATTRS: Dict[str, object] = {}


class _NullTimer:
    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_TIMER = _NullTimer()


class _NullHistogram:
    """Observation sink for disabled bundles (shared, never recorded)."""

    __slots__ = ()
    buckets: tuple = ()
    count = 0
    sum = 0.0

    def observe(self, value: float) -> None:
        return None

    def percentile(self, q: float) -> float:
        return 0.0


#: Shared no-op histogram handed out by disabled bundles.
NULL_HISTOGRAM = _NullHistogram()


class Telemetry:
    """One registry + one tracer; enabled or a cheap no-op.

    ``stage_buckets`` overrides the bucket boundaries of the
    ``repro_stage_seconds`` histograms this bundle creates; the default
    (``None``) keeps :data:`~repro.obs.registry.DEFAULT_LATENCY_BUCKETS`,
    so existing sidecars and process-mode snapshots merge unchanged.
    Latency-sensitive surfaces (the serving front-door) pass
    :data:`~repro.obs.registry.FINE_LATENCY_BUCKETS` for sub-millisecond
    percentile resolution.  The layout is fixed per registry at first
    use -- mixing bundles with different stage buckets over one shared
    registry keeps the first layout (the family contract).
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[SpanTracer] = None,
        ring_size: int = 4096,
        stage_buckets: Optional[Sequence[float]] = None,
    ) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = (
            tracer
            if tracer is not None
            else SpanTracer(enabled=enabled, ring_size=ring_size)
        )
        self.stage_buckets = (
            tuple(float(b) for b in stage_buckets)
            if stage_buckets is not None
            else None
        )
        self._stage_histograms: Dict[str, Histogram] = {}

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A fresh disabled bundle (own registry, no-op hot path)."""
        return cls(enabled=False)

    # -- hot-path hooks -------------------------------------------------------

    def span(self, name: str, **attrs: object):
        """Open a bare span (no histogram); no-op when disabled."""
        return self.tracer.span(name, **attrs)

    def span_timer(self, name: str):
        """A reusable, pre-bound bare span (no histogram).

        Same contract as :meth:`stage_timer`: allocated once at wiring
        time, re-entered per use, never nested inside itself, single-
        threaded.  Returns the shared no-op when disabled.
        """
        if not self.enabled:
            return _NULL_TIMER
        return self.tracer.reusable_span(name)

    def _stage_histogram(self, stage: str) -> Histogram:
        histogram = self._stage_histograms.get(stage)
        if histogram is None:
            histogram = self.registry.histogram(
                STAGE_HISTOGRAM,
                help="Per-stage pipeline latency (seconds)",
                labels={"stage": stage},
                buckets=self.stage_buckets or DEFAULT_LATENCY_BUCKETS,
            )
            self._stage_histograms[stage] = histogram
        return histogram

    def histogram(
        self,
        name: str,
        *,
        labels: Optional[Mapping[str, str]] = None,
        buckets: Optional[Sequence[float]] = None,
        help: str = "",
    ):
        """A registry histogram, or the shared no-op when disabled.

        The bundle-level counterpart of :meth:`count`: components hold
        the returned instrument and ``observe`` into it on the hot path
        without re-checking ``enabled``.  ``buckets`` fixes the
        family's boundaries on first use (later calls reuse them).
        """
        if not self.enabled:
            return NULL_HISTOGRAM
        return self.registry.histogram(
            name,
            help=help,
            labels=labels,
            buckets=buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS,
        )

    def stage(self, stage: str, **attrs: object):
        """Time one pipeline stage: span ``stage.<stage>`` + histogram."""
        if not self.enabled:
            return _NULL_TIMER
        return _StageTimer(
            self.tracer, "stage." + stage, attrs, self._stage_histogram(stage)
        )

    def stage_timer(self, stage: str):
        """A reusable, pre-bound stage timer (the hot-path variant).

        Pipeline components create one per stage at wiring time and
        re-enter it for every context, skipping the per-call histogram
        lookup, kwargs dict and timer allocation that :meth:`stage`
        pays.  The same timer must not be nested inside itself and is
        single-threaded, like the component that owns it.  Returns the
        shared no-op when disabled.
        """
        if not self.enabled:
            return _NULL_TIMER
        return _StageTimer(
            self.tracer, "stage." + stage, _NO_ATTRS,
            self._stage_histogram(stage),
        )

    def stage_observer(self, stage: str):
        """A reusable histogram-only stage timer (no span).

        The cheapest tier: one ``perf_counter`` pair and one histogram
        observation per entry.  Used for high-frequency wrapper stages
        whose spanned sub-stages already tell the tracing story --
        e.g. the engine pipeline's receive/use wrappers.  Same reuse
        contract as :meth:`stage_timer`; no-op when disabled.
        """
        if not self.enabled:
            return _NULL_TIMER
        return _StageObserver(self._stage_histogram(stage))

    def count(
        self,
        name: str,
        amount: float = 1.0,
        *,
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> None:
        """Increment a counter; no-op when disabled."""
        if self.enabled:
            self.registry.counter(name, help=help, labels=labels).inc(amount)

    # -- snapshot / merge -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Queue-/file-safe dict: metrics + span counts + ringed spans."""
        return {
            "metrics": self.registry.snapshot(),
            "trace": self.tracer.snapshot(),
        }

    def merge_snapshot(self, data: Optional[Mapping[str, object]]) -> None:
        """Fold a worker bundle's snapshot into this one."""
        if not isinstance(data, Mapping):
            return
        self.registry.merge_snapshot(data.get("metrics"))  # type: ignore[arg-type]
        self.tracer.merge_snapshot(data.get("trace"))  # type: ignore[arg-type]

    def clear(self) -> None:
        self.registry.clear()
        self.tracer.clear()
        self._stage_histograms.clear()


#: Shared no-op bundle for components that were never given telemetry.
#: Nothing is ever recorded into it (all hooks check ``enabled``), so
#: sharing one instance across the process is safe.
NULL_TELEMETRY = Telemetry(enabled=False)
