"""Which program calls the traced run wraps, and the per-layer metrics.

Each ``install_*`` function wraps the public calls of one group of
layers with :class:`~perfbench.tracer.Tracer` spans.  Span names follow
the per-layer metric names of :mod:`perfbench.catalogue`; hooks keep the
counts those metrics need (pool size at each add, detect hits, rows per
``detect_batch``, ...).  :func:`layer_metrics` turns a finished trace
into the per-layer metric values.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import repro.engine.facade as facade
import repro.engine.shard as shard_module
import repro.engine.stream as stream_module
import repro.runtime.batch as batch_module
from repro.constraints.checker import ConstraintChecker
from repro.core.resolver import ResolutionService
from repro.core.strategy import make_strategy
from repro.engine.router import ContextRouter
from repro.engine.supervisor import ShardSupervisor
from repro.ledger.writer import LedgerWriter
from repro.middleware.bus import EventBus
from repro.runtime.pipeline import ResolutionPipeline
from repro.runtime.scheduler import UseScheduler

from .tracer import Tracer, TraceTable

__all__ = [
    "install_core",
    "install_engine_parent",
    "layer_metrics",
]


def install_core(tracer: Tracer, strategy: str) -> None:
    """runtime, core, constraints and middleware layers (in-process)."""
    for module in (batch_module, stream_module, shard_module):
        tracer.wrap(module, "receive_batch", "runtime.batch")

    def on_plan(args, _kwargs, _result):
        tracer.count("planned_rows", len(args[0].rows))

    def on_take(_args, _kwargs, result):
        if result is not None:
            tracer.count("planned_takes")

    planner = batch_module._BatchDetectPlanner
    tracer.wrap(planner, "plan", "runtime.batch.plan", on_plan)
    tracer.wrap(planner, "take", "runtime.batch.take", on_take)

    def on_add(args, _kwargs, _result):
        size = len(args[0].pool)
        tracer.count("adds")
        tracer.count("pool_size_sum", size)
        tracer.peak("pool_size", size)

    def on_expire(_args, _kwargs, result):
        tracer.count("expired", len(result))

    tracer.wrap(ResolutionPipeline, "add", "runtime.add", on_add)
    tracer.wrap(ResolutionPipeline, "use", "runtime.use")
    tracer.wrap(ResolutionPipeline, "expire_due", "runtime.expire", on_expire)
    for method in ("schedule", "pop_due", "discard"):
        tracer.wrap(UseScheduler, method, "runtime.schedule")

    tracer.wrap(ResolutionService, "handle_addition", "core.resolver.add")
    tracer.wrap(ResolutionService, "handle_use", "core.resolver.use")
    strategy_class = type(make_strategy(strategy))
    tracer.wrap(strategy_class, "on_context_added", "core.strategy.add")
    tracer.wrap(strategy_class, "on_context_used", "core.strategy.use")

    def on_detect(args, _kwargs, result):
        tracer.count("scope_len_sum", len(args[2]))
        if result:
            tracer.count("detect_hits")

    def on_detect_batch(args, _kwargs, _result):
        tracer.count("batch_rows", len(args[1]))
        tracer.count("batch_scope_len_sum", len(args[2]) * len(args[1]))

    tracer.wrap(ConstraintChecker, "detect", "constraints.detect", on_detect)
    tracer.wrap(
        ConstraintChecker, "detect_batch", "constraints.detect_batch", on_detect_batch
    )
    tracer.wrap(ConstraintChecker, "forget", "constraints.forget")
    tracer.wrap(EventBus, "publish", "middleware.bus.publish")


def install_engine_parent(tracer: Tracer) -> None:
    """Parent-side engine and ledger layers of a sharded run."""
    tracer.wrap(ContextRouter, "route", "engine.route")
    tracer.wrap(ShardSupervisor, "_pump", "engine.feed")
    tracer.wrap(ShardSupervisor, "_service", "engine.feed")
    tracer.wrap(ShardSupervisor, "_drain_acks", "engine.wait")
    tracer.wrap(ShardSupervisor, "_spawn", "engine.spawn")
    tracer.wrap(facade, "merge_events", "engine.merge")
    tracer.wrap(facade, "entries_from_events", "ledger.build")
    tracer.wrap(facade, "merge_segments", "ledger.build")
    tracer.wrap(LedgerWriter, "append_many", "ledger.write")
    tracer.wrap(LedgerWriter, "close", "ledger.write")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tables: Iterable[TraceTable],
    tracers: Iterable[Tracer],
    contexts: int,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Per-layer metric values from one or more traces of a workload.

    Several traces (the parent-side and the worker-side run of a
    sharded workload) are summed span by span.
    """
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for table in tables:
        for row in table.rows:
            self_s[row.name] = self_s.get(row.name, 0.0) + row.self_s
            total_s[row.name] = total_s.get(row.name, 0.0) + row.total_s
            calls[row.name] = calls.get(row.name, 0) + row.count
    counters: Dict[str, float] = {}
    peaks: Dict[str, float] = {}
    for tracer in tracers:
        for key, value in tracer.counters.items():
            counters[key] = counters.get(key, 0.0) + value
        for key, value in tracer.maxima.items():
            peaks[key] = max(peaks.get(key, 0.0), value)
    detect_calls = calls.get("constraints.detect", 0)
    planned = counters.get("planned_takes", 0.0)
    if detect_calls:
        scope_mean = _ratio(counters.get("scope_len_sum", 0.0), detect_calls)
    else:
        scope_mean = _ratio(
            counters.get("batch_scope_len_sum", 0.0),
            counters.get("batch_rows", 0.0),
        )
    metrics = {
        "runtime.add.self_s": self_s.get("runtime.add", 0.0),
        "runtime.use.self_s": self_s.get("runtime.use", 0.0),
        "runtime.expire.s": total_s.get("runtime.expire", 0.0),
        "runtime.expire.count": counters.get("expired", 0.0),
        "runtime.schedule.s": total_s.get("runtime.schedule", 0.0),
        "runtime.schedule.calls": float(calls.get("runtime.schedule", 0)),
        "runtime.batch.self_s": self_s.get("runtime.batch", 0.0)
        + self_s.get("runtime.batch.plan", 0.0)
        + self_s.get("runtime.batch.take", 0.0),
        "runtime.batch.planned_share": _ratio(planned, planned + detect_calls),
        "runtime.batch.replan_rows": max(
            0.0, counters.get("planned_rows", 0.0) - planned
        ),
        "core.resolver.add.self_s": self_s.get("core.resolver.add", 0.0),
        "core.resolver.scope_len_mean": scope_mean,
        "core.resolver.use.self_s": self_s.get("core.resolver.use", 0.0),
        "core.strategy.add.s": total_s.get("core.strategy.add", 0.0),
        "core.strategy.use.s": total_s.get("core.strategy.use", 0.0),
        "constraints.detect.s": total_s.get("constraints.detect", 0.0),
        "constraints.detect.calls": float(detect_calls),
        "constraints.detect.hit_share": _ratio(
            counters.get("detect_hits", 0.0), detect_calls
        ),
        "constraints.detect_batch.s": total_s.get("constraints.detect_batch", 0.0),
        "constraints.detect_batch.rows": counters.get("batch_rows", 0.0),
        "constraints.forget.s": total_s.get("constraints.forget", 0.0),
        "middleware.bus.publish.s": total_s.get("middleware.bus.publish", 0.0),
        "middleware.bus.events_per_ctx": _ratio(
            calls.get("middleware.bus.publish", 0), contexts
        ),
        "middleware.pool.size_mean": _ratio(
            counters.get("pool_size_sum", 0.0), counters.get("adds", 0.0)
        ),
        "middleware.pool.size_max": peaks.get("pool_size", 0.0),
        "engine.route.s": total_s.get("engine.route", 0.0),
        "engine.feed.s": self_s.get("engine.feed", 0.0),
        "engine.wait.s": total_s.get("engine.wait", 0.0),
        "engine.spawn.s": total_s.get("engine.spawn", 0.0),
        "engine.merge.s": total_s.get("engine.merge", 0.0),
        "ledger.build.s": total_s.get("ledger.build", 0.0),
        "ledger.write.s": total_s.get("ledger.write", 0.0),
    }
    if extra:
        metrics.update(extra)
    return metrics
