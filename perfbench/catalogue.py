"""The benchmark's workloads and metrics, with what each one is for.

``BENCHMARK.json`` at the repository root lists the same names (it can
hold only ``name``/``unit``/``better``); this module adds, for every
per-layer metric, the end-to-end metric it should move and the workloads
it is measured on.  ``tests/test_catalogue.py`` keeps the two in step.
A per-layer metric that does not apply to a workload reads 0 there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "SERVE_DECIDE_P99_LIMIT_MS",
    "UNGATED_WORKLOADS",
    "WORKLOADS",
    "Metric",
]

REPLAYS = ("shared-scope", "many-scopes")
SHARED = ("shared-scope",)
MANY = ("many-scopes",)
SERVE = ("serve-open-loop",)
ALL = REPLAYS + SERVE

#: Workload name -> why it exists (one line each, as in BENCHMARK.json).
WORKLOADS = {
    "many-scopes": (
        "staggered tenants with own types on process-mode shards, drop-latest, "
        "ledger on: routing, IPC, merge, ledger writes and detect_batch"
    ),
    "serve-open-loop": (
        "open-loop WebSocket load from a separate process into the ingest "
        "server over inline drop-bad: parsing, admission, batching, latency"
    ),
}

#: Workloads ``run.py`` runs that ``BENCHMARK.json`` does not list.  On a
#: shared 2-core VM, stretches of a minute or more run up to 40% slower;
#: this single-threaded, memory-bound replay felt them most, and its
#: throughput spread over ten runs reached the largest bound allowed.
UNGATED_WORKLOADS = {
    "shared-scope": (
        "six packs x many tenants sharing types in one inline drop-bad "
        "deployment: a large live pool, so scope upkeep and detection dominate"
    ),
}

#: ``sustained_rate`` only counts a ladder rate whose decide p99 stays
#: within this limit (well above the batcher's 5 ms max delay).
SERVE_DECIDE_P99_LIMIT_MS = 100.0


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median the metric may worsen by (end-to-end).
    bound: float = 0.0
    #: End-to-end metrics this one should move (per-layer).
    moves: Tuple[str, ...] = ()
    #: Workloads it is measured on; it reads 0 on the others.
    workloads: Tuple[str, ...] = ALL


END_TO_END: Tuple[Metric, ...] = (
    Metric("ctx_per_s", "ctx/s", "higher", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("decide_p50_ms", "ms", "lower", 0.25),
    Metric("decide_p95_ms", "ms", "lower", 0.25),
    Metric("ack_p50_ms", "ms", "lower", 0.25),
    Metric("sustained_rate", "ctx/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)

_THROUGHPUT = ("ctx_per_s",)
_SERVE_LATENCY = ("decide_p50_ms", "decide_p95_ms", "ack_p50_ms", "sustained_rate")


def _layer(name, unit, better, moves, workloads) -> Metric:
    return Metric(name, unit, better, moves=tuple(moves), workloads=workloads)


PER_LAYER: Tuple[Metric, ...] = (
    # runtime
    _layer("runtime.add.self_s", "s", "lower", _THROUGHPUT + _SERVE_LATENCY, SHARED + SERVE),
    _layer("runtime.use.self_s", "s", "lower", _THROUGHPUT, REPLAYS),
    _layer("runtime.expire.s", "s", "lower", _THROUGHPUT, REPLAYS),
    _layer("runtime.expire.count", "count", "lower", _THROUGHPUT, REPLAYS),
    _layer("runtime.schedule.s", "s", "lower", _THROUGHPUT, REPLAYS),
    _layer("runtime.schedule.calls", "count", "lower", _THROUGHPUT, REPLAYS),
    _layer("runtime.batch.self_s", "s", "lower", _THROUGHPUT, REPLAYS),
    _layer("runtime.batch.planned_share", "ratio", "higher", _THROUGHPUT, REPLAYS),
    _layer("runtime.batch.replan_rows", "count", "lower", _THROUGHPUT, REPLAYS),
    # core
    _layer("core.resolver.add.self_s", "s", "lower", _THROUGHPUT + _SERVE_LATENCY, SHARED + SERVE),
    _layer("core.resolver.scope_len_mean", "count", "lower", ("core.resolver.add.self_s",), ALL),
    _layer("core.resolver.use.self_s", "s", "lower", _THROUGHPUT, REPLAYS),
    _layer("core.strategy.add.s", "s", "lower", _THROUGHPUT, REPLAYS),
    _layer("core.strategy.use.s", "s", "lower", _THROUGHPUT, REPLAYS),
    # constraints
    _layer("constraints.detect.s", "s", "lower", _THROUGHPUT, SHARED + SERVE),
    _layer("constraints.detect.calls", "count", "lower", _THROUGHPUT, SHARED + SERVE),
    _layer("constraints.detect.hit_share", "ratio", "higher", _THROUGHPUT, SHARED + SERVE),
    _layer("constraints.detect_batch.s", "s", "lower", _THROUGHPUT, MANY),
    _layer("constraints.detect_batch.rows", "count", "lower", _THROUGHPUT, MANY),
    _layer("constraints.forget.s", "s", "lower", _THROUGHPUT, REPLAYS),
    # middleware
    _layer("middleware.bus.publish.s", "s", "lower", _THROUGHPUT + ("peak_rss_mb",), ALL),
    _layer("middleware.bus.events_per_ctx", "count", "lower", _THROUGHPUT, ALL),
    _layer("middleware.pool.size_mean", "count", "lower", _THROUGHPUT + ("peak_rss_mb",), ALL),
    _layer("middleware.pool.size_max", "count", "lower", ("peak_rss_mb",), ALL),
    # engine
    _layer("engine.route.s", "s", "lower", _THROUGHPUT, MANY),
    _layer("engine.feed.s", "s", "lower", _THROUGHPUT, MANY),
    _layer("engine.wait.s", "s", "lower", _THROUGHPUT, MANY),
    _layer("engine.spawn.s", "s", "lower", ("setup_s",), MANY),
    _layer("engine.merge.s", "s", "lower", _THROUGHPUT, MANY),
    _layer("engine.shard_busy_max_s", "s", "lower", _THROUGHPUT, MANY),
    _layer("engine.shard_busy_min_s", "s", "lower", _THROUGHPUT, MANY),
    _layer("engine.parallel_efficiency", "ratio", "higher", _THROUGHPUT, MANY),
    _layer("engine.restarts", "count", "lower", _THROUGHPUT, MANY),
    # ledger
    _layer("ledger.build.s", "s", "lower", _THROUGHPUT, MANY),
    _layer("ledger.write.s", "s", "lower", _THROUGHPUT, MANY),
    _layer("ledger.bytes_per_ctx", "B", "lower", _THROUGHPUT, MANY),
    # serve
    _layer("serve.parse.s", "s", "lower", _SERVE_LATENCY, SERVE),
    _layer("serve.admit.s", "s", "lower", _SERVE_LATENCY, SERVE),
    _layer("serve.shed", "count", "lower", ("sustained_rate",), SERVE),
    _layer("serve.batch.size_mean", "count", "higher", _SERVE_LATENCY, SERVE),
    _layer("serve.queue_wait_p99_ms", "ms", "lower", _SERVE_LATENCY, SERVE),
    _layer("serve.submit.s", "s", "lower", _SERVE_LATENCY, SERVE),
    _layer("serve.loop_busy_share", "ratio", "lower", _SERVE_LATENCY, SERVE),
    _layer("serve.backlog_max", "count", "lower", _SERVE_LATENCY, SERVE),
    # The nominal rung's p99s: measured and reported, but not gated,
    # because host scheduling noise moves them by more than any bound.
    _layer("serve.decide_p99_ms", "ms", "lower", (), SERVE),
    _layer("serve.ack_p99_ms", "ms", "lower", (), SERVE),
    # loadgen (validity of the serve numbers)
    _layer("loadgen.late_p99_ms", "ms", "lower", (), SERVE),
    _layer("loadgen.sent", "count", "higher", (), SERVE),
    # the tracer itself
    _layer("trace.overhead_ratio", "ratio", "lower", (), ALL),
    _layer("trace.sum_to_wall_error", "ratio", "lower", (), ALL),
    _layer("trace.wall_s", "s", "lower", (), ALL),
)
