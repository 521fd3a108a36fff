"""Performance benchmark: middleware throughput per strategy.

Measures contexts processed per second through the full pipeline
(detection + resolution + situation evaluation) for each strategy --
the practical overhead of hosting the resolution plug-in, mirroring
the paper's note that resolution runs as a middleware service on
commodity hardware.
"""

import time

import pytest

from repro.apps.call_forwarding import CallForwardingApp
from repro.core.strategy import make_strategy
from repro.experiments.harness import run_group
from repro.middleware.pool import ContextPool
from tests.conftest import make_context

APP = CallForwardingApp()
STREAM = APP.generate_workload(0.3, seed=88, duration=200.0)


@pytest.mark.parametrize(
    "strategy_name",
    ["opt-r", "drop-latest", "drop-all", "drop-bad"],
)
def test_pipeline_throughput(benchmark, strategy_name):
    def run():
        return run_group(
            APP,
            make_strategy(strategy_name),
            STREAM,
            err_rate=0.3,
            seed=88,
            use_window=10,
        )

    metrics = benchmark.pedantic(run, rounds=3, iterations=1)
    assert metrics.contexts_total == len(STREAM)


def _per_remove_seconds(n_contexts: int) -> float:
    """Best-of-3 per-remove cost of draining a pool of ``n_contexts``."""
    contexts = [make_context(ctx_id=f"p{i}") for i in range(n_contexts)]
    best = float("inf")
    for _ in range(3):
        pool = ContextPool()
        for ctx in contexts:
            pool.add(ctx)
        started = time.perf_counter()
        for ctx in contexts:
            pool.remove(ctx)
        best = min(best, (time.perf_counter() - started) / n_contexts)
    return best


def test_pool_remove_stays_constant_time_at_10k_contexts():
    # Discard is on the resolution hot path.  With the old side list
    # (`_order.remove`) each remove scanned/shifted O(live) entries, so
    # per-remove cost grew ~20x from 1k to 20k contexts; the ordered
    # dict keeps it flat.  The bound is generous (timing noise), but
    # far below the linear blow-up it guards against.
    small = _per_remove_seconds(1_000)
    large = _per_remove_seconds(20_000)
    assert large < small * 8, (
        f"pool remove degraded super-linearly: {small * 1e9:.0f}ns/remove "
        f"at 1k contexts vs {large * 1e9:.0f}ns/remove at 20k"
    )


def _per_discard_seconds(n_pending: int) -> float:
    """Best-of-3 per-discard cost with ``n_pending`` scheduled uses."""
    from repro.runtime.scheduler import UseScheduler

    contexts = [make_context(ctx_id=f"q{i}") for i in range(n_pending)]
    best = float("inf")
    for _ in range(3):
        scheduler = UseScheduler(use_window=n_pending + 1)
        for ctx in contexts:
            scheduler.schedule(ctx, 0, ctx.timestamp)
        started = time.perf_counter()
        for ctx in contexts:
            scheduler.discard(ctx.ctx_id)
        best = min(best, (time.perf_counter() - started) / n_pending)
    return best


def test_scheduler_discard_stays_constant_time_at_20k_pending():
    # The historical unschedule rebuilt the whole pending-use deque per
    # discard (`Middleware._unschedule` and the engine driver's
    # `_unschedule`):
    # O(pending) each, quadratic to drain a window.  The UseScheduler's
    # id-index + tombstones make discard amortized O(1): per-discard
    # cost must not scale with the queue length.
    small = _per_discard_seconds(1_000)
    large = _per_discard_seconds(20_000)
    assert large < small * 8, (
        f"scheduler discard scales with queue length: "
        f"{small * 1e9:.0f}ns/discard at 1k pending vs "
        f"{large * 1e9:.0f}ns/discard at 20k"
    )
