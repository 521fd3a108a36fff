"""Engine benchmark: sharded resolution throughput per shard count.

The sharded engine's scope analysis splits independent constraint
families onto separate shards, and process mode runs each shard in
its own worker.  This benchmark measures the parallel speedup that
buys: contexts/second in process mode at 1, 2 and 4 shards (capped at
``os.cpu_count()``) on the scalability workload (4 independent scope
groups), against a 1-shard baseline in the same mode, and records the
numbers machine-readably into ``benchmarks/out/BENCH_engine.json``.

The run is fully instrumented: its telemetry sidecar
(``benchmarks/out/TELEMETRY_engine_bench.json``) carries the per-stage
latency histograms and span counts, and the sidecar's own consistency
is asserted -- stage histograms non-empty, deliver/discard span counts
equal to the registry's delivered/discarded totals.

Acceptance: N shards on N cores must reach at least half of linear
speedup, i.e. ``0.5 * N`` times the single-shard throughput (2x at 4
shards).  Inline mode is sequential: its shard counts differ only in
how the per-arrival work is divided, so it does not measure
parallelism.  Decisions are asserted the same across all shard counts
inside the runner -- sharding that changed any outcome would abort the
benchmark.  With a single core there is no parallelism to measure, so
the test skips.
"""

import gc
import os
import pathlib
import time
import warnings

import pytest
from conftest import write_report

from repro.apps import CallForwardingApp
from repro.engine import EngineConfig, ShardedEngine, write_bench_json
from repro.engine.workload import run_scalability_bench
from repro.obs import Telemetry, read_sidecar, stage_histogram_nonempty, write_sidecar

OUT_JSON = pathlib.Path(__file__).parent / "out" / "BENCH_engine.json"
OUT_TELEMETRY = pathlib.Path(__file__).parent / "out" / "TELEMETRY_engine_bench.json"
SHARD_COUNTS = tuple(n for n in (1, 2, 4) if n <= (os.cpu_count() or 1))
N_CONTEXTS = 2000


def test_engine_scalability(benchmark):
    if len(SHARD_COUNTS) < 2:
        pytest.skip("parallel speedup needs at least 2 cores")
    telemetry = Telemetry(enabled=True)

    def run():
        # batch_kernels off: this benchmark isolates the shard-count
        # variable on the per-context detection path; columnar batched
        # detection has its own column (``detection_batch``).
        return run_scalability_bench(
            SHARD_COUNTS,
            n_contexts=N_CONTEXTS,
            use_window=20,
            strategy="drop-latest",
            mode="process",
            repeats=2,
            telemetry=telemetry,
            batch_kernels=False,
        )

    record = benchmark.pedantic(run, rounds=1, iterations=1)
    by_shards = record["contexts_per_second_by_shards"]

    lines = ["Engine scalability -- contexts/second by shard count",
             f"(workload: {N_CONTEXTS} contexts, 4 independent scopes, "
             f"drop-latest, window 20, process mode, "
             f"{os.cpu_count()} cores)", ""]
    for shards in sorted(by_shards, key=int):
        row = by_shards[shards]
        lines.append(
            f"  {shards:>2} shard(s): {row['contexts_per_second']:>9.1f} ctx/s"
            f"  ({row['elapsed_s']:.3f}s, {row['delivered']} delivered, "
            f"{row['discarded']} discarded)"
        )
    for label, ratio in record["speedup"].items():
        lines.append(f"  speedup {label}: {ratio:.2f}x")
    write_report("engine_scalability", "\n".join(lines))
    write_bench_json(OUT_JSON, "engine_scalability", record)
    write_sidecar(
        OUT_TELEMETRY,
        telemetry,
        meta={
            "benchmark": "engine_scalability",
            "shard_counts": list(SHARD_COUNTS),
            "n_contexts": N_CONTEXTS,
            "strategy": "drop-latest",
            "mode": "process",
        },
    )

    # The sidecar must be self-consistent and non-trivial: every hot
    # pipeline stage observed latency, and the tracer saw exactly one
    # deliver/discard span per delivered/discarded context the
    # registry accounted (cumulatively, across all runs).
    sidecar = read_sidecar(OUT_TELEMETRY)
    for stage in ("receive", "check", "resolve", "deliver"):
        assert stage_histogram_nonempty(sidecar, stage), (
            f"stage {stage!r} histogram empty in {OUT_TELEMETRY}"
        )
    registry = telemetry.registry
    delivered_total = sum(
        registry.value("engine_shard_delivered_total", {"shard": str(s)})
        for s in range(max(SHARD_COUNTS))
    )
    discarded_total = sum(
        registry.value("engine_shard_discarded_total", {"shard": str(s)})
        for s in range(max(SHARD_COUNTS))
    )
    span_counts = sidecar["span_counts"]
    assert span_counts.get("stage.deliver", 0) == delivered_total
    assert span_counts.get("stage.discard", 0) == discarded_total

    top = max(SHARD_COUNTS)
    speedup = record["speedup"][f"{top}_shards_vs_1"]
    assert speedup >= 0.5 * top, (
        f"expected >= {0.5 * top}x throughput at {top} shards vs 1 in "
        f"process mode, measured {speedup}x"
    )


def test_ledger_column(tmp_path):
    """A/B the decision ledger on the call-forwarding stream.

    Records a ``ledger`` column into ``BENCH_engine.json``: contexts/
    second with the hash-chained ledger off vs on, on the same inline
    engine.  Decision identity is asserted hard (the ledger is an
    observer, never an actor); overhead is fail-soft -- a >30%
    throughput drop warns rather than fails, because the column exists
    to make drift visible across commits, not to flake CI on a loaded
    machine.  The
    acceptance budget for the feature itself is <=10% on this stream;
    the recorded ``off_vs_on`` ratio is how drift shows up in review.
    """
    from repro.ledger import verify_ledger

    app = CallForwardingApp()
    stream = app.generate_workload(0.3, seed=88, duration=400.0)
    constraints = app.build_checker().constraints()
    ledger_path = tmp_path / "bench.ledger.jsonl"

    def run(with_ledger):
        engine = ShardedEngine(
            constraints,
            strategy="drop-bad",
            registry_factory=app.build_registry,
            config=EngineConfig(
                shards=2,
                use_window=10,
                ledger_path=str(ledger_path) if with_ledger else None,
            ),
        )
        # Collect, then pause the collector for the timed region (both
        # arms identically).  Mid-run generational passes walk the
        # whole heap -- dominated by the engine's own event objects --
        # and fire at allocation thresholds, so which arm pays them is
        # an artifact of allocation phase, not of ledger cost; pausing
        # is the same hygiene pyperf/timeit apply.
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            result = engine.run(stream)
            return time.perf_counter() - started, result
        finally:
            gc.enable()

    # Interleave the arms (off, on, off, on, ...) so a load spike hits
    # both sides instead of biasing whichever arm it lands on; best-of
    # per arm then compares like with like.  Load noise here is
    # multiplicative (the on arm does ~10% more work, so a busy core
    # stretches it more), which is exactly the noise shape best-of
    # handles and averages don't -- hence 9 rounds, not a mean.
    run(False), run(True)  # warmup: prime caches outside the timings
    off_s = on_s = float("inf")
    off_result = on_result = None
    for _ in range(9):
        elapsed, result = run(False)
        if elapsed < off_s:
            off_s, off_result = elapsed, result
        elapsed, result = run(True)
        if elapsed < on_s:
            on_s, on_result = elapsed, result
    assert off_result.delivered_ids == on_result.delivered_ids
    assert off_result.discarded_ids == on_result.discarded_ids
    check = verify_ledger(str(ledger_path))
    assert check.ok, check.summary()

    ratio = off_s / on_s if on_s > 0 else float("inf")
    record = {
        "n_contexts": len(stream),
        "ledger_off_contexts_per_second": len(stream) / off_s,
        "ledger_on_contexts_per_second": len(stream) / on_s,
        "off_vs_on": ratio,
        "ledger_entries": check.entries,
        "ledger_bytes": ledger_path.stat().st_size,
        "delivered": len(on_result.delivered_ids),
        "discarded": len(on_result.discarded_ids),
    }
    write_bench_json(OUT_JSON, "ledger", record)
    write_report(
        "ledger",
        "Decision ledger overhead -- call-forwarding stream, 2 shards, "
        "window 10\n"
        f"  ledger off: {record['ledger_off_contexts_per_second']:>9.1f} ctx/s\n"
        f"  ledger on:  {record['ledger_on_contexts_per_second']:>9.1f} ctx/s\n"
        f"  off/on ratio: {ratio:.2f}x "
        f"({check.entries} entries, {record['ledger_bytes']} bytes)",
    )
    if ratio < 0.7:
        warnings.warn(
            "ledger-on throughput is >30% below ledger-off "
            f"({ratio:.2f}x); the audit trail has become a hot-path cost",
            stacklevel=1,
        )
