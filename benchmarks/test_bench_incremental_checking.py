"""Performance benchmark: the constraint-detection hot path.

Two claims are measured on one call-forwarding stream:

* the substrate claim behind [17] (incremental consistency checking)
  that the middleware relies on -- detection work per context addition
  should not rescale with the whole pool (incremental vs full
  re-evaluation); and
* the compiled-kernel + equality-join-index layer
  (:mod:`repro.constraints.compile` / :mod:`repro.constraints.index`)
  must make incremental detection at least 2.5x faster than the
  interpreted reference path while producing the identical violation
  sequence.

The detection loop runs pool-attached (contexts live in a
:class:`~repro.middleware.pool.ContextPool` with expiry), so the
persistent candidate indexes engage exactly as they do under the
middleware.  The kernels-on throughput is recorded machine-readably
under ``detection_kernels`` in ``benchmarks/out/BENCH_engine.json``;
a run that regresses more than 30% below the committed baseline warns
(fail-soft -- CI surfaces the warning without going red on noisy
hosts).
"""

import datetime
import json
import pathlib
import statistics
import time
import warnings

import pytest

from conftest import write_report

from repro.apps.call_forwarding import CallForwardingApp
from repro.engine import write_bench_json
from repro.experiments.report import format_table
from repro.middleware.pool import ContextPool

APP = CallForwardingApp()
STREAM = APP.generate_workload(0.3, seed=77, duration=240.0)
OUT_JSON = pathlib.Path(__file__).parent / "out" / "BENCH_engine.json"
#: Fail-soft regression bar vs the committed baseline record.
REGRESSION_TOLERANCE = 0.30

MODES = {
    "kernels": dict(incremental=True, kernels=True),
    "interp": dict(incremental=True, kernels=False),
    "full": dict(incremental=False, kernels=False),
}


def _detect_all(mode: str, trace: bool = False):
    """Run the whole stream through a pool-attached checker.

    Returns the number of inconsistencies detected, plus (with
    ``trace=True``) the full per-arrival violation sequence for
    equivalence assertions.
    """
    checker = APP.build_checker(**MODES[mode])
    pool = ContextPool()
    checker.attach_pool(pool)
    detected = 0
    sequence = [] if trace else None
    for ctx in STREAM:
        # Expiry keeps the pool bounded the way the middleware would
        # (workload contexts carry a 60 s lifespan).
        pool.expire(ctx.timestamp)
        found = checker.detect(ctx, checker.pool_index, now=ctx.timestamp)
        detected += len(found)
        if sequence is not None:
            sequence.append(
                (
                    ctx.ctx_id,
                    sorted(
                        (
                            inc.constraint,
                            tuple(sorted(c.ctx_id for c in inc.contexts)),
                        )
                        for inc in found
                    ),
                )
            )
        pool.add(ctx)
    return (detected, sequence) if trace else detected


def _timed_throughput(mode: str, repeats: int = 3) -> float:
    """Best-of-``repeats`` contexts/second for one detection mode."""
    best = 0.0
    for _ in range(repeats):
        started = time.perf_counter()
        _detect_all(mode)
        elapsed = time.perf_counter() - started
        best = max(best, len(STREAM) / elapsed)
    return best


@pytest.mark.parametrize("mode", list(MODES), ids=list(MODES))
def test_detection_throughput(benchmark, mode):
    detected = benchmark(_detect_all, mode)
    assert detected > 0


def test_all_modes_agree_end_to_end(benchmark):
    def run():
        return {mode: _detect_all(mode, trace=True) for mode in MODES}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    kernels_detected, kernels_trace = results["kernels"]
    interp_detected, interp_trace = results["interp"]
    full_detected, _ = results["full"]
    write_report(
        "substrate_incremental_checking",
        "Substrate -- detection modes on one CF stream\n"
        + format_table(
            ["mode", "inconsistencies detected"],
            [
                ["incremental + kernels/indexes", kernels_detected],
                ["incremental, interpreted", interp_detected],
                ["full re-evaluation", full_detected],
            ],
        ),
    )
    # Kernels/indexes must be invisible in the results: identical
    # violation sequence, not just identical totals.
    assert kernels_trace == interp_trace
    assert kernels_detected == interp_detected == full_detected
    assert kernels_detected > 0


def test_kernel_speedup_recorded(benchmark):
    def run():
        return {mode: _timed_throughput(mode) for mode in ("kernels", "interp")}

    throughput = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = throughput["kernels"] / throughput["interp"]

    baseline = None
    if OUT_JSON.exists():
        try:
            committed = json.loads(OUT_JSON.read_text(encoding="utf-8"))
            baseline = committed["detection_kernels"]["contexts_per_second"]
        except (ValueError, KeyError, TypeError):
            baseline = None

    record = {
        "contexts_per_second": round(throughput["kernels"], 1),
        "contexts_per_second_interpreted": round(throughput["interp"], 1),
        "speedup_vs_interpreted": round(speedup, 2),
        "workload": {
            "app": "call_forwarding",
            "err_rate": 0.3,
            "seed": 77,
            "duration_s": 240.0,
            "n_contexts": len(STREAM),
        },
        "measured_at": datetime.datetime.now().isoformat(timespec="seconds"),
    }
    write_bench_json(OUT_JSON, "detection_kernels", record)
    write_report(
        "detection_kernels",
        "Detection hot path -- compiled kernels + candidate indexes\n"
        + format_table(
            ["mode", "contexts/second"],
            [
                ["kernels + indexes", f"{throughput['kernels']:.1f}"],
                ["interpreted", f"{throughput['interp']:.1f}"],
                ["speedup", f"{speedup:.2f}x"],
            ],
        ),
    )

    if baseline and throughput["kernels"] < (1 - REGRESSION_TOLERANCE) * baseline:
        warnings.warn(
            f"detection throughput regressed: {throughput['kernels']:.1f} ctx/s "
            f"vs committed baseline {baseline:.1f} ctx/s "
            f"(> {REGRESSION_TOLERANCE:.0%} drop)",
            stacklevel=1,
        )

    assert speedup >= 2.5, (
        f"expected >= 2.5x detection throughput from kernels + indexes, "
        f"measured {speedup:.2f}x"
    )


# -- columnar batched detection (ISSUE 9) ---------------------------------

#: Serve-like batch sizes: the adaptive batcher's typical window (16)
#: and a saturated front-door burst (64).
BATCH_SIZES = (16, 64)


def _detect_all_batched(batch_size: int, batch_kernels: bool = True,
                        trace: bool = False):
    """The same stream through ``detect_batch`` in fixed-size chunks."""
    checker = APP.build_checker(incremental=True, kernels=True)
    checker.batch_kernels = batch_kernels and checker.batch_kernels
    pool = ContextPool()
    checker.attach_pool(pool)
    detected = 0
    sequence = [] if trace else None
    for start in range(0, len(STREAM), batch_size):
        chunk = STREAM[start : start + batch_size]
        # The runtime sweeps expiry before a batch; mid-batch expiry is
        # detect_batch's per-row cutoff's job.
        pool.expire(chunk[0].timestamp)
        verdicts = checker.detect_batch(
            chunk, checker.pool_index, now=[c.timestamp for c in chunk]
        )
        for ctx, found in zip(chunk, verdicts):
            detected += len(found)
            if sequence is not None:
                sequence.append(
                    (
                        ctx.ctx_id,
                        sorted(
                            (
                                inc.constraint,
                                tuple(sorted(c.ctx_id for c in inc.contexts)),
                            )
                            for inc in found
                        ),
                    )
                )
            pool.add(ctx)
    return (detected, sequence) if trace else detected


def test_detection_batch_agrees_with_per_context():
    # Byte-identical verdicts: batched detection at every size, with
    # batch kernels on and off, vs the per-context kernel reference.
    _, reference = _detect_all("kernels", trace=True)
    for batch_size in BATCH_SIZES:
        for batch_kernels in (True, False):
            _, batched = _detect_all_batched(
                batch_size, batch_kernels=batch_kernels, trace=True
            )
            assert batched == reference, (
                f"verdicts diverged at batch_size={batch_size}, "
                f"batch_kernels={batch_kernels}"
            )


def test_detection_batch_recorded(benchmark):
    """Columnar batched detection vs the per-context kernel path.

    Measured interleaved (per-context, batched, per-context, ...) so a
    load spike hits both arms, and the speedup is the *median of the
    per-rep ratios* -- each rep's ratio pairs arms measured back to
    back, so multiplicative host noise cancels instead of landing on
    whichever arm it hit.  The acceptance bar is >= 1.5x at serve-like
    batch sizes; the committed ``detection_batch`` baseline gets the
    same fail-soft 30% regression warning as ``detection_kernels``.
    """
    def run():
        best = {"seq": 0.0, **{size: 0.0 for size in BATCH_SIZES}}
        rep_ratios = {size: [] for size in BATCH_SIZES}
        _detect_all("kernels")  # warmup: prime plans and indexes
        _detect_all_batched(BATCH_SIZES[0])
        for _ in range(7):
            started = time.perf_counter()
            _detect_all("kernels")
            seq_tp = len(STREAM) / (time.perf_counter() - started)
            best["seq"] = max(best["seq"], seq_tp)
            for size in BATCH_SIZES:
                started = time.perf_counter()
                _detect_all_batched(size)
                tp = len(STREAM) / (time.perf_counter() - started)
                best[size] = max(best[size], tp)
                rep_ratios[size].append(tp / seq_tp)
        return best, rep_ratios

    throughput, rep_ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    ratios = {
        size: statistics.median(rep_ratios[size]) for size in BATCH_SIZES
    }
    headline_size = max(BATCH_SIZES, key=lambda size: ratios[size])

    baseline = None
    if OUT_JSON.exists():
        try:
            committed = json.loads(OUT_JSON.read_text(encoding="utf-8"))
            baseline = committed["detection_batch"]["contexts_per_second"]
        except (ValueError, KeyError, TypeError):
            baseline = None

    record = {
        "contexts_per_second": round(throughput[headline_size], 1),
        "contexts_per_second_per_context": round(throughput["seq"], 1),
        "batch_size": headline_size,
        "speedup_vs_per_context_by_batch_size": {
            str(size): round(ratios[size], 2) for size in BATCH_SIZES
        },
        "workload": {
            "app": "call_forwarding",
            "err_rate": 0.3,
            "seed": 77,
            "duration_s": 240.0,
            "n_contexts": len(STREAM),
        },
        "measured_at": datetime.datetime.now().isoformat(timespec="seconds"),
    }
    write_bench_json(OUT_JSON, "detection_batch", record)
    write_report(
        "detection_batch",
        "Columnar batched detection -- detect_batch vs per-context kernels\n"
        + format_table(
            ["mode", "contexts/second"],
            [["per-context kernels", f"{throughput['seq']:.1f}"]]
            + [
                [
                    f"detect_batch({size})",
                    f"{throughput[size]:.1f} ({ratios[size]:.2f}x)",
                ]
                for size in BATCH_SIZES
            ],
        ),
    )

    if baseline and throughput[headline_size] < (
        1 - REGRESSION_TOLERANCE
    ) * baseline:
        warnings.warn(
            f"batched detection throughput regressed: "
            f"{throughput[headline_size]:.1f} ctx/s vs committed baseline "
            f"{baseline:.1f} ctx/s (> {REGRESSION_TOLERANCE:.0%} drop)",
            stacklevel=1,
        )

    best_ratio = ratios[headline_size]
    assert best_ratio >= 1.5, (
        f"expected >= 1.5x detection throughput from batched evaluation "
        f"at serve-like batch sizes, measured {best_ratio:.2f}x"
    )
