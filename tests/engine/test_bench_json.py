"""Scalability smoke test: real measured numbers into BENCH_engine.json.

The full-scale benchmark lives in ``benchmarks/test_bench_engine.py``
(and asserts half of linear process-mode speedup, ``0.5 * N`` at N
shards on N cores); this tier-1 smoke keeps the machinery honest on
every test run.  Its speedup check is directional at every core
count -- more shards must not be slower -- with a looser core-scaled
floor (``0.325 * N``) and best-of-5 timings so noise on a loaded
machine cannot flake the suite.  It runs the benchmark's 2000-context
stream: on shorter ones each worker's fixed start-up cost is as large
as its share of the work, so process mode shows no speedup to check.
With a single core there is no parallelism to measure, so the test
skips.
"""

import json
import os

import pytest

from repro.engine import write_bench_json
from repro.engine.workload import run_scalability_bench

class TestScalabilityBench:
    def test_sharding_speeds_up_and_records_json(self, tmp_path):
        # Parallel speedup is measured in process mode against a
        # 1-shard baseline in the same mode, with at most one shard
        # per core.  batch_kernels off, as in the full benchmark.
        top = max(n for n in (1, 2, 4) if n <= (os.cpu_count() or 1))
        if top < 2:
            pytest.skip("parallel speedup needs at least 2 cores")
        n_contexts = 2000
        record = run_scalability_bench(
            sorted({1, top}), n_contexts=n_contexts, use_window=20,
            repeats=5, mode="process", batch_kernels=False,
        )
        by_shards = record["contexts_per_second_by_shards"]
        assert set(by_shards) == {"1", str(top)}
        for row in by_shards.values():
            assert row["contexts_per_second"] > 0
            assert row["delivered"] + row["discarded"] <= n_contexts
        # Decision identity across shard counts is asserted inside
        # run_scalability_bench; here the speedup has to point the
        # right way and clear a loose bound scaled to the cores (1.0x
        # at 2 shards, 1.3x at 4; the full benchmark enforces 0.5 * N).
        key = f"{top}_shards_vs_1"
        assert record["speedup"][key] >= max(1.0, 0.325 * top)

        out_path = tmp_path / "BENCH_engine.json"
        document = write_bench_json(out_path, "engine_scalability_smoke", record)
        assert "engine_scalability_smoke" in document
        reread = json.loads(out_path.read_text(encoding="utf-8"))
        assert (
            reread["engine_scalability_smoke"]["speedup"][key]
            == record["speedup"][key]
        )

    def test_decision_divergence_is_detected(self):
        # The runner must refuse to report throughput for a sharding
        # that changes decisions; drop-random's per-shard RNG order
        # difference is exactly such a case.
        from repro.engine.workload import scalability_workload

        constraints, contexts = scalability_workload(
            240, scope_groups=2, types_per_group=3, time_horizon=2.0
        )
        try:
            run_scalability_bench(
                (1, 2),
                strategy="drop-random",
                repeats=1,
                workload=(constraints, contexts),
            )
        except AssertionError:
            return  # divergence caught, as designed
        # drop-random may coincide by luck on tiny streams; that's
        # acceptable -- the guard is what's under test, so only a
        # silent wrong report would be a failure, and the runner
        # compared decisions either way.
        pytest.skip("drop-random happened to agree on this stream")


class TestCorruptBenchJson:
    def test_corrupt_file_logs_warning_and_resets(self, tmp_path, caplog):
        import logging

        path = tmp_path / "BENCH_engine.json"
        path.write_text("{not json at all", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            document = write_bench_json(path, "wl", {"x": 1})
        assert "resetting corrupt bench JSON" in caplog.text
        assert document == {"wl": {"x": 1}}
        assert json.loads(path.read_text(encoding="utf-8")) == {"wl": {"x": 1}}

    def test_non_object_top_level_logs_warning_and_resets(self, tmp_path, caplog):
        import logging

        path = tmp_path / "BENCH_engine.json"
        path.write_text("[1, 2, 3]", encoding="utf-8")
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            document = write_bench_json(path, "wl", {"x": 1})
        assert "expected object" in caplog.text
        assert document == {"wl": {"x": 1}}

    def test_healthy_file_keeps_other_workloads_silently(self, tmp_path, caplog):
        import logging

        path = tmp_path / "BENCH_engine.json"
        write_bench_json(path, "first", {"a": 1})
        with caplog.at_level(logging.WARNING, logger="repro.engine"):
            document = write_bench_json(path, "second", {"b": 2})
        assert caplog.text == ""
        assert document == {"first": {"a": 1}, "second": {"b": 2}}
