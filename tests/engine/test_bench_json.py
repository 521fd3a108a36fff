"""Scalability smoke test: real measured numbers into BENCH_engine.json.

The full-scale benchmark lives in ``benchmarks/test_bench_engine.py``
(and asserts the >= 2x acceptance threshold at 4 shards); this tier-1
smoke keeps the machinery honest on every test run with a smaller
stream and a deliberately loose threshold so timing noise on a loaded
machine cannot flake the suite.
"""

import json

from repro.engine import write_bench_json
from repro.engine.workload import run_scalability_bench

class TestScalabilityBench:
    def test_sharding_speeds_up_and_records_json(self, tmp_path):
        # batch_kernels off: the sharding speedup is measured on the
        # per-context detection path whose pool-scan cost sharding
        # removes -- columnar batched detection attacks the same cost,
        # so with it on the ratio measures two optimizations at once.
        record = run_scalability_bench(
            (1, 4), n_contexts=800, use_window=20, repeats=1,
            batch_kernels=False,
        )
        by_shards = record["contexts_per_second_by_shards"]
        assert set(by_shards) == {"1", "4"}
        for row in by_shards.values():
            assert row["contexts_per_second"] > 0
            assert row["delivered"] + row["discarded"] <= 800
        # Decision identity across shard counts is asserted inside
        # run_scalability_bench; here we only require the speedup to
        # point the right way (the full benchmark enforces >= 2x).
        assert record["speedup"]["4_shards_vs_1"] >= 1.3

        out_path = tmp_path / "BENCH_engine.json"
        document = write_bench_json(out_path, "engine_scalability_smoke", record)
        assert "engine_scalability_smoke" in document
        reread = json.loads(out_path.read_text(encoding="utf-8"))
        assert (
            reread["engine_scalability_smoke"]["speedup"]["4_shards_vs_1"]
            == record["speedup"]["4_shards_vs_1"]
        )

    def test_decision_divergence_is_detected(self):
        # The runner must refuse to report throughput for a sharding
        # that changes decisions; drop-random's per-shard RNG order
        # difference is exactly such a case.
        import pytest

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
