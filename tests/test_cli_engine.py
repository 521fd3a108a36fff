"""Tests for the ``repro engine`` CLI subcommand."""

import io
import json

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestEngineParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine"])

    def test_run_validates_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engine", "run", "unknown-app"])

    def test_run_validates_mode(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["engine", "run", "rfid", "--mode", "turbo"]
            )


class TestEngineRun:
    def test_resolves_rfid_workload(self):
        code, text = run_cli(
            "engine", "run", "rfid", "--shards", "4",
            "--strategy", "drop-bad",
        )
        assert code == 0
        assert "4 shard(s) [inline]" in text
        assert "delivered" in text and "discarded" in text
        assert "shard 0:" in text and "shard 3:" in text

    def test_local_mode_and_time_window(self):
        code, text = run_cli(
            "engine", "run", "call-forwarding", "--shards", "2",
            "--mode", "local", "--delay", "5.0",
        )
        assert code == 0
        assert "[local]" in text


class TestEngineBench:
    def test_bench_prints_speedup_and_writes_json(self, tmp_path):
        path = tmp_path / "BENCH_engine.json"
        code, text = run_cli(
            "engine", "bench", "--shards", "1", "2",
            "--contexts", "300", "--repeats", "1",
            "--json", str(path),
            "--telemetry-out", str(tmp_path / "TELEMETRY_engine_bench.json"),
        )
        assert code == 0
        assert "contexts/second by shard count" in text
        assert "speedup 2_shards_vs_1" in text
        document = json.loads(path.read_text(encoding="utf-8"))
        record = document["engine_scalability"]
        assert set(record["contexts_per_second_by_shards"]) == {"1", "2"}
        assert record["workload"]["n_contexts"] == 300

    def test_bench_process_mode_compares_decision_sets(self, tmp_path):
        # Process mode merges per-shard events by timestamp, so only the
        # delivered/discarded id sets are comparable across shard counts.
        code, text = run_cli(
            "engine", "bench", "--mode", "process", "--shards", "1", "2",
            "--contexts", "400", "--repeats", "1",
            "--telemetry-out", str(tmp_path / "TELEMETRY_engine_bench.json"),
        )
        assert code == 0
        assert "speedup 2_shards_vs_1" in text
