"""The command: refuses to run without the program; tiny end-to-end runs."""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

from perfbench import catalogue, replay, serve
from perfbench.tenants import TenantPlan

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shared-scope",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _tiny(spec, **plan):
    return dataclasses.replace(spec, plan=dataclasses.replace(spec.plan, **plan))


def test_tiny_shared_scope_traced(tmp_path):
    spec = _tiny(replay.SHARED_SCOPE, tenants_per_pack=1, packs=("smart-home", "rfid"))
    out = replay.run_replay(spec, 5, 0.2, True, str(tmp_path), lambda m: None)
    assert out["gate"].ok and out["trace_gate"].ok
    assert all(table.ok for table in out["tables"])
    assert set(out["e2e"]) == {m.name for m in catalogue.END_TO_END}
    assert out["layers"]["constraints.detect.calls"] > 0


def test_tiny_many_scopes_process_mode(tmp_path):
    spec = _tiny(replay.MANY_SCOPES, tenants_per_pack=2, packs=("smart-home",))
    out = replay.run_replay(spec, 5, 0.2, True, str(tmp_path), lambda m: None)
    assert out["gate"].ok, out["gate"].first_mismatch
    assert out["trace_gate"].ok
    assert out["layers"]["constraints.detect_batch.rows"] > 0
    assert out["layers"]["ledger.bytes_per_ctx"] > 0


def _tiny_serve():
    return dataclasses.replace(
        serve.SERVE_SPEC,
        plan=TenantPlan(tenants_per_pack=2, shared_types=True, packs=("smart-home",)),
        nominal_rate=100.0,
        ladder=(150.0,),
        warmup_s=0.2,
        ladder_warmup_s=0.1,
        setup_repeats=2,
    )


def test_tiny_serve_open_loop(tmp_path):
    out = serve.run_serve(_tiny_serve(), 5, 2.0, False, str(tmp_path), lambda m: None)
    assert out["gate"].ok, out["gate"].first_mismatch
    assert out["detail"]["drain"]["lost"] == 0
    assert out["e2e"]["sustained_rate"] > 0
    assert set(out["e2e"]) == {m.name for m in catalogue.END_TO_END}
    json.dumps(out["detail"])


def test_tiny_serve_open_loop_traced(tmp_path):
    out = serve.run_serve(_tiny_serve(), 6, 2.0, True, str(tmp_path), lambda m: None)
    assert out["gate"].ok and out["trace_gate"].ok
    assert all(table.ok for table in out["tables"])
    assert out["layers"]["serve.submit.s"] > 0
    assert out["layers"]["loadgen.sent"] == out["detail"]["records_sent"]
