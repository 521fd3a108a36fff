"""Process-mode supervisor plumbing: availability fallback and cleanup.

The supervisor's constructor starts the shard workers, which doubles as
the availability probe: where processes cannot be started it raises,
and the facade runs the same decomposition in-process
(``process-fallback``).  Whatever happens, a finished run leaves no
worker process, parent thread or pipe behind.
"""

import multiprocessing
import os
import threading

import pytest

from repro.engine import EngineConfig, FaultConfig, ShardedEngine
from repro.engine.workload import scalability_workload

from .faults import EveryShardOnce

SHARDS = 3


@pytest.fixture(scope="module")
def workload():
    return scalability_workload(300, scope_groups=SHARDS, types_per_group=2)


def run_engine(workload, mode, injector=None):
    constraints, contexts = workload
    engine = ShardedEngine(
        constraints,
        strategy="drop-latest",
        config=EngineConfig(
            shards=SHARDS,
            mode=mode,
            use_delay=5.0,
            batch_size=16,
            fault=FaultConfig(
                max_retries=2,
                batch_timeout_s=5.0,
                backoff_base_s=0.01,
                heartbeat_interval_s=0.1,
                checkpoint_every=2,
            ),
        ),
        fault_injector=injector,
    )
    return engine.run(list(contexts))


def open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


class TestUnavailableFallback:
    def test_unstartable_workers_fall_back_in_process(self, workload, monkeypatch):
        def refuse(self):
            raise OSError("process creation is not permitted here")

        monkeypatch.setattr(multiprocessing.Process, "start", refuse)
        fds = open_fds()
        result = run_engine(workload, "process")
        assert result.metrics.mode == "process-fallback"
        local = run_engine(workload, "local")
        assert result.decision_signature() == local.decision_signature()
        assert open_fds() <= fds


class TestNoLeaks:
    def assert_clean(self, threads, fds):
        assert multiprocessing.active_children() == []
        assert set(threading.enumerate()) <= threads
        assert open_fds() <= fds

    def test_clean_run_leaves_nothing_behind(self, workload):
        threads, fds = set(threading.enumerate()), open_fds()
        result = run_engine(workload, "process")
        assert result.metrics.mode == "process"
        self.assert_clean(threads, fds)

    @pytest.mark.faults
    def test_crashed_workers_leave_nothing_behind(self, workload):
        threads, fds = set(threading.enumerate()), open_fds()
        result = run_engine(workload, "process", injector=EveryShardOnce())
        assert result.metrics.worker_restarts == SHARDS
        self.assert_clean(threads, fds)
