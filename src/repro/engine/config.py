"""Engine configuration.

One frozen dataclass collects every tunable of the sharded engine so
the CLI, the benchmarks and the tests construct engines the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..runtime.snapshot import AsyncCheckConfig

__all__ = ["EngineConfig", "FaultConfig"]

#: Execution modes.
#:
#: * ``inline`` -- every shard runs in-process behind a single global
#:   control loop that preserves the single-pool middleware's use
#:   schedule exactly (deterministic mode; bit-for-bit decision
#:   equivalence for both window kinds).
#: * ``local`` -- shards still run in-process but each consumes its
#:   own sub-stream with shard-local windows (the decomposition the
#:   process mode uses, without the processes; useful for testing it).
#: * ``process`` -- shards run in supervised worker processes
#:   (:mod:`repro.engine.supervisor`), one per shard, fed batches over
#:   per-lane pipes within a bounded in-flight window and retried from
#:   checkpoints on failure; windows are shard-local.  With time-based
#:   windows and timestamp-ordered streams this is decision-equivalent
#:   to ``inline`` (see docs/engine.md).
MODES = ("inline", "local", "process")


@dataclass(frozen=True)
class FaultConfig:
    """Fault-tolerance tunables of the process execution mode.

    The supervisor (:mod:`repro.engine.supervisor`) retries a failed
    shard worker with exponential backoff, replays its unacknowledged
    batches from the last checkpoint, and -- once the retry budget is
    spent -- either degrades the shard to in-parent ``local`` execution
    or raises :class:`~repro.engine.supervisor.EngineWorkerError`.
    Decisions are identical whichever path executes (see
    docs/engine.md, "Failure handling").

    Parameters
    ----------
    max_retries:
        Worker respawns allowed per shard after the initial attempt.
    batch_timeout_s:
        Seconds without batch progress (acks) before an alive worker
        with outstanding work is declared hung and terminated.
    backoff_base_s:
        First retry delay; doubles per attempt up to ``backoff_max_s``.
    backoff_max_s:
        Upper bound on the exponential backoff delay.
    backoff_jitter:
        Fractional random jitter applied to each delay (``0.1`` means
        +-10%), decorrelating simultaneous respawns.
    heartbeat_interval_s:
        Period of the worker's heartbeat thread.  A worker whose
        heartbeats stop while it has outstanding work is treated as
        stalled without waiting out the full batch timeout.  ``0``
        disables heartbeats.
    checkpoint_every:
        A worker ships a state checkpoint with every Nth batch ack;
        replay after a failure restarts from the last checkpoint, so
        this bounds both the replay-log memory and the recomputation a
        crash can cost.  ``0`` disables checkpointing (a failed shard
        replays its whole sub-stream).
    degrade_on_exhaustion:
        When a shard exceeds ``max_retries``: ``True`` continues the
        shard in-parent (``local`` execution, same decisions),
        ``False`` raises ``EngineWorkerError``.
    """

    max_retries: int = 2
    batch_timeout_s: float = 30.0
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    backoff_jitter: float = 0.1
    heartbeat_interval_s: float = 0.5
    checkpoint_every: int = 8
    degrade_on_exhaustion: bool = True

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.batch_timeout_s <= 0:
            raise ValueError(
                f"batch_timeout_s must be > 0, got {self.batch_timeout_s}"
            )
        if self.backoff_base_s < 0:
            raise ValueError(
                f"backoff_base_s must be >= 0, got {self.backoff_base_s}"
            )
        if self.backoff_max_s < self.backoff_base_s:
            raise ValueError(
                "backoff_max_s must be >= backoff_base_s, got "
                f"{self.backoff_max_s} < {self.backoff_base_s}"
            )
        if not 0 <= self.backoff_jitter <= 1:
            raise ValueError(
                f"backoff_jitter must be in [0, 1], got {self.backoff_jitter}"
            )
        if self.heartbeat_interval_s < 0:
            raise ValueError(
                "heartbeat_interval_s must be >= 0, got "
                f"{self.heartbeat_interval_s}"
            )
        if self.checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {self.checkpoint_every}"
            )

    def backoff_delay(self, attempt: int) -> float:
        """Deterministic (pre-jitter) delay before retry ``attempt``."""
        if attempt < 1:
            return 0.0
        return min(
            self.backoff_max_s, self.backoff_base_s * 2 ** (attempt - 1)
        )


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of a :class:`~repro.engine.facade.ShardedEngine` run.

    Parameters
    ----------
    shards:
        Number of shards to spread the constraint scopes over (>= 1).
        Independent scopes are packed onto shards balancing estimated
        load; asking for more shards than there are independent scopes
        leaves the surplus shards empty.
    mode:
        ``inline`` (default, deterministic), ``local`` or ``process``.
    use_window:
        Count-based use window (arrivals before a context is used),
        exactly as in :class:`~repro.middleware.manager.Middleware`.
        Ignored when ``use_delay`` is set.
    use_delay:
        Time-based use window (simulated seconds).
    batch_size:
        Contexts per batch handed to a shard worker (process mode).
    max_queue_batches:
        Bound on each shard's in-flight (dispatched, unacknowledged)
        batches.  When a shard falls this far behind the router stalls
        -- backpressure that keeps memory proportional to
        ``shards * max_queue_batches * batch_size`` however long the
        stream is.
    fault:
        Fault-tolerance tunables of process mode (supervision,
        retry/backoff, checkpointed replay); see :class:`FaultConfig`.
    kernels:
        Compile constraint bodies into specialized closures and prune
        candidate enumeration through equality-join indexes (default).
        ``False`` forces the interpreted reference path -- the
        ``repro engine run --no-kernels`` escape hatch.
    batch_kernels:
        Columnar batched detection (default): the runtime batch path
        plans whole runs of arrivals through
        ``ConstraintChecker.detect_batch`` -- vectorized batch
        kernels, fused same-shape constraints, shared candidate-index
        probes.  Decision-neutral by construction (the equivalence and
        golden suites pin it); ``False`` is the ``repro engine run
        --no-batch-kernels`` escape hatch and the A/B lever of the
        ``detection_batch`` benchmark column.
    ledger_path:
        When set, the run writes an immutable decision ledger (see
        :mod:`repro.ledger`) to this JSONL path: every arrival,
        detection and verdict hash-chained under the run's
        ``ruleset_hash``.  Works in every mode -- local/process runs
        merge per-shard segments into the same deterministic global
        order as the merged events.
    ledger_fsync:
        Force-fsync every ledger flush (durability over throughput).
    async_check:
        Optional :class:`~repro.runtime.snapshot.AsyncCheckConfig`
        enabling the snapshot-window asynchronous checking mode:
        arrivals are buffered, deduplicated and released to the
        checker in timestamp order behind a watermark, tolerating
        late / reordered / duplicated streams.  ``None`` (default) is
        the historical synchronous path.  Decision-*relevant* (a
        perturbed stream resolves differently with it on), so it is
        recorded in the ledger ruleset, not in ``meta``.  In inline
        mode one global window orders the whole stream; in local /
        process modes each shard windows its own sub-stream.
    """

    shards: int = 4
    mode: str = "inline"
    use_window: int = 4
    use_delay: Optional[float] = None
    batch_size: int = 64
    max_queue_batches: int = 8
    fault: FaultConfig = field(default_factory=FaultConfig)
    kernels: bool = True
    batch_kernels: bool = True
    ledger_path: Optional[str] = None
    ledger_fsync: bool = False
    async_check: Optional[AsyncCheckConfig] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.mode not in MODES:
            raise ValueError(
                f"mode must be one of {MODES}, got {self.mode!r}"
            )
        if self.use_window < 0:
            raise ValueError(f"use_window must be >= 0, got {self.use_window}")
        if self.use_delay is not None and self.use_delay < 0:
            raise ValueError(f"use_delay must be >= 0, got {self.use_delay}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_queue_batches < 1:
            raise ValueError(
                f"max_queue_batches must be >= 1, got {self.max_queue_batches}"
            )
        if not isinstance(self.fault, FaultConfig):
            raise ValueError(
                f"fault must be a FaultConfig, got {type(self.fault).__name__}"
            )
        if self.async_check is not None and not isinstance(
            self.async_check, AsyncCheckConfig
        ):
            raise ValueError(
                "async_check must be an AsyncCheckConfig or None, got "
                f"{type(self.async_check).__name__}"
            )

    def with_shards(self, shards: int) -> "EngineConfig":
        """This configuration with a different shard count."""
        return replace(self, shards=shards)
