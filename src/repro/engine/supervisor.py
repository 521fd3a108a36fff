"""Worker supervision for the engine's process execution mode.

:class:`ShardSupervisor` owns the worker processes of one
``mode="process"`` run and makes them survive the checking substrate's
own failures -- the property the paper's middleware setting demands
(consistency services keep resolving under unreliable inputs, so the
resolution substrate itself must tolerate partial failure):

* **Supervision loop.** One single-threaded event loop routes the
  context stream into per-shard batches, dispatches them within a
  bounded in-flight window (``max_queue_batches``, enforced by the
  supervisor's ack accounting), drains worker acknowledgements, and
  watches liveness: process exit codes, per-batch progress deadlines
  (``batch_timeout_s``) and worker heartbeats.
* **Per-lane channels.** Each worker attempt gets two fresh pipes of
  its own: a work pipe the parent writes batches into and an ack pipe
  the worker reports back on.  The loop blocks in
  :func:`multiprocessing.connection.wait` on every lane's ack reader
  and worker sentinel, so an ack, a result or a worker exit wakes it
  at once, and no broker process relays (and re-pickles) messages.
  The parent never blocks writing: work frames that do not fit the
  pipe stay pending on the lane and go out on a later turn, so a busy
  or wedged worker cannot stall the loop.  The parent keeps neither
  pipe's worker end (and forked workers drop their copies of the
  parent ends), so a worker that dies -- even mid-message -- surfaces
  as end-of-file or a broken pipe on its own lane only.
* **Checkpointed batch replay.** Every dispatched batch is retained in
  a per-shard replay log until a worker ack carrying a
  :class:`~repro.engine.shard.ShardCheckpoint` covers it.  A crashed or
  hung worker is respawned from the last checkpoint and replayed the
  retained batches in order -- deterministically, because the worker's
  whole mutable state rides in the checkpoint and batch application is
  idempotent by index.  Results from a failed attempt never leak: a
  worker only ships decisions in its final result message.
* **Retry with exponential backoff and jitter.**  Each shard has a
  retry budget (``max_retries``); respawns are delayed by
  ``backoff_base_s * 2**(attempt-1)`` (capped, jittered) without
  blocking the other shards' progress.
* **Graceful degradation.**  A shard that exhausts its budget either
  continues **in-parent** from its last checkpoint (``local``
  execution, identical decisions -- the run completes with
  ``engine_degraded{shard=...}`` set) or, with
  ``degrade_on_exhaustion=False``, raises :class:`EngineWorkerError`
  carrying the worker's traceback.  Worker failures are never silent:
  every one is logged with its traceback and counted in
  ``engine_worker_failures_total``.

The telemetry series recorded here (``engine_worker_restarts_total``,
``engine_batches_replayed_total``, ``engine_worker_failures_total``,
``engine_degraded``) are documented in docs/observability.md; the
failure-handling semantics in docs/engine.md.
"""

from __future__ import annotations

import logging
import os
import pickle
import random
import struct
import time
from collections import deque
from enum import Enum
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from ..core.context import Context
from ..obs.telemetry import Telemetry
from .config import EngineConfig, FaultConfig
from .shard import (
    ShardCheckpoint,
    ShardExecutionState,
    ShardRunResult,
    ShardSpec,
    run_shard_supervised,
)

__all__ = ["EngineWorkerError", "ShardSupervisor"]

_log = logging.getLogger("repro.engine")

#: Idle poll granularity of the supervision loop (seconds).  Acks wake
#: the loop earlier; this only bounds how stale liveness checks can be.
_POLL_S = 0.02


class EngineWorkerError(RuntimeError):
    """A shard worker failed beyond its retry budget (no degradation).

    Raised by the supervisor when ``degrade_on_exhaustion`` is off.
    Carries the shard, the number of attempts made and the last
    failure's detail (including the worker traceback when one was
    reported) -- decisions are never silently dropped.
    """

    def __init__(self, shard_id: int, attempts: int, detail: str) -> None:
        super().__init__(
            f"shard {shard_id} worker failed after {attempts} attempt(s): "
            f"{detail}"
        )
        self.shard_id = shard_id
        self.attempts = attempts
        self.detail = detail


class _WorkChannel:
    """Parent end of one worker's work pipe: framed, non-blocking writes.

    Frames follow :meth:`multiprocessing.connection.Connection.send`
    (a 4-byte big-endian length, then the pickle), so the worker reads
    them with a plain blocking ``recv``.  Whatever the pipe cannot take
    now stays in ``pending`` and is written by a later :meth:`flush`.
    Once the worker is gone (broken pipe) pending bytes are dropped:
    the lane is about to be respawned or degraded with fresh channels.
    """

    def __init__(self, conn) -> None:
        self.conn = conn
        self.fd = conn.fileno()
        os.set_blocking(self.fd, False)
        self.pending = bytearray()

    def put(self, message) -> None:
        payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        self.pending += struct.pack("!i", len(payload))
        self.pending += payload
        self.flush()

    def flush(self) -> None:
        try:
            while self.pending:
                del self.pending[: os.write(self.fd, self.pending)]
        except BlockingIOError:
            pass
        except OSError:
            self.pending.clear()

    def close(self) -> None:
        self.pending.clear()
        self.conn.close()


class _LaneStatus(Enum):
    RUNNING = "running"
    BACKOFF = "backoff"
    DEGRADED = "degraded"
    DONE = "done"


class _Lane:
    """Supervision state of one shard: worker, replay log, budget."""

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.status = _LaneStatus.RUNNING
        self.process = None
        #: Parent ends of the current attempt's pipes.
        self.work: Optional[_WorkChannel] = None
        self.acks = None
        #: Contexts routed here but not yet batched.
        self.buffer: List[Context] = []
        self.next_batch_index = 0
        #: Batches awaiting dispatch, in index order.
        self.outbox: Deque[Tuple[int, List[Context]]] = deque()
        #: Dispatched, unacknowledged batches.
        self.inflight: Dict[int, List[Context]] = {}
        #: Acknowledged batches not yet covered by a checkpoint -- the
        #: replay log a respawn re-dispatches.
        self.acked_tail: Deque[Tuple[int, List[Context]]] = deque()
        self.checkpoint: Optional[ShardCheckpoint] = None
        self.attempt = 0
        self.restarts = 0
        self.failures: List[str] = []
        self.sentinel_sent = False
        self.not_before = 0.0
        self.last_progress = 0.0
        self.last_heartbeat = 0.0
        self.result: Optional[ShardRunResult] = None
        #: In-parent execution state once the lane has degraded.
        self.local_state: Optional[ShardExecutionState] = None

    def flush_buffer(self) -> None:
        if self.buffer:
            self.outbox.append((self.next_batch_index, self.buffer))
            self.next_batch_index += 1
            self.buffer = []

    def outstanding(self) -> bool:
        """Whether the worker owes us progress (acks or the result)."""
        return bool(self.inflight) or (
            self.sentinel_sent and self.result is None
        )

    def replay_batches(self) -> List[Tuple[int, List[Context]]]:
        """Dispatched batches the last checkpoint does not cover."""
        return sorted(list(self.acked_tail) + list(self.inflight.items()))


class ShardSupervisor:
    """Supervised process-mode execution over one engine run.

    Constructing the supervisor spawns one worker per shard.  That is
    the availability probe: where ``multiprocessing`` cannot import or
    a process cannot be started, construction raises (``ImportError``,
    ``OSError``, ``PermissionError``) with nothing left running, and
    the facade falls back to the in-process decomposition.
    :meth:`run` drives the loop; :meth:`close` reaps whatever is still
    alive.
    """

    def __init__(
        self,
        specs: List[ShardSpec],
        route: Callable[[Context], int],
        config: EngineConfig,
        telemetry: Telemetry,
    ) -> None:
        import multiprocessing
        from multiprocessing import connection, util

        self._mp = multiprocessing
        self._wait = connection.wait
        self._after_fork = util.register_after_fork
        self.config = config
        self.fault: FaultConfig = config.fault
        self.route = route
        self.telemetry = telemetry
        self._rng = random.Random()
        self.lanes = [_Lane(spec) for spec in specs]
        now = time.monotonic()
        try:
            for lane in self.lanes:
                self._spawn(lane, now)
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------------

    def run(self, contexts: Iterable[Context]) -> List[ShardRunResult]:
        """Resolve the whole stream; per-shard results in shard order.

        Raises :class:`EngineWorkerError` when a shard exhausts its
        retry budget and degradation is disabled.
        """
        stream = iter(contexts)
        stream_done = False
        while True:
            stream_done = self._pump(stream, stream_done)
            for lane in self.lanes:
                self._service(lane, stream_done)
            self._drain_acks(_POLL_S)
            now = time.monotonic()
            for lane in self.lanes:
                self._check_liveness(lane, now)
            if all(lane.result is not None for lane in self.lanes):
                return [lane.result for lane in self.lanes]

    def close(self) -> None:
        """Terminate surviving workers and close their channels."""
        for lane in self.lanes:
            self._reap(lane)

    # -- input pumping -------------------------------------------------------

    def _pump(self, stream, stream_done: bool) -> bool:
        """Route contexts into lane buffers while no lane is backlogged.

        Backpressure: pulling pauses while any lane's outbox is at the
        ``max_queue_batches`` bound (its worker is behind or mid-retry),
        exactly bounding retained-but-undispatched memory.
        """
        if stream_done:
            return True
        bound = self.config.max_queue_batches
        batch_size = self.config.batch_size
        while all(len(lane.outbox) < bound for lane in self.lanes):
            try:
                ctx = next(stream)
            except StopIteration:
                for lane in self.lanes:
                    lane.flush_buffer()
                return True
            lane = self.lanes[self.route(ctx)]
            lane.buffer.append(ctx)
            if len(lane.buffer) >= batch_size:
                lane.flush_buffer()
        return False

    # -- dispatch ------------------------------------------------------------

    def _service(self, lane: _Lane, stream_done: bool) -> None:
        if lane.status is _LaneStatus.DONE:
            return
        if lane.status is _LaneStatus.DEGRADED:
            self._service_degraded(lane, stream_done)
            return
        if lane.status is _LaneStatus.BACKOFF:
            return  # respawned by _check_liveness once the delay passes
        work = lane.work
        work.flush()
        while lane.outbox and len(lane.inflight) < self.config.max_queue_batches:
            index, batch = lane.outbox.popleft()
            lane.inflight[index] = batch
            work.put((index, batch))
        if (
            stream_done
            and not lane.buffer
            and not lane.outbox
            and not lane.sentinel_sent
        ):
            work.put(None)
            lane.sentinel_sent = True
            lane.last_progress = time.monotonic()

    def _service_degraded(self, lane: _Lane, stream_done: bool) -> None:
        state = lane.local_state
        while lane.outbox:
            index, batch = lane.outbox.popleft()
            state.process_batch(index, batch)
        if stream_done and not lane.buffer and lane.result is None:
            lane.result = state.finish()
            lane.status = _LaneStatus.DONE

    # -- acknowledgements ----------------------------------------------------

    def _drain_acks(self, timeout: float) -> None:
        """Wait up to ``timeout`` for any lane's ack or worker exit, then
        handle every message already received.

        A lane with work still pending in the parent is polled every
        millisecond instead, so its pipe is refilled as the worker
        drains it.
        """
        readers = {}
        waitables = []
        for lane in self.lanes:
            if lane.acks is not None:
                readers[lane.acks] = lane
                waitables.append(lane.acks)
                if lane.work is not None and lane.work.pending:
                    timeout = min(timeout, 0.001)
            if lane.process is not None:
                waitables.append(lane.process.sentinel)
        for ready in self._wait(waitables, timeout):
            lane = readers.get(ready)
            if lane is None:
                continue  # a sentinel: _check_liveness handles the exit
            while lane.acks is ready and ready.poll():
                try:
                    message = ready.recv()
                except (EOFError, OSError):
                    # The worker closed its end, possibly mid-message:
                    # only this lane's channel is unusable, and
                    # _check_liveness retries the lane once it sees the
                    # dead process.
                    lane.acks = None
                    ready.close()
                    break
                self._handle_message(message)

    def _handle_message(self, message) -> None:
        kind, shard_id, attempt = message[0], message[1], message[2]
        lane = self.lanes[shard_id]
        if attempt != lane.attempt or lane.status in (
            _LaneStatus.DEGRADED,
            _LaneStatus.DONE,
        ):
            return  # stale message from a terminated attempt
        now = time.monotonic()
        lane.last_heartbeat = now
        if kind == "ack":
            _, _, _, index, _count, ckpt = message
            batch = lane.inflight.pop(index, None)
            if batch is not None:
                lane.acked_tail.append((index, batch))
            lane.last_progress = now
            if ckpt is not None:
                lane.checkpoint = ckpt
                while (
                    lane.acked_tail
                    and lane.acked_tail[0][0] <= ckpt.batch_index
                ):
                    lane.acked_tail.popleft()
        elif kind == "result":
            lane.result = message[3]
            lane.status = _LaneStatus.DONE
            self._reap(lane)
        elif kind == "error":
            _, _, _, index, tb_text = message
            self._handle_failure(
                lane,
                kind="error",
                detail=f"batch {index} raised in the worker:\n{tb_text}",
            )
        elif kind == "warn":
            _log.warning("shard %d worker: %s", shard_id, message[3])
        # "ready" and "hb" only refresh the heartbeat above.

    # -- liveness ------------------------------------------------------------

    def _check_liveness(self, lane: _Lane, now: float) -> None:
        if lane.status is _LaneStatus.BACKOFF:
            if now >= lane.not_before:
                self._spawn(lane, now)
            return
        if lane.status is not _LaneStatus.RUNNING:
            return
        if lane.process is not None and not lane.process.is_alive():
            # A clean result may still be in flight; look once more
            # before declaring the worker crashed.
            self._drain_acks(0.0)
            if lane.result is not None or lane.status is not _LaneStatus.RUNNING:
                return
            self._handle_failure(
                lane,
                kind="crash",
                detail=(
                    "worker process exited with code "
                    f"{lane.process.exitcode} before delivering its result"
                ),
            )
            return
        if not lane.outstanding():
            return
        fault = self.fault
        if now - lane.last_progress > fault.batch_timeout_s:
            self._handle_failure(
                lane,
                kind="timeout",
                detail=(
                    f"no batch progress for {fault.batch_timeout_s:g}s "
                    f"with {len(lane.inflight)} batch(es) in flight"
                ),
            )
            return
        if fault.heartbeat_interval_s > 0:
            stale_after = max(5 * fault.heartbeat_interval_s, 2.0)
            if now - lane.last_heartbeat > stale_after:
                self._handle_failure(
                    lane,
                    kind="stalled",
                    detail=f"worker heartbeats stopped for {stale_after:g}s",
                )

    # -- failure handling ----------------------------------------------------

    def _handle_failure(self, lane: _Lane, kind: str, detail: str) -> None:
        shard_id = lane.spec.shard_id
        lane.failures.append(f"[attempt {lane.attempt}] {kind}: {detail}")
        _log.warning(
            "shard %d worker failure (%s, attempt %d/%d): %s",
            shard_id,
            kind,
            lane.attempt + 1,
            self.fault.max_retries + 1,
            detail,
        )
        self._counter(
            "engine_worker_failures_total",
            help="Shard worker failures noticed by the supervisor",
            labels={"shard": str(shard_id), "kind": kind},
        ).inc()
        self._reap(lane)
        if lane.attempt >= self.fault.max_retries:
            self._exhaust(lane)
            return
        lane.attempt += 1
        delay = self.fault.backoff_delay(lane.attempt)
        if self.fault.backoff_jitter:
            delay *= 1 + self._rng.uniform(
                -self.fault.backoff_jitter, self.fault.backoff_jitter
            )
        lane.status = _LaneStatus.BACKOFF
        lane.not_before = time.monotonic() + delay

    def _exhaust(self, lane: _Lane) -> None:
        shard_id = lane.spec.shard_id
        attempts = lane.attempt + 1
        if not self.fault.degrade_on_exhaustion:
            raise EngineWorkerError(shard_id, attempts, lane.failures[-1])
        _log.warning(
            "shard %d exhausted its retry budget (%d attempts); degrading "
            "to in-parent local execution from batch %d",
            shard_id,
            attempts,
            (lane.checkpoint.batch_index + 1) if lane.checkpoint else 0,
        )
        with self.telemetry.span(
            "engine.shard.degrade", shard=shard_id, attempts=attempts
        ):
            replay = lane.replay_batches()
            self._counter(
                "engine_batches_replayed_total",
                help="Batches re-dispatched after worker failures",
                labels={"shard": str(shard_id)},
            ).inc(len(replay))
            state = ShardExecutionState(lane.spec, checkpoint=lane.checkpoint)
            for index, batch in replay + sorted(lane.outbox):
                state.process_batch(index, batch)
        lane.inflight.clear()
        lane.acked_tail.clear()
        lane.outbox.clear()
        lane.local_state = state
        lane.status = _LaneStatus.DEGRADED
        self.telemetry.registry.gauge(
            "engine_degraded",
            help="1 when the shard finished in-parent after retry exhaustion",
            labels={"shard": str(shard_id)},
        ).set(1.0)

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, lane: _Lane, now: float) -> None:
        """(Re)start a worker for ``lane``, replaying unacked batches."""
        shard_id = lane.spec.shard_id
        respawn = lane.attempt > 0
        if respawn:
            replay = lane.replay_batches()
            lane.outbox = deque(replay + sorted(lane.outbox))
            lane.inflight.clear()
            lane.acked_tail.clear()
            lane.sentinel_sent = False
            lane.restarts += 1
            self._counter(
                "engine_worker_restarts_total",
                help="Shard worker respawns after failures",
                labels={"shard": str(shard_id)},
            ).inc()
            self._counter(
                "engine_batches_replayed_total",
                help="Batches re-dispatched after worker failures",
                labels={"shard": str(shard_id)},
            ).inc(len(replay))
        try:
            with self.telemetry.span(
                "engine.worker.restart" if respawn else "engine.worker.spawn",
                shard=shard_id,
                attempt=lane.attempt,
            ):
                process = self._start_worker(lane)
        except OSError as error:
            if not respawn:
                raise  # the availability probe (see the class docstring)
            self._handle_failure(
                lane, kind="spawn", detail=f"could not start worker: {error}"
            )
            return
        lane.process = process
        lane.status = _LaneStatus.RUNNING
        lane.last_progress = now
        lane.last_heartbeat = now

    def _start_worker(self, lane: _Lane):
        """Start one worker attempt on two fresh pipes.

        The worker ends are closed in the parent right after the fork,
        and every forked child closes its inherited copies of the
        parent ends, so each pipe has exactly one reader and one writer
        and a dead peer shows up as end-of-file or a broken pipe.
        """
        work_reader, work_writer = self._mp.Pipe(duplex=False)
        ack_reader, ack_writer = self._mp.Pipe(duplex=False)
        for parent_end in (work_writer, ack_reader):
            self._after_fork(parent_end, type(parent_end).close)
        process = self._mp.Process(
            target=run_shard_supervised,
            args=(lane.spec, work_reader, ack_writer),
            kwargs={
                "fault": self.fault,
                "attempt": lane.attempt,
                "checkpoint": lane.checkpoint,
            },
            daemon=True,
        )
        try:
            process.start()
        except BaseException:
            work_writer.close()
            ack_reader.close()
            raise
        finally:
            work_reader.close()
            ack_writer.close()
        lane.work = _WorkChannel(work_writer)
        lane.acks = ack_reader
        return process

    def _reap(self, lane: _Lane) -> None:
        """Stop the lane's worker (if any) and close its channels."""
        process = lane.process
        if process is not None:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - SIGTERM ignored
                    process.kill()
                    process.join(timeout=2.0)
            else:
                process.join(timeout=0.1)
            if process.exitcode is not None:
                process.close()  # releases the sentinel fd now, not at GC
            lane.process = None
        if lane.work is not None:
            lane.work.close()
            lane.work = None
        if lane.acks is not None:
            lane.acks.close()
            lane.acks = None

    # -- telemetry -----------------------------------------------------------

    def _counter(self, name: str, *, help: str, labels: Dict[str, str]):
        # Supervision accounting is recorded even on disabled bundles,
        # like ShardPipeline.flush_stats: EngineMetrics is a view over
        # these series in every execution mode.
        return self.telemetry.registry.counter(name, help=help, labels=labels)
