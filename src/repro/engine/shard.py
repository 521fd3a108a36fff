"""Shard adapters over the canonical runtime, plus process plumbing.

Since ISSUE 5 the receive/check/resolve/use/expire life cycle lives in
exactly one place -- :mod:`repro.runtime` -- and this module only
*adapts* it to the sharded engine:

* :class:`ShardPipeline` is a
  :class:`~repro.runtime.pipeline.ResolutionPipeline` with a shard id,
  per-shard arrival/use counters and the ``engine_shard_*`` accounting
  (:meth:`~ShardPipeline.flush_stats`).  No stage logic is defined
  here.
* Shards are driven by the runtime's own
  :class:`~repro.runtime.pipeline.PipelineDriver`: driving *n*
  pipelines through one driver reproduces the single-pool
  middleware's use schedule globally (inline mode); driving one
  pipeline per driver gives the shard-local schedule worker processes
  use.

:func:`run_shard_substream` runs one shard's whole sub-stream in the
calling process; :func:`run_shard_supervised` is the worker-process
entry point of process mode.  A :class:`ShardSpec` carries everything a
worker needs to rebuild its pipeline, in picklable form.

:class:`ShardExecutionState` is the checkpointable core the supervised
entry point (and the supervisor's in-parent degraded lane) drive: it
owns the pipeline, the shard-local driver and the event log, applies
batches idempotently by batch index through the runtime's arrival loop
(:func:`repro.runtime.batch.receive_batch`), and can capture / restore
a :class:`ShardCheckpoint`, the plain-data snapshot that makes
deterministic replay after a worker crash possible.
"""

from __future__ import annotations

import pickle
import threading
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..constraints.ast import Constraint
from ..constraints.builtins import FunctionRegistry, standard_registry
from ..constraints.checker import ConstraintChecker
from ..core.context import Context
from ..core.resolver import AddOutcome, UseOutcome
from ..core.strategy import ResolutionStrategy, make_strategy
from ..middleware.bus import Event, EventBus
from ..runtime.batch import receive_batch
from ..runtime.pipeline import PipelineDriver, ResolutionPipeline
from ..runtime.snapshot import AsyncCheckConfig

__all__ = [
    "ShardPipeline",
    "ShardSpec",
    "ShardRunResult",
    "ShardCheckpoint",
    "ShardExecutionState",
    "run_shard_substream",
    "run_shard_supervised",
]


class ShardPipeline(ResolutionPipeline):
    """One shard's pool, detector and strategy, externally scheduled.

    The life cycle itself is inherited; this class adds the shard id,
    the per-shard arrival/use counters and the ``engine_shard_*``
    registry accounting.  The receive/use stage wrappers record
    histogram-only (``wrapper_spans=False``): their interesting
    sub-work (check/resolve/deliver) is already spanned inside, and the
    throughput engine pays for every span it opens (see the telemetry
    overhead benchmark).
    """

    def __init__(
        self,
        shard_id: int,
        detector,
        strategy: ResolutionStrategy,
        bus: Optional[EventBus] = None,
        telemetry=None,
    ) -> None:
        self.shard_id = shard_id
        #: Contexts this shard has processed (arrivals routed here).
        self.arrivals = 0
        self.uses = 0
        # Each pipeline needs a registry of its own (or its engine's):
        # EngineMetrics is a view over it -- flush_stats() lands here,
        # even when the bundle is disabled, so a shared NULL bundle
        # would collide shards into one registry.
        if telemetry is None:
            from ..obs.telemetry import Telemetry

            telemetry = Telemetry.disabled()
        super().__init__(
            detector,
            strategy,
            bus=bus,
            telemetry=telemetry,
            wrapper_spans=False,
        )

    def add(self, ctx: Context, now: float, detected=None) -> AddOutcome:
        self.arrivals += 1
        return super().add(ctx, now, detected=detected)

    def expire_on_receive(self, ctx: Context, now: float) -> None:
        # A dead-on-arrival context was still routed here: it counts
        # toward engine_shard_contexts_total like any other arrival.
        self.arrivals += 1
        super().expire_on_receive(ctx, now)

    def use(self, ctx: Context, now: float) -> UseOutcome:
        self.uses += 1
        return super().use(ctx, now)

    # -- diagnostics --------------------------------------------------------

    def detect_calls(self) -> int:
        detector = self.resolution.detector
        return getattr(detector, "detect_calls", 0)

    def flush_stats(self) -> None:
        """Write this shard's run accounting into the telemetry registry.

        Called once after the shard's stream is drained.  These
        ``engine_shard_*`` series are what
        :meth:`~repro.engine.metrics.EngineMetrics.from_registry`
        reads back -- the registry is the single accounting path, in
        every execution mode.  Recorded even when the bundle is
        disabled (plain counters; the hot-path span/histogram hooks
        stay off).
        """
        registry = self.telemetry.registry
        labels = {"shard": str(self.shard_id)}
        log = self.resolution.log
        registry.counter(
            "engine_shard_contexts_total",
            help="Contexts routed to the shard",
            labels=labels,
        ).inc(self.arrivals)
        registry.counter(
            "engine_shard_delivered_total",
            help="Contexts the shard delivered",
            labels=labels,
        ).inc(len(log.delivered))
        registry.counter(
            "engine_shard_discarded_total",
            help="Contexts the shard discarded",
            labels=labels,
        ).inc(len(log.discarded))
        registry.counter(
            "engine_shard_inconsistencies_total",
            help="Inconsistencies the shard detected",
            labels=labels,
        ).inc(len(log.detected))
        registry.counter(
            "engine_shard_detect_calls_total",
            help="Incremental checker invocations on the shard",
            labels=labels,
        ).inc(self.detect_calls())
        constraints = getattr(self.resolution.detector, "constraints", None)
        if callable(constraints):
            registry.gauge(
                "engine_shard_constraints",
                help="Constraints assigned to the shard",
                labels=labels,
            ).set(len(constraints()))


# -- process-mode plumbing ----------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker process needs to rebuild one shard.

    All fields must be picklable: the constraint ASTs and contexts are
    plain frozen dataclasses; ``registry_factory`` and custom strategy
    factories must be module-level callables.
    """

    shard_id: int
    constraints: Tuple[Constraint, ...]
    strategy: str = "drop-latest"
    strategy_kwargs: Tuple[Tuple[str, object], ...] = ()
    registry_factory: Callable[[], FunctionRegistry] = standard_registry
    use_window: int = 4
    use_delay: Optional[float] = None
    #: Whether a worker rebuilds its pipeline with live telemetry
    #: (spans + histograms); the snapshot ships back in the result.
    telemetry_enabled: bool = False
    #: Chaos/testing hook: called as ``injector(shard_id, batch_index,
    #: attempt, phase)`` with ``phase`` in ``("start", "mid")`` around
    #: each supervised batch, so fault-injection harnesses can crash,
    #: hang or poison workers on schedule.  Runs only in worker
    #: processes -- never in the parent's degraded lane -- and must be
    #: picklable (a module-level callable or instance of one).
    fault_injector: Optional[Callable[[int, int, int, str], None]] = None
    #: Compiled constraint kernels + equality-join candidate indexes
    #: (the ``--no-kernels`` escape hatch turns this off).
    kernels: bool = True
    #: Columnar batched detection: the runtime batch path plans
    #: verdict runs through ``ConstraintChecker.detect_batch`` (the
    #: ``--no-batch-kernels`` escape hatch turns this off; decisions
    #: are identical either way).
    batch_kernels: bool = True
    #: Snapshot-window asynchronous checking for this shard's driver
    #: (``None`` keeps the synchronous path).  A frozen plain-data
    #: config, so it pickles with the spec.
    async_check: Optional[AsyncCheckConfig] = None

    def build(self, telemetry=None) -> ShardPipeline:
        """Rebuild the pipeline; ``telemetry`` overrides the spec flag
        (inline mode shares the engine's bundle across shards)."""
        checker = ConstraintChecker(
            self.constraints,
            registry=self.registry_factory(),
            kernels=self.kernels,
            batch_kernels=self.batch_kernels,
        )
        strategy = make_strategy(self.strategy, **dict(self.strategy_kwargs))
        if telemetry is None:
            from ..obs.telemetry import Telemetry

            telemetry = Telemetry(enabled=self.telemetry_enabled)
        return ShardPipeline(
            self.shard_id, checker, strategy, telemetry=telemetry
        )


@dataclass
class ShardRunResult:
    """What one shard's run produced, in merge-ready form."""

    shard_id: int
    events: List[Event] = field(default_factory=list)
    delivered: List[Context] = field(default_factory=list)
    discarded: List[Context] = field(default_factory=list)
    stats: Dict[str, float] = field(default_factory=dict)
    #: Serialized :meth:`repro.obs.Telemetry.snapshot` of the worker's
    #: bundle; merged into the parent registry after the run.
    telemetry: Optional[Dict[str, object]] = None


@dataclass
class ShardCheckpoint:
    """Plain-data snapshot of one shard's mid-stream execution state.

    Everything a respawned worker (or the supervisor's in-parent
    degraded lane) needs to resume exactly where the checkpointing
    worker acked: the strategy instance, the audit log, the pool
    contents, the shard-local driver's clock and
    :class:`~repro.runtime.scheduler.UseScheduler` snapshot, and the
    events published so far.  The expiry heap and the checker's
    candidate indexes are *not* captured: restoring re-adds the pool
    contents, and both structures rebuild themselves through the pool
    listeners.  All fields are picklable plain data -- the unpicklable
    machinery (checker registry closures, telemetry locks) is rebuilt
    from the :class:`ShardSpec` on restore, which is sound because the
    checker keeps no per-context state beyond ``detect_calls``.

    Because one checkpoint pickles as a single object graph, shared
    ``Context`` references (pool vs. strategy state vs. events) stay
    shared after a round-trip.
    """

    shard_id: int
    #: Index of the last batch folded into this state.
    batch_index: int
    total: int
    elapsed_s: float
    strategy: ResolutionStrategy
    log: object  # ResolutionLog; typed loosely to keep imports acyclic
    detect_calls: int
    pool_contexts: List[Context]
    arrivals: int
    uses: int
    clock_now: float
    #: :meth:`repro.runtime.scheduler.UseScheduler.snapshot` payload.
    scheduler: Dict[str, object]
    driver_delivered: List[Context]
    events: List[Event]
    #: :meth:`repro.runtime.snapshot.SnapshotIngress.snapshot` payload
    #: (``None`` when the shard runs synchronously) -- without it, a
    #: respawned worker would lose the contexts the snapshot window
    #: still buffered at checkpoint time.
    ingress: Optional[Dict[str, object]] = None


class ShardExecutionState:
    """One shard's live pipeline + driver + event log, checkpointable.

    The unit both supervised executors drive: the worker process loop
    (:func:`run_shard_supervised`) and the supervisor's in-parent
    degraded lane feed it batches; :func:`run_shard_substream` drives
    it over a whole sub-stream.  Batches are applied idempotently by
    index (``last_batch_index`` guards re-entry, so a replayed batch
    the state already contains is a no-op) and the whole mutable state
    can round-trip through a :class:`ShardCheckpoint`.
    """

    def __init__(
        self,
        spec: ShardSpec,
        checkpoint: Optional[ShardCheckpoint] = None,
        telemetry=None,
    ) -> None:
        self.spec = spec
        self.started = time.perf_counter()
        self.pipeline = spec.build(telemetry=telemetry)
        self.telemetry = self.pipeline.telemetry
        self.events: List[Event] = []
        self.pipeline.bus.subscribe(Event, self.events.append)
        self.driver = PipelineDriver(
            [self.pipeline],
            lambda _ctx: 0,
            use_window=spec.use_window,
            use_delay=spec.use_delay,
            async_check=spec.async_check,
            batch_kernels=spec.batch_kernels,
        )
        self.total = 0
        self.last_batch_index = -1
        #: Work seconds accumulated by previous attempts (restored from
        #: the checkpoint), so elapsed stats survive respawns.
        self.elapsed_before = 0.0
        self._batch_histogram = (
            self.telemetry.registry.histogram(
                "engine_batch_seconds",
                help="Per-batch resolution latency on the shard",
                labels={"shard": str(spec.shard_id)},
            )
            if self.telemetry.enabled
            else None
        )
        if checkpoint is not None:
            self._restore(checkpoint)

    # -- checkpoint / restore ------------------------------------------------

    def _restore(self, ckpt: ShardCheckpoint) -> None:
        pipeline = self.pipeline
        resolution = pipeline.resolution
        resolution.strategy = ckpt.strategy
        resolution.log = ckpt.log
        detector = resolution.detector
        if hasattr(detector, "detect_calls"):
            detector.detect_calls = ckpt.detect_calls
        for ctx in ckpt.pool_contexts:
            # Re-adding rebuilds the expiry heap and the checker's
            # candidate indexes through the pool listeners.
            pipeline.pool.add(ctx)
        pipeline.arrivals = ckpt.arrivals
        pipeline.uses = ckpt.uses
        driver = self.driver
        driver.clock.advance_to(ckpt.clock_now)
        driver.scheduler.restore(ckpt.scheduler)
        driver.delivered = list(ckpt.driver_delivered)
        if ckpt.ingress is not None and driver.ingress is not None:
            driver.ingress.restore(ckpt.ingress)
        self.events.extend(ckpt.events)
        self.total = ckpt.total
        self.last_batch_index = ckpt.batch_index
        self.elapsed_before = ckpt.elapsed_s

    def checkpoint(self) -> ShardCheckpoint:
        """Snapshot the current state (after a fully applied batch).

        The snapshot aliases live objects; callers serialize it
        immediately (the worker pickles each ack as it sends it), which
        is what makes it a point-in-time copy.
        """
        pipeline = self.pipeline
        resolution = pipeline.resolution
        driver = self.driver
        return ShardCheckpoint(
            shard_id=self.spec.shard_id,
            batch_index=self.last_batch_index,
            total=self.total,
            elapsed_s=self.elapsed_before
            + (time.perf_counter() - self.started),
            strategy=resolution.strategy,
            log=resolution.log,
            detect_calls=getattr(resolution.detector, "detect_calls", 0),
            pool_contexts=pipeline.pool.contents(),
            arrivals=pipeline.arrivals,
            uses=pipeline.uses,
            clock_now=driver.clock.now(),
            scheduler=driver.scheduler.snapshot(),
            driver_delivered=list(driver.delivered),
            events=list(self.events),
            ingress=(
                driver.ingress.snapshot()
                if driver.ingress is not None
                else None
            ),
        )

    # -- batch application ---------------------------------------------------

    def process_batch(
        self,
        index: int,
        batch: Sequence[Context],
        mid_hook: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Apply one batch; returns ``False`` for an already-applied
        index (idempotent re-entry after replay)."""
        if index <= self.last_batch_index:
            return False
        telemetry = self.telemetry
        with telemetry.span(
            "engine.batch", shard=self.spec.shard_id, size=len(batch)
        ):
            batch_started = time.perf_counter()
            position_hook = None
            if mid_hook is not None:
                half = len(batch) // 2

                def position_hook(position: int) -> None:
                    if position == half:
                        mid_hook()

            receive_batch(self.driver, batch, position_hook=position_hook)
            if self._batch_histogram is not None:
                self._batch_histogram.observe(
                    time.perf_counter() - batch_started
                )
        self.total += len(batch)
        self.last_batch_index = index
        return True

    def finish(self) -> ShardRunResult:
        """Flush pending uses and stats; the shard's final result."""
        self.driver.flush_uses()
        elapsed = self.elapsed_before + (time.perf_counter() - self.started)
        pipeline = self.pipeline
        pipeline.flush_stats()
        self.telemetry.registry.gauge(
            "engine_shard_elapsed_seconds",
            help="Wall-clock seconds the shard spent on its sub-stream",
            labels={"shard": str(self.spec.shard_id)},
        ).set(elapsed)
        log = pipeline.resolution.log
        stats = {
            "contexts": float(self.total),
            "detect_calls": float(pipeline.detect_calls()),
            "inconsistencies": float(len(log.detected)),
            "elapsed_s": elapsed,
        }
        ingress = self.driver.ingress
        if ingress is not None:
            stats["ingress_stale"] = float(ingress.stale)
            stats["ingress_duplicates"] = float(ingress.duplicates)
            stats["ingress_forced"] = float(ingress.forced)
        return ShardRunResult(
            shard_id=self.spec.shard_id,
            events=self.events,
            delivered=list(log.delivered),
            discarded=list(log.discarded),
            stats=stats,
            telemetry=self.telemetry.snapshot(),
        )


def run_shard_substream(
    spec: ShardSpec, contexts: Sequence[Context]
) -> ShardRunResult:
    """Run one shard over its whole sub-stream with shard-local windows."""
    state = ShardExecutionState(spec)
    state.process_batch(0, contexts)
    return state.finish()


# -- supervised worker protocol ----------------------------------------------
#
# The supervisor (repro.engine.supervisor) gives each worker attempt two
# fresh pipes of its own: a work pipe carrying ``(batch_index,
# contexts)`` items plus a ``None`` end-of-stream sentinel, and an ack
# pipe the worker reports back on.  Every worker message carries
# ``(kind, shard_id, attempt, ...)``, and the supervisor ignores any
# that is not from the lane's current attempt:
#
# * ``("ready", sid, attempt)`` -- pipeline built, consuming.
# * ``("hb", sid, attempt, wall_time)`` -- heartbeat-thread liveness.
# * ``("ack", sid, attempt, batch_index, n_contexts, checkpoint|None)``
#   -- batch applied; a checkpoint rides along every
#   ``checkpoint_every``-th batch and lets the supervisor trim its
#   replay log.
# * ``("warn", sid, attempt, text)`` -- non-fatal condition (e.g. an
#   unpicklable checkpoint), logged by the supervisor.
# * ``("error", sid, attempt, batch_index, traceback_text)`` -- the
#   batch raised; the worker exits after sending.
# * ``("result", sid, attempt, ShardRunResult)`` -- final result after
#   the sentinel.


class _AckSender:
    """The worker's end of its ack pipe, shared with the heartbeat thread.

    Messages are pickled outside the lock (a checkpoint can be large,
    and an unpicklable one raises before a byte is written), then
    written whole under it, so the two threads never interleave
    frames.
    """

    def __init__(self, conn) -> None:
        self._conn = conn
        self._lock = threading.Lock()

    def put(self, message) -> None:
        payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
        with self._lock:
            self._conn.send_bytes(payload)


def _heartbeat_loop(acks, shard_id, attempt, interval, stop) -> None:
    while not stop.wait(interval):
        try:
            acks.put(("hb", shard_id, attempt, time.time()))
        except Exception:
            return  # parent gone; the worker is about to die anyway


def run_shard_supervised(
    spec: ShardSpec,
    work_conn,
    ack_conn,
    fault,
    attempt: int = 0,
    checkpoint: Optional[ShardCheckpoint] = None,
) -> None:
    """Worker-process entry point under supervision (process mode).

    Reads ``(batch_index, contexts)`` items from ``work_conn`` until
    the ``None`` sentinel, acking each applied batch on ``ack_conn`` --
    with a state checkpoint every ``fault.checkpoint_every`` batches --
    and ships the final :class:`ShardRunResult` instead of returning
    it.  A respawned attempt restores ``checkpoint`` first and skips
    any replayed batch the checkpoint already contains (idempotent
    re-entry).
    """
    shard_id = spec.shard_id
    acks = _AckSender(ack_conn)
    stop = threading.Event()
    if fault.heartbeat_interval_s > 0:
        threading.Thread(
            target=_heartbeat_loop,
            args=(acks, shard_id, attempt, fault.heartbeat_interval_s, stop),
            daemon=True,
        ).start()
    state: Optional[ShardExecutionState] = None
    try:
        state = ShardExecutionState(spec, checkpoint=checkpoint)
        acks.put(("ready", shard_id, attempt))
        injector = spec.fault_injector
        while True:
            item = work_conn.recv()
            if item is None:
                acks.put(("result", shard_id, attempt, state.finish()))
                return
            index, batch = item
            if index <= state.last_batch_index:
                # Replayed batch already folded into the restored
                # state: ack without re-applying.
                acks.put(("ack", shard_id, attempt, index, 0, None))
                continue
            mid_hook = None
            if injector is not None:
                injector(shard_id, index, attempt, "start")
                mid_hook = partial(injector, shard_id, index, attempt, "mid")
            state.process_batch(index, batch, mid_hook=mid_hook)
            ckpt = None
            if (
                fault.checkpoint_every
                and (index + 1) % fault.checkpoint_every == 0
            ):
                ckpt = state.checkpoint()
            try:
                acks.put(("ack", shard_id, attempt, index, len(batch), ckpt))
            except (pickle.PicklingError, TypeError, AttributeError) as error:
                # Unpicklable strategy state: keep running, but tell
                # the supervisor its replay log cannot be trimmed.
                acks.put(
                    (
                        "warn",
                        shard_id,
                        attempt,
                        f"checkpoint not picklable ({type(error).__name__}: "
                        f"{error}); acking without checkpoint",
                    )
                )
                acks.put(("ack", shard_id, attempt, index, len(batch), None))
    except BaseException:
        try:
            failed_index = state.last_batch_index + 1 if state is not None else 0
            acks.put(
                ("error", shard_id, attempt, failed_index, traceback.format_exc())
            )
        except Exception:
            pass  # supervisor will see the dead process instead
