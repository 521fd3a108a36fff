"""The canonical resolution pipeline: one lifecycle, every entry point.

The paper's drop-bad life cycle -- receive -> check -> resolve -> use ->
deliver/discard (Sections 4-5) -- used to be implemented twice: once in
``middleware/manager.py`` and again in ``engine/shard.py``.  This
module is now the only place the lifecycle exists; the middleware
manager and the engine shards are thin adapters over it.

Two classes split the work along the line the sharded engine needs:

* :class:`ResolutionPipeline` -- the per-pool stage logic: the context
  addition change (check + resolve + publication), the deletion (use)
  change, heap-guarded expiry, and the telemetry stage instruments
  (``receive/check/resolve/use/deliver/discard`` -- check/resolve live
  in :class:`~repro.core.resolver.ResolutionService`).  It is
  parameterized by detector, strategy, bus, telemetry, and -- once a
  driver binds it -- a shared clock and :class:`~.scheduler.UseScheduler`.
* :class:`PipelineDriver` -- the state arrivals are applied against
  over one or more pipelines: the simulation clock, the use scheduler,
  routing, the optional snapshot window, due-use draining and
  end-of-stream flushing.  One driver over n pipelines is the inline
  engine's global schedule; one driver over one pipeline is the
  single-pool middleware and the shard-local worker schedule.  The
  arrival step itself is :func:`~repro.runtime.batch.receive_batch`,
  the one loop every entry point feeds.

Expiry and the checking scope are kept through a pool listener, so
*every* pool insert (including checkpoint restores, which re-add the
pool contents) lands in the expiry heap and -- when the strategy lets
it participate in checking -- in the scope; streams of immortal
contexts pay O(1) per arrival.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..constraints.index import CandidateIndex
from ..core.context import Context
from ..core.resolver import AddOutcome, ResolutionService, UseOutcome
from ..core.strategy import ResolutionStrategy
from ..middleware.bus import (
    ContextAdmitted,
    ContextBuffered,
    ContextDelivered,
    ContextDiscarded,
    ContextDuplicate,
    ContextExpired,
    ContextMarkedBad,
    ContextReceived,
    EventBus,
    InconsistencyDetected,
)
from ..middleware.clock import SimulationClock
from ..middleware.pool import ContextPool
from .scheduler import UseScheduler
from .snapshot import AsyncCheckConfig, SnapshotIngress

__all__ = ["ResolutionPipeline", "PipelineDriver"]


class _PoolListener:
    """Pool listener feeding the pipeline's expiry heap and checking scope.

    Registered on the pool at pipeline construction, so direct pool
    inserts (tests, checkpoint restores) schedule expiry and enter the
    scope too -- neither can miss a context the pool holds.  A context
    enters the scope when it enters the pool and the strategy lets it
    participate in checking, and leaves it when it leaves the pool
    (:meth:`ResolutionPipeline.use` handles the one other exit).
    """

    __slots__ = ("_pipeline",)

    def __init__(self, pipeline: "ResolutionPipeline") -> None:
        self._pipeline = pipeline

    def on_add(self, ctx: Context) -> None:
        pipeline = self._pipeline
        if ctx.expiry != float("inf"):
            pipeline._heap_seq += 1
            heapq.heappush(
                pipeline._expiry_heap, (ctx.expiry, pipeline._heap_seq, ctx)
            )
        if pipeline.resolution.strategy.participates_in_checking(ctx):
            pipeline.scope.on_add(ctx)

    def on_remove(self, ctx: Context) -> None:
        # Heap entries for removed contexts are skipped lazily.
        self._pipeline.scope.on_remove(ctx)

    def on_clear(self) -> None:
        pipeline = self._pipeline
        pipeline._expiry_heap.clear()
        pipeline._heap_seq = 0
        pipeline.scope.on_clear()


class ResolutionPipeline:
    """One pool's receive/check/resolve/use/expire stage logic.

    Parameters
    ----------
    detector:
        Inconsistency detector (usually a
        :class:`~repro.constraints.checker.ConstraintChecker`).  It is
        handed :attr:`scope` as ``existing`` on every detect; a
        detector with ``attach_scope`` adopts it as its persistent
        candidate index.
    strategy:
        The resolution strategy plug-in.
    bus:
        Event bus for the lifecycle vocabulary; a private one is
        created when omitted.  Reassignable (the inline engine points
        all shard pipelines at the engine bus).
    telemetry:
        Optional :class:`repro.obs.Telemetry` bundle; re-attachable via
        :meth:`attach_telemetry`.
    wrapper_spans:
        ``True`` gives the receive/use wrappers full span+histogram
        timers (the middleware's observability contract); ``False``
        records histogram-only observers (the engine's cheaper tier --
        the interesting sub-work is already spanned inside).
    deliver_hook:
        Optional callable invoked with the context inside the deliver
        stage after the ``ContextDelivered`` event (the middleware's
        application subscriptions).
    """

    def __init__(
        self,
        detector,
        strategy: ResolutionStrategy,
        *,
        bus: Optional[EventBus] = None,
        telemetry=None,
        wrapper_spans: bool = False,
        deliver_hook: Optional[Callable[[Context], None]] = None,
    ) -> None:
        self.pool = ContextPool()
        self.resolution = ResolutionService(detector, strategy)
        self.bus = bus if bus is not None else EventBus()
        self.deliver_hook = deliver_hook
        self._wrapper_spans = wrapper_spans
        self._expiry_heap: List[Tuple[float, int, Context]] = []
        self._heap_seq = 0
        #: The checking scope: the pooled contexts that participate in
        #: checking, kept current on lifecycle transitions by this
        #: pipeline (its only writer) and handed to every detect.
        self.scope = CandidateIndex()
        self.pool.add_listener(_PoolListener(self))
        if hasattr(detector, "attach_scope"):
            detector.attach_scope(self.scope)
        #: Use scheduler shared with the driving loop; bound by
        #: :class:`PipelineDriver`.  Victims and expired contexts are
        #: unscheduled here so every driver stays consistent.
        self.scheduler: Optional[UseScheduler] = None
        if telemetry is None:
            from ..obs.telemetry import NULL_TELEMETRY

            telemetry = NULL_TELEMETRY
        self.attach_telemetry(telemetry)

    @property
    def strategy(self) -> ResolutionStrategy:
        return self.resolution.strategy

    def attach_telemetry(self, telemetry) -> None:
        """Adopt a telemetry bundle across the whole pipeline.

        Rebinds the reusable stage instruments (allocated once,
        re-entered per context), the resolution service's check/resolve
        timers and the detector's incremental-check spans, so hot-path
        latencies land in one registry under the canonical stage names.
        """
        self.telemetry = telemetry
        self.resolution.telemetry = telemetry
        if hasattr(self.resolution.detector, "telemetry"):
            self.resolution.detector.telemetry = telemetry
        wrapper = (
            telemetry.stage_timer
            if self._wrapper_spans
            else telemetry.stage_observer
        )
        self._stage_receive = wrapper("receive")
        self._stage_use = wrapper("use")
        self._stage_deliver = telemetry.stage_timer("deliver")
        self._stage_discard = telemetry.stage_timer("discard")

    # -- the context addition change ------------------------------------------

    def add(self, ctx: Context, now: float, detected=None) -> AddOutcome:
        """Check ``ctx`` against the pool and apply the strategy.

        Publishes the arrival events, admits the survivor into the
        pool, evicts and unschedules the victims.  The caller schedules
        the context for use iff it survived
        (``ctx not in outcome.discarded``).  ``detected`` optionally
        carries a precomputed detection verdict (the batched detection
        path); events, logging and outcomes are identical either way.
        """
        with self._stage_receive:
            detected_before = len(self.resolution.log.detected)
            outcome = self.resolution.handle_addition(
                ctx, self.scope, now, detected=detected
            )
            self.bus.publish(ContextReceived(at=now, context=ctx))
            for inconsistency in self.resolution.log.detected[detected_before:]:
                self.bus.publish(
                    InconsistencyDetected(at=now, inconsistency=inconsistency)
                )

            discarded_ids = {c.ctx_id for c in outcome.discarded}
            if ctx.ctx_id not in discarded_ids:
                self.pool.add(ctx)
            for victim in outcome.discarded:
                with self._stage_discard:
                    self.pool.remove(victim)
                    if self.scheduler is not None:
                        self.scheduler.discard(victim.ctx_id)
                    self.bus.publish(ContextDiscarded(at=now, context=victim))
            for admitted in outcome.admitted:
                self.bus.publish(ContextAdmitted(at=now, context=admitted))
            if outcome.buffered:
                self.bus.publish(ContextBuffered(at=now, context=ctx))
        return outcome

    # -- the context deletion (use) change --------------------------------------

    def use(self, ctx: Context, now: float) -> UseOutcome:
        """An application uses ``ctx``; deliver or discard per strategy."""
        with self._stage_use:
            outcome = self.resolution.handle_use(ctx, now)
            for bad in outcome.newly_bad:
                self.bus.publish(ContextMarkedBad(at=now, context=bad))
            for victim in outcome.discarded:
                with self._stage_discard:
                    self.pool.remove(victim)
                    if self.scheduler is not None:
                        self.scheduler.discard(victim.ctx_id)
                    self.bus.publish(ContextDiscarded(at=now, context=victim))
            strategy = self.resolution.strategy
            if ctx in self.pool and not strategy.participates_in_checking(ctx):
                # Drop-bad: a used context stays pooled but is "removed
                # from the checking of its involved inconsistencies"
                # (Section 3.2).
                self.scope.on_remove(ctx)
            if outcome.delivered:
                with self._stage_deliver:
                    self.bus.publish(ContextDelivered(at=now, context=ctx))
                    if self.deliver_hook is not None:
                        self.deliver_hook(ctx)
        return outcome

    def expire_on_receive(self, ctx: Context, now: float) -> None:
        """Record a context that is dead on arrival.

        A context whose ``timestamp + lifespan`` already passed the
        pipeline clock at receive time must never enter the pool: it
        would be delivered (or discard a live victim) before the next
        expiry sweep could catch it.  The receive is still recorded --
        ``ContextReceived`` then ``ContextExpired`` -- so the ledger
        carries the arrival *and* its ``expire`` verdict, but no
        detection, strategy or scheduling runs.
        """
        with self._stage_receive:
            self.bus.publish(ContextReceived(at=now, context=ctx))
            self.bus.publish(ContextExpired(at=now, context=ctx))

    def refuse_duplicate(self, ctx: Context, now: float) -> None:
        """Refuse a context whose id is already live in the pool.

        At-least-once transports re-deliver; before this guard a
        re-delivered context crashed the receive stage on the pool's
        unique-id invariant.  The refusal mirrors the async ingress's
        duplicate drop -- a ``ContextDuplicate`` event (ledger kind
        ``duplicate``), *not* an arrival -- so replay semantics are
        identical in both modes: refused contexts are never re-fed.
        """
        with self._stage_receive:
            self.bus.publish(ContextDuplicate(at=now, context=ctx))

    # -- expiry -------------------------------------------------------------

    def next_expiry(self) -> float:
        """Earliest possible pending expiry time (``inf`` when none).

        Lazily drops heap entries whose context already left the pool,
        so batch paths can use the returned bound directly.
        """
        heap = self._expiry_heap
        while heap and self.pool.get(heap[0][2].ctx_id) is None:
            heapq.heappop(heap)
        return heap[0][0] if heap else float("inf")

    def expire_due(self, now: float) -> List[Context]:
        """Remove every pooled context whose availability period passed.

        The heap makes the no-expiry case O(1); entries for contexts
        that were discarded first are skipped lazily.  Expired contexts
        are unscheduled, their pending inconsistencies resolved, and
        ``ContextExpired`` published.
        """
        expired: List[Context] = []
        heap = self._expiry_heap
        while heap and heap[0][0] <= now:
            _, _, ctx = heapq.heappop(heap)
            live = self.pool.get(ctx.ctx_id)
            if live is None:
                continue
            self.pool.remove(live)
            if self.scheduler is not None:
                self.scheduler.discard(live.ctx_id)
            self.resolution.strategy.delta.resolve_involving(live)
            self.bus.publish(ContextExpired(at=now, context=live))
            expired.append(live)
        return expired


class PipelineDriver:
    """Clock + use scheduler over routed pipelines.

    Holds the window bookkeeping of the historical
    ``Middleware.receive`` -- the shared clock, the admitted-arrival
    counter and both window semantics -- that
    :func:`~repro.runtime.batch.receive_batch` applies each arrival
    against, while the per-context pool work happens in whichever
    pipeline ``route`` selects.

    Parameters
    ----------
    pipelines:
        The pipelines this driver schedules; their ``scheduler``
        binding is taken over.
    route:
        Maps a context to a pipeline index.
    use_window, use_delay:
        Window semantics (see :class:`~.scheduler.UseScheduler`).
    clock:
        Optionally injected simulation clock (shared across hosts).
    use_dispatch:
        Optional override of the use step: called as ``fn(ctx,
        pipeline_index)`` and must return the
        :class:`~repro.core.strategy.UseOutcome`.  The middleware hooks
        its distinct-use accounting here.
    async_check:
        When set, arrivals pass through a
        :class:`~.snapshot.SnapshotIngress` snapshot window first:
        buffered, deduplicated and released in timestamp order behind
        the watermark, so the checker only ever sees a synchronized
        view.  ``None`` (the default) is the historical synchronous
        path, byte-identical to before this option existed.
    """

    def __init__(
        self,
        pipelines: Sequence[ResolutionPipeline],
        route: Callable[[Context], int],
        *,
        use_window: int = 4,
        use_delay: Optional[float] = None,
        clock: Optional[SimulationClock] = None,
        use_dispatch: Optional[Callable[[Context, int], UseOutcome]] = None,
        async_check: Optional[AsyncCheckConfig] = None,
        batch_kernels: bool = True,
    ) -> None:
        #: Let :func:`~repro.runtime.batch.receive_batch` plan whole
        #: runs of arrivals through the detector's ``detect_batch``
        #: (the columnar kernel path).  Decisions are identical either
        #: way -- this is the ``--no-batch-kernels`` escape hatch and
        #: the A/B lever of the ``detection_batch`` benchmark.
        self.batch_kernels = batch_kernels
        self.pipelines = list(pipelines)
        self.route = route
        self.clock = clock if clock is not None else SimulationClock()
        self.scheduler = UseScheduler(
            use_window=use_window, use_delay=use_delay
        )
        for pipeline in self.pipelines:
            pipeline.scheduler = self.scheduler
        self._use_dispatch = (
            use_dispatch if use_dispatch is not None else self._use_pipeline
        )
        #: Snapshot-window reorder buffer; ``None`` in synchronous mode.
        self.ingress = (
            SnapshotIngress(async_check) if async_check is not None else None
        )
        #: Contexts delivered through this driver, in decision order.
        self.delivered: List[Context] = []

    @property
    def use_window(self) -> int:
        return self.scheduler.use_window

    @property
    def use_delay(self) -> Optional[float]:
        return self.scheduler.use_delay

    # -- arrivals -----------------------------------------------------------

    def receive(self, ctx: Context) -> None:
        """Process one arrival: a batch of one through
        :func:`~repro.runtime.batch.receive_batch`."""
        from .batch import receive_batch  # local import: cycle

        receive_batch(self, (ctx,))

    def receive_all(self, contexts: Iterable[Context]) -> None:
        """Feed a whole stream, then flush the remaining pending uses.

        Streams through :func:`~repro.runtime.batch.receive_batch` in
        bounded chunks, so lazy trace readers keep O(chunk) memory
        while amortizing the batch path's sweep guards.
        """
        from .batch import receive_batch  # local import: cycle

        iterator = iter(contexts)
        while True:
            chunk = list(islice(iterator, 256))
            if not chunk:
                break
            receive_batch(self, chunk)
        self.flush_uses()

    # -- uses ---------------------------------------------------------------

    def _use_pipeline(self, ctx: Context, pipeline_index: int) -> UseOutcome:
        return self.pipelines[pipeline_index].use(ctx, self.clock.now())

    def use_scheduled(self, ctx: Context, pipeline_index: int) -> UseOutcome:
        """Apply one scheduled use through the dispatch hook."""
        outcome = self._use_dispatch(ctx, pipeline_index)
        if outcome.delivered:
            self.delivered.append(ctx)
        return outcome

    def drain_due_uses(self, now: float) -> None:
        """Use every head-of-queue context whose window elapsed."""
        scheduler = self.scheduler
        while True:
            entry = scheduler.pop_due(now)
            if entry is None:
                return
            self.use_scheduled(entry.ctx, entry.payload)

    def flush_ingress(self) -> None:
        """Release everything the snapshot window still buffers."""
        if self.ingress is not None:
            from .batch import receive_synchronized  # local import: cycle

            receive_synchronized(self, self.ingress.flush())

    def flush_uses(self) -> None:
        """Use every context still awaiting its window (end of stream).

        In asynchronous mode the snapshot window is flushed first --
        buffered arrivals must be checked before the pending uses
        behind them are forced due.
        """
        self.flush_ingress()
        scheduler = self.scheduler
        while True:
            entry = scheduler.pop_next()
            if entry is None:
                return
            self.use_scheduled(entry.ctx, entry.payload)
