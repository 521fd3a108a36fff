"""The arrival loop: every arrival of every host goes through here.

:func:`receive_batch` is the one implementation of the arrival step of
the paper's life cycle -- expiry sweep, due-use drain, dead-on-arrival
intercept, duplicate refusal, add, schedule, drain -- over a
:class:`~.pipeline.PipelineDriver`.  ``PipelineDriver.receive`` is a
batch of one, ``PipelineDriver.receive_all`` streams bounded chunks,
the engine's inline run, open :class:`~repro.engine.stream.EngineStream`
sessions and shard workers (``ShardExecutionState.process_batch``) all
call it.  Chunking is invisible to decisions: the golden suite pins
the same signatures for a stream fed whole, in chunks, or one context
at a time.  The loop amortizes the per-arrival bookkeeping:

* **Expiry sweep guard.**  Instead of asking every pipeline for due
  expiries on every arrival (O(shards) heap peeks per context), the
  loop tracks one running lower bound -- the minimum pending expiry
  across all pipelines, tightened as admitted contexts bring finite
  lifespans in -- and sweeps only when the simulation clock actually
  reaches it.  Streams of immortal contexts pay a single float
  comparison per arrival.
* **Bound-method hoisting.**  The clock, scheduler, router and
  pipeline lookups are resolved once per batch, not per context.

Sweeping on the bound is sound because pool *removals* (uses, discards)
can only raise the true minimum pending expiry -- a stale bound causes
at most one redundant (cheap, heap-guarded) sweep -- and every pool
*insert* during the batch passes through ``pipeline.add``, where the
bound is tightened with the newcomer's expiry before the next arrival.

The bound stays sound even when batch timestamps *regress* (a late,
older-timestamped arrival), because of the dead-on-arrival intercept:
``now`` itself never regresses (it is the max of the clock and the
arrival timestamp), and a late context whose availability already
lapsed (``expiry <= now``) is expired at receive instead of admitted.
Every context that reaches the pool therefore satisfies
``expiry > now``, so tightening the bound with it can never place
``next_expiry`` in the past and no admitted context can sit in the
pool beyond its availability waiting for a sweep the bound skipped.
(Before the intercept, a regressing timestamp could admit an
already-dead context and deliver it from the very ``drain`` call that
follows -- the non-monotonic-timestamp hole the regression tests in
``tests/runtime/test_doa_and_regress.py`` pin.)

The loop also *detects* in batches: when the driver's
``batch_kernels`` flag is on, planning passes precompute detection
verdicts for runs of arrivals, each checked once, through the
detector's ``detect_batch`` (the columnar kernel path of
:class:`~repro.constraints.checker.ConstraintChecker`), and each
arrival consumes its precomputed verdict instead of paying a
per-context ``detect``.  See :class:`_BatchDetectPlanner` for the
exact soundness conditions; whenever they cannot be established the
arrival transparently falls back to the per-context detect, so
decisions never depend on the flag.

With asynchronous checking on, each arrival is first offered to the
driver's :class:`~.snapshot.SnapshotIngress`; refused arrivals are
published as ``ContextStale`` / ``ContextDuplicate`` and the
timestamp-sorted runs the window releases go through the same
synchronous loop (:func:`receive_synchronized`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from ..core.context import Context, ContextState
from ..middleware.bus import ContextDuplicate, ContextStale
from .pipeline import PipelineDriver, ResolutionPipeline

__all__ = ["receive_batch"]


class _BatchDetectPlanner:
    """Precomputed ``detect_batch`` verdicts for one pipeline's arrivals.

    ``detect_batch``'s contract is the sequential sweep: row ``k`` is
    checked against the pre-existing scope plus rows ``[:k]``, both
    filtered to contexts alive at the row's clock.  That matches the
    real lifecycle exactly as long as

    * every planned row is admitted when its turn comes (no strategy
      discard of the newcomer or of victims, no dead-on-arrival or
      duplicate interception), and
    * nothing else leaves the checking scope except expiry (which the
      per-row cutoff filter reproduces).  When the strategy keeps
      ``consistent`` contexts in checking, a use never takes a context
      out of the scope, so it shrinks only by discard or expiry.

    Duplicate and dead-on-arrival interceptions are decidable at
    planning time (clocks depend only on timestamps), so the accepted
    run ends before the first of them.  Strategy discards are not: an
    immediate strategy discards on addition only when the newcomer's
    verdict is non-empty.  Each planning pass therefore asks
    ``detect_batch`` to stop at the first row that hits
    (``stop_at_hit``); the rows after it are planned by the next pass,
    once the hit has been applied, against the live pool.  Every
    arrival's verdict is thus evaluated exactly once.

    The discard log stays the safety net for any other scope removal:
    its length is re-checked before each verdict is consumed, and on a
    mismatch the remaining rows are planned again.  Row identity and
    clock are verified per consume; any divergence abandons the plan
    for the rest of the batch (per-context detect fallback).
    """

    __slots__ = (
        "pipeline",
        "detector",
        "ids",
        "rows",
        "nows",
        "verdicts",
        "cursor",
        "discard_mark",
        "open",
    )

    def __init__(self, pipeline: ResolutionPipeline) -> None:
        self.pipeline = pipeline
        self.detector = pipeline.resolution.detector
        self.ids: Set[str] = set()
        self.rows: List[Context] = []
        self.nows: List[float] = []
        self.verdicts: List[List] = []
        self.cursor = 0
        self.discard_mark = 0
        #: Still accepting rows during the planning scan.
        self.open = True

    def offer(self, ctx: Context, now: float) -> None:
        """Accept ``ctx`` into the planned run, or close the run.

        A context that would be intercepted before detection -- dead on
        arrival (decidable now: clocks are timestamp-determined) or a
        duplicate of a live pooled id or of an earlier planned row --
        ends the run: everything after it falls back to the per-context
        detect.
        """
        if not self.open:
            return
        if (
            ctx.expiry <= now
            or ctx.ctx_id in self.ids
            or self.pipeline.pool.get(ctx.ctx_id) is not None
        ):
            self.open = False
            return
        self.ids.add(ctx.ctx_id)
        self.rows.append(ctx)
        self.nows.append(now)

    def plan(self) -> None:
        """Precompute verdicts for the unconsumed rows, up to the first hit.

        The ``detect_batch`` call is timed as the ``check`` stage (one
        observation per planning pass), so checking latency stays
        visible in the same histogram the per-context detect feeds.
        """
        pipeline = self.pipeline
        del self.rows[: self.cursor]
        del self.nows[: self.cursor]
        self.cursor = 0
        self.discard_mark = len(pipeline.resolution.log.discarded)
        if self.rows:
            with pipeline.resolution.stage_check:
                self.verdicts = self.detector.detect_batch(
                    self.rows,
                    pipeline.scope,
                    self.nows,
                    stop_at_hit=True,
                )

    def take(self, ctx: Context, now: float) -> Optional[List]:
        """The precomputed verdict for ``ctx``, or ``None`` to fall back.

        Plans the remaining rows when the previous pass stopped at a
        hit that has since been applied, or when the pipeline discarded
        contexts since the verdicts were computed (the scope the plan
        assumed no longer holds).
        """
        if self.cursor >= len(self.rows):
            return None
        if self.cursor >= len(self.verdicts) or (
            len(self.pipeline.resolution.log.discarded) != self.discard_mark
        ):
            self.plan()
        row = self.rows[self.cursor]
        if row.ctx_id != ctx.ctx_id or self.nows[self.cursor] != now:
            # The lifecycle diverged from the planned model (should be
            # unreachable -- interceptions are planned around); abandon
            # the rest of the plan rather than risk a stale verdict.
            self.cursor = len(self.rows)
            return None
        verdict = self.verdicts[self.cursor]
        self.cursor += 1
        return verdict


def _batch_planners(
    driver: PipelineDriver,
    contexts: Sequence[Context],
    routes: Sequence[int],
) -> Optional[Dict[int, _BatchDetectPlanner]]:
    """Plan ``detect_batch`` verdict runs for every eligible pipeline.

    Eligibility mirrors :class:`_BatchDetectPlanner`'s soundness
    conditions: the detector must expose ``detect_batch`` with its
    batch kernels enabled (with them off the sequential emulation would
    only add overhead), and the strategy must keep ``consistent``
    contexts in checking, so that a use never shrinks the scope.
    Drop-bad does not (a used context leaves checking) and keeps the
    per-context path, whose scope upkeep is O(1) per arrival and use.
    ``routes`` is the precomputed pipeline
    index per context (routing may count calls, so the caller routes
    each context exactly once and shares the result).  Returns ``None``
    when no pipeline qualifies, so the hot loop skips planner lookups
    entirely.
    """
    planners: Dict[int, Optional[_BatchDetectPlanner]] = {}
    for index, pipeline in enumerate(driver.pipelines):
        detector = pipeline.resolution.detector
        if (
            getattr(detector, "batch_kernels", False)
            and callable(getattr(detector, "detect_batch", None))
            and ContextState.CONSISTENT
            in pipeline.resolution.strategy.checking_states
        ):
            planners[index] = _BatchDetectPlanner(pipeline)
        else:
            planners[index] = None
    if not any(planner is not None for planner in planners.values()):
        return None
    # One forward pass replays the clock advance (a pure function of
    # the timestamps) and offers each context to its pipeline's
    # planner.
    sim_now = driver.clock.now()
    for ctx, index in zip(contexts, routes):
        if ctx.timestamp > sim_now:
            sim_now = ctx.timestamp
        planner = planners[index]
        if planner is not None:
            planner.offer(ctx, sim_now)
    out = {
        index: planner
        for index, planner in planners.items()
        if planner is not None and planner.rows
    }
    if not out:
        return None
    for planner in out.values():
        planner.plan()
    return out


def receive_batch(
    driver: PipelineDriver,
    contexts: Sequence[Context],
    position_hook: Optional[Callable[[int], None]] = None,
) -> int:
    """Apply ``contexts`` in order; returns how many were processed.

    ``position_hook`` (used by the fault-injection harness) is called
    with the batch position before each context is processed.
    """
    ingress = driver.ingress
    if ingress is None:
        receive_synchronized(driver, contexts, position_hook)
        return len(contexts)
    # Asynchronous checking: the snapshot window decides what reaches
    # the checker, and in which order.
    for position, ctx in enumerate(contexts):
        if position_hook is not None:
            position_hook(position)
        outcome = ingress.offer(ctx)
        if outcome.dropped is not None:
            event_type = (
                ContextStale if outcome.dropped == "stale" else ContextDuplicate
            )
            driver.pipelines[driver.route(ctx)].bus.publish(
                event_type(at=driver.clock.now(), context=ctx)
            )
        elif outcome.released:
            receive_synchronized(driver, outcome.released)
    return len(contexts)


def receive_synchronized(
    driver: PipelineDriver,
    contexts: Sequence[Context],
    position_hook: Optional[Callable[[int], None]] = None,
) -> None:
    """The synchronous arrival step over ``contexts``, in order.

    Bypasses the snapshot window: callers pass arrivals it has already
    released (or any arrivals, when the driver has no window).
    """
    pipelines = driver.pipelines
    scheduler = driver.scheduler
    clock = driver.clock
    route = driver.route
    time_based = scheduler.use_delay is not None
    drain = driver.drain_due_uses
    advance = clock.advance_to
    clock_now = clock.now
    # Routing may count calls (e.g. the engine's ContextRouter keeps
    # per-shard tallies), so each context is routed exactly once: the
    # planning pass and the hot loop share the precomputed indices.
    routes: Optional[List[int]] = None
    planners = None
    if driver.batch_kernels:
        routes = [route(ctx) for ctx in contexts]
        planners = _batch_planners(driver, contexts, routes)

    next_expiry = min(
        (pipeline.next_expiry() for pipeline in pipelines),
        default=float("inf"),
    )
    position = 0
    for ctx in contexts:
        if position_hook is not None:
            position_hook(position)
        pipeline_index = routes[position] if routes is not None else route(ctx)
        position += 1
        now = ctx.timestamp
        current = clock_now()
        if current > now:
            now = current
        else:
            advance(now)
        if next_expiry <= now:
            for pipeline in pipelines:
                pipeline.expire_due(now)
            next_expiry = min(
                (pipeline.next_expiry() for pipeline in pipelines),
                default=float("inf"),
            )
        if time_based:
            # Time-based window: contexts whose delay elapsed are used
            # BEFORE the newcomer is checked -- they have left the
            # checking scope by the time it arrives.
            drain(now)

        pipeline = pipelines[pipeline_index]
        if ctx.expiry <= now:
            # Dead on arrival (see the module docstring): expire at
            # receive; the pool, the scheduler and the sweep bound
            # never see a context whose availability already lapsed.
            pipeline.expire_on_receive(ctx, now)
            continue
        if pipeline.pool.get(ctx.ctx_id) is not None:
            # At-least-once re-delivery while the original is still
            # live: refuse it instead of tripping the pool's unique-id
            # invariant.  (A duplicate arriving after the original left
            # the pool is indistinguishable from a fresh context and is
            # admitted as one.)
            pipeline.refuse_duplicate(ctx, now)
            continue
        detected = None
        if planners is not None:
            planner = planners.get(pipeline_index)
            if planner is not None:
                detected = planner.take(ctx, now)
        outcome = pipeline.add(ctx, now, detected=detected)
        if ctx.ctx_id not in {c.ctx_id for c in outcome.discarded}:
            scheduler.schedule(ctx, pipeline_index, now)
            if ctx.expiry < next_expiry:
                next_expiry = ctx.expiry

        drain(now)
