"""Push-style engine sessions: incremental arrivals, deferred close.

:meth:`ShardedEngine.run` consumes a whole stream and returns; a
serving front-door (:mod:`repro.serve`) has no whole stream -- contexts
trickle in from live connections and the engine must absorb them as
they arrive.  :class:`EngineStream` is that entrypoint: an open inline
session over the engine's shard pipelines that accepts batches through
the amortized runtime arrival path (:func:`repro.runtime.batch.
receive_batch`), keeps the use scheduler live between submissions, and
flushes the remaining pending uses only when the session closes.

Decision equivalence: submitting a stream through any sequence of
``submit`` calls followed by ``close`` produces byte-identical
decisions to ``ShardedEngine.run`` over the concatenated stream in
inline mode -- chunking is invisible to the runtime (the golden
equivalence suite pins this for the batch path, and
``tests/engine/test_stream.py`` pins it for open sessions).

The session is single-submitter by design: one caller (the serve
layer's engine pump task) feeds it sequentially.  It is not
thread-safe and never spawns workers -- scaling beyond one core is the
process mode's job, behind this same facade.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..core.context import Context
from ..ledger import LedgerRecorder, LedgerWriter
from ..middleware.bus import (
    ContextDelivered,
    ContextDiscarded,
    ContextDuplicate,
    ContextExpired,
    ContextStale,
    Event,
)
from ..obs.telemetry import Telemetry
from ..runtime.batch import receive_batch

__all__ = ["EngineStream"]


class EngineStream:
    """An open inline resolution session over a :class:`ShardedEngine`.

    Built by :meth:`ShardedEngine.open_stream`; the engine supplies the
    shard specs, the router and the event bus.  Terminal decision
    events (delivered / discarded / expired) are tallied as they are
    published, so a serving layer can account for every admitted
    context without keeping its own event log.
    """

    def __init__(self, engine, *, telemetry: Optional[Telemetry] = None) -> None:
        self._engine = engine
        bundle = (
            telemetry
            if telemetry is not None
            else engine.telemetry
            if engine.telemetry is not None
            else Telemetry.disabled()
        )
        self.telemetry = bundle
        self.pipelines, self.driver = engine.inline_host(bundle)
        self.bus = engine.bus
        self.submitted = 0
        self.delivered = 0
        self.discarded = 0
        self.expired = 0
        #: Async-check ingress refusals (0 when the mode is off).
        self.stale = 0
        self.duplicates = 0
        self.closed = False
        self.bus.subscribe(ContextDelivered, self._on_delivered)
        self.bus.subscribe(ContextDiscarded, self._on_discarded)
        self.bus.subscribe(ContextExpired, self._on_expired)
        self.bus.subscribe(ContextStale, self._on_stale)
        self.bus.subscribe(ContextDuplicate, self._on_duplicate)
        # Open sessions record their ledger *live* -- entries hit the
        # writer as decisions happen, not at close, so a crashed serve
        # process still leaves a verifiable prefix on disk.
        self.ledger_writer: Optional[LedgerWriter] = None
        self._ledger_recorder: Optional[LedgerRecorder] = None
        if engine.config.ledger_path:
            bundle.registry.gauge(
                "repro_ruleset_info",
                help="Resolution ruleset identity (value is always 1)",
                labels={"ruleset_hash": engine.ruleset_hash},
            ).set(1.0)
            self.ledger_writer = LedgerWriter(
                engine.config.ledger_path,
                engine.ruleset_document(),
                meta={
                    "host": "engine",
                    "mode": "stream",
                    "shards": engine.config.shards,
                    "kernels": engine.config.kernels,
                    "batch_kernels": engine.config.batch_kernels,
                },
                fsync=engine.config.ledger_fsync,
                telemetry=bundle,
            )
            self._ledger_recorder = LedgerRecorder(
                self.ledger_writer.append, shard_of=engine.router.shard_for
            )
            self._ledger_recorder.attach(self.bus)

    # -- bus tallies --------------------------------------------------------

    def _on_delivered(self, event: Event) -> None:
        self.delivered += 1

    def _on_discarded(self, event: Event) -> None:
        self.discarded += 1

    def _on_expired(self, event: Event) -> None:
        self.expired += 1

    def _on_stale(self, event: Event) -> None:
        self.stale += 1

    def _on_duplicate(self, event: Event) -> None:
        self.duplicates += 1

    # -- submission ---------------------------------------------------------

    def submit(self, contexts: Sequence[Context]) -> int:
        """Resolve a batch of arrivals; returns how many were processed.

        Each context is checked against its shard's pool, resolved, and
        scheduled for use; uses whose window elapsed are drained before
        the call returns.  Contexts still inside their use window stay
        pending across calls -- that is the point of an open session.
        """
        if self.closed:
            raise RuntimeError("cannot submit to a closed engine stream")
        processed = receive_batch(self.driver, contexts)
        self.submitted += processed
        return processed

    def pending_uses(self) -> int:
        """Admitted contexts still awaiting their use window."""
        return len(self.driver.scheduler)

    def pool_size(self) -> int:
        """Total contexts currently held across all shard pools."""
        return sum(len(pipeline.pool) for pipeline in self.pipelines)

    # -- close --------------------------------------------------------------

    def close(self) -> None:
        """End the stream: use every context still awaiting its window.

        Mirrors the end-of-stream flush of :meth:`ShardedEngine.run`;
        after this, every admitted context has reached a terminal
        decision (delivered, discarded, or expired).  Idempotent.
        """
        if self.closed:
            return
        self.driver.flush_uses()
        for pipeline in self.pipelines:
            pipeline.flush_stats()
        # Drop the bus subscriptions: the engine's bus outlives the
        # session, and a later session's events must not inflate this
        # one's tallies.
        self.bus.unsubscribe(ContextDelivered, self._on_delivered)
        self.bus.unsubscribe(ContextDiscarded, self._on_discarded)
        self.bus.unsubscribe(ContextExpired, self._on_expired)
        self.bus.unsubscribe(ContextStale, self._on_stale)
        self.bus.unsubscribe(ContextDuplicate, self._on_duplicate)
        if self._ledger_recorder is not None:
            self._ledger_recorder.detach()
            self._ledger_recorder = None
        if self.ledger_writer is not None:
            self.ledger_writer.close()
        self.closed = True

    def decided(self) -> int:
        """Terminal outcomes seen so far.

        Delivered + discarded + expired, plus the async-check ingress
        refusals (stale / duplicate) -- a refused context is accounted
        for, it just never reached a pool.
        """
        return (
            self.delivered
            + self.discarded
            + self.expired
            + self.stale
            + self.duplicates
        )
