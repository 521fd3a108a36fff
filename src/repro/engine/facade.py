"""The engine facade: sharded, batched streaming resolution.

:class:`ShardedEngine` is the drop-in scalable counterpart of
:class:`~repro.middleware.manager.Middleware`: same constraints, same
strategies, same event vocabulary, same decisions -- but the pool, the
incremental checker and the strategy are instantiated once per
independent constraint scope, so disjoint scopes never pay for each
other's pool scans and can execute on separate worker processes.

Three execution modes (see :mod:`repro.engine.config`):

* ``inline`` -- one global control loop drives all shards through the
  exact use schedule of the single-pool middleware.  Deterministic,
  decision-identical for both window kinds; events stream live on
  ``engine.bus`` in global order.
* ``local`` -- each shard consumes its own sub-stream with shard-local
  windows, sequentially in-process.  The decomposition process mode
  uses, minus the processes.
* ``process`` -- shards run in *supervised* worker processes
  (:mod:`repro.engine.supervisor`), fed batches over per-lane pipes
  under ack-based backpressure.  Worker failures are retried with backoff
  from checkpointed replay logs; a shard that exhausts its retry
  budget degrades to in-parent execution (or raises
  :class:`~repro.engine.supervisor.EngineWorkerError`) -- decisions
  are never dropped silently.  Falls back to ``local`` only when the
  multiprocessing substrate itself is unavailable.  Events are merged
  into deterministic timestamp order after the run and re-published on
  ``engine.bus``.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from ..constraints.ast import Constraint
from ..constraints.builtins import FunctionRegistry, standard_registry
from ..core.context import Context
from ..ledger import LedgerWriter, entries_from_events, merge_segments
from ..ledger import ruleset_document as build_ruleset_document
from ..ledger import ruleset_hash as hash_ruleset
from ..middleware.bus import ContextDelivered, ContextDiscarded, Event, EventBus
from ..obs.telemetry import Telemetry
from ..runtime.pipeline import PipelineDriver
from .config import EngineConfig
from .merge import EngineResult, merge_events
from .metrics import EngineMetrics
from .router import ContextRouter
from .scope import partition_constraints
from .shard import (
    ShardPipeline,
    ShardRunResult,
    ShardSpec,
    run_shard_substream,
)
from .supervisor import ShardSupervisor

__all__ = ["ShardedEngine"]

_log = logging.getLogger("repro.engine")


class ShardedEngine:
    """Sharded streaming resolution over independent constraint scopes.

    Parameters
    ----------
    constraints:
        The consistency constraints to enforce (uniquely named).
    strategy:
        Registered strategy name instantiated once per shard; each
        shard owns an independent instance, which is safe because
        every inconsistency is confined to one scope group.
        Stochastic strategies (``drop-random``) are not decision-
        equivalent to the single-pool middleware -- the per-shard RNGs
        draw in a different order.
    strategy_kwargs:
        Keyword arguments for the strategy factory (must be picklable
        for process mode).
    registry_factory:
        Zero-argument callable building the predicate registry each
        shard's checker uses.  Must be a module-level callable for
        process mode; defaults to the standard library registry.
    config:
        Engine tunables (shards, mode, windows, batching).
    telemetry:
        Optional :class:`repro.obs.Telemetry` bundle.  When given, the
        shards' stage timers, spans and queue metrics land in it (and,
        in process mode, worker snapshots merge back into it).  The
        engine always keeps *some* bundle -- metrics are a view over
        its registry -- so omitting this only disables the hot-path
        span/histogram hooks, not the accounting.
    fault_injector:
        Optional chaos hook for the fault-injection tests: a picklable
        callable ``(shard_id, batch_index, attempt, phase)`` invoked
        inside process-mode workers around each batch (``phase`` is
        ``"start"`` or ``"mid"``).  Whatever it raises (or does --
        ``os._exit``, ``time.sleep``) is a *worker* fault for the
        supervisor to handle; it is never invoked in the parent, so
        degraded execution runs clean.  ``None`` in production.
    """

    def __init__(
        self,
        constraints: Iterable[Constraint],
        *,
        strategy: str = "drop-latest",
        strategy_kwargs: Optional[dict] = None,
        registry_factory: Callable[[], FunctionRegistry] = standard_registry,
        config: Optional[EngineConfig] = None,
        telemetry: Optional[Telemetry] = None,
        fault_injector: Optional[Callable[[int, int, int, str], None]] = None,
    ) -> None:
        self.config = config or EngineConfig()
        self.constraints = tuple(constraints)
        self.strategy_name = strategy
        self.strategy_kwargs = tuple(sorted((strategy_kwargs or {}).items()))
        self.registry_factory = registry_factory
        self.partition = partition_constraints(self.constraints, self.config.shards)
        self.router = ContextRouter(self.partition)
        #: Outward event stream (same vocabulary as ``Middleware.bus``).
        self.bus = EventBus()
        self.telemetry = telemetry
        self.fault_injector = fault_injector
        self._ruleset_hash: Optional[str] = None
        self._last_shard_results: Optional[Sequence[ShardRunResult]] = None

    # -- construction helpers ----------------------------------------------

    def shard_specs(self) -> List[ShardSpec]:
        telemetry_enabled = (
            self.telemetry.enabled if self.telemetry is not None else False
        )
        return [
            ShardSpec(
                shard_id=shard_id,
                constraints=self.partition.shard_constraints[shard_id],
                strategy=self.strategy_name,
                strategy_kwargs=self.strategy_kwargs,
                registry_factory=self.registry_factory,
                use_window=self.config.use_window,
                use_delay=self.config.use_delay,
                telemetry_enabled=telemetry_enabled,
                fault_injector=self.fault_injector,
                kernels=self.config.kernels,
                batch_kernels=self.config.batch_kernels,
                async_check=self.config.async_check,
            )
            for shard_id in range(self.config.shards)
        ]

    def inline_host(
        self, telemetry: Telemetry
    ) -> Tuple[List[ShardPipeline], PipelineDriver]:
        """Every shard pipeline on the engine bus, behind one driver.

        The inline host of :meth:`run` and of open streams.  Shards
        share ``telemetry``: one registry, one span ring, global
        ordering preserved.
        """
        pipelines: List[ShardPipeline] = []
        for spec in self.shard_specs():
            pipeline = spec.build(telemetry=telemetry)
            pipeline.bus = self.bus
            pipelines.append(pipeline)
        driver = PipelineDriver(
            pipelines,
            self.router.route,
            use_window=self.config.use_window,
            use_delay=self.config.use_delay,
            async_check=self.config.async_check,
            batch_kernels=self.config.batch_kernels,
        )
        return pipelines, driver

    def ruleset_document(self) -> dict:
        """The run's full resolution configuration as a ledger ruleset.

        Covers everything that determines decisions -- constraint DSL
        texts, strategy + kwargs, window semantics, predicate registry
        -- and deliberately excludes decision-neutral execution knobs
        (kernels, mode, shard count), so a kernels-on and a kernels-off
        run of the same configuration share one ``ruleset_hash`` and
        stay diffable.
        """
        return build_ruleset_document(
            self.constraints,
            strategy=self.strategy_name,
            strategy_kwargs=dict(self.strategy_kwargs),
            use_window=self.config.use_window,
            use_delay=self.config.use_delay,
            registry_factory=self.registry_factory,
            async_check=(
                self.config.async_check.to_document()
                if self.config.async_check is not None
                else None
            ),
        )

    @property
    def ruleset_hash(self) -> str:
        """Hash of :meth:`ruleset_document` (cached; config is frozen)."""
        if self._ruleset_hash is None:
            self._ruleset_hash = hash_ruleset(self.ruleset_document())
        return self._ruleset_hash

    # -- open sessions -------------------------------------------------------

    def open_stream(self, *, telemetry: Optional[Telemetry] = None):
        """Open a push-style inline session (the serving entrypoint).

        Returns an :class:`~repro.engine.stream.EngineStream`: arrivals
        are submitted incrementally in batches, pending uses survive
        between submissions, and ``close()`` performs the end-of-stream
        flush.  Decisions are byte-identical to :meth:`run` over the
        same concatenated stream in inline mode.  ``telemetry``
        overrides the engine's bundle for this session.
        """
        from .stream import EngineStream  # local import: cycle

        return EngineStream(self, telemetry=telemetry)

    # -- running -------------------------------------------------------------

    def run(self, contexts: Iterable[Context]) -> EngineResult:
        """Resolve a whole stream; returns the aggregated result.

        ``contexts`` may be any iterable (including a lazy trace
        reader); inline and process modes consume it streamingly.
        """
        self.router.routed = {i: 0 for i in range(self.config.shards)}
        # Every run accounts into *some* registry; a caller-supplied
        # bundle keeps Prometheus counter semantics (cumulative across
        # runs), an implicit one is fresh per engine.
        telemetry = (
            self.telemetry if self.telemetry is not None else Telemetry.disabled()
        )
        telemetry.registry.gauge(
            "repro_ruleset_info",
            help="Resolution ruleset identity (value is always 1)",
            labels={"ruleset_hash": self.ruleset_hash},
        ).set(1.0)
        self._last_shard_results = None
        started = time.perf_counter()
        if self.config.mode == "inline":
            result = self._run_inline(contexts, telemetry)
        elif self.config.mode == "local":
            result = self._run_substreams(
                contexts, executed_mode="local", telemetry=telemetry
            )
        else:
            result = self._run_process(contexts, telemetry)
        # Ledger emission is part of the run, so its cost lands inside
        # elapsed_s -- the benchmark's overhead column stays honest.
        if self.config.ledger_path:
            self._write_ledger(result, telemetry)
        result.metrics.elapsed_s = time.perf_counter() - started
        return result

    def _write_ledger(self, result: EngineResult, telemetry: Telemetry) -> None:
        """Emit the run's decision ledger to ``config.ledger_path``.

        Inline runs convert the globally ordered event stream directly,
        attributing shards through the router's pure :meth:`shard_for`.
        Local/process runs convert each worker's own event list into a
        per-shard segment and k-way merge the segments -- the same
        deterministic ``(at, shard, seq)`` order ``merge_events``
        produced for the result itself.  (Recording live off the bus
        was measured as a wash against this post-hoc walk: the extra
        per-event subscriber dispatch costs what the warm-cache entry
        build saves.)
        """
        if self._last_shard_results is not None:
            entries = merge_segments(
                [
                    entries_from_events(r.events, shard_id=r.shard_id)
                    for r in self._last_shard_results
                ]
            )
        else:
            entries = entries_from_events(
                result.events, shard_of=self.router.shard_for
            )
        meta = {
            "host": "engine",
            "mode": result.metrics.mode,
            "shards": self.config.shards,
            "kernels": self.config.kernels,
            "batch_kernels": self.config.batch_kernels,
        }
        with LedgerWriter(
            self.config.ledger_path,
            self.ruleset_document(),
            meta=meta,
            fsync=self.config.ledger_fsync,
            buffer_entries=len(entries) + 1,
            telemetry=telemetry,
        ) as writer:
            # The entry dicts are freshly built above and discarded
            # after the write, so the defensive copy is skipped.
            writer.append_many(entries, copy=False)

    # -- inline (deterministic) mode -----------------------------------------

    def _run_inline(
        self, contexts: Iterable[Context], telemetry: Telemetry
    ) -> EngineResult:
        pipelines, driver = self.inline_host(telemetry)
        events: List[Event] = []
        self.bus.subscribe(Event, events.append)
        driver.receive_all(contexts)
        return self._collect_inline(pipelines, events, telemetry)

    def _collect_inline(
        self,
        pipelines: Sequence[ShardPipeline],
        events: List[Event],
        telemetry: Telemetry,
    ) -> EngineResult:
        delivered = [e.context for e in events if isinstance(e, ContextDelivered)]
        discarded = [e.context for e in events if isinstance(e, ContextDiscarded)]
        for pipeline in pipelines:
            pipeline.flush_stats()
        metrics = EngineMetrics.from_registry(
            telemetry.registry, mode="inline", shards=self.config.shards
        )
        return EngineResult(
            delivered=delivered,
            discarded=discarded,
            events=events,
            metrics=metrics,
        )

    # -- shard-local decomposition (local + process modes) ---------------------

    def _split(self, contexts: Iterable[Context]) -> List[List[Context]]:
        substreams: List[List[Context]] = [[] for _ in range(self.config.shards)]
        for ctx in contexts:
            substreams[self.router.route(ctx)].append(ctx)
        return substreams

    def _run_substreams(
        self,
        contexts: Iterable[Context],
        executed_mode: str,
        telemetry: Telemetry,
    ) -> EngineResult:
        specs = self.shard_specs()
        substreams = self._split(contexts)
        results = [
            run_shard_substream(spec, substream)
            for spec, substream in zip(specs, substreams)
        ]
        return self._collect_shard_results(results, executed_mode, telemetry)

    def _run_process(
        self, contexts: Iterable[Context], telemetry: Telemetry
    ) -> EngineResult:
        specs = self.shard_specs()
        try:
            supervisor = ShardSupervisor(
                specs, self.router.route, self.config, telemetry
            )
        except (ImportError, OSError, PermissionError) as error:
            # Only *unavailability* of the multiprocessing substrate is
            # absorbed here (restricted sandboxes where the supervisor
            # cannot start its workers).  Worker failures are the
            # supervisor's job: logged, counted, retried from
            # checkpoints, and -- past the retry budget -- degraded or
            # raised as EngineWorkerError, never surfaced as silently
            # missing decisions.
            _log.warning(
                "process mode unavailable (%s: %s); running the same "
                "decomposition in-process",
                type(error).__name__,
                error,
            )
            return self._run_substreams(
                contexts, executed_mode="process-fallback", telemetry=telemetry
            )
        try:
            results = supervisor.run(contexts)
        finally:
            supervisor.close()
        return self._collect_shard_results(
            results, executed_mode="process", telemetry=telemetry
        )

    def _collect_shard_results(
        self,
        results: Sequence[ShardRunResult],
        executed_mode: str,
        telemetry: Telemetry,
    ) -> EngineResult:
        events = merge_events([r.events for r in results])
        # Kept for the ledger writer: per-shard event lists let it emit
        # per-shard segments and merge them deterministically instead of
        # re-deriving shard attribution from the merged stream.
        self._last_shard_results = results
        delivered = [e.context for e in events if isinstance(e, ContextDelivered)]
        discarded = [e.context for e in events if isinstance(e, ContextDiscarded)]
        # Workers accounted into their own registries; their snapshots
        # travelled back in the results.  Merge them here, then read
        # the totals from the one merged registry -- a worker that died
        # before flushing simply contributes nothing.
        for r in results:
            if r.telemetry is not None:
                telemetry.merge_snapshot(r.telemetry)
        metrics = EngineMetrics.from_registry(
            telemetry.registry, mode=executed_mode, shards=self.config.shards
        )
        for event in events:
            self.bus.publish(event)
        return EngineResult(
            delivered=delivered,
            discarded=discarded,
            events=events,
            metrics=metrics,
        )
