"""The constraint checker: an :class:`InconsistencyDetector`.

Bundles a set of named constraints, a predicate registry, the full
evaluator and the incremental engine into the detector interface the
resolution service consumes.  This is the reproduction of the
consistency checking service of the Cabot middleware ([16], [17]).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from ..core.context import Context
from ..core.inconsistency import Inconsistency
from ..core.resolver import InconsistencyDetector
from .ast import Constraint
from .builtins import FunctionRegistry, standard_registry
from .evaluator import Evaluator
from .incremental import GroupPlan, IncrementalEngine
from .index import BatchOverlayView, CandidateIndex, EphemeralScopeIndex

__all__ = ["ConstraintChecker"]


class ConstraintChecker(InconsistencyDetector):
    """Checks new contexts against a set of consistency constraints.

    Parameters
    ----------
    constraints:
        The consistency constraints to enforce.
    registry:
        Predicate function registry; defaults to the standard library
        registry (applications typically extend it).
    incremental:
        Use the incremental fast path where applicable (default).
    kernels:
        Compile constraint bodies to specialized closures and prune
        candidate enumeration through equality-join indexes (default).
        Disable to force the interpreted reference path (the engine's
        ``--no-kernels`` escape hatch).
    batch_kernels:
        Let :meth:`detect_batch` use the vectorized batch-kernel sweep
        and the cross-batch probe memo (default).  Disable (the
        engine's ``--no-batch-kernels`` escape hatch) and
        :meth:`detect_batch` degrades to a sequential emulation with
        identical results -- callers never need to care which path
        ran.  :meth:`detect` itself is unaffected either way.

    The checker is *incremental by contract*: :meth:`detect` returns
    only inconsistencies that involve the newly added context, which is
    exactly the delta a resolution strategy needs on a context addition
    change.

    Hosts hand the checker a persistent
    :class:`~repro.constraints.index.CandidateIndex` holding the
    checking scope (:meth:`attach_scope`, or :meth:`attach_pool` when
    the whole pool is the scope) and pass that index as ``existing``;
    the checker then stops rebuilding per-type extents on every detect.
    """

    def __init__(
        self,
        constraints: Iterable[Constraint] = (),
        registry: Optional[FunctionRegistry] = None,
        incremental: bool = True,
        kernels: bool = True,
        batch_kernels: bool = True,
    ) -> None:
        self.registry = registry if registry is not None else standard_registry()
        self._constraints: Dict[str, Constraint] = {}
        self._relevant_types: Set[str] = set()
        self._routing: Dict[str, List[Constraint]] = {}
        self._engine = IncrementalEngine(
            self.registry,
            enabled=incremental,
            kernels=kernels,
            batch_kernels=batch_kernels,
        )
        self.batch_kernels = batch_kernels and kernels
        self.evaluator = Evaluator(self.registry, use_kernels=kernels)
        self._pool_index: Optional[CandidateIndex] = None
        # Cross-batch probe memo for detect_batch, stamped by
        # (registry version, scope-index generation); flushed whenever
        # either moves, i.e. on predicate replacement or scope mutation.
        self._probe_memo: Dict = {}
        self._probe_stamp = (-1, -1)
        #: Detection statistics, for the incremental-speed-up benchmark.
        self.detect_calls = 0
        #: Telemetry bundle (repro.obs); hosts swap in a live one.
        from ..obs.telemetry import NULL_TELEMETRY

        self.telemetry = NULL_TELEMETRY
        for constraint in constraints:
            self.add_constraint(constraint)

    @property
    def telemetry(self):
        return self._telemetry

    @telemetry.setter
    def telemetry(self, telemetry) -> None:
        # Pre-resolve the per-detect counters and the incremental-check
        # span so the hot path pays a plain ``inc`` / re-enter instead
        # of a registry lookup and span allocation per call.
        self._telemetry = telemetry
        self._check_span = telemetry.span_timer("check.incremental")
        self._batch_span = telemetry.span_timer("check.batch")
        if telemetry.enabled:
            self._detect_counter = telemetry.registry.counter(
                "checker_detect_calls_total",
                help="Incremental detect() invocations",
            )
            self._violations_counter = telemetry.registry.counter(
                "checker_violations_total",
                help="Inconsistencies the checker reported",
            )
            self._enumerated_counter = telemetry.registry.counter(
                "check_bindings_enumerated",
                help="Candidate bindings evaluated on the fast path",
            )
            self._pruned_counter = telemetry.registry.counter(
                "check_bindings_pruned",
                help="Candidate bindings skipped by equality-join indexes",
            )
            self._kernel_counter = telemetry.registry.counter(
                "check_kernel_hits",
                help="Constraint evaluations served by compiled kernels",
            )
            self._fallback_counter = telemetry.registry.counter(
                "check_interpreter_fallbacks",
                help="Constraint evaluations served by the AST interpreter",
            )
            self._batch_rows_counter = telemetry.registry.counter(
                "batch_kernel_rows_total",
                help="Contexts detected through the batched kernel path",
            )
            self._memo_hits_counter = telemetry.registry.counter(
                "subexpr_memo_hits_total",
                help="Shared-subexpression memo hits (probe + kernel caches)",
            )
            self._memo_misses_counter = telemetry.registry.counter(
                "subexpr_memo_misses_total",
                help="Shared-subexpression memo misses (probe + kernel caches)",
            )
        else:
            self._detect_counter = None
            self._violations_counter = None
            self._enumerated_counter = None
            self._pruned_counter = None
            self._kernel_counter = None
            self._fallback_counter = None
            self._batch_rows_counter = None
            self._memo_hits_counter = None
            self._memo_misses_counter = None

    # -- constraint management -------------------------------------------

    def add_constraint(self, constraint: Constraint) -> None:
        """Register a constraint; names must be unique.

        Registration also (re)builds the type -> constraints routing
        table, compiles the constraint's execution plan (kernel + join
        analysis), and -- when a scope is attached -- makes sure the
        persistent index covers the plan's join fields.
        """
        if constraint.name in self._constraints:
            raise ValueError(f"constraint {constraint.name!r} already added")
        self._constraints[constraint.name] = constraint
        self._relevant_types |= constraint.relevant_types()
        self._rebuild_routing()
        plan = self._engine.plan_for(constraint)
        if self._pool_index is not None:
            for field in plan.join_fields():
                self._pool_index.ensure_field(field)

    def _rebuild_routing(self) -> None:
        # detect() historically scanned sorted(self._constraints) and
        # skipped irrelevant types; the routing table is that same scan
        # precomputed per type (a unit test pins the equivalence).
        routing: Dict[str, List[Constraint]] = {}
        for name in sorted(self._constraints):
            constraint = self._constraints[name]
            for ctx_type in constraint.relevant_types():
                routing.setdefault(ctx_type, []).append(constraint)
        self._routing = routing

    def constraints_for_type(self, ctx_type: str) -> List[Constraint]:
        """Constraints quantifying over ``ctx_type``, in name order."""
        return list(self._routing.get(ctx_type, ()))

    def constraints(self) -> List[Constraint]:
        return [self._constraints[name] for name in sorted(self._constraints)]

    def constraint(self, name: str) -> Constraint:
        return self._constraints[name]

    # -- scope attachment --------------------------------------------------

    def attach_scope(self, index: CandidateIndex) -> None:
        """Adopt ``index`` as the persistent checking-scope index.

        The checker only reads it, after indexing its constraints' join
        fields; its writer (the runtime pipeline, or the pool
        :meth:`attach_pool` registers it on) keeps it equal to the
        contexts that participate in checking.  :meth:`detect` and
        :meth:`detect_batch` probe it directly when handed the index
        itself as ``existing``; a plain list gets a per-call
        :class:`~repro.constraints.index.EphemeralScopeIndex`.
        """
        fields: Set[str] = set()
        for constraint in self._constraints.values():
            fields.update(self._engine.plan_for(constraint).join_fields())
        for field in sorted(fields):
            index.ensure_field(field)
        self._pool_index = index

    def attach_pool(self, pool) -> None:
        """Make the whole of ``pool`` the checking scope.

        For hosts where every pooled context participates in checking
        (the detection tests and benchmarks): seeds a fresh index from
        the pool's current contents, registers it as a pool listener,
        so additions, discards and expiry keep it current, and adopts
        it through :meth:`attach_scope`.  Pass :attr:`pool_index` as
        ``existing`` to detect against it.
        """
        index = CandidateIndex()
        index.rebuild(pool)
        pool.add_listener(index)
        self.attach_scope(index)

    @property
    def pool_index(self) -> Optional[CandidateIndex]:
        """The attached checking-scope index, if any."""
        return self._pool_index

    # -- InconsistencyDetector interface -------------------------------------

    def is_relevant(self, ctx: Context) -> bool:
        """Whether any constraint quantifies over ``ctx``'s type."""
        return ctx.ctx_type in self._relevant_types

    def detect(
        self, ctx: Context, existing: Sequence[Context], now: float
    ) -> List[Inconsistency]:
        """Inconsistencies that adding ``ctx`` introduces.

        Each distinct (constraint, violating context set) pair yields
        one :class:`Inconsistency`; only violations involving ``ctx``
        are returned.
        """
        self.detect_calls += 1
        self.registry.now = now
        constraints = self._routing.get(ctx.ctx_type, ())
        # A plain list gets a per-call scope index (built once, shared
        # across constraints -- never per constraint).
        if existing is self._pool_index:
            view = existing
        else:
            view = EphemeralScopeIndex(existing)

        dom_cache: Dict[str, List[Context]] = {}

        def domain(ctx_type: str) -> Sequence[Context]:
            # The *extended* scope (existing plus ctx), memoized per
            # type for the duration of this detect call.
            extent = dom_cache.get(ctx_type)
            if extent is None:
                extent = list(view.extent(ctx_type))
                if ctx_type == ctx.ctx_type:
                    extent.append(ctx)
                dom_cache[ctx_type] = extent
            return extent

        engine = self._engine
        enumerated = engine.bindings_enumerated
        pruned = engine.bindings_pruned
        kernel_hits = engine.kernel_hits
        fallbacks = engine.interpreter_fallbacks

        inconsistencies: List[Inconsistency] = []
        with self._check_span:
            for constraint in constraints:
                for contexts in engine.new_violations(
                    constraint, ctx, existing, domain, view=view
                ):
                    inconsistencies.append(
                        Inconsistency(
                            contexts=frozenset(contexts),
                            constraint=constraint.name,
                            detected_at=now,
                        )
                    )
        if self._detect_counter is not None:
            self._detect_counter.inc()
            if inconsistencies:
                self._violations_counter.inc(len(inconsistencies))
            delta = engine.bindings_enumerated - enumerated
            if delta:
                self._enumerated_counter.inc(delta)
            delta = engine.bindings_pruned - pruned
            if delta:
                self._pruned_counter.inc(delta)
            delta = engine.kernel_hits - kernel_hits
            if delta:
                self._kernel_counter.inc(delta)
            delta = engine.interpreter_fallbacks - fallbacks
            if delta:
                self._fallback_counter.inc(delta)
        return inconsistencies

    def detect_batch(
        self,
        batch: Sequence[Context],
        existing: Sequence[Context],
        now: Union[float, Sequence[float]],
        *,
        stop_at_hit: bool = False,
    ) -> List[List[Inconsistency]]:
        """Per-context verdicts for a whole batch, in arrival order.

        Semantically this is nothing but the sequential sweep: row
        ``k`` is checked exactly as :meth:`detect` would check it
        against ``existing`` *plus the earlier batch rows*, both
        filtered to contexts still alive at the row's clock
        (``expiry > now_k`` -- the same condition the runtime's expiry
        sweep removes on, so mid-batch expiry is honoured without the
        caller re-sweeping).  ``now`` is one clock for the whole batch
        or one per row (nondecreasing in practice; not required).
        Verdict lists come back in batch order; rows no constraint
        quantifies over get ``[]`` without touching the engine, the
        same rows the resolution service never calls :meth:`detect`
        for.

        What batching buys -- with ``batch_kernels`` enabled -- is the
        cost model, not the answer: candidate-index probes are made
        once per distinct (type, field, value) group per batch instead
        of once per row (memoized across batches until the registry
        version or pool generation moves), and each constraint's
        cross product is swept by one vectorized batch-kernel call
        instead of one Python call per binding.  With the flag off the
        method literally runs the sequential emulation, so results can
        never depend on it.

        With ``stop_at_hit`` the sweep ends at the first row whose
        verdict is non-empty: the result is the verdict *prefix* up to
        and including that row (the whole batch when no row hits), and
        no later row is evaluated.  This is the runtime planner's
        contract (:class:`repro.runtime.batch._BatchDetectPlanner`):
        only a hit can make an immediate strategy discard on addition,
        so every verdict after the first hit depends on a pool the
        strategy has yet to change, and is planned afterwards against
        the live pool instead of being evaluated twice.
        """
        if not batch:
            return []
        if isinstance(now, (int, float)):
            nows: List[float] = [float(now)] * len(batch)
        else:
            nows = [float(value) for value in now]
            if len(nows) != len(batch):
                raise ValueError(
                    f"got {len(nows)} clocks for {len(batch)} contexts"
                )
        if not self.batch_kernels:
            return self._detect_batch_sequential(
                batch, existing, nows, stop_at_hit
            )

        index = self._pool_index
        if existing is index:
            # Persistent scope index: the probe memo survives across
            # batches as long as neither the registry nor the scope
            # moved (their versions are the stamp).
            stamp = (self.registry.version, index.generation)
            if stamp != self._probe_stamp:
                self._probe_memo.clear()
                self._probe_stamp = stamp
            overlay = BatchOverlayView(index, self._probe_memo)
        else:
            overlay = BatchOverlayView(EphemeralScopeIndex(existing), {})

        engine = self._engine
        registry = self.registry
        routing = self._routing
        enumerated = engine.bindings_enumerated
        pruned = engine.bindings_pruned
        kernel_hits = engine.kernel_hits
        fallbacks = engine.interpreter_fallbacks
        plan_hits = engine.subexpr_memo_hits
        plan_misses = engine.subexpr_memo_misses

        results: List[List[Inconsistency]] = []
        relevant_rows = 0
        total_violations = 0
        # One domain closure for the whole batch; the current row sits
        # in a cell and the per-row cache is cleared between rows
        # (hoisting the per-context closure + dict allocation the
        # sequential path pays on every detect call).
        row_cell: List[Optional[Context]] = [None]
        dom_cache: Dict[str, List[Context]] = {}

        def domain(ctx_type: str) -> Sequence[Context]:
            extent = dom_cache.get(ctx_type)
            if extent is None:
                extent = list(overlay.extent(ctx_type))
                row = row_cell[0]
                if row is not None and ctx_type == row.ctx_type:
                    extent.append(row)
                dom_cache[ctx_type] = extent
            return extent

        # Fusion units per type, resolved once per batch: constraints
        # sharing a quantified type sequence and join structure run as
        # one fused pool sweep (see ``IncrementalEngine.fusion_plan``);
        # verdicts are re-emitted below in routing order, so fusion is
        # invisible in the results.
        unit_cache: Dict[str, List] = {}

        with self._batch_span:
            for ctx, row_now in zip(batch, nows, strict=True):
                constraints = routing.get(ctx.ctx_type, ())
                if not constraints:
                    results.append([])
                    overlay.append(ctx)
                    continue
                relevant_rows += 1
                self.detect_calls += 1
                registry.now = row_now
                overlay.set_cutoff(row_now)
                row_cell[0] = ctx
                if dom_cache:
                    dom_cache.clear()
                units = unit_cache.get(ctx.ctx_type)
                if units is None:
                    units = engine.fusion_plan(constraints)
                    unit_cache[ctx.ctx_type] = units
                found: Dict[str, List] = {}
                for unit in units:
                    if isinstance(unit, GroupPlan):
                        fused = engine.new_violations_group(
                            unit, ctx, existing, domain, view=overlay
                        )
                        for name, vios in zip(
                            unit.names, fused, strict=True
                        ):
                            found[name] = vios
                    else:
                        found[unit.name] = engine.new_violations(
                            unit,
                            ctx,
                            existing,
                            domain,
                            view=overlay,
                            batched=True,
                        )
                inconsistencies: List[Inconsistency] = []
                for constraint in constraints:
                    for contexts in found[constraint.name]:
                        inconsistencies.append(
                            Inconsistency(
                                contexts=frozenset(contexts),
                                constraint=constraint.name,
                                detected_at=row_now,
                            )
                        )
                total_violations += len(inconsistencies)
                results.append(inconsistencies)
                if inconsistencies and stop_at_hit:
                    break
                overlay.append(ctx)

        if self._detect_counter is not None:
            if relevant_rows:
                self._detect_counter.inc(relevant_rows)
            if total_violations:
                self._violations_counter.inc(total_violations)
            delta = engine.bindings_enumerated - enumerated
            if delta:
                self._enumerated_counter.inc(delta)
            delta = engine.bindings_pruned - pruned
            if delta:
                self._pruned_counter.inc(delta)
            delta = engine.kernel_hits - kernel_hits
            if delta:
                self._kernel_counter.inc(delta)
            delta = engine.interpreter_fallbacks - fallbacks
            if delta:
                self._fallback_counter.inc(delta)
            self._batch_rows_counter.inc(len(results))
            hits = overlay.memo_hits + engine.subexpr_memo_hits - plan_hits
            if hits:
                self._memo_hits_counter.inc(hits)
            misses = (
                overlay.memo_misses + engine.subexpr_memo_misses - plan_misses
            )
            if misses:
                self._memo_misses_counter.inc(misses)
        return results

    def _detect_batch_sequential(
        self,
        batch: Sequence[Context],
        existing: Sequence[Context],
        nows: Sequence[float],
        stop_at_hit: bool = False,
    ) -> List[List[Inconsistency]]:
        """The reference semantics of :meth:`detect_batch`, one
        :meth:`detect` per row over the explicitly materialised scope
        (earlier rows appended, per-row expiry filter applied)."""
        results: List[List[Inconsistency]] = []
        admitted = list(existing)
        for ctx, row_now in zip(batch, nows, strict=True):
            if ctx.ctx_type in self._relevant_types:
                scope = [c for c in admitted if c.expiry > row_now]
                verdict = self.detect(ctx, scope, row_now)
                results.append(verdict)
                if verdict and stop_at_hit:
                    break
            else:
                results.append([])
            admitted.append(ctx)
        return results

    def forget(self, ctx: Context) -> None:
        """The checker keeps no per-context caches; nothing to drop.

        Present to satisfy the detector protocol: the incremental
        engine evaluates only fresh bindings, so discarded contexts
        simply never appear in future scopes.  (The checking-scope
        index is kept by its writer, not through this hook: a forgotten
        context leaves the index when it actually leaves the scope.)
        """

    # -- diagnostics --------------------------------------------------------

    def check_all(
        self, contexts: Sequence[Context], now: float = 0.0
    ) -> List[Inconsistency]:
        """Full (non-incremental) check of ``contexts``, for tests and
        for the scenario walkthroughs: every current violation of every
        constraint, not only those involving a particular context."""
        self.registry.now = now
        by_type: Dict[str, List[Context]] = {}
        for context in contexts:
            by_type.setdefault(context.ctx_type, []).append(context)

        def domain(ctx_type: str) -> Sequence[Context]:
            return by_type.get(ctx_type, ())

        out: List[Inconsistency] = []
        with self.telemetry.span("check.full", pool=len(contexts)):
            for name in sorted(self._constraints):
                constraint = self._constraints[name]
                for contexts_set in self.evaluator.violations(constraint, domain):
                    out.append(
                        Inconsistency(
                            contexts=frozenset(contexts_set),
                            constraint=constraint.name,
                            detected_at=now,
                        )
                    )
        return out
