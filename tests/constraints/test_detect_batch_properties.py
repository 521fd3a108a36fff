"""Property-based equivalence: ``detect_batch`` vs sequential ``detect``.

The acceptance bar for columnar batched detection is the same
observational-equivalence bar the kernels met: on any stream, feeding
arrivals through :meth:`ConstraintChecker.detect_batch` in chunks of
any size -- with batch kernels on or off -- must produce verdicts
identical to the per-context :meth:`detect` reference sweep, same
inconsistencies, same order.  The suite also pins the memo layer's
correctness under invalidation: flipping a registered predicate
mid-stream (a ``FunctionRegistry.version`` bump) must yield exactly
the decisions a fresh checker would produce, never a stale memo hit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.builtins import standard_registry
from repro.constraints.checker import ConstraintChecker
from repro.constraints.parser import parse_constraint
from repro.core.context import Context

BATCH_SIZES = (1, 7, 64)


def _ctx(index, x, subject="p", lifespan=None):
    kwargs = {} if lifespan is None else {"lifespan": lifespan}
    return Context(
        ctx_id=f"b{index:03d}",
        ctx_type="location",
        subject=subject,
        value=(float(x), 0.0),
        timestamp=float(index),
        **kwargs,
    )


def velocity_constraint(bound=1.5, gap=1.5):
    return parse_constraint(
        "velocity",
        f"forall l1 in location, forall l2 in location : "
        f"(same_subject(l1, l2) and before(l1, l2) "
        f"and within_time(l1, l2, {gap})) "
        f"implies velocity_le(l1, l2, {bound})",
    )


def provenance_constraint():
    return parse_constraint(
        "provenance",
        "forall r in location : far(r) implies "
        "(exists s in location : before(s, r))",
    )


def _registry():
    registry = standard_registry()
    registry.register("far", lambda c: c.position[0] > 5.0)
    return registry


def _checker(kernels=True, batch_kernels=True, registry=None):
    return ConstraintChecker(
        [velocity_constraint(), provenance_constraint()],
        registry=registry or _registry(),
        kernels=kernels,
        batch_kernels=batch_kernels,
    )


def _canon(verdicts):
    """Order-preserving comparable form of a per-row verdict list."""
    return [
        [
            (inc.constraint, sorted(c.ctx_id for c in inc.contexts))
            for inc in row
        ]
        for row in verdicts
    ]


def _sequential_trace(checker, contexts):
    """The reference: one ``detect`` per arrival, pool accumulating."""
    pool = []
    trace = []
    for ctx in contexts:
        now = ctx.timestamp
        scope = [c for c in pool if not c.is_expired(now)]
        trace.append(checker.detect(ctx, scope, now))
        pool.append(ctx)
    return _canon(trace)


def _batched_trace(checker, contexts, batch_size):
    """The same stream through ``detect_batch`` in fixed-size chunks."""
    pool = []
    trace = []
    for start in range(0, len(contexts), batch_size):
        chunk = contexts[start : start + batch_size]
        nows = [ctx.timestamp for ctx in chunk]
        trace.extend(checker.detect_batch(chunk, pool, nows))
        pool.extend(chunk)
    return _canon(trace)


def moves_strategy(max_size=12):
    return st.lists(
        st.tuples(st.integers(0, 8), st.sampled_from(["p", "q"])),
        min_size=1,
        max_size=max_size,
    )


class TestBatchedEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(moves=moves_strategy(), kernels=st.booleans())
    def test_detect_batch_matches_sequential_detect(self, moves, kernels):
        contexts = [
            _ctx(i, x, subject=subject) for i, (x, subject) in enumerate(moves)
        ]
        reference = _sequential_trace(_checker(kernels=kernels), contexts)
        for batch_size in BATCH_SIZES:
            assert (
                _batched_trace(
                    _checker(kernels=kernels), contexts, batch_size
                )
                == reference
            ), f"batch_size={batch_size} kernels={kernels}"

    @settings(max_examples=60, deadline=None)
    @given(moves=moves_strategy())
    def test_batch_kernels_flag_is_decision_neutral(self, moves):
        contexts = [
            _ctx(i, x, subject=subject) for i, (x, subject) in enumerate(moves)
        ]
        for batch_size in BATCH_SIZES:
            assert _batched_trace(
                _checker(batch_kernels=True), contexts, batch_size
            ) == _batched_trace(
                _checker(batch_kernels=False), contexts, batch_size
            )

    @settings(max_examples=60, deadline=None)
    @given(moves=moves_strategy(), batch_kernels=st.booleans())
    def test_stop_at_hit_returns_the_prefix_through_the_first_hit(
        self, moves, batch_kernels
    ):
        contexts = [
            _ctx(i, x, subject=subject) for i, (x, subject) in enumerate(moves)
        ]
        nows = [ctx.timestamp for ctx in contexts]
        full = _canon(
            _checker(batch_kernels=batch_kernels).detect_batch(contexts, [], nows)
        )
        hits = [k for k, row in enumerate(full) if row]
        expected = full[: hits[0] + 1] if hits else full
        checker = _checker(batch_kernels=batch_kernels)
        stopped = checker.detect_batch(contexts, [], nows, stop_at_hit=True)
        assert _canon(stopped) == expected
        assert checker.detect_calls == len(expected)

    @settings(max_examples=50, deadline=None)
    @given(
        moves=moves_strategy(max_size=8),
        lifespans=st.lists(
            st.one_of(st.none(), st.floats(0.5, 4.0)),
            min_size=8,
            max_size=8,
        ),
    )
    def test_mid_batch_expiry_is_honoured(self, moves, lifespans):
        # Finite lifespans: detect_batch's per-row expiry cutoff must
        # reproduce the reference path's alive-at-now filtering.
        contexts = [
            _ctx(i, x, subject=subject, lifespan=lifespans[i % len(lifespans)])
            for i, (x, subject) in enumerate(moves)
        ]
        reference = _sequential_trace(_checker(), contexts)
        for batch_size in BATCH_SIZES:
            assert (
                _batched_trace(_checker(), contexts, batch_size) == reference
            ), f"batch_size={batch_size}"


class TestMemoInvalidation:
    @settings(max_examples=40, deadline=None)
    @given(moves=moves_strategy(max_size=10), flip_at=st.integers(0, 9))
    def test_registry_flip_mid_stream_matches_fresh_checker(
        self, moves, flip_at
    ):
        """A ``FunctionRegistry.version`` bump must invalidate the memo.

        The stream is split at ``flip_at``; between the two halves the
        ``far`` predicate is replaced with its complement.  The warm
        checker (whose memo tables served the first half) must agree
        on the second half with a fresh checker that never saw the old
        predicate -- a stale memo hit would diverge.
        """
        contexts = [
            _ctx(i, x, subject=subject) for i, (x, subject) in enumerate(moves)
        ]
        flip_at = min(flip_at, len(contexts))
        head, tail = contexts[:flip_at], contexts[flip_at:]

        registry = _registry()
        warm = _checker(registry=registry)
        if head:
            warm.detect_batch(head, [], [ctx.timestamp for ctx in head])
        registry.replace("far", lambda c: c.position[0] <= 5.0)
        warm_tail = _canon(
            warm.detect_batch(tail, head, [ctx.timestamp for ctx in tail])
        )

        fresh_registry = _registry()
        fresh_registry.replace("far", lambda c: c.position[0] <= 5.0)
        fresh = _checker(registry=fresh_registry)
        fresh_tail = _canon(
            fresh.detect_batch(tail, head, [ctx.timestamp for ctx in tail])
        )
        assert warm_tail == fresh_tail

    def test_shared_subexpression_memo_counts_hits(self):
        # The canonical-key memo is probed per batch; the first batch
        # compiles and populates it, so a second batch over the same
        # plans must hit instead of recompiling (observable through
        # the telemetry counters the checker exports).
        from repro.obs.telemetry import Telemetry

        checker = _checker()
        checker.telemetry = Telemetry(enabled=True)
        contexts = [_ctx(i, x) for i, x in enumerate([0, 4, 8, 1, 7])]
        first = contexts[:3]
        second = contexts[3:]
        checker.detect_batch(first, [], [ctx.timestamp for ctx in first])
        checker.detect_batch(second, first, [ctx.timestamp for ctx in second])
        registry = checker.telemetry.registry
        assert registry.value("subexpr_memo_misses_total") > 0
        assert registry.value("subexpr_memo_hits_total") > 0
