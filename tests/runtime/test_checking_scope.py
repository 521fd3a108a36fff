"""The checking scope is state the pipeline keeps current, not a rebuild.

A context enters the scope when it enters the pool and the strategy
lets it participate in checking, and leaves it when it leaves the pool
or when a use takes it out of checking (drop-bad's delivered contexts,
Section 3.2).  The reference below is the filter the resolution service
used to rebuild over the whole pool on every arrival; the maintained
scope index must equal it after every arrival, for every registered
strategy, with the same order inside each context type (which is what
keeps violation order, and so decisions, unchanged).
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.constraints.ast import Constraint, forall, pred
from repro.constraints.checker import ConstraintChecker
from repro.core.context import Context
from repro.core.drop_bad import DropBadStrategy
from repro.core.strategy import make_strategy, strategy_names
from repro.engine.shard import ShardExecutionState, ShardSpec
from repro.middleware.manager import Middleware
from repro.runtime.snapshot import AsyncCheckConfig

from . import _streams


def reference_scope(pool, strategy, now):
    return [
        c
        for c in pool
        if not c.is_expired(now) and strategy.participates_in_checking(c)
    ]


def _ids_by_type(contexts):
    out = {}
    for ctx in contexts:
        out.setdefault(ctx.ctx_type, []).append(ctx.ctx_id)
    return out


def assert_scope_current(scope, pool, strategy, now):
    expected = reference_scope(pool, strategy, now)
    assert len(scope) == len(expected)
    assert _ids_by_type(scope) == _ids_by_type(expected)


def _jostle(stream, seed):
    """Swap some adjacent arrivals so the snapshot window must reorder."""
    rng = random.Random(seed)
    out = list(stream)
    for i in range(0, len(out) - 1, 2):
        if rng.random() < 0.5:
            out[i], out[i + 1] = out[i + 1], out[i]
    return out


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("async_check", [False, True], ids=["sync", "async"])
def test_scope_index_equals_reference_after_every_arrival(seed, async_check):
    constraints, stream, params = _streams.trial_inputs(seed)
    if async_check:
        stream = _jostle(stream, seed)
    for name in strategy_names():
        checker = ConstraintChecker(constraints)
        strategy = make_strategy(name)
        middleware = Middleware(
            checker,
            strategy,
            use_window=params["use_window"],
            use_delay=params["use_delay"],
            async_check=AsyncCheckConfig(max_lag=3.0) if async_check else None,
        )
        scope = checker.pool_index
        for ctx in stream:
            middleware.receive(ctx)
            assert_scope_current(
                scope, middleware.pool, strategy, middleware.clock.now()
            )
        middleware.flush_uses()
        assert_scope_current(
            scope, middleware.pool, strategy, middleware.clock.now()
        )


def test_drop_bad_checkpoint_restores_the_scope_mid_stream():
    constraints, _, _ = _streams.trial_inputs(3)
    stream = _streams.make_stream(random.Random(3), n=64)
    spec = ShardSpec(
        shard_id=0,
        constraints=tuple(constraints),
        strategy="drop-bad",
        use_window=3,
    )
    batches = [stream[i : i + 8] for i in range(0, len(stream), 8)]

    reference = ShardExecutionState(spec)
    for i, batch in enumerate(batches):
        reference.process_batch(i, batch)
    expected = reference.finish()

    first = ShardExecutionState(spec)
    for i, batch in enumerate(batches[:4]):
        first.process_batch(i, batch)
    strategy = first.pipeline.strategy
    # The checkpoint is taken while used (delivered) contexts are still
    # pooled but out of checking -- the case a plain pool replay would
    # get wrong.
    assert any(
        not strategy.participates_in_checking(c) for c in first.pipeline.pool
    )
    blob = pickle.dumps(first.checkpoint())

    resumed = ShardExecutionState(spec, checkpoint=pickle.loads(blob))
    pipeline = resumed.pipeline
    assert pipeline.resolution.detector.pool_index is pipeline.scope
    now = resumed.driver.clock.now()
    assert_scope_current(pipeline.scope, pipeline.pool, pipeline.strategy, now)
    for i, batch in enumerate(batches):
        resumed.process_batch(i, batch)  # replayed prefix is a no-op
        now = resumed.driver.clock.now()
        assert_scope_current(
            pipeline.scope, pipeline.pool, pipeline.strategy, now
        )
    actual = resumed.finish()
    assert [c.ctx_id for c in actual.delivered] == [
        c.ctx_id for c in expected.delivered
    ]
    assert [c.ctx_id for c in actual.discarded] == [
        c.ctx_id for c in expected.discarded
    ]


def _chain_constraint() -> Constraint:
    return Constraint(
        name="loc-badge",
        formula=forall(
            "a",
            "loc",
            forall(
                "b",
                "badge",
                pred("same_subject", "a", "b").implies(
                    pred("within_time", "a", "b", 1e9)
                ),
            ),
        ),
    )


class _CountingDropBad(DropBadStrategy):
    def __init__(self) -> None:
        super().__init__()
        self.scope_tests = 0
        self.uses = 0

    def participates_in_checking(self, ctx: Context) -> bool:
        self.scope_tests += 1
        return super().participates_in_checking(ctx)

    def on_context_used(self, ctx: Context, *, now: float = 0.0):
        self.uses += 1
        return super().on_context_used(ctx, now=now)


class TestScopeUpkeep:
    def test_scope_upkeep_is_constant_per_arrival(self):
        """Drop-bad's scope costs one test per arrival and one per use,
        however large the pool grows (used contexts stay pooled)."""
        strategy = _CountingDropBad()
        middleware = Middleware(
            ConstraintChecker([_chain_constraint()]), strategy, use_window=4
        )
        arrivals = 500
        for i in range(arrivals):
            middleware.receive(
                Context(
                    ctx_id=f"c{i}",
                    ctx_type="loc" if i % 2 == 0 else "badge",
                    subject=f"s{i % 5}",
                    value=float(i),
                    timestamp=float(i),
                )
            )
        assert len(middleware.pool) == arrivals
        assert strategy.uses > 0
        assert strategy.scope_tests <= arrivals + strategy.uses

    def test_expired_contexts_excluded_from_scope(self):
        checker = ConstraintChecker(
            [
                Constraint(
                    name="never-together",
                    formula=forall(
                        "a",
                        "loc",
                        forall(
                            "b",
                            "badge",
                            pred("same_subject", "a", "b").implies(
                                pred("within_time", "a", "b", -1.0)
                            ),
                        ),
                    ),
                )
            ]
        )
        middleware = Middleware(checker, make_strategy("drop-latest"))
        stale = Context(
            ctx_id="old", ctx_type="loc", subject="s", value=0,
            timestamp=0.0, lifespan=1.0,
        )
        tick = Context(
            ctx_id="tick", ctx_type="temp", subject="s", value=0,
            timestamp=5.0,
        )
        fresh = Context(
            ctx_id="new", ctx_type="badge", subject="s", value=9,
            timestamp=0.0,
        )
        for ctx in (stale, tick, fresh):
            middleware.receive(ctx)
        # stale expired at t=1; the late fresh arrival is checked at
        # t=5 against a scope that no longer holds it.
        assert middleware.resolution.log.detected == []
        assert middleware.pool.get("new") is not None
        assert middleware.pool.get("old") is None
        assert "old" not in [c.ctx_id for c in checker.pool_index]
