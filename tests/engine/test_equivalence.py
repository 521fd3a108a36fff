"""Decision equivalence: sharded engine vs single-pool middleware.

The engine's whole claim is that sharding is *transparent*: for every
deterministic strategy, every stream and every use-window kind, the
sharded engine discards and delivers exactly the contexts the
single-pool :class:`Middleware` would.  This module checks that claim
property-style on hundreds of randomized (stream, constraint-set,
strategy, window) instances.

``drop-random`` is excluded by design: the per-shard RNGs draw in a
different order than one global RNG, so its decisions are only
distributionally -- not pointwise -- equivalent.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constraints.checker import ConstraintChecker
from repro.constraints.parser import parse_constraint
from repro.core.context import Context
from repro.core.strategy import make_strategy
from repro.engine import EngineConfig, ShardedEngine
from repro.middleware.bus import ContextDelivered, ContextDiscarded
from repro.middleware.manager import Middleware

TYPES = ("loc", "badge", "rfid", "temp", "free1", "free2")
SUBJECTS = ("s1", "s2", "s3")
STRATEGIES = ("drop-latest", "drop-all", "drop-bad", "opt-r")
LIFESPANS = (float("inf"), 5.0, 12.0)


def make_constraints(rng):
    """Two independent scope groups with randomized tightness."""
    constraints = []
    for group, (t1, t2) in enumerate((("loc", "badge"), ("rfid", "temp"))):
        for i in range(rng.randint(1, 2)):
            bound = rng.choice((3.0, 5.0))
            constraints.append(
                parse_constraint(
                    f"g{group}c{i}",
                    f"forall a in {t1}, forall b in {t2} : "
                    f"same_subject(a, b) implies within_time(a, b, {bound})",
                )
            )
    return constraints


def make_stream(rng, n=40, lifespans=LIFESPANS):
    """A timestamp-sorted stream mixing constrained/unconstrained types."""
    contexts = []
    t = 0.0
    for i in range(n):
        t += rng.random() * 2.0
        contexts.append(
            Context(
                ctx_id=f"c{i}",
                ctx_type=rng.choice(TYPES),
                subject=rng.choice(SUBJECTS),
                value=float(i),
                timestamp=t,
                lifespan=rng.choice(lifespans),
                corrupted=rng.random() < 0.15,
            )
        )
    return contexts


def reference_decisions(constraints, strategy_name, stream, *, use_window,
                        use_delay):
    """Run the single-pool middleware; returns (delivered, discarded) ids."""
    middleware = Middleware(
        ConstraintChecker(constraints),
        make_strategy(strategy_name),
        use_window=use_window,
        use_delay=use_delay,
    )
    delivered, discarded = [], []
    middleware.bus.subscribe(
        ContextDelivered, lambda e: delivered.append(e.context.ctx_id)
    )
    middleware.bus.subscribe(
        ContextDiscarded, lambda e: discarded.append(e.context.ctx_id)
    )
    middleware.receive_all(stream)
    return delivered, discarded


def engine_decisions(constraints, strategy_name, stream, *, shards, mode,
                     use_window, use_delay):
    engine = ShardedEngine(
        constraints,
        strategy=strategy_name,
        config=EngineConfig(
            shards=shards,
            mode=mode,
            use_window=use_window,
            use_delay=use_delay,
        ),
    )
    result = engine.run(stream)
    return result.delivered_ids, result.discarded_ids


def run_trial(seed, *, shards=2, mode="inline", n=40):
    rng = random.Random(seed)
    constraints = make_constraints(rng)
    stream = make_stream(rng, n=n)
    strategy_name = STRATEGIES[seed % len(STRATEGIES)]
    if seed % 2:
        use_window, use_delay = 4, rng.choice((0.0, 2.0, 6.0))
    else:
        use_window, use_delay = seed % 7, None
    expected = reference_decisions(
        constraints, strategy_name, stream,
        use_window=use_window, use_delay=use_delay,
    )
    actual = engine_decisions(
        constraints, strategy_name, stream,
        shards=shards, mode=mode,
        use_window=use_window, use_delay=use_delay,
    )
    assert actual == expected, (
        f"decision mismatch (seed={seed}, strategy={strategy_name}, "
        f"window={use_window}, delay={use_delay}): "
        f"engine {actual} != middleware {expected}"
    )


class TestInlineEquivalence:
    """Inline mode is pointwise decision-identical for both window kinds."""

    @pytest.mark.parametrize("block", range(10))
    def test_random_streams(self, block):
        # 10 blocks x 20 seeds = 200 random (stream, constraints,
        # strategy, window) instances -- the acceptance floor.
        for seed in range(block * 20, block * 20 + 20):
            run_trial(seed, shards=2)

    @pytest.mark.parametrize("shards", [1, 3, 4])
    def test_shard_count_is_transparent(self, shards):
        for seed in (3, 8, 13, 22):
            run_trial(seed, shards=shards)

    def test_larger_streams(self):
        for seed in (101, 202):
            run_trial(seed, shards=4, n=120)


class TestLocalModeEquivalence:
    """Shard-local time windows decompose exactly on sorted streams.

    Restricted to non-expiring contexts: the shard-local clock only
    advances on shard arrivals, so when a context can expire *between*
    a pending use's due time and the shard's next arrival, the single
    pool (whose clock every arrival advances) may expire it before the
    use drains while the shard drains the use first.  With no expiry
    the shard's state sequence is identical either way -- documented in
    docs/engine.md as the local/process-mode window semantics.
    """

    def test_time_window_decisions_match_as_sets(self):
        for seed in range(0, 40, 2):
            rng = random.Random(seed)
            constraints = make_constraints(rng)
            stream = make_stream(rng, lifespans=(float("inf"),))
            strategy_name = STRATEGIES[seed % len(STRATEGIES)]
            delay = rng.choice((0.0, 2.0, 6.0))
            expected = reference_decisions(
                constraints, strategy_name, stream,
                use_window=4, use_delay=delay,
            )
            actual = engine_decisions(
                constraints, strategy_name, stream,
                shards=2, mode="local", use_window=4, use_delay=delay,
            )
            # Cross-shard interleaving differs from the single pool's
            # use order, but the decision *sets* must coincide.
            assert sorted(actual[0]) == sorted(expected[0])
            assert sorted(actual[1]) == sorted(expected[1])


class TestProcessModeEquivalence:
    def test_process_mode_matches_local_decomposition(self):
        rng = random.Random(7)
        constraints = make_constraints(rng)
        stream = make_stream(rng, n=60)
        local = engine_decisions(
            constraints, "drop-latest", stream,
            shards=2, mode="local", use_window=4, use_delay=3.0,
        )
        process = engine_decisions(
            constraints, "drop-latest", stream,
            shards=2, mode="process", use_window=4, use_delay=3.0,
        )
        # Same decomposition, different executor: results must be
        # identical event-for-event, not just as sets.
        assert process == local


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    shards=st.integers(min_value=1, max_value=4),
    strategy_name=st.sampled_from(STRATEGIES),
    window=st.one_of(
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    ),
)
def test_equivalence_property(seed, shards, strategy_name, window):
    """Hypothesis-driven variant: arbitrary seeds/shards/windows."""
    rng = random.Random(seed)
    constraints = make_constraints(rng)
    stream = make_stream(rng, n=30)
    if isinstance(window, int):
        use_window, use_delay = window, None
    else:
        use_window, use_delay = 4, window
    expected = reference_decisions(
        constraints, strategy_name, stream,
        use_window=use_window, use_delay=use_delay,
    )
    actual = engine_decisions(
        constraints, strategy_name, stream,
        shards=shards, mode="inline",
        use_window=use_window, use_delay=use_delay,
    )
    assert actual == expected


class TestBatchKernelToggle:
    """``EngineConfig.batch_kernels`` must be decision-invisible.

    The batched-detection planner precomputes verdicts through
    ``detect_batch``; turning it off forces the per-context detect on
    the very same runs.  Decisions -- and the reference middleware's --
    must be pointwise identical either way, including on streams with
    finite lifespans (where the planner's per-row expiry cutoff does
    the expiry sweep's job) and duplicated deliveries (which close the
    planned run early).
    """

    def engine_with_toggle(self, constraints, strategy_name, stream, *,
                           batch_kernels, use_window, use_delay):
        engine = ShardedEngine(
            constraints,
            strategy=strategy_name,
            config=EngineConfig(
                shards=2,
                mode="inline",
                use_window=use_window,
                use_delay=use_delay,
                batch_kernels=batch_kernels,
            ),
        )
        result = engine.run(stream)
        return result.delivered_ids, result.discarded_ids

    @pytest.mark.parametrize("seed", [1, 4, 9, 16, 25, 36])
    def test_on_off_decisions_identical(self, seed):
        rng = random.Random(seed)
        constraints = make_constraints(rng)
        stream = make_stream(rng, n=60)
        strategy_name = STRATEGIES[seed % len(STRATEGIES)]
        use_window, use_delay = (4, 2.0) if seed % 2 else (3, None)
        on = self.engine_with_toggle(
            constraints, strategy_name, stream,
            batch_kernels=True, use_window=use_window, use_delay=use_delay,
        )
        off = self.engine_with_toggle(
            constraints, strategy_name, stream,
            batch_kernels=False, use_window=use_window, use_delay=use_delay,
        )
        assert on == off

    def test_duplicate_arrivals_close_the_planned_run(self):
        rng = random.Random(5)
        constraints = make_constraints(rng)
        stream = make_stream(rng, n=40)
        # Re-deliver a prefix mid-stream: live-id duplicates must be
        # refused identically whether or not verdicts were planned.
        stream = stream[:20] + stream[5:10] + stream[20:]
        on = self.engine_with_toggle(
            constraints, "drop-latest", stream,
            batch_kernels=True, use_window=50, use_delay=None,
        )
        off = self.engine_with_toggle(
            constraints, "drop-latest", stream,
            batch_kernels=False, use_window=50, use_delay=None,
        )
        assert on == off

    def test_planner_checks_each_arrival_once(self):
        # Drop-latest discards in the middle of the planned run; the
        # planner must stop each pass at the hit and resume after it,
        # never re-evaluating a row it already checked.
        rng = random.Random(7)
        constraints = make_constraints(rng)
        stream = make_stream(rng, n=120, lifespans=(float("inf"),))
        relevant_types = {"loc", "badge", "rfid", "temp"}
        relevant = sum(ctx.ctx_type in relevant_types for ctx in stream)

        def run(batch_kernels):
            engine = ShardedEngine(
                constraints,
                strategy="drop-latest",
                config=EngineConfig(
                    shards=2,
                    mode="inline",
                    use_window=4,
                    batch_kernels=batch_kernels,
                ),
            )
            return engine.run(stream)

        on = run(True)
        off = run(False)
        assert len(on.discarded_ids) >= 3
        assert (on.delivered_ids, on.discarded_ids) == (
            off.delivered_ids,
            off.discarded_ids,
        )
        detect_calls = sum(s.detect_calls for s in on.metrics.per_shard)
        assert detect_calls == relevant
