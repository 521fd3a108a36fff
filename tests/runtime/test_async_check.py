"""Asynchronous checking mode: the snapshot-window ingress end to end.

Three layers:

* unit semantics of :class:`~repro.runtime.snapshot.SnapshotIngress`
  (watermark releases, stale/duplicate refusals, forced releases,
  checkpoint round-trip);
* the driver behind the ingress -- a perturbed stream resolves exactly
  like its timestamp-sorted original as long as nothing is refused,
  because the ingress's released stream *is* the sorted stream;
* mode-off equivalence -- constructing the runtime with
  ``async_check=None`` (the default everywhere) is byte-identical to
  the recorded goldens; the full 220-stream pin lives in
  ``test_golden_equivalence.py``, this spot-checks the explicit kwarg.
"""

from __future__ import annotations

import json
import pathlib
import random

import pytest

from repro.constraints.checker import ConstraintChecker
from repro.core.context import Context
from repro.core.strategy import make_strategy
from repro.middleware.bus import ContextDuplicate, ContextStale
from repro.middleware.manager import Middleware
from repro.runtime import AsyncCheckConfig, SnapshotIngress
from repro.sensing.perturb import delay_stream, duplicate_stream

from . import _streams

pytestmark = pytest.mark.async_check

GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"
GENERATED = json.loads((GOLDEN_DIR / "generated_streams.json").read_text())


def ctx(ctx_id: str, ts: float, lifespan: float = float("inf")) -> Context:
    return Context(
        ctx_id=ctx_id,
        ctx_type="loc",
        subject="s",
        value=0.0,
        timestamp=ts,
        lifespan=lifespan,
    )


class TestAsyncCheckConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            AsyncCheckConfig(max_lag=-1.0)
        with pytest.raises(ValueError):
            AsyncCheckConfig(max_buffer=0)
        with pytest.raises(ValueError):
            AsyncCheckConfig(dedup_window=0)

    def test_document_round_trip(self):
        config = AsyncCheckConfig(max_lag=3.5, max_buffer=7, dedup_window=11)
        assert AsyncCheckConfig.from_document(config.to_document()) == config


class TestSnapshotIngress:
    def test_holds_until_watermark_then_releases_sorted(self):
        ingress = SnapshotIngress(AsyncCheckConfig(max_lag=5.0))
        assert ingress.offer(ctx("a", 3.0)).released == ()
        assert ingress.offer(ctx("b", 1.0)).released == ()
        # max_ts 7 -> watermark 2: only the ts=1 context is releasable.
        out = ingress.offer(ctx("c", 7.0))
        assert [c.ctx_id for c in out.released] == ["b"]
        # Advancing to 9 releases ts=3; ts=7 and ts=9 stay buffered.
        out = ingress.offer(ctx("d", 9.0))
        assert [c.ctx_id for c in out.released] == ["a"]
        assert len(ingress) == 2
        assert [c.ctx_id for c in ingress.flush()] == ["c", "d"]
        assert len(ingress) == 0

    def test_stale_below_cursor_refused(self):
        ingress = SnapshotIngress(AsyncCheckConfig(max_lag=1.0))
        ingress.offer(ctx("a", 0.0))
        ingress.offer(ctx("b", 10.0))  # releases a; cursor = 0? no: a<=9
        # cursor is now 0.0 (a released); a ts older than that is stale.
        outcome = ingress.offer(ctx("late", -1.0))
        assert outcome.dropped == "stale"
        assert ingress.stale == 1

    def test_below_watermark_at_or_after_cursor_still_accepted(self):
        ingress = SnapshotIngress(AsyncCheckConfig(max_lag=2.0))
        ingress.offer(ctx("a", 0.0))
        ingress.offer(ctx("b", 10.0))  # watermark 8: releases a
        # ts=5 is far below the watermark but after the cursor (0.0):
        # it must be accepted and released immediately, in order.
        outcome = ingress.offer(ctx("mid", 5.0))
        assert outcome.dropped is None
        assert [c.ctx_id for c in outcome.released] == ["mid"]

    def test_duplicate_refused(self):
        ingress = SnapshotIngress(AsyncCheckConfig())
        ingress.offer(ctx("a", 1.0))
        outcome = ingress.offer(ctx("a", 1.0))
        assert outcome.dropped == "duplicate"
        assert ingress.duplicates == 1

    def test_forced_release_bounds_buffer(self):
        ingress = SnapshotIngress(AsyncCheckConfig(max_lag=100.0, max_buffer=3))
        released = []
        for i in range(6):
            released += ingress.offer(ctx(f"c{i}", float(i))).released
        # Nothing reached the watermark, but the buffer bound forced
        # the oldest out -- in timestamp order.
        assert [c.ctx_id for c in released] == ["c0", "c1", "c2"]
        assert ingress.forced == 3
        assert len(ingress) == 3

    def test_released_stream_is_always_sorted(self):
        rng = random.Random(11)
        ingress = SnapshotIngress(AsyncCheckConfig(max_lag=4.0, max_buffer=8))
        stream = [ctx(f"c{i}", t) for i, t in enumerate(rng.sample(range(100), 60))]
        out = []
        for c in stream:
            out += ingress.offer(c).released
        out += ingress.flush()
        stamps = [c.timestamp for c in out]
        assert stamps == sorted(stamps)
        refused = ingress.stale + ingress.duplicates
        assert len(out) + refused == len(stream)

    def test_snapshot_restore_round_trip(self):
        config = AsyncCheckConfig(max_lag=5.0)
        ingress = SnapshotIngress(config)
        for i, t in enumerate((3.0, 1.0, 9.0)):
            ingress.offer(ctx(f"c{i}", t))
        state = ingress.snapshot()
        clone = SnapshotIngress(config)
        clone.restore(state)
        assert clone.stats() == ingress.stats()
        assert [c.ctx_id for c in clone.flush()] == [
            c.ctx_id for c in ingress.flush()
        ]
        # The dedup memory survives too.
        assert clone.offer(ctx("c0", 99.0)).dropped == "duplicate"


def middleware_run(constraints, stream, *, params, async_check=None):
    middleware = Middleware(
        ConstraintChecker(constraints),
        make_strategy(params["strategy"]),
        use_window=params["use_window"],
        use_delay=params["use_delay"],
        async_check=async_check,
    )
    from repro.middleware.bus import ContextDelivered, ContextDiscarded

    delivered, discarded = [], []
    middleware.bus.subscribe(
        ContextDelivered, lambda e: delivered.append(e.context.ctx_id)
    )
    middleware.bus.subscribe(
        ContextDiscarded, lambda e: discarded.append(e.context.ctx_id)
    )
    middleware.receive_all(stream)
    return delivered, discarded


class TestDriverBehindIngress:
    @pytest.mark.parametrize("seed", range(_streams.N_TRIALS))
    def test_delayed_stream_resolves_like_sorted_original(self, seed):
        """With a window covering the worst delay, a delay-perturbed
        stream produces the recorded decisions of its sorted original:
        the ingress's released stream IS the sorted stream, and its
        runs go through the same arrival loop as a synchronous batch."""
        golden = GENERATED["trials"][seed]
        constraints, stream, params = _streams.trial_inputs(seed)
        rng = random.Random(seed ^ 0xDE1A)
        perturbed = delay_stream(stream, rng, max_delay=4.0)
        got = middleware_run(
            constraints,
            perturbed,
            params=params,
            async_check=AsyncCheckConfig(max_lag=10.0),
        )
        assert got == (golden["delivered"], golden["discarded"])

    def test_duplicates_refused_and_decisions_preserved(self):
        constraints, stream, params = _streams.trial_inputs(3)
        rng = random.Random(99)
        perturbed = duplicate_stream(stream, rng, p=0.3)
        assert len(perturbed) > len(stream)
        middleware = Middleware(
            ConstraintChecker(constraints),
            make_strategy(params["strategy"]),
            use_window=params["use_window"],
            use_delay=params["use_delay"],
            async_check=AsyncCheckConfig(max_lag=10.0),
        )
        refusals = []
        middleware.bus.subscribe(
            ContextDuplicate, lambda e: refusals.append(e.context.ctx_id)
        )
        middleware.receive_all(perturbed)
        assert len(refusals) == len(perturbed) - len(stream)
        want = middleware_run(constraints, stream, params=params)
        got = middleware_run(
            constraints,
            perturbed,
            params=params,
            async_check=AsyncCheckConfig(max_lag=10.0),
        )
        assert got == want

    def test_stale_arrival_publishes_event_not_crash(self):
        constraints, _, params = _streams.trial_inputs(0)
        middleware = Middleware(
            ConstraintChecker(constraints),
            make_strategy("drop-latest"),
            use_window=2,
            async_check=AsyncCheckConfig(max_lag=1.0),
        )
        stale = []
        middleware.bus.subscribe(
            ContextStale, lambda e: stale.append(e.context.ctx_id)
        )
        middleware.receive(ctx("a", 0.0))
        middleware.receive(ctx("b", 10.0))  # watermark 9 -> a released
        middleware.receive(ctx("ghost", -5.0))  # behind the cursor
        assert stale == ["ghost"]

    def test_ingress_stats_exposed_by_middleware(self):
        middleware = Middleware(
            ConstraintChecker([]),
            make_strategy("drop-latest"),
            use_window=1,
            async_check=AsyncCheckConfig(max_lag=2.0),
        )
        assert middleware.ingress is not None
        middleware.receive(ctx("a", 1.0))
        assert middleware.ingress.stats()["buffered"] == 1.0
        middleware.flush_uses()
        assert middleware.ingress.stats()["buffered"] == 0.0

    def test_mode_off_has_no_ingress(self):
        middleware = Middleware(
            ConstraintChecker([]), make_strategy("drop-latest"), use_window=1
        )
        assert middleware.ingress is None


class TestModeOffGoldenEquivalence:
    """``async_check=None`` must stay byte-identical to the goldens."""

    @pytest.mark.parametrize("seed", [0, 7, 33, 101, 219])
    def test_explicit_none_matches_golden(self, seed):
        constraints, stream, params = _streams.trial_inputs(seed)
        delivered, discarded = middleware_run(
            constraints, stream, params=params, async_check=None
        )
        assert (
            _streams.signature(delivered, discarded)
            == GENERATED["trials"][seed]["signature"]
        )
