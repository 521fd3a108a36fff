"""Unit tests for the resolution service and its audit log."""

from typing import List, Sequence

import pytest

from repro.core.context import Context
from repro.core.drop_bad import DropBadStrategy
from repro.core.inconsistency import Inconsistency
from repro.core.resolver import (
    InconsistencyDetector,
    ResolutionLog,
    ResolutionService,
)
from repro.core.strategy import make_strategy
from repro.obs import telemetry as telemetry_module
from repro.obs.telemetry import STAGE_HISTOGRAM, Telemetry


class PairDetector(InconsistencyDetector):
    """Toy detector: contexts of the same subject with equal timestamps
    conflict (a 'two places at once' check)."""

    def __init__(self, relevant_types=("location",)):
        self.relevant_types = set(relevant_types)
        self.forgotten: List[str] = []

    def is_relevant(self, ctx: Context) -> bool:
        return ctx.ctx_type in self.relevant_types

    def detect(self, ctx, existing: Sequence[Context], now: float):
        out = []
        for other in existing:
            if (
                other.subject == ctx.subject
                and other.timestamp == ctx.timestamp
                and other.value != ctx.value
            ):
                out.append(
                    Inconsistency(
                        frozenset({ctx, other}), constraint="two-places"
                    )
                )
        return out

    def forget(self, ctx: Context) -> None:
        self.forgotten.append(ctx.ctx_id)


class TestResolutionService:
    def test_clean_addition_is_admitted_and_logged(self, mk):
        service = ResolutionService(PairDetector(), make_strategy("drop-latest"))
        ctx = mk()
        outcome = service.handle_addition(ctx, [], now=0.0)
        assert outcome.admitted == (ctx,)
        assert service.log.added == [ctx]
        assert service.log.detected == []

    def test_conflicting_addition_detected_and_resolved(self, mk):
        service = ResolutionService(PairDetector(), make_strategy("drop-latest"))
        a = mk(ctx_id="a", value=(0.0, 0.0), timestamp=1.0)
        b = mk(ctx_id="b", value=(9.0, 9.0), timestamp=1.0)
        service.handle_addition(a, [], now=1.0)
        outcome = service.handle_addition(b, [a], now=1.0)
        assert len(service.log.detected) == 1
        assert len(outcome.discarded) == 1
        assert service.log.discarded == list(outcome.discarded)

    def test_irrelevant_context_skips_detection(self, mk):
        detector = PairDetector(relevant_types=("location",))
        service = ResolutionService(detector, make_strategy("drop-bad"))
        ctx = mk(ctx_type="temperature")
        outcome = service.handle_addition(ctx, [], now=0.0)
        assert outcome.admitted == (ctx,)
        assert not outcome.buffered

    def test_expired_contexts_excluded_from_scope(self, mk):
        detector = PairDetector()
        service = ResolutionService(detector, make_strategy("drop-latest"))
        stale = mk(ctx_id="old", timestamp=0.0, lifespan=1.0, value=(0, 0))
        fresh = mk(ctx_id="new", timestamp=0.0, value=(9, 9))
        service.handle_addition(stale, [], now=0.0)
        outcome = service.handle_addition(fresh, [stale], now=5.0)
        # stale expired at t=1; no conflict is detected at t=5.
        assert service.log.detected == []
        assert outcome.admitted == (fresh,)

    def test_discarded_contexts_are_forgotten(self, mk):
        detector = PairDetector()
        service = ResolutionService(detector, make_strategy("drop-latest"))
        a = mk(ctx_id="a", value=(0, 0), timestamp=1.0)
        b = mk(ctx_id="b", value=(9, 9), timestamp=1.0)
        service.handle_addition(a, [], now=1.0)
        service.handle_addition(b, [a], now=1.0)
        assert detector.forgotten == ["b"]

    def test_handle_use_logs_delivery(self, mk):
        service = ResolutionService(PairDetector(), make_strategy("drop-bad"))
        ctx = mk()
        service.handle_addition(ctx, [], now=0.0)
        outcome = service.handle_use(ctx, now=1.0)
        assert outcome.delivered
        assert service.log.delivered == [ctx]

    def test_reset_restores_pristine_state(self, mk):
        service = ResolutionService(PairDetector(), make_strategy("drop-bad"))
        ctx = mk()
        service.handle_addition(ctx, [], now=0.0)
        service.reset()
        assert service.log.added == []
        assert len(service.strategy.delta) == 0


class _FakeClock:
    """Stands in for the ``time`` module the stage timers read."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


class _SlowScopeDropBad(DropBadStrategy):
    """Drop-bad whose checking-scope test costs one fake second."""

    def __init__(self, clock: _FakeClock) -> None:
        super().__init__()
        self.clock = clock

    def participates_in_checking(self, ctx: Context) -> bool:
        self.clock.now += 1.0
        return super().participates_in_checking(ctx)


class TestStageBoundaries:
    def test_check_timer_covers_detection_only(self, mk, monkeypatch):
        """Building the checking scope is not charged to ``check``."""
        clock = _FakeClock()
        monkeypatch.setattr(telemetry_module, "time", clock)
        telemetry = Telemetry()
        service = ResolutionService(PairDetector(), _SlowScopeDropBad(clock))
        service.telemetry = telemetry
        scope = [mk(ctx_id=f"p{i}", timestamp=float(i)) for i in range(5)]
        service.handle_addition(mk(ctx_id="new", timestamp=9.0), scope, now=9.0)

        assert clock.now == 5.0  # the scope test ran once per context
        check = telemetry.registry.histogram(
            STAGE_HISTOGRAM, labels={"stage": "check"}
        )
        assert check.count == 1
        assert check.sum == 0.0


class TestResolutionLog:
    def test_precision_and_survival(self, mk):
        log = ResolutionLog()
        good1 = mk(ctx_id="g1")
        good2 = mk(ctx_id="g2")
        bad1 = mk(ctx_id="b1", corrupted=True)
        bad2 = mk(ctx_id="b2", corrupted=True)
        log.added.extend([good1, good2, bad1, bad2])
        log.discarded.extend([bad1, good1])
        assert log.discarded_corrupted() == 1
        assert log.discarded_expected() == 1
        assert log.removal_precision() == pytest.approx(0.5)
        assert log.survival_rate() == pytest.approx(0.5)

    def test_empty_log_degenerates_to_perfect(self):
        log = ResolutionLog()
        assert log.removal_precision() == 1.0
        assert log.survival_rate() == 1.0
