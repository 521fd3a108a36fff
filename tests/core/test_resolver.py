"""Unit tests for the resolution service and its audit log."""

from typing import List, Sequence

import pytest

from repro.core.context import Context
from repro.core.inconsistency import Inconsistency
from repro.core.resolver import (
    InconsistencyDetector,
    ResolutionLog,
    ResolutionService,
)
from repro.core.strategy import make_strategy


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
