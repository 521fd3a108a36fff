"""The resolution service: detector + strategy glued to a context pool.

:class:`ResolutionService` is the middleware plug-in module of the
paper's experimental setup ("an inconsistency resolution module was
implemented as a plug-in service ... invoked whenever Cabot received
new contexts").  It wires together:

* an :class:`InconsistencyDetector` (implemented by the constraint
  checker in :mod:`repro.constraints`, or by anything satisfying the
  protocol), and
* a :class:`~repro.core.strategy.ResolutionStrategy`.

The service is deliberately ignorant of how contexts are produced or
consumed; the middleware manager drives it with the two context-change
events and applies the outcomes to its pool.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .context import Context
from .inconsistency import Inconsistency
from .strategy import AddOutcome, ResolutionStrategy, UseOutcome

__all__ = ["InconsistencyDetector", "ResolutionService", "ResolutionLog"]


class InconsistencyDetector(ABC):
    """Detects inconsistencies a new context causes with existing ones."""

    @abstractmethod
    def is_relevant(self, ctx: Context) -> bool:
        """Whether any consistency constraint mentions ``ctx``'s type."""

    @abstractmethod
    def detect(
        self, ctx: Context, existing: Sequence[Context], now: float
    ) -> List[Inconsistency]:
        """Inconsistencies caused by adding ``ctx`` to ``existing``.

        ``existing`` is the set of contexts that still participate in
        checking (per the active strategy's checking scope).  Only
        inconsistencies that involve ``ctx`` should be returned: the
        check is incremental, triggered by the addition change.
        """

    @abstractmethod
    def forget(self, ctx: Context) -> None:
        """Drop any cached evaluation state for ``ctx``.

        Called when a context is discarded or leaves checking scope so
        incremental detectors do not leak.
        """


@dataclass
class ResolutionLog:
    """Audit trail of the resolution decisions of one run.

    The experiment metrics (survival rate, removal precision, rule
    satisfaction) are computed from this log together with the
    contexts' ground-truth flags.
    """

    added: List[Context] = field(default_factory=list)
    discarded: List[Context] = field(default_factory=list)
    delivered: List[Context] = field(default_factory=list)
    detected: List[Inconsistency] = field(default_factory=list)
    marked_bad: List[Context] = field(default_factory=list)

    def discarded_corrupted(self) -> int:
        """Discarded contexts that were indeed corrupted (true positives)."""
        return sum(1 for c in self.discarded if c.corrupted)

    def discarded_expected(self) -> int:
        """Discarded contexts that were actually correct (false positives)."""
        return sum(1 for c in self.discarded if not c.corrupted)

    def removal_precision(self) -> float:
        """Fraction of discarded contexts that were corrupted.

        The Section 5.2 case study reports this as "removal precision"
        (84.7% for drop-bad on Landmarc).  Returns 1.0 when nothing was
        discarded.
        """
        if not self.discarded:
            return 1.0
        return self.discarded_corrupted() / len(self.discarded)

    def survival_rate(self) -> float:
        """Fraction of expected contexts that were NOT discarded.

        The Section 5.2 case study reports this as "location context
        survival rate" (96.5% for drop-bad on Landmarc).
        """
        expected_total = sum(1 for c in self.added if not c.corrupted)
        if expected_total == 0:
            return 1.0
        return 1.0 - self.discarded_expected() / expected_total


class ResolutionService:
    """Hosts one strategy and one detector over a live context pool.

    Parameters
    ----------
    detector:
        The inconsistency detector (typically a
        :class:`repro.constraints.checker.ConstraintChecker`).
    strategy:
        The resolution strategy plug-in.
    """

    def __init__(
        self, detector: InconsistencyDetector, strategy: ResolutionStrategy
    ) -> None:
        self.detector = detector
        self.strategy = strategy
        self.log = ResolutionLog()
        #: Telemetry bundle (repro.obs); hosts swap in a live one via
        #: ``Middleware.attach_telemetry`` / ``ShardPipeline``.
        from ..obs.telemetry import NULL_TELEMETRY

        self.telemetry = NULL_TELEMETRY

    @property
    def telemetry(self):
        return self._telemetry

    @telemetry.setter
    def telemetry(self, telemetry) -> None:
        # Rebind the reusable stage timers whenever the bundle is
        # swapped -- the per-addition hot path re-enters these instead
        # of paying a stage() call each time.
        self._telemetry = telemetry
        self._stage_check = telemetry.stage_timer("check")
        self._stage_resolve = telemetry.stage_timer("resolve")

    @property
    def stage_check(self):
        """The reusable ``check`` stage timer (context manager).

        The batched detection planner (:mod:`repro.runtime.batch`) times
        its ``detect_batch`` calls through this, so checking latency
        lands in the same ``check`` stage histogram whether verdicts
        are computed per context or per batch.
        """
        return self._stage_check

    def handle_addition(
        self,
        ctx: Context,
        scope: Sequence[Context],
        now: float,
        detected: Optional[List[Inconsistency]] = None,
    ) -> AddOutcome:
        """Process a context addition change.

        ``scope`` is the checking scope ``ctx`` is checked against: the
        live contexts that participate in checking (excluding ``ctx``),
        as its host keeps them -- the runtime pipeline passes its
        maintained scope index.  ``detected``, when not ``None``, is a
        precomputed detection verdict for exactly this addition (the
        batched detection path of :mod:`repro.runtime.batch` plans
        these through ``detect_batch``): the detector is not consulted,
        but logging, strategy dispatch and outcome handling are
        unchanged, so the decision trail is byte-identical to an inline
        detect.
        """
        telemetry = self._telemetry
        self.log.added.append(ctx)
        relevant = self.detector.is_relevant(ctx)
        new_inconsistencies: List[Inconsistency] = []
        if relevant:
            if detected is not None:
                new_inconsistencies = detected
            else:
                with self._stage_check:
                    new_inconsistencies = self.detector.detect(ctx, scope, now)
            self.log.detected.extend(new_inconsistencies)
        with self._stage_resolve:
            outcome = self.strategy.on_context_added(
                ctx, new_inconsistencies, relevant=relevant, now=now
            )
        for victim in outcome.discarded:
            self.detector.forget(victim)
        self.log.discarded.extend(outcome.discarded)
        if outcome.discarded:
            telemetry.count(
                "strategy_discards_total",
                len(outcome.discarded),
                labels={"strategy": self.strategy.name},
                help="Contexts discarded, by deciding strategy",
            )
        return outcome

    def handle_use(self, ctx: Context, now: float) -> UseOutcome:
        """Process a context deletion change (application uses ``ctx``)."""
        telemetry = self._telemetry
        with self._stage_resolve:
            outcome = self.strategy.on_context_used(ctx, now=now)
        for victim in outcome.discarded:
            self.detector.forget(victim)
        self.log.discarded.extend(outcome.discarded)
        self.log.marked_bad.extend(outcome.newly_bad)
        if outcome.discarded:
            telemetry.count(
                "strategy_discards_total",
                len(outcome.discarded),
                labels={"strategy": self.strategy.name},
                help="Contexts discarded, by deciding strategy",
            )
        if outcome.delivered:
            self.log.delivered.append(ctx)
        return outcome

    def reset(self) -> None:
        """Clear strategy state and the audit log for a fresh run."""
        self.strategy.reset()
        self.log = ResolutionLog()
