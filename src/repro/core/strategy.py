"""Resolution strategy framework.

A resolution strategy is a middleware plug-in that reacts to the two
context-change events of the paper's Figure 6:

* a **context addition change** -- a new context has been recognized
  and checked against the consistency constraints; the strategy learns
  which new inconsistencies (if any) the context caused;
* a **context deletion change** -- a buffered context is about to be
  *used* by an application, forcing a decision about its correctness.

Concrete strategies (drop-latest, drop-all, drop-random,
user-specified, drop-bad, and the OPT-R oracle) live in sibling
modules and are reachable through :func:`make_strategy`.

The strategy owns the life-cycle states of all contexts it has seen
(:class:`~repro.core.lifecycle.LifecycleTracker`) and, for deferred
strategies, the tracked inconsistency set Δ
(:class:`~repro.core.inconsistency.TrackedInconsistencies`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .context import Context, ContextState
from .inconsistency import Inconsistency, TrackedInconsistencies
from .lifecycle import LifecycleTracker

__all__ = [
    "AddOutcome",
    "UseOutcome",
    "ResolutionStrategy",
    "ImmediateStrategy",
    "register_strategy",
    "make_strategy",
    "strategy_names",
]


@dataclass(frozen=True)
class AddOutcome:
    """Effect of handling a context addition change.

    Attributes
    ----------
    admitted:
        Contexts that became ``consistent`` and immediately available
        to applications as a result of this addition.
    discarded:
        Contexts judged ``inconsistent`` now; the middleware must
        remove them from the context pool.
    buffered:
        ``True`` if the new context was held back for a deferred
        decision (drop-bad keeps relevant contexts in a buffer until
        they are used).
    """

    admitted: Tuple[Context, ...] = ()
    discarded: Tuple[Context, ...] = ()
    buffered: bool = False


@dataclass(frozen=True)
class UseOutcome:
    """Effect of handling a context deletion (use) change.

    Attributes
    ----------
    delivered:
        Whether the used context was judged consistent and handed to
        the application.
    discarded:
        Contexts judged ``inconsistent`` now (usually the used context
        itself when ``delivered`` is ``False``).
    newly_bad:
        Contexts marked ``bad`` while resolving the used context's
        inconsistencies (drop-bad only); they stay buffered and will be
        discarded when eventually used.
    """

    delivered: bool
    discarded: Tuple[Context, ...] = ()
    newly_bad: Tuple[Context, ...] = ()


class ResolutionStrategy(ABC):
    """Base class for automated context inconsistency resolution.

    Subclasses implement :meth:`on_context_added` and
    :meth:`on_context_used`.  The base class provides the life-cycle
    tracker, the tracked inconsistency set, and shared bookkeeping.
    """

    #: Registry name; subclasses must override.
    name: str = "abstract"

    #: Life-cycle states whose contexts still participate in
    #: consistency checking.  Immediate strategies check new contexts
    #: against the admitted (consistent) collection; drop-bad checks
    #: against the buffer (undecided/bad) because a used context is
    #: "removed from the checking of its involved inconsistencies"
    #: (Section 3.2).
    checking_states: FrozenSet[ContextState] = frozenset(
        {ContextState.CONSISTENT, ContextState.UNDECIDED, ContextState.BAD}
    )

    def __init__(self) -> None:
        self.lifecycle = LifecycleTracker()
        self.delta = TrackedInconsistencies()
        #: Total inconsistencies ever reported to this strategy.
        self.inconsistencies_seen = 0

    # -- event handlers ----------------------------------------------------

    @abstractmethod
    def on_context_added(
        self,
        ctx: Context,
        new_inconsistencies: Sequence[Inconsistency],
        *,
        relevant: bool = True,
        now: float = 0.0,
    ) -> AddOutcome:
        """Handle a context addition change.

        ``relevant`` is ``False`` when the context's type is not
        mentioned by any consistency constraint; such contexts are set
        ``consistent`` directly (Figure 7, part 1).
        """

    @abstractmethod
    def on_context_used(self, ctx: Context, *, now: float = 0.0) -> UseOutcome:
        """Handle a context deletion change (the context is being used)."""

    # -- shared helpers ------------------------------------------------------

    def participates_in_checking(self, ctx: Context) -> bool:
        """Whether ``ctx`` should still be checked against new contexts."""
        if not self.lifecycle.known(ctx):
            return True
        return self.lifecycle.state_of(ctx) in self.checking_states

    def state_of(self, ctx: Context) -> ContextState:
        """Current life-cycle state of ``ctx``."""
        return self.lifecycle.state_of(ctx)

    def reset(self) -> None:
        """Forget all per-run state (for reuse across experiment groups)."""
        self.lifecycle = LifecycleTracker()
        self.delta = TrackedInconsistencies()
        self.inconsistencies_seen = 0

    def _admit(self, ctx: Context, now: float) -> None:
        self.lifecycle.set_state(ctx, ContextState.CONSISTENT, now)

    def _discard(self, ctx: Context, now: float) -> None:
        self.lifecycle.set_state(ctx, ContextState.INCONSISTENT, now)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ImmediateStrategy(ResolutionStrategy):
    """Base for strategies that resolve every inconsistency on detection.

    Drop-latest, drop-all, drop-random, the user-specified policy and
    the OPT-R oracle all share this shape: when a new context causes
    inconsistencies, victims are chosen and discarded *immediately*;
    whatever survives is admitted as consistent straight away.

    Subclasses implement :meth:`choose_victims`.
    """

    @abstractmethod
    def choose_victims(
        self, ctx: Context, inconsistency: Inconsistency
    ) -> Iterable[Context]:
        """Contexts to discard to resolve ``inconsistency``.

        ``ctx`` is the newly added context that triggered detection.
        """

    def on_context_added(
        self,
        ctx: Context,
        new_inconsistencies: Sequence[Inconsistency],
        *,
        relevant: bool = True,
        now: float = 0.0,
    ) -> AddOutcome:
        self.lifecycle.register(ctx, now)
        discarded: List[Context] = []
        discarded_ids: Set[str] = set()
        for inconsistency in new_inconsistencies:
            # An inconsistency involving an already-discarded context
            # has vanished (e.g. drop-latest scenario A: once d3 is
            # gone, (d3, d4) never occurs).
            if any(c.ctx_id in discarded_ids for c in inconsistency.contexts):
                continue
            if any(
                self.lifecycle.known(c)
                and self.state_of(c) == ContextState.INCONSISTENT
                for c in inconsistency.contexts
            ):
                continue
            self.inconsistencies_seen += 1
            for victim in self.choose_victims(ctx, inconsistency):
                if victim.ctx_id in discarded_ids:
                    continue
                self.lifecycle.register(victim, now)
                self._discard(victim, now)
                discarded.append(victim)
                discarded_ids.add(victim.ctx_id)
        admitted: Tuple[Context, ...] = ()
        if ctx.ctx_id not in discarded_ids:
            self._admit(ctx, now)
            admitted = (ctx,)
        return AddOutcome(admitted=admitted, discarded=tuple(discarded))

    def on_context_used(self, ctx: Context, *, now: float = 0.0) -> UseOutcome:
        """Immediate strategies decided at addition time; just report."""
        if not self.lifecycle.known(ctx):
            # Context bypassed the strategy (e.g. injected directly);
            # treat as consistent.
            self.lifecycle.register(ctx, now)
            self._admit(ctx, now)
            return UseOutcome(delivered=True)
        delivered = self.state_of(ctx) == ContextState.CONSISTENT
        return UseOutcome(delivered=delivered)


# -- registry ----------------------------------------------------------------

_REGISTRY: Dict[str, Callable[..., ResolutionStrategy]] = {}


def register_strategy(
    name: str,
) -> Callable[[Callable[..., ResolutionStrategy]], Callable[..., ResolutionStrategy]]:
    """Class decorator registering a strategy factory under ``name``."""

    def decorator(
        factory: Callable[..., ResolutionStrategy]
    ) -> Callable[..., ResolutionStrategy]:
        if name in _REGISTRY:
            raise ValueError(f"strategy {name!r} already registered")
        _REGISTRY[name] = factory
        return factory

    return decorator


def make_strategy(name: str, **kwargs: object) -> ResolutionStrategy:
    """Instantiate a registered strategy by name.

    Recognized names (after importing :mod:`repro.core`):
    ``drop-latest``, ``drop-all``, ``drop-random``, ``user-specified``,
    ``drop-bad``, ``opt-r``.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown strategy {name!r}; known: {known}")
    return factory(**kwargs)


def strategy_names() -> List[str]:
    """All registered strategy names, sorted."""
    return sorted(_REGISTRY)
