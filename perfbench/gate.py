"""Correctness gate: every context gets exactly one correct verdict.

A timed run is only worth reporting if the program decided correctly.
The gate compares the verdict trail of a timed run with the trail of a
reference host run outside the timing, by the contract of the mode
under test:

* ``shared-scope`` -- the inline engine against ``Middleware`` on the
  interpreter, per-context path: pointwise order.
* ``many-scopes`` -- process mode against local mode with
  ``batch_kernels=False``: event for event, in the merged order.
* ``serve-open-loop`` -- the served session against a fresh inline
  ``run()`` over the admitted contexts, in server order.

A context fails when it does not get exactly one deciding verdict, when
its own verdicts differ from the reference's, or when it sits where the
two trails first disagree on order.  Contexts attempted but never seen
by the host (shed, refused, lost) fail too.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.middleware.bus import (
    ContextAdmitted,
    ContextBuffered,
    ContextDelivered,
    ContextDiscarded,
    ContextDuplicate,
    ContextExpired,
    ContextMarkedBad,
    ContextStale,
    Event,
)

__all__ = ["GateResult", "check_verdicts", "verdict_trail"]

VERDICT_EVENTS = (
    ContextAdmitted,
    ContextBuffered,
    ContextDelivered,
    ContextDiscarded,
    ContextDuplicate,
    ContextExpired,
    ContextMarkedBad,
    ContextStale,
)

#: Verdicts that decide a context.  ``ContextExpired`` decides only a
#: context that expired undecided: a delivered context stays in the pool
#: for later checks and expires afterwards.
DECISIONS = frozenset(
    cls.__name__
    for cls in (ContextDelivered, ContextDiscarded, ContextDuplicate, ContextStale)
)
EXPIRED = ContextExpired.__name__

Verdict = Tuple[str, str]


def verdict_trail(events: Iterable[Event]) -> List[Verdict]:
    """``(event kind, ctx_id)`` for every verdict event, in order."""
    return [
        (type(event).__name__, event.context.ctx_id)
        for event in events
        if isinstance(event, VERDICT_EVENTS)
    ]


@dataclass
class GateResult:
    attempted: int
    failed_ids: List[str] = field(default_factory=list)
    first_mismatch: Optional[str] = None

    @property
    def failed(self) -> int:
        # A disagreement that names no attempted context still fails.
        return max(len(self.failed_ids), int(self.first_mismatch is not None))

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _per_context(trail: Sequence[Verdict]) -> Dict[str, List[str]]:
    kinds: Dict[str, List[str]] = defaultdict(list)
    for kind, ctx_id in trail:
        kinds[ctx_id].append(kind)
    return kinds


def check_verdicts(
    attempted_ids: Sequence[str],
    trail: Sequence[Verdict],
    reference: Sequence[Verdict],
) -> GateResult:
    """Gate one run's verdict ``trail`` against the ``reference``."""
    got = _per_context(trail)
    want = _per_context(reference)
    failed = set()
    first: Optional[str] = None
    for ctx_id in attempted_ids:
        kinds = got.get(ctx_id, [])
        terminals = sum(1 for kind in kinds if kind in DECISIONS) or int(
            EXPIRED in kinds
        )
        if terminals != 1 or kinds != want.get(ctx_id, []):
            failed.add(ctx_id)
            if first is None:
                first = (
                    f"{ctx_id}: got {kinds or 'no verdict'}, reference "
                    f"{want.get(ctx_id) or 'no verdict'}"
                )
    if list(trail) != list(reference):
        for index, (a, b) in enumerate(zip(trail, reference)):
            if a != b:
                failed.update((a[1], b[1]))
                if first is None:
                    first = f"order differs at verdict {index}: {a} vs {b}"
                break
        else:
            if first is None:
                first = (
                    f"trail length {len(trail)} vs reference {len(reference)}"
                )
    attempted = set(attempted_ids)
    return GateResult(
        attempted=len(attempted_ids),
        failed_ids=sorted(failed & attempted),
        first_mismatch=first,
    )
