"""Outside-in tracer: spans around calls into the program's layers.

The benchmark measures the program without changing it.  For a traced
run it replaces public functions and methods of the ``repro`` layers
with thin wrappers (:meth:`Tracer.wrap`), runs the workload, and puts
the originals back (:meth:`Tracer.restore`).  Each wrapped call leaves
one span ``[name, start, end, parent]`` in memory; the parent is the
span that was open when the call began, so nesting follows the call
stack.  Spans are written out once, at the end (:meth:`Tracer.dump`).

A layer's *self* time is its spans' duration minus the time covered by
their child spans.  The self times of all spans plus the untraced gaps
(wall time outside any top-level span) must add back up to the wall
time; :meth:`Tracer.table` checks that within 5%.

Wrappers only trace synchronous calls on one thread.  Coroutines are
never wrapped: their duration would include time spent suspended.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LayerRow", "Tracer", "TraceTable"]

#: Largest accepted |sum of self times + gaps - wall| / wall.
SUM_TO_WALL_TOLERANCE = 0.05

Hook = Callable[[tuple, dict, Any], None]
BeforeHook = Callable[[tuple, dict], None]


@dataclass
class LayerRow:
    name: str
    count: int
    total_s: float
    self_s: float
    share: float


@dataclass
class TraceTable:
    rows: List[LayerRow]
    wall_s: float
    gap_s: float
    sum_to_wall_error: float

    @property
    def ok(self) -> bool:
        return self.sum_to_wall_error <= SUM_TO_WALL_TOLERANCE

    def row(self, name: str) -> LayerRow:
        for row in self.rows:
            if row.name == name:
                return row
        return LayerRow(name, 0, 0.0, 0.0, 0.0)

    def format(self) -> str:
        lines = [
            f"{'span':<28} {'count':>9} {'total_s':>10} {'self_s':>10} "
            f"{'share':>7}"
        ]
        for row in sorted(self.rows, key=lambda r: -r.self_s):
            lines.append(
                f"{row.name:<28} {row.count:>9} {row.total_s:>10.4f} "
                f"{row.self_s:>10.4f} {row.share:>7.1%}"
            )
        lines.append(
            f"{'(untraced gaps)':<28} {'':>9} {'':>10} {self.gap_s:>10.4f} "
            f"{self.gap_s / self.wall_s if self.wall_s else 0.0:>7.1%}"
        )
        lines.append(
            f"wall {self.wall_s:.4f} s; self + gaps vs wall error "
            f"{self.sum_to_wall_error:.2%} (limit "
            f"{SUM_TO_WALL_TOLERANCE:.0%})"
        )
        return "\n".join(lines)


class Tracer:
    """Span recorder plus the monkey-patching that feeds it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``[name, start, end, parent_index]`` per wrapped call.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Named tallies kept by the wrappers' hooks.
        self.counters: Dict[str, float] = defaultdict(float)
        self.maxima: Dict[str, float] = defaultdict(float)
        self._patches: List[Tuple[Any, str, bool, Any]] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    def traced(
        self,
        name: str,
        fn: Callable,
        hook: Optional[Hook] = None,
        before: Optional[BeforeHook] = None,
    ):
        """``fn`` wrapped so each call leaves a span named ``name``;
        ``before(args, kwargs)`` runs before the span opens and
        ``hook(args, kwargs, result)`` after it closes."""
        spans = self.spans
        stack = self._stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        hook: Optional[Hook] = None,
        before: Optional[BeforeHook] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or module attribute, possibly
        inherited) with a traced version until :meth:`restore`."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace {owner!r}.{attr}: descriptor")
        self._patches.append((owner, attr, own, original))
        setattr(owner, attr, self.traced(name, original, hook, before))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, own, original = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- analysis ------------------------------------------------------------

    def table(self, wall_s: float) -> TraceTable:
        """Per-span-name count, total, self and share of ``wall_s``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        top_level = 0.0
        for name, start, end, parent in spans:
            duration = end - start
            if parent < 0:
                top_level += duration
            else:
                child_time[parent] += duration
        count: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        self_time: Dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(spans):
            duration = end - start
            count[name] += 1
            total[name] += duration
            self_time[name] += duration - child_time[index]
        gap = wall_s - top_level
        self_sum = sum(self_time.values())
        error = abs(self_sum + gap - wall_s) / wall_s if wall_s > 0 else 0.0
        if gap < 0:
            # Top-level spans cannot cover more than the wall they ran in.
            error = max(error, -gap / wall_s if wall_s > 0 else 1.0)
        rows = [
            LayerRow(
                name,
                count[name],
                total[name],
                self_time[name],
                self_time[name] / wall_s if wall_s > 0 else 0.0,
            )
            for name in count
        ]
        return TraceTable(rows, wall_s, gap, error)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines ``[name, start, end, parent]``."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, separators=(",", ":")))
                handle.write("\n")
