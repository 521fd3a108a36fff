"""Equality-join analysis and candidate indexes for detection.

Every constraint in the paper (and in the call-forwarding study) has
the shape ``forall a, b : same_subject(a, b) and ... implies ...``:
the body is *guarded* by equality predicates over context fields, so
bindings whose contexts disagree on those fields satisfy the body
vacuously and can never produce a violation.  The incremental fast
path therefore does not need the full cross product of per-type
extents -- it only needs the candidates that share the new context's
field values.

This module provides the two halves of that optimisation:

* :func:`analyze_joins` statically extracts, from a prefix-universal
  body, the sets of quantified positions that any violating binding
  must agree on (per context field).  The extraction is *sound*: an
  equality predicate ``E`` prunes only when the body is a tautology
  under ``not E`` (see :func:`_guards`), so pruned bindings are
  exactly bindings that cannot violate.
* :class:`CandidateIndex` maintains persistent per-``(type, field)``
  hash buckets over a live checking scope.  It is the scope itself,
  not a mirror of the pool: its one writer adds a context when it
  enters checking and removes it when it leaves (the runtime pipeline
  forwards pool inserts the strategy lets into checking, pool
  removals, and uses that take a context out of checking).
  :class:`EphemeralScopeIndex` provides the same query interface over
  a one-off scope list, for callers that pass plain lists.

Both index classes preserve **arrival order** inside every extent and
bucket, which keeps candidate enumeration -- and therefore violation
order and resolution decisions -- byte-identical to the unindexed
scan.

Pruning keys on the *names* in :data:`EQUALITY_PREDICATES`; replacing
one of those names in a :class:`FunctionRegistry` with a function that
is not field equality (a test double, say) and expecting join pruning
to follow it is unsupported -- disable kernels instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.context import Context
from .ast import Formula, Implies, Not, Or, And, Predicate, Var

__all__ = [
    "EQUALITY_PREDICATES",
    "FIELD_GETTERS",
    "register_equality_predicate",
    "JoinAnalysis",
    "analyze_joins",
    "CandidateIndex",
    "EphemeralScopeIndex",
    "BatchOverlayView",
]

#: Context field name -> extractor.  Values must be hashable.
FIELD_GETTERS: Dict[str, Callable[[Context], object]] = {
    "subject": lambda ctx: ctx.subject,
    "ctx_type": lambda ctx: ctx.ctx_type,
}

#: Predicate name -> the context field it equates (both arguments).
EQUALITY_PREDICATES: Dict[str, str] = {
    "same_subject": "subject",
    "same_type": "ctx_type",
}


def register_equality_predicate(
    name: str, field: str, getter: Callable[[Context], object]
) -> None:
    """Declare that predicate ``name`` means ``getter(a) == getter(b)``.

    Lets applications opt their own binary equality predicates into
    join pruning.  ``getter`` must return a hashable value.
    """
    FIELD_GETTERS[field] = getter
    EQUALITY_PREDICATES[name] = field


# -- static join analysis -----------------------------------------------------


def _equality(formula: Formula, positions: Mapping[str, int]):
    """The ``(field, i, j)`` key if ``formula`` is an equality predicate
    over two distinct prefix variables, else ``None``."""
    if not isinstance(formula, Predicate):
        return None
    field = EQUALITY_PREDICATES.get(formula.func)
    if field is None or len(formula.args) != 2:
        return None
    a, b = formula.args
    if not (isinstance(a, Var) and isinstance(b, Var)) or a.name == b.name:
        return None
    if a.name not in positions or b.name not in positions:
        return None
    i, j = positions[a.name], positions[b.name]
    return (field, min(i, j), max(i, j))


def _guards(formula: Formula, positions: Mapping[str, int]) -> frozenset:
    """Equality predicates ``E`` with ``not E  |=  formula``.

    When any such guard is false for a binding, the body is true and
    the binding cannot violate -- so it may be skipped.
    """
    if isinstance(formula, Implies):
        return _conj(formula.left, positions) | _guards(formula.right, positions)
    if isinstance(formula, Or):
        return _guards(formula.left, positions) | _guards(formula.right, positions)
    if isinstance(formula, And):
        return _guards(formula.left, positions) & _guards(formula.right, positions)
    if isinstance(formula, Not):
        return _conj(formula.operand, positions)
    return frozenset()


def _conj(formula: Formula, positions: Mapping[str, int]) -> frozenset:
    """Equality predicates ``E`` with ``formula  |=  E``."""
    key = _equality(formula, positions)
    if key is not None:
        return frozenset({key})
    if isinstance(formula, And):
        return _conj(formula.left, positions) | _conj(formula.right, positions)
    if isinstance(formula, Or):
        return _conj(formula.left, positions) & _conj(formula.right, positions)
    if isinstance(formula, Not):
        return _guards(formula.operand, positions)
    if isinstance(formula, Implies):
        return _guards(formula.left, positions) & _conj(formula.right, positions)
    return frozenset()


@dataclass(frozen=True)
class JoinAnalysis:
    """Per-field equivalence classes of prefix positions.

    ``groups`` holds ``(field, positions)`` pairs (positions index the
    universal prefix, each group has >= 2 members): any binding that
    can violate the body agrees on ``field`` across ``positions``.
    """

    groups: Tuple[Tuple[str, FrozenSet[int]], ...]

    def fields_joining(self, pinned: int, other: int) -> Tuple[str, ...]:
        """Fields that ``other`` must share with position ``pinned``."""
        return tuple(
            field
            for field, members in self.groups
            if pinned in members and other in members
        )

    @property
    def is_empty(self) -> bool:
        return not self.groups


def analyze_joins(
    vars_types: Sequence[Tuple[str, str]], body: Formula
) -> JoinAnalysis:
    """Extract the sound equality joins of a prefix-universal body."""
    positions = {var: i for i, (var, _) in enumerate(vars_types)}
    guards = _guards(body, positions)
    # Union-find per field: a chain same_f(a,b) and same_f(b,c) joins
    # all three positions.
    parents: Dict[Tuple[str, int], Tuple[str, int]] = {}

    def find(node):
        root = node
        while parents.get(root, root) != root:
            root = parents[root]
        while parents.get(node, node) != node:
            parents[node], node = root, parents[node]
        return root

    for field, i, j in guards:
        parents.setdefault((field, i), (field, i))
        parents.setdefault((field, j), (field, j))
        parents[find((field, i))] = find((field, j))

    classes: Dict[Tuple[str, int], List[int]] = {}
    for field, i, j in guards:
        for position in (i, j):
            root = find((field, position))
            members = classes.setdefault(root, [])
            if position not in members:
                members.append(position)
    groups = sorted(
        ((root[0], frozenset(members)) for root, members in classes.items()),
        key=lambda group: (group[0], sorted(group[1])),
    )
    return JoinAnalysis(tuple(groups))


# -- candidate indexes --------------------------------------------------------

_EMPTY: Dict[str, Context] = {}
# One shared (and necessarily forever-empty) values view: a probe that
# misses every bucket should not allocate anything.
_EMPTY_VALUES = _EMPTY.values()

#: Restriction list: ``(field, required value)`` pairs.
Restrictions = Sequence[Tuple[str, object]]


class CandidateIndex:
    """Persistent per-(type, field) hash buckets over a checking scope.

    Written through the pool-listener interface (``on_add`` /
    ``on_remove`` / ``on_clear``), so the checker never rebuilds
    ``by_type`` per detect call.  Buckets map a field value to
    contexts **in arrival order** (dict insertion order), matching a
    linear scan of the scope, as long as a context never re-enters
    after it left.  Iterating or sizing the index covers the whole
    scope, so it can be handed to a detector as ``existing``.

    Fields are indexed lazily: the first :meth:`candidates` query for
    a field backfills its buckets from the current contents.

    :attr:`generation` counts content mutations (adds, removes,
    clears).  Batched detection memoizes probe results across calls
    and uses the generation as its invalidation stamp: an unchanged
    generation guarantees every memoized result is still exact.
    """

    def __init__(self, fields: Iterable[str] = ()) -> None:
        self._by_type: Dict[str, Dict[str, Context]] = {}
        # (ctx_type, field) -> value -> ctx_id -> ctx
        self._buckets: Dict[Tuple[str, str], Dict[object, Dict[str, Context]]] = {}
        self._fields: List[str] = []
        self.size = 0
        self.generation = 0
        for field in fields:
            self.ensure_field(field)

    # -- pool listener interface --

    def on_add(self, ctx: Context) -> None:
        self._by_type.setdefault(ctx.ctx_type, {})[ctx.ctx_id] = ctx
        self.size += 1
        self.generation += 1
        for field in self._fields:
            value = FIELD_GETTERS[field](ctx)
            bucket = self._buckets.setdefault((ctx.ctx_type, field), {})
            bucket.setdefault(value, {})[ctx.ctx_id] = ctx

    def on_remove(self, ctx: Context) -> None:
        extent = self._by_type.get(ctx.ctx_type, _EMPTY)
        if ctx.ctx_id not in extent:
            return
        del extent[ctx.ctx_id]
        self.size -= 1
        self.generation += 1
        for field in self._fields:
            value = FIELD_GETTERS[field](ctx)
            by_value = self._buckets.get((ctx.ctx_type, field))
            if by_value is not None:
                bucket = by_value.get(value)
                if bucket is not None:
                    bucket.pop(ctx.ctx_id, None)

    def on_clear(self) -> None:
        self._by_type.clear()
        self._buckets.clear()
        self.size = 0
        self.generation += 1

    # -- maintenance --

    def ensure_field(self, field: str) -> None:
        """Start indexing ``field``, backfilling from current contents."""
        if field in self._fields:
            return
        if field not in FIELD_GETTERS:
            raise KeyError(f"no getter registered for field {field!r}")
        self._fields.append(field)
        getter = FIELD_GETTERS[field]
        for ctx_type, extent in self._by_type.items():
            by_value = self._buckets.setdefault((ctx_type, field), {})
            for ctx in extent.values():
                by_value.setdefault(getter(ctx), {})[ctx.ctx_id] = ctx

    def rebuild(self, contexts: Iterable[Context]) -> None:
        """Reset to exactly ``contexts`` (in the given order)."""
        self.on_clear()
        for ctx in contexts:
            self.on_add(ctx)

    # -- queries --

    def extent(self, ctx_type: str) -> Sequence[Context]:
        """All contexts of ``ctx_type``, in arrival order."""
        extent = self._by_type.get(ctx_type)
        # A miss shares one empty view instead of allocating a fresh
        # ``{}.values()`` per probe (hot path: every non-joined
        # position of every constraint probes here per detect).
        return extent.values() if extent is not None else _EMPTY_VALUES

    def extent_size(self, ctx_type: str) -> int:
        extent = self._by_type.get(ctx_type)
        return len(extent) if extent is not None else 0

    def candidates(
        self, ctx_type: str, restrictions: Restrictions
    ) -> Sequence[Context]:
        """Contexts of ``ctx_type`` matching every ``(field, value)``
        restriction, in arrival order."""
        if not restrictions:
            return self.extent(ctx_type)
        field, value = restrictions[0]
        if field not in self._fields:
            self.ensure_field(field)
        by_value = self._buckets.get((ctx_type, field))
        bucket = by_value.get(value) if by_value is not None else None
        if not bucket:
            return ()
        matches = bucket.values()
        if len(restrictions) == 1:
            return matches
        rest = [(FIELD_GETTERS[f], v) for f, v in restrictions[1:]]
        return [
            ctx
            for ctx in matches
            if all(getter(ctx) == v for getter, v in rest)
        ]

    def contents(self) -> List[Context]:
        """Every indexed context (arrival order within each type)."""
        return [ctx for extent in self._by_type.values() for ctx in extent.values()]

    def __iter__(self) -> Iterator[Context]:
        return iter(self.contents())

    def __len__(self) -> int:
        return self.size


class EphemeralScopeIndex:
    """The :class:`CandidateIndex` query interface over a scope list.

    Built once per ``detect`` call when the caller passes a plain list
    instead of the checker's scope index; buckets are materialised
    lazily per queried ``(type, field)``.
    """

    def __init__(self, contexts: Sequence[Context]) -> None:
        self._by_type: Dict[str, List[Context]] = {}
        for ctx in contexts:
            self._by_type.setdefault(ctx.ctx_type, []).append(ctx)
        self._buckets: Dict[Tuple[str, str], Dict[object, List[Context]]] = {}

    def extent(self, ctx_type: str) -> Sequence[Context]:
        return self._by_type.get(ctx_type, ())

    def extent_size(self, ctx_type: str) -> int:
        return len(self._by_type.get(ctx_type, ()))

    def candidates(
        self, ctx_type: str, restrictions: Restrictions
    ) -> Sequence[Context]:
        if not restrictions:
            return self.extent(ctx_type)
        field, value = restrictions[0]
        key = (ctx_type, field)
        by_value = self._buckets.get(key)
        if by_value is None:
            getter = FIELD_GETTERS[field]
            by_value = {}
            for ctx in self._by_type.get(ctx_type, ()):
                by_value.setdefault(getter(ctx), []).append(ctx)
            self._buckets[key] = by_value
        matches = by_value.get(value, ())
        if len(restrictions) == 1 or not matches:
            return matches
        rest = [(FIELD_GETTERS[f], v) for f, v in restrictions[1:]]
        return [
            ctx
            for ctx in matches
            if all(getter(ctx) == v for getter, v in rest)
        ]


_INF = float("inf")


def _min_expiry(contexts: Sequence[Context]) -> float:
    lowest = _INF
    for ctx in contexts:
        expiry = ctx.expiry
        if expiry < lowest:
            lowest = expiry
    return lowest


class BatchOverlayView:
    """One detect_batch row's checking scope, without copying the pool.

    Batched detection evaluates row ``k`` of a batch against the scope
    a sequential sweep would have given it: the base scope as of the
    batch start, **minus** contexts that have expired by the row's
    clock, **plus** the earlier batch rows that joined the pool.  This
    view presents exactly that through the candidate-index query
    interface (:meth:`extent` / :meth:`extent_size` /
    :meth:`candidates`), composing three layers:

    * a *base* index (:class:`CandidateIndex` or
      :class:`EphemeralScopeIndex`) probed **once per distinct
      (type, field, value) group per batch** -- results land in the
      caller-supplied ``probe_memo`` keyed on the probe's canonical
      form, the per-batch subexpression sharing of the guard/join
      layer (hits and misses are counted for the
      ``subexpr_memo_{hits,misses}_total`` telemetry series).  The
      memo may outlive one batch: the checker stamps it with
      ``(registry.version, index.generation)`` and flushes it when
      either moves (predicate replacement / pool mutation);
    * an *overlay* of batch rows appended via :meth:`append` as the
      sweep admits them, in arrival order behind the base extent --
      exactly where a pool add would have put them;
    * a per-row expiry *cutoff* (:meth:`set_cutoff`): contexts with
      ``expiry <= cutoff`` are invisible, which is precisely the
      ``is_expired`` condition the sequential sweep removes on.

    Probe results are byte-identical, including order, to an index
    over the swept pool at the row's clock.  The filtering is
    *amortized*: every layer tracks its minimum live expiry and only
    rescans when the cutoff actually crosses it, so a context is
    filtered out of a given probe group at most once per batch, and
    repeated probes of one group inside one row hit a stamped combined
    cache.  Returned sequences are snapshots -- later appends or
    cutoff moves never mutate a sequence already handed out.
    """

    def __init__(self, base, probe_memo: Dict) -> None:
        self._base = base
        # key -> [full tuple, live list, min live expiry, cutoff,
        # epoch] (shared across batches; holds base contexts only; the
        # epoch bumps whenever the live list is replaced, stamping the
        # combined cache below).
        self._memo = probe_memo
        self._rows: Dict[str, List[Context]] = {}
        # key -> [live matches, min live expiry, rows consumed,
        # cutoff, epoch]
        self._matches: Dict[Tuple, List] = {}
        # key -> (combined list, (base epoch, match epoch, match len))
        self._combined: Dict[Tuple, Tuple] = {}
        self._cutoff = float("-inf")
        # ctx_type -> live extent size at the current cutoff; several
        # constraints ask for the same extent size within one row.
        self._sizes: Dict[str, int] = {}
        # Row-level result cache: several constraints re-probe the
        # same group within one row (shared join structure), and
        # nothing can change between those probes.  key -> (result,
        # (cutoff, per-type append count)); stale stamps fall through
        # to the layered walk.
        self._results: Dict[Tuple, Tuple] = {}
        self._appends: Dict[str, int] = {}
        self.memo_hits = 0
        self.memo_misses = 0

    def set_cutoff(self, now: float) -> None:
        """Hide contexts with ``expiry <= now`` from subsequent probes."""
        if now != self._cutoff:
            self._cutoff = now
            self._sizes.clear()

    def append(self, ctx: Context) -> None:
        """A batch row joined the scope for all later rows."""
        self._rows.setdefault(ctx.ctx_type, []).append(ctx)
        self._sizes.pop(ctx.ctx_type, None)
        self._appends[ctx.ctx_type] = self._appends.get(ctx.ctx_type, 0) + 1

    def _base_entry(self, key: Tuple) -> List:
        entry = self._memo.get(key)
        if entry is None:
            self.memo_misses += 1
            ctx_type, restrictions = key
            if restrictions:
                full = tuple(self._base.candidates(ctx_type, restrictions))
            else:
                full = tuple(self._base.extent(ctx_type))
            entry = [full, full, _min_expiry(full), float("-inf"), 0]
            self._memo[key] = entry
        else:
            self.memo_hits += 1
        cutoff = self._cutoff
        if cutoff != entry[3]:
            if cutoff < entry[3]:
                # The clock went backwards (a fresh batch over an
                # unchanged pool): restart from the full result.
                entry[1] = entry[0]
                entry[2] = _min_expiry(entry[0])
                entry[4] += 1
            entry[3] = cutoff
            if entry[2] <= cutoff:
                lowest = _INF
                live = []
                for ctx in entry[1]:
                    expiry = ctx.expiry
                    if expiry > cutoff:
                        live.append(ctx)
                        if expiry < lowest:
                            lowest = expiry
                entry[1] = live
                entry[2] = lowest
                entry[4] += 1
        return entry

    def _match_entry(self, key: Tuple) -> Optional[List]:
        ctx_type, restrictions = key
        rows = self._rows.get(ctx_type)
        if not rows:
            return None
        cutoff = self._cutoff
        entry = self._matches.get(key)
        if entry is None:
            entry = self._matches[key] = [[], _INF, 0, cutoff, 0]
        elif cutoff < entry[3]:
            # The clock went backwards (legal, if unusual), which
            # could resurrect an already filtered row: reconsume the
            # overlay from the top.  The entry object is reused so its
            # epoch keeps counting up (the combined-cache stamp).
            entry[0] = []
            entry[1] = _INF
            entry[2] = 0
            entry[3] = cutoff
            entry[4] += 1
        else:
            entry[3] = cutoff
        live, lowest, consumed = entry[0], entry[1], entry[2]
        if consumed < len(rows):
            if restrictions:
                rest = [(FIELD_GETTERS[f], v) for f, v in restrictions]
                for ctx in rows[consumed:]:
                    if all(getter(ctx) == v for getter, v in rest):
                        live.append(ctx)
                        if ctx.expiry < lowest:
                            lowest = ctx.expiry
            else:
                for ctx in rows[consumed:]:
                    live.append(ctx)
                    if ctx.expiry < lowest:
                        lowest = ctx.expiry
            entry[2] = len(rows)
        if lowest <= cutoff:
            lowest = _INF
            filtered = []
            for ctx in live:
                expiry = ctx.expiry
                if expiry > cutoff:
                    filtered.append(ctx)
                    if expiry < lowest:
                        lowest = expiry
            live = filtered
            entry[0] = live
            entry[4] += 1
        entry[1] = lowest
        return entry

    def _probe(
        self, ctx_type: str, restrictions: Tuple
    ) -> Sequence[Context]:
        key = (ctx_type, restrictions)
        stamp = (self._cutoff, self._appends.get(ctx_type, 0))
        cached = self._results.get(key)
        if cached is not None and cached[1] == stamp:
            self.memo_hits += 1
            return cached[0]
        result = self._probe_layers(key)
        self._results[key] = (result, stamp)
        return result

    def _probe_layers(self, key: Tuple) -> Sequence[Context]:
        base_entry = self._base_entry(key)
        match_entry = self._match_entry(key)
        if match_entry is None or not match_entry[0]:
            return base_entry[1]
        # Live lists are only ever *appended* in place (overlay
        # consumption); any replacement bumps the owning entry's
        # epoch.  So the combined snapshot stays valid while both
        # epochs and the match count hold -- cutoff moves that
        # filtered nothing reuse it.
        stamp = (base_entry[4], match_entry[4], len(match_entry[0]))
        cached = self._combined.get(key)
        if cached is not None and cached[1] == stamp:
            return cached[0]
        combined = list(base_entry[1])
        combined.extend(match_entry[0])
        self._combined[key] = (combined, stamp)
        return combined

    def extent(self, ctx_type: str) -> Sequence[Context]:
        return self._probe(ctx_type, ())

    def extent_size(self, ctx_type: str) -> int:
        # Same live count as ``len(extent(...))`` without materialising
        # the combined list (this is called per position for pruning
        # accounting, usually without a matching extent() probe);
        # memoized per (type, cutoff) since every constraint over the
        # type asks again within one row.
        size = self._sizes.get(ctx_type)
        if size is None:
            key = (ctx_type, ())
            size = len(self._base_entry(key)[1])
            match_entry = self._match_entry(key)
            if match_entry is not None:
                size += len(match_entry[0])
            self._sizes[ctx_type] = size
        return size

    def candidates(
        self, ctx_type: str, restrictions: Restrictions
    ) -> Sequence[Context]:
        if not restrictions:
            return self._probe(ctx_type, ())
        return self._probe(ctx_type, tuple(restrictions))
