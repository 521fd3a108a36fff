"""Tests for equality-join analysis and candidate indexes.

Covers the static side (which joins :func:`analyze_joins` extracts,
and -- crucially -- which it refuses to extract because they would be
unsound) and the dynamic side: persistent :class:`CandidateIndex`
consistency across pool add/remove/expire, the per-call
:class:`EphemeralScopeIndex`, the checker's routing table and pool
attachment, and a shard checkpoint/restore round-trip with a live
index.
"""

import pickle

from repro.constraints.ast import And, Implies, Not, Or, pred
from repro.constraints.checker import ConstraintChecker
from repro.constraints.index import (
    CandidateIndex,
    EphemeralScopeIndex,
    analyze_joins,
)
from repro.constraints.parser import parse_constraint
from repro.core.context import Context
from repro.engine.shard import ShardExecutionState, ShardSpec
from repro.middleware.pool import ContextPool

VARS = [("a", "location"), ("b", "location"), ("c", "location")]


def _ctx(index, subject="p", ctx_type="location", lifespan=1e9):
    return Context(
        ctx_id=f"i{index:03d}",
        ctx_type=ctx_type,
        subject=subject,
        value=(float(index), 0.0),
        timestamp=float(index),
        lifespan=lifespan,
    )


class TestAnalyzeJoins:
    def test_guarded_implication_joins_subjects(self):
        body = Implies(
            And(pred("same_subject", "a", "b"), pred("before", "a", "b")),
            pred("velocity_le", "a", "b", 1.5),
        )
        analysis = analyze_joins(VARS[:2], body)
        assert analysis.groups == (("subject", frozenset({0, 1})),)
        assert analysis.fields_joining(0, 1) == ("subject",)
        assert not analysis.is_empty

    def test_disjunctive_antecedent_is_not_a_guard(self):
        # (same_subject(a,b) or far(a)) implies bad(a,b): a binding
        # with differing subjects can still violate via far(a), so no
        # pruning is sound.
        body = Implies(
            Or(pred("same_subject", "a", "b"), pred("far", "a")),
            pred("bad", "a", "b"),
        )
        assert analyze_joins(VARS[:2], body).is_empty

    def test_negated_equality_in_disjunction_is_a_guard(self):
        # (not same_subject(a,b)) or ok(a,b): if the subjects differ
        # the body is already true, so equal subjects are required to
        # violate.
        body = Or(Not(pred("same_subject", "a", "b")), pred("ok", "a", "b"))
        analysis = analyze_joins(VARS[:2], body)
        assert analysis.groups == (("subject", frozenset({0, 1})),)

    def test_chained_guards_union_into_one_group(self):
        body = Implies(
            And(
                pred("same_subject", "a", "b"), pred("same_subject", "b", "c")
            ),
            pred("bad", "a", "b", "c"),
        )
        analysis = analyze_joins(VARS, body)
        assert analysis.groups == (("subject", frozenset({0, 1, 2})),)
        assert analysis.fields_joining(2, 0) == ("subject",)

    def test_distinct_fields_make_distinct_groups(self):
        body = Implies(
            And(pred("same_subject", "a", "b"), pred("same_type", "a", "b")),
            pred("bad", "a", "b"),
        )
        analysis = analyze_joins(VARS[:2], body)
        assert analysis.groups == (
            ("ctx_type", frozenset({0, 1})),
            ("subject", frozenset({0, 1})),
        )

    def test_same_variable_twice_is_not_a_join(self):
        body = Implies(pred("same_subject", "a", "a"), pred("bad", "a"))
        assert analyze_joins(VARS[:1], body).is_empty

    def test_unguarded_body_has_no_joins(self):
        body = pred("velocity_le", "a", "b", 1.5)
        assert analyze_joins(VARS[:2], body).is_empty


def _assert_index_matches(index, contexts):
    """The index answers every query exactly like a linear scan."""
    types = {ctx.ctx_type for ctx in contexts} | {"missing"}
    assert len(index) == len(contexts)
    for ctx_type in types:
        scan = [c for c in contexts if c.ctx_type == ctx_type]
        assert list(index.extent(ctx_type)) == scan
        assert index.extent_size(ctx_type) == len(scan)
        for subject in {c.subject for c in contexts} | {"nobody"}:
            expected = [c for c in scan if c.subject == subject]
            got = list(index.candidates(ctx_type, [("subject", subject)]))
            assert got == expected


class TestCandidateIndex:
    def test_tracks_pool_add_remove_expire(self):
        pool = ContextPool()
        index = CandidateIndex(fields=["subject"])
        pool.add_listener(index)
        live = []
        for i in range(12):
            ctx = _ctx(
                i,
                subject="pq"[i % 2],
                ctx_type=("location", "badge")[i % 3 == 0],
                lifespan=5.0 if i < 4 else 1e9,
            )
            pool.add(ctx)
            live.append(ctx)
            _assert_index_matches(index, live)
        # Discard one from the middle (with an equal-but-distinct
        # instance, as strategies do).
        victim = live.pop(5)
        clone = Context(
            ctx_id=victim.ctx_id,
            ctx_type=victim.ctx_type,
            subject=victim.subject,
            value=victim.value,
            timestamp=victim.timestamp,
            lifespan=victim.lifespan,
        )
        assert pool.remove(clone)
        _assert_index_matches(index, live)
        # Expire the short-lived ones.
        expired = pool.expire(now=50.0)
        assert expired
        live = [c for c in live if c not in expired]
        _assert_index_matches(index, live)
        pool.clear()
        _assert_index_matches(index, [])

    def test_removing_unknown_context_is_a_noop(self):
        index = CandidateIndex(fields=["subject"])
        index.on_add(_ctx(0))
        index.on_remove(_ctx(99))
        assert index.size == 1

    def test_ensure_field_backfills_existing_contents(self):
        index = CandidateIndex()
        contexts = [_ctx(i, subject="pq"[i % 2]) for i in range(6)]
        for ctx in contexts:
            index.on_add(ctx)
        index.ensure_field("subject")
        _assert_index_matches(index, contexts)

    def test_unknown_field_raises(self):
        index = CandidateIndex()
        try:
            index.ensure_field("nope")
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError")

    def test_multi_restriction_filters(self):
        index = CandidateIndex(fields=["subject", "ctx_type"])
        contexts = [_ctx(i, subject="pq"[i % 2]) for i in range(6)]
        for ctx in contexts:
            index.on_add(ctx)
        got = list(
            index.candidates(
                "location", [("subject", "p"), ("ctx_type", "location")]
            )
        )
        assert got == [c for c in contexts if c.subject == "p"]

    def test_ephemeral_index_matches_scan(self):
        contexts = [
            _ctx(i, subject="pqr"[i % 3], ctx_type=("location", "badge")[i % 2])
            for i in range(15)
        ]
        _assert_index_matches_scope(EphemeralScopeIndex(contexts), contexts)


def _assert_index_matches_scope(index, contexts):
    for ctx_type in {"location", "badge", "missing"}:
        scan = [c for c in contexts if c.ctx_type == ctx_type]
        assert list(index.extent(ctx_type)) == scan
        assert index.extent_size(ctx_type) == len(scan)
        for subject in {"p", "q", "r", "nobody"}:
            expected = [c for c in scan if c.subject == subject]
            got = list(index.candidates(ctx_type, [("subject", subject)]))
            assert got == expected


def _velocity_constraint():
    return parse_constraint(
        "velocity",
        "forall l1 in location, forall l2 in location : "
        "(same_subject(l1, l2) and before(l1, l2) "
        "and within_time(l1, l2, 1.5)) implies velocity_le(l1, l2, 1.5)",
    )


def _badge_constraint():
    return parse_constraint(
        "badge-order",
        "forall b1 in badge, forall b2 in badge : "
        "(same_subject(b1, b2) and distinct(b1, b2)) "
        "implies within_time(b1, b2, 100.0)",
    )


class TestCheckerRouting:
    def test_routing_equals_filtered_sorted_scan(self):
        checker = ConstraintChecker([_velocity_constraint(), _badge_constraint()])
        checker.add_constraint(
            parse_constraint(
                "cross",
                "forall l in location, forall b in badge : "
                "same_subject(l, b) implies within_time(l, b, 1000.0)",
            )
        )
        for ctx_type in ("location", "badge", "unknown"):
            expected = [
                c
                for c in sorted(checker.constraints(), key=lambda c: c.name)
                if ctx_type in c.relevant_types()
            ]
            assert checker.constraints_for_type(ctx_type) == expected

    def test_irrelevant_type_routes_nowhere(self):
        checker = ConstraintChecker([_velocity_constraint()])
        assert checker.constraints_for_type("badge") == []
        assert not checker.is_relevant(_ctx(0, ctx_type="badge"))


class TestCheckerPoolAttachment:
    def test_attach_pool_builds_join_fields_and_tracks_pool(self):
        pool = ContextPool()
        seeded = [_ctx(i, subject="pq"[i % 2]) for i in range(4)]
        for ctx in seeded:
            pool.add(ctx)
        checker = ConstraintChecker([_velocity_constraint()])
        checker.attach_pool(pool)
        index = checker.pool_index
        assert index is not None
        _assert_index_matches(index, seeded)
        later = _ctx(10, subject="p")
        pool.add(later)
        _assert_index_matches(index, seeded + [later])

    def test_detection_identical_with_and_without_pool_index(self):
        contexts = [
            _ctx(i, subject="pq"[i % 2]) for i in range(10)
        ] + [
            # A too-fast hop for "p" to force violations.
            Context(
                ctx_id="fast",
                ctx_type="location",
                subject="p",
                value=(100.0, 0.0),
                timestamp=9.5,
            )
        ]

        def run(attach):
            checker = ConstraintChecker([_velocity_constraint()])
            pool = ContextPool()
            if attach:
                checker.attach_pool(pool)
            trace = []
            for ctx in contexts:
                scope = checker.pool_index if attach else pool.contents()
                found = checker.detect(ctx, scope, now=ctx.timestamp)
                trace.append(
                    (
                        ctx.ctx_id,
                        sorted(
                            sorted(c.ctx_id for c in inc.contexts)
                            for inc in found
                        ),
                    )
                )
                pool.add(ctx)
            return trace

        attached = run(attach=True)
        detached = run(attach=False)
        assert attached == detached
        assert any(violations for _, violations in attached)

    def test_scope_subset_falls_back_to_ephemeral_index(self):
        checker = ConstraintChecker([_velocity_constraint()])
        pool = ContextPool()
        checker.attach_pool(pool)
        for i in range(4):
            pool.add(_ctx(i, subject="p"))
        # A strategy excluding contexts from checking hands detect() a
        # strict subset of the pool; results must match a plain
        # unattached checker over the same scope.
        scope = pool.contents()[:2]
        probe = Context(
            ctx_id="fast",
            ctx_type="location",
            subject="p",
            value=(100.0, 0.0),
            timestamp=1.5,
        )
        found = checker.detect(probe, scope, now=2.0)
        plain = ConstraintChecker([_velocity_constraint()]).detect(
            probe, scope, now=2.0
        )
        assert [inc.contexts for inc in found] == [
            inc.contexts for inc in plain
        ]


class TestShardCheckpointRoundTrip:
    def test_restore_rebuilds_live_index_and_decisions_match(self):
        spec = ShardSpec(shard_id=0, constraints=(_velocity_constraint(),))
        stream = [
            _ctx(i, subject="pq"[i % 2], lifespan=30.0) for i in range(20)
        ]
        stream[13] = Context(
            ctx_id=stream[13].ctx_id,
            ctx_type="location",
            subject="p",
            value=(500.0, 0.0),
            timestamp=stream[13].timestamp,
            lifespan=30.0,
        )
        batches = [stream[i : i + 4] for i in range(0, len(stream), 4)]

        # Uninterrupted reference run.
        reference = ShardExecutionState(spec)
        for i, batch in enumerate(batches):
            reference.process_batch(i, batch)
        expected = reference.finish()

        # Interrupted run: checkpoint mid-stream, pickle it (as the
        # supervisor's ack queue does), restore into a fresh state.
        first = ShardExecutionState(spec)
        for i, batch in enumerate(batches[:3]):
            first.process_batch(i, batch)
        blob = pickle.dumps(first.checkpoint())
        resumed = ShardExecutionState(spec, checkpoint=pickle.loads(blob))

        index = resumed.pipeline.resolution.detector.pool_index
        assert index is not None
        _assert_index_matches(index, resumed.pipeline.pool.contents())

        for i, batch in enumerate(batches):
            resumed.process_batch(i, batch)  # replayed prefix is a no-op
        result = resumed.finish()

        assert [c.ctx_id for c in result.delivered] == [
            c.ctx_id for c in expected.delivered
        ]
        assert [c.ctx_id for c in result.discarded] == [
            c.ctx_id for c in expected.discarded
        ]
        assert result.stats["inconsistencies"] == expected.stats[
            "inconsistencies"
        ]
        assert result.stats["inconsistencies"] > 0
        _assert_index_matches(index, resumed.pipeline.pool.contents())
