"""The tenant replicator is seeded, and its placements give the scopes intended."""

from repro.engine.scope import partition_constraints
from perfbench.tenants import TenantPlan, build_deployment

PACKS = ("smart-home", "rfid")


def test_same_seed_same_stream_other_seed_other_stream():
    plan = TenantPlan(tenants_per_pack=2, shared_types=True, packs=PACKS, jitter=3.0)
    a, b = build_deployment(plan, 7), build_deployment(plan, 7)
    assert a.contexts == b.contexts
    assert build_deployment(plan, 8).contexts != a.contexts


def test_held_out_seed_runs_unchanged():
    plan = TenantPlan(tenants_per_pack=1, shared_types=False, packs=PACKS)
    deployment = build_deployment(plan, 918273645)
    assert deployment.contexts
    ids = [c.ctx_id for c in deployment.contexts]
    assert len(set(ids)) == len(ids)


def _groups(deployment):
    return len(partition_constraints(deployment.constraints, 1).groups)


def test_shared_types_keep_the_packs_scope_groups():
    one = build_deployment(TenantPlan(1, shared_types=True, packs=PACKS), 1)
    many = build_deployment(TenantPlan(3, shared_types=True, packs=PACKS), 1)
    assert _groups(many) == _groups(one)
    assert len({c.subject for c in many.contexts}) == 3 * len(
        {c.subject for c in one.contexts}
    )


def test_renamed_types_give_each_tenant_its_own_scope_groups_and_stagger():
    one = build_deployment(TenantPlan(1, shared_types=True, packs=PACKS), 1)
    plan = TenantPlan(tenants_per_pack=3, shared_types=False, packs=PACKS, stagger=50.0)
    deployment = build_deployment(plan, 1)
    assert _groups(deployment) == 3 * _groups(one)
    starts = {}
    for ctx in deployment.contexts:
        tenant = ctx.ctx_id.split(".")[1]
        starts.setdefault((ctx.ctx_id.split(".")[0], tenant), ctx.timestamp)
    assert sorted(starts.values())[-1] >= 5 * 50.0


def test_merged_registry_is_picklable():
    import pickle

    deployment = build_deployment(TenantPlan(tenants_per_pack=1, shared_types=True), 1)
    factory = pickle.loads(pickle.dumps(deployment.registry_factory))
    assert factory == deployment.registry_factory
    assert "room_reachable" in factory().names()
