"""The correctness gate passes a faithful run and catches altered verdicts."""

import dataclasses

from perfbench.gate import check_verdicts, verdict_trail
from perfbench.replay import SHARED_SCOPE, _config, _engine, reference_trail
from perfbench.tenants import TenantPlan, build_deployment

TINY = dataclasses.replace(
    SHARED_SCOPE,
    plan=TenantPlan(tenants_per_pack=2, shared_types=True, packs=("smart-home",)),
)


def _run():
    deployment = build_deployment(TINY.plan, seed=3)
    reference = reference_trail(TINY, deployment)
    engine = _engine(TINY, deployment, _config(TINY))
    trail = verdict_trail(engine.run(deployment.contexts).events)
    ids = [c.ctx_id for c in deployment.contexts]
    return ids, trail, reference


def test_faithful_run_passes():
    ids, trail, reference = _run()
    result = check_verdicts(ids, trail, reference)
    assert result.ok, result.first_mismatch
    assert result.attempted == len(ids) > 100


def test_altered_reference_verdict_is_caught():
    ids, trail, reference = _run()
    index = next(i for i, (kind, _) in enumerate(reference) if kind == "ContextDelivered")
    altered = list(reference)
    altered[index] = ("ContextDiscarded", reference[index][1])
    result = check_verdicts(ids, trail, altered)
    assert not result.ok
    assert reference[index][1] in result.failed_ids


def test_missing_and_doubled_verdicts_fail():
    ids, trail, reference = _run()
    lost = trail[0][1]
    without = [v for v in trail if v[1] != lost]
    assert lost in check_verdicts(ids, without, without).failed_ids
    doubled = list(trail) + [("ContextDiscarded", ids[-1])]
    assert ids[-1] in check_verdicts(ids, doubled, doubled).failed_ids
