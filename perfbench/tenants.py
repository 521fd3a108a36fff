"""Seeded tenant replicator: many copies of the registered scenario packs.

The packs under :mod:`repro.scenarios` generate a few hundred contexts
each.  A throughput benchmark needs a deployment with many residents, so
this module replicates each pack across *tenants*: every tenant is the
pack's workload generated under its own seed, with its subjects, sources
and context ids renamed so tenants never collide.  Two placements exist,
and each one isolates a different layer:

* ``shared_types=True`` -- every tenant of a pack shares the pack's
  context types, so all tenants of all packs form one deployment with
  one large live pool.  Checking-scope upkeep, per-context detection and
  drop-bad's bookkeeping grow with that pool, which is what the
  ``shared-scope`` workload exists to load.
* ``shared_types=False`` -- every tenant gets its own renamed types and
  its own renamed copy of the pack's constraints, so each tenant is its
  own scope group.  With ``stagger`` set, tenants start one after
  another and only a few are live at once, which keeps every shard's
  pool small.  The ``many-scopes`` workload uses this to move the work
  from scope upkeep to routing, IPC, merging and the ledger.

Types are always prefixed with the pack name, because two packs use the
same type name (``calendar``) with different constraints.

Generation is deterministic in ``seed`` and is never timed.
"""

from __future__ import annotations

import dataclasses
import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.constraints.ast import Constraint, Formula, _Quantifier
from repro.constraints.builtins import FunctionRegistry, standard_registry
from repro.core.context import Context
from repro.scenarios.registry import get_pack, pack_names

__all__ = [
    "Deployment",
    "MergedRegistry",
    "TenantPlan",
    "build_deployment",
    "rename_types",
]


def rename_types(formula: Formula, rename: Callable[[str], str]) -> Formula:
    """``formula`` with every quantified context type passed through
    ``rename``; predicates and variables are unchanged."""
    changes = {}
    for field in dataclasses.fields(formula):
        value = getattr(formula, field.name)
        if isinstance(value, Formula):
            changes[field.name] = rename_types(value, rename)
    if isinstance(formula, _Quantifier):
        changes["ctx_type"] = rename(formula.ctx_type)
    return dataclasses.replace(formula, **changes) if changes else formula


def _type_prefix(pack: str) -> str:
    return pack.replace("-", "_")


class MergedRegistry:
    """Picklable registry factory: the union of several packs' predicates.

    Process-mode workers rebuild the registry from this object, so it
    holds only pack names.  A predicate name defined differently by two
    packs is an error rather than a silent override.
    """

    def __init__(self, packs: Sequence[str]) -> None:
        self.packs = tuple(packs)

    def __call__(self) -> FunctionRegistry:
        merged = standard_registry()
        standard = set(merged.names())
        owner: Dict[str, str] = {}
        for name in self.packs:
            registry = get_pack(name).build_registry()
            for predicate in registry.names():
                if predicate in standard:
                    continue
                if predicate in owner:
                    raise ValueError(
                        f"predicate {predicate!r} defined by both "
                        f"{owner[predicate]} and {name}"
                    )
                owner[predicate] = name
                merged.register(predicate, registry.resolve(predicate))
        return merged

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MergedRegistry) and other.packs == self.packs

    def __hash__(self) -> int:
        return hash(self.packs)

    def __repr__(self) -> str:
        return f"MergedRegistry({list(self.packs)!r})"


@dataclass(frozen=True)
class TenantPlan:
    """How to replicate the packs into one deployment.

    ``stagger`` is the simulated seconds between consecutive tenants'
    start times (in pack-interleaved order); ``jitter`` draws each
    tenant's start offset uniformly from ``[0, jitter)`` on top of it,
    so tenants that are live together do not move in lockstep.  Each
    tenant uses its pack's reference error rate.
    """

    tenants_per_pack: int
    shared_types: bool
    packs: Tuple[str, ...] = ()
    stagger: float = 0.0
    jitter: float = 0.0

    def resolved_packs(self) -> Tuple[str, ...]:
        return self.packs or tuple(pack_names())

    def as_record(self) -> dict:
        record = dataclasses.asdict(self)
        record["packs"] = list(self.resolved_packs())
        return record


@dataclass
class Deployment:
    """A replicated workload: constraints, registry and the stream."""

    constraints: List[Constraint]
    registry_factory: MergedRegistry
    contexts: List[Context]
    tenants: int


def _tenant_seed(seed: int, pack: str, tenant: int) -> int:
    return zlib.crc32(f"{seed}:{pack}:{tenant}".encode("utf-8"))


def build_deployment(plan: TenantPlan, seed: int) -> Deployment:
    """Replicate the plan's packs into one seeded deployment."""
    packs = plan.resolved_packs()
    rng = random.Random(seed)
    constraints: List[Constraint] = []
    contexts: List[Context] = []
    if plan.shared_types:
        for name in packs:
            prefix = _type_prefix(name)
            for constraint in get_pack(name).build_constraints():
                constraints.append(
                    dataclasses.replace(
                        constraint,
                        formula=rename_types(
                            constraint.formula,
                            lambda t, p=prefix: f"{p}_{t}",
                        ),
                    )
                )
    slot = 0
    for tenant in range(plan.tenants_per_pack):
        for name in packs:
            pack = get_pack(name)
            prefix = _type_prefix(name)
            suffix = "" if plan.shared_types else f"_t{tenant}"
            if not plan.shared_types:
                for constraint in pack.build_constraints():
                    constraints.append(
                        Constraint(
                            f"{constraint.name}~t{tenant}",
                            rename_types(
                                constraint.formula,
                                lambda t, p=prefix, s=suffix: f"{p}_{t}{s}",
                            ),
                            constraint.description,
                        )
                    )
            offset = slot * plan.stagger + (
                rng.uniform(0.0, plan.jitter) if plan.jitter else 0.0
            )
            slot += 1
            tag = f"{prefix}.t{tenant}"
            for ctx in pack.generate_workload(
                pack.envelope.reference_err_rate, _tenant_seed(seed, name, tenant)
            ):
                contexts.append(
                    dataclasses.replace(
                        ctx,
                        ctx_id=f"{tag}.{ctx.ctx_id}",
                        ctx_type=f"{prefix}_{ctx.ctx_type}{suffix}",
                        subject=f"{ctx.subject}@{tag}",
                        source=f"{ctx.source}@{tag}",
                        timestamp=round(ctx.timestamp + offset, 6),
                    )
                )
    contexts.sort(key=lambda c: (c.timestamp, c.ctx_id))
    return Deployment(
        constraints=constraints,
        registry_factory=MergedRegistry(packs),
        contexts=contexts,
        tenants=plan.tenants_per_pack * len(packs),
    )
