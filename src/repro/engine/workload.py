"""Scalability workload and benchmark runner for the sharded engine.

The workload is built to have exactly the structure the scope analyzer
exploits: ``scope_groups`` independent families of context types, each
family coupled by a chain of two-variable consistency constraints over
adjacent types, so up to ``scope_groups`` shards share no state and
process-mode workers can run them in parallel.

Decisions are identical at every shard count (the equivalence property
the engine guarantees), so throughput is the only thing that varies.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..constraints.ast import Constraint, forall, pred
from ..core.context import Context
from .config import EngineConfig
from .facade import ShardedEngine

__all__ = ["scalability_workload", "run_scalability_bench"]


def scalability_workload(
    n_contexts: int = 2000,
    *,
    scope_groups: int = 4,
    types_per_group: int = 8,
    subjects_per_type: int = 4,
    time_horizon: float = 1e9,
    seed: int = 0,
) -> Tuple[List[Constraint], List[Context]]:
    """A stream plus constraints with ``scope_groups`` independent scopes.

    Context types are ``g{G}t{T}``; each group chains its types with
    ``forall a in t_i, forall b in t_{i+1} : same_subject(a, b) implies
    within_time(a, b, horizon)`` so union-find keeps the whole group in
    one scope while groups stay mutually independent.  The generous
    horizon keeps violations rare: the pool grows with the stream and
    per-arrival pool costs dominate, which is the regime the paper's
    middleware would face under sustained multi-user traffic.
    """
    if scope_groups < 1 or types_per_group < 2:
        raise ValueError("need >= 1 group and >= 2 types per group")
    constraints: List[Constraint] = []
    all_types: List[str] = []
    for group in range(scope_groups):
        types = [f"g{group}t{index}" for index in range(types_per_group)]
        all_types.extend(types)
        for index in range(types_per_group - 1):
            left, right = types[index], types[index + 1]
            constraints.append(
                Constraint(
                    name=f"chain-g{group}-{index}",
                    formula=forall(
                        "a",
                        left,
                        forall(
                            "b",
                            right,
                            pred("same_subject", "a", "b").implies(
                                pred("within_time", "a", "b", time_horizon)
                            ),
                        ),
                    ),
                    description=f"{left} and {right} reads of one subject "
                    f"must be within {time_horizon:g}s",
                )
            )

    contexts: List[Context] = []
    n_types = len(all_types)
    for index in range(n_contexts):
        ctx_type = all_types[index % n_types]
        subject = f"{ctx_type}-s{(index // n_types) % subjects_per_type}"
        contexts.append(
            Context(
                ctx_id=f"sc-{seed}-{index}",
                ctx_type=ctx_type,
                subject=subject,
                value=float(index),
                timestamp=float(index),
                source="scalability",
            )
        )
    return constraints, contexts


def run_scalability_bench(
    shard_counts: Sequence[int] = (1, 2, 4),
    *,
    n_contexts: int = 2000,
    use_window: int = 20,
    strategy: str = "drop-latest",
    mode: str = "inline",
    repeats: int = 2,
    seed: int = 0,
    workload: Optional[Tuple[List[Constraint], List[Context]]] = None,
    telemetry=None,
    kernels: bool = True,
    batch_kernels: bool = True,
) -> Dict[str, object]:
    """Measure engine throughput at each shard count on one workload.

    Returns a JSON-ready record: per-shard-count contexts/second (best
    of ``repeats``), the decision totals (the same across counts --
    asserted, in the sense the mode promises: the ordered decision
    signature in ``inline`` mode, the delivered and discarded id sets
    in ``local``/``process`` mode, whose per-shard events are merged by
    timestamp), and the headline speedup of the largest count over the
    smallest.  ``contexts_per_second`` is stored raw (floats are for
    comparing across commits); ``elapsed_s`` is rounded only because it
    is redundant with it.  An optional ``telemetry`` bundle
    (:class:`repro.obs.Telemetry`) is threaded into every engine run so
    the benchmark can emit a sidecar alongside the numbers.

    ``batch_kernels`` toggles columnar batched detection; pass
    ``False`` to measure the shard-count variable on the per-context
    detection path alone.
    """
    constraints, contexts = workload or scalability_workload(
        n_contexts, seed=seed
    )
    results: Dict[str, object] = {}
    signature = None
    for shards in shard_counts:
        config = EngineConfig(
            shards=shards,
            mode=mode,
            use_window=use_window,
            kernels=kernels,
            batch_kernels=batch_kernels,
        )
        best: Optional[float] = None
        last = None
        engine = None
        for _ in range(max(1, repeats)):
            engine = ShardedEngine(
                constraints,
                strategy=strategy,
                config=config,
                telemetry=telemetry,
            )
            last = engine.run(contexts)
            if best is None or last.metrics.elapsed_s < best:
                best = last.metrics.elapsed_s
        assert last is not None and best is not None and engine is not None
        if mode == "inline":
            decisions = last.decision_signature()
        else:
            decisions = {
                "delivered": set(last.delivered_ids),
                "discarded": set(last.discarded_ids),
            }
        if signature is None:
            signature = decisions
        elif decisions != signature:
            raise AssertionError(
                f"decisions diverged at {shards} shards -- sharding bug"
            )
        results[str(shards)] = {
            "contexts_per_second": len(contexts) / best,
            "elapsed_s": round(best, 4),
            "delivered": len(last.delivered),
            "discarded": len(last.discarded),
            "independent_scopes": engine.partition.independent_scopes,
        }

    counts = sorted(int(k) for k in results)
    low, high = str(counts[0]), str(counts[-1])
    low_cps = results[low]["contexts_per_second"]  # type: ignore[index]
    high_cps = results[high]["contexts_per_second"]  # type: ignore[index]
    return {
        "workload": {
            "n_contexts": len(contexts),
            "strategy": strategy,
            "mode": mode,
            "use_window": use_window,
            "seed": seed,
            "kernels": kernels,
            "batch_kernels": batch_kernels,
        },
        "contexts_per_second_by_shards": results,
        "speedup": {
            f"{high}_shards_vs_{low}": round(
                float(high_cps) / float(low_cps), 2
            )
            if low_cps
            else 0.0
        },
        "measured_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
