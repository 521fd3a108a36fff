"""The canonical resolution runtime (ISSUE 5).

One implementation of the paper's receive -> check -> resolve -> use ->
deliver/discard life cycle, shared by every entry point:

* :class:`~repro.middleware.manager.Middleware` -- the single-pool
  reproduction host -- is a thin adapter over one
  :class:`ResolutionPipeline` and one :class:`PipelineDriver`;
* the engine's ``ShardPipeline`` (:mod:`repro.engine.shard`) adapts
  the pipeline per shard, and shards are driven by the same
  :class:`PipelineDriver`, with :class:`UseScheduler` state riding
  shard checkpoints.

Every arrival, from every host, goes through one loop:
:func:`receive_batch`.

See ``docs/runtime.md`` for the stage/semantics reference.
"""

from .batch import receive_batch
from .pipeline import PipelineDriver, ResolutionPipeline
from .scheduler import BoundedIdSet, ScheduledUse, UseScheduler
from .snapshot import AsyncCheckConfig, IngressOutcome, SnapshotIngress

__all__ = [
    "AsyncCheckConfig",
    "BoundedIdSet",
    "IngressOutcome",
    "PipelineDriver",
    "ResolutionPipeline",
    "ScheduledUse",
    "SnapshotIngress",
    "UseScheduler",
    "receive_batch",
]
