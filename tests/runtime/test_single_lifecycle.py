"""Guard: the drop-bad life cycle exists in exactly one module.

ISSUE 5's acceptance bar: ``repro.runtime.pipeline`` is the only place
the receive/check/resolve/use/deliver/discard stage logic lives.  The
middleware manager and the engine shards must stay *adapters* -- if
someone re-introduces an independent receive/use implementation (the
pre-refactor duplication), these tests fail before reviewers have to
spot it.
"""

from __future__ import annotations

import inspect
import pathlib

from repro.engine import shard
from repro.middleware import manager
from repro.runtime.pipeline import PipelineDriver, ResolutionPipeline

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: Tokens that mark lifecycle stage logic: the resolution-service
#: change handlers and the stage event publications.
LIFECYCLE_TOKENS = (
    "handle_addition",
    "handle_use",
    "ContextReceived",
    "InconsistencyDetected",
    "ContextAdmitted",
    "ContextBuffered",
    "ContextMarkedBad",
    "ContextDelivered",
    "ContextExpired",
    ".publish(",
)


class TestSingleLifecycleModule:
    def test_shard_module_has_no_lifecycle_code(self):
        source = (SRC / "engine" / "shard.py").read_text()
        for token in LIFECYCLE_TOKENS:
            assert token not in source, (
                f"engine/shard.py contains {token!r}: the life cycle must "
                "stay in repro/runtime/pipeline.py; shards are adapters"
            )

    def test_manager_module_has_no_lifecycle_code(self):
        source = (SRC / "middleware" / "manager.py").read_text()
        for token in LIFECYCLE_TOKENS:
            assert token not in source, (
                f"middleware/manager.py contains {token!r}: the life cycle "
                "must stay in repro/runtime/pipeline.py; the manager is an "
                "adapter"
            )

    def test_runtime_pipeline_is_the_one_lifecycle_module(self):
        source = (SRC / "runtime" / "pipeline.py").read_text()
        for token in ("handle_addition", "handle_use", "ContextDelivered"):
            assert token in source

    def test_shard_pipeline_inherits_the_runtime_stages(self):
        assert issubclass(shard.ShardPipeline, ResolutionPipeline)
        # The shard overrides only decorate with counters; the stage
        # bodies they execute are the inherited ones.
        for name in ("add", "use"):
            override = inspect.getsource(getattr(shard.ShardPipeline, name))
            assert f"super().{name}(" in override
        for name in ("expire_due", "next_expiry", "attach_telemetry"):
            assert name not in shard.ShardPipeline.__dict__

    def test_one_arrival_loop(self):
        """Every arrival goes through ``runtime.batch.receive_batch``:
        the driver keeps no arrival step of its own, and the engine
        keeps no driver of its own."""
        source = (SRC / "runtime" / "pipeline.py").read_text()
        for call in (".expire_on_receive(", ".refuse_duplicate("):
            assert call not in source, (
                f"runtime/pipeline.py calls {call!r}: the arrival step "
                "must stay in repro/runtime/batch.py"
            )
        # No private per-context arrival step on the driver ...
        assert not [
            name for name in vars(PipelineDriver) if name.startswith("_receive")
        ]
        # ... and no engine-side driver name, alias or subclass.
        drivers = [
            name
            for name, value in vars(shard).items()
            if isinstance(value, type) and issubclass(value, PipelineDriver)
        ]
        assert drivers == ["PipelineDriver"]

    def test_middleware_delegates_to_the_runtime(self):
        from repro.constraints.checker import ConstraintChecker
        from repro.core.strategy import make_strategy

        middleware = manager.Middleware(
            ConstraintChecker([]), make_strategy("drop-bad")
        )
        assert isinstance(middleware._pipeline, ResolutionPipeline)
        assert isinstance(middleware._driver, PipelineDriver)
        assert middleware.pool is middleware._pipeline.pool
