"""The tracer's spans, self times, sum-to-wall check and patch restore."""

import pytest

from perfbench.tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class Layer:
    def outer(self, clock, tracer_ref):
        clock.advance(1.0)
        self.inner(clock)
        self.inner(clock)
        clock.advance(0.5)
        return "done"

    def inner(self, clock):
        clock.advance(2.0)


class Child(Layer):
    pass


def test_self_times_and_sum_to_wall():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "inner", "inner")
    try:
        assert Layer().outer(clock, tracer) == "done"
        clock.advance(0.5)  # untraced gap after the top-level span
    finally:
        tracer.restore()
    table = tracer.table(wall_s=clock.now)
    outer, inner = table.row("outer"), table.row("inner")
    assert (outer.count, outer.total_s, outer.self_s) == (1, 5.5, 1.5)
    assert (inner.count, inner.total_s, inner.self_s) == (2, 4.0, 4.0)
    assert table.gap_s == pytest.approx(0.5)
    assert table.sum_to_wall_error == pytest.approx(0.0)
    assert table.ok
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_overlapping_spans_fail_the_wall_check():
    tracer = Tracer()
    # Two top-level spans claiming more time than the wall they ran in.
    tracer.spans = [["a", 0.0, 2.0, -1], ["b", 1.0, 3.0, -1]]
    assert not tracer.table(wall_s=3.0).ok


def test_restore_puts_own_and_inherited_attributes_back():
    original = Layer.__dict__["inner"]
    tracer = Tracer()
    tracer.wrap(Layer, "inner", "inner")
    tracer.wrap(Child, "outer", "child.outer")
    assert "outer" in Child.__dict__
    tracer.restore()
    assert Layer.__dict__["inner"] is original
    assert "outer" not in Child.__dict__


def test_hooks_see_arguments_and_results():
    seen = []
    tracer = Tracer()
    tracer.wrap(
        Layer,
        "inner",
        "inner",
        hook=lambda args, kwargs, result: seen.append(("after", result)),
        before=lambda args, kwargs: seen.append(("before", len(args))),
    )
    try:
        Layer().inner(FakeClock())
    finally:
        tracer.restore()
    assert seen == [("before", 2), ("after", None)]
