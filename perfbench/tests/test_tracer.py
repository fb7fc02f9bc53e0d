"""Span bookkeeping and self-time arithmetic."""

import types

import pytest

import tracer


def test_self_time_nested_and_overlapping_children():
    parent = (0.0, 10.0)
    assert tracer.self_time(parent, []) == 10.0
    assert tracer.self_time(parent, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # Overlapping children count once.
    assert tracer.self_time(parent, [(1.0, 4.0), (2.0, 5.0)]) == 6.0
    # A child nested in another child counts once.
    assert tracer.self_time(parent, [(1.0, 9.0), (2.0, 3.0)]) == 2.0
    # Children spilling over the parent's ends are clipped.
    assert tracer.self_time(parent, [(-5.0, 2.0), (8.0, 20.0)]) == 6.0
    # Children outside the parent do not count.
    assert tracer.self_time(parent, [(11.0, 12.0), (-3.0, -1.0)]) == 10.0


def test_covered_equals_parent_when_fully_covered():
    assert tracer.covered((2.0, 4.0), [(0.0, 3.0), (3.0, 5.0)]) == 2.0
    assert tracer.self_time((2.0, 4.0), [(0.0, 3.0), (3.0, 5.0)]) == 0.0


class Thing:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, x):
        return x * 2


def test_wrap_method_classmethod_and_module_function(tmp_path):
    log = tracer.SpanLog()
    rid = {"value": "r1"}
    log.use_request_ids(lambda: rid["value"])
    saved = (Thing.__dict__["method"], Thing.__dict__["build"])
    module = types.SimpleNamespace(fn=lambda a: a - 1)
    try:
        log.wrap(Thing, "method", "thing.method",
                 lambda args, kwargs, out: out)
        log.wrap(Thing, "build", "thing.build")
        log.wrap(module, "fn", "module.fn")
        log.wrap_count(Thing, "method", "thing.calls")
        assert Thing().method(1) == 2
        assert Thing.build(3) == 6
        rid["value"] = "r2"
        assert module.fn(5) == 4
        assert Thing().method(10) == 11
    finally:
        Thing.method, Thing.build = saved
    names = [s[0] for s in log.spans]
    assert names == ["thing.method", "thing.build", "module.fn",
                     "thing.method"]
    assert [s[4] for s in log.named("thing.method")] == [2, 11]
    assert all(s[3] >= s[2] for s in log.spans)
    assert log.counts == {("thing.calls", "r1"): 1, ("thing.calls", "r2"): 1}
    groups = tracer.by_request(log.spans)
    assert len(groups["r1"]) == 2 and len(groups["r2"]) == 2
    path = str(tmp_path / "spans.jsonl")
    log.write_jsonl(path)
    spans, counts = tracer.read_jsonl(path)
    assert [s[:2] for s in spans] == [s[:2] for s in log.spans]
    assert counts == log.counts


def test_median_and_mean_of_nothing_are_zero():
    assert tracer.median([]) == 0.0
    assert tracer.mean([]) == 0.0
    assert tracer.median([3.0, 1.0, 2.0]) == 2.0
    assert tracer.mean([1.0, 2.0]) == pytest.approx(1.5)
