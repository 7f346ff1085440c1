"""Span arithmetic and the coverage guard, on synthetic spans."""

import types

import pytest

import spans


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 6] > b [2, 5]; root > c [7, 9]
    tracer = spans.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 9.0, 10.0]))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    summary = spans.summarize(tracer.spans)
    assert summary["root"]["total_s"] == 10.0
    assert summary["root"]["self_s"] == 10.0 - 5.0 - 2.0
    assert summary["a"]["self_s"] == 5.0 - 3.0
    assert summary["b"]["self_s"] == 3.0
    assert summary["c"]["self_s"] == 2.0
    assert sum(e["self_s"] for e in summary.values()) == summary["root"]["total_s"]


def test_repeated_calls_and_exceptions_accumulate():
    tracer = spans.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 4.0, 7.0, 8.0]))

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("layer", boom)
    with tracer.span("root"):
        with pytest.raises(KeyError):
            wrapped()
        with pytest.raises(KeyError):
            wrapped()
    summary = spans.summarize(tracer.spans)
    assert summary["layer"]["calls"] == 2
    assert summary["layer"]["exceptions"] == 2
    assert summary["layer"]["total_s"] == 1.0 + 3.0
    assert summary["root"]["self_s"] == 8.0 - 4.0


def test_counts_come_from_arguments_and_result():
    tracer = spans.Tracer()
    wrapped = tracer.wrap("f", lambda n: [0] * n, count=lambda result, n: {"items": len(result)})
    wrapped(3)
    wrapped(4)
    assert spans.summarize(tracer.spans)["f"]["counts"] == {"items": 7}


def _module_with_all_bindings():
    module = types.ModuleType("fake_cli")
    for attr, _ in spans.LAYER_CALLS.values():
        setattr(module, attr, lambda *a, **k: None)
    return module


def test_patched_restores_bindings():
    module = _module_with_all_bindings()
    before = dict(vars(module))
    with spans.patched(spans.Tracer(), module):
        assert module.integrate is not before["integrate"]
    assert dict(vars(module)) == before


def test_missing_binding_fails_loudly():
    module = _module_with_all_bindings()
    del module.q_grid
    with pytest.raises(spans.CoverageError, match="q_grid"):
        with spans.patched(spans.Tracer(), module):
            pass


def test_silent_layer_fails_loudly():
    expected = spans.expected_spans("pure", {"emit_q": True})
    summary = {name: {"calls": 1} for name in expected if name != "husimi.q_grid"}
    with pytest.raises(spans.CoverageError, match="husimi.q_grid"):
        spans.check_coverage(summary, expected)
