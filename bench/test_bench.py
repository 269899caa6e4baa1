"""Self-tests for the benchmark: python3 -m pytest bench/test_bench.py"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, SpanIndex  # noqa: E402


def nested_spans():
    # root [0, 10] with children a [1, 4] (holding a.inner [2, 3]), b [5, 6], c [7, 8.5]
    return [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),
        Span("b", 5.0, 6.0, 0),
        Span("c", 7.0, 8.5, 0),
        Span("a", 11.0, 12.0, -1),
    ]


def test_self_time_subtracts_direct_children_only():
    ix = SpanIndex(nested_spans())
    assert ix.self_time(0) == pytest.approx(10.0 - 3.0 - 1.0 - 1.5)
    assert ix.self_time(1) == pytest.approx(3.0 - 1.0)
    assert ix.self_time(0, exclude={"a", "c"}) == pytest.approx(10.0 - 3.0 - 1.5)
    assert ix.self_time(2) == pytest.approx(1.0)


def test_overlapping_children_are_not_subtracted_twice():
    spans = [Span("root", 0.0, 10.0, -1), Span("x", 1.0, 5.0, 0), Span("y", 4.0, 6.0, 0)]
    assert SpanIndex(spans).self_time(0) == pytest.approx(5.0)


def test_totals_count_outermost_spans_and_filter_by_ancestor():
    ix = SpanIndex(nested_spans())
    assert ix.total("a") == pytest.approx(3.0 + 1.0)
    assert ix.total("a", under="root") == pytest.approx(3.0)
    assert ix.total({"a", "a.inner"}) == pytest.approx(4.0)  # a.inner is inside a
    assert ix.count("a") == 2


def test_tracer_wraps_every_binding_and_restores_it():
    from dpsynth import diffusion, metrics, pipeline

    original = diffusion.sample
    tracer = tracing.Tracer()
    tracer.request = 3
    with tracer:
        assert pipeline.sample is metrics.sample is diffusion.sample
        assert pipeline.sample is not original
        from dpsynth.core import RngSeed

        RngSeed(1).derive(2).generator()
    assert diffusion.sample is original and pipeline.sample is original
    assert [(s.name, s.request) for s in tracer.spans] == [("core.RngSeed.generator", 3)]


def test_unreached_layers_are_absent_not_zero():
    spans = [Span("cli.main", 0.0, 1.0, -1), Span("cli.cmd_account", 0.1, 0.9, 0)]
    m, absent = tracing.layer_metrics(spans, 1, 0, 0)
    assert m["cli.account_s"] == pytest.approx(0.8)
    assert m["cli.self_s"] == pytest.approx(0.2)
    assert m["cli.calls"] == 2 and "cli.account_s" not in absent and "cli.self_s" not in absent
    assert {"cli.sample_s", "dpsgd.calls", "dpsgd.steps", "dpsgd.self_s"} <= set(absent)
    assert "accounting.curve_cache_hit_ratio" in absent  # no cache lookups
    assert set(absent) < set(m)


def test_gradients_outside_dp_step_leave_the_finetune_time_absent():
    spans = [Span("pipeline.warmup_train", 0.0, 2.0, -1),
             Span("diffusion.loss_and_per_example_grads", 0.5, 1.5, 0, info=(32.0, 1024.0))]
    m, absent = tracing.layer_metrics(spans, 1, 0, 0)
    assert m["diffusion.grad_warmup_s"] == pytest.approx(1.0) and "diffusion.grad_warmup_s" not in absent
    assert "diffusion.grad_finetune_s" in absent and "diffusion.grad_examples" not in absent


def test_percentile_and_sample_count():
    s = run.summarise([float(v) for v in range(1, 41)])
    assert s["n"] == 40
    assert s["p50"] == pytest.approx(20.5)
    assert s["p75"] == pytest.approx(30.75)
    assert s["beyond_p75"] == 10
    one = run.summarise([2.5])
    assert one == {"p50": 2.5, "p75": 2.5, "n": 1, "beyond_p75": 0}
    with pytest.raises(ValueError):
        run.summarise([])


@pytest.fixture(scope="module")
def glyphs(tmp_path_factory):
    w = workloads.Glyph28Stages(str(tmp_path_factory.mktemp("glyph")), seed=7)
    w.PER_CLASS, w.N_SAMPLES = 10, 20  # small, so the self-tests run fast
    w.setup()
    return w


def test_clean_request_passes_every_check(glyphs):
    counter = workloads.Counter()
    for _ in range(2):
        for op in glyphs.operations(0):
            assert counter.run(op) is not None
    assert (counter.attempted, counter.failed) == (10, 0)


def test_truncated_samples_count_as_a_failed_operation(glyphs):
    path = glyphs.path("samples.dpc")

    def truncated_sample():
        steps = glyphs.sample()
        next(steps)
        yield
        next(steps)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 8)
        yield
        next(steps, None)

    counter = workloads.Counter()
    assert counter.run(truncated_sample) is None
    assert (counter.attempted, counter.failed) == (1, 1)
    assert "truncated" in counter.messages[0]


def test_changed_artifact_counts_as_a_failed_operation(glyphs):
    counter = workloads.Counter()
    assert counter.run(glyphs.sample) is not None  # rewrite samples.dpc
    glyphs.first["evaluate"] = {"stdout": "frechet=0\n"}
    assert counter.run(glyphs.evaluate) is None
    assert counter.failed == 1 and "differ from the first request" in counter.messages[0]
