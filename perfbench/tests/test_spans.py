import numpy as np
import pytest

import spans


def span(i, parent, layer, name, start, end, extra=None, failed=False):
    return [i, parent, layer, name, start, end, extra, failed]


TREE = [
    span(0, None, "bench", "cli", 0.0, 10.0),
    span(1, 0, "cli", "main", 1.0, 9.0, {"bytes_in": 7, "bytes_out": 11}),
    span(2, 1, "smoothing", "smooth", 2.0, 5.0, {"conv_flops": 50}),
    span(3, 2, "design", "design_coefficients", 3.0, 4.0),
    span(4, 1, "design", "design_coefficients", 6.0, 7.0, None, True),
    span(5, 4, "weights", "quadratic_weights", 6.25, 6.5),
]


def test_self_time_subtracts_the_children():
    assert spans.self_times(TREE) == [2.0, 4.0, 2.0, 1.0, 0.75, 0.25]


def test_self_time_counts_overlapping_children_once():
    tree = [span(0, None, "bench", "x", 0.0, 10.0),
            span(1, 0, "cli", "a", 1.0, 4.0), span(2, 0, "cli", "b", 3.0, 6.0),
            span(3, 0, "cli", "c", 9.0, 12.0)]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_layer_metrics_add_up_to_the_traced_time():
    m = spans.layer_metrics(TREE)
    assert (m["cli.self_s"], m["smoothing.self_s"], m["design.self_s"]) == (4.0, 2.0, 1.75)
    assert m["weights.self_s"] == 0.25 and m["bench.self_s"] == 2.0
    assert sum(v for k, v in m.items() if k.endswith(".self_s")) == 10.0
    assert (m["cli.calls"], m["smoothing.calls"], m["design.calls"]) == (1, 1, 2)
    assert (m["smoothing.edge_designs"], m["design.failed"]) == (1, 1)
    assert (m["cli.bytes_in"], m["cli.bytes_out"], m["smoothing.conv_flops"]) == (7, 11, 50)


def test_tracer_counts_edge_redesigns_and_restores_the_package():
    import wsavgol.smoothing as smoothing
    before = (smoothing.smooth, smoothing.design_coefficients,
              smoothing.SignalSeries.__dict__["__init__"])
    rec = spans.SpanRecorder()
    tracer = spans.Tracer(rec)
    tracer.install()
    try:
        coeffs = tracer.mods["design"].design(11, 2, "quadratic")
        y = np.linspace(0.0, 1.0, 40)
        smoothing.smooth(smoothing.SignalSeries.from_iterable(y), coeffs, edge="polyfit")
        streamed = list(smoothing.stream_smooth(y, coeffs))
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(rec.spans)
    assert m["smoothing.edge_designs"] == 10
    assert m["design.calls"] == 11
    assert m["weights.calls"] == 1
    assert m["smoothing.conv_flops"] == 2 * 11 * (40 + len(streamed))
    assert m["smoothing.box_s"] > 0 and m["smoothing.stream_s"] > 0
    assert before == (smoothing.smooth, smoothing.design_coefficients,
                      smoothing.SignalSeries.__dict__["__init__"])
