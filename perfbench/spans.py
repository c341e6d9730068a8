"""Span recording around calls into the wsavgol modules, and self times.

The traced run rebinds the names a calling module looks up (for example
``wsavgol.smoothing.design_coefficients``) to wrappers that record a
span: layer, name, start, end, parent and a few counters.  Nothing under
``src/`` changes.  Spans are kept in memory and written out when the
worker ends.

A layer's self time is the duration of its spans minus the part of each
span that its child spans cover.  Each op has a root span of layer
``bench``; its self time is the benchmark's own share of the op, so the
self times of all layers add up to the traced op time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

LAYERS = ("cli", "smoothing", "design", "weights", "metrics", "verify")

# (layer, name) of the span kinds that are counted on their own.
BOX = ("smoothing", "box")
STREAM = ("smoothing", "stream")
BASIS = ("verify", "basis")

PER_LAYER = (
    "cli.calls", "cli.self_s", "cli.bytes_in", "cli.bytes_out",
    "smoothing.calls", "smoothing.self_s", "smoothing.box_s", "smoothing.edge_designs",
    "smoothing.stream_s", "smoothing.conv_flops",
    "design.calls", "design.self_s", "design.failed",
    "weights.calls", "weights.self_s",
    "metrics.calls", "metrics.self_s", "metrics.redesigns",
    "verify.calls", "verify.self_s", "verify.basis_builds", "verify.checks_failed",
)
COUNTS = tuple(n for n in PER_LAYER if not n.endswith("_s"))


class SpanRecorder:
    """In-memory spans: [id, parent, layer, name, start, end, extra, failed]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, layer: str, name: str, start: float | None = None) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, layer, name,
                self.clock() if start is None else start, None, None, False]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list, failed: bool = False, end: float | None = None) -> None:
        span[5] = self.clock() if end is None else end
        span[7] = failed
        self._stack.pop()

    def call(self, layer: str, name: str, fn, args, kwargs, extra=None):
        span = self.open(layer, name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.close(span, failed=True)
            raise
        self.close(span)
        if extra is not None:
            span[6] = extra(args, kwargs, result)
        return result


def self_times(spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[1] is not None:
            children.setdefault(s[1], []).append((s[4], s[5]))
    out = []
    for s in spans:
        start, end = s[4], s[5]
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(s[0], ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def layer_metrics(spans) -> dict:
    """Aggregate one traced cycle's spans into the per-layer metrics."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)
    m = {name: 0.0 if name.endswith("_s") else 0 for name in PER_LAYER + ("bench.self_s",)}
    for s, self_s in zip(spans, selfs):
        layer, name, extra = s[2], s[3], s[6] or {}
        parent = by_id.get(s[1])
        parent_key = None if parent is None else (parent[2], parent[3])
        m[f"{layer}.self_s"] += self_s
        if layer == "bench":
            continue
        if parent is None or parent[2] != layer:
            m[f"{layer}.calls"] += 1
        if (layer, name) == BOX and parent_key != BOX:
            m["smoothing.box_s"] += s[5] - s[4]
        if (layer, name) == STREAM:
            m["smoothing.stream_s"] += s[5] - s[4]
        if (layer, name) == BASIS:
            m["verify.basis_builds"] += 1
        if layer == "design":
            m["design.failed"] += int(s[7])
            if parent is not None and parent[2] == "smoothing":
                m["smoothing.edge_designs"] += 1
            if parent is not None and parent[2] == "metrics":
                m["metrics.redesigns"] += 1
        m["smoothing.conv_flops"] += extra.get("conv_flops", 0)
        m["verify.checks_failed"] += extra.get("checks_failed", 0)
        m["cli.bytes_in"] += extra.get("bytes_in", 0)
        m["cli.bytes_out"] += extra.get("bytes_out", 0)
    return m


# --- wrappers -------------------------------------------------------------

def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _cli_extra(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    sizes = {"bytes_in": 0, "bytes_out": 0}
    for flag, key in (("--input", "bytes_in"), ("--coeff-file", "bytes_in"),
                      ("--weight-file", "bytes_in"), ("--output", "bytes_out")):
        if flag in argv[:-1]:
            sizes[key] += _file_size(argv[argv.index(flag) + 1])
    return sizes


def _smooth_extra(args, kwargs, result):
    coeffs = args[1] if len(args) > 1 else kwargs["coeffs"]
    return {"conv_flops": 2 * coeffs.spec.q * len(result)}


_CHECK_FLAGS = ("gradient_ok", "hessian_ok", "perturbation_ok", "eigenvalues_ok",
                "orthonormality_ok", "eigen_relation_ok", "lambda_formula_ok")


def _certify_extra(args, kwargs, result):
    return {"checks_failed": sum(getattr(result, f) is False for f in _CHECK_FLAGS)}


class Tracer:
    """Installs and removes the span wrappers on the wsavgol modules."""

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self._undo: list = []
        self.mods = {n: importlib.import_module(f"wsavgol.{n}") for n in LAYERS}
        cli, smoothing, design, metrics, verify = (
            self.mods[n] for n in ("cli", "smoothing", "design", "metrics", "verify"))
        self._targets = [
            (cli, "main", "cli", "main", _cli_extra),
            (cli, "smooth", "smoothing", "smooth", _smooth_extra),
            (smoothing, "smooth", "smoothing", "smooth", _smooth_extra),
            (design, "design", "design", "design", None),
            (cli, "design_coefficients", "design", "design_coefficients", None),
            (smoothing, "design_coefficients", "design", "design_coefficients", None),
            (metrics, "design", "design", "design", None),
            (verify, "quadratic_weights", "weights", "quadratic_weights", None),
            (metrics, "metrics_report", "metrics", "metrics_report", None),
            (cli, "certify", "verify", "certify", _certify_extra),
            (cli, "eigenvalues_of_tw", "verify", "eigenvalues_of_tw", None),
            (verify, "orthonormalize_columns", *BASIS, None),
        ] + [(cli, name, "metrics", name, None) for name in (
            "exact_ratios", "frequency_response", "error_reduction_ratio",
            "smoothing_parameter", "ratio_approximations",
            "moving_average_ratio_approximations")]

    def _wrap(self, fn, layer, name, extra):
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return rec.call(layer, name, fn, args, kwargs, extra)
        return wrapper

    def _set(self, setter, old, new):
        setter(new)
        self._undo.append((setter, old))

    def install(self) -> None:
        for obj, attr, layer, name, extra in self._targets:
            old = getattr(obj, attr)
            self._set(functools.partial(setattr, obj, attr), old,
                      self._wrap(old, layer, name, extra))
        factories = self.mods["design"]._WEIGHT_FACTORIES
        for kind, old in list(factories.items()):
            self._set(functools.partial(factories.__setitem__, kind), old,
                      self._wrap(old, "weights", f"{kind}_weights", None))
        series = self.mods["smoothing"].SignalSeries
        old_init = series.__dict__["__init__"]
        self._set(functools.partial(setattr, series, "__init__"), old_init,
                  self._wrap(old_init, *BOX, None))
        old_from = series.__dict__["from_iterable"]
        self._set(functools.partial(setattr, series, "from_iterable"), old_from,
                  classmethod(self._wrap(old_from.__func__, *BOX, None)))
        old_stream = self.mods["smoothing"].stream_smooth
        self._set(functools.partial(setattr, self.mods["smoothing"], "stream_smooth"),
                  old_stream, self._stream_wrapper(old_stream))

    def _stream_wrapper(self, fn):
        rec = self.rec

        @functools.wraps(fn)
        def wrapper(source, coeffs):
            gen = fn(source, coeffs)

            def traced():
                span = rec.open(*STREAM)
                outputs, failed = 0, True
                try:
                    for value in gen:
                        outputs += 1
                        yield value
                    failed = False
                finally:
                    rec.close(span, failed=failed)
                    span[6] = {"conv_flops": 2 * coeffs.spec.q * outputs}
            return traced()
        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            setter, old = self._undo.pop()
            setter(old)
