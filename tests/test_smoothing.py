import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wsavgol import smoothing
from wsavgol.design import design, design_coefficients, make_spec
from wsavgol.metrics import error_reduction_ratio
from wsavgol.smoothing import SignalSeries, smooth, stream_smooth
from wsavgol.weights import custom_weights

QUAD_Q5_D0 = np.array([5.0, 8.0, 9.0, 8.0, 5.0]) / 35.0


class TestSignalSeries:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            SignalSeries(())

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="NaN or infinite"):
            SignalSeries.from_iterable([1.0, float("nan"), 2.0])
        with pytest.raises(ValueError, match="NaN or infinite"):
            SignalSeries.from_iterable([1.0, float("inf")])

    def test_abscissa_length_checked(self):
        with pytest.raises(ValueError, match="abscissa"):
            SignalSeries.from_iterable([1.0, 2.0], abscissa=[0.0])

    def test_constructor_keeps_the_abscissa_as_floats(self):
        s = SignalSeries([1.0, 2.0, 3.0], abscissa=[0, 1.5, np.float32(3)])
        assert s.abscissa == (0.0, 1.5, 3.0)
        assert all(type(a) is float for a in s.abscissa)
        with pytest.raises(ValueError):
            SignalSeries([1.0, 2.0, 3.0], abscissa=["a", None, 3])
        with pytest.raises(TypeError):
            SignalSeries([1.0, 2.0, 3.0], abscissa=[1.0, None, 3])

    def test_valid_smoothing_trims_the_float_abscissa(self):
        s = SignalSeries([1.0, 2.0, 3.0, 4.0], abscissa=[0, 1, 2, 3])
        assert smooth(s, design(3, 0, "constant"), edge="valid").abscissa == (1.0, 2.0)

    def test_masked_samples_are_rejected_by_smooth_and_stream(self):
        x = np.ma.masked_array([1.0, 2.0, 1e6, 4.0, 5.0], mask=[0, 0, 1, 0, 0])
        coeffs = design(3, 0, "constant")
        with pytest.raises(ValueError, match="NaN or infinite"):
            smooth(SignalSeries.from_iterable(x), coeffs, edge="valid")
        with pytest.raises(ValueError, match="NaN or infinite"):
            SignalSeries(x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # numpy warns as it reads a masked element
            assert _run(x, coeffs) == ([], ValueError)

    def test_a_mask_that_hides_nothing_smooths_the_data(self):
        data = np.random.default_rng(4).standard_normal(30)
        x = np.ma.masked_array(data, mask=np.zeros(30, dtype=bool))
        coeffs = design(11, 2, "quadratic")
        expected = smooth(SignalSeries(data), coeffs, edge="valid").values.tolist()
        assert smooth(SignalSeries.from_iterable(x), coeffs, edge="valid").values.tolist() == expected
        assert list(stream_smooth(x, coeffs)) == expected

    def test_values_are_a_read_only_copy(self):
        source = np.array([1.0, 2.0, 3.0])
        s = SignalSeries.from_iterable(source)
        source[0] = 99.0
        assert_allclose(s.values, [1.0, 2.0, 3.0], rtol=0, atol=0)
        assert s.values.dtype == np.float64
        with pytest.raises(ValueError, match="read-only"):
            s.values[0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            s.as_array()[1] = 5.0

    def test_accepts_generators(self):
        s = SignalSeries.from_iterable(float(v) for v in range(3))
        assert_allclose(s.values, [0.0, 1.0, 2.0], rtol=0, atol=0)

    def test_rejects_multidimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            SignalSeries.from_iterable(np.ones((2, 3)))

    def test_smooth_output_is_read_only(self):
        out = smooth(SignalSeries.from_iterable(range(9)), design(5, 2, "constant"))
        assert isinstance(out.values, np.ndarray) and not out.values.flags.writeable

    def test_len_and_array(self):
        s = SignalSeries.from_iterable(range(4))
        assert len(s) == 4
        assert_allclose(s.as_array(), [0.0, 1.0, 2.0, 3.0], rtol=0, atol=0)


class TestValidPolicy:
    def test_constant_signal_passes_through(self):
        sig = SignalSeries.from_iterable([3.0] * 7)
        out = smooth(sig, design(5, 2, "constant"), edge="valid")
        assert_allclose(out.values, [3.0, 3.0, 3.0], atol=1e-12)

    def test_output_length(self):
        sig = SignalSeries.from_iterable(range(12))
        out = smooth(sig, design(5, 0, "quadratic"), edge="valid")
        assert len(out) == 12 - 5 + 1

    def test_linear_ramp_reproduced_in_interior(self):
        sig = SignalSeries.from_iterable(range(10))
        out = smooth(sig, design(5, 2, "constant"), edge="valid")
        assert_allclose(out.values, [2.0, 3.0, 4.0, 5.0, 6.0, 7.0], atol=1e-12)

    def test_impulse_response_equals_reversed_taps(self):
        # a centered unit impulse pushes the (symmetric) tap vector out
        coeffs = design(5, 0, "quadratic")
        sig = SignalSeries.from_iterable([0, 0, 0, 0, 1, 0, 0, 0, 0])
        out = np.array(smooth(sig, coeffs, edge="valid").values)
        assert_allclose(out, coeffs.as_array()[::-1], atol=1e-14)
        assert_allclose(out, coeffs.as_array(), atol=1e-14)  # symmetric taps

    def test_short_impulse_window(self):
        out = smooth(SignalSeries.from_iterable([0, 0, 0, 1, 0, 0, 0]),
                     design(5, 0, "quadratic"), edge="valid")
        assert_allclose(np.array(out.values) * 35.0, [8.0, 9.0, 8.0], atol=1e-12)

    def test_insufficient_data(self):
        with pytest.raises(ValueError, match="insufficient data"):
            smooth(SignalSeries.from_iterable([1.0, 2.0, 3.0]),
                   design(5, 0, "constant"), edge="valid")

    def test_abscissa_sliced_to_window_centers(self):
        sig = SignalSeries.from_iterable(range(8), abscissa=[10 + t for t in range(8)])
        out = smooth(sig, design(5, 0, "constant"), edge="valid")
        assert out.abscissa == (12.0, 13.0, 14.0, 15.0)

    def test_off_center_coefficients_allowed(self):
        coeffs = design(5, 2, "constant", j=1)
        sig = SignalSeries.from_iterable(range(9))
        out = smooth(sig, coeffs, edge="valid")
        # degree-2 fit reproduces a ramp at any evaluation index
        assert_allclose(out.values, [0, 1, 2, 3, 4], atol=1e-12)


class TestMirrorPolicy:
    def test_constant_signal(self):
        sig = SignalSeries.from_iterable([3.0] * 7)
        out = smooth(sig, design(5, 0, "quadratic"), edge="mirror")
        assert_allclose(out.values, [3.0] * 7, atol=1e-12)

    def test_output_length_preserved(self):
        sig = SignalSeries.from_iterable(np.sin(np.arange(20)))
        out = smooth(sig, design(7, 2, "triangular"), edge="mirror")
        assert len(out) == 20

    def test_interior_agrees_with_valid(self):
        rng = np.random.default_rng(11)
        sig = SignalSeries.from_iterable(rng.standard_normal(30))
        coeffs = design(9, 2, "quadratic")
        full = np.array(smooth(sig, coeffs, edge="mirror").values)
        interior = np.array(smooth(sig, coeffs, edge="valid").values)
        assert_allclose(full[4:-4], interior, atol=1e-12)

    def test_requires_centered_filter(self):
        with pytest.raises(ValueError, match="center-evaluated"):
            smooth(SignalSeries.from_iterable(range(9)),
                   design(5, 2, "constant", j=1), edge="mirror")


class TestPolyfitPolicy:
    def test_window_of_one_has_no_edges(self):
        sig = SignalSeries.from_iterable([1.0, -2.0, 3.5])
        out = smooth(sig, design(1, 0, "quadratic"), edge="polyfit")
        assert_allclose(out.values, sig.values, rtol=0, atol=0)

    def test_ramp_reproduced_everywhere(self):
        sig = SignalSeries.from_iterable(range(10))
        out = smooth(sig, design(5, 2, "constant"), edge="polyfit")
        assert_allclose(out.values, np.arange(10, dtype=float), atol=1e-10)

    def test_quadratic_signal_with_weighting(self):
        t = np.arange(14, dtype=float)
        sig = SignalSeries.from_iterable(0.5 * t * t - 3.0 * t + 2.0)
        out = smooth(sig, design(7, 2, "quadratic"), edge="polyfit")
        assert_allclose(out.values, sig.values, atol=1e-9)

    def test_interior_agrees_with_valid(self):
        rng = np.random.default_rng(4)
        sig = SignalSeries.from_iterable(rng.standard_normal(25))
        coeffs = design(7, 0, "triangular")
        full = np.array(smooth(sig, coeffs, edge="polyfit").values)
        interior = np.array(smooth(sig, coeffs, edge="valid").values)
        assert_allclose(full[3:-3], interior, atol=1e-12)

    def test_needs_a_full_window(self):
        with pytest.raises(ValueError, match="insufficient data"):
            smooth(SignalSeries.from_iterable([1.0, 2.0]),
                   design(5, 0, "constant"), edge="polyfit")

    def test_default_policy(self):
        sig = SignalSeries.from_iterable(range(10))
        assert np.array_equal(smooth(sig, design(5, 2, "constant")).values,
                              smooth(sig, design(5, 2, "constant"), edge="polyfit").values)


class TestAlgebraicProperties:
    def test_linearity(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(18)
        y = rng.standard_normal(18)
        coeffs = design(7, 2, "quadratic")
        a, b = 2.5, -1.25
        combined = smooth(SignalSeries.from_iterable(a * x + b * y), coeffs, edge="valid")
        sx = np.array(smooth(SignalSeries.from_iterable(x), coeffs, edge="valid").values)
        sy = np.array(smooth(SignalSeries.from_iterable(y), coeffs, edge="valid").values)
        assert_allclose(combined.values, a * sx + b * sy, atol=1e-12)

    def test_shift_covariance(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal(20)
        coeffs = design(5, 2, "triangular")
        base = np.array(smooth(SignalSeries.from_iterable(x), coeffs, edge="valid").values)
        shifted = np.array(smooth(SignalSeries.from_iterable(x[1:]), coeffs, edge="valid").values)
        assert_allclose(shifted, base[1:], atol=1e-12)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown edge policy"):
            smooth(SignalSeries.from_iterable(range(9)), design(5, 0, "constant"),
                   edge="wrap")

    @pytest.mark.parametrize("edge,need", [("valid", 5), ("mirror", 3), ("polyfit", 5)])
    def test_one_short_input_message(self, edge, need):
        with pytest.raises(ValueError) as err:
            smooth(SignalSeries.from_iterable([1.0, 2.0]), design(5, 0, "constant"), edge=edge)
        assert str(err.value) == f"insufficient data: {edge} needs at least {need} samples, got 2"

    @pytest.mark.parametrize("edge", ["valid", "mirror", "polyfit"])
    def test_overflow_is_a_computation_failure(self, edge):
        # every sample is finite; the degree-4 taps' partial sums are not
        with pytest.raises(RuntimeError, match="overflow"):
            smooth(SignalSeries.from_iterable([1.7e308] * 40), design(25, 4, "quadratic"),
                   edge=edge)

    def test_variance_reduction_matches_r(self):
        coeffs = design(9, 2, "quadratic")
        r = error_reduction_ratio(coeffs)
        rng = np.random.default_rng(42)
        noise = rng.standard_normal(200_000)
        out = np.array(smooth(SignalSeries.from_iterable(noise), coeffs, edge="valid").values)
        ratio = out.var() / noise.var()
        # generous 3-sigma band for this sample size
        assert abs(ratio - r) < 0.01 * r + 3e-3


class TestStreaming:
    def test_window_never_fills(self):
        coeffs = design(5, 0, "constant")
        assert list(stream_smooth(iter([1.0, 2.0, 3.0, 4.0]), coeffs)) == []

    def test_single_window(self):
        coeffs = design(5, 0, "constant")
        out = list(stream_smooth(iter([1.0, 2.0, 3.0, 4.0, 5.0]), coeffs))
        assert len(out) == 1
        assert_allclose(out, [3.0], atol=1e-12)

    def test_matches_batch_valid(self):
        rng = np.random.default_rng(21)
        data = rng.standard_normal(40)
        coeffs = design(7, 2, "quadratic")
        streamed = list(stream_smooth(iter(data), coeffs))
        batch = smooth(SignalSeries.from_iterable(data), coeffs, edge="valid")
        assert streamed == batch.values.tolist()

    def test_rejects_nonfinite_samples(self):
        coeffs = design(3, 0, "constant")
        with pytest.raises(ValueError, match="NaN or infinite"):
            list(stream_smooth(iter([1.0, float("nan"), 2.0]), coeffs))

    def test_outputs_before_a_nan_survive(self):
        coeffs = design(3, 0, "constant")
        seen = []
        with pytest.raises(ValueError, match="NaN or infinite"):
            for value in stream_smooth(iter([3.0, 6.0, 9.0, 12.0, float("nan"), 1.0]), coeffs):
                seen.append(value)
        assert_allclose(seen, [6.0, 9.0], rtol=1e-15)

    def test_first_output_after_exactly_one_window(self):
        pulled = []

        def counting():
            for i in range(100):
                pulled.append(i)
                yield float(i)

        coeffs = design(25, 4, "quadratic")
        stream = stream_smooth(counting(), coeffs)
        next(stream)
        assert len(pulled) == 25
        next(stream)
        assert len(pulled) == 26

    @pytest.mark.parametrize("coeffs", [design(1, 0, "constant"), design(3, 0, "quadratic"),
                                        design(11, 2, "triangular"), design(51, 4, "quadratic"),
                                        design(11, 2, "quadratic", j=2)],
                             ids=["q1", "q3", "q11", "q51", "q11-j2"])
    def test_bit_identical_to_batch_valid(self, coeffs):
        data = np.random.default_rng(8).standard_normal(300)
        assert list(stream_smooth(iter(data), coeffs)) == _valid(data, coeffs)


def _stream_filters():
    """Every allowed degree <= 4 of each built-in kind at odd windows 1..101,
    an asymmetric custom weighting and an off-center filter."""
    for q in (1, 3, 5, 11, 17, 25, 51, 101):
        for degree in range(5):
            for kind in ("constant", "triangular", "quadratic"):
                try:
                    spec = make_spec(q, degree, kind)
                except ValueError:  # degree too high for the window
                    continue
                yield pytest.param(design_coefficients(spec), id=f"q{q}-d{degree}-{kind}")
    asymmetric = custom_weights([1.0, 3.0, 2.0, 5.0, 1.0, 4.0, 2.0])
    yield pytest.param(design_coefficients(make_spec(7, 3, asymmetric)), id="custom-q7-d3")
    yield pytest.param(design(11, 2, "quadratic", j=2), id="j2-q11-d2")


def _valid(x, coeffs):
    """smooth(edge="valid") as a list, or [] where no window fills."""
    if x.size < coeffs.q:
        return []
    return smooth(SignalSeries(x), coeffs, edge="valid").values.tolist()


def _run(source, coeffs):
    """(outputs, exception type or None) of draining one stream."""
    seen = []
    try:
        for value in stream_smooth(source, coeffs):
            seen.append(value)
    except (ValueError, RuntimeError) as exc:
        return seen, type(exc)
    return seen, None


class TestArrayStreams:
    """A 1-D float64 ndarray source runs on smooth's convolution, block by block."""

    BLOCK = 7

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(smoothing, "STREAM_BLOCK", self.BLOCK)

    @pytest.mark.parametrize("coeffs", _stream_filters())
    def test_equals_batch_valid_bit_for_bit(self, coeffs, tmp_path):
        q = coeffs.q
        rng = np.random.default_rng(q)
        data = rng.standard_normal(2 * (3 * self.BLOCK + q))
        for n in (0, q - 1, q, q + 1, 3 * self.BLOCK + q):
            x = data[:n]
            assert list(stream_smooth(x, coeffs)) == _valid(x, coeffs), n
        strided = data[::2]
        assert list(stream_smooth(strided, coeffs)) == _valid(strided, coeffs)
        path = tmp_path / "record.f64"
        data.tofile(path)
        mapped = np.memmap(path, dtype=np.float64, mode="r")
        assert list(stream_smooth(mapped, coeffs)) == _valid(data, coeffs)

    @pytest.mark.parametrize("where", [0, 2, 9, 39], ids=["first", "first-window",
                                                          "block-overlap", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_as_the_ring_buffer(self, where, bad):
        # q = 5 and blocks of 7 outputs: block 0 reads samples 0..10 and
        # block 1 samples 7..17, so sample 9 lies in both
        coeffs = design(5, 2, "quadratic")
        x = np.random.default_rng(3).standard_normal(40)
        x[where] = bad
        seen, raised = _run(x, coeffs)
        pulled, pulled_raised = _run(iter(x), coeffs)
        assert (len(seen), raised) == (len(pulled), pulled_raised) == (max(where - 4, 0), ValueError)
        assert seen == _valid(x[:where], coeffs)

    def test_short_record_with_a_nan_still_raises(self):
        x = np.array([1.0, np.nan, 2.0])
        assert _run(x, design(5, 0, "constant")) == ([], ValueError)

    def test_one_next_runs_one_correlation(self, monkeypatch):
        calls = _spy_on_correlate(monkeypatch)
        coeffs = design(11, 2, "triangular")
        stream = stream_smooth(np.ones(10 * self.BLOCK + 10), coeffs)
        next(stream)
        assert calls == [self.BLOCK + 10]


def _spy_on_correlate(monkeypatch):
    """Record the sample count of every np.correlate call."""
    calls = []
    correlate = np.correlate

    def spy(*args, **kwargs):
        calls.append(args[0].size)
        return correlate(*args, **kwargs)

    monkeypatch.setattr(np, "correlate", spy)
    return calls


SOURCES = [pytest.param(np.asarray, id="array"), pytest.param(iter, id="iterator"),
           pytest.param(list, id="list")]


class TestStreamOverflow:
    """Every source stops at smooth's first overflowing output, as a failed computation."""

    @pytest.mark.parametrize("as_source", SOURCES)
    def test_first_window_overflows(self, as_source):
        coeffs = design(5, 2, "constant")
        x = np.tile(1.7e308 * np.sign(coeffs.as_array()), 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(as_source(x), coeffs) == ([], RuntimeError)

    @pytest.mark.parametrize("as_source", SOURCES)
    def test_finite_outputs_before_the_overflow_survive(self, as_source):
        coeffs = design(25, 4, "quadratic")
        x = np.concatenate((np.linspace(-1.0, 1.0, 40), np.full(30, 1.7e308)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seen, raised = _run(as_source(x), coeffs)
        assert raised is RuntimeError
        with pytest.raises(RuntimeError, match="smoothing overflowed"):
            smooth(SignalSeries(x), coeffs, edge="valid")
        # smooth's outputs up to its first overflowing one, as inf or NaN
        with np.errstate(over="ignore", invalid="ignore"):
            sums = np.correlate(x, coeffs.as_array(), mode="valid")
        stop = int(np.isfinite(sums).argmin())
        assert 16 <= stop < sums.size
        assert seen == sums[:stop].tolist()
        assert seen[:16] == _valid(x[:40], coeffs)
        with pytest.raises(RuntimeError, match="smoothing overflowed"):
            list(stream_smooth(as_source(x), coeffs))

    @pytest.mark.parametrize("as_source", SOURCES)
    def test_largest_float_record_smooths_to_itself(self, as_source):
        # the positive taps sum to one; smooth's sums stay finite
        coeffs = design(7, 0, "quadratic")
        x = np.full(20, np.finfo(float).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = smooth(SignalSeries(x), coeffs, edge="valid").values.tolist()
            assert expected == [np.finfo(float).max] * 14
            assert _run(as_source(x), coeffs) == (expected, None)


class TestOtherSourcesKeepTheRingBuffer:
    """Everything but a 1-D float64 ndarray is pulled one sample per output."""

    @pytest.mark.parametrize("as_source", [list, lambda x: x.astype(np.float32)],
                             ids=["list", "float32"])
    def test_bit_identical_to_batch_valid(self, as_source, monkeypatch):
        coeffs = design(11, 2, "triangular")
        source = as_source(np.random.default_rng(5).standard_normal(60))
        expected = _valid(np.array(source, dtype=np.float64), coeffs)
        calls = _spy_on_correlate(monkeypatch)
        assert list(stream_smooth(source, coeffs)) == expected
        assert calls == [11] * 50  # one correlation per window

    def test_samples_near_the_float_limit_keep_smooths_bits(self):
        # each output is checked for overflow, and keeps smooth's bits
        coeffs = design(25, 4, "quadratic")
        x = np.random.default_rng(6).uniform(-1.0, 1.0, 200) * 1e308
        assert 1e308 * np.abs(coeffs.as_array()).sum() < np.finfo(float).max
        assert list(stream_smooth(iter(x), coeffs)) == _valid(x, coeffs)

    def test_two_dimensional_array_is_still_a_type_error(self):
        with pytest.raises(TypeError):
            list(stream_smooth(np.ones((6, 3)), design(3, 0, "constant")))
