import importlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from exact_fit import exact_taps
from numpy.testing import assert_allclose

from wsavgol.design import design, make_spec
from wsavgol.metrics import (
    closed_forms,
    empirical_ratios,
    error_reduction_ratio,
    exact_ratio_table,
    exact_ratios,
    frequency_response,
    metrics_report,
    moving_average_ratio_approximations,
    ratio_approximations,
    smoothing_parameter,
    stopband_peak,
)

QUAD_Q5_D0 = np.array([5.0, 8.0, 9.0, 8.0, 5.0]) / 35.0
REFERENCE_KINDS = ("constant", "triangular", "quadratic")
# The package re-exports functions that shadow these module names.
design_module = importlib.import_module("wsavgol.design")
metrics_module = importlib.import_module("wsavgol.metrics")


def table_values(ex):
    return [ex.r0, ex.r1, ex.r2, ex.s0, ex.s1, ex.s2]


class TestErrorReductionRatio:
    def test_identity(self):
        assert error_reduction_ratio([1.0]) == 1.0

    def test_moving_average(self):
        assert_allclose(error_reduction_ratio([0.2] * 5), 0.2, rtol=1e-15)

    def test_quadratic_weight_filter(self):
        assert_allclose(error_reduction_ratio(QUAD_Q5_D0), 37.0 / 175.0, rtol=1e-14)

    def test_accepts_coefficient_objects(self):
        c = design(5, 0, "quadratic")
        assert_allclose(error_reduction_ratio(c), 37.0 / 175.0, rtol=1e-12)


class TestSmoothingParameter:
    def test_identity(self):
        assert smoothing_parameter([1.0]) == 1.0

    def test_moving_average(self):
        assert_allclose(smoothing_parameter([0.2] * 5), 0.04, rtol=1e-14)

    def test_quadratic_weight_filter(self):
        assert_allclose(smoothing_parameter(QUAD_Q5_D0), 1.0 / 35.0, rtol=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_two_formulations_agree_on_random_vectors(self, seed):
        # smoothing_parameter itself raises if the padded-difference sum
        # and the quadratic form drift apart beyond 1e-12.
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(rng.integers(1, 40))
        s = smoothing_parameter(c)
        assert np.isfinite(s) and s >= 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_bounded_by_twice_r_for_unit_dc_vectors(self, seed):
        rng = np.random.default_rng(100 + seed)
        c = rng.standard_normal(25)
        c /= c.sum()
        assert smoothing_parameter(c) <= 2.0 * error_reduction_ratio(c)


class TestClosedForms:
    def test_q5(self):
        cf = closed_forms(5)
        assert_allclose([cf.r0, cf.s0, cf.r2, cf.s2],
                        [0.2, 0.04, 37.0 / 175.0, 1.0 / 35.0], rtol=1e-15)

    def test_q1_all_ratios_one(self):
        cf = closed_forms(1)
        assert cf.r0 == cf.s0 == 1.0
        assert_allclose([cf.r2, cf.s2], [1.0, 1.0], rtol=1e-15)

    def test_q25_quotient(self):
        cf = closed_forms(25)
        assert_allclose(cf.s0 / cf.s2, 4.68, rtol=1e-12)

    @pytest.mark.parametrize("q", [1, 3, 5, 17, 51])
    def test_matches_designed_filters(self, q):
        cf = closed_forms(q)
        c0 = design(q, 0, "constant")
        c2 = design(q, 0, "quadratic")
        assert_allclose(error_reduction_ratio(c0), cf.r0, rtol=1e-12)
        assert_allclose(smoothing_parameter(c0), cf.s0, rtol=1e-12)
        assert_allclose(error_reduction_ratio(c2), cf.r2, rtol=1e-12)
        assert_allclose(smoothing_parameter(c2), cf.s2, rtol=1e-12)

    def test_rejects_even_window(self):
        with pytest.raises(ValueError, match="odd"):
            closed_forms(6)


class TestRatioApproximations:
    @pytest.mark.parametrize("mn", [1, 3, 10])
    def test_equal_m_and_n_gives_exactly_one(self, mn):
        approx = ratio_approximations(mn, mn)
        assert approx.r0_over_r2 == 1.0
        assert approx.s0_over_s2 == 1.0
        assert approx.s0_over_s1 == 1.0

    def test_m13_n2_values(self):
        approx = ratio_approximations(13, 2)
        # direct evaluation: 1 + 3*13*(11/13)^2/25 and friends
        assert_allclose(approx.s0_over_s2, 2.1169230769230767, rtol=1e-15)
        assert_allclose(approx.r0_over_r2, 1.0 - (11 / 13) ** 2 / 10.0, rtol=1e-15)
        assert_allclose(approx.s0_over_s1, 1.0 + 39.0 * (11 / 13) ** 2 / 30.25, rtol=1e-15)

    def test_rejects_m_below_n(self):
        with pytest.raises(ValueError, match="must be >="):
            ratio_approximations(2, 3)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError, match=">= 1"):
            ratio_approximations(5, 0)

    def test_degree0_forms(self):
        ma = moving_average_ratio_approximations(25)
        assert_allclose(ma.r0_over_r2, (5.0 / 6.0) * (1.0 + 1.0 / 25.0), rtol=1e-15)
        assert_allclose(ma.s0_over_s2, (25.0 / 6.0) * (1.0 + 3.0 / 25.0), rtol=1e-15)
        assert_allclose(ma.s0_over_s2, 4.666666666666667, rtol=1e-15)

    def test_degree0_approximation_error_shrinks_with_q(self):
        errors_r, errors_s = [], []
        for q in (11, 25, 51, 101):
            cf = closed_forms(q)
            ma = moving_average_ratio_approximations(q)
            errors_r.append(abs(ma.r0_over_r2 - cf.r0 / cf.r2) / (cf.r0 / cf.r2))
            errors_s.append(abs(ma.s0_over_s2 - cf.s0 / cf.s2) / (cf.s0 / cf.s2))
        assert all(b < a for a, b in zip(errors_r, errors_r[1:]))
        assert all(b < a for a, b in zip(errors_s, errors_s[1:]))
        assert errors_s[1] < 0.01  # q=25


class TestExactRatios:
    def test_q25_n1(self):
        ex = exact_ratios(25, 1)
        assert_allclose(ex.s0_over_s2, 4.68, rtol=1e-12)
        cf = closed_forms(25)
        assert_allclose(ex.r0, cf.r0, rtol=1e-12)
        assert_allclose(ex.s2, cf.s2, rtol=1e-12)

    def test_triangular_sits_between_for_large_windows(self):
        ex = exact_ratios(25, 2)
        assert ex.s2 < ex.s1 < ex.s0

    def test_rejects_oversized_basis(self):
        with pytest.raises(ValueError, match="outside"):
            exact_ratios(5, 4)

    @pytest.mark.parametrize("q", [5, 9, 17, 33, 51])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_quadratic_weighting_always_smoothest(self, q, n):
        # the certified claim: quadratic weighting minimizes s; constant
        # weighting minimizes r.  (Where the triangular profile falls is
        # window-dependent at small q; the acceptance suite records that.)
        m = (q + 1) // 2
        if n >= m:
            pytest.skip("degenerate")
        ex = exact_ratios(q, n)
        assert ex.s2 < ex.s1 and ex.s2 < ex.s0
        assert ex.r0 < ex.r1 and ex.r0 < ex.r2

    @pytest.mark.parametrize("q,n", [(11, 1), (25, 2), (51, 3)])
    def test_ordering_including_triangular_at_larger_windows(self, q, n):
        ex = exact_ratios(q, n)
        assert ex.s2 < ex.s1 < ex.s0
        assert ex.r0 < ex.r1 and ex.r0 < ex.r2


class TestExactRatioTable:
    def test_rows_match_per_degree_designs(self):
        # every row against three designs of its own degree
        for q in range(1, 202, 2):
            m = (q + 1) // 2
            n_max = min(m, 8)
            table = exact_ratio_table(q, n_max)
            assert [(ex.q, ex.n, ex.m) for ex in table] == [(q, n, m) for n in range(1, n_max + 1)]
            for ex in table:
                filters = [design(q, 2 * (ex.n - 1), kind) for kind in REFERENCE_KINDS]
                expected = ([error_reduction_ratio(c) for c in filters]
                            + [smoothing_parameter(c) for c in filters])
                assert_allclose(table_values(ex), expected, rtol=1e-14, atol=0,
                                err_msg=f"q={q} n={ex.n}")

    @pytest.mark.parametrize("q,n_max", [(5, 3), (25, 4), (101, 5)])
    def test_rows_match_exact_rationals(self, q, n_max):
        for ex in exact_ratio_table(q, n_max):
            r, s = [], []
            for kind in REFERENCE_KINDS:
                taps = exact_taps(make_spec(q, 2 * (ex.n - 1), kind))
                padded = [Fraction(0)] + taps + [Fraction(0)]
                r.append(float(sum(t * t for t in taps)))
                s.append(float(sum((b - a) ** 2 for a, b in zip(padded, padded[1:])) / 2))
            assert_allclose(table_values(ex), r + s, rtol=1e-14, atol=0, err_msg=f"n={ex.n}")

    def test_q1_is_the_identity(self):
        [ex] = exact_ratio_table(1, 1)
        assert table_values(ex) == [1.0] * 6

    @pytest.mark.parametrize("n_max", [0, 4])
    def test_rejects_basis_size_outside_the_window(self, n_max):
        with pytest.raises(ValueError, match=rf"^basis size n={n_max} outside 1\.\.3 for window 5$"):
            exact_ratio_table(5, n_max)

    def test_rejects_even_window(self):
        with pytest.raises(ValueError, match="odd"):
            exact_ratio_table(4, 1)

    def test_sum_check_fires_with_the_message_of_filter_coefficients(self, monkeypatch):
        kernel = design_module.orthonormalize_columns
        off = lambda w, n: kernel(w, n) * (1.0 + 1e-6)  # noqa: E731
        pattern = r"^taps must sum to 1, got 1\.000002\d*$"
        monkeypatch.setattr(design_module, "orthonormalize_columns", off)
        with pytest.raises(ValueError, match=pattern):
            design(25, 4)
        monkeypatch.setattr(metrics_module, "orthonormalize_columns", off)
        with pytest.raises(ValueError, match=pattern):
            exact_ratios(25, 3)


class TestFrequencyResponse:
    def test_identity_is_allpass(self):
        resp = frequency_response([1.0], 64)
        assert_allclose(resp.magnitude, np.ones(64), atol=1e-14)

    def test_dc_gain_is_unity(self):
        resp = frequency_response(design(9, 2, "quadratic"), 16)
        assert abs(resp.magnitude[0] - 1.0) < 1e-12
        assert resp.omega[0] == 0.0 and resp.omega[-1] == np.pi

    def test_moving_average_null(self):
        taps = [0.2] * 5
        omega = 2.0 * np.pi / 5.0
        k = np.arange(5)
        mag = abs(np.exp(-1j * omega * k) @ taps)
        assert mag < 1e-14
        # the sampled grid straddles the null
        resp = frequency_response(taps, 1001)
        idx = np.argmin(np.abs(resp.omega - omega))
        assert resp.magnitude[idx] < 5e-3

    def test_quadratic_beats_constant_in_stopband_q5(self):
        quad = stopband_peak(design(5, 0, "quadratic"))
        const = stopband_peak(design(5, 0, "constant"))
        assert quad < const

    def test_points_validation(self):
        with pytest.raises(ValueError, match="at least 2"):
            frequency_response([1.0], 1)

    def test_stopband_edge_validation(self):
        with pytest.raises(ValueError, match=r"\[0, pi\)"):
            stopband_peak([1.0], lower=3.2)

    @pytest.mark.parametrize("num_points", [0, 1])
    def test_stopband_points_validation(self, num_points):
        with pytest.raises(ValueError, match="at least 2 frequency points"):
            stopband_peak(design(5, 0, "quadratic"), num_points=num_points)


def direct_magnitude(taps, omega):
    """|sum_k c_k e^{-i w k}| from compensated sums, one frequency at a time."""
    k = np.arange(taps.size)
    return np.array([abs(complex(math.fsum(taps * np.cos(w * k)), -math.fsum(taps * np.sin(w * k))))
                     for w in omega])


def dense_peak(taps, lower, num_points=40001):
    """Largest direct magnitude on linspace(lower, pi, num_points), in chunks."""
    k = np.arange(taps.size)
    return max(np.abs(np.exp(-1j * np.outer(w, k)) @ taps).max()
               for w in np.array_split(np.linspace(lower, np.pi, num_points), 40))


class TestTransformKernel:
    """The real-FFT response against direct sums, folded windows included."""

    @pytest.mark.parametrize("kind", ["constant", "triangular", "quadratic"])
    @pytest.mark.parametrize("q", [1, 3, 5, 25, 101, 401])
    def test_matches_direct_sums(self, q, kind):
        # 20 of the (q, N) pairs have q > 2(N - 1), so the taps are folded first.
        taps = design(q, min(4, q - 1), kind).as_array()
        for num_points in (2, 3, 4, 5, 13, 17, 513):
            resp = frequency_response(taps, num_points)
            assert resp.omega.tobytes() == np.linspace(0.0, np.pi, num_points).tobytes()
            assert_allclose(resp.magnitude, direct_magnitude(taps, resp.omega), rtol=0, atol=1e-13)

    def test_memory_is_linear_in_points(self):
        taps = design(401, 16, "quadratic")
        frequency_response(taps, 3)  # numpy.fft loaded outside the traced region
        tracemalloc.start()
        try:
            frequency_response(taps, 200_001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A points x taps complex matrix would take 200001 * 401 * 16 bytes, 1.3 GB.
        assert peak < 5e6

    @pytest.mark.parametrize("kind", ["constant", "triangular", "quadratic"])
    @pytest.mark.parametrize("q,degree", [(5, 0), (25, 4), (51, 4)])
    @pytest.mark.parametrize("lower", [np.pi / 4, 2 * np.pi / 3, np.pi - 1e-6])
    def test_stopband_peak_matches_dense_direct_sums(self, q, degree, kind, lower):
        taps = design(q, degree, kind).as_array()
        assert abs(stopband_peak(taps, lower, 8192) - dense_peak(taps, lower)) < 1e-6


class TestEmpiricalRatios:
    def test_deterministic_for_fixed_seed(self):
        c = design(7, 2, "triangular")
        a = empirical_ratios(c, 50_000, 123)
        b = empirical_ratios(c, 50_000, 123)
        assert a == b

    def test_identity_filter(self):
        est = empirical_ratios([1.0], 100_000, 5)
        assert abs(est.r_hat - 1.0) < 0.02
        assert abs(est.s_hat - 1.0) < 0.02

    def test_moving_average_r(self):
        est = empirical_ratios([0.2] * 5, 10**6, 0)
        assert abs(est.r_hat - 0.2) < 0.002

    def test_quadratic_weight_s(self):
        est = empirical_ratios(QUAD_Q5_D0, 10**6, 0)
        # 3 conservative standard errors for s at this tap vector
        assert abs(est.s_hat - 1.0 / 35.0) < 3.0 * 2.4e-4

    def test_rejects_small_samples(self):
        with pytest.raises(ValueError, match=">= 10000"):
            empirical_ratios([1.0], 100, 0)


class TestMetricsReport:
    def test_centered_report_carries_references(self):
        rep = metrics_report(design(9, 2, "quadratic"))
        assert rep.q == 9 and rep.n == 2 and rep.m == 5
        assert rep.closed is not None and rep.closed.q == 9
        assert rep.exact is not None
        assert_allclose(rep.exact.s2, rep.s, rtol=1e-12)
        assert rep.general_approx is not None and rep.general_approx.n == 2
        assert rep.ma_approx is not None

    def test_off_center_report_is_bare(self):
        rep = metrics_report(design(5, 2, "constant", j=1))
        assert rep.m is None and rep.closed is None and rep.exact is None
        assert 0.0 < rep.r <= 1.0

    @pytest.mark.parametrize("q,d,kind", [(5, 0, "constant"), (9, 4, "quadratic"),
                                          (25, 2, "triangular"), (1, 0, "constant")])
    def test_metrics_stay_in_unit_interval_for_designed_filters(self, q, d, kind):
        rep = metrics_report(design(q, d, kind))
        assert 0.0 < rep.r <= 1.0
        assert 0.0 < rep.s <= 1.0
        assert (rep.r == 1.0 and rep.s == 1.0) == (q == 1)
