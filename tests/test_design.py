import importlib
import tracemalloc

import numpy as np
import pytest
from exact_fit import exact_float_taps
from numpy.testing import assert_allclose

import wsavgol
from wsavgol.design import (
    FilterCoefficients,
    FilterSpec,
    check_taps,
    design,
    design_coefficients,
    legendre_basis,
    make_spec,
    orthonormalize_columns,
    polyfit_edges,
    quadratic_weight_constant_fit,
)
from wsavgol.smoothing import SignalSeries, smooth
from wsavgol.weights import constant_weights, custom_weights, quadratic_weights

CLASSIC_Q5_D2 = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
QUAD_Q5_D0 = np.array([5.0, 8.0, 9.0, 8.0, 5.0]) / 35.0
# Published endpoint row for the quadratic fit on a 5-sample window.
ENDPOINT_Q5_D2_J1 = np.array([31.0, 9.0, -3.0, -5.0, 3.0]) / 35.0
ASYMMETRIC_Q7 = [1.0, 3.0, 2.0, 5.0, 1.0, 4.0, 2.0]
# The package re-exports the function `design`, which shadows the module.
design_module = importlib.import_module("wsavgol.design")


def test_every_public_name_resolves():
    for name in wsavgol.__all__:
        assert getattr(wsavgol, name) is not None, name


class TestFilterSpec:
    def test_center_defaults(self):
        spec = make_spec(7, 2)
        assert spec.evaluation_index == 4
        assert spec.is_centered
        assert spec.m == 4
        assert spec.n_columns == 2
        assert spec.even_basis

    def test_off_center_uses_all_powers(self):
        spec = make_spec(7, 2, j=2)
        assert not spec.is_centered
        assert spec.n_columns == 3
        assert not spec.even_basis

    def test_asymmetric_weights_use_all_degrees_at_center(self):
        spec = make_spec(7, 3, custom_weights(ASYMMETRIC_Q7))
        assert spec.is_centered and not spec.even_basis
        assert spec.n_columns == 4
        with pytest.raises(ValueError, match="8 basis columns exceed window length 7"):
            make_spec(7, 7, custom_weights(ASYMMETRIC_Q7))

    def test_odd_degree_collapses_at_center(self):
        assert make_spec(9, 3).n_columns == make_spec(9, 2).n_columns == 2

    def test_even_window_needs_explicit_index(self):
        with pytest.raises(ValueError, match="no center"):
            make_spec(4, 0)
        assert make_spec(4, 0, j=2).evaluation_index == 2

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="outside"):
            make_spec(5, 0, j=6)
        with pytest.raises(ValueError, match="outside"):
            make_spec(5, 0, j=0)

    def test_rejects_overparameterized(self):
        with pytest.raises(ValueError, match="exceed window length"):
            make_spec(3, 4, j=1)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError, match="degree"):
            make_spec(5, -1)

    def test_rejects_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            FilterSpec(q=5, degree=0, weight=constant_weights(3))

    def test_unknown_weight_kind_name(self):
        with pytest.raises(ValueError, match="unknown weight kind"):
            make_spec(5, 0, "gaussian")


class TestVandermonde:
    """The Legendre basis sampled on the window scaled to [-1, 1]."""

    def test_degree0_center(self):
        basis = legendre_basis(5, 0)
        assert basis.shape == (5, 1)
        assert_allclose(basis[:, 0], np.ones(5), rtol=0, atol=0)

    def test_degree2_center_even_powers(self):
        basis = legendre_basis(5, 2, even=True)
        assert basis.shape == (5, 2)
        assert_allclose(basis[:, 0], np.ones(5), rtol=0, atol=0)
        assert_allclose(basis[:, 1], [1.0, -0.125, -0.5, -0.125, 1.0], rtol=0, atol=0)

    def test_off_center_grid(self):
        # an off-center fit keeps every degree on the same grid
        assert_allclose(legendre_basis(3, 2),
                        [[1.0, -1.0, 1.0], [1.0, 0.0, -0.5], [1.0, 1.0, 1.0]], rtol=0, atol=0)

    def test_evaluation_point_is_origin(self):
        basis = legendre_basis(9, 4)
        assert basis[4, 1] == 0.0
        assert np.array_equal(basis[::-1, 1], -basis[:, 1])

    def test_matches_numpy_legvander(self):
        t = np.linspace(-1.0, 1.0, 41)
        assert_allclose(legendre_basis(41, 12), np.polynomial.legendre.legvander(t, 12),
                        rtol=0, atol=1e-14)
        assert_allclose(legendre_basis(41, 12, even=True),
                        np.polynomial.legendre.legvander(t, 12)[:, ::2], rtol=0, atol=1e-14)


class TestDesignCoefficients:
    def test_moving_average(self):
        c = design(5, 0, "constant")
        assert_allclose(c.taps, np.full(5, 0.2), rtol=1e-15)

    def test_classic_quadratic_fit_table(self):
        c = design(5, 2, "constant")
        assert_allclose(c.as_array(), CLASSIC_Q5_D2, atol=1e-12)

    def test_quadratic_weight_degree0(self):
        c = design(5, 0, "quadratic")
        assert_allclose(c.as_array(), QUAD_Q5_D0, atol=1e-12)

    def test_q1_is_identity_for_any_weight(self):
        for kind in ("constant", "triangular", "quadratic"):
            assert design(1, 0, kind).taps == (1.0,)
        assert design_coefficients(make_spec(1, 0, custom_weights([42.0]))).taps == (1.0,)

    def test_endpoint_refit(self):
        c = design(5, 2, "constant", j=1)
        assert_allclose(c.as_array(), ENDPOINT_Q5_D2_J1, atol=1e-12)

    def test_taps_sum_to_one(self):
        for q, d, kind in [(7, 0, "triangular"), (11, 4, "quadratic"), (9, 2, "constant")]:
            assert abs(sum(design(q, d, kind).taps) - 1.0) < 1e-12

    def test_center_symmetry(self):
        c = design(11, 4, "triangular").as_array()
        assert_allclose(c, c[::-1], atol=1e-14)

    def test_scale_invariance(self):
        base = design_coefficients(make_spec(9, 2, quadratic_weights(9)))
        scaled = design_coefficients(make_spec(9, 2, quadratic_weights(9).scaled(17.5)))
        assert_allclose(scaled.as_array(), base.as_array(), atol=1e-12)

    def test_odd_degree_equals_even_at_center(self):
        assert_allclose(design(7, 3, "constant").as_array(),
                        design(7, 2, "constant").as_array(), rtol=0, atol=0)

    def test_polynomial_reproduction(self):
        # At the center, taps reproduce polynomials up to degree d+1
        # (odd moments vanish by symmetry).
        for q, d in [(7, 2), (9, 4), (11, 0)]:
            spec = make_spec(q, d, "triangular")
            c = design_coefficients(spec).as_array()
            x = np.arange(1, q + 1, dtype=float) - spec.m
            for power in range(d + 2):
                expected = 1.0 if power == 0 else 0.0
                assert abs(c @ x**power - expected) < 1e-10, (q, d, power)

    def test_degenerate_full_basis_is_identity_tap(self):
        # n = m even-power columns on an odd window leave no freedom:
        # the filter passes the middle sample through.
        c = design(5, 4, "triangular").as_array()
        expected = np.zeros(5)
        expected[2] = 1.0
        assert_allclose(c, expected, atol=1e-8)

    def test_singular_normal_matrix_is_design_failure(self):
        with pytest.raises(np.linalg.LinAlgError, match="weight-degenerate"):
            design(5, 6, "constant")

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_asymmetric_weights_reproduce_every_degree(self, degree):
        # Odd degrees matter at the center once the weights are asymmetric.
        spec = make_spec(7, degree, custom_weights(ASYMMETRIC_Q7))
        c = design_coefficients(spec).as_array()
        x = np.arange(1, 8, dtype=float) - spec.m
        for power in range(degree + 1):
            assert abs(c @ x**power - float(power == 0)) < 1e-13, power
        assert_allclose(c, exact_float_taps(spec), rtol=0, atol=1e-15)


def edge_outputs(spec, positions=None):
    """Polyfit outputs for a unit impulse at each 1-based window position.

    Entry (j - 1, k) is the output at window sample j when the impulse sits
    at positions[k] of the window: tap positions[k] of the fit evaluated at
    j.  Rows j < m come from a 2q-sample record with the impulse in its
    first window, rows j >= m from one with it in its last, so each record
    end is read with the other end's window empty.
    """
    q, m = spec.q, spec.m
    coeffs = design_coefficients(spec)
    positions = range(1, q + 1) if positions is None else positions
    columns = []
    for i in positions:
        head, tail = (smooth(SignalSeries(np.eye(1, 2 * q, k)[0]), coeffs, edge="polyfit").values
                      for k in (i - 1, q + i - 1))
        columns.append(np.where(np.arange(q) < m - 1, head[:q], tail[q:]))
    return np.column_stack(columns)


class TestEdgeTaps:
    """Polyfit edge outputs of `smooth`, held to the exact rational fit."""

    @pytest.mark.parametrize("q,degree,kind", [(5, 2, "constant"), (25, 4, "quadratic"),
                                               (51, 4, "triangular")])
    def test_every_row_matches_exact_solve(self, q, degree, kind):
        spec = make_spec(q, degree, kind)
        outputs = edge_outputs(spec)
        for j in range(1, q + 1):
            if j != spec.m:
                assert_allclose(outputs[j - 1], exact_float_taps(spec, j), rtol=0, atol=1e-14,
                                err_msg=f"j={j}")

    def test_published_endpoint_row(self):
        assert_allclose(edge_outputs(make_spec(5, 2, "constant"))[0], ENDPOINT_Q5_D2_J1,
                        atol=1e-12)

    def test_asymmetric_weights(self):
        spec = make_spec(7, 2, custom_weights(ASYMMETRIC_Q7))
        outputs = edge_outputs(spec)
        for j in [1, 2, 3, 5, 6, 7]:
            assert_allclose(outputs[j - 1], exact_float_taps(spec, j), rtol=0, atol=1e-14)

    def test_window_of_one_has_no_edges(self):
        sig = SignalSeries(np.array([1.0, -2.0, 3.5]))
        for coeffs in (design(1, 0), design(1, 1, "quadratic")):
            assert np.array_equal(smooth(sig, coeffs, edge="polyfit").values, sig.values)

    def test_needs_centered_spec(self):
        spec = make_spec(5, 2, j=2)
        with pytest.raises(ValueError, match="center-evaluated"):
            smooth(SignalSeries(np.ones(5)), design_coefficients(spec), edge="polyfit")
        with pytest.raises(ValueError, match="center-evaluated"):
            polyfit_edges(spec, np.ones(5))

    def test_overparameterized_off_center_fit(self):
        # the centered design uses 3 columns; the off-center fit needs 6
        with pytest.raises(ValueError, match="6 basis columns exceed window length 5"):
            smooth(SignalSeries(np.ones(5)), design(5, 5), edge="polyfit")

    def test_dc_gain_check_fires_on_every_row(self, monkeypatch):
        coeffs = design(25, 4)
        kernel = design_module.orthonormalize_columns
        monkeypatch.setattr(design_module, "orthonormalize_columns",
                            lambda v, w: kernel(v, w) * (1.0 + 1e-6))
        with pytest.raises(ValueError, match=r"taps must sum to 1, got 1\.000002.* at j=1$"):
            smooth(SignalSeries(np.ones(25)), coeffs, edge="polyfit")

    @pytest.mark.parametrize("q,degree", [(1001, 40), (4001, 30)])
    def test_large_windows_match_exact_solve(self, q, degree):
        spec = make_spec(q, degree)
        m = spec.m
        positions = [1, 2, q // 4, m, 3 * q // 4, q - 1, q]
        outputs = edge_outputs(spec, positions)
        for j in (1, m + 1, q):
            exact = np.array(exact_float_taps(spec, j))[np.array(positions) - 1]
            assert_allclose(outputs[j - 1], exact, rtol=0, atol=1e-14, err_msg=f"j={j}")

    def test_memory_is_linear_in_the_window(self):
        # the full off-center tap matrix would take 4000 x 4001 doubles, 128 MB
        coeffs = design(4001, 4, "quadratic")
        sig = SignalSeries(np.random.default_rng(0).standard_normal(20_000))
        tracemalloc.start()
        try:
            smooth(sig, coeffs, edge="polyfit")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, peak


class TestOrthonormalRoute:
    """Taps from the one projection kernel: W A A' u with A'WA = I."""

    @staticmethod
    def center_row(spec):
        w = spec.weight.as_array()
        a = orthonormalize_columns(legendre_basis(spec.q, spec.degree, spec.even_basis), w)
        return w * (a @ a[spec.m - 1])

    def test_matches_quadratic_closed_form(self):
        assert_allclose(self.center_row(make_spec(5, 0, "quadratic")), QUAD_Q5_D0, atol=1e-15)

    def test_matches_classic_table(self):
        assert_allclose(self.center_row(make_spec(5, 2, "constant")), CLASSIC_Q5_D2, atol=1e-15)

    @pytest.mark.parametrize("q", [3, 5, 9, 25, 51])
    @pytest.mark.parametrize("degree", [0, 2, 4])
    @pytest.mark.parametrize("kind", ["constant", "triangular", "quadratic"])
    def test_agrees_with_normal_equations(self, q, degree, kind):
        spec = make_spec(q, degree, kind)
        if spec.n_columns > spec.m:
            pytest.skip("over-parameterized center fit")
        assert_allclose(design_coefficients(spec).as_array(), exact_float_taps(spec),
                        rtol=0, atol=1e-13)

    @pytest.mark.parametrize("q,degree,kind", [(401, 16, "quadratic"), (1001, 40, "constant"),
                                               (4001, 30, "constant")])
    def test_large_windows_agree_with_normal_equations(self, q, degree, kind):
        spec = make_spec(q, degree, kind)
        assert_allclose(design_coefficients(spec).as_array(), exact_float_taps(spec),
                        rtol=0, atol=1e-14)

    @pytest.mark.parametrize("q,degree,kind", [(9, 4, "constant"), (13, 6, "quadratic"),
                                               (7, 2, "triangular")])
    def test_basis_is_weight_orthonormal(self, q, degree, kind):
        spec = make_spec(q, degree, kind)
        w = spec.weight.as_array()
        a = orthonormalize_columns(legendre_basis(q, degree, spec.even_basis), w)
        gram = a.T @ (w[:, None] * a)
        assert np.max(np.abs(gram - np.eye(spec.n_columns))) < 1e-14


class TestWeightScale:
    """The taps do not depend on the scale of the weights, over the whole float range."""

    @pytest.mark.parametrize("scale", [1e308, 1.7976931348623157e308, 1e-300, 5e-324])
    def test_uniform_weights_of_any_magnitude_give_the_constant_taps(self, scale):
        assert_allclose(design(5, 2, [scale] * 5).as_array(), CLASSIC_Q5_D2, rtol=0, atol=2e-16)

    @pytest.mark.parametrize("kind", ["triangular", "quadratic", "asymmetric"])
    @pytest.mark.parametrize("factor", [4.0 ** -300, 4.0 ** 200])
    def test_power_of_four_scales_are_bit_identical(self, kind, factor):
        w = np.array(ASYMMETRIC_Q7) if kind == "asymmetric" else make_spec(7, 2, kind).weight.as_array()
        assert design(7, 2, list(w * factor)).taps == design(7, 2, list(w)).taps
        for j in (1, 4):
            assert design(7, 2, list(w * factor), j).taps == design(7, 2, list(w), j).taps

    def test_huge_weights_fit_the_edges_without_overflow(self):
        y = np.linspace(-30.0, 30.0, 40) ** 2
        huge = polyfit_edges(make_spec(11, 2, [1e308] * 11), y)
        unit = polyfit_edges(make_spec(11, 2, [1.0] * 11), y)
        for got, want in zip(huge, unit):
            assert_allclose(got, want, rtol=1e-14)
        assert_allclose(smooth(SignalSeries(y), design(11, 2, [1e308] * 11)).values, y,
                        rtol=1e-12)


class TestClosedFormFit:
    def test_q5(self):
        c = quadratic_weight_constant_fit(5)
        assert_allclose(c.taps, [1 / 7, 8 / 35, 9 / 35, 8 / 35, 1 / 7], rtol=1e-15)

    def test_q3(self):
        assert_allclose(quadratic_weight_constant_fit(3).taps, [0.3, 0.4, 0.3], rtol=1e-15)

    def test_q1(self):
        assert quadratic_weight_constant_fit(1).taps == (1.0,)

    @pytest.mark.parametrize("q", [1, 3, 7, 21, 51])
    def test_matches_designed_filter(self, q):
        assert_allclose(quadratic_weight_constant_fit(q).as_array(),
                        design(q, 0, "quadratic").as_array(), atol=1e-13)

    def test_rejects_even_window(self):
        with pytest.raises(ValueError, match="odd"):
            quadratic_weight_constant_fit(4)


class TestFilterCoefficientsValidation:
    def test_rejects_wrong_dc_gain(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FilterCoefficients((0.5, 0.6), make_spec(2, 0, "constant", j=1))

    def test_dc_gain_message_prints_a_python_float(self):
        with pytest.raises(ValueError) as info:
            FilterCoefficients((0.2, 0.2, 0.2, 0.2, 0.21), make_spec(5, 0))
        assert str(info.value) == "taps must sum to 1, got 1.01"

    def test_rejects_asymmetric_centered_taps(self):
        with pytest.raises(ValueError, match="symmetric"):
            FilterCoefficients((0.5, 0.2, 0.3), make_spec(3, 0, "constant"))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 3 taps"):
            FilterCoefficients((1.0,), make_spec(3, 0, "constant"))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_taps(self, bad):
        # a NaN tap makes every later comparison false, so it must be caught first
        with pytest.raises(ValueError, match="finite"):
            FilterCoefficients((0.2, 0.2, bad, 0.2, 0.2), make_spec(5, 0))

    def test_check_taps_names_the_first_failing_vector_of_a_stack(self):
        stack = np.full((2, 3, 4), 0.25)
        stack[1, 1] += [0.0, 0.0, 0.0, 0.5]
        stack[1, 2] += [0.0, 0.0, 0.0, 0.25]
        with pytest.raises(ValueError, match=r"^taps must sum to 1, got 1\.5$"):
            check_taps(stack, symmetric=False)

    def test_check_taps_checks_symmetry_along_the_last_axis(self):
        stack = np.full((2, 4), 0.25)
        check_taps(stack, symmetric=True)
        stack[1] = [0.3, 0.2, 0.25, 0.25]
        check_taps(stack, symmetric=False)
        with pytest.raises(ValueError, match="symmetric"):
            check_taps(stack, symmetric=True)

    def test_asymmetric_weights_allow_asymmetric_taps(self):
        spec = FilterSpec(q=3, degree=0, weight=custom_weights([1.0, 1.0, 2.0]))
        c = design_coefficients(spec)
        assert abs(sum(c.taps) - 1.0) < 1e-12
        assert c.taps[0] != c.taps[2]
