from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wsavgol.design import (
    FilterCoefficients,
    FilterSpec,
    build_orthonormal_basis,
    build_vandermonde,
    coefficient_weight_derivative,
    design,
    design_coefficients,
    design_via_orthonormal_basis,
    edge_taps,
    make_spec,
    quadratic_weight_constant_fit,
)
from wsavgol.weights import constant_weights, custom_weights, quadratic_weights

CLASSIC_Q5_D2 = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
QUAD_Q5_D0 = np.array([5.0, 8.0, 9.0, 8.0, 5.0]) / 35.0
# Published endpoint row for the quadratic fit on a 5-sample window.
ENDPOINT_Q5_D2_J1 = np.array([31.0, 9.0, -3.0, -5.0, 3.0]) / 35.0


class TestFilterSpec:
    def test_center_defaults(self):
        spec = make_spec(7, 2)
        assert spec.evaluation_index == 4
        assert spec.is_centered
        assert spec.m == 4
        assert spec.n_columns == 2
        assert spec.basis_powers == (0, 2)

    def test_off_center_uses_all_powers(self):
        spec = make_spec(7, 2, j=2)
        assert not spec.is_centered
        assert spec.n_columns == 3
        assert spec.basis_powers == (0, 1, 2)

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
    def test_degree0_center(self):
        basis = build_vandermonde(make_spec(5, 0))
        assert basis.columns.shape == (5, 1)
        assert_allclose(basis.columns[:, 0], np.ones(5), rtol=0, atol=0)

    def test_degree2_center_even_powers(self):
        basis = build_vandermonde(make_spec(5, 2))
        assert basis.powers == (0, 2)
        assert_allclose(basis.columns[:, 0], np.ones(5), rtol=0, atol=0)
        assert_allclose(basis.columns[:, 1], [4.0, 1.0, 0.0, 1.0, 4.0], rtol=0, atol=0)

    def test_off_center_grid(self):
        basis = build_vandermonde(make_spec(3, 2, j=1))
        assert_allclose(basis.abscissa, [0.0, 1.0, 2.0], rtol=0, atol=0)
        assert_allclose(basis.columns[:, 1], [0.0, 1.0, 2.0], rtol=0, atol=0)
        assert_allclose(basis.columns[:, 2], [0.0, 1.0, 4.0], rtol=0, atol=0)

    def test_evaluation_point_is_origin(self):
        basis = build_vandermonde(make_spec(9, 4, j=3))
        assert basis.abscissa[2] == 0.0


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
        with pytest.raises(np.linalg.LinAlgError):
            design(5, 6, "constant")


def exact_off_center_taps(spec, j):
    """Taps at index j from a fractions.Fraction solve of the normal equations."""
    q, n = spec.q, spec.degree + 1
    w = [Fraction(v) for v in spec.weight.values]
    x = [Fraction(i - j) for i in range(1, q + 1)]
    vander = [[xi**p for p in range(n)] for xi in x]
    # Augmented [G | u_j] with G = X'WX and u_j = X[j] = e_0 (x_j = 0).
    aug = [[sum(w[i] * vander[i][a] * vander[i][b] for i in range(q)) for b in range(n)]
           + [Fraction(int(a == 0))] for a in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col] / aug[col][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    b = [aug[a][n] / aug[a][a] for a in range(n)]
    return [float(w[i] * sum(vander[i][a] * b[a] for a in range(n))) for i in range(q)]


class TestEdgeTaps:
    @pytest.mark.parametrize("q,degree,kind", [(5, 2, "constant"), (25, 4, "quadratic"),
                                               (51, 4, "triangular")])
    def test_every_row_matches_exact_solve(self, q, degree, kind):
        spec = make_spec(q, degree, kind)
        taps = edge_taps(spec)
        js = [j for j in range(1, q + 1) if j != spec.m]
        assert taps.shape == (len(js), q) == (2 * (spec.m - 1), q)
        for row, j in zip(taps, js):
            assert_allclose(row, exact_off_center_taps(spec, j), rtol=0, atol=1e-12,
                            err_msg=f"j={j}")

    def test_published_endpoint_row(self):
        assert_allclose(edge_taps(make_spec(5, 2, "constant"))[0], ENDPOINT_Q5_D2_J1,
                        atol=1e-12)

    def test_asymmetric_weights(self):
        spec = make_spec(7, 2, custom_weights([1.0, 3.0, 2.0, 5.0, 1.0, 4.0, 2.0]))
        js = [1, 2, 3, 5, 6, 7]
        for row, j in zip(edge_taps(spec), js):
            assert_allclose(row, exact_off_center_taps(spec, j), rtol=0, atol=1e-12)

    def test_window_of_one_has_no_edges(self):
        assert edge_taps(make_spec(1, 0)).shape == (0, 1)
        assert edge_taps(make_spec(1, 1, "quadratic")).shape == (0, 1)

    def test_needs_centered_spec(self):
        with pytest.raises(ValueError, match="center-evaluated"):
            edge_taps(make_spec(5, 2, j=2))

    def test_overparameterized_off_center_fit(self):
        # the centered design uses 3 columns; the off-center fit needs 6
        with pytest.raises(ValueError, match="6 basis columns exceed window length 5"):
            edge_taps(make_spec(5, 5))

    def test_dc_gain_check_fires_on_every_row(self):
        with pytest.raises(ValueError, match="taps must sum to 1, got 1.0000000"):
            edge_taps(make_spec(1001, 20))

    @pytest.mark.parametrize("q,degree", [(1001, 40), (4001, 30)])
    def test_not_positive_definite_is_linalg_error(self, q, degree):
        spec = make_spec(q, degree)
        with pytest.raises(np.linalg.LinAlgError):
            design_coefficients(spec)
        with pytest.raises(np.linalg.LinAlgError):
            edge_taps(spec)


class TestOrthonormalRoute:
    def test_matches_quadratic_closed_form(self):
        c = design_via_orthonormal_basis(make_spec(5, 0, "quadratic"))
        assert_allclose(c.as_array(), QUAD_Q5_D0, atol=1e-12)

    def test_matches_classic_table(self):
        c = design_via_orthonormal_basis(make_spec(5, 2, "constant"))
        assert_allclose(c.as_array(), CLASSIC_Q5_D2, atol=1e-12)

    def test_q1_identity(self):
        assert design_via_orthonormal_basis(make_spec(1, 0, "triangular")).taps == (1.0,)

    @pytest.mark.parametrize("q", [3, 5, 9, 25, 51])
    @pytest.mark.parametrize("degree", [0, 2, 4])
    @pytest.mark.parametrize("kind", ["constant", "triangular", "quadratic"])
    def test_agrees_with_normal_equations(self, q, degree, kind):
        spec = make_spec(q, degree, kind)
        if spec.n_columns > spec.m:
            pytest.skip("over-parameterized center fit")
        a = design_coefficients(spec).as_array()
        b = design_via_orthonormal_basis(spec).as_array()
        assert np.max(np.abs(a - b)) < 1e-9

    def test_rejects_off_center(self):
        with pytest.raises(ValueError, match="center-evaluated"):
            design_via_orthonormal_basis(make_spec(5, 0, "constant", j=2))

    @pytest.mark.parametrize("q,degree,kind", [(9, 4, "constant"), (13, 6, "quadratic"),
                                               (7, 2, "triangular")])
    def test_basis_is_weight_orthonormal(self, q, degree, kind):
        spec = make_spec(q, degree, kind)
        basis = build_orthonormal_basis(spec)
        w = spec.weight.as_array()
        gram = basis.columns.T @ (w[:, None] * basis.columns)
        assert np.max(np.abs(gram - np.eye(spec.n_columns))) < 1e-9

    def test_eigenvalues_attached_only_for_quadratic(self):
        assert build_orthonormal_basis(make_spec(7, 2, "quadratic")).eigenvalues == (1.0, 6.0)
        assert build_orthonormal_basis(make_spec(7, 2, "constant")).eigenvalues is None


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


class TestWeightDerivative:
    def test_q1_derivative_is_zero(self):
        assert_allclose(coefficient_weight_derivative(make_spec(1, 0, "constant"), 1),
                        [0.0], rtol=0, atol=0)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="outside"):
            coefficient_weight_derivative(make_spec(5, 0, "constant"), 6)

    @pytest.mark.parametrize("q,degree,kind", [(5, 0, "constant"), (5, 0, "quadratic"),
                                               (7, 2, "triangular"), (9, 4, "quadratic")])
    def test_matches_central_finite_differences(self, q, degree, kind):
        spec = make_spec(q, degree, kind)
        w0 = spec.weight.as_array()
        for k in range(1, q + 1):
            analytic = coefficient_weight_derivative(spec, k)
            h = 1e-6 * w0[k - 1]
            for sign, store in ((+1, "hi"), (-1, "lo")):
                w = w0.copy()
                w[k - 1] += sign * h
                c = design_coefficients(FilterSpec(q, degree, custom_weights(w))).as_array()
                if store == "hi":
                    hi = c
                else:
                    lo = c
            fd = (hi - lo) / (2.0 * h)
            scale = max(1.0, np.max(np.abs(fd)))
            assert np.max(np.abs(analytic - fd)) < 1e-6 * scale, (q, degree, kind, k)


class TestFilterCoefficientsValidation:
    def test_rejects_wrong_dc_gain(self):
        with pytest.raises(ValueError, match="sum to 1"):
            FilterCoefficients((0.5, 0.6), make_spec(2, 0, "constant", j=1))

    def test_rejects_asymmetric_centered_taps(self):
        with pytest.raises(ValueError, match="symmetric"):
            FilterCoefficients((0.5, 0.2, 0.3), make_spec(3, 0, "constant"))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 3 taps"):
            FilterCoefficients((1.0,), make_spec(3, 0, "constant"))

    def test_asymmetric_weights_allow_asymmetric_taps(self):
        spec = FilterSpec(q=3, degree=0, weight=custom_weights([1.0, 1.0, 2.0]))
        c = design_coefficients(spec)
        assert abs(sum(c.taps) - 1.0) < 1e-12
        assert c.taps[0] != c.taps[2]
