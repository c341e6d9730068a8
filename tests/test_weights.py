import numpy as np
import pytest
from numpy.testing import assert_allclose

from wsavgol.weights import (
    SecondDifferenceMatrix,
    WeightVector,
    constant_weights,
    custom_weights,
    quadratic_weights,
    second_difference_matrix,
    solve_tridiagonal,
    triangular_weights,
    weights_by_tridiagonal_solve,
)


class TestConstantWeights:
    def test_q1(self):
        assert constant_weights(1).values == (1.0,)

    def test_q5(self):
        assert constant_weights(5).values == (1.0,) * 5

    def test_q2(self):
        assert constant_weights(2).values == (1.0, 1.0)

    def test_kind(self):
        assert constant_weights(3).kind == "constant"


class TestTriangularWeights:
    def test_q3(self):
        assert_allclose(triangular_weights(3).values, [0.5, 1.0, 0.5], rtol=0, atol=0)

    def test_q5(self):
        assert_allclose(triangular_weights(5).values, [1 / 3, 2 / 3, 1.0, 2 / 3, 1 / 3],
                        rtol=1e-15)

    def test_q1(self):
        assert triangular_weights(1).values == (1.0,)

    @pytest.mark.parametrize("q", [2, 3, 4, 7, 10, 33])
    def test_matches_absolute_value_form(self, q):
        got = triangular_weights(q).as_array()
        i = np.arange(1, q + 1)
        assert_allclose(got, 1.0 - np.abs(1.0 - 2.0 * i / (q + 1)), rtol=1e-15)

    @pytest.mark.parametrize("q", [5, 9, 15])
    def test_single_maximum_at_center_for_odd_q(self, q):
        vals = triangular_weights(q).values
        m = (q + 1) // 2
        assert vals[m - 1] == max(vals)
        assert vals.count(max(vals)) == 1


class TestQuadraticWeights:
    def test_q1(self):
        assert quadratic_weights(1).values == (0.5,)

    def test_q3(self):
        assert quadratic_weights(3).values == (1.5, 2.0, 1.5)

    def test_q5(self):
        assert quadratic_weights(5).values == (2.5, 4.0, 4.5, 4.0, 2.5)

    @pytest.mark.parametrize("q", [1, 2, 5, 8, 21, 100])
    def test_second_difference_of_extended_weights_is_one(self, q):
        # padding with zeros at both ends, -(w[i-1] - 2 w[i] + w[i+1]) == 1
        # at every interior index: the quadratic-polynomial property.
        w = np.concatenate([[0.0], quadratic_weights(q).as_array(), [0.0]])
        second = -(w[:-2] - 2.0 * w[1:-1] + w[2:])
        assert_allclose(second, np.ones(q), atol=1e-10)

    @pytest.mark.parametrize("q", [1, 4, 7, 50, 201])
    def test_applying_t_gives_all_ones(self, q):
        t = SecondDifferenceMatrix(q)
        assert_allclose(t.apply(quadratic_weights(q).as_array()), np.ones(q), atol=1e-10)


class TestFactoryFormulas:
    """The factories evaluate their formulas on numpy arrays; the values
    are those of the scalar formulas, bit for bit."""

    def test_triangular_matches_scalar_formula(self):
        for q in range(1, 402):
            scalar = tuple(2.0 * min(i, q + 1 - i) / (q + 1) for i in range(1, q + 1))
            assert triangular_weights(q).values == scalar, q

    def test_quadratic_matches_scalar_formula(self):
        for q in range(1, 402):
            scalar = tuple(0.5 * i * (q + 1 - i) for i in range(1, q + 1))
            assert quadratic_weights(q).values == scalar, q

    @pytest.mark.parametrize("factory", [triangular_weights, quadratic_weights])
    def test_values_are_python_floats(self, factory):
        assert all(type(v) is float for v in factory(9).values)


class TestTridiagonalSolve:
    def test_q1(self):
        assert weights_by_tridiagonal_solve(1).values == (0.5,)

    def test_q5(self):
        assert_allclose(weights_by_tridiagonal_solve(5).values,
                        [2.5, 4.0, 4.5, 4.0, 2.5], rtol=1e-12)

    def test_q3_product_recovers_ones(self):
        t = second_difference_matrix(3)
        assert_allclose(t @ np.array([1.5, 2.0, 1.5]), np.ones(3), rtol=0, atol=0)

    def test_matches_closed_form_up_to_q201(self):
        for q in range(1, 202):
            solved = weights_by_tridiagonal_solve(q).as_array()
            closed = quadratic_weights(q).as_array()
            assert np.max(np.abs(solved - closed)) <= 1e-10 * np.max(closed), f"q={q}"

    def test_generic_solver_against_dense(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 16):
            diag = 3.0 + rng.uniform(0, 1, n)
            lower = rng.uniform(-1, 1, n - 1)
            upper = rng.uniform(-1, 1, n - 1)
            rhs = rng.uniform(-2, 2, n)
            dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
            assert_allclose(solve_tridiagonal(lower, diag, upper, rhs),
                            np.linalg.solve(dense, rhs), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            solve_tridiagonal([1.0], [2.0, 2.0, 2.0], [1.0, 1.0], [1.0, 1.0, 1.0])


class TestSecondDifferenceMatrix:
    def test_dense_layout(self):
        t = second_difference_matrix(4)
        expected = np.array(
            [
                [2, -1, 0, 0],
                [-1, 2, -1, 0],
                [0, -1, 2, -1],
                [0, 0, -1, 2],
            ],
            dtype=float,
        )
        assert_allclose(t, expected, rtol=0, atol=0)

    def test_row_sums(self):
        t = second_difference_matrix(6)
        sums = t.sum(axis=1)
        assert sums[0] == 1.0 and sums[-1] == 1.0
        assert_allclose(sums[1:-1], np.zeros(4), rtol=0, atol=0)

    def test_symmetry(self):
        t = second_difference_matrix(9)
        assert_allclose(t, t.T, rtol=0, atol=0)

    @pytest.mark.parametrize("q", [1, 2, 5, 17])
    def test_apply_matches_dense(self, q):
        rng = np.random.default_rng(q)
        v = rng.standard_normal(q)
        t = SecondDifferenceMatrix(q)
        assert_allclose(t.apply(v), t.dense() @ v, rtol=1e-14, atol=1e-14)

    def test_negation_is_padded_second_difference(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(8)
        padded = np.concatenate([[0.0], v, [0.0]])
        second = padded[:-2] - 2.0 * padded[1:-1] + padded[2:]
        assert_allclose(-SecondDifferenceMatrix(8).apply(v), second, rtol=1e-14, atol=1e-14)

    def test_apply_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length-3"):
            SecondDifferenceMatrix(3).apply([1.0, 2.0])

    def test_apply_to_a_stack_matches_each_vector(self):
        stack = np.random.default_rng(4).standard_normal((3, 2, 7))
        t = SecondDifferenceMatrix(7)
        got = t.apply(stack)
        for idx in np.ndindex(stack.shape[:-1]):
            assert_allclose(got[idx], t.apply(stack[idx]), rtol=0, atol=0)

    def test_apply_rejects_a_stack_of_wrong_length(self):
        with pytest.raises(ValueError, match="length-3"):
            SecondDifferenceMatrix(3).apply(np.ones((2, 4)))


class TestValidation:
    @pytest.mark.parametrize("func", [constant_weights, triangular_weights,
                                      quadratic_weights, weights_by_tridiagonal_solve])
    def test_rejects_bad_window(self, func):
        with pytest.raises(ValueError, match=">= 1"):
            func(0)
        with pytest.raises(ValueError, match=">= 1"):
            func(-3)

    def test_rejects_nonpositive_custom(self):
        with pytest.raises(ValueError, match="strictly positive"):
            custom_weights([1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="strictly positive"):
            custom_weights([1.0, -2.0])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            custom_weights([1.0, float("nan")])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown weight kind"):
            WeightVector((1.0, 1.0), "parabolic")

    def test_rejects_asymmetric_quadratic(self):
        with pytest.raises(ValueError, match="symmetric"):
            WeightVector((1.0, 2.0, 3.0), "quadratic")

    def test_rejects_unequal_constant(self):
        with pytest.raises(ValueError, match="equal"):
            WeightVector((1.0, 2.0), "constant")

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            WeightVector((), "custom")


class TestSymmetry:
    @pytest.mark.parametrize("q", [1, 2, 3, 8, 9, 40, 41])
    def test_builtin_profiles_exactly_symmetric(self, q):
        for factory in (triangular_weights, quadratic_weights):
            vals = factory(q).values
            assert vals == vals[::-1]
