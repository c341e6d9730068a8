import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wsavgol import verify
from wsavgol.cli import main
from wsavgol.design import design, orthonormalize_columns
from wsavgol.metrics import smoothing_parameter
from wsavgol.verify import (
    VerificationReport,
    central_binomial,
    certify,
    certify_window,
    eigenvalues_of_tw,
    expected_tw_eigenvalues,
    hessian,
    lambda_min_formula,
    lambda_min_monotonicity,
    lambda_min_observed,
    orthonormal_polynomial_basis,
    perturbation_minimality,
    projected_operator_spectrum,
    smoothness_gradient,
    smoothness_of_weights,
    split_null_spectrum,
)
from wsavgol.weights import (
    SecondDifferenceMatrix,
    constant_weights,
    quadratic_weights,
    triangular_weights,
)


def _pairs(max_q, max_n=None):
    for q in range(3, max_q + 1, 2):
        m = (q + 1) // 2
        top = m - 1 if max_n is None else min(max_n, m - 1)
        for n in range(1, top + 1):
            yield q, n


class TestTwEigensystem:
    def test_q1(self):
        assert_allclose(eigenvalues_of_tw(1), [1.0], rtol=1e-14)

    def test_q3(self):
        eig = eigenvalues_of_tw(3)
        assert_allclose(eig, [1.0, 3.0, 6.0], rtol=1e-12)
        # cross-check via trace and determinant of the 3x3 product
        t = SecondDifferenceMatrix(3).dense()
        tw = t @ np.diag(quadratic_weights(3).as_array())
        assert_allclose(np.trace(tw), 10.0, rtol=1e-14)
        assert_allclose(np.linalg.det(tw), 18.0, rtol=1e-12)

    def test_q5(self):
        assert_allclose(eigenvalues_of_tw(5), [1.0, 3.0, 6.0, 10.0, 15.0], rtol=1e-12)

    @pytest.mark.parametrize("q", range(1, 13))
    def test_spectrum_matches_prediction(self, q):
        observed = eigenvalues_of_tw(q)
        expected = expected_tw_eigenvalues(q)
        assert np.max(np.abs(observed - expected) / expected) < 1e-8

    @pytest.mark.parametrize("q,n", list(_pairs(11, 4)))
    def test_orthonormality_and_eigen_relation(self, q, n):
        w = quadratic_weights(q).as_array()
        a = orthonormal_polynomial_basis(q, n)
        gram = a.T @ (w[:, None] * a)
        assert np.max(np.abs(gram - np.eye(n))) < 1e-9
        t = SecondDifferenceMatrix(q).dense()
        lam = expected_tw_eigenvalues(q)[:n]
        assert np.max(np.abs(t @ (w[:, None] * a) - a * lam)) < 1e-8

    def test_basis_size_validation(self):
        with pytest.raises(ValueError, match="outside"):
            orthonormal_polynomial_basis(3, 4)


class TestGradient:
    @pytest.mark.parametrize("q,n", [(5, 1), (7, 2), (11, 3), (25, 4)])
    def test_zero_at_quadratic_weights(self, q, n):
        grad = smoothness_gradient(q, n, quadratic_weights(q))
        assert np.max(np.abs(grad)) < 1e-10

    def test_nonzero_at_constant_weights(self):
        grad = smoothness_gradient(5, 1, constant_weights(5))
        assert np.max(np.abs(grad)) > 1e-4

    @pytest.mark.parametrize("q,n,kind", [(5, 1, "constant"), (7, 2, "constant"),
                                          (9, 3, "triangular"),
                                          pytest.param(7, 2, [1.0, 3.0, 2.0, 5.0, 1.0, 4.0, 2.0],
                                                       id="7-2-asymmetric"),
                                          (9, 4, "triangular")])
    def test_matches_finite_differences(self, q, n, kind):
        factories = {"constant": constant_weights, "triangular": triangular_weights}
        w0 = np.asarray(kind) if isinstance(kind, list) else factories[kind](q).as_array()
        analytic = smoothness_gradient(q, n, w0)
        fd = np.empty(q)
        for k in range(q):
            h = 1e-6 * w0[k]
            hi, lo = w0.copy(), w0.copy()
            hi[k] += h
            lo[k] -= h
            fd[k] = (smoothness_of_weights(q, n, hi) - smoothness_of_weights(q, n, lo)) / (2 * h)
        scale = np.maximum(np.abs(fd), 1e-3 * np.max(np.abs(fd)))
        assert np.max(np.abs(analytic - fd) / scale) < 1e-6

    @pytest.mark.parametrize("factor", [4.0 ** 200, 4.0 ** -200])
    def test_scales_inversely_with_the_weights(self, factor):
        w = triangular_weights(9).as_array()
        grad = smoothness_gradient(9, 2, w)
        assert np.array_equal(smoothness_gradient(9, 2, w * factor), grad / factor)

    def test_basis_size_validation(self):
        with pytest.raises(ValueError, match="n < m"):
            smoothness_gradient(5, 3, quadratic_weights(5))

    def test_even_window_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            smoothness_gradient(4, 1, quadratic_weights(4))


class TestHessian:
    @pytest.mark.parametrize("q,n", list(_pairs(13, 4)))
    def test_positive_semidefinite(self, q, n):
        eig = np.linalg.eigvalsh(hessian(q, n))
        assert eig.min() >= -1e-10

    @pytest.mark.parametrize("q,n", [(5, 1), (7, 2)])
    def test_matches_finite_difference_hessian(self, q, n):
        w0 = quadratic_weights(q).as_array()
        h_analytic = hessian(q, n)
        fd = np.empty((q, q))
        steps = 1e-4 * w0
        s00 = smoothness_of_weights(q, n, w0)
        for i in range(q):
            for j in range(q):
                if i == j:
                    w = w0.copy()
                    w[i] += steps[i]
                    s_p = smoothness_of_weights(q, n, w)
                    w = w0.copy()
                    w[i] -= steps[i]
                    s_m = smoothness_of_weights(q, n, w)
                    fd[i, i] = (s_p - 2 * s00 + s_m) / steps[i] ** 2
                else:
                    w = w0.copy()
                    w[i] += steps[i]
                    w[j] += steps[j]
                    s_pp = smoothness_of_weights(q, n, w)
                    w = w0.copy()
                    w[i] += steps[i]
                    w[j] -= steps[j]
                    s_pm = smoothness_of_weights(q, n, w)
                    w = w0.copy()
                    w[i] -= steps[i]
                    w[j] += steps[j]
                    s_mp = smoothness_of_weights(q, n, w)
                    w = w0.copy()
                    w[i] -= steps[i]
                    w[j] -= steps[j]
                    s_mm = smoothness_of_weights(q, n, w)
                    fd[i, j] = (s_pp - s_pm - s_mp + s_mm) / (4 * steps[i] * steps[j])
        rel = np.linalg.norm(h_analytic - fd) / np.linalg.norm(fd)
        assert rel < 1e-4


class TestProjectedOperator:
    @pytest.mark.parametrize("q,n", [(q, n) for q in range(2, 13) for n in range(1, q)])
    def test_null_count_and_bounds(self, q, n):
        spectrum = projected_operator_spectrum(q, n)
        null, active = split_null_spectrum(spectrum, n)
        assert null.size == n
        assert np.all(active > 0.0)
        assert np.all(spectrum < 4.0)

    def test_q3_n1_closed_form(self):
        assert_allclose(lambda_min_observed(3, 1), 2.0, atol=1e-10)
        assert_allclose(lambda_min_formula(3, 1), 2.0, rtol=1e-15)

    def test_q2_n1_both_closed_forms_agree(self):
        # n=1 equals n=q-1 at q=2; the two formulas express the same number
        assert_allclose(lambda_min_formula(2, 1), 3.0, rtol=1e-14)
        assert_allclose(4.0 - 2.0 / 3.0 - 2.0 / central_binomial(2), 3.0, rtol=1e-14)
        assert_allclose(lambda_min_observed(2, 1), 3.0, atol=1e-10)

    def test_q4_n3_closed_form(self):
        expected = 4.0 - 2.0 / 5.0 - 2.0 / 70.0
        assert_allclose(lambda_min_formula(4, 3), expected, rtol=1e-15)
        assert_allclose(lambda_min_observed(4, 3), expected, atol=1e-8)

    @pytest.mark.parametrize("q", range(2, 13))
    def test_closed_forms_match_spectrum(self, q):
        for n in {1, q - 1}:
            observed = lambda_min_observed(q, n)
            formula = lambda_min_formula(q, n)
            assert abs(observed - formula) <= 1e-8 * formula, (q, n)

    @pytest.mark.parametrize("q", [3, 8, 12])
    def test_monotonic_in_basis_size(self, q):
        assert lambda_min_monotonicity(q)

    def test_no_closed_form_in_the_middle(self):
        with pytest.raises(ValueError, match="no closed form"):
            lambda_min_formula(9, 4)

    def test_basis_size_validation(self):
        with pytest.raises(ValueError, match="n < q"):
            projected_operator_spectrum(5, 5)


class TestCentralBinomial:
    def test_small_values(self):
        assert central_binomial(0) == 1.0
        assert central_binomial(2) == 6.0
        assert central_binomial(5) == 252.0

    def test_exact_path_boundary(self):
        assert central_binomial(30) == float(math.comb(60, 30))

    def test_log_path_agrees_with_exact(self):
        # q=30 uses the exact path; evaluate the lgamma expression there too
        exact = float(math.comb(60, 30))
        via_log = math.exp(math.lgamma(61) - 2.0 * math.lgamma(31))
        assert abs(via_log - exact) / exact < 1e-10
        # beyond the boundary the log path stays finite and positive
        assert central_binomial(40) > central_binomial(31) > 0.0


    @pytest.mark.parametrize("q", [31, 40, 100, 511])
    def test_correctly_rounded_beyond_thirty(self, q):
        assert central_binomial(q) == float(math.comb(2 * q, q))

class TestPerturbation:
    @pytest.mark.parametrize("q,n", [(5, 1), (9, 2), (13, 3)])
    def test_random_perturbations_never_reduce_smoothness(self, q, n):
        worst = perturbation_minimality(q, n, trials=100, seed=0)
        assert worst >= -1e-12

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("q", [5, 9, 15, 31])
    def test_matches_per_trial_loop(self, q, seed):
        # reference: one draw and one projection per trial
        w = quadratic_weights(q).as_array()
        for n in range(1, (q + 1) // 2):
            s_opt = smoothness_of_weights(q, n, w)
            rng = np.random.default_rng(seed)
            worst = math.inf
            for _ in range(100):
                delta = rng.uniform(-1.0, 1.0, size=q)
                worst = min(worst, smoothness_of_weights(q, n, w * (1.0 + 1e-2 * delta)) - s_opt)
            assert abs(perturbation_minimality(q, n, seed=seed) - worst) <= 1e-15, n

    @pytest.mark.parametrize("q,n,kind", [(5, 1, "quadratic"), (9, 3, "triangular"),
                                          pytest.param(7, 2, [1.0, 3.0, 2.0, 5.0, 1.0, 4.0, 2.0],
                                                       id="7-2-asymmetric")])
    def test_smoothness_matches_designed_filter(self, q, n, kind):
        coeffs = design(q, n - 1, kind)
        assert_allclose(smoothness_of_weights(q, n, coeffs.spec.weight),
                        smoothing_parameter(coeffs), rtol=1e-13)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError, match="epsilon"):
            perturbation_minimality(5, 1, epsilon=1.5)


class TestCertify:
    def test_full_report_at_small_pair(self):
        rep = certify(5, 2, seed=0)
        assert rep.passed
        assert rep.max_gradient_abs <= 1e-10
        assert rep.min_hessian_eigenvalue >= -1e-10
        assert rep.perturbation_min_delta >= -1e-12
        assert rep.eigenvalues_ok and rep.orthonormality_ok and rep.eigen_relation_ok
        assert rep.eigenvalues_tw is not None
        assert rep.lambda_min_observed is not None

    def test_lambda_formula_checked_at_n1(self):
        rep = certify(7, 1)
        assert rep.lambda_formula_ok is True
        assert rep.lambda_min_formula is not None

    def test_eigen_checks_skipped_beyond_certified_range(self):
        rep = certify(15, 2)
        assert rep.eigenvalues_ok is None and rep.eigenvalues_tw is None
        assert rep.passed  # skipped checks do not fail the report

    def test_custom_weights_fail_stationarity(self):
        rep = certify(7, 1, weight=constant_weights(7).as_array())
        assert not rep.gradient_ok
        assert not rep.passed
        assert rep.perturbation_min_delta < 0.0  # the optimum beats this weighting

    @pytest.mark.parametrize("weights,passes", [(quadratic_weights, True),
                                                (triangular_weights, False)])
    def test_custom_weight_report_has_no_hessian(self, weights, passes):
        rep = certify(9, 3, weight=weights(9))
        assert rep.min_hessian_eigenvalue is None and rep.hessian_ok is None
        assert rep.hessian_spectrum == ()
        assert rep.passed is passes and rep.gradient_ok is passes
        assert rep.perturbation_ok is passes

    def test_report_self_consistency(self):
        rep = certify(9, 2)
        assert rep.gradient_ok == (rep.max_gradient_abs <= 1e-10)
        assert rep.hessian_ok == (rep.min_hessian_eigenvalue >= -1e-10)
        assert rep.perturbation_ok == (rep.perturbation_min_delta >= -1e-12)


class TestBasisHelpers:
    def test_orthonormalize_rejects_more_columns_than_samples(self):
        # five polynomials on four samples: the fifth depends on the others
        with pytest.raises(np.linalg.LinAlgError, match="degenerate"):
            orthonormalize_columns(np.ones(4), 5)

    def test_stack_matches_per_slice_calls(self):
        stack = np.random.default_rng(4).uniform(0.1, 2.0, size=(2, 3, 9))
        batched = orthonormalize_columns(stack, 4)
        assert batched.shape == (2, 3, 9, 4)
        for idx in np.ndindex(2, 3):
            assert_allclose(batched[idx], orthonormalize_columns(stack[idx], 4),
                            rtol=0, atol=1e-16)

    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_stack_with_one_degenerate_slice_raises(self, slot):
        # a quadratic fit seen through two samples has a dependent third column
        stack = np.ones((3, 5))
        stack[slot] = [1.0, 1e-30, 1e-30, 1e-30, 1.0]
        with pytest.raises(np.linalg.LinAlgError, match="weight-degenerate"):
            orthonormalize_columns(stack, 3)

    def test_full_power_basis_shape(self):
        # every degree 0..n-1, not the even-only basis of a centered design
        b = orthonormal_polynomial_basis(7, 3, constant_weights(7))
        assert b.shape == (7, 3)
        assert_allclose(b[:, 0], np.full(7, 1 / np.sqrt(7)), rtol=1e-15, atol=0)
        assert_allclose(b[:, 1], -b[::-1, 1], rtol=0, atol=1e-15)


def _window_pairs():
    """(q, n_max, seed): odd q from 3 to 31, n_max = min(7, m - 1), seeds 0 and 1."""
    for q in range(3, 32, 2):
        for seed in (0, 1):
            yield q, min(7, (q + 1) // 2 - 1), seed


def _assert_reports_match(got: VerificationReport, want: VerificationReport, atol=1e-15):
    """Every float field within atol, float tuples entry by entry; the rest equal."""
    for name in VerificationReport.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(a, float) or isinstance(b, float):
            assert abs(a - b) <= atol, (name, a, b)
        elif isinstance(a, tuple) and a:
            assert len(a) == len(b), name
            assert np.max(np.abs(np.subtract(a, b))) <= atol, name
        else:
            assert a == b, (name, a, b)


class TestCertifyWindow:
    @pytest.mark.parametrize("q,n_max,seed", list(_window_pairs()))
    def test_report_n_equals_certify_at_basis_size_n(self, q, n_max, seed):
        reports = certify_window(q, n_max, seed=seed)
        assert [rep.n for rep in reports] == list(range(1, n_max + 1))
        for rep in reports:
            assert rep.q == q
            _assert_reports_match(rep, certify(q, rep.n, seed=seed))

    @pytest.mark.parametrize("q,n_max,seed", list(_window_pairs()))
    def test_rows_equal_the_per_size_functions(self, q, n_max, seed):
        w = quadratic_weights(q)
        for rep in certify_window(q, n_max, seed=seed):
            n = rep.n
            assert_allclose(rep.gradient, smoothness_gradient(q, n, w), rtol=0, atol=1e-15)
            least = np.linalg.eigvalsh(hessian(q, n)).min()
            assert abs(rep.min_hessian_eigenvalue - least) <= 1e-15
            assert abs(rep.perturbation_min_delta
                       - perturbation_minimality(q, n, seed=seed)) <= 1e-15
            if q <= 12:
                assert abs(rep.lambda_min_observed - lambda_min_observed(q, n)) <= 1e-15

    @pytest.mark.parametrize("weights", [constant_weights, triangular_weights])
    def test_custom_weights(self, weights):
        q, w = 9, weights(9)
        reports = certify_window(q, 4, weight=w)
        for rep in reports:
            n = rep.n
            _assert_reports_match(rep, certify(q, n, weight=w))
            assert_allclose(rep.gradient, smoothness_gradient(q, n, w), rtol=0, atol=1e-15)
            gap = (smoothness_of_weights(q, n, quadratic_weights(q))
                   - smoothness_of_weights(q, n, w))
            assert abs(rep.perturbation_min_delta - gap) <= 1e-15
            assert rep.min_hessian_eigenvalue is None and rep.hessian_spectrum == ()
            assert not rep.passed

    def test_verify_builds_one_basis_per_window(self, monkeypatch, capsys):
        builds = []

        def counted(*args, **kwargs):
            builds.append(1)
            return orthonormalize_columns(*args, **kwargs)

        monkeypatch.setattr(verify, "orthonormalize_columns", counted)
        assert main(["verify", "--max-window", "31", "--max-degree", "6"]) == 0
        capsys.readouterr()
        assert len(builds) == 15  # one per odd window 3..31

    @pytest.mark.parametrize("call", [
        lambda w: certify(7, 1, weight=w),
        lambda w: orthonormal_polynomial_basis(7, 2, w),
        lambda w: smoothness_of_weights(7, 2, w),
        lambda w: smoothness_gradient(7, 2, w),
    ], ids=["certify", "basis", "smoothness", "gradient"])
    def test_weight_length_names_the_window(self, call):
        with pytest.raises(ValueError) as info:
            call(constant_weights(5))
        assert str(info.value) == "weight vector has length 5, window needs 7"

    def test_negative_seed_names_the_seed(self):
        for call in (lambda: certify(5, 1, seed=-1), lambda: certify_window(9, 3, seed=-1)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == "seed must be >= 0, got -1"

    @pytest.mark.parametrize("weight_file", [False, True])
    def test_negative_seed_through_main(self, capsys, tmp_path, weight_file):
        argv = ["verify", "--max-window", "5", "--seed", "-1"]
        if weight_file:
            path = tmp_path / "w.txt"
            path.write_text("1.0 2.0 3.0 2.0 1.0\n")
            argv += ["--weight-file", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("q,n_max,match", [(8, 2, "odd"), (9, 5, "n < m = 5"),
                                               (9, 0, "n < m = 5")])
    def test_window_and_size_validation(self, q, n_max, match):
        with pytest.raises(ValueError, match=match):
            certify_window(q, n_max)
