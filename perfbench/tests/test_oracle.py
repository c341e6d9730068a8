from fractions import Fraction

import numpy as np
import pytest

import oracle
from wsavgol import quadratic_weight_constant_fit


def test_classic_five_point_quadratic_fit():
    np.testing.assert_allclose(oracle.reference_taps(5, 2, "constant") * 35.0,
                               [-3.0, 12.0, 17.0, 12.0, -3.0], atol=1e-12)


@pytest.mark.parametrize("q", [5, 25, 101])
def test_quadratic_weight_closed_form(q):
    np.testing.assert_allclose(oracle.reference_taps(q, 0, "quadratic"),
                               quadratic_weight_constant_fit(q).taps, atol=1e-14)


@pytest.mark.parametrize("q,d", [(5, 2), (25, 4), (51, 4)])
def test_constant_weights_match_scipy_at_every_position(q, d):
    signal = pytest.importorskip("scipy.signal")
    hat = oracle.reference_hat(q, d, "constant")
    np.testing.assert_allclose(hat[(q - 1) // 2], oracle.reference_taps(q, d, "constant"),
                               atol=1e-13)
    for pos in (0, 1, (q - 1) // 2, q - 1):
        np.testing.assert_allclose(hat[pos], signal.savgol_coeffs(q, d, pos=pos, use="dot"),
                                   atol=1e-10)


@pytest.mark.parametrize("kind", oracle.WEIGHT_KINDS)
def test_polyfit_reference_keeps_polynomials_of_the_fit_degree(kind):
    x = np.linspace(-1.0, 2.0, 300)
    y = 0.5 - x + 2.0 * x**2 - 0.7 * x**4
    np.testing.assert_allclose(oracle.reference_smooth(y, 25, 4, kind), y, atol=1e-10)
    np.testing.assert_allclose(oracle.reference_valid(y, 25, 4, kind), y[12:-12], atol=1e-10)


def test_weight_profiles_follow_their_definitions():
    np.testing.assert_allclose(oracle.reference_weights("quadratic", 5), [2.5, 4, 4.5, 4, 2.5])
    np.testing.assert_allclose(oracle.reference_weights("triangular", 5),
                               [1 / 3, 2 / 3, 1, 2 / 3, 1 / 3])


def _exact_taps(q, degree, weights, j):
    """Taps from the weighted normal equations solved in rationals."""
    x = [Fraction(i - j) for i in range(1, q + 1)]
    w = [Fraction(v) for v in weights]
    n = degree + 1
    rows = [[sum(w[i] * x[i] ** (a + b) for i in range(q)) for b in range(n)] + [Fraction(a == 0)]
            for a in range(n)]
    for c in range(n):
        for r in range(n):
            if r != c:
                f = rows[r][c] / rows[c][c]
                rows[r] = [u - f * v for u, v in zip(rows[r], rows[c])]
    z = [rows[r][n] / rows[r][r] for r in range(n)]
    return np.array([float(w[i] * sum(x[i] ** k * z[k] for k in range(n))) for i in range(q)])


@pytest.mark.parametrize("q,d,kind,j", [(101, 6, "constant", 1), (25, 4, "quadratic", 13),
                                        (51, 4, "triangular", 50)])
def test_reference_matches_an_exact_rational_solve(q, d, kind, j):
    weights = [Fraction(2 * min(i, q + 1 - i), q + 1) if kind == "triangular" else
               Fraction(i * (q + 1 - i), 2) if kind == "quadratic" else 1
               for i in range(1, q + 1)]
    np.testing.assert_allclose(oracle.reference_hat(q, d, kind)[j - 1],
                               _exact_taps(q, d, weights, j), atol=1e-14)
