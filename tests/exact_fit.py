"""Exact taps of a weighted least-squares polynomial fit, in rationals.

The reference the float design kernel is held to.  It shares nothing
with the package's numerics: the weights are taken as the exact
rationals their floats stand for and scaled to integers (which leaves
the taps unchanged), the normal matrix of the power basis x_i = i - j
is assembled from the weighted moments sum_i w_i x_i^p, and the system
G b = e_0 is solved by Fraction elimination.  Tap i is then
w_i sum_a b_a x_i^a.  A (4001, 30) fit takes well under a second.
exact_taps_by_differences gives the same taps from the complement of
the polynomials, for fits that nearly interpolate.
"""

from fractions import Fraction
from math import comb, lcm


def _integer_weights(spec) -> list[int]:
    """The weights as exact rationals times the least integer that clears
    their denominators."""
    frac = [Fraction(v) for v in spec.weight.values]
    scale = lcm(*(f.denominator for f in frac))
    return [int(f * scale) for f in frac]


def _solve(aug) -> list[Fraction]:
    """The solution b of the augmented system [G | g], by Fraction elimination."""
    n = len(aug)
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(col + 1, n):
            f = aug[r][col] / aug[col][col]
            if f:
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    b = [Fraction(0)] * n
    for a in range(n - 1, -1, -1):
        rest = sum(aug[a][k] * b[k] for k in range(a + 1, n))
        b[a] = (aug[a][n] - rest) / aug[a][a]
    return b


def exact_taps(spec, j=None) -> list[Fraction]:
    """Exact taps evaluating spec's degree-`degree` fit at 1-based index j.

    j defaults to the spec's own evaluation index.  Every degree
    0..degree is fitted, also at the center, so the result is the true
    fit whatever the weights' symmetry.
    """
    q, n = spec.q, spec.degree + 1
    j = spec.evaluation_index if j is None else j
    w = _integer_weights(spec)
    x = range(1 - j, q + 1 - j)
    moments = [0] * (2 * n - 1)
    for wi, xi in zip(w, x):
        term = wi
        for p in range(2 * n - 1):
            moments[p] += term
            term *= xi
    # Augmented [G | e_0]: x_j = 0, so evaluating at j selects b_0.
    aug = [[Fraction(moments[a + b]) for b in range(n)] + [Fraction(int(a == 0))]
           for a in range(n)]
    b = _solve(aug)
    # Integer numerators over one denominator keep the evaluation exact and fast.
    den = lcm(*(v.denominator for v in b))
    num = [int(v * den) for v in b]
    taps = []
    for wi, xi in zip(w, x):
        acc = 0
        for coef in reversed(num):
            acc = acc * xi + coef
        taps.append(Fraction(wi * acc, den))
    return taps


def exact_float_taps(spec, j=None) -> list[float]:
    """exact_taps rounded to the nearest floats."""
    return [float(t) for t in exact_taps(spec, j)]


def exact_taps_by_differences(spec, j=None) -> list[Fraction]:
    """exact_taps from the residual space: an r x r solve, r = q - degree - 1.

    Cheap where the power basis is dearest, as the fit nears
    interpolation.  Column k of N holds the (degree+1)-th difference
    weights (-1)^i C(degree+1, i) at samples k+i; its r columns span the
    vectors orthogonal to every polynomial of degree <= degree on the
    window.  The weighted residual of a fit lies in that span, so the
    fitted values are y - V N (N'VN)^-1 N'y for any V proportional to
    W^-1, here the integers lcm(w) / w_i, and the taps of row j are
    e_j - v_j N_j (N'VN)^-1 N'.
    """
    q, d = spec.q, spec.degree
    j = spec.evaluation_index if j is None else j
    w = _integer_weights(spec)
    big = lcm(*w)
    v = [big // wi for wi in w]
    r = q - d - 1
    diff = [(-1) ** i * comb(d + 1, i) for i in range(d + 2)]
    cols = [[0] * k + diff + [0] * (r - 1 - k) for k in range(r)]
    # Augmented [N'VN | N_j'].
    aug = [[Fraction(sum(a * b * vi for a, b, vi in zip(ci, ck, v))) for ck in cols]
           + [Fraction(ci[j - 1])] for ci in cols]
    z = _solve(aug)
    den = lcm(*(zk.denominator for zk in z))
    num = [int(zk * den) * v[j - 1] for zk in z]
    return [Fraction(int(i == j - 1) * den - sum(nk * ck[i] for nk, ck in zip(num, cols)), den)
            for i in range(q)]
