"""Numerical certification that quadratic weighting minimizes smoothness.

The central claim this package is built around: among all strictly
positive diagonal residual weightings, the quadratic profile makes the
designed center filter's smoothing parameter s stationary and locally
minimal.  The supporting structure is the product of the
second-difference operator T with the diagonal weight matrix W: at the
quadratic profile its eigenvalues are i(i+1)/2 and its eigenvectors are
weight-orthogonal polynomials of increasing degree.

Everything here works with the full Legendre basis P_0, ..., P_{n-1}
(not the even-only basis the design module uses at the center), since
the eigenstructure enumerates polynomial degrees one by one.  All
checks are plain numerical linear algebra with pinned tolerances; the
module produces evidence, not proofs.

The certificate runs a whole window at once (certify_window).  The
quadratic weights and 100 randomly perturbed copies of them, one stack
drawn once per window, are orthonormalized in one batched call against
the Legendre basis of the largest size.  Column k of a basis from
design.orthonormalize_columns combines only the degrees 0..k, so the
basis of size n is its first n columns: the sizes nest, every size shares
the one perturbation stack, and the center taps of every size are one
cumulative sum over the columns (design.center_projections).  The
per-(q, n) functions below build the basis of one size and share their
formulas with the window through private helpers that take a basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import center_projections, legendre_basis, orthonormalize_columns
from .weights import (
    SecondDifferenceMatrix,
    WeightVector,
    _unit_scaled,
    custom_weights,
    quadratic_weights,
)

EIGENVALUE_RTOL = 1e-8
ORTHONORMALITY_TOL = 1e-9
EIGEN_RELATION_TOL = 1e-8
GRADIENT_TOL = 1e-10
HESSIAN_EIG_TOL = 1e-10
NULLSPACE_RTOL = 1e-9
PERTURBATION_TOL = 1e-12
LAMBDA_FORMULA_TOL = 1e-8

# The random multiplicative perturbations of the certificate: trial count
# and relative size.
PERTURBATION_TRIALS = 100
PERTURBATION_EPSILON = 1e-2

# Largest window for which the eigen-structure checks are certified;
# beyond this the package still runs but makes no eigen claims.
CERTIFIED_EIGEN_WINDOW = 12


def _weight_array(weight) -> np.ndarray:
    if not isinstance(weight, WeightVector):
        weight = custom_weights(weight)
    return weight.as_array()


def _check_center_size(q: int, n: int, what: str) -> None:
    """Raise unless q is odd and 1 <= n < m = (q+1)/2."""
    if q % 2 == 0:
        raise ValueError(f"{what} is defined for odd windows")
    m = (q + 1) // 2
    if not 1 <= n < m:
        raise ValueError(f"basis size {n} must satisfy 1 <= n < m = {m}")


def expected_tw_eigenvalues(q: int) -> np.ndarray:
    """The predicted spectrum i(i+1)/2, i = 1..q, ascending."""
    i = np.arange(1, q + 1, dtype=float)
    return 0.5 * i * (i + 1)


def eigenvalues_of_tw(q: int) -> np.ndarray:
    """Spectrum of T W at the quadratic weights, ascending.

    T W itself is not symmetric, but W^{1/2} T W^{1/2} is similar to it
    (W is positive diagonal), so a symmetric eigensolve suffices.
    """
    w = quadratic_weights(q).as_array()
    t = SecondDifferenceMatrix(q).dense()
    root = np.sqrt(w)
    sym = root[:, None] * t * root[None, :]
    return np.linalg.eigvalsh(sym)


def orthonormal_polynomial_basis(q: int, n: int, weight=None) -> np.ndarray:
    """Weight-orthonormal polynomials of degrees 0..n-1 (A'WA = I).

    Defaults to the quadratic weights, where the columns are
    eigenvectors of TW with eigenvalues 1, 3, 6, ..., n(n+1)/2.
    """
    w = quadratic_weights(q).as_array() if weight is None else _weight_array(weight)
    return _polynomial_basis(q, n, w)


def _polynomial_basis(q: int, n: int, w: np.ndarray) -> np.ndarray:
    if not 1 <= n <= q:
        raise ValueError(f"basis size {n} outside 1..{q}")
    return orthonormalize_columns(legendre_basis(q, n - 1), w)


def _center_projection(q: int, n: int, w: np.ndarray):
    """A and g = AA'u for the center selector u at basis size n; w may be a stack."""
    if q % 2 == 0:
        raise ValueError("center-based checks need an odd window")
    a = _polynomial_basis(q, n, w)
    return a, center_projections(a)[..., -1, :]


def _difference_energy(c: np.ndarray) -> np.ndarray:
    """s = c'Tc/2 along the last axis, as the zero-padded difference sum."""
    d = np.diff(c, axis=-1, prepend=0.0, append=0.0)
    return 0.5 * (d * d).sum(axis=-1)


def _smoothness(q: int, n: int, w: np.ndarray):
    """s of the size-n center taps at each weighting along the last axis of w.

    c does not depend on the scale of w; scaled weights keep W A A' u in range.
    """
    w = _unit_scaled(w)[0]
    _, g = _center_projection(q, n, w)
    return _difference_energy(w * g)


def _gradient(a: np.ndarray, g: np.ndarray, w: np.ndarray, k: int) -> np.ndarray:
    """g * [(I - PW) T c], c = Wg, at the weights w = 4^-k times the true ones,
    divided by 4^k: the gradient of s at the true weights."""
    tc = SecondDifferenceMatrix(w.size).apply(w * g)
    with np.errstate(over="ignore"):
        return np.ldexp(g * (tc - a @ (a.T @ (w * tc))), -2 * k)


def _projected_operator(a: np.ndarray) -> np.ndarray:
    """T - A L A' with L the eigenvalues matching A's columns."""
    q, n = a.shape
    lam = expected_tw_eigenvalues(q)[:n]
    return SecondDifferenceMatrix(q).dense() - (a * lam) @ a.T


def _hessian(g: np.ndarray, op: np.ndarray) -> np.ndarray:
    """diag(g) K diag(g), symmetrized, for the projected operator K = op."""
    h = (g[:, None] * op) * g[None, :]
    return 0.5 * (h + h.T)


def _operator_spectrum(op: np.ndarray) -> np.ndarray:
    """Ascending spectra of the symmetrized operators along the last two axes of op."""
    return np.linalg.eigvalsh(0.5 * (op + op.swapaxes(-1, -2)))


def _lambda_min(spectrum: np.ndarray, n: int) -> float:
    _, active = split_null_spectrum(spectrum, n)
    return float(active.min())


def _perturbed_weights(w: np.ndarray, trials: int, epsilon: float, seed: int) -> np.ndarray:
    """w and, below it, the trials rows w * (1 + epsilon * d), d uniform in
    [-1, 1]^q from one seeded draw of shape (trials, q)."""
    delta = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(trials, w.size))
    return np.vstack((w, w * (1.0 + epsilon * delta)))


def smoothness_of_weights(q: int, n: int, weight) -> float:
    """s of the size-n center filter designed at the given weights."""
    return float(_smoothness(q, n, _weight_array(weight)))


def smoothness_gradient(q: int, n: int, weight) -> np.ndarray:
    """Analytic gradient of s in the diagonal weights.

    Built from the tap derivative dc/dW_kk = g_k (I - WP) e_k paired
    with ds/dc = Tc, which collapses to

        grad_k = g_k * [(I - PW) T c]_k,   P = AA', g = Pu, c = Wg.

    At the quadratic weights the gradient vanishes (stationarity); at
    any other weighting it is generally nonzero and matches finite
    differences of s.  s does not change when w is scaled by 4^k, so the
    gradient is taken at the scaled weights and divided by 4^k; entries
    beyond the float range, as at weights near 1e-323, read inf.
    """
    _check_center_size(q, n, "gradient")
    w, k = _unit_scaled(_weight_array(weight))
    a, g = _center_projection(q, n, w)
    return _gradient(a, g, w, k)


def hessian(q: int, n: int) -> np.ndarray:
    """Hessian of s in the diagonal weights at the quadratic profile.

    H = diag(g) [T - A L A'] diag(g), symmetrized; L holds the
    eigenvalues (p+1)(p+2)/2 of the basis columns.  Positive
    semi-definiteness of this matrix, together with the vanishing
    gradient, is the local-minimum certificate.
    """
    _check_center_size(q, n, "hessian")
    a, g = _center_projection(q, n, quadratic_weights(q).as_array())
    return _hessian(g, _projected_operator(a))


def projected_operator_spectrum(q: int, n: int) -> np.ndarray:
    """Spectrum of T - A L A' at quadratic weights, ascending.

    Exactly n eigenvalues are zero (the first-order invariance
    directions of the design) and the rest are strictly positive and
    below 4.
    """
    if not 1 <= n < q:
        raise ValueError(f"basis size {n} must satisfy 1 <= n < q = {q}")
    return _operator_spectrum(_projected_operator(orthonormal_polynomial_basis(q, n)))


def split_null_spectrum(spectrum: np.ndarray, n: int):
    """Split a projected-operator spectrum into its n zeros and the rest.

    Raises if the count of near-zero eigenvalues is not exactly n.
    """
    spectrum = np.asarray(spectrum, dtype=float)
    thresh = NULLSPACE_RTOL * np.max(np.abs(spectrum))
    null = spectrum[np.abs(spectrum) <= thresh]
    active = spectrum[np.abs(spectrum) > thresh]
    if null.size != n:
        raise RuntimeError(
            f"expected {n} null eigenvalues, found {null.size} below {thresh!r}"
        )
    return null, active


def central_binomial(q: int) -> float:
    """Binomial(2q, q) as the correctly rounded float of the exact integer."""
    if q < 0:
        raise ValueError(f"need q >= 0, got {q}")
    return float(math.comb(2 * q, q))


def lambda_min_formula(q: int, n: int) -> float:
    """Closed form of the smallest nonzero projected eigenvalue.

    Available at the two ends of the basis-size range:
      n = 1:    2 (1 - cos(2 pi / (q+1)))
      n = q-1:  4 - 2/(q+1) - 2/binomial(2q, q)
    """
    if not 1 <= n < q:
        raise ValueError(f"basis size {n} must satisfy 1 <= n < q = {q}")
    if n == 1:
        return 2.0 * (1.0 - math.cos(2.0 * math.pi / (q + 1)))
    if n == q - 1:
        return 4.0 - 2.0 / (q + 1) - 2.0 / central_binomial(q)
    raise ValueError(f"no closed form for n={n}; only n=1 and n=q-1")


def lambda_min_observed(q: int, n: int) -> float:
    """Smallest nonzero eigenvalue of the projected operator."""
    return _lambda_min(projected_operator_spectrum(q, n), n)


def lambda_min_monotonicity(q: int) -> bool:
    """True iff the smallest nonzero eigenvalue strictly grows with n."""
    if q < 3:
        raise ValueError(f"monotonicity needs q >= 3, got {q}")
    values = [lambda_min_observed(q, n) for n in range(1, q)]
    return all(b > a for a, b in zip(values, values[1:]))


def perturbation_minimality(
    q: int,
    n: int,
    trials: int = PERTURBATION_TRIALS,
    epsilon: float = PERTURBATION_EPSILON,
    seed: int = 0,
) -> float:
    """Worst change of s over random multiplicative weight perturbations.

    Each trial replaces the quadratic weights w by w * (1 + epsilon * d)
    with d uniform in [-1, 1]^q and returns min over trials of
    s(perturbed) - s(optimal).  A value >= -1e-12 is the empirical
    local-minimality check.  The trials are one draw of shape (trials, q),
    the same numbers as one draw per trial, projected with w as one stack
    of (trials + 1) * q * n floats.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must sit in (0, 1) to keep weights positive")
    stack = _perturbed_weights(quadratic_weights(q).as_array(), trials, epsilon, seed)
    s = _smoothness(q, n, stack)
    return float(np.min(s[1:] - s[0]))


@dataclass(frozen=True)
class VerificationReport:
    """Evidence bundle for one (q, n) pair.

    Pass flags are None when a check was not run (e.g. eigen-structure
    checks outside the certified window range); `passed` treats None as
    not-failed.
    """

    q: int
    n: int
    max_gradient_abs: float
    min_hessian_eigenvalue: float | None
    perturbation_min_delta: float
    gradient: tuple[float, ...] = field(repr=False, default=())
    hessian_spectrum: tuple[float, ...] = field(repr=False, default=())
    eigenvalues_tw: tuple[float, ...] | None = field(repr=False, default=None)
    max_eigenvalue_rel_error: float | None = None
    orthonormality_error: float | None = None
    eigen_relation_error: float | None = None
    lambda_min_observed: float | None = None
    lambda_min_formula: float | None = None
    gradient_ok: bool = False
    hessian_ok: bool | None = False
    perturbation_ok: bool = False
    eigenvalues_ok: bool | None = None
    orthonormality_ok: bool | None = None
    eigen_relation_ok: bool | None = None
    lambda_formula_ok: bool | None = None

    @property
    def passed(self) -> bool:
        flags = (
            self.gradient_ok,
            self.hessian_ok,
            self.perturbation_ok,
            self.eigenvalues_ok,
            self.orthonormality_ok,
            self.eigen_relation_ok,
            self.lambda_formula_ok,
        )
        return all(f is not False for f in flags)


def _eigen_checks(q: int, a: np.ndarray, w: np.ndarray, spectra: np.ndarray) -> list[dict]:
    """The eigen-structure fields of each basis size n = 1..N.

    a is the basis of size N at the quadratic weights w, unscaled, and
    spectra the projected-operator spectra of the sizes.  The spectrum of
    T W is one check for the window; the Gram matrix and the eigen
    relation of size n are the leading n columns of those of size N.
    """
    observed = eigenvalues_of_tw(q)
    expected = expected_tw_eigenvalues(q)
    eig_err = float(np.max(np.abs(observed - expected) / expected))
    gram = a.T @ (w[:, None] * a)
    t = SecondDifferenceMatrix(q).dense()
    relation = np.abs(t @ (w[:, None] * a) - a * expected[: a.shape[1]]).max(axis=0)
    rows = []
    for n, spectrum in enumerate(spectra, start=1):
        orth_err = float(np.max(np.abs(gram[:n, :n] - np.eye(n))))
        rel_err = float(relation[:n].max())
        lam_obs = _lambda_min(spectrum, n)
        lam_form = lam_ok = None
        if n == 1 or n == q - 1:
            lam_form = lambda_min_formula(q, n)
            lam_ok = abs(lam_obs - lam_form) <= LAMBDA_FORMULA_TOL * lam_form
        rows.append(dict(
            eigenvalues_tw=tuple(observed),
            max_eigenvalue_rel_error=eig_err,
            orthonormality_error=orth_err,
            eigen_relation_error=rel_err,
            lambda_min_observed=lam_obs,
            lambda_min_formula=lam_form,
            eigenvalues_ok=eig_err <= EIGENVALUE_RTOL,
            orthonormality_ok=orth_err <= ORTHONORMALITY_TOL,
            eigen_relation_ok=rel_err <= EIGEN_RELATION_TOL,
            lambda_formula_ok=lam_ok,
        ))
    return rows


def certify_window(q: int, n_max: int, seed: int = 0, weight=None) -> list[VerificationReport]:
    """Run the full check battery at window q for every basis size n = 1..n_max.

    Returns the reports of n = 1..n_max in order; certify(q, n) is the
    last report of certify_window(q, n).  With the default (quadratic)
    weights this certifies stationarity, Hessian positive
    semi-definiteness and perturbation minimality; the eigen-structure
    comparisons run when q is inside the certified window range.  A
    custom weight vector gets two checks, which fail unless the weights
    are in fact optimal: the gradient of s there, and the gap
    s(optimal) - s(custom) as perturbation_min_delta.  Its reports have no
    Hessian: min_hessian_eigenvalue and hessian_ok are None.

    One basis build serves every size.  The quadratic weights and their
    PERTURBATION_TRIALS perturbed copies, drawn once for the window, are
    stacked (the custom and the quadratic weights under a custom
    weighting) and orthonormalized against the Legendre basis of degree
    n_max - 1.  Column k of that basis combines only the degrees 0..k, so
    the basis of size n is its first n columns, and the center taps of
    every size are one cumulative sum over the columns,
    design.center_projections.  The gradient, Hessian, s and perturbation
    minimum of each size are read from these slices; the Hessians, and at
    q <= CERTIFIED_EIGEN_WINDOW the projected operators, each go through
    one batched eigensolve.

    Raises:
        ValueError: for an even window, an n_max outside 1..m-1 with
            m = (q+1)/2, a negative seed, or a weight vector whose length
            is not q.
        numpy.linalg.LinAlgError: if the basis is weight-degenerate.
    """
    _check_center_size(q, n_max, "certificate")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    at_optimum = weight is None
    sizes = range(1, n_max + 1)
    if at_optimum:
        quad = quadratic_weights(q).as_array()
        w, k = _unit_scaled(_perturbed_weights(quad, PERTURBATION_TRIALS,
                                               PERTURBATION_EPSILON, seed))
    else:
        custom = _weight_array(weight)
        if custom.size != q:
            raise ValueError(f"weight vector has length {custom.size}, window needs {q}")
        # Each weighting scaled on its own: a custom one may sit anywhere in
        # the float range, far from the quadratic weights.
        custom, k = _unit_scaled(custom)
        w = np.stack((custom, quadratic_weights(q).unit_values))
    a = _polynomial_basis(q, n_max, w)
    g = center_projections(a)
    s = _difference_energy(w[:, None, :] * g)
    grads = [_gradient(a[0, :, :n], g[0, n - 1], w[0], k) for n in sizes]

    hess_specs = [()] * n_max
    eigen = [{}] * n_max
    if at_optimum:
        pert = (s[1:] - s[0]).min(axis=0)
        # The quadratic weights' basis and center rows at the unscaled weights.
        a0, g0 = np.ldexp(a[0], -k), np.ldexp(g[0], -2 * k)
        ops = np.stack([_projected_operator(a0[:, :n]) for n in sizes])
        hess_specs = np.linalg.eigvalsh(np.stack([_hessian(g0[n - 1], op)
                                                  for n, op in zip(sizes, ops)]))
        if q <= CERTIFIED_EIGEN_WINDOW:
            eigen = _eigen_checks(q, a0, quad, _operator_spectrum(ops))
    else:
        pert = s[1] - s[0]

    reports = []
    for n, grad, hess_spec, fields in zip(sizes, grads, hess_specs, eigen):
        max_grad = float(np.max(np.abs(grad)))
        delta = float(pert[n - 1])
        min_hess = hessian_ok = None
        if at_optimum:
            min_hess = float(hess_spec.min())
            hessian_ok = min_hess >= -HESSIAN_EIG_TOL
        reports.append(VerificationReport(
            q=q,
            n=n,
            max_gradient_abs=max_grad,
            min_hessian_eigenvalue=min_hess,
            perturbation_min_delta=delta,
            gradient=tuple(grad),
            hessian_spectrum=tuple(hess_spec),
            gradient_ok=max_grad <= GRADIENT_TOL,
            hessian_ok=hessian_ok,
            perturbation_ok=delta >= -PERTURBATION_TOL,
            **fields,
        ))
    return reports


def certify(q: int, n: int, seed: int = 0, weight=None) -> VerificationReport:
    """Run the full check battery for one (q, n) pair.

    This is the last report of certify_window(q, n, seed, weight), whose
    docstring lists the checks: one basis of size n for the quadratic
    weights and their perturbation stack together (for the custom and the
    quadratic weights under a custom weighting).  The basis sizes nest and
    every size shares the one stack, so certify_window(q, n_max) certifies
    all sizes of a window from a single basis build.
    """
    return certify_window(q, n, seed, weight)[-1]
