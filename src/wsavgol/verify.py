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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .design import legendre_basis, orthonormalize_columns
from .weights import SecondDifferenceMatrix, WeightVector, custom_weights, quadratic_weights

EIGENVALUE_RTOL = 1e-8
ORTHONORMALITY_TOL = 1e-9
EIGEN_RELATION_TOL = 1e-8
GRADIENT_TOL = 1e-10
HESSIAN_EIG_TOL = 1e-10
NULLSPACE_RTOL = 1e-9
PERTURBATION_TOL = 1e-12
LAMBDA_FORMULA_TOL = 1e-8

# Largest window for which the eigen-structure checks are certified;
# beyond this the package still runs but makes no eigen claims.
CERTIFIED_EIGEN_WINDOW = 12


def _weight_array(weight) -> np.ndarray:
    if not isinstance(weight, WeightVector):
        weight = custom_weights(weight)
    return weight.as_array()


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
    """A, g = AA'u, c = Wg for the center selector u; w may be a stack (..., q)."""
    if q % 2 == 0:
        raise ValueError("center-based checks need an odd window")
    a = _polynomial_basis(q, n, w)
    g = (a @ a[..., (q + 1) // 2 - 1, :, None])[..., 0]
    return a, g, w * g


def _smoothness(q: int, n: int, w: np.ndarray):
    """s = c'Tc/2 along the last axis, as the zero-padded difference sum."""
    _, _, c = _center_projection(q, n, w)
    d = np.diff(c, axis=-1, prepend=0.0, append=0.0)
    return 0.5 * (d * d).sum(axis=-1)


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
    differences of s.
    """
    if q % 2 == 0:
        raise ValueError("gradient is defined for odd windows")
    m = (q + 1) // 2
    if not 1 <= n < m:
        raise ValueError(f"basis size {n} must satisfy 1 <= n < m = {m}")
    w = _weight_array(weight)
    a, g, c = _center_projection(q, n, w)
    t = SecondDifferenceMatrix(q)
    tc = t.apply(c)
    return g * (tc - a @ (a.T @ (w * tc)))


def hessian(q: int, n: int) -> np.ndarray:
    """Hessian of s in the diagonal weights at the quadratic profile.

    H = diag(g) [T - A L A'] diag(g), symmetrized; L holds the
    eigenvalues (p+1)(p+2)/2 of the basis columns.  Positive
    semi-definiteness of this matrix, together with the vanishing
    gradient, is the local-minimum certificate.
    """
    if q % 2 == 0:
        raise ValueError("hessian is defined for odd windows")
    m = (q + 1) // 2
    if not 1 <= n < m:
        raise ValueError(f"basis size {n} must satisfy 1 <= n < m = {m}")
    w = quadratic_weights(q).as_array()
    a, g, _ = _center_projection(q, n, w)
    k = _projected_operator(q, n, a)
    h = (g[:, None] * k) * g[None, :]
    return 0.5 * (h + h.T)


def _projected_operator(q: int, n: int, a: np.ndarray) -> np.ndarray:
    """T - A L A' with L the eigenvalues matching A's columns."""
    t = SecondDifferenceMatrix(q).dense()
    lam = expected_tw_eigenvalues(q)[:n]
    return t - (a * lam) @ a.T


def projected_operator_spectrum(q: int, n: int) -> np.ndarray:
    """Spectrum of T - A L A' at quadratic weights, ascending.

    Exactly n eigenvalues are zero (the first-order invariance
    directions of the design) and the rest are strictly positive and
    below 4.
    """
    if not 1 <= n < q:
        raise ValueError(f"basis size {n} must satisfy 1 <= n < q = {q}")
    a = orthonormal_polynomial_basis(q, n)
    k = _projected_operator(q, n, a)
    return np.linalg.eigvalsh(0.5 * (k + k.T))


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
    spectrum = projected_operator_spectrum(q, n)
    _, active = split_null_spectrum(spectrum, n)
    return float(active.min())


def lambda_min_monotonicity(q: int) -> bool:
    """True iff the smallest nonzero eigenvalue strictly grows with n."""
    if q < 3:
        raise ValueError(f"monotonicity needs q >= 3, got {q}")
    values = [lambda_min_observed(q, n) for n in range(1, q)]
    return all(b > a for a, b in zip(values, values[1:]))


def perturbation_minimality(
    q: int, n: int, trials: int = 100, epsilon: float = 1e-2, seed: int = 0
) -> float:
    """Worst change of s over random multiplicative weight perturbations.

    Each trial replaces the quadratic weights w by w * (1 + epsilon * d)
    with d uniform in [-1, 1]^q and returns min over trials of
    s(perturbed) - s(optimal).  A value >= -1e-12 is the empirical
    local-minimality check.  The trials are one draw of shape (trials, q),
    the same numbers as one draw per trial, projected as one stack of
    trials * q * n floats.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must sit in (0, 1) to keep weights positive")
    w = quadratic_weights(q).as_array()
    s_opt = _smoothness(q, n, w)
    delta = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(trials, q))
    return float(np.min(_smoothness(q, n, w * (1.0 + epsilon * delta)) - s_opt))


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


def certify(q: int, n: int, seed: int = 0, weight=None) -> VerificationReport:
    """Run the full check battery for one (q, n) pair.

    With the default (quadratic) weights this certifies stationarity,
    Hessian positive semi-definiteness and perturbation minimality; the
    eigen-structure comparisons run when q is inside the certified
    window range.  A custom weight vector gets two checks, which fail
    unless the weights are in fact optimal: the gradient of s there, and
    the gap s(optimal) - s(custom) as perturbation_min_delta.  Its report
    has no Hessian: min_hessian_eigenvalue and hessian_ok are None.
    """
    w = quadratic_weights(q).as_array() if weight is None else _weight_array(weight)
    at_optimum = weight is None

    grad = smoothness_gradient(q, n, w)
    max_grad = float(np.max(np.abs(grad)))
    gradient_ok = max_grad <= GRADIENT_TOL

    hess_spec = ()
    min_hess = hessian_ok = None
    if at_optimum:
        hess_spec = np.linalg.eigvalsh(hessian(q, n))
        min_hess = float(hess_spec.min())
        hessian_ok = min_hess >= -HESSIAN_EIG_TOL
        pert = perturbation_minimality(q, n, seed=seed)
    else:
        pert = smoothness_of_weights(q, n, quadratic_weights(q)) - smoothness_of_weights(q, n, w)
    perturbation_ok = pert >= -PERTURBATION_TOL

    eig_tw = None
    eig_err = orth_err = rel_err = None
    eigenvalues_ok = orth_ok = relation_ok = lam_ok = None
    lam_obs = lam_form = None
    if at_optimum and q <= CERTIFIED_EIGEN_WINDOW:
        observed = eigenvalues_of_tw(q)
        expected = expected_tw_eigenvalues(q)
        eig_tw = tuple(observed)
        eig_err = float(np.max(np.abs(observed - expected) / expected))
        eigenvalues_ok = eig_err <= EIGENVALUE_RTOL

        a = orthonormal_polynomial_basis(q, n)
        gram = a.T @ (w[:, None] * a)
        orth_err = float(np.max(np.abs(gram - np.eye(n))))
        orth_ok = orth_err <= ORTHONORMALITY_TOL

        t = SecondDifferenceMatrix(q).dense()
        lam = expected[:n]
        rel_err = float(np.max(np.abs(t @ (w[:, None] * a) - a * lam)))
        relation_ok = rel_err <= EIGEN_RELATION_TOL

        if n < q:
            lam_obs = lambda_min_observed(q, n)
            if n == 1 or n == q - 1:
                lam_form = lambda_min_formula(q, n)
                lam_ok = abs(lam_obs - lam_form) <= LAMBDA_FORMULA_TOL * lam_form

    return VerificationReport(
        q=q,
        n=n,
        max_gradient_abs=max_grad,
        min_hessian_eigenvalue=min_hess,
        perturbation_min_delta=pert,
        gradient=tuple(grad),
        hessian_spectrum=tuple(hess_spec),
        eigenvalues_tw=eig_tw,
        max_eigenvalue_rel_error=eig_err,
        orthonormality_error=orth_err,
        eigen_relation_error=rel_err,
        lambda_min_observed=lam_obs,
        lambda_min_formula=lam_form,
        gradient_ok=gradient_ok,
        hessian_ok=hessian_ok,
        perturbation_ok=perturbation_ok,
        eigenvalues_ok=eigenvalues_ok,
        orthonormality_ok=orth_ok,
        eigen_relation_ok=relation_ok,
        lambda_formula_ok=lam_ok,
    )

