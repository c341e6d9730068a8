"""Weighted least-squares design of Savitzky-Golay style filter taps.

The filter tap vector is the linear functional that evaluates, at one
chosen sample of a q-sample window, the polynomial that best fits the
window in the weighted least-squares sense.  Two independent
construction routes are provided: the normal-equations solve and an
orthonormal-basis projection.  They must agree and the test suite holds
them to that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weights import (
    WeightVector,
    constant_weights,
    custom_weights,
    quadratic_weights,
    triangular_weights,
)

_WEIGHT_FACTORIES = {
    "constant": constant_weights,
    "triangular": triangular_weights,
    "quadratic": quadratic_weights,
}

DC_GAIN_TOL = 1e-10
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class FilterSpec:
    """Everything needed to design one filter.

    Attributes:
        q: window length in samples.
        degree: fitting polynomial degree, >= 0.
        weight: residual weight vector of length q.
        j: 1-based evaluation index inside the window.  Defaults to the
            center (q+1)/2, which requires odd q.
    """

    q: int
    degree: int
    weight: WeightVector
    j: int | None = None

    def __post_init__(self):
        if self.q < 1:
            raise ValueError(f"window length must be >= 1, got {self.q}")
        if self.degree < 0:
            raise ValueError(f"degree must be >= 0, got {self.degree}")
        if self.weight.q != self.q:
            raise ValueError(
                f"weight vector has length {self.weight.q}, window needs {self.q}"
            )
        if self.j is None:
            if self.q % 2 == 0:
                raise ValueError(
                    "even windows have no center sample; give an evaluation index"
                )
        elif not 1 <= self.j <= self.q:
            raise ValueError(f"evaluation index {self.j} outside 1..{self.q}")
        if self.n_columns > self.q:
            raise ValueError(
                f"{self.n_columns} basis columns exceed window length {self.q}"
            )

    @property
    def evaluation_index(self) -> int:
        return (self.q + 1) // 2 if self.j is None else self.j

    @property
    def is_centered(self) -> bool:
        return self.q % 2 == 1 and self.evaluation_index == (self.q + 1) // 2

    @property
    def m(self) -> int:
        """Center position (q+1)/2 of an odd window."""
        if self.q % 2 == 0:
            raise ValueError("center position is defined for odd windows only")
        return (self.q + 1) // 2

    @property
    def n_columns(self) -> int:
        """Number of basis columns the fit actually uses.

        At the center of an odd window, odd powers contribute nothing to
        the evaluated value, so only even powers are carried and an odd
        degree collapses to the even degree below it.
        """
        if self.is_centered:
            return self.degree // 2 + 1
        return self.degree + 1

    @property
    def basis_powers(self) -> tuple[int, ...]:
        if self.is_centered:
            return tuple(2 * k for k in range(self.n_columns))
        return tuple(range(self.n_columns))


def make_spec(q: int, degree: int, weight="constant", j: int | None = None) -> FilterSpec:
    """Convenience constructor accepting a weight kind name or vector."""
    if isinstance(weight, WeightVector):
        wv = weight
    elif isinstance(weight, str):
        try:
            wv = _WEIGHT_FACTORIES[weight](q)
        except KeyError:
            raise ValueError(f"unknown weight kind {weight!r}") from None
    else:
        wv = custom_weights(weight)
    return FilterSpec(q=q, degree=degree, weight=wv, j=j)


@dataclass(frozen=True, eq=False)
class BasisMatrix:
    """Polynomial basis sampled on the window grid.

    Attributes:
        columns: q-by-n array, one polynomial per column.
        abscissa: the grid x_i = i - j, so the evaluation point is x=0.
        powers: polynomial degree of each column (raw powers form only).
        orthonormal: True when columns satisfy A'WA = I for the weight
            the basis was built with.
        eigenvalues: per-column eigenvalues (p+1)(p+2)/2 of the
            second-difference/weight product, attached only when the
            basis diagonalizes it, i.e. for quadratic weights.
    """

    columns: np.ndarray
    abscissa: np.ndarray
    powers: tuple[int, ...]
    orthonormal: bool = False
    eigenvalues: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.columns.ndim != 2:
            raise ValueError("basis columns must form a 2-D array")
        if self.columns.shape[0] != self.abscissa.shape[0]:
            raise ValueError("basis and abscissa row counts differ")


@dataclass(frozen=True)
class FilterCoefficients:
    """Designed filter taps plus the FilterSpec that produced them.

    The taps always sum to one (constant signals pass unchanged) and are
    symmetric when designed at the center of an odd window with a
    symmetric weight profile (linear phase).
    """

    taps: tuple[float, ...]
    spec: FilterSpec

    def __post_init__(self):
        c = np.asarray(self.taps, dtype=float)
        if c.shape != (self.spec.q,):
            raise ValueError(
                f"expected {self.spec.q} taps, got {c.shape[0] if c.ndim == 1 else c.shape}"
            )
        if abs(c.sum() - 1.0) > DC_GAIN_TOL:
            raise ValueError(f"taps must sum to 1, got {c.sum()!r}")
        w = self.spec.weight.as_array()
        weight_symmetric = np.max(np.abs(w - w[::-1])) <= 1e-12 * np.max(w)
        if self.spec.is_centered and weight_symmetric:
            asym = np.max(np.abs(c - c[::-1]))
            if asym > SYMMETRY_TOL * max(1.0, np.max(np.abs(c))):
                raise ValueError("center-evaluated taps must be symmetric")

    @property
    def q(self) -> int:
        return self.spec.q

    def as_array(self) -> np.ndarray:
        return np.asarray(self.taps, dtype=float)


def build_vandermonde(spec: FilterSpec) -> BasisMatrix:
    """Raw power basis on the centered grid x_i = i - j.

    Centered specs carry even powers only; off-center specs carry all
    powers 0..degree.
    """
    x = np.arange(1, spec.q + 1, dtype=float) - spec.evaluation_index
    powers = spec.basis_powers
    cols = np.column_stack([x**p for p in powers])
    return BasisMatrix(columns=cols, abscissa=x, powers=powers)


def orthonormalize_columns(columns: np.ndarray, weight_values: np.ndarray) -> np.ndarray:
    """Gram-Schmidt in the weighted inner product <a,b> = sum(w*a*b).

    Two full passes are made; a single pass loses orthogonality beyond a
    few columns at double precision.
    """
    w = np.asarray(weight_values, dtype=float)
    a = np.array(columns, dtype=float)
    q, n = a.shape
    if w.shape != (q,):
        raise ValueError("weight vector does not match basis rows")
    for _ in range(2):
        for k in range(n):
            col = a[:, k]
            for prev in range(k):
                col = col - ((w * a[:, prev]) @ col) * a[:, prev]
            norm = np.sqrt((w * col) @ col)
            if not np.isfinite(norm) or norm <= 0.0:
                raise np.linalg.LinAlgError(
                    f"basis column {k} is weight-degenerate; cannot orthonormalize"
                )
            a[:, k] = col / norm
    return a


def build_orthonormal_basis(spec: FilterSpec) -> BasisMatrix:
    """Weight-orthonormal polynomial basis for a FilterSpec's window.

    For quadratic weights the columns are eigenvectors of the
    (second difference) x (weight) product, so the matching eigenvalues
    (p+1)(p+2)/2 are attached.
    """
    raw = build_vandermonde(spec)
    a = orthonormalize_columns(raw.columns, spec.weight.as_array())
    eig = None
    if spec.weight.kind == "quadratic":
        eig = tuple((p + 1) * (p + 2) / 2.0 for p in raw.powers)
    return BasisMatrix(
        columns=a,
        abscissa=raw.abscissa,
        powers=raw.powers,
        orthonormal=True,
        eigenvalues=eig,
    )


def _solve_spd(g: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve g x = rhs for symmetric positive definite g via Cholesky.

    rhs is one vector, or a matrix whose columns are solved together
    from the one factorization.
    """
    lo = np.linalg.cholesky(g)
    n = lo.shape[0]
    y = np.empty(rhs.shape)
    for i in range(n):
        y[i] = (rhs[i] - lo[i, :i] @ y[:i]) / lo[i, i]
    x = np.empty(rhs.shape)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - lo[i + 1 :, i] @ x[i + 1 :]) / lo[i, i]
    return x


def design_coefficients(spec: FilterSpec) -> FilterCoefficients:
    """Design filter taps by the weighted normal equations.

    The taps are c = W X (X'WX)^{-1} X' u where X is the power basis, W
    the diagonal weights and u the selector of the evaluation index.
    For a length-1 window the result is the identity tap [1.0]
    regardless of weighting.

    Raises:
        numpy.linalg.LinAlgError: if the normal matrix is singular
            (over-parameterized or degenerate basis).
    """
    if spec.q == 1:
        return FilterCoefficients((1.0,), spec)
    basis = build_vandermonde(spec)
    w = spec.weight.as_array()
    x = basis.columns
    g = x.T @ (w[:, None] * x)
    rhs = x[spec.evaluation_index - 1]
    b = _solve_spd(g, rhs)
    c = w * (x @ b)
    return FilterCoefficients(tuple(float(v) for v in c), spec)


def edge_taps(spec: FilterSpec) -> np.ndarray:
    """Off-center taps for every edge position of a centered spec.

    Row k holds the taps that evaluate, at index j = k + 1 (first m-1
    rows) or j = k + 2 (last m-1 rows), the same weighted fit of degree
    spec.degree over the same window: what :func:`design_coefficients`
    returns for the spec shifted to j.  All 2(m-1) rows are rows of one
    hat matrix, so they come from one Cholesky factorization of the
    normal matrix, solved for all evaluation points at once.  The basis
    is every power 0..degree of the window abscissa scaled to [-1, 1].

    Raises:
        ValueError: for a spec that is not center-evaluated, when the
            off-center fit has more columns than the window has samples,
            or when a row does not sum to one within DC_GAIN_TOL.
        numpy.linalg.LinAlgError: if the normal matrix is not positive
            definite, as in :func:`design_coefficients`.
    """
    if not spec.is_centered:
        raise ValueError("edge taps need a center-evaluated filter")
    q, m = spec.q, spec.m
    if q == 1:
        return np.empty((0, 1))
    n = spec.degree + 1
    if n > q:
        raise ValueError(f"{n} basis columns exceed window length {q}")
    x = np.vander((np.arange(1.0, q + 1) - m) / (m - 1), n, increasing=True)
    wx = spec.weight.as_array()[:, None] * x
    edges = np.r_[0 : m - 1, m:q]
    taps = (wx @ _solve_spd(x.T @ wx, x[edges].T)).T
    sums = taps.sum(axis=1)
    off = np.abs(sums - 1.0) > DC_GAIN_TOL
    if off.any():
        k = int(np.argmax(off))
        raise ValueError(f"taps must sum to 1, got {float(sums[k])!r} at j={edges[k] + 1}")
    return taps


def design_via_orthonormal_basis(spec: FilterSpec) -> FilterCoefficients:
    """Design filter taps as c = W A A' u with A weight-orthonormal.

    Independent of :func:`design_coefficients` (projection instead of a
    linear solve); the two routes are held to 1e-9 agreement by the test
    suite.  Only center-evaluated odd windows are supported here.
    """
    if not spec.is_centered:
        raise ValueError("orthonormal-basis design requires a center-evaluated odd window")
    if spec.q == 1:
        return FilterCoefficients((1.0,), spec)
    basis = build_orthonormal_basis(spec)
    a = basis.columns
    g = a @ a[spec.evaluation_index - 1]
    c = spec.weight.as_array() * g
    return FilterCoefficients(tuple(float(v) for v in c), spec)


def quadratic_weight_constant_fit(q: int) -> FilterCoefficients:
    """Closed-form taps for the degree-0 fit under quadratic weights.

    Tap i (1-based) is 6 i (q+1-i) / (q (q+1) (q+2)).  Must agree with
    the general design routes; kept as an independent closed-form
    oracle.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError(f"window length must be odd and >= 1, got {q}")
    denom = float(q * (q + 1) * (q + 2))
    taps = tuple(6.0 * i * (q + 1 - i) / denom for i in range(1, q + 1))
    spec = FilterSpec(q=q, degree=0, weight=quadratic_weights(q))
    return FilterCoefficients(taps, spec)


def coefficient_weight_derivative(spec: FilterSpec, k: int) -> np.ndarray:
    """Derivative of every tap with respect to the k-th diagonal weight.

    Evaluated analytically from the projection form of the design: with
    P = A A' (A weight-orthonormal) and g = P u,

        dc/dW_kk = g_k (I - W P) e_k.

    Agrees with central finite differences of the designed taps; the
    test suite checks that at 1e-6 relative.
    """
    if not 1 <= k <= spec.q:
        raise ValueError(f"weight index {k} outside 1..{spec.q}")
    if spec.q == 1:
        return np.zeros(1)
    raw = build_vandermonde(spec)
    w = spec.weight.as_array()
    a = orthonormalize_columns(raw.columns, w)
    g = a @ a[spec.evaluation_index - 1]
    e_k = np.zeros(spec.q)
    e_k[k - 1] = 1.0
    p_ek = a @ a[k - 1]
    return g[k - 1] * (e_k - w * p_ek)


def design(q: int, degree: int, weight="constant", j: int | None = None) -> FilterCoefficients:
    """One-call design: build the FilterSpec and run the normal equations."""
    return design_coefficients(make_spec(q, degree, weight, j))
