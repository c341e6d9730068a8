"""Weighted least-squares design of Savitzky-Golay style filter taps.

The filter tap vector is the linear functional that evaluates, at one
chosen sample of a q-sample window, the polynomial that best fits the
window in the weighted least-squares sense.  Its construction is one
projection: with A the weight-orthonormal polynomials on the window,
every tap vector is a row of the hat matrix W A A'.  The test suite
holds the taps to an exact rational solve of the normal equations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
# Weighted norm of a new basis column, made orthogonal to the ones before
# it, at or below which it depends on them.  It is relative: the column
# before it times t has weighted norm at most 1.
DEGENERATE_TOL = 1e-6


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
        if self.kernel_columns > self.q:
            if self.even_basis:
                raise ValueError(f"degree {self.degree} is too high for window {self.q}: "
                                 f"the largest it takes is {self.q}")
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
    def even_basis(self) -> bool:
        """True when odd degrees add nothing to the fitted value: at the
        center of an odd window under symmetric weights.  The fit then
        stops at the even degree 2*(degree // 2) and its taps are symmetric."""
        return self.is_centered and self.weight.is_symmetric

    @property
    def n_columns(self) -> int:
        """Basis size n of the fit: its even degrees where even_basis holds,
        else all degree + 1 of them."""
        if self.even_basis:
            return self.degree // 2 + 1
        return self.degree + 1

    @property
    def kernel_columns(self) -> int:
        """Columns design_coefficients builds: where even_basis holds, the
        even degrees up to 2*(degree // 2) with the odd degrees between them
        (one recurrence steps through every degree), else degree + 1.  At
        most q, so a centered design under symmetric weights takes degree <= q."""
        if self.even_basis:
            return 2 * (self.degree // 2) + 1
        return self.degree + 1


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


def check_taps(c: np.ndarray, symmetric: bool) -> None:
    """Check every tap vector along the last axis of c: finite, summing to
    one within DC_GAIN_TOL and, if `symmetric`, mirror-symmetric within
    SYMMETRY_TOL.  Raises ValueError; a sum-to-one failure reports the sum
    of the first vector that fails.
    """
    if not np.isfinite(c).all():
        raise ValueError("taps must be finite")
    sums = c.sum(axis=-1)
    off = np.abs(sums - 1.0) > DC_GAIN_TOL
    if off.any():
        raise ValueError(f"taps must sum to 1, got {float(np.ravel(sums)[np.argmax(off)])!r}")
    if symmetric:
        asym = np.abs(c - c[..., ::-1]).max(axis=-1)
        if (asym > SYMMETRY_TOL * np.maximum(1.0, np.abs(c).max(axis=-1))).any():
            raise ValueError("center-evaluated taps must be symmetric")


@dataclass(frozen=True)
class FilterCoefficients:
    """Designed filter taps plus the FilterSpec that produced them.

    The taps always sum to one (constant signals pass unchanged) and are
    symmetric when designed at the center of an odd window with a
    symmetric weight profile (linear phase).
    """

    taps: tuple[float, ...]
    spec: FilterSpec
    # The read-only weight-orthonormal basis the taps were projected on, kept
    # by design_coefficients for the polyfit edges; None for taps from
    # anywhere else (coefficient files, dataclasses.replace, closed forms).
    _basis: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        c = np.asarray(self.taps, dtype=float)
        if c.shape != (self.spec.q,):
            raise ValueError(
                f"expected {self.spec.q} taps, got {c.shape[0] if c.ndim == 1 else c.shape}"
            )
        check_taps(c, self.spec.even_basis)

    @property
    def q(self) -> int:
        return self.spec.q

    def as_array(self) -> np.ndarray:
        return np.asarray(self.taps, dtype=float)

    def edge_basis(self) -> np.ndarray | None:
        """The design's basis when it has the degree + 1 columns of the
        polyfit edges, else None, and polyfit_edges builds its own: for taps
        with no basis, and at a symmetric center with an odd degree, where
        the design stops one column short."""
        a = self._basis
        return a if a is not None and a.shape[-1] == self.spec.degree + 1 else None


def orthonormalize_columns(weight_values: np.ndarray, n: int) -> np.ndarray:
    """The first n weight-orthonormal polynomials on the window, A'WA = I.

    The window is the abscissa t = (2i - (q-1))/(q-1), i = 0..q-1, in
    [-1, 1].  Column 0 is 1/sqrt(sum w); column k+1 is t times column k,
    made w-orthogonal to columns 0..k by one classical Gram-Schmidt pass
    and divided by its weighted norm beta (the Stieltjes recurrence).  The
    normal equations are never formed, so their squared conditioning
    never enters.  Column k is a polynomial of degree k, so a basis of
    increasing size stays one.
    A stack of weightings, shape (..., q), gives the stack of bases,
    shape (..., q, n).

    Raises:
        numpy.linalg.LinAlgError: if a column is dependent on the ones
            before it under any of the weightings (beta <= DEGENERATE_TOL),
            as when n > q.
    """
    w = np.asarray(weight_values, dtype=float)
    q = w.shape[-1]
    t = (2.0 * np.arange(q) - (q - 1)) / max(q - 1, 1)
    # Row k of p is column k of A.
    p = np.empty(w.shape[:-1] + (n, q))
    p[..., 0, :] = 1.0 / np.sqrt(w.sum(axis=-1, keepdims=True))
    for k in range(n - 1):
        u = t * p[..., k, :]
        prev = p[..., : k + 1, :]
        u -= ((prev @ (w * u)[..., :, None]).swapaxes(-1, -2) @ prev)[..., 0, :]
        beta = np.sqrt((w * u * u).sum(axis=-1, keepdims=True))
        if (beta <= DEGENERATE_TOL).any():
            raise np.linalg.LinAlgError(
                "basis columns are weight-degenerate; cannot orthonormalize")
        p[..., k + 1, :] = u / beta
    return p.swapaxes(-1, -2)


def center_projections(a: np.ndarray) -> np.ndarray:
    """Center rows A_n A_n[m]' of every nested basis A_n = A[..., :n], n = 1..N.

    a is a basis from orthonormalize_columns on an odd window, shape
    (..., q, N), m = (q+1)/2.  Column k of it is a polynomial of degree
    k, so its first n columns are the basis of size n: the sizes nest,
    and their center rows are one cumulative sum over the columns, shape
    (..., N, q).  Times the weights, row n-1 is the center taps of basis
    size n.
    """
    m = (a.shape[-2] + 1) // 2
    return np.cumsum(a * a[..., m - 1, None, :], axis=-1).swapaxes(-1, -2)


def design_coefficients(spec: FilterSpec) -> FilterCoefficients:
    """Design filter taps c = W A A' u, row j of the hat matrix.

    A holds the weight-orthonormal polynomials of degrees 0..degree,
    2*(degree // 2) where spec.even_basis holds (spec.kernel_columns),
    and u selects the evaluation index j; c equals the normal-equations
    solution W X (X'WX)^{-1} X' u for the power basis X.  W holds the
    weights scaled to a largest entry near 1 (WeightVector.unit_values),
    which leaves c unchanged bit for bit and keeps W A A' u in range.
    The filter keeps A, read-only, and its polyfit edges reuse it where
    it has their degree + 1 columns (FilterCoefficients.edge_basis).  A
    length-1 window gives the
    identity tap [1.0] regardless of weighting.

    Raises:
        numpy.linalg.LinAlgError: if the basis is weight-degenerate,
            as under weights with too few non-negligible samples.
    """
    if spec.q == 1:
        return FilterCoefficients((1.0,), spec)
    w = spec.weight.unit_values
    a = orthonormalize_columns(w, spec.kernel_columns)
    a.flags.writeable = False
    c = w * (a @ a[spec.evaluation_index - 1])
    coeffs = FilterCoefficients(tuple(c.tolist()), spec)
    object.__setattr__(coeffs, "_basis", a)
    return coeffs


def polyfit_edges(spec: FilterSpec, y: np.ndarray,
                  basis: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Polyfit outputs at the m-1 samples on each end of a record y of >= q samples.

    Each end is fitted once, b = A'(w * window), A the weight-orthonormal
    polynomials of degrees 0..spec.degree and w the scaled weights of
    design_coefficients, and evaluated off center as A[j] b: the
    outputs of the taps w * (A A[j]) without forming them, in O(q (degree + 1))
    memory.  A is `basis`, the filter's own where it has degree + 1 columns
    (FilterCoefficients.edge_basis, as `smooth` passes it), or built here
    when it is None.  A stack of
    records, shape (..., L), gives stacks of outputs, shape (..., m-1).

    Raises:
        ValueError: for a spec that is not center-evaluated, when the
            off-center fit has more columns than the window has samples,
            or when the taps of a row j, A[j] (A'w), do not sum to one
            within DC_GAIN_TOL.
        numpy.linalg.LinAlgError: if the basis is weight-degenerate.
    """
    if not spec.is_centered:
        raise ValueError("edge taps need a center-evaluated filter")
    q, m = spec.q, spec.m
    if q == 1:
        return np.empty(y.shape[:-1] + (0,)), np.empty(y.shape[:-1] + (0,))
    n = spec.degree + 1
    if n > q:
        raise ValueError(f"{n} basis columns exceed window length {q}")
    w = spec.weight.unit_values
    a = orthonormalize_columns(w, n) if basis is None else basis
    sums = a @ (w @ a)
    off = np.abs(sums - 1.0) > DC_GAIN_TOL
    if off.any():
        k = int(np.argmax(off))
        raise ValueError(f"taps must sum to 1, got {float(sums[k])!r} at j={k + 1}")
    head, tail = (w * np.stack((y[..., :q], y[..., -q:]))) @ a
    return head @ a[: m - 1].T, tail @ a[m:].T


def quadratic_weight_constant_fit(q: int) -> FilterCoefficients:
    """Closed-form taps for the degree-0 fit under quadratic weights.

    Tap i (1-based) is 6 i (q+1-i) / (q (q+1) (q+2)).  Must agree with
    the general design; kept as an independent closed-form oracle.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError(f"window length must be odd and >= 1, got {q}")
    denom = float(q * (q + 1) * (q + 2))
    taps = tuple(6.0 * i * (q + 1 - i) / denom for i in range(1, q + 1))
    spec = FilterSpec(q=q, degree=0, weight=quadratic_weights(q))
    return FilterCoefficients(taps, spec)


def design(q: int, degree: int, weight="constant", j: int | None = None) -> FilterCoefficients:
    """One-call design: build the FilterSpec and project onto its basis."""
    return design_coefficients(make_spec(q, degree, weight, j))
