"""Residual weight vectors and the second-difference operator.

A smoothing filter in this package is obtained from a weighted
least-squares polynomial fit.  The weighting enters as a diagonal
matrix of strictly positive residual weights; this module provides the
three built-in weight profiles (constant, triangular, quadratic) plus
validated custom vectors, and the tridiagonal second-difference
operator that the quadratic profile is defined by.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WEIGHT_KINDS = ("constant", "triangular", "quadratic", "custom")

# Relative tolerance of WeightVector.is_symmetric: the invariant of the
# built-in symmetric profiles, and the test that lets a centered design
# drop odd degrees.  The closed-form constructors are exactly symmetric;
# the tridiagonal solve can carry last-ulp asymmetry.
_SYMMETRY_RTOL = 1e-12


def _unit_scaled(w: np.ndarray) -> tuple[np.ndarray, int]:
    """w times 4^-k, k chosen so that its largest entry lies in [0.5, 2), and k.

    Fitted taps do not depend on the scale of the weights, and a power of
    two scales exactly: the weight-orthonormal basis of w is that of the
    scaled weights times 2^-k, bit for bit, and no weighted sum or
    sample overflows.  A stack of weightings shares one k.
    """
    k = math.frexp(w.max())[1] // 2
    return (np.ldexp(w, -2 * k) if k else w), k


@dataclass(frozen=True)
class WeightVector:
    """A length-q vector of strictly positive residual weights.

    Attributes:
        values: the weights, index 1..q stored as a tuple.
        kind: one of ``constant``, ``triangular``, ``quadratic``,
            ``custom``.
        is_symmetric: derived; True when w_i equals w_{q+1-i} to a
            relative _SYMMETRY_RTOL.
        unit_values: derived; the weights as a read-only array scaled by
            the even power of two that brings the largest near 1, the
            form the design kernel works in.
    """

    values: tuple[float, ...]
    kind: str
    is_symmetric: bool = field(init=False, repr=False, compare=False)
    unit_values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if len(self.values) < 1:
            raise ValueError("weight vector must have at least one entry")
        arr = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("weights must be finite")
        if np.any(arr <= 0.0):
            raise ValueError("weights must be strictly positive")
        if self.kind == "constant" and np.any(arr != arr[0]):
            raise ValueError("constant weights must all be equal")
        symmetric = bool(np.max(np.abs(arr - arr[::-1])) <= _SYMMETRY_RTOL * np.max(arr))
        object.__setattr__(self, "is_symmetric", symmetric)
        if self.kind in ("triangular", "quadratic") and not symmetric:
            raise ValueError(f"{self.kind} weights must be symmetric")
        unit = _unit_scaled(arr)[0]
        unit.flags.writeable = False
        object.__setattr__(self, "unit_values", unit)

    @property
    def q(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


def _check_window(q: int) -> None:
    if not isinstance(q, (int, np.integer)) or isinstance(q, bool):
        raise ValueError(f"window length must be an integer, got {q!r}")
    if q < 1:
        raise ValueError(f"window length must be >= 1, got {q}")


def constant_weights(q: int) -> WeightVector:
    """Equal weighting of every residual (the classic filter)."""
    _check_window(q)
    return WeightVector((1.0,) * q, "constant")


def triangular_weights(q: int) -> WeightVector:
    """Triangular weighting: linear rise to the window center, then fall.

    Entry i (1-based) is ``1 - |1 - 2i/(q+1)|``, equivalently
    ``2*min(i, q+1-i)/(q+1)``.  The second form is used so mirrored
    entries are bit-identical.
    """
    _check_window(q)
    i = np.arange(1, q + 1)
    vals = 2.0 * np.minimum(i, q + 1 - i) / (q + 1)
    return WeightVector(tuple(vals.tolist()), "triangular")


def quadratic_weights(q: int) -> WeightVector:
    """Quadratic weighting: entry i (1-based) is ``i*(q+1-i)/2``.

    This is the profile that minimizes the smoothing parameter of the
    designed filter (see the verify module for the numerical
    certificate).  Extended with zeros at i=0 and i=q+1 it is a
    quadratic polynomial in the index, so its second difference is the
    constant -1 at interior points.
    """
    _check_window(q)
    i = np.arange(1, q + 1)
    vals = 0.5 * i * (q + 1 - i)
    return WeightVector(tuple(vals.tolist()), "quadratic")


def custom_weights(values) -> WeightVector:
    """Wrap a user-supplied strictly positive vector."""
    return WeightVector(tuple(float(v) for v in values), "custom")


@dataclass(frozen=True)
class SecondDifferenceMatrix:
    """The q-by-q tridiagonal operator with 2 on the diagonal, -1 off it.

    Its negation maps a vector to its second difference computed with
    one zero sample padded at each end.  The operator is symmetric
    positive definite and defines both the smoothing parameter
    (s = c'Tc/2) and the quadratic weight profile (Tw = ones).
    """

    q: int

    def __post_init__(self):
        _check_window(self.q)

    def dense(self) -> np.ndarray:
        t = 2.0 * np.eye(self.q)
        idx = np.arange(self.q - 1)
        t[idx, idx + 1] = -1.0
        t[idx + 1, idx] = -1.0
        return t

    def apply(self, vec) -> np.ndarray:
        """T @ v for each length-q vector v along the last axis of vec,
        without forming the dense matrix."""
        v = np.asarray(vec, dtype=float)
        if v.shape[-1:] != (self.q,):
            raise ValueError(f"expected a length-{self.q} vector, got shape {v.shape}")
        out = 2.0 * v
        out[..., :-1] -= v[..., 1:]
        out[..., 1:] -= v[..., :-1]
        return out


def second_difference_matrix(q: int) -> np.ndarray:
    """Dense q-by-q second-difference operator (2 diagonal, -1 off)."""
    return SecondDifferenceMatrix(q).dense()


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a tridiagonal system by forward elimination / back substitution.

    Args:
        lower: sub-diagonal, length n-1.
        diag: main diagonal, length n.
        upper: super-diagonal, length n-1.
        rhs: right-hand side, length n.

    Returns:
        The solution vector.  No pivoting is performed; intended for
        diagonally dominant or positive definite systems.
    """
    a = np.asarray(lower, dtype=float)
    b = np.array(diag, dtype=float)
    c = np.asarray(upper, dtype=float)
    d = np.array(rhs, dtype=float)
    n = b.size
    if a.size != n - 1 or c.size != n - 1 or d.size != n:
        raise ValueError("inconsistent tridiagonal system dimensions")
    for i in range(1, n):
        m = a[i - 1] / b[i - 1]
        b[i] -= m * c[i - 1]
        d[i] -= m * d[i - 1]
    x = np.empty(n)
    x[-1] = d[-1] / b[-1]
    for i in range(n - 2, -1, -1):
        x[i] = (d[i] - c[i] * x[i + 1]) / b[i]
    return x


def weights_by_tridiagonal_solve(q: int) -> WeightVector:
    """Quadratic weights obtained by solving T w = ones directly.

    Independent of :func:`quadratic_weights`: that one evaluates the
    closed form, this one runs a Thomas-style elimination on the
    tridiagonal system.  The two agree to fractions of an ulp and are
    cross-checked in the test suite.
    """
    _check_window(q)
    if q == 1:
        return WeightVector((0.5,), "quadratic")
    off = -np.ones(q - 1)
    w = solve_tridiagonal(off, 2.0 * np.ones(q), off, np.ones(q))
    return WeightVector(tuple(float(v) for v in w), "quadratic")
