"""Noise and smoothness figures of merit for filter tap vectors.

Two scalars summarize a smoothing filter fed with uncorrelated noise:
the error reduction ratio r (output noise variance over input noise
variance, equal to the sum of squared taps) and the smoothing parameter
s (the same variance ratio for successive differences, equal to
c'Tc/2 with T the second-difference operator).  Smaller s means a
smoother output.  This module computes both exactly, by Monte Carlo,
and through the closed-form and approximate comparison formulas for the
constant / triangular / quadratic weight profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# `design` is unused here but stays importable: perfbench's tracer wraps
# metrics.design to count redesigns.
from .design import (  # noqa: F401
    FilterCoefficients,
    center_projections,
    check_taps,
    design,
    make_spec,
    orthonormalize_columns,
)
from .weights import SecondDifferenceMatrix

_CONSISTENCY_TOL = 1e-12
# Subscripts 0, 1, 2 of ExactRatios.
_REFERENCE_KINDS = ("constant", "triangular", "quadratic")


def _taps(c) -> np.ndarray:
    if isinstance(c, FilterCoefficients):
        return c.as_array()
    arr = np.asarray(c, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a 1-D tap vector")
    return arr


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_k . b_k for each pair of vectors along the last axis; for 1-D
    inputs the same float as a @ b."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _r_and_s(taps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """r and s of each tap vector along the last axis of taps.

    s is computed twice, once from the zero-padded difference sum and
    once as the quadratic form c'Tc/2, and the two are required to agree
    to 1e-12; disagreement would mean a defect in one of the formulations.
    """
    diffs = np.diff(taps, prepend=0.0, append=0.0)
    by_sum = 0.5 * _dots(diffs, diffs)
    by_form = 0.5 * _dots(taps, SecondDifferenceMatrix(taps.shape[-1]).apply(taps))
    off = np.abs(by_sum - by_form) > _CONSISTENCY_TOL * np.maximum(1.0, np.abs(by_sum))
    if off.any():
        k = np.argmax(off)
        raise RuntimeError(
            "smoothing parameter formulations disagree: "
            f"{float(np.ravel(by_sum)[k])!r} vs {float(np.ravel(by_form)[k])!r}"
        )
    return _dots(taps, taps), by_sum


def error_reduction_ratio(c) -> float:
    """Sum of squared taps: output/input noise variance ratio."""
    taps = _taps(c)
    return float(taps @ taps)


def smoothing_parameter(c) -> float:
    """Half the sum of squared successive tap differences, zero padded,
    cross-checked against c'Tc/2 (see _r_and_s)."""
    return float(_r_and_s(_taps(c))[1])


@dataclass(frozen=True)
class ClosedForms:
    """Exact degree-0 metrics for constant and quadratic weighting."""

    q: int
    r0: float
    s0: float
    r2: float
    s2: float


def closed_forms(q: int) -> ClosedForms:
    """Closed-form r and s of the two degree-0 reference filters.

    Moving average (constant weights): r0 = 1/q, s0 = 1/q^2.
    Quadratic weights: r2 = (6/5)((q+1)^2+1)/(q(q+1)(q+2)),
    s2 = 6/(q(q+1)(q+2)).
    """
    if q < 1 or q % 2 == 0:
        raise ValueError(f"window length must be odd and >= 1, got {q}")
    denom = float(q * (q + 1) * (q + 2))
    return ClosedForms(
        q=q,
        r0=1.0 / q,
        s0=1.0 / q**2,
        r2=1.2 * ((q + 1) ** 2 + 1) / denom,
        s2=6.0 / denom,
    )


@dataclass(frozen=True)
class RatioApproximations:
    """General-case approximations of the metric quotients.

    All three tend to the exact quotient as the window grows and equal
    exactly 1 when n = m (the degenerate identity filter).
    """

    m: int
    n: int
    r0_over_r2: float
    s0_over_s2: float
    s0_over_s1: float


def ratio_approximations(m: int, n: int) -> RatioApproximations:
    """Approximate r0/r2, s0/s2, s0/s1 from half-window m and basis size n."""
    if n < 1:
        raise ValueError(f"basis size must be >= 1, got {n}")
    if m < n:
        raise ValueError(f"half-window m={m} must be >= basis size n={n}")
    f = 1.0 - n / m
    return RatioApproximations(
        m=m,
        n=n,
        r0_over_r2=1.0 - f * f / (2.0 * (2 * n + 1)),
        s0_over_s2=1.0 + 3.0 * m * f * f / (2 * n + 1) ** 2,
        s0_over_s1=1.0 + 3.0 * m * f * f / (2 * n + 1.5) ** 2,
    )


@dataclass(frozen=True)
class MovingAverageRatios:
    """Degree-0 approximations of r0/r2 and s0/s2 in terms of q."""

    q: int
    r0_over_r2: float
    s0_over_s2: float


def moving_average_ratio_approximations(q: int) -> MovingAverageRatios:
    """Degree-0 forms: r0/r2 ~ (5/6)(1+1/q), s0/s2 ~ (q/6)(1+3/q)."""
    if q < 1:
        raise ValueError(f"window length must be >= 1, got {q}")
    return MovingAverageRatios(
        q=q,
        r0_over_r2=(5.0 / 6.0) * (1.0 + 1.0 / q),
        s0_over_s2=(q / 6.0) * (1.0 + 3.0 / q),
    )


@dataclass(frozen=True)
class ExactRatios:
    """Ground-truth metric quotients from actually designed filters.

    Subscripts: 0 constant, 1 triangular, 2 quadratic weighting, all at
    the same window and degree.
    """

    q: int
    n: int
    m: int
    r0: float
    r1: float
    r2: float
    s0: float
    s1: float
    s2: float

    @property
    def r0_over_r2(self) -> float:
        return self.r0 / self.r2

    @property
    def s0_over_s2(self) -> float:
        return self.s0 / self.s2

    @property
    def s0_over_s1(self) -> float:
        return self.s0 / self.s1


def exact_ratio_table(q: int, n_max: int) -> list[ExactRatios]:
    """ExactRatios of window q for every basis size n = 1..n_max, in order.

    All rows come from one stacked projection.  The three weightings,
    stacked, get one basis of the degrees 0..2(n_max-1).  Column k of it
    is a polynomial of degree k, so its first 2n-1 columns are the basis
    of basis size n, the even degrees 0..2(n-1) with the odd ones between
    them, which add nothing at the center: the sizes nest.  The center
    taps of every basis size are then w times every other row of one
    cumulative sum over the columns, design.center_projections.  Every
    row passes FilterCoefficients' checks; no filter is designed.

    Raises:
        ValueError: for an even or non-positive window, an n_max outside
            1..m, or taps that fail the checks.
        numpy.linalg.LinAlgError: if the basis is weight-degenerate.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError(f"window length must be odd and >= 1, got {q}")
    m = (q + 1) // 2
    if not 1 <= n_max <= m:
        raise ValueError(f"basis size n={n_max} outside 1..{m} for window {q}")
    degree = 2 * (n_max - 1)
    specs = [make_spec(q, degree, kind) for kind in _REFERENCE_KINDS]
    if q == 1:
        # design_coefficients' identity tap [1.0] under every weighting.
        taps = np.ones((len(specs), 1, 1))
    else:
        w = np.stack([spec.weight.unit_values for spec in specs])
        a = orthonormalize_columns(w, 2 * n_max - 1)
        taps = w[:, None, :] * center_projections(a)[:, ::2]
    check_taps(taps, symmetric=True)
    r, s = (v.tolist() for v in _r_and_s(taps))
    return [ExactRatios(q=q, n=n + 1, m=m, r0=r[0][n], r1=r[1][n], r2=r[2][n],
                        s0=s[0][n], s1=s[1][n], s2=s[2][n]) for n in range(n_max)]


def exact_ratios(q: int, n: int) -> ExactRatios:
    """The three weightings' r and s at window q and basis size n, and
    their quotients: the last row of exact_ratio_table(q, n).

    These quotients have no closed form for general (q, n); the
    approximation formulas are judged against them.
    """
    return exact_ratio_table(q, n)[-1]


@dataclass(frozen=True)
class FrequencyResponse:
    omega: np.ndarray
    magnitude: np.ndarray


def _dtft_magnitude(taps: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """|sum_k c_k e^{-i w k}| at each frequency w in omega."""
    k = np.arange(taps.size)
    return np.abs(np.exp(-1j * np.outer(omega, k)) @ taps)


def _rfft_magnitude(taps: np.ndarray, length: int) -> np.ndarray:
    """|sum_k c_k e^{-i w k}| at w = 2 pi n / length, n = 0..length/2, by one real FFT.

    On this grid e^{-i w k} has period `length` in k, so taps longer than
    the transform are first folded modulo its length: zero padded to a
    multiple of it and summed row by row.  Without the fold rfft would
    truncate them.
    """
    if taps.size > length:
        pad = np.zeros(-taps.size % length)
        taps = np.concatenate((taps, pad)).reshape(-1, length).sum(axis=0)
    return np.abs(np.fft.rfft(taps, length))


def frequency_response(c, num_points: int) -> FrequencyResponse:
    """Magnitude response |sum_k c_k e^{-i w k}| on [0, pi] inclusive.

    linspace(0, pi, N) is the first N bins of a length-2(N-1) DFT, so the
    magnitudes are one real FFT of the q taps, folded first when
    q > 2(N-1): O(N log N) time and O(N + q) memory.  The magnitude at w=0
    equals 1 for any unit-DC-gain tap vector.
    """
    if num_points < 2:
        raise ValueError(f"need at least 2 frequency points, got {num_points}")
    # The magnitudes first: the transform is freed before omega is built.
    magnitude = _rfft_magnitude(_taps(c), 2 * (num_points - 1))
    return FrequencyResponse(omega=np.linspace(0.0, np.pi, num_points), magnitude=magnitude)


def stopband_peak(c, lower: float = 2.0 * np.pi / 3.0, num_points: int = 2048) -> float:
    """Largest response magnitude over [lower, pi].

    Summed directly at the num_points frequencies linspace(lower, pi, num_points).
    """
    if not 0.0 <= lower < np.pi:
        raise ValueError(f"stopband edge must lie in [0, pi), got {lower}")
    if num_points < 2:
        raise ValueError(f"need at least 2 frequency points, got {num_points}")
    omega = np.linspace(lower, np.pi, num_points)
    return float(_dtft_magnitude(_taps(c), omega).max())


@dataclass(frozen=True)
class EmpiricalRatios:
    r_hat: float
    s_hat: float


def empirical_ratios(c, sample_count: int, seed: int) -> EmpiricalRatios:
    """Monte-Carlo estimate of r and s on white Gaussian noise.

    Draws `sample_count` independent standard normal samples from a
    seeded generator, filters them, and returns the empirical output
    variance ratio and the empirical successive-difference variance
    ratio divided by two.  Deterministic for a fixed seed.
    """
    if sample_count < 10_000:
        raise ValueError(f"sample count must be >= 10000, got {sample_count}")
    taps = _taps(c)
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(sample_count)
    out = np.correlate(noise, taps, mode="valid")
    r_hat = float(out.var() / noise.var())
    s_hat = float(np.diff(out).var() / (2.0 * noise.var()))
    return EmpiricalRatios(r_hat=r_hat, s_hat=s_hat)


@dataclass(frozen=True)
class MetricsReport:
    """Metrics of one designed filter plus reference comparisons.

    The closed forms and ratio records are attached for center-evaluated
    odd windows; off-center designs report r and s only.
    """

    r: float
    s: float
    q: int
    n: int
    m: int | None
    closed: ClosedForms | None = None
    exact: ExactRatios | None = None
    general_approx: RatioApproximations | None = None
    ma_approx: MovingAverageRatios | None = None


def metrics_report(coeffs: FilterCoefficients) -> MetricsReport:
    """Assemble the full report for a designed filter."""
    spec = coeffs.spec
    r = error_reduction_ratio(coeffs)
    s = smoothing_parameter(coeffs)
    if not spec.is_centered:
        return MetricsReport(r=r, s=s, q=spec.q, n=spec.n_columns, m=None)
    # The references are symmetric-weight designs: n counts the even degrees.
    n = spec.degree // 2 + 1
    m = spec.m
    return MetricsReport(
        r=r,
        s=s,
        q=spec.q,
        n=n,
        m=m,
        closed=closed_forms(spec.q),
        exact=exact_ratios(spec.q, n),
        general_approx=ratio_approximations(m, n),
        ma_approx=moving_average_ratio_approximations(spec.q),
    )
