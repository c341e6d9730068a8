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

from .design import FilterCoefficients, design
from .weights import SecondDifferenceMatrix

_CONSISTENCY_TOL = 1e-12


def _taps(c) -> np.ndarray:
    if isinstance(c, FilterCoefficients):
        return c.as_array()
    arr = np.asarray(c, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a 1-D tap vector")
    return arr


def error_reduction_ratio(c) -> float:
    """Sum of squared taps: output/input noise variance ratio."""
    taps = _taps(c)
    return float(taps @ taps)


def smoothing_parameter(c) -> float:
    """Half the sum of squared successive tap differences, zero padded.

    Computed twice, once from the padded difference sum and once as the
    quadratic form c'Tc/2, and the two are required to agree to 1e-12;
    disagreement would mean a defect in one of the formulations.
    """
    taps = _taps(c)
    diffs = np.diff(taps, prepend=0.0, append=0.0)
    by_sum = 0.5 * float(diffs @ diffs)
    t = SecondDifferenceMatrix(taps.size)
    by_form = 0.5 * float(taps @ t.apply(taps))
    if abs(by_sum - by_form) > _CONSISTENCY_TOL * max(1.0, abs(by_sum)):
        raise RuntimeError(
            f"smoothing parameter formulations disagree: {by_sum!r} vs {by_form!r}"
        )
    return by_sum


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


def exact_ratios(q: int, n: int) -> ExactRatios:
    """Design all three weightings at basis size n and take quotients.

    These quotients have no closed form for general (q, n); the
    approximation formulas are judged against them.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError(f"window length must be odd and >= 1, got {q}")
    m = (q + 1) // 2
    if not 1 <= n <= m:
        raise ValueError(f"basis size n={n} outside 1..{m} for window {q}")
    degree = 2 * (n - 1)
    c0 = design(q, degree, "constant")
    c1 = design(q, degree, "triangular")
    c2 = design(q, degree, "quadratic")
    return ExactRatios(
        q=q,
        n=n,
        m=m,
        r0=error_reduction_ratio(c0),
        r1=error_reduction_ratio(c1),
        r2=error_reduction_ratio(c2),
        s0=smoothing_parameter(c0),
        s1=smoothing_parameter(c1),
        s2=smoothing_parameter(c2),
    )


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
    out = np.convolve(noise, taps[::-1], mode="valid")
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
    # The references are symmetric-weight designs, even-only basis.
    n = spec.degree // 2 + 1
    m = spec.m
    exact = exact_ratios(spec.q, n) if n <= m else None
    approx = ratio_approximations(m, n) if n <= m else None
    return MetricsReport(
        r=r,
        s=s,
        q=spec.q,
        n=n,
        m=m,
        closed=closed_forms(spec.q),
        exact=exact,
        general_approx=approx,
        ma_approx=moving_average_ratio_approximations(spec.q),
    )
