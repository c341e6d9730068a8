"""Apply designed filters to finite signals and sample streams."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# design_coefficients is re-exported: callers look it up on this module.
from .design import FilterCoefficients, design_coefficients, polyfit_edges  # noqa: F401

EDGE_POLICIES = ("valid", "mirror", "polyfit")
_OVERFLOW = "smoothing overflowed: the smoothed signal exceeds the float range"
# Outputs per convolution of an array-sourced stream: bounds its memory,
# and what a consumer that stops early pays for.
STREAM_BLOCK = 65_536


@dataclass(frozen=True, eq=False)
class SignalSeries:
    """A finite record of signal samples, optionally with an abscissa.

    The samples are copied once, on construction, into a read-only
    float64 array, and the abscissa, if any, into a tuple of floats.
    Non-finite and masked samples are rejected so the convolution
    contract stays exact.
    """

    values: np.ndarray
    abscissa: tuple[float, ...] | None = None

    def __post_init__(self):
        # np.ma.is_masked, without importing numpy.ma (~18 ms) for plain input.
        mask = getattr(self.values, "mask", None) if isinstance(self.values, np.ndarray) else None
        if mask is not None and mask.any():
            raise ValueError("signal contains NaN or infinite samples")
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValueError("signal must be a one-dimensional sequence of samples")
        if arr.size < 1:
            raise ValueError("signal must contain at least one sample")
        if not np.isfinite(arr).all():
            raise ValueError("signal contains NaN or infinite samples")
        if self.abscissa is not None:
            absc = tuple(map(float, self.abscissa))
            if len(absc) != arr.size:
                raise ValueError("abscissa length does not match the signal")
            object.__setattr__(self, "abscissa", absc)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_iterable(cls, values, abscissa=None) -> "SignalSeries":
        if not isinstance(values, np.ndarray):
            values = list(values)
        return cls(values, abscissa)

    def __len__(self) -> int:
        return self.values.size

    def as_array(self) -> np.ndarray:
        return self.values


def smooth(signal: SignalSeries, coeffs: FilterCoefficients, edge: str = "polyfit") -> SignalSeries:
    """Filter a finite signal with an explicit edge policy.

    Interior outputs are always the exact tap/window dot products.  The
    policies differ in what happens near the record ends:

      policy   L >=  output
      valid    q     drop edge positions; output has length L - q + 1.
      mirror   m     reflect the signal about its endpoints, output length L.
      polyfit  q     fit the first and last full windows once each (same
                     window, degree and weights) and evaluate each fit at its
                     off-center samples (:func:`~wsavgol.design.polyfit_edges`,
                     on the basis coeffs was designed on), output length L.  Memory beyond the signal is O(q (degree + 1)).

    mirror and polyfit assume a center-evaluated filter.

    Raises:
        ValueError: for an unknown policy, an off-center filter under
            mirror or polyfit, or a record shorter than the policy needs.
        RuntimeError: when a smoothed sample overflows the float range.
    """
    if edge not in EDGE_POLICIES:
        raise ValueError(f"unknown edge policy {edge!r}; expected one of {EDGE_POLICIES}")
    spec = coeffs.spec
    if edge != "valid" and not spec.is_centered:
        raise ValueError(f"edge policy {edge!r} needs a center-evaluated filter")
    y = signal.as_array()
    need = spec.m if edge == "mirror" else spec.q
    if y.size < need:
        raise ValueError(f"insufficient data: {edge} needs at least {need} samples, got {y.size}")
    padded = np.pad(y, spec.m - 1, mode="reflect") if edge == "mirror" else y
    # Finite samples near the float limit can overflow; that is reported
    # once below, as a failed computation rather than as bad input.
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.correlate(padded, coeffs.as_array(), mode="valid")
        if edge == "polyfit":
            head, tail = polyfit_edges(spec, y, coeffs.edge_basis())
            out = np.concatenate((head, out, tail))
    if not np.isfinite(out).all():
        raise RuntimeError(_OVERFLOW)
    absc = signal.abscissa
    if edge == "valid" and absc is not None:
        j0 = spec.evaluation_index - 1
        absc = absc[j0 : j0 + out.size]
    return SignalSeries(out, absc)


def _finite_prefix(a: np.ndarray) -> int:
    """Length of the longest all-finite prefix of a."""
    finite = np.isfinite(a)
    return a.size if finite.all() else int(finite.argmin())


def stream_smooth(source: Iterable[float], coeffs: FilterCoefficients) -> Iterator[float]:
    """Filter an unbounded sample stream.

    Output i is the filter's value at sample i + j - 1 (samples counted
    from 0, j = ``coeffs.spec.evaluation_index``), yielded once sample
    i + q - 1 has been read.  Concatenated, the outputs are
    ``smooth(SignalSeries(x), coeffs, edge="valid").values`` bit for bit,
    x being the samples read: every window goes through `smooth`'s own
    ``np.correlate(..., taps, mode="valid")``.  The source decides only
    how many windows one call takes:

    - A one-dimensional float64 ``np.ndarray`` (a view or an
      ``np.memmap`` too, but no other subclass) is filtered STREAM_BLOCK
      outputs per call, so memory beyond the source is
      O(STREAM_BLOCK + q) and a consumer that stops early pays for at
      most one block.
    - Any other iterable (a list, another dtype, a masked or 2-D array)
      is pulled one sample per output (q before the first) through a
      ring buffer of 2q floats, one call per window of the last q
      samples.  Its buffer has a single owner: do not feed one stream
      from multiple threads.

    Raises:
        ValueError: at the first NaN or infinite sample, after the
            outputs of every window that ends before it.
        RuntimeError: at the first output that overflows the float
            range, after the outputs before it, as `smooth` does.
    """
    taps = coeffs.as_array()
    q = taps.size
    if type(source) in (np.ndarray, np.memmap) and source.ndim == 1 and source.dtype == np.float64:
        # One pass even when no window fills, so a short record's
        # non-finite samples are reported as the ring buffer would.
        for start in range(0, max(source.size - q + 1, 1), STREAM_BLOCK):
            block = source[start : start + STREAM_BLOCK + q - 1]
            bad = _finite_prefix(block)
            if bad >= q:
                # np.correlate overflows to inf or NaN without a warning.
                out = np.correlate(block[:bad], taps, mode="valid")
                good = _finite_prefix(out)
                yield from out[:good].tolist()
                if good < out.size:
                    raise RuntimeError(_OVERFLOW)
            if bad < block.size:
                raise ValueError("signal contains NaN or infinite samples")
        return
    # Each sample is written at k and k + q, so the last q samples always
    # sit oldest-first in the contiguous slice buf[k : k + q].
    buf = np.empty(2 * q)
    k = 0
    full = False
    for sample in source:
        value = float(sample)
        if not math.isfinite(value):
            raise ValueError("signal contains NaN or infinite samples")
        buf[k] = buf[k + q] = value
        k += 1
        if k == q:
            k, full = 0, True
        if full:
            out = float(np.correlate(buf[k : k + q], taps, mode="valid")[0])
            if not math.isfinite(out):
                raise RuntimeError(_OVERFLOW)
            yield out
