"""Property test: an array source and an iterator over it stream the same filter.

`stream_smooth` convolves a float64 array block by block and pulls any other
iterable through a ring buffer of dot products.  The two sum each window in
different orders, so they agree to rounding: per output within
8 eps (|taps| @ |window|).  They yield the same number of outputs, and when
one raises, the other raises the same exception type.

Samples stay within 1e300 in magnitude, so no window overflows in either
order.  Nearer the float limit the two orders can disagree on whether a
partial sum overflows: a constant record of the largest float under the
(7, 0, "quadratic") taps, all positive, smooths to itself on the array
path and overflows on the iterator path, so the overflow tests pin each
path to the window where its own sums overflow.  Half of the records
carry one NaN or infinite sample instead, which both paths must report as
the same error after the same outputs.
"""

import numpy as np
import pytest

from wsavgol.design import design_coefficients, make_spec
from wsavgol.smoothing import stream_smooth

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

EPS = np.finfo(np.float64).eps
SAMPLES = st.floats(min_value=-1e300, max_value=1e300)


@st.composite
def cases(draw):
    """(coefficients, record): a centered built-in filter and a record of 0..300 samples."""
    q = draw(st.sampled_from([1, 3, 5, 7, 11, 17, 25, 51]))
    degree = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["constant", "triangular", "quadratic"]))
    hypothesis.assume(2 * (degree // 2) + 1 <= q)
    x = draw(hnp.arrays(np.float64, st.integers(0, 300), elements=SAMPLES))
    if x.size and draw(st.booleans()):
        x[draw(st.integers(0, x.size - 1))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return design_coefficients(make_spec(q, degree, kind)), x


def _run(source, coeffs):
    seen = []
    try:
        for value in stream_smooth(source, coeffs):
            seen.append(value)
    except (ValueError, RuntimeError) as exc:
        return np.array(seen), type(exc)
    return np.array(seen), None


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(case=cases())
def test_array_and_iterator_paths_agree(case):
    coeffs, x = case
    from_array, array_raised = _run(x, coeffs)
    pulled, pulled_raised = _run(iter(x), coeffs)
    assert array_raised is pulled_raised
    assert from_array.size == pulled.size
    if pulled.size:
        q = coeffs.q
        windows = np.lib.stride_tricks.sliding_window_view(np.abs(x[: pulled.size + q - 1]), q)
        bound = 8 * EPS * (windows @ np.abs(coeffs.as_array()))
        assert (np.abs(from_array - pulled) <= bound).all()
