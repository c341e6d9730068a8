"""Property test: every stream source gives `smooth`'s bits.

`stream_smooth` filters a float64 array block by block and pulls any other
iterable through a ring buffer, but both apply the taps with `smooth`'s own
``np.correlate``.  So an array source and an iterator over it yield the same
outputs exactly and raise the same exception type after them, and wherever
`smooth(edge="valid")` returns on the samples before the first non-finite
one, those outputs are its values.

Samples come from the whole finite float range plus its two ends, where
windows overflow; half of the records carry one NaN or infinite sample,
which every source must report after the outputs of the windows before it.
"""

import numpy as np
import pytest

from wsavgol.design import design_coefficients, make_spec
from wsavgol.smoothing import SignalSeries, smooth, stream_smooth

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

BIG = np.finfo(np.float64).max
SAMPLES = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([BIG, -BIG]))


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
        return seen, type(exc)
    return seen, None


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(case=cases())
def test_every_source_gives_smooths_bits(case):
    coeffs, x = case
    from_array, array_raised = _run(x, coeffs)
    assert _run(iter(x), coeffs) == (from_array, array_raised)
    finite = np.isfinite(x)
    prefix = x if finite.all() else x[: finite.argmin()]
    if prefix.size < coeffs.q:
        assert from_array == []
        return
    try:
        expected = smooth(SignalSeries(prefix), coeffs, edge="valid").values.tolist()
    except RuntimeError:
        assert array_raised is RuntimeError
        return
    assert from_array == expected
    assert array_raised is (None if prefix.size == x.size else ValueError)
