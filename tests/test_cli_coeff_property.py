"""Property test: `wsavgol smooth --coeff-file` ends cleanly on any coefficient document.

Documents start from a real design and have fields dropped, replaced by a
JSON value of any type, resized, or given a NaN, an infinity or a nudged
entry.  Every run exits 0, 1 or 2; a failure prints exactly one `error:`
line and no traceback, and exit 0 is allowed only for a document whose
taps are within the documented tolerance of its design.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from wsavgol import cli
from wsavgol.design import FilterSpec, design, design_coefficients
from wsavgol.weights import WeightVector

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

FIELDS = ("q", "degree", "weight_kind", "weights", "coefficients")
SCALARS = (st.none() | st.booleans() | st.integers(-3, 9) | st.floats()
           | st.sampled_from(["", "5", "quadratic", "custom", "constant"]))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.text(max_size=2), inner,
                                                                 max_size=2),
    max_leaves=8)
ENTRIES = st.sampled_from([float("nan"), float("inf"), float("-inf"), None, "0.2", True, 0])


@st.composite
def documents(draw):
    """A coefficient document as `wsavgol design` writes it, then damaged field by field."""
    q = draw(st.sampled_from([1, 3, 5, 7]))
    coeffs = design(q, draw(st.integers(0, q - 1)),
                    draw(st.sampled_from(["constant", "triangular", "quadratic"])))
    doc = {"q": q, "degree": coeffs.spec.degree, "weight_kind": coeffs.spec.weight.kind,
           "weights": list(coeffs.spec.weight.values), "coefficients": list(coeffs.taps)}
    for key in FIELDS:
        how = draw(st.sampled_from(["keep", "keep", "drop", "replace", "resize", "entry", "nudge"]))
        if how == "drop":
            del doc[key]
        elif how == "replace":
            doc[key] = draw(JSON_VALUES)
        elif isinstance(doc[key], list) and how == "resize":
            doc[key] = doc[key][:-1] if draw(st.booleans()) else doc[key] + [doc[key][-1]]
        elif isinstance(doc[key], list) and how in ("entry", "nudge"):
            i = draw(st.integers(0, len(doc[key]) - 1))
            doc[key][i] = (draw(ENTRIES) if how == "entry"
                           else doc[key][i] + draw(st.sampled_from([1e-9, 1e-7, 1e-5, 1e-3])))
    return doc


def within_tolerance_of_design(doc) -> bool:
    spec = FilterSpec(q=int(doc["q"]), degree=int(doc["degree"]),
                      weight=WeightVector(tuple(doc["weights"]), doc["weight_kind"]))
    gap = np.max(np.abs(np.array(doc["coefficients"]) - design_coefficients(spec).as_array()))
    return bool(gap <= cli.COEFFICIENT_FILE_TOL)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("coeff")
    (path / "in.csv").write_text("y\n" + "".join(f"{float(np.sin(i))!r}\n" for i in range(12)))
    return path


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(doc=documents(), edge=st.sampled_from(["mirror", "valid", "polyfit"]))
def test_every_document_ends_cleanly(workdir, doc, edge):
    (workdir / "c.json").write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["smooth", "--input", str(workdir / "in.csv"), "--column", "y",
                         "--coeff-file", str(workdir / "c.json"), "--edge", edge])
    assert code in (0, 1, 2)
    if code == 0:
        assert within_tolerance_of_design(doc)
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "Traceback" not in err.getvalue()
