"""Golden output of `wsavgol smooth` on a small, awkward CSV file.

The input mixes quoted commas, doubled quotes, an embedded newline,
blank lines, one short row and both LF and CRLF line endings.  The
expected files under ``tests/golden`` were written by the CLI before its
CSV path was rewritten; `valid` and `mirror` output must match them byte
for byte.  For `polyfit` every input column and every interior row must
match byte for byte.  The edge cells (off-center fits) must stay within
1e-12 of an exact rational solve, and close to the recorded values: the
recorded cell of row 0 is itself 2.0e-12 away from the exact value, so
that comparison uses 5e-12.
"""

from pathlib import Path

import numpy as np
import pytest
from test_design import exact_off_center_taps

from wsavgol.cli import main
from wsavgol.design import make_spec

GOLDEN = Path(__file__).parent / "golden"
FILTER = ["--window", "25", "--degree", "4", "--weight", "quadratic"]
EDGE_ATOL = 1e-12
RECORDED_EDGE_ATOL = 5e-12
# Rows whose smoothed cell comes from an off-center refit under polyfit.
HALF = 12


def golden_input() -> bytes:
    """40 data rows; row i's y value is written in a variety of float spellings."""
    notes = ['"a, b"', '"say ""hi"""', "plain", '"line one\nline two"', '"x,y,z"']
    spellings = ["{:.6f}", "{!r}", " {:.3f}", "{:+.4e}"]
    lines = [b"t,y,note\n"]
    for i in range(40):
        y = ((i * 37) % 11 - 5) * 0.25 + 0.01 * i * i
        cell = spellings[i % len(spellings)].format(y)
        note = notes[i % len(notes)]
        ending = b"\r\n" if i % 3 == 0 else b"\n"
        if i == 17:
            lines.append(f"{i},{cell}".encode() + ending)  # short row: no note
        else:
            lines.append(f"{i},{cell},{note}".encode() + ending)
        if i in (5, 29):
            lines.append(b"\n" if i == 5 else b"\r\n")  # blank lines
    return b"".join(lines)


def run_smooth(tmp_path, data: bytes, *extra):
    src = tmp_path / "in.csv"
    src.write_bytes(data)
    out = tmp_path / "out.csv"
    code = main(["smooth", "--input", str(src), "--column", "y", "--output", str(out),
                 *FILTER, *extra])
    return code, out.read_bytes() if out.exists() else None


def test_input_has_every_feature():
    data = golden_input()
    assert b"\r\n" in data and b"\n\n" in data and b"\n\r\n" in data
    assert b'""hi""' in data and b'"a, b"' in data and b"\n17," in data


@pytest.mark.parametrize("edge", ["valid", "mirror"])
def test_exact_bytes(tmp_path, edge):
    code, out = run_smooth(tmp_path, golden_input(), "--edge", edge)
    assert code == 0
    assert out == (GOLDEN / f"smooth_{edge}.csv").read_bytes()


def test_polyfit_interior_exact_and_edges_close(tmp_path):
    code, out = run_smooth(tmp_path, golden_input(), "--edge", "polyfit")
    assert code == 0
    expected = (GOLDEN / "smooth_polyfit.csv").read_bytes()
    # One record per CRLF; the embedded newline in a note is a bare LF.
    got_rows, want_rows = out.split(b"\r\n"), expected.split(b"\r\n")
    assert len(got_rows) == len(want_rows) == 1 + 40 + 1
    assert got_rows[0] == want_rows[0]
    data_rows = list(zip(got_rows[1:-1], want_rows[1:-1]))
    rows = len(data_rows)
    y = np.array([float(row.split(b",")[1]) for row, _ in data_rows])
    spec = make_spec(25, 4, "quadratic")
    for k, (got, want) in enumerate(data_rows):
        if HALF <= k < rows - HALF:
            assert got == want, f"interior row {k}"
            continue
        got_head, _, got_cell = got.rpartition(b",")
        want_head, _, want_cell = want.rpartition(b",")
        assert got_head == want_head, f"input columns of edge row {k}"
        start = 0 if k < HALF else rows - spec.q
        exact = np.dot(exact_off_center_taps(spec, k - start + 1), y[start : start + spec.q])
        assert float(got_cell) == pytest.approx(exact, rel=0, abs=EDGE_ATOL), k
        assert float(got_cell) == pytest.approx(float(want_cell), rel=0,
                                                abs=RECORDED_EDGE_ATOL), k


def test_over_long_row_is_usage_error(tmp_path, capsys):
    data = golden_input().replace(b'"x,y,z"\n', b'"x,y,z",extra\n', 1)
    code, _ = run_smooth(tmp_path, data, "--edge", "mirror")
    assert code == 2
    assert "row 5: 4 fields, header has 3" in capsys.readouterr().err


def test_non_numeric_cell_is_computation_error(tmp_path, capsys):
    data = golden_input().replace(b"\n3,", b"\n3,oops", 1)
    code, _ = run_smooth(tmp_path, data, "--edge", "mirror")
    assert code == 1
    assert "row 4: non-numeric value 'oops" in capsys.readouterr().err
