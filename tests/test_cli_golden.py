"""Golden output of `wsavgol smooth` on a small, awkward CSV file.

The input mixes quoted commas, doubled quotes, an embedded newline,
blank lines, one short row and both LF and CRLF line endings.  The
expected files under ``tests/golden`` were written by the CLI before its
CSV path was rewritten, and before the design moved to the Legendre
projection kernel.  Every byte except the smoothed cells must match
them.  The smoothed cells carry the design's last-digit rounding, so
each is held instead to within 1e-14 of its exact rational value: the
exact taps applied to the parsed input samples.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from exact_fit import exact_taps

from wsavgol.cli import main
from wsavgol.design import make_spec

GOLDEN = Path(__file__).parent / "golden"
FILTER = ["--window", "25", "--degree", "4", "--weight", "quadratic"]
SMOOTHED_ATOL = 1e-14


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


def exact_smoothed(y: list[float], edge: str) -> list[Fraction | None]:
    """Exact smoothed value of every row; None where `valid` leaves it blank."""
    spec = make_spec(25, 4, "quadratic")
    q, m, rows = spec.q, spec.m, len(y)
    center = exact_taps(spec)
    out = []
    for r in range(rows):
        if m - 1 <= r < rows - (m - 1):
            taps, start = center, r - (m - 1)
        elif edge == "valid":
            out.append(None)
            continue
        elif edge == "polyfit":
            start = 0 if r < m - 1 else rows - q
            taps = exact_taps(spec, r - start + 1)
        else:  # mirror: reflect about the end samples
            idx = [abs(i) if i < rows else 2 * (rows - 1) - i for i in range(r - m + 1, r + m)]
            out.append(sum(c * Fraction(y[i]) for c, i in zip(center, idx)))
            continue
        out.append(sum(c * Fraction(v) for c, v in zip(taps, y[start : start + q])))
    return out


@pytest.mark.parametrize("edge", ["valid", "mirror", "polyfit"])
def test_exact_bytes(tmp_path, edge):
    code, out = run_smooth(tmp_path, golden_input(), "--edge", edge)
    assert code == 0
    expected = (GOLDEN / f"smooth_{edge}.csv").read_bytes()
    # One record per CRLF; the embedded newline in a note is a bare LF.
    got_rows, want_rows = out.split(b"\r\n"), expected.split(b"\r\n")
    assert len(got_rows) == len(want_rows) == 1 + 40 + 1
    assert got_rows[0] == want_rows[0] and got_rows[-1] == want_rows[-1] == b""
    data_rows = list(zip(got_rows[1:-1], want_rows[1:-1]))
    y = [float(got.split(b",")[1]) for got, _ in data_rows]
    for k, ((got, want), exact) in enumerate(zip(data_rows, exact_smoothed(y, edge))):
        got_head, _, got_cell = got.rpartition(b",")
        want_head, _, want_cell = want.rpartition(b",")
        assert got_head == want_head, f"input columns of row {k}"
        if exact is None:
            assert got_cell == want_cell == b"", k
        else:
            assert abs(Fraction(float(got_cell)) - exact) <= SMOOTHED_ATOL, k


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
