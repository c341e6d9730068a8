"""How `wsavgol smooth` reads and writes CSV.

A data record that csv.writer would write unchanged is copied through
with its smoothed cell appended; every other record is written again by
csv.writer.  Both paths must give the bytes of `reference`: csv.reader,
then csv.writer, with the `repr` of the library's `smooth`.
"""

import contextlib
import csv
import io
import os
import tracemalloc

import numpy as np

from wsavgol import cli
from wsavgol.design import design_coefficients, make_spec
from wsavgol.smoothing import SignalSeries, smooth

FILTER = ["--window", "5", "--degree", "2", "--weight", "quadratic"]


def reference(data: bytes, edge: str):
    """(exit code, output bytes) by csv.reader, the library's smooth and csv.writer."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8-sig"), newline="")))
    header, body = rows[0], [row for row in rows[1:] if row]
    width, col = len(header), header.index("y")
    values = []
    for row in body:
        if len(row) > width:
            return 2, None
        if col >= len(row):
            return 1, None
        try:
            values.append(float(row[col]))
        except ValueError:
            return 1, None
        row.extend([""] * (width - len(row)))
    coeffs = design_coefficients(make_spec(5, 2, "quadratic"))
    smoothed = [repr(v) for v in smooth(SignalSeries.from_iterable(values), coeffs,
                                        edge=edge).values.tolist()]
    if edge == "valid":
        smoothed = ["", ""] + smoothed + ["", ""]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header + ["y_smoothed"])
    writer.writerows(row + [cell] for row, cell in zip(body, smoothed))
    return 0, buf.getvalue().encode("utf-8")


@contextlib.contextmanager
def copy_decisions():
    """Record what `_is_canonical` decides for each file `smooth` reads."""
    seen = []
    real = cli._is_canonical

    def spy(lines, width):
        seen.append(real(lines, width))
        return seen[-1]

    cli._is_canonical = spy
    try:
        yield seen
    finally:
        cli._is_canonical = real


def run_smooth(directory, data: bytes, edge: str = "mirror"):
    """(exit code, output bytes or None, copied through or None) of one `smooth` call."""
    src, out = directory / "in.csv", directory / "out.csv"
    src.write_bytes(data)
    if out.exists():
        out.unlink()
    with copy_decisions() as seen:
        code = cli.main(["smooth", "--input", str(src), "--column", "y", "--output", str(out),
                         "--edge", edge, *FILTER])
    return code, out.read_bytes() if out.exists() else None, seen[0] if seen else None


def writer_line(fields, **fmt) -> str:
    buf = io.StringIO()
    csv.writer(buf, **fmt).writerow(fields)
    return buf.getvalue()


# -- the copy path ------------------------------------------------------------

def csv_long_shaped(path, rows: int, seed: int = 1) -> None:
    """A file like the benchmark's: float time, float y, a quoted note with commas and quotes."""
    rng = np.random.default_rng(seed)
    y = np.sin(np.arange(rows) / 50.0) + 0.1 * rng.standard_normal(rows)
    site, probe = rng.integers(0, 1000, rows), rng.integers(0, 10, rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y", "note"])
        for i in range(rows):
            writer.writerow([repr(i * 1e-3), repr(float(y[i])),
                             f'site {site[i]}, "probe {probe[i]}", ok'])


def test_csv_writer_output_is_copied_through(tmp_path, capsys):
    csv_long_shaped(tmp_path / "in.csv", 300)
    data = (tmp_path / "in.csv").read_bytes()
    code, out, copied = run_smooth(tmp_path, data, "polyfit")
    assert code == 0 and copied is True
    assert out == reference(data, "polyfit")[1]
    # stdout carries the same bytes as --output
    assert cli.main(["smooth", "--input", str(tmp_path / "in.csv"), "--column", "y",
                     "--edge", "polyfit", *FILTER]) == 0
    assert capsys.readouterr().out.encode() == out


def test_blank_line_of_a_one_column_file_is_not_a_record(tmp_path):
    # An empty field and its CRLF look like a one-column record, but csv.reader skips the line.
    data = b"y\r\n" + b"".join(b"%d.5\r\n" % i for i in range(4)) + b"\r\n4.5\r\n"
    code, out, copied = run_smooth(tmp_path, data)
    assert (code, copied) == (0, False)
    assert out == reference(data, "mirror")[1]


def test_non_numeric_cell_on_the_copy_path(tmp_path, capsys):
    data = b"t,y\r\n" + b"".join(b"%d,%d.5\r\n" % (i, i) for i in range(9))
    code, _, copied = run_smooth(tmp_path, data.replace(b"4,4.5", b"4,oops"))
    assert (code, copied) == (1, True)
    assert capsys.readouterr().err == "error: row 5: non-numeric value 'oops' in column 'y'\n"


# -- input edge cases -----------------------------------------------------------

def test_byte_order_mark_is_not_part_of_the_header(tmp_path, capsys):
    # y is the first column, the one a byte-order mark would stick to
    data = b"y,t\r\n" + b"".join(b"%d.0,%d\r\n" % (i * i, i) for i in range(9))
    code, plain, _ = run_smooth(tmp_path, data)
    code_bom, with_bom, _ = run_smooth(tmp_path, b"\xef\xbb\xbf" + data)
    assert code == code_bom == 0
    assert with_bom == plain and with_bom.startswith(b"y,t,y_smoothed\r\n")
    assert capsys.readouterr().err == ""


def test_over_long_field_is_a_usage_error(tmp_path, capsys):
    long_note = "x" * (csv.field_size_limit() + 1)
    data = f"t,y,note\r\n0,1.0,a\r\n1,2.0,{long_note}\r\n".encode()
    code, out, _ = run_smooth(tmp_path, data)
    assert code == 2 and out is None
    src = tmp_path / "in.csv"
    err = capsys.readouterr().err
    assert err.startswith(f"error: input {src}, line 3: field larger than field limit")
    assert len(err.splitlines()) == 1


# -- memory ---------------------------------------------------------------------

# Traced peak of one `smooth` call on a 2e4-row file, as a multiple of the
# file's size.  Copying records through measures 5.5x; keeping every row as
# a list and building the whole output as one string measures 10.8x.
PEAK_OVER_FILE_SIZE = 7.5


def test_traced_peak_is_a_small_multiple_of_the_file(tmp_path):
    src = tmp_path / "in.csv"
    csv_long_shaped(src, 20_000)
    argv = ["smooth", "--input", str(src), "--column", "y", "--output", str(tmp_path / "o.csv"),
            "--window", "25", "--degree", "4", "--weight", "quadratic", "--edge", "polyfit"]
    assert cli.main(argv) == 0  # warm the design and regex caches
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_OVER_FILE_SIZE * os.path.getsize(src)
