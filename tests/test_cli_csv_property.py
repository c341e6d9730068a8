"""Property test: both output paths of `wsavgol smooth` give csv.writer's bytes.

Tables written by csv.writer take the copy path unless a field holds CR or
LF; each mutation below makes a file that csv.writer would not write back
as it stands, so it must take the csv.writer path.
"""

import csv

import pytest
from test_cli_csv import reference, run_smooth, writer_line

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TEXT = st.text(alphabet=[",", '"', " ", "\r", "\n", "a", "b", "Z"], max_size=6)
SPELLINGS = ["{!r}", "{:.3f}", " {:.2f}", "{:+.4e} ", "{:.0f}.", "{:.1e}"]
MUTATIONS = ["none", "needless quotes", "LF endings", "no final line end", "blank lines",
             "short row", "embedded newline", "quote in unquoted field"]


@st.composite
def tables(draw):
    """(header, rows): text fields, with column y holding floats in several spellings."""
    width = draw(st.integers(1, 4))
    col = draw(st.integers(0, width - 1))
    n = draw(st.integers(5, 12))
    header = [draw(TEXT) for _ in range(width)]
    header[col] = "y"
    rows = []
    for _ in range(n):
        row = [draw(TEXT) for _ in range(width)]
        value = draw(st.floats(-1e3, 1e3, allow_nan=False))
        row[col] = draw(st.sampled_from(SPELLINGS)).format(value)
        rows.append(row)
    return header, rows


def mutate(records, rows, header, kind, i):
    """The data records after one mutation that csv.writer would not write back as is."""
    records = list(records)
    width, col = len(header), header.index("y")
    other = next((j for j in range(width) if j != col), None)
    if kind == "needless quotes":
        records[i] = writer_line(rows[i], quoting=csv.QUOTE_ALL)
    elif kind == "LF endings":
        records = [r[:-2] + "\n" for r in records]
    elif kind == "no final line end":
        records[-1] = records[-1][:-2]
    elif kind == "blank lines":
        records.insert(i, "\r\n")
    elif kind == "short row" and width > 1:
        records[i] = writer_line(rows[i][:-1])
    elif kind == "embedded newline" and other is not None:
        records[i] = writer_line([*rows[i][:other], "x\ny", *rows[i][other + 1:]])
    elif kind == "quote in unquoted field" and other is not None:
        fields = [writer_line([f])[:-2] for f in rows[i]]
        fields[other] = 'a"b'
        records[i] = ",".join(fields) + "\r\n"
    else:
        return records, False
    return records, True


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("smooth")


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(table=tables(), kind=st.sampled_from(MUTATIONS),
                  edge=st.sampled_from(["mirror", "valid", "polyfit"]), data=st.data())
def test_both_paths_match_the_csv_module(workdir, table, kind, edge, data):
    header, rows = table
    records = [writer_line(row) for row in rows]
    i = data.draw(st.integers(0, len(rows) - 1))
    records, mutated = mutate(records, rows, header, kind, i)
    text = writer_line(header) + "".join(records)

    code, out, copied = run_smooth(workdir, text.encode(), edge)
    assert (code, out) == reference(text.encode(), edge)
    if code == 0:
        # What csv.writer wrote is copied through unless a field holds CR or LF.
        plain = not any("\r" in f or "\n" in f for row in rows for f in row)
        assert copied == (plain and not mutated)
