"""The csv and table forms of `design`, `sweep`, `freqresp` and `verify`.

Tables print numbers to a few digits, so the tables of `design`, `sweep`
and `freqresp` are pinned as text on small grids.  Their CSV files carry
the shortest round-trip `repr` of every number; each is parsed and held
within 1e-14 of its exact value, computed here in rationals from
`tests/exact_fit.py`, as `tests/test_cli_golden.py` does for `smooth`.
`verify`'s residuals are last-bit rounding noise, so only the structure
of its table is pinned, and the key order of its JSON report.
"""

import csv
import io
import json
import math
import re
from fractions import Fraction

import pytest
from exact_fit import exact_taps
from numpy.testing import assert_allclose

from wsavgol.cli import main
from wsavgol.design import make_spec
from wsavgol.weights import custom_weights

ATOL = 1e-14


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


def exact_r_s(spec) -> tuple[Fraction, Fraction]:
    """r = sum c^2 and s = half the sum of squared zero-padded differences, exactly."""
    c = exact_taps(spec)
    padded = [Fraction(0)] + c + [Fraction(0)]
    r = sum(t * t for t in c)
    s = sum((b - a) ** 2 for a, b in zip(padded, padded[1:])) / 2
    return r, s


DESIGN_TABLE = """\
q=5 degree=2 weight=quadratic
index  weight  coefficient
-----  ------  -----------
1      2.5     -0.079365
2      4       0.317460
3      4.5     0.523810
4      4       0.317460
5      2.5     -0.079365
r = 0.488536
s = 0.206349
"""

SWEEP_TABLE = """\
q  degree  weight     r         s          r0/r2     s0/s2    s0/s1     approx r0/r2  approx s0/s2  approx s0/s1  err r0/r2    err s0/s2   err s0/s1
-  ------  ---------  --------  ---------  --------  -------  --------  ------------  ------------  ------------  -----------  ----------  ---------
5  0       constant   0.2       0.04       0.945946  1.4      1.08      1             1.33333       1.32653       0.0571429    -0.047619   0.228269
5  0       quadratic  0.211429  0.0285714  0.945946  1.4      1.08      1             1.33333       1.32653       0.0571429    -0.047619   0.228269
5  2       constant   0.485714  0.211429   0.994224  1.02462  0.932773  0.988889      1.04          1.03306       -0.00536593  0.015015    0.107512
5  2       quadratic  0.488536  0.206349   0.994224  1.02462  0.932773  0.988889      1.04          1.03306       -0.00536593  0.015015    0.107512
7  0       constant   0.142857  0.0204082  0.923077  1.71429  1.30612   0.952381      1.66667       1.55102       0.031746     -0.0277778  0.1875
7  0       quadratic  0.154762  0.0119048  0.923077  1.71429  1.30612   0.952381      1.66667       1.55102       0.031746     -0.0277778  0.1875
7  2       constant   0.333333  0.0884354  0.980892  1.10425  0.983971  0.975         1.12          1.09917       -0.00600649  0.0142657   0.11708
7  2       quadratic  0.339827  0.0800866  0.980892  1.10425  0.983971  0.975         1.12          1.09917       -0.00600649  0.0142657   0.11708
"""

FREQRESP_TABLE = """\
omega     constant  quadratic
--------  --------  ---------
0.000000  1.000000  1.000000
0.785398  0.970588  0.972766
1.570796  0.657143  0.682540
2.356194  0.000841  0.074853
3.141593  0.371429  0.269841
"""


@pytest.mark.parametrize("argv,expected", [
    (["design", "--window", "5", "--degree", "2", "--weight", "quadratic"], DESIGN_TABLE),
    (["sweep", "--windows", "5:7:2", "--degrees", "0,2", "--weights", "constant,quadratic"],
     SWEEP_TABLE),
    (["freqresp", "--window", "5", "--degree", "2", "--weights", "constant,quadratic",
      "--points", "5"], FREQRESP_TABLE),
], ids=["design", "sweep", "freqresp"])
def test_table_text(capsys, tmp_path, argv, expected):
    code, out = run(capsys, *argv, "--format", "table")
    assert (code, out) == (0, expected)
    path = tmp_path / "table.txt"
    assert run(capsys, *argv, "--format", "table", "--output", str(path)) == (0, "")
    assert path.read_text() == expected


@pytest.mark.parametrize("q,degree,weight", [
    (5, 2, "quadratic"), (7, 3, "triangular"), (9, 0, "constant"),
    (7, 2, (1.0, 3.0, 2.0, 5.0, 1.0, 4.0, 2.0)),
])
def test_design_csv(capsys, tmp_path, q, degree, weight):
    if isinstance(weight, tuple):
        path = tmp_path / "w.txt"
        path.write_text("\n".join(map(repr, weight)) + "\n")
        flags, weight = ["--weight-file", str(path)], custom_weights(weight)
    else:
        flags = ["--weight", weight]
    code, out = run(capsys, "design", "--window", str(q), "--degree", str(degree), *flags,
                    "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert out.endswith("\r\n") and rows[0] == ["index", "weight", "coefficient", "r", "s"]
    spec = make_spec(q, degree, weight)
    r, s = exact_r_s(spec)
    assert [int(row[0]) for row in rows[1:]] == list(range(1, q + 1))
    assert [float(row[1]) for row in rows[1:]] == list(spec.weight.values)
    got = [[float(v) for v in row[2:]] for row in rows[1:]]
    want = [[float(c), float(r), float(s)] for c in exact_taps(spec)]
    assert_allclose(got, want, rtol=0, atol=ATOL)


def test_sweep_csv(capsys):
    code, out = run(capsys, "sweep", "--windows", "5:11:2", "--degrees", "0,1,2,4",
                    "--weights", "all", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert rows[0] == ["q", "degree", "weight", "r", "s", "r0/r2", "s0/s2", "s0/s1",
                       "approx r0/r2", "approx s0/s2", "approx s0/s1",
                       "err r0/r2", "err s0/s2", "err s0/s1"]
    keys = [(int(row[0]), int(row[1]), row[2]) for row in rows[1:]]
    assert keys == [(q, d, w) for q in (5, 7, 9, 11) for d in (0, 1, 2, 4)
                    for w in ("constant", "quadratic", "triangular")]
    for row in rows[1:]:
        q, kind = int(row[0]), row[2]
        n, m = int(row[1]) // 2 + 1, (q + 1) // 2
        rs = {w: exact_r_s(make_spec(q, 2 * (n - 1), w))
              for w in ("constant", "triangular", "quadratic")}
        (r0, s0), (r1, s1), (r2, s2) = rs["constant"], rs["triangular"], rs["quadratic"]
        exact = [r0 / r2, s0 / s2, s0 / s1]
        f = 1 - Fraction(n, m)
        approx = [1 - f * f / (2 * (2 * n + 1)), 1 + 3 * m * f * f / (2 * n + 1) ** 2,
                  1 + 3 * m * f * f / (2 * n + Fraction(3, 2)) ** 2]
        if n == 1:
            approx[:2] = [Fraction(5, 6) * (1 + Fraction(1, q)), Fraction(q, 6) * (1 + Fraction(3, q))]
        errs = [(a - e) / e for a, e in zip(approx, exact)]
        want = [float(v) for v in (*rs[kind], *exact, *approx, *errs)]
        assert_allclose([float(v) for v in row[3:]], want, rtol=ATOL, atol=ATOL, err_msg=str(row))


def test_freqresp_csv(capsys):
    q, points = 9, 17
    kinds = ["quadratic", "constant", "triangular"]
    code, out = run(capsys, "freqresp", "--window", str(q), "--degree", "2",
                    "--weights", ",".join(kinds), "--points", str(points), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert rows[0] == ["omega", *kinds] and len(rows) == points + 1
    taps = {w: [float(c) for c in exact_taps(make_spec(q, 2, w))] for w in kinds}
    for i, row in enumerate(rows[1:]):
        omega = math.pi * i / (points - 1)
        want = [omega] + [math.hypot(math.fsum(c * math.cos(omega * k) for k, c in enumerate(t)),
                                     math.fsum(c * math.sin(omega * k) for k, c in enumerate(t)))
                          for t in taps.values()]
        assert_allclose([float(v) for v in row], want, rtol=0, atol=ATOL)


VERIFY_HEADERS = ["q", "n", "max|grad|", "min eig(H)", "min pert ds", "eig err",
                  "lambda_min", "formula", "status"]
NUMBER = re.compile(r"-?\d\.\d{3}e[+-]\d\d")


def verify_table(out: str):
    """(TW eigenvalue lines, data rows as cell lists, summary line) of a verify table.

    Checks that each column is as wide as its widest cell, that two spaces
    part the columns, and that every cell is left-aligned in its column.
    """
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("q  "))
    dashes = lines[start + 1].split("  ")
    starts = [sum(len(d) + 2 for d in dashes[:i]) for i in range(len(dashes))]
    rows = []
    for line in [lines[start]] + lines[start + 2:-1]:
        cells = [line[a:a + len(d)].strip() for a, d in zip(starts, dashes)]
        assert "  ".join(c.ljust(len(d)) for c, d in zip(cells, dashes)).rstrip() == line
        rows.append(cells)
    assert [len(d) for d in dashes] == [max(map(len, column)) for column in zip(*rows)]
    assert rows[0] == VERIFY_HEADERS
    return lines[:start], rows[1:], lines[-1]


def test_verify_table_structure(capsys):
    code, out = run(capsys, "verify", "--max-window", "7", "--max-degree", "2")
    assert code == 0
    eigen, rows, summary = verify_table(out)
    assert eigen == ["TW eigenvalues (q=3): 1, 3, 6", "TW eigenvalues (q=5): 1, 3, 6, 10, 15",
                     "TW eigenvalues (q=7): 1, 3, 6, 10, 15, 21, 28"]
    assert [row[:2] for row in rows] == [["3", "1"], ["5", "1"], ["5", "2"], ["7", "1"], ["7", "2"],
                                         ["7", "3"]]
    assert all(NUMBER.fullmatch(cell) for row in rows for cell in row[2:7])
    for row in rows:  # lambda_min has a closed form at n = 1 only
        assert NUMBER.fullmatch(row[7]) if row[1] == "1" else row[7] == "-"
    assert [row[8] for row in rows] == ["PASS"] * 6
    assert summary == "all checks passed"


def test_verify_table_structure_of_a_custom_weight(capsys, tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("1 2 3 2 1\n")
    code, out = run(capsys, "verify", "--max-window", "5", "--weight-file", str(path))
    assert code == 1
    _, rows, summary = verify_table(out)
    assert [row[:2] for row in rows] == [["5", "1"], ["5", "2"]]
    for row in rows:
        assert NUMBER.fullmatch(row[2]) and NUMBER.fullmatch(row[4])
        assert [row[3], *row[5:]] == ["-", "-", "-", "-", "FAIL"]
    assert summary == "FAILED at (q, n): [(5, 1), (5, 2)]"


def test_verify_json_key_order(capsys):
    code, out = run(capsys, "verify", "--max-window", "5", "--max-degree", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["passed", "tw_eigenvalues", "reports"]
    assert list(payload["tw_eigenvalues"]) == ["3", "5"]
    assert [list(rep) for rep in payload["reports"]] == [[
        "q", "n", "max_gradient_abs", "min_hessian_eigenvalue", "perturbation_min_delta",
        "max_eigenvalue_rel_error", "orthonormality_error", "eigen_relation_error",
        "lambda_min_observed", "lambda_min_formula", "passed"]] * 3
