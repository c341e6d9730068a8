"""Output reference that does not use the wsavgol package.

Taps come from a weighted least-squares fit in the Legendre basis: with
V = legvander(x / half_width, degree) and A = sqrt(w) V, the taps that
evaluate the fit at sample j are c = sqrt(w) * z, where z is the
minimum-norm solution of A' z = V[j] (``np.linalg.lstsq``).  That is row
j of the hat matrix V pinv(A) diag(sqrt(w)).  The package instead solves
the normal equations of a monomial basis by Cholesky, so the two routes
share no code.  Constant-weight polyfit edges are checked against
``scipy.signal.savgol_filter(mode="interp")`` when scipy is present.

Every check returns a Verdict: whether the output matched within the
op's tolerance, and the largest absolute difference seen.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from numpy.polynomial import legendre

try:
    from scipy.signal import savgol_filter
except ImportError:  # the reference falls back to its own hat matrix
    savgol_filter = None

WEIGHT_KINDS = ("constant", "triangular", "quadratic")


def reference_weights(kind: str, q: int) -> np.ndarray:
    """The paper's weight profiles, written out from their definitions."""
    i = np.arange(1, q + 1, dtype=float)
    if kind == "constant":
        return np.ones(q)
    if kind == "triangular":
        return 2.0 * np.minimum(i, q + 1 - i) / (q + 1)
    if kind == "quadratic":
        return 0.5 * i * (q + 1 - i)
    raise ValueError(f"unknown weight kind {kind!r}")


def _weighted_basis(q: int, degree: int, kind: str):
    half = (q - 1) / 2.0
    v = legendre.legvander((np.arange(q) - half) / half, degree)
    sw = np.sqrt(reference_weights(kind, q))
    return v, sw


def reference_taps(q: int, degree: int, kind: str, j: int | None = None) -> np.ndarray:
    """Taps evaluating the weighted degree-`degree` fit at 1-based sample j."""
    if q == 1:
        return np.ones(1)
    v, sw = _weighted_basis(q, degree, kind)
    j = (q + 1) // 2 if j is None else j
    z = np.linalg.lstsq((sw[:, None] * v).T, v[j - 1], rcond=None)[0]
    return sw * z


def reference_hat(q: int, degree: int, kind: str) -> np.ndarray:
    """All q evaluation points at once: row j-1 holds the taps for sample j."""
    v, sw = _weighted_basis(q, degree, kind)
    z = np.linalg.lstsq((sw[:, None] * v).T, v.T, rcond=None)[0]
    return (sw[:, None] * z).T


def r_and_s(taps: np.ndarray) -> tuple[float, float]:
    """Noise reduction ratio and smoothing parameter of a tap vector."""
    d = np.diff(taps, prepend=0.0, append=0.0)
    return float(taps @ taps), 0.5 * float(d @ d)


def reference_smooth(y: np.ndarray, q: int, degree: int, kind: str) -> np.ndarray:
    """Batch smoothing with polyfit edges: the first and last full windows
    are fitted and evaluated at the edge samples."""
    if kind == "constant" and savgol_filter is not None:
        return savgol_filter(y, q, degree, mode="interp")
    hat = reference_hat(q, degree, kind)
    m = (q + 1) // 2
    out = np.empty(y.size)
    out[m - 1: y.size - (m - 1)] = np.convolve(y, hat[m - 1][::-1], mode="valid")
    out[: m - 1] = hat[: m - 1] @ y[:q]
    out[y.size - (m - 1):] = hat[m:] @ y[-q:]
    return out


def reference_valid(y: np.ndarray, q: int, degree: int, kind: str) -> np.ndarray:
    return np.convolve(y, reference_taps(q, degree, kind)[::-1], mode="valid")


class Verdict:
    """Accumulates comparisons for one output."""

    def __init__(self):
        self.ok = True
        self.max_abs_err = 0.0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.ok = False
        self.problems.append(message)

    def compare(self, what: str, got, ref, tol: float) -> None:
        got = np.asarray(got, dtype=float)
        ref = np.asarray(ref, dtype=float)
        if got.shape != ref.shape:
            self.fail(f"{what}: shape {got.shape}, expected {ref.shape}")
            return
        if not np.all(np.isfinite(got)):
            self.fail(f"{what}: non-finite values")
            return
        diff = np.abs(got - ref)
        if diff.size:
            self.max_abs_err = max(self.max_abs_err, float(diff.max()))
        bad = diff > tol * np.maximum(1.0, np.abs(ref))
        if np.any(bad):
            self.fail(f"{what}: {int(bad.sum())} values off by up to {float(diff.max()):.3g}")


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def _int_grid(text: str) -> list[int]:
    if ":" in text:
        start, stop, step = (int(p) for p in text.split(":"))
        return list(range(start, stop + 1, step))
    return [int(t) for t in text.split(",")]


class Checker:
    """Checks op outputs of one plan against the reference."""

    def __init__(self, plan: dict):
        self.plan = plan
        self._taps: dict = {}
        self._records = None
        self._csv = None

    def taps(self, q: int, degree: int, kind: str) -> np.ndarray:
        key = (q, degree, kind)
        if key not in self._taps:
            self._taps[key] = reference_taps(q, degree, kind)
        return self._taps[key]

    def check_file(self, op: dict, path: str) -> Verdict:
        with open(path, "rb") as fh:
            return self.check(op, fh.read())

    def check(self, op: dict, data: bytes) -> Verdict:
        verdict = Verdict()
        try:
            getattr(self, "_check_" + op["check"])(op, data, verdict)
        except (ValueError, KeyError, IndexError, TypeError, UnicodeDecodeError) as exc:
            verdict.fail(f"unreadable output: {type(exc).__name__}: {exc}")
        return verdict

    # -- workload csv_long ---------------------------------------------------

    def input_csv(self) -> list[list[str]]:
        if self._csv is None:
            with open(self.plan["inputs"]["csv"], encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            self._csv = rows
        return self._csv

    def _check_smooth_csv(self, op, data, verdict):
        rows_in = self.input_csv()
        rows_out = list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))
        column = op["column"]
        if rows_out[0] != rows_in[0] + [f"{column}_smoothed"]:
            verdict.fail(f"header {rows_out[0]!r}")
            return
        if len(rows_out) != len(rows_in):
            verdict.fail(f"{len(rows_out) - 1} data rows, expected {len(rows_in) - 1}")
            return
        if any(o[:-1] != i for o, i in zip(rows_out[1:], rows_in[1:])):
            verdict.fail("input columns did not round-trip unchanged")
        col = rows_in[0].index(column)
        y = np.array([float(r[col]) for r in rows_in[1:]])
        got = np.array([float(r[-1]) for r in rows_out[1:]])
        ref = reference_smooth(y, op["window"], op["degree"], op["weight"])
        verdict.compare("smoothed column", got, ref, op["tol"])

    # -- workload records_short ----------------------------------------------

    def _check_record(self, op, data, verdict):
        if self._records is None:
            self._records = np.fromfile(self.plan["inputs"]["records"], dtype=np.float64)
        y = self._records[op["offset"]: op["offset"] + op["length"]]
        got = np.frombuffer(data, dtype=np.float64)
        if op["stream"]:
            ref = reference_valid(y, op["q"], op["degree"], op["weight"])
        else:
            ref = reference_smooth(y, op["q"], op["degree"], op["weight"])
        verdict.compare("stream" if op["stream"] else "record", got, ref, op["tol"])

    # -- workload analysis ---------------------------------------------------

    def _check_design(self, op, data, verdict):
        doc = json.loads(data)
        q, degree, kind = op["q"], op["degree"], op["weight"]
        if (doc["q"], doc["degree"], doc["weight_kind"]) != (q, degree, kind):
            verdict.fail(f"document describes {doc['q']}, {doc['degree']}, {doc['weight_kind']}")
            return
        taps = self.taps(q, degree, kind)
        verdict.compare("weights", doc["weights"], reference_weights(kind, q), op["tol"])
        verdict.compare("taps", doc["coefficients"], taps, op["tol"])
        verdict.compare("r, s", [doc["r"], doc["s"]], r_and_s(taps), op["tol"])

    def _check_sweep(self, op, data, verdict):
        argv = op["argv"]
        windows = _int_grid(_arg(argv, "--windows"))
        degrees = _int_grid(_arg(argv, "--degrees"))
        records = json.loads(data)
        if len(records) != len(windows) * len(degrees) * len(WEIGHT_KINDS):
            verdict.fail(f"{len(records)} sweep rows")
            return
        seen = set()
        for rec in records:
            q, degree = rec["q"], rec["degree"]
            seen.add((q, degree, rec["weight"]))
            even = 2 * (degree // 2)
            rs = {k: r_and_s(self.taps(q, even, k)) for k in WEIGHT_KINDS}
            where = f"q={q} degree={degree} {rec['weight']}"
            verdict.compare(f"r, s at {where}", [rec["r"], rec["s"]], rs[rec["weight"]], op["tol"])
            verdict.compare(
                f"ratios at {where}",
                [rec["r0_over_r2"], rec["s0_over_s2"], rec["s0_over_s1"]],
                [rs["constant"][0] / rs["quadratic"][0], rs["constant"][1] / rs["quadratic"][1],
                 rs["constant"][1] / rs["triangular"][1]],
                op["tol"])
        if seen != {(q, d, k) for q in windows for d in degrees for k in WEIGHT_KINDS}:
            verdict.fail("sweep grid incomplete")

    def _check_freqresp(self, op, data, verdict):
        argv = op["argv"]
        q, degree = int(_arg(argv, "--window")), int(_arg(argv, "--degree"))
        points = int(_arg(argv, "--points"))
        doc = json.loads(data)
        verdict.compare("omega", doc["omega"], np.linspace(0.0, math.pi, points), op["tol"])
        for kind in WEIGHT_KINDS:
            # rfft of length 2(points-1) samples [0, pi] on the same grid.
            ref = np.abs(np.fft.rfft(self.taps(q, degree, kind), 2 * (points - 1)))
            verdict.compare(f"{kind} magnitude", doc[kind], ref, op["tol"])

    def _check_verify(self, op, data, verdict):
        argv = op["argv"]
        max_q, max_degree = int(_arg(argv, "--max-window")), int(_arg(argv, "--max-degree"))
        doc = json.loads(data)
        expected = {(q, n) for q in range(3, max_q + 1, 2)
                    for n in range(1, min(max_degree + 1, (q + 1) // 2 - 1) + 1)}
        got = {(r["q"], r["n"]) for r in doc["reports"]}
        if got != expected:
            verdict.fail(f"certificate grid has {len(got)} points, expected {len(expected)}")
        failing = [(r["q"], r["n"]) for r in doc["reports"] if not r["passed"]]
        if failing or not doc["passed"]:
            verdict.fail(f"certificate failed at {failing}")
        for q, eig in doc["tw_eigenvalues"].items():
            i = np.arange(1, int(q) + 1, dtype=float)
            verdict.compare(f"TW eigenvalues q={q}", eig, 0.5 * i * (i + 1), op["tol"])

    def _check_metrics_report(self, op, data, verdict):
        doc = json.loads(data)
        q, degree, kind = op["q"], op["degree"], op["weight"]
        verdict.compare("r, s", [doc["r"], doc["s"]], r_and_s(self.taps(q, degree, kind)),
                        op["tol"])
        even = 2 * (degree // 2)
        ref = {k: r_and_s(self.taps(q, even, k)) for k in WEIGHT_KINDS}
        ex = doc["exact"]
        verdict.compare(
            "exact ratios",
            [ex["r0"], ex["r1"], ex["r2"], ex["s0"], ex["s1"], ex["s2"]],
            [ref["constant"][0], ref["triangular"][0], ref["quadratic"][0],
             ref["constant"][1], ref["triangular"][1], ref["quadratic"][1]],
            op["tol"])


def tally(checker: Checker, ops_by_id: dict, log: list[dict]) -> dict:
    """Check every logged op and count the failures.

    An op fails if it raised, exited non-zero, produced no output, or its
    output did not match the reference.  The worker stores an output only
    the first time its hash is seen for that op, so a repeat inherits the
    verdict of the stored output with the same hash.
    """
    verdicts: dict = {}
    failed, max_err, problems = [], 0.0, []
    for entry in log:
        op = ops_by_id[entry["op"]]
        key = (entry["op"], entry.get("hash"))
        if entry["status"] != "ok":
            ok = False
            problems.append(f"op {entry['op']}: {entry['status']}")
        elif "file" in entry:
            verdict = checker.check_file(op, entry["file"])
            verdicts[key] = verdict
            max_err = max(max_err, verdict.max_abs_err)
            ok = verdict.ok
            problems += [f"op {entry['op']}: {p}" for p in verdict.problems]
        elif key in verdicts:
            ok = verdicts[key].ok
        else:
            ok = False
            problems.append(f"op {entry['op']}: no output")
        entry["ok"] = ok
        failed.append(not ok)
    return {"attempted": len(log), "failed": sum(failed), "max_abs_err": max_err,
            "problems": problems}
