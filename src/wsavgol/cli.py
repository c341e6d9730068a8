"""Command-line interface for designing, auditing and applying filters.

Exit codes: 0 success, 1 computation or verification failure, 2 usage
or validation error.  When the reader of stdout closes the pipe early
(``wsavgol verify ... | head``), the command stops quietly with exit 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from operator import itemgetter

import numpy as np

from .design import FilterCoefficients, FilterSpec, design_coefficients, make_spec
# exact_ratios is unused here but stays importable: perfbench's tracer wraps
# cli.exact_ratios.
from .metrics import (  # noqa: F401
    error_reduction_ratio,
    exact_ratio_table,
    exact_ratios,
    frequency_response,
    moving_average_ratio_approximations,
    ratio_approximations,
    smoothing_parameter,
)
from .smoothing import EDGE_POLICIES, SignalSeries, smooth
# certify is unused here but stays importable: perfbench's tracer wraps
# cli.certify.
from .verify import (  # noqa: F401
    CERTIFIED_EIGEN_WINDOW,
    certify,
    certify_window,
    eigenvalues_of_tw,
)
from .weights import WeightVector, custom_weights

WEIGHT_CHOICES = ("constant", "triangular", "quadratic")
# Largest tap gap a coefficient document may show against a fresh design.
COEFFICIENT_FILE_TOL = 1e-6
# Fields as csv.writer's default dialect writes them, minus CR and LF: bare
# unless they hold a `,` or a `"`, then quoted with each `"` doubled.
_PLAIN_FIELD = r'[^",\r\n]*'
_QUOTED_FIELD = r'"[^",\r\n]*(?:,|"")[^"\r\n]*(?:""[^"\r\n]*)*"'
# The columns of a sweep record as JSON keys; the csv and table headers
# spell `_over_` as `/` and `_` as a space.
SWEEP_KEYS = ("q", "degree", "weight", "r", "s",
              "r0_over_r2", "s0_over_s2", "s0_over_s1",
              "approx_r0_over_r2", "approx_s0_over_s2", "approx_s0_over_s1",
              "err_r0_over_r2", "err_s0_over_s2", "err_s0_over_s1")
# The VerificationReport attributes of a verify JSON report, in order.
VERIFY_JSON_FIELDS = ("q", "n", "max_gradient_abs", "min_hessian_eigenvalue",
                      "perturbation_min_delta", "max_eigenvalue_rel_error",
                      "orthonormality_error", "eigen_relation_error",
                      "lambda_min_observed", "lambda_min_formula", "passed")
# The columns of the verify table as (header, VerificationReport attribute);
# a status column follows them.
VERIFY_TABLE_COLUMNS = (("q", "q"), ("n", "n"), ("max|grad|", "max_gradient_abs"),
                        ("min eig(H)", "min_hessian_eigenvalue"),
                        ("min pert ds", "perturbation_min_delta"),
                        ("eig err", "max_eigenvalue_rel_error"),
                        ("lambda_min", "lambda_min_observed"), ("formula", "lambda_min_formula"))
# Lines per block of the canonical check, and records per chunk of `smooth` output.
CHUNK_RECORDS = 8192


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    # LinAlgError subclasses ValueError, so computation failures must be
    # picked off before the validation branch.
    except (np.linalg.LinAlgError, RuntimeError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsavgol",
        description="Weighted Savitzky-Golay filter design, metrics and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="design one filter and report its metrics")
    p.add_argument("--window", type=int, required=True, help="odd window length q")
    p.add_argument("--degree", type=int, default=0, help="fitting polynomial degree")
    _add_weight_flags(p)
    p.add_argument("--format", choices=("json", "csv", "table"), default="json")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(handler=cmd_design)

    p = sub.add_parser("sweep", help="tabulate metrics over a (window, degree, weight) grid")
    p.add_argument("--windows", required=True, help="grid start:stop:step (inclusive) or comma list")
    p.add_argument("--degrees", default="0", help="comma list of degrees")
    p.add_argument("--weights", default="all", help="comma list of weight kinds, or 'all'")
    p.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("verify", help="run the optimality certificate over a grid")
    p.add_argument("--max-window", type=int, default=11, help="largest odd window to certify")
    p.add_argument("--max-degree", type=int, default=4, help="largest basis polynomial degree")
    p.add_argument("--seed", type=int, default=0, help="seed for perturbation trials")
    p.add_argument("--weight-file", default=None,
                   help="check this weight vector instead of the quadratic optimum")
    p.add_argument("--format", choices=("json", "table"), default="table")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("smooth", help="smooth one CSV column")
    p.add_argument("--input", required=True, help="input CSV path")
    p.add_argument("--column", required=True, help="name of the column to smooth")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--degree", type=int, default=0)
    _add_weight_flags(p)
    p.add_argument("--coeff-file", default=None, help="JSON coefficient document to reuse")
    p.add_argument("--edge", choices=EDGE_POLICIES, default="polyfit")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_smooth)

    p = sub.add_parser("freqresp", help="frequency response table for one or more weightings")
    p.add_argument("--window", type=int, required=True)
    p.add_argument("--degree", type=int, default=0)
    p.add_argument("--weights", default="constant,quadratic", help="comma list of weight kinds")
    p.add_argument("--points", type=int, default=512, help="number of frequency points")
    p.add_argument("--format", choices=("csv", "table", "json"), default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(handler=cmd_freqresp)

    return parser


def _add_weight_flags(p) -> None:
    p.add_argument("--weight", choices=WEIGHT_CHOICES, default="constant")
    p.add_argument("--weight-file", default=None,
                   help="file of strictly positive weights, one per line")


def _read_weight_file(path: str) -> list[float]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read weight file: {exc}") from None
    values = []
    for token in text.replace(",", " ").split():
        try:
            values.append(float(token))
        except ValueError:
            raise ValueError(f"weight file {path}: {token!r} is not a number") from None
    if not values:
        raise ValueError(f"weight file {path} is empty")
    return values


def _resolve_weight(args):
    if getattr(args, "weight_file", None):
        return custom_weights(_read_weight_file(args.weight_file))
    return args.weight


def _parse_weight_kinds(text: str) -> list[str]:
    """Weight kinds of a comma list, or all of them for 'all'; first-seen order, no repeats."""
    if text.strip() == "all":
        return list(WEIGHT_CHOICES)
    kinds = list(dict.fromkeys(k.strip() for k in text.split(",") if k.strip()))
    for kind in kinds:
        if kind not in WEIGHT_CHOICES:
            raise ValueError(f"unknown weight kind {kind!r}")
    return kinds


def _require_odd_window(q) -> int:
    if q is None:
        raise ValueError("a window length is required")
    if q < 1 or q % 2 == 0:
        raise ValueError(f"window length must be a positive odd integer, got {q}")
    return q


def _write_stdout(text: str) -> None:
    """Write text to stdout's byte stream, looping until every byte is taken.

    Under ``python -u`` that stream is a raw file whose write may take part
    of the bytes when the reader closes the pipe; the text layer would drop
    the rest, while the next raw write raises BrokenPipeError.
    """
    sys.stdout.flush()
    out = getattr(sys.stdout, "buffer", None)
    if out is None:  # stdout replaced by a text-only stream
        sys.stdout.write(text)
        return
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[out.write(data):]


def _write_text(chunks, path) -> None:
    """Write text chunks to the file at path, or to stdout when path is None."""
    if path is None:
        for chunk in chunks:
            _write_stdout(chunk)
    else:
        try:
            fh = open(path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise ValueError(f"cannot write output: {exc}") from None
        with fh:
            fh.writelines(chunks)


def _emit(text: str, path) -> None:
    if path is None and not text.endswith("\n"):
        text += "\n"
    _write_text([text], path)


def _use_color(path) -> bool:
    """Colour text only on its way to a terminal on stdout, and only without NO_COLOR."""
    return path is None and sys.stdout.isatty() and "NO_COLOR" not in os.environ


def _status(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _color_status(table: str) -> str:
    """The laid-out table with the PASS or FAIL that ends a row in green or red.

    Colouring after layout keeps the escape codes out of the column widths.
    """
    return re.sub(r"(?m)(PASS|FAIL)$",
                  lambda s: f"\x1b[{32 if s[1] == 'PASS' else 31}m{s[1]}\x1b[0m", table)


def _rows_text(fmt: str, headers, rows, spec="") -> str:
    """Rows under headers, as CSV when fmt is "csv", else as an aligned table.

    CSV writes a float as repr(float(v)), the shortest round trip, and any
    other cell as csv.writer does.  The table writes a float as
    format(v, spec), spec being one format for every column or one per
    column, None as `-` and any other cell as str.
    """
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(headers)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                         for row in rows)
        return buf.getvalue()
    specs = [spec] * len(headers) if isinstance(spec, str) else spec
    cells = [headers] + [
        ["-" if v is None else format(v, s) if isinstance(v, float) else str(v)
         for v, s in zip(row, specs)]
        for row in rows
    ]
    widths = [max(map(len, column)) for column in zip(*cells)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _coefficient_document(coeffs: FilterCoefficients) -> dict:
    spec = coeffs.spec
    return {
        "q": spec.q,
        "degree": spec.degree,
        "weight_kind": spec.weight.kind,
        "weights": list(spec.weight.values),
        "coefficients": list(coeffs.taps),
        "r": error_reduction_ratio(coeffs),
        "s": smoothing_parameter(coeffs),
    }


def _json_number(value, key: str, path: str, integral: bool = False):
    """A JSON number, never a bool or a string; integral=True takes 5 or 5.0, not 5.9."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or integral and not float(value).is_integer()):
        raise ValueError(f"coefficient file {path} has a malformed field {key!r}: {value!r}")
    return int(value) if integral else float(value)


def _load_coefficient_document(path: str) -> FilterCoefficients:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read coefficient file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"coefficient file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"coefficient file {path} must hold a JSON object")
    try:
        weights = tuple(_json_number(v, "weights", path) for v in doc["weights"])
        spec = FilterSpec(q=_json_number(doc["q"], "q", path, integral=True),
                          degree=_json_number(doc["degree"], "degree", path, integral=True),
                          weight=WeightVector(weights, doc["weight_kind"]))
        taps = tuple(_json_number(v, "coefficients", path) for v in doc["coefficients"])
        coeffs = FilterCoefficients(taps, spec)
    except KeyError as exc:
        raise ValueError(f"coefficient file {path} lacks field {exc}") from None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"coefficient file {path} has a malformed field: {exc}") from None
    gap = np.max(np.abs(coeffs.as_array() - design_coefficients(spec).as_array()))
    if gap > COEFFICIENT_FILE_TOL:
        raise ValueError(f"coefficient file {path}: taps differ from the design by {gap:.3g}")
    return coeffs


def cmd_design(args) -> int:
    q = _require_odd_window(args.window)
    coeffs = design_coefficients(make_spec(q, args.degree, _resolve_weight(args)))
    doc = _coefficient_document(coeffs)
    headers = ["index", "weight", "coefficient"]
    rows = [[i, w, c] for i, (w, c) in enumerate(zip(doc["weights"], doc["coefficients"]), 1)]
    if args.format == "json":
        text = json.dumps(doc, indent=2)
    elif args.format == "csv":
        text = _rows_text("csv", headers + ["r", "s"], [row + [doc["r"], doc["s"]] for row in rows])
    else:
        text = (
            f"q={doc['q']} degree={doc['degree']} weight={doc['weight_kind']}\n"
            + _rows_text("table", headers, rows, ("", ".6g", ".6f"))
            + f"r = {doc['r']:.6f}\ns = {doc['s']:.6f}\n"
        )
    _emit(text, args.output)
    return 0


def _parse_int_list(text: str, what: str) -> list[int]:
    items = [t for t in text.split(",") if t.strip()]
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"{what} grid must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (int(p) for p in parts)
        except ValueError:
            raise ValueError(f"{what} grid {text!r} is not numeric") from None
        if step < 1:
            raise ValueError(f"{what} grid step must be >= 1")
        return list(range(start, stop + 1, step))
    try:
        return [int(t) for t in items]
    except ValueError:
        raise ValueError(f"{what} list {text!r} is not numeric") from None


def cmd_sweep(args) -> int:
    windows = sorted(set(_parse_int_list(args.windows, "window")))
    degrees = sorted(set(_parse_int_list(args.degrees, "degree")))
    kinds = _parse_weight_kinds(args.weights)
    if not windows or not degrees or not kinds:
        raise ValueError("empty sweep grid")
    for q in windows:
        _require_odd_window(q)
    if degrees[0] < 0:
        raise ValueError(f"degree must be >= 0, got {degrees[0]}")
    # A degree d fits basis size d // 2 + 1 <= m = (q + 1) / 2, so d <= q.
    if degrees[-1] > windows[0]:
        raise ValueError(f"degree {degrees[-1]} is too high for window {windows[0]}: "
                         f"the largest it takes is {windows[0]}")

    rows = []
    for q in windows:
        table = exact_ratio_table(q, degrees[-1] // 2 + 1)
        for degree in degrees:
            n = degree // 2 + 1
            ex = table[n - 1]
            gen = ratio_approximations(ex.m, n)
            if n == 1:
                ma = moving_average_ratio_approximations(q)
                ap_r, ap_s02 = ma.r0_over_r2, ma.s0_over_s2
            else:
                ap_r, ap_s02 = gen.r0_over_r2, gen.s0_over_s2
            exact = (ex.r0_over_r2, ex.s0_over_s2, ex.s0_over_s1)
            approx = (ap_r, ap_s02, gen.s0_over_s1)
            errs = [(a - e) / e for a, e in zip(approx, exact)]
            per_kind = {"constant": (ex.r0, ex.s0), "triangular": (ex.r1, ex.s1),
                        "quadratic": (ex.r2, ex.s2)}
            for kind in sorted(kinds):
                rows.append([q, degree, kind, *per_kind[kind], *exact, *approx, *errs])

    if args.format == "json":
        text = json.dumps([dict(zip(SWEEP_KEYS, row)) for row in rows], indent=2)
    else:
        headers = [key.replace("_over_", "/").replace("_", " ") for key in SWEEP_KEYS]
        text = _rows_text(args.format, headers, rows, ".6g")
    _emit(text, args.output)
    return 0


def cmd_verify(args) -> int:
    if args.max_window < 3:
        raise ValueError(f"--max-window must be at least 3, got {args.max_window}")
    max_q = _require_odd_window(args.max_window)
    if args.max_degree < 0:
        raise ValueError(f"max degree must be >= 0, got {args.max_degree}")
    custom = _read_weight_file(args.weight_file) if args.weight_file else None
    if custom is not None and len(custom) not in range(3, max_q + 1, 2):
        raise ValueError(
            f"weight file {args.weight_file} holds {len(custom)} weights; "
            f"verify needs an odd window length in 3..{max_q} (--max-window)"
        )

    reports = []
    eigen_lines = []
    for q in range(3, max_q + 1, 2):
        m = (q + 1) // 2
        if q <= CERTIFIED_EIGEN_WINDOW:
            eig = eigenvalues_of_tw(q)
            eigen_lines.append((q, eig))
        if custom is not None and len(custom) != q:
            continue  # the injected vector only applies to its own window
        n_max = min(args.max_degree + 1, m - 1)
        reports.extend(certify_window(q, n_max, seed=args.seed, weight=custom))

    all_passed = all(rep.passed for rep in reports)

    if args.format == "json":
        text = json.dumps({
            "passed": all_passed,
            "tw_eigenvalues": {str(q): list(e) for q, e in eigen_lines},
            "reports": [{f: getattr(rep, f) for f in VERIFY_JSON_FIELDS} for rep in reports],
        }, indent=2)
    else:
        rows = [[getattr(rep, a) for _, a in VERIFY_TABLE_COLUMNS] + [_status(rep.passed)]
                for rep in reports]
        headers = [h for h, _ in VERIFY_TABLE_COLUMNS] + ["status"]
        table = _rows_text("table", headers, rows, ".3e")
        failing = [(rep.q, rep.n) for rep in reports if not rep.passed]
        text = (
            "".join(f"TW eigenvalues (q={q}): " + ", ".join(f"{v:.10g}" for v in eig) + "\n"
                    for q, eig in eigen_lines)
            + (_color_status(table) if _use_color(args.output) else table)
            + ("all checks passed" if all_passed else f"FAILED at (q, n): {failing}") + "\n"
        )
    _emit(text, args.output)
    return 0 if all_passed else 1


def _read_table(path: str, column: str):
    """The header, the column as floats and the records to write back.

    The records are the data lines as read when `_is_canonical` proves that
    csv.writer would write each of them unchanged; the parsed rows are then
    never kept.  Otherwise they are the non-blank parsed rows, short ones
    padded with empty cells.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read input: {exc}") from None
    reader = csv.reader(lines)
    try:
        fieldnames = next(reader, None)
        if not fieldnames:
            raise ValueError(f"input {path} has no header row")
        if column not in fieldnames:
            raise ValueError(f"column {column!r} not found; have {fieldnames}")
        col, width = fieldnames.index(column), len(fieldnames)
        lines = lines[reader.line_num:]
        copy = _is_canonical(lines, width)
        if copy:
            records, rows = lines, None
            cells = list(map(itemgetter(col), reader))
        else:
            records = rows = list(filter(None, reader))
            cells = list(map(itemgetter(col), rows)) if set(map(len, rows)) == {width} else None
    except csv.Error as exc:
        raise ValueError(f"input {path}, line {reader.line_num}: {exc}") from None
    if not records:
        raise ValueError(f"input {path} has no data rows")
    values = None
    if cells is not None:
        try:
            values = np.fromiter(map(float, cells), float, len(cells))
        except ValueError:
            pass  # _checked_column names the first bad row
    if values is None:
        if rows is None:
            rows = list(csv.reader(records))
        values = _checked_column(rows, col, width, column)
    return fieldnames, values, records, copy


def _is_canonical(lines, width: int) -> bool:
    """True when csv.writer, default dialect, would write every one of lines as it stands.

    That dialect ends records with CRLF and quotes a field exactly when it
    holds a `,`, a `"`, CR or LF, doubling each `"`.  A field holding CR or
    LF is not proven, and neither is a blank line or a row of another width.
    """
    field = f"(?:{_QUOTED_FIELD}|{_PLAIN_FIELD})"
    record = re.compile(rf"(?m)^(?!\r\n){field}(?:,{field}){{{width - 1}}}\r\n")
    # A match is one whole line, so a block of lines is all records when
    # nothing is left over.  Matches start only at line starts, which keeps a
    # failing block linear; the blocks stop at the first that fails.  (One
    # repeated pattern over the whole text keeps state for every line.)
    return all(record.sub("", "".join(lines[i:i + CHUNK_RECORDS])) == ""
               for i in range(0, len(lines), CHUNK_RECORDS))


def _checked_column(rows, col: int, width: int, name: str) -> np.ndarray:
    """The column as floats, row by row, naming the first bad row; short rows are padded."""
    values = np.empty(len(rows))
    for i, row in enumerate(rows):
        if len(row) > width:
            raise ValueError(f"row {i + 1}: {len(row)} fields, header has {width}")
        cell = row[col] if col < len(row) else None
        try:
            values[i] = float(cell)
        except (TypeError, ValueError):
            raise RuntimeError(
                f"row {i + 1}: non-numeric value {cell!r} in column {name!r}"
            ) from None
        row.extend([""] * (width - len(row)))
    return values


def _smoothed_csv(header, records, smoothed, copy: bool):
    """The output text in chunks: the header by csv.writer, then each record.

    With copy, records are the input lines, each ending in CRLF, and the
    smoothed cell is spliced in before it; otherwise records are rows that
    csv.writer writes.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    yield buf.getvalue()
    for i in range(0, len(records), CHUNK_RECORDS):
        part = zip(records[i:i + CHUNK_RECORDS], smoothed[i:i + CHUNK_RECORDS])
        if copy:
            yield "".join([line[:-2] + "," + cell + "\r\n" for line, cell in part])
        else:
            buf.seek(0)
            buf.truncate()
            writer.writerows(row + [cell] for row, cell in part)
            yield buf.getvalue()


def cmd_smooth(args) -> int:
    fieldnames, values, records, copy = _read_table(args.input, args.column)
    if args.coeff_file:
        coeffs = _load_coefficient_document(args.coeff_file)
    else:
        q = _require_odd_window(args.window)
        coeffs = design_coefficients(make_spec(q, args.degree, _resolve_weight(args)))

    signal = SignalSeries.from_iterable(values)
    result = smooth(signal, coeffs, edge=args.edge)

    # tolist() gives Python floats, whose repr is the shortest round trip.
    smoothed = list(map(repr, result.values.tolist()))
    if args.edge == "valid":
        offset = coeffs.spec.evaluation_index - 1
        smoothed = [""] * offset + smoothed + [""] * (len(values) - offset - len(smoothed))

    header = fieldnames + [f"{args.column}_smoothed"]
    _write_text(_smoothed_csv(header, records, smoothed, copy), args.output)
    return 0


def cmd_freqresp(args) -> int:
    q = _require_odd_window(args.window)
    if args.points < 2:
        raise ValueError(f"--points must be >= 2, got {args.points}")
    kinds = _parse_weight_kinds(args.weights)
    if not kinds:
        raise ValueError("no weight kinds requested")

    responses = {}
    omega = None
    for kind in kinds:
        coeffs = design_coefficients(make_spec(q, args.degree, kind))
        resp = frequency_response(coeffs, args.points)
        omega = resp.omega
        responses[kind] = resp.magnitude

    if args.format == "json":
        payload = {"omega": list(omega)}
        payload.update({k: list(v) for k, v in responses.items()})
        text = json.dumps(payload, indent=2)
    else:
        text = _rows_text(args.format, ["omega"] + kinds, zip(omega, *responses.values()), ".6f")
    _emit(text, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
