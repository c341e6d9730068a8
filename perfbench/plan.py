"""Seeded inputs and op plans for the three workloads.

A plan is a JSON document: the ops of one cycle, in order, plus the
envelope probes (analysis only).  The worker replays the cycle until the
run's time is up, so every cycle does the same work and the counts of a
traced cycle repeat exactly.  Inputs are written under the run's
temporary directory and never kept.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

WORKLOADS = ("csv_long", "records_short", "analysis")

CSV_ROWS = 200_000
CSV_FILTER = {"window": 25, "degree": 4, "weight": "quadratic"}

RECORD_WINDOWS = (11, 25, 51)
RECORD_DEGREES = (2, 4)
WEIGHT_KINDS = ("constant", "triangular", "quadratic")
RECORD_LENGTHS = (200, 2000)
# Record i streams when i % STREAM_EVERY == STREAM_EVERY - 1.  7 is
# coprime with the 18 (window, degree, weight) combinations, so over a
# cycle of 7 * 18 records every combination streams exactly once.
STREAM_EVERY = 7
RECORDS_PER_CYCLE = STREAM_EVERY * len(RECORD_WINDOWS) * len(RECORD_DEGREES) * len(WEIGHT_KINDS)

DESIGN_OPS = 6
METRICS_WINDOWS = range(5, 100, 2)
SWEEP_ARGS = ["--windows", "9:201:2", "--degrees", "0,2,4,6", "--weights", "all"]
FREQRESP_ARGS = ["--window", "401", "--degree", "16", "--weights", "all", "--points", "4096"]
VERIFY_ARGS = ["--max-window", "31", "--max-degree", "6"]
# Large-window designs outside the package's present accuracy envelope.
# They fail (exit 1 or 2), so they run once per analysis run as untimed
# probes outside the op count; an output they do produce is still checked.
ENVELOPE_PROBES = ((1001, 20, "constant"), (1001, 40, "constant"),
                   (2001, 20, "constant"), (4001, 30, "constant"))

# Tolerance relative to max(1, |value|).  At (401, 16) the package's taps
# are off by up to about 5e-8 (against an exact rational solve), and each
# frequency-response magnitude sums 401 of them.
TOL = 1e-9
TOL_FREQRESP = 1e-5

OUT = "{out}"


def make_plan(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's inputs under workdir and return its plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng(seed)
    generate = {"csv_long": _csv_long, "records_short": _records_short,
                "analysis": _analysis}[workload]
    plan = {"workload": workload, "seed": seed, "probes": [], **generate(rng, seed, workdir)}
    for i, op in enumerate(plan["ops"]):
        op["id"] = i
    for i, op in enumerate(plan["probes"]):
        op["id"] = f"probe{i}"
    with open(os.path.join(workdir, "plan.json"), "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    return plan


def _signal(rng, n: int) -> np.ndarray:
    t = np.arange(n) / n
    f1, f2 = rng.uniform(1.0, 4.0), rng.uniform(20.0, 60.0)
    return (np.sin(2 * np.pi * f1 * t) + 0.3 * np.sin(2 * np.pi * f2 * t)
            + 0.1 * rng.standard_normal(n))


def _csv_long(rng, seed, workdir) -> dict:
    path = os.path.join(workdir, "input.csv")
    y = _signal(rng, CSV_ROWS)
    site = rng.integers(0, 1000, CSV_ROWS)
    probe = rng.integers(0, 10, CSV_ROWS)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y", "note"])
        for i in range(CSV_ROWS):
            writer.writerow([repr(i * 1e-3), repr(float(y[i])),
                             f'site {site[i]}, "probe {probe[i]}", ok'])
    argv = ["smooth", "--input", path, "--column", "y",
            "--window", str(CSV_FILTER["window"]), "--degree", str(CSV_FILTER["degree"]),
            "--weight", CSV_FILTER["weight"], "--edge", "polyfit", "--output", OUT]
    op = {"kind": "cli", "argv": argv, "ext": ".csv", "check": "smooth_csv",
          "column": "y", "tol": TOL, **CSV_FILTER}
    return {"ops": [op], "inputs": {"csv": path}}


def _records_short(rng, seed, workdir) -> dict:
    path = os.path.join(workdir, "records.f64")
    combos = [(q, d, w) for q in RECORD_WINDOWS for d in RECORD_DEGREES for w in WEIGHT_KINDS]
    streamed = [i % STREAM_EVERY == STREAM_EVERY - 1 for i in range(RECORDS_PER_CYCLE)]
    # Lengths are stratified over RECORD_LENGTHS separately for streamed
    # and batch records, so a cycle does nearly the same work for every
    # seed while each record's length still comes from the seed.
    lengths = {True: _stratified(rng, sum(streamed)), False: _stratified(rng, streamed.count(False))}
    ops, chunks, offset = [], [], 0
    for i, stream in enumerate(streamed):
        q, d, w = combos[i % len(combos)]
        length = int(lengths[stream].pop())
        chunks.append(_signal(rng, length))
        ops.append({"kind": "record", "q": q, "degree": d, "weight": w,
                    "offset": offset, "length": length, "stream": stream,
                    "check": "record", "tol": TOL})
        offset += length
    np.concatenate(chunks).tofile(path)
    return {"ops": ops, "inputs": {"records": path}}


def _stratified(rng, count: int) -> list[int]:
    """One length from each of `count` equal slices of RECORD_LENGTHS, shuffled."""
    lo, hi = RECORD_LENGTHS
    return list((lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count).astype(int))


def _analysis(rng, seed, workdir) -> dict:
    def cli(args, check, tol=TOL, **extra):
        return {"kind": "cli", "argv": args + ["--format", "json", "--output", OUT],
                "ext": ".json", "check": check, "tol": tol, **extra}

    def design_op(q, d, w):
        return cli(["design", "--window", str(q), "--degree", str(d), "--weight", w],
                   "design", q=q, degree=d, weight=w)

    # The first op is fixed so that setup_s (import plus first op) does
    # the same work for every seed; the rest are shuffled by the seed.
    first = design_op(25, 4, "quadratic")
    rest = [design_op(int(rng.choice(range(11, 102, 2))), int(rng.choice([0, 2, 4, 6])),
                      str(rng.choice(WEIGHT_KINDS))) for _ in range(DESIGN_OPS - 1)]
    rest.append(cli(["sweep"] + SWEEP_ARGS, "sweep"))
    rest.append(cli(["freqresp"] + FREQRESP_ARGS, "freqresp", tol=TOL_FREQRESP))
    rest.append(cli(["verify"] + VERIFY_ARGS + ["--seed", str(seed)], "verify"))
    for q in METRICS_WINDOWS:
        rest.append({"kind": "metrics_report", "q": q, "degree": 2 * (q % 3),
                     "weight": str(rng.choice(WEIGHT_KINDS)), "check": "metrics_report",
                     "tol": TOL})
    order = rng.permutation(len(rest))
    probes = [design_op(q, d, w) for q, d, w in ENVELOPE_PROBES]
    return {"ops": [first] + [rest[i] for i in order], "inputs": {}, "probes": probes}
