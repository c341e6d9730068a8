"""Benchmark of the wsavgol package, one workload per run.

    python3 perfbench/run.py --workload csv_long --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the package is imported from ./src,
inputs are generated from --seed under ./.bench_tmp and removed at the
end.  Each run starts fresh worker processes (perfbench/worker.py):
several that time a cold import plus the first op (setup_s), then one
that runs the workload in a closed loop with one caller.  This process
checks every output against perfbench/oracle.py afterwards, so the
checker's memory and time stay out of the worker's figures.

With --trace 0 the result carries the end-to-end metrics, with --trace 1
the per-layer metrics of the traced run.  A human-readable report comes
first; the last line of standard output is the JSON result.  The exit
code is 0 when every output was right, 1 when one was wrong or the
program failed, and 2 when there is no package to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
# Every run, including set-up and checking, must end within 180 s.
RUN_BUDGET_S = 170.0

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}
# Printed with the end-to-end metrics but not gated: both are 0 on a
# correct run, and failures are counted as `failed` in the result line.
REPORTED = {"error_rate": "ratio", "max_abs_err": "abs"}
OP_UNIT = {"csv_long": "one `wsavgol smooth` CLI call",
           "records_short": "one record (design + smooth or stream_smooth)",
           "analysis": "one CLI or library call"}


def layer_unit(name: str) -> str:
    if name == "trace_overhead":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.startswith("cli.bytes"):
        return "bytes"
    if name.endswith("flops"):
        return "flop"
    return "count"


class BenchError(RuntimeError):
    pass


def spawn(args, root, deadline) -> dict:
    """Run a worker to completion and return the JSON it printed."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                              cwd=root, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, root, src, workdir) -> bool:
    """Run one workload, print the report and result; True if all correct."""
    # Imported here, after main() has set the BLAS thread variables.
    import oracle
    import plan as planmod
    import spans
    import summary

    deadline = time.monotonic() + RUN_BUDGET_S
    plan = planmod.make_plan(args.workload, args.seed, workdir)
    plan_path = os.path.join(workdir, "plan.json")
    ops_by_id = {op["id"]: op for op in plan["ops"] + plan["probes"]}

    log, setups = [], []
    if not args.trace:
        for i in range(SETUP_REPEATS):
            outdir = os.path.join(workdir, f"setup{i}")
            os.mkdir(outdir)
            setups.append(spawn(["setup", plan_path, src, outdir], root, deadline)["setup_s"])
            with open(os.path.join(outdir, "ops.json"), encoding="utf-8") as fh:
                log += json.load(fh)
    outdir = os.path.join(workdir, "run")
    os.mkdir(outdir)
    worker = spawn(["run", plan_path, src, outdir, str(args.seconds), str(args.trace)],
                   root, deadline)
    if not os.path.realpath(worker["wsavgol_file"]).startswith(os.path.realpath(src) + os.sep):
        raise BenchError(f"worker imported wsavgol from {worker['wsavgol_file']}, not {src}")
    with open(os.path.join(outdir, "ops.json"), encoding="utf-8") as fh:
        log += json.load(fh)

    checker = oracle.Checker(plan)
    probes = [e for e in log if e["tag"] == "probe"]
    ops_log = [e for e in log if e["tag"] != "probe"]
    checked = oracle.tally(checker, ops_by_id, ops_log)
    envelope = []
    for entry in probes:
        op = ops_by_id[entry["op"]]
        row = {"argv": " ".join(op["argv"][:7]), "status": entry["status"]}
        if entry["status"] == "ok":
            row["matches_reference"] = checker.check_file(op, entry["file"]).ok
        envelope.append(row)
    correct = checked["failed"] == 0 and all(r.get("matches_reference", True) for r in envelope)

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "op": OP_UNIT[args.workload], "ops_per_cycle": len(plan["ops"]),
        "cycles": worker["cycles"], "attempted": checked["attempted"],
        "failed": checked["failed"], "problems": checked["problems"][:10],
        "environment": summary.environment(THREAD_VARS),
    }
    if envelope:
        report["envelope_probes"] = envelope

    if not args.trace:
        lat = [e["latency_s"] for e in ops_log if e["tag"] == "timed"]
        per_cycle = len(plan["ops"])
        cycle_s = [sum(lat[i: i + per_cycle]) for i in range(0, len(lat), per_cycle)]
        tail, pct, n = summary.tail(lat)
        values = {
            "setup_s": statistics.median(setups),
            # Throughput of the median cycle: a stall of the shared machine
            # during a few cycles does not move it.
            "ops_per_s": per_cycle / statistics.median(cycle_s),
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_tail_ms": tail * 1e3,
            "peak_rss_mb": worker["peak_rss_mb"],
            "error_rate": checked["failed"] / checked["attempted"],
            "max_abs_err": checked["max_abs_err"],
        }
        report["tail"] = {"percentile": pct, "samples": n}
        report["setup_samples_s"] = setups
        report["yardstick"] = yardstick(plan, checker)
        units = {**END_TO_END, **REPORTED}
        declared = END_TO_END
    else:
        with open(os.path.join(outdir, "spans.json"), encoding="utf-8") as fh:
            cycles = json.load(fh)
        values, report["accounting"] = traced_metrics(cycles, spans)
        units = {name: layer_unit(name) for name in values}
        declared = units

    print_report(report, values, units)
    result = {"correct": correct, "attempted": checked["attempted"],
              "failed": checked["failed"],
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in declared}}
    print(json.dumps(result))
    return correct


def traced_metrics(cycles, spans) -> tuple[dict, dict]:
    """Per-layer metrics of the traced cycles.

    Counts come from one cycle and must repeat in every other; times are
    medians over the traced cycles.
    """
    per_cycle = [spans.layer_metrics(c["spans"]) for c in cycles]
    first = per_cycle[0]
    values = {}
    for name in spans.PER_LAYER:
        if name.endswith("_s"):
            values[name] = statistics.median([m[name] for m in per_cycle])
        else:
            values[name] = first[name]
    values["trace_overhead"] = statistics.median(
        [c["traced_s"] / c["untraced_s"] for c in cycles]) - 1.0
    self_sum = [sum(v for k, v in m.items() if k.endswith(".self_s")) for m in per_cycle]
    accounting = {
        "traced_cycles": len(cycles),
        "counts_repeat": all(m[k] == first[k] for m in per_cycle for k in spans.COUNTS),
        "traced_op_s": statistics.median([c["traced_s"] for c in cycles]),
        "untraced_op_s": statistics.median([c["untraced_s"] for c in cycles]),
        "layer_self_s": statistics.median([s - m["bench.self_s"] for s, m in zip(self_sum, per_cycle)]),
        "bench_self_s": statistics.median([m["bench.self_s"] for m in per_cycle]),
        "unaccounted_s": max(abs(c["traced_s"] - s) for c, s in zip(cycles, self_sum)),
    }
    return values, accounting


def yardstick(plan, checker) -> dict | None:
    """scipy.signal.savgol_filter (constant weights, interp edges) on the
    same arrays; ungated, for scale only."""
    import numpy as np
    try:
        from scipy.signal import savgol_filter
    except ImportError:
        return None
    if plan["workload"] == "csv_long":
        op = plan["ops"][0]
        rows = checker.input_csv()
        col = rows[0].index(op["column"])
        y = np.array([float(r[col]) for r in rows[1:]])
        jobs = [(y, op["window"], op["degree"])]
    elif plan["workload"] == "records_short":
        data = np.fromfile(plan["inputs"]["records"], dtype=np.float64)
        jobs = [(data[o["offset"]: o["offset"] + o["length"]], o["q"], o["degree"])
                for o in plan["ops"]]
    else:
        return None
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for y, q, d in jobs:
            savgol_filter(y, q, d, mode="interp")
        times.append(time.perf_counter() - t0)
    return {"savgol_filter_cycle_ms": statistics.median(times) * 1e3,
            "note": "scipy, constant weights, one cycle of this workload's arrays"}


def print_report(report: dict, values: dict, units: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"op = {report['op']}")
    print(f"{report['cycles']} cycles of {report['ops_per_cycle']} ops; "
          f"{report['failed']} of {report['attempted']} ops failed")
    for name, value in values.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{report['tail']['percentile']:.1f} of {report['tail']['samples']} ops)"
        print(f"  {name:24s} {value:<14.6g} {units[name]}{note}")
    extra = {k: v for k, v in report.items()
             if k not in ("workload", "seed", "trace", "op", "cycles", "ops_per_cycle")}
    print(json.dumps(extra, indent=2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(OP_UNIT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "wsavgol", "__init__.py")):
        print(f"error: no wsavgol package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # one BLAS thread: the worker is a single caller
        os.environ[var] = "1"
    tmp_root = os.path.join(root, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        correct = run_workload(args, root, src, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
