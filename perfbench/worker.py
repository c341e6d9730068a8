"""Run one workload's ops in a fresh process.

    python3 perfbench/worker.py setup PLAN SRC OUTDIR
    python3 perfbench/worker.py run PLAN SRC OUTDIR SECONDS TRACE

``setup`` times a cold ``import wsavgol`` plus the plan's first op and
prints {"setup_s": ..., "status": ...}.  ``run`` warms up with the first
op, then replays the plan's cycle in a closed loop (one caller, each op
starts when the previous returned) until at least SECONDS of op time and
MIN_CYCLES cycles are done.  With TRACE 1 it alternates an untraced and
a traced cycle instead, for at least SECONDS of op time.

Outputs are checked by the parent process, so the worker only stores
them: the first output of each op, and any later one whose hash differs.
Only the standard library is imported before wsavgol, so the setup time
includes numpy's import.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import resource
import sys
import time

# A cycle's slowest op must fill the ten-sample tail (see summary.tail).
MIN_CYCLES = 11


class Runner:
    def __init__(self, plan: dict, outdir: str):
        self.plan = plan
        self.outdir = outdir
        self.cli = importlib.import_module("wsavgol.cli")
        self.design = importlib.import_module("wsavgol.design")
        self.smoothing = importlib.import_module("wsavgol.smoothing")
        self.metrics = importlib.import_module("wsavgol.metrics")
        self.records = None
        self.first_hash: dict = {}
        self.log: list[dict] = []

    def load_inputs(self) -> None:
        path = self.plan["inputs"].get("records")
        if path:
            import numpy as np
            self.records = np.fromfile(path, dtype=np.float64)

    def execute(self, op: dict, out_path: str):
        """Run one op; return (status, output bytes or None).

        Library calls go through the module attributes so that the
        traced run's rebinding sees them.
        """
        kind = op["kind"]
        if kind == "cli":
            argv = [out_path if a == "{out}" else a for a in op["argv"]]
            rc = self.cli.main(argv)
            return ("ok" if rc == 0 else f"exit {rc}"), None
        if kind == "record":
            y = self.records[op["offset"]: op["offset"] + op["length"]]
            coeffs = self.design.design(op["q"], op["degree"], op["weight"])
            if op["stream"]:
                return "ok", list(self.smoothing.stream_smooth(y, coeffs))
            series = self.smoothing.SignalSeries.from_iterable(y)
            return "ok", self.smoothing.smooth(series, coeffs, edge="polyfit").values
        if kind == "metrics_report":
            coeffs = self.design.design(op["q"], op["degree"], op["weight"])
            return "ok", self.metrics.metrics_report(coeffs)
        raise ValueError(f"unknown op kind {kind!r}")

    def timed(self, op: dict, tag: str, recorder=None) -> dict:
        """Run, time and store one op; the output is serialised untimed."""
        out_path = os.path.join(self.outdir, f"op{op['id']}-{len(self.log)}{op.get('ext', '.bin')}")
        root = None
        t0 = time.perf_counter()
        if recorder is not None:
            root = recorder.open("bench", op["kind"], start=t0)
        try:
            status, result = self.execute(op, out_path)
        except SystemExit as exc:
            status, result = f"exit {exc.code}", None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            status, result = f"raised {type(exc).__name__}: {exc}", None
        t1 = time.perf_counter()
        if root is not None:
            recorder.close(root, failed=status != "ok", end=t1)
        entry = {"op": op["id"], "tag": tag, "latency_s": t1 - t0, "status": status}
        self.log.append(entry)
        self._store(op, entry, out_path, result)
        return entry

    def _store(self, op, entry, out_path, result) -> None:
        if result is not None:
            data = _serialise(op, result)
        elif os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                data = fh.read()
        else:
            return
        digest = hashlib.sha256(data).hexdigest()
        entry["hash"] = digest
        if self.first_hash.get(op["id"]) == digest:
            if os.path.exists(out_path):
                os.remove(out_path)
            return
        self.first_hash.setdefault(op["id"], digest)
        if result is not None:
            with open(out_path, "wb") as fh:
                fh.write(data)
        entry["file"] = out_path


def _serialise(op: dict, result) -> bytes:
    if op["kind"] == "metrics_report":
        ex = result.exact
        doc = {"r": result.r, "s": result.s, "q": result.q, "n": result.n,
               "exact": None if ex is None else {
                   k: getattr(ex, k) for k in ("r0", "r1", "r2", "s0", "s1", "s2")}}
        return json.dumps(doc).encode()
    import numpy as np
    return np.asarray(result, dtype=np.float64).tobytes()


def setup(plan, outdir) -> dict:
    t0 = time.perf_counter()
    importlib.import_module("wsavgol")
    t1 = time.perf_counter()
    runner = Runner(plan, outdir)
    runner.load_inputs()
    entry = runner.timed(plan["ops"][0], "setup")
    _write_log(runner, outdir)
    return {"setup_s": (t1 - t0) + entry["latency_s"], "status": entry["status"]}


def _write_log(runner, outdir) -> None:
    with open(os.path.join(outdir, "ops.json"), "w", encoding="utf-8") as fh:
        json.dump(runner.log, fh)


def run(plan, outdir, seconds: float, trace: bool) -> dict:
    import wsavgol
    runner = Runner(plan, outdir)
    runner.load_inputs()
    ops = plan["ops"]
    runner.timed(ops[0], "warmup")
    result = {"wsavgol_file": wsavgol.__file__, "cycles": 0}
    busy = 0.0
    if not trace:
        while busy < seconds or result["cycles"] < MIN_CYCLES:
            busy += sum(runner.timed(op, "timed")["latency_s"] for op in ops)
            result["cycles"] += 1
    else:
        from spans import SpanRecorder, Tracer
        traced_cycles = []
        while busy < seconds or not traced_cycles:
            plain = sum(runner.timed(op, "untraced")["latency_s"] for op in ops)
            recorder = SpanRecorder()
            tracer = Tracer(recorder)
            tracer.install()
            try:
                traced = sum(runner.timed(op, "traced", recorder)["latency_s"] for op in ops)
            finally:
                tracer.uninstall()
            traced_cycles.append({"untraced_s": plain, "traced_s": traced,
                                  "spans": recorder.spans})
            busy += plain + traced
            result["cycles"] += 1
        with open(os.path.join(outdir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(traced_cycles, fh)
    for op in plan["probes"]:
        runner.timed(op, "probe")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _write_log(runner, outdir)
    return result


def main(argv) -> int:
    mode, plan_path, src, outdir = argv[:4]
    sys.path.insert(0, src)
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    if mode == "setup":
        doc = setup(plan, outdir)
    else:
        doc = run(plan, outdir, float(argv[4]), argv[5] == "1")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
