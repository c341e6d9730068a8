import json
import os

import numpy as np

import oracle
import plan
from wsavgol import cli


def _entry(op, path, digest):
    return {"op": op["id"], "tag": "timed", "latency_s": 0.1, "status": "ok",
            "hash": digest, "file": path}


def test_a_perturbed_tap_is_a_failed_op(tmp_path):
    p = plan.make_plan("analysis", 3, str(tmp_path))
    op = p["ops"][0]
    good = str(tmp_path / "good.json")
    argv = [good if a == plan.OUT else a for a in op["argv"]]
    assert cli.main(argv) == 0
    with open(good) as fh:
        doc = json.load(fh)
    doc["coefficients"][3] += 1e-6
    bad = str(tmp_path / "bad.json")
    with open(bad, "w") as fh:
        json.dump(doc, fh)

    log = [_entry(op, good, "a"), _entry(op, bad, "b"),
           {"op": op["id"], "tag": "timed", "latency_s": 0.1, "status": "ok", "hash": "b"},
           {"op": op["id"], "tag": "timed", "latency_s": 0.1, "status": "exit 1"}]
    result = oracle.tally(oracle.Checker(p), {o["id"]: o for o in p["ops"]}, log)
    assert [e["ok"] for e in log] == [True, False, False, False]
    assert (result["attempted"], result["failed"]) == (4, 3)
    assert 9e-7 < result["max_abs_err"] < 1.1e-6


def test_a_perturbed_record_sample_is_a_failed_op(tmp_path):
    p = plan.make_plan("records_short", 5, str(tmp_path))
    records = np.fromfile(p["inputs"]["records"])
    checker = oracle.Checker(p)
    for op in p["ops"][:plan.STREAM_EVERY]:  # six batch records and one stream
        y = records[op["offset"]: op["offset"] + op["length"]]
        if op["stream"]:
            out = oracle.reference_valid(y, op["q"], op["degree"], op["weight"])
        else:
            out = oracle.reference_smooth(y, op["q"], op["degree"], op["weight"])
        assert checker.check(op, out.tobytes()).ok
        out[len(out) // 2] += 1e-7
        assert not checker.check(op, out.tobytes()).ok


def test_benchmark_json_declares_the_metrics_the_runs_print():
    import run
    import spans
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in bench["per_layer"]] == list(spans.PER_LAYER) + ["trace_overhead"]
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(plan.WORKLOADS)
