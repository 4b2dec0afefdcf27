"""Self-test of the benchmark on tiny inputs: python3 perfbench/run.py --self-test

For every workload, at a size that runs in seconds, it checks that
  - a plain run and a traced run emit exactly the end-to-end and per-layer
    metrics that BENCHMARK.json names, each with its unit, and check correct;
  - a tampered certificate is counted as a failed operation and makes the
    run incorrect;
  - an operation over the time limit is counted as failed, not waited for.
"""
from __future__ import annotations

import json

import run

TINY_LIMIT_S = 1e-4


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    errors = []
    for name in run.ALL:
        for trace in (False, True):
            result, _ = run.run_workload(name, 1, 0.0, trace, tiny=True, probes=False)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want[trace]:
                errors.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                              f"missing {sorted(set(want[trace]) - set(got))}, "
                              f"extra {sorted(set(got) - set(want[trace]))}, "
                              f"units {[k for k in got if want[trace].get(k, got[k]) != got[k]]}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{name} trace={trace}: a clean tiny run failed: {result}")
        result, _ = run.run_workload(name, 1, 0.0, False, tiny=True, probes=False,
                                     tamper=True)
        if result["failed"] < 1 or result["correct"]:
            errors.append(f"{name}: a tampered certificate was not counted as failed")
        result, detail = run.run_workload(name, 1, 0.0, False, tiny=True, probes=False,
                                          limit=TINY_LIMIT_S)
        if not any(f["reason"].startswith("time limit") for f in detail["failures"]):
            errors.append(f"{name}: no operation counted over a {TINY_LIMIT_S} s limit")
        print(f"# self-test {name}: {'ok' if not errors else 'errors so far'}", flush=True)
    for e in errors:
        print(f"self-test error: {e}")
    print("self-test passed" if not errors else f"self-test failed ({len(errors)} errors)")
    return 1 if errors else 0
