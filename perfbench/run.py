"""quadorbit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload stab_e300 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the package is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are the per-layer
metrics of one traced iteration (see tracing.py).  Lines before it give the
metrics by name with their unit, the certificate digest, the slowest items,
the failed inputs with their reasons and the environment.

The exit code is 0 when every output checked correct, 1 when one did not,
and 2 when the checkout holds no quadorbit source.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# The first three are in BENCHMARK.json; classify_large is not (see README.md).
ALL = ("stab_e300", "classify_range", "orbits_mod_p", "classify_large")
SETUP_PROBES = 6
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
CACHE_LIMITS = (50, 100, 199, 500, 1201)   # primes_to limits the workloads ask for

# The end-to-end metrics of BENCHMARK.json.  c_latency_tail_ms is printed and
# kept in the detail line but not gated: on classify_range it is the 20th
# slowest of 2e5 values, set by millisecond host stalls on trivial c values.
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "prove_s": "s", "check_s": "s",
    "c_per_s": "1/s", "c_latency_p50_ms": "ms", "peak_rss_mb": "MB",
}


def setup(workload: str, seed: int, tiny: bool = False):
    """Import quadorbit, make the seeded inputs and fill the process caches."""
    t0 = perf_counter()
    import workloads
    from quadorbit import classify, primes

    for limit in CACHE_LIMITS:
        primes.primes_to(limit)
    classify._static_table()
    inputs = workloads.WORKLOADS[workload].inputs(seed, tiny)
    return perf_counter() - t0, inputs


def setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh interpreters, one per probe process."""
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest ladder percentile with at least ten samples beyond it.

    Nearest-rank percentiles; with fewer than 20 samples the maximum stands in.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for q in LADDER:
        rank = max(1, math.ceil(q / 100 * n))
        if n - rank >= 10:
            best = (xs[rank - 1], f"p{q:g}")
    return best if best else (xs[-1], "max")


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            commit = path.read_text().strip() if path.is_file() else ref
    import mpmath

    src = hashlib.sha256()
    for p in sorted((SRC / "quadorbit").rglob("*.py")):
        src.update(p.read_bytes())
    return {"python": platform.python_version(), "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND, "nproc": os.cpu_count(),
            "commit": commit, "source_sha256": src.hexdigest()}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 tiny: bool = False, probes: bool = True, limit: float | None = None,
                 tamper: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result, detail)."""
    load0 = os.getloadavg()
    setup_s, inputs = setup(name, seed, tiny)
    samples = [setup_s] + (setup_samples(name, seed) if probes else [])
    import workloads

    wl = workloads.WORKLOADS[name]
    limit = wl.limit_s if limit is None else limit
    outcomes = []
    layer = None
    untraced: list[str] = []
    if trace:
        import tracing

        # The first iteration warms the process caches; the overhead compares
        # the traced iteration with the untraced one that follows it.
        outcomes.append(wl.iteration(inputs, limit, None, tamper))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.open_root()
            traced = wl.iteration(inputs, limit, tracer, tamper)
            tracer.close_root()
        finally:
            tracer.uninstall()
        outcomes += [traced, wl.iteration(inputs, limit, None, tamper)]
        layer = tracing.layer_metrics(tracer, traced.routes,
                                      traced.notes.get("primes_tested", 0))
        layer["trace.untraced_wall_s"] = (outcomes[-1].wall_s, "s")
        layer["trace.overhead_s"] = (layer["trace.wall_s"][0] - outcomes[-1].wall_s, "s")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{name}.spans")
        untraced = tracer.missing
    else:
        start = perf_counter()
        while True:
            outcomes.append(wl.iteration(inputs, limit, None, tamper))
            if (len(outcomes) >= wl.min_iterations
                    and perf_counter() - start + outcomes[-1].wall_s > seconds):
                break

    latencies = [x for o in outcomes for x in o.latencies]
    tail_value, tail_label = tail(latencies)
    e2e = {
        "setup_s": statistics.median(samples),
        "wall_s": statistics.median(o.wall_s for o in outcomes),
        "prove_s": statistics.median(o.prove_s for o in outcomes),
        "check_s": statistics.median(o.check_s for o in outcomes),
        "c_per_s": statistics.median(len(o.latencies) / o.wall_s for o in outcomes),
        "c_latency_p50_ms": 1000.0 * statistics.median(latencies),
        "c_latency_tail_ms": 1000.0 * tail_value,
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    digests = sorted({o.digest for o in outcomes})
    problems = [p for o in outcomes for p in o.problems]
    if len(digests) > 1 and not tamper:
        problems.append(f"certificate digests differ between iterations: {digests}")
    correct = not problems and not any(o.rejected for o in outcomes)
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    detail = {
        "workload": name, "seed": seed, "tiny": tiny, "trace": trace,
        "iterations": len(outcomes), "per_op_limit_s": limit,
        "ops_failed_frac": len(failures) / attempted if attempted else 0.0,
        "failures": [{"input": i, "reason": r} for i, r in failures],
        "problems": problems,
        "cert_sha256": digests[0] if len(digests) == 1 else digests,
        "latency": {"item": wl.item, "samples": len(latencies),
                    "tail_percentile": tail_label},
        "setup_samples_s": samples,
        "slowest": outcomes[-1].slowest,
        "notes": outcomes[-1].notes,
        "inputs": inputs["summary"],
        "untraced_names": untraced,
        "end_to_end": e2e,
        "environment": environment() | {"loadavg_start": load0,
                                        "loadavg_end": os.getloadavg()},
    }
    return result, detail


def print_run(result: dict, detail: dict) -> None:
    print(f"# {detail['workload']} seed={detail['seed']} iterations={detail['iterations']}"
          f" attempted={result['attempted']} failed={result['failed']}"
          f" ops_failed_frac={detail['ops_failed_frac']:.4f} correct={result['correct']}")
    for k, m in result["metrics"].items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    lat = detail["latency"]
    print(f"c_latency_tail_ms = {detail['end_to_end']['c_latency_tail_ms']:.6g} ms"
          f"  ({lat['tail_percentile']} of n={lat['samples']}; item: {lat['item']}; not gated)")
    for s in detail["slowest"]:
        print(f"# slow c={s['c']} route={s['route']} latency={s['latency_s']:.4f}s"
              f" recheck={s['recheck_s']:.4f}s")
    for f in detail["failures"]:
        print(f"# failed {f['input']}: {f['reason']}")
    for p in detail["problems"]:
        print(f"# incorrect: {p}")
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh interpreter; non-zero if any is incorrect."""
    status = 0
    for name in ALL:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = res.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith('{"detail"')))
        if res.returncode != 0:
            status = 1
            print(f"# {name}: exit code {res.returncode}", res.stderr[-2000:])
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=ALL + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--self-test", action="store_true",
                    help="tiny-size run of every workload that checks the benchmark itself")
    args = ap.parse_args(argv)
    if not (SRC / "quadorbit" / "__init__.py").is_file():
        print(f"error: no quadorbit source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        print(setup(args.workload, args.seed)[0])
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(result, detail)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
