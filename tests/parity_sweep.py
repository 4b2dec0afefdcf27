"""Parity sweep: one line per c of a classify report's digest and its recheck.

    PYTHONPATH=src python tests/parity_sweep.py OUT [--bound N] [--m-max M]
    python tests/parity_sweep.py --diff A B

The first form classifies every c with 0 < |c| <= N, c != -1, and every
c = -m^2 with isqrt(N) < m <= M (the negative squares past the range), and
writes "c sha256 ok" per c to OUT: the sha256 of the report's canonical JSON
(report_to_json, sorted keys, compact) and whether recheck_report accepts it.
It exits 1 when any recheck fails.  Run it once per tree, with PYTHONPATH
naming that tree's src, and compare the two files with --diff, which prints
each c whose line differs (or is in one file only) and exits 1 when any does.
pytest does not collect this file; it is a script, not a test.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys


def sweep_values(bound: int, m_max: int) -> list[int]:
    cs = [c for c in range(-bound, bound + 1) if c not in (0, -1)]
    return cs + [-m * m for m in range(math.isqrt(bound) + 1, m_max + 1)]


def sweep_line(c: int) -> str:
    from quadorbit.classify import recheck_report, report_to_json, verify_classification
    rep = verify_classification(c)
    canon = json.dumps(report_to_json(rep), sort_keys=True, separators=(",", ":"))
    try:
        recheck_report(rep)
        ok = "ok"
    except AssertionError:
        ok = "FAIL"
    return f"{c} {hashlib.sha256(canon.encode()).hexdigest()} {ok}"


def read_sweep(path: str) -> dict[str, str]:
    with open(path) as fh:
        return {c: rest for c, _, rest in (line.rstrip("\n").partition(" ") for line in fh)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", nargs="?", help="file the sweep writes")
    ap.add_argument("--bound", type=int, default=2 * 10 ** 4, help="sweep 0 < |c| <= N")
    ap.add_argument("--m-max", type=int, default=2000, help="largest m of c = -m^2")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"), help="list the c where two sweeps differ")
    args = ap.parse_args(argv)
    if args.diff:
        a, b = map(read_sweep, args.diff)
        differ = sorted((c for c in a.keys() | b.keys() if a.get(c) != b.get(c)), key=int)
        for c in differ:
            print(c, a.get(c, "-"), b.get(c, "-"))
        print(f"{len(differ)} of {len(a.keys() | b.keys())} differ", file=sys.stderr)
        return 1 if differ else 0
    if args.out is None:
        ap.error("give OUT, or --diff A B")
    failed = 0
    with open(args.out, "w") as fh:
        for c in sweep_values(args.bound, args.m_max):
            line = sweep_line(c)
            failed += line.endswith("FAIL")
            fh.write(line + "\n")
    print(f"{failed} rechecks failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
