"""A/B timing of the stab prover and checker of two checkouts, in one process.

    python tests/stab_ab.py A B [--x 7900499e294] [--pairs 20]

A and B are the roots of two checkouts, each with src/quadorbit.  Both
packages are loaded into this one interpreter, as qo_a and qo_b: the package
imports its own modules only relatively, so a copy loaded under another name
is a separate and complete package.  Only the stab path is exercised here;
the congruence table is read through the name quadorbit.

Each side runs once untimed, to fill its caches and constant tables.  Then
each pair times verify_no_squares_up_to(X) (prove) and check_stab_certificate
on its result (check) on both sides, A first in odd pairs and B first in even
ones.  A host that drifts moves both runs of a pair alike, so pair wins and
the per-side quartiles stay comparable where separate processes minutes
apart do not.  The script prints, for prove and check, each side's median and
quartiles, the change of the median from A to B, the pairs in which B was
faster, and whether the gap between the medians exceeds A's interquartile
range.  It exits 1 when the two sides' certificates differ (compared by the
sha256 of their repr, which names no module).
pytest does not collect this file; it is a script, not a test.
"""
from __future__ import annotations

import argparse
import decimal
import gc
import hashlib
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter


def load(root: Path, name: str):
    """The package under root/src/quadorbit, imported as name."""
    pkg = root / "src" / "quadorbit"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None:
        raise SystemExit(f"no quadorbit package under {root}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def exact_int(text: str) -> int:
    """An integer written as digits or in e-notation, such as 7900499e294."""
    value = decimal.Decimal(text)
    if value != value.to_integral_value():
        raise argparse.ArgumentTypeError(f"{text} is not an integer")
    return int(value)


def run(lattice, x: int) -> tuple[float, float, str]:
    """(prove seconds, check seconds, certificate digest) of one run."""
    gc.collect()
    t0 = perf_counter()
    cert = lattice.verify_no_squares_up_to(x)
    t1 = perf_counter()
    lattice.check_stab_certificate(cert)
    t2 = perf_counter()
    return t1 - t0, t2 - t1, hashlib.sha256(repr(cert).encode()).hexdigest()


def report(label: str, a: list[float], b: list[float]) -> None:
    qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
    wins = sum(tb < ta for ta, tb in zip(a, b))
    change = (qb[1] - qa[1]) / qa[1]
    gap = abs(qa[1] - qb[1]) > qa[2] - qa[0]
    print(f"{label}: A {qa[1]:.4f} s [{qa[0]:.4f}, {qa[2]:.4f}]  "
          f"B {qb[1]:.4f} s [{qb[0]:.4f}, {qb[2]:.4f}]  change {change:+.1%}  "
          f"B faster in {wins}/{len(a)} pairs  median gap > A's IQR: {gap}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="root of checkout A (the baseline)")
    ap.add_argument("b", type=Path, help="root of checkout B (the change)")
    ap.add_argument("--x", type=exact_int, default=7900499 * 10 ** 294,
                    help="the bound X (default: the stab_e300 benchmark input of seed 1)")
    ap.add_argument("--pairs", type=int, default=20, help="timed pairs (default 20)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    sides = [load(args.a.resolve(), "qo_a").lattice, load(args.b.resolve(), "qo_b").lattice]
    digests = {run(lat, args.x)[2] for lat in sides}
    times: list[list[tuple[float, float]]] = [[], []]
    for i in range(args.pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            prove, check, digest = run(sides[side], args.x)
            times[side].append((prove, check))
            digests.add(digest)
    digits = str(args.x)
    print(f"X = {digits[0]}.{digits[1:7]}e{len(digits) - 1}, {args.pairs} pairs")
    for j, label in enumerate(("prove", "check")):
        report(label, [t[j] for t in times[0]], [t[j] for t in times[1]])
    if len(digests) != 1:
        print("certificates differ between A and B")
        return 1
    print(f"certificates identical: sha256(repr) {digests.pop()[:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
