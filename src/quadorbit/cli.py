"""Command-line front end.

Exit codes: 0 verified/ok, 1 verification failure or counterexample,
2 usage error, 3 budget or precision exhaustion.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time
from fractions import Fraction

from . import curves, density, lattice
from .classify import report_to_json, verify_classification
from .orbit import (BitBudgetExceeded, critical_numerator, half_sum_status,
                    orbit_point)
from .primes import FactorizationBudget
from .rounding import PrecisionExhausted
from .sieve import (compare_congruence_tables, format_congruence_table,
                    load_static_congruence_table, regenerate_congruence_table)


def _classify_worker(c: int) -> dict:
    return report_to_json(verify_classification(c))


def _parse_big(text: str) -> int:
    """Exact integer from '123', '1e100', or '10^100' forms."""
    text = text.strip().lower().replace("10^", "1e")
    if "e" in text:
        mant, exp = text.split("e", 1)
        mant = mant or "1"
        if "." in mant:
            whole, frac = mant.split(".")
            mant_digits = whole + frac
            shift = int(exp) - len(frac)
        else:
            mant_digits, shift = mant, int(exp)
        if shift < 0:
            raise ValueError(f"{text} is not an integer")
        return int(mant_digits) * 10 ** shift
    return int(text)


def _parse_range(text: str) -> tuple[int, int]:
    lo, hi = text.split("..", 1)
    return int(lo), int(hi)


def cmd_seq(args) -> int:
    c, n = args.c, args.n
    if c in (0, -1):
        print("error: c must avoid 0 and -1", file=sys.stderr)
        return 2
    a = critical_numerator(c, n)
    point = orbit_point(c, n)
    out = {"c": c, "n": n, "a_n": str(a.value),
           "orbit_numerator": str(point.numerator),
           "orbit_denominator": str(point.denominator)}
    if n >= 2:
        st = half_sum_status(c, n)
        out["half_sum_class"] = st.square_class.value
        if st.root is not None:
            out["a_n_sqrt"] = str(st.root)
    if args.json:
        print(json.dumps(out))
    else:
        print(f"a_{n}({c}) = {a.value}")
        print(f"f^{n}(0) = {point.numerator}/{point.denominator}")
        if "half_sum_class" in out:
            print(f"half-sum status: {out['half_sum_class']}")
    return 0


def _format_report_line(rep: dict) -> str:
    par = ""
    if rep["params"]["m"]:
        par = f" (m={rep['params']['m']}"
        par += f", s={rep['params']['s']})" if rep["params"]["s"] else ")"
    k = rep["k_profile"]
    return (f"c={rep['c']}: case {rep['case']}{par}, "
            f"k = ({k['k1']}, {k['k2']}, {k['k3']}, ... {k['stable']}), "
            f"{rep['status']}")


def cmd_classify(args) -> int:
    t0 = time.time()
    if args.range:
        lo, hi = _parse_range(args.range)
        if hi - lo >= 10 ** 6:   # every report is held, at ~1.5 KB: 10^6 take ~1.5 GB
            raise ValueError("--range spans more than 10^6 values")
        cs = [c for c in range(lo, hi + 1) if c not in (0, -1)]
    else:
        cs = [args.c]
    if args.jobs > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=args.jobs,
                                    initializer=_lift_int_digit_limit) as ex:
            payload = list(ex.map(_classify_worker, cs,
                                  chunksize=max(1, len(cs) // (8 * args.jobs))))
    else:
        payload = [_classify_worker(c) for c in cs]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
    all_ok = all(r["status"] == "VERIFIED" for r in payload)
    if args.json:
        print(json.dumps(payload if args.range else payload[0]))
    elif args.range:
        for rep in payload:
            if rep["status"] != "VERIFIED" or args.verbose:
                print(_format_report_line(rep))
        n_ok = sum(1 for r in payload if r["status"] == "VERIFIED")
        print(f"{n_ok}/{len(payload)} verified in {time.time() - t0:.1f}s")
    else:
        print(_format_report_line(payload[0]))
    return 0 if all_ok else 1


def cmd_stab_verify(args) -> int:
    x = _parse_big(args.x)
    t0 = time.time()

    def progress(p, cap):
        if args.verbose:
            print(f"  prime {p} (cap {cap}) done", file=sys.stderr)

    cert = lattice.verify_no_squares_up_to(x, progress=progress, jobs=args.jobs)
    lattice.check_stab_certificate(cert)
    elapsed = time.time() - t0
    payload = _stab_to_json(cert, emit_trace=args.emit_trace)
    payload["elapsed_seconds"] = round(elapsed, 3)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1)
    if args.json:
        print(json.dumps(payload))
    if not args.json:
        worked = sum(1 for e in cert.entries if e.certificate is not None)
        print(f"verified: no square a_p(c) for any prime 5 <= p <= {cert.prime_cap} "
              f"and even 4 <= c <= {args.x}")
        print(f"primes processed: {len(cert.entries)} ({worked} needed escalation); "
              f"gamma doublings: {cert.gamma_doublings}; {elapsed:.1f}s")
        print("certificate re-checked: OK")
    return 0


def _lift_int_digit_limit() -> int:
    """Lift Python's int-to-str digit limit (3.11+), returning the old one (0 for
    none): an a_n, report or stab trace can print integers of tens of thousands
    of digits, in main or in a pool worker, which a spawn start leaves limited."""
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if old:
        sys.set_int_max_str_digits(0)
    return old


@contextlib.contextmanager
def _any_int_digits():
    old = _lift_int_digit_limit()
    try:
        yield
    finally:
        if old:
            sys.set_int_max_str_digits(old)


def _stab_to_json(cert, emit_trace: bool = False) -> dict:
    from .classify import _jsonify

    entries = []
    for e in cert.entries:
        item = {"n": e.prime, "required_bound": str(e.required_bound),
                "initial_bound": str(e.initial_bound)}
        if e.certificate is not None:
            item["final_bound"] = str(e.certificate.final_bound)
            item["c_bound"] = str(e.certificate.c_exclusion)
            item["passes"] = len(e.certificate.traces)
            if emit_trace:
                item["trace"] = _jsonify(e.certificate.traces)
        entries.append(item)
    return {"x_bound": str(cert.x_bound), "prime_cap": cert.prime_cap,
            "gamma_doublings": cert.gamma_doublings,
            "small_c": [{"c": c, "p": sc.p, "start": sc.start,
                         "values": list(sc.values)} for c, sc in cert.small_c],
            "entries": entries}


def cmd_table1(args) -> int:
    static = load_static_congruence_table()
    if not args.regen:
        sys.stdout.write(format_congruence_table(static))
        return 0
    regen = regenerate_congruence_table(args.bound)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(format_congruence_table(regen))
    diffs = compare_congruence_tables(regen, static)
    sys.stdout.write(format_congruence_table(regen))
    if diffs:
        print(f"# {len(diffs)} discrepancies vs the static table:")
        for d in diffs:
            print(f"#   mod {d.modulus}, residue {d.residue}: {d.side} ({d.note})")
        return 1
    print("# regenerated table matches the static table row-for-row")
    return 0


def cmd_curves(args) -> int:
    pts = curves.integral_points(args.id, args.height)
    xs = curves.x_values(args.id, args.height)
    if args.json:
        print(json.dumps({"curve": args.id, "height": args.height,
                          "x_values": list(xs),
                          "points": [[p.x, p.y] for p in pts]}))
    else:
        print(f"{args.id}, |x| <= {args.height}: x in {list(xs)}")
        for p in pts:
            print(f"  ({p.x}, +-{p.y})")
    if args.id in curves.KNOWN_X:
        ok = xs == curves.KNOWN_X[args.id]
        print(f"matches recorded point list: {'yes' if ok else 'NO'}")
        return 0 if ok else 1
    return 0


def cmd_density(args) -> int:
    try:
        t = Fraction(args.t)
    except ZeroDivisionError:
        raise ValueError(f"--t {args.t} has a zero denominator") from None
    marks = tuple(_parse_big(tok) for tok in args.checkpoints.split(",")) \
        if args.checkpoints else None
    prof = density.density_profile(args.c, t, _parse_big(args.bound), marks)
    rows = density.profile_rows(prof)
    if args.csv or args.plot_data:
        path = args.csv or args.plot_data
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, delimiter=" " if args.plot_data else ",")
            w.writerow(["bound", "dividing", "primes", "fraction"])
            w.writerows(rows)
    payload = {"c": prof.c, "t": prof.t, "bound": prof.bound,
               "hypothesis_met": prof.hypothesis_met,
               "excluded_primes": list(prof.excluded),
               "invariant_violations": list(prof.violations),
               "checkpoints": [{"bound": b, "dividing": d, "primes": n,
                                "fraction": f} for b, d, n, f in rows]}
    if args.json:
        print(json.dumps(payload))
    else:
        if not prof.hypothesis_met:
            print("note: -c or c+1 is a square; the density statement's "
                  "hypotheses are not met")
        for b, d, n, f in rows:
            print(f"B = {b}: {d}/{n} primes divide the orbit ({f})")
        print(f"routes: {prof.by_tree} primes by the preimage tree, {prof.by_walk} "
              f"by the walk, {prof.audited} tree decisions audited by a walk")
        print(f"invariant violations: {len(prof.violations)}")
    return 0 if not prof.violations else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="quadorbit",
        description="critical-orbit arithmetic and irreducibility certification "
                    "for x^2 + 1/c")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="numerator, orbit point, square status")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("classify", help="case verdicts and verified reports")
    p.add_argument("--c", type=int)
    p.add_argument("--range", type=str, help="inclusive range lo..hi")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("stab-verify",
                       help="prove a_p(c) non-square for all even c up to X")
    p.add_argument("--x", type=str, required=True, help="bound, e.g. 1e100")
    p.add_argument("--emit-trace", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_stab_verify)

    p = sub.add_parser("table1", help="print or regenerate the congruence table")
    p.add_argument("--regen", action="store_true")
    p.add_argument("--bound", type=int, default=100)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("curves", help="bounded integral-point search")
    p.add_argument("--id", choices=sorted(curves.CURVES), required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("density", help="orbit-dividing prime densities")
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--t", type=str, default="0")
    p.add_argument("--bound", type=str, required=True)
    p.add_argument("--checkpoints", type=str, default=None)
    p.add_argument("--csv", type=str, default=None)
    p.add_argument("--plot-data", type=str, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_density)

    with _any_int_digits():
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
        if args.command == "classify" and (args.c is None) == (args.range is None):
            print("error: exactly one of --c / --range is required", file=sys.stderr)
            return 2
        try:
            return args.func(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except lattice.TraceError as exc:
            print(f"verification failure: {exc}", file=sys.stderr)
            return 1
        except (BitBudgetExceeded, FactorizationBudget, PrecisionExhausted,
                lattice.EscalationStuck) as exc:
            print(f"budget exhausted: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
