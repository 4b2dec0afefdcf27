"""The benchmark's workloads: seeded inputs, one timed iteration, output checks.

Every workload produces certificates or tables through the public functions
of quadorbit, runs the program's own checker on each of them, and adds
checks of its own (closed-form class counts, a naive orbit simulation).
An operation fails when its status is not VERIFIED, the checker rejects its
output, a budget exception escapes, or it runs past the workload's fixed
per-operation time limit.  A rejected output also makes the run incorrect.

Functions of quadorbit are always looked up as module attributes at call
time, so a traced run sees the wrappers that tracing.py installs.
"""
from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import math
import random
import signal
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

from quadorbit import classify, density, lattice, primes, sieve
from quadorbit.cli import _stab_to_json
from quadorbit.orbit import BitBudgetExceeded
from quadorbit.primes import FactorizationBudget
from quadorbit.rounding import PrecisionExhausted
from quadorbit.sieve import TermUnresolved

from tracing import ROUTES

BUDGET_ERRORS = (BitBudgetExceeded, FactorizationBudget, PrecisionExhausted,
                 lattice.EscalationStuck, TermUnresolved)
SLOWEST_K = 5


class OpTimeout(Exception):
    """An operation ran past the workload's per-operation time limit."""


@dataclass
class Outcome:
    """What one iteration of a workload produced and how long it took."""
    wall_s: float = 0.0
    prove_s: float = 0.0
    check_s: float = 0.0
    latencies: list[float] = field(default_factory=list)   # per item, seconds
    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)  # (input, reason)
    rejected: int = 0             # outputs the program's own checker refused
    problems: list[str] = field(default_factory=list)  # the benchmark's own checks
    digest: str = ""
    routes: Counter = field(default_factory=Counter)
    slowest: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)


class Alarm:
    """Per-operation time limit on the main thread, through SIGALRM.

    The limit interrupts Python code between bytecodes, so a long native
    big-integer operation ends before the timeout is raised.
    """

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._fire)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _fire(self, signum, frame):
        raise OpTimeout(f"over the {self.seconds:g} s limit")

    def start(self):
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def _failure_reason(exc: BaseException) -> str:
    if isinstance(exc, OpTimeout):
        return f"time limit: {exc}"
    if isinstance(exc, BUDGET_ERRORS):
        return f"budget: {type(exc).__name__}: {exc}"
    return f"checker rejected: {type(exc).__name__}: {str(exc)[:200]}"


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


# --- stab_e300 ------------------------------------------------------------------

def stab_inputs(seed: int, tiny: bool) -> dict:
    rng = random.Random(f"stab_e300:{seed}")
    mantissa = rng.randrange(10 ** 6, 10 ** 7)       # d = mantissa / 10^6 in [1, 10)
    exponent = 40 if tiny else 300
    label = f"X={mantissa / 10 ** 6}e{exponent}"
    return {"x": mantissa * 10 ** (exponent - 6), "label": label, "summary": label}


def stab_iteration(inp: dict, limit: float, tracer=None, tamper: bool = False) -> Outcome:
    """verify_no_squares_up_to(X), then check_stab_certificate on the result.

    Items are the prime indices of the certificate; an item's latency is the
    time to produce its entry (the checker runs once over all of them).
    """
    out = Outcome(attempted=1)
    marks: list[float] = []
    cert = None
    t0 = perf_counter()
    t1 = t0
    with Alarm(limit) as alarm:
        try:
            alarm.start()
            cert = lattice.verify_no_squares_up_to(
                inp["x"], progress=lambda p, cap: marks.append(perf_counter()))
            t1 = perf_counter()
            checked = cert
            if tamper:   # claim a bound 10^12 times larger than the one proved
                checked = dataclasses.replace(cert, x_bound=cert.x_bound * 10 ** 12)
            lattice.check_stab_certificate(checked)
            alarm.stop()
        except (OpTimeout, AssertionError, *BUDGET_ERRORS) as exc:
            alarm.stop()
            out.failures.append((inp["label"], _failure_reason(exc)))
            out.rejected += isinstance(exc, AssertionError)
            if cert is None:
                t1 = perf_counter()
    t2 = perf_counter()
    if cert is not None:
        payload = _stab_to_json(cert, emit_trace=True)
        out.digest = hashlib.sha256(_canonical(payload)).hexdigest()
        out.notes.update(prime_cap=cert.prime_cap, gamma_doublings=cert.gamma_doublings,
                         escalated_primes=sum(e.certificate is not None
                                              for e in cert.entries))
    out.wall_s = perf_counter() - t0
    out.prove_s, out.check_s = t1 - t0, t2 - t1
    prev = t0
    for m in marks:
        out.latencies.append(m - prev)
        prev = m
    if cert is None:   # the item in progress when the operation failed
        out.latencies.append(t1 - prev)
    return out


# --- classify_range and classify_large ---------------------------------------------

def _routes(report) -> list[str]:
    kinds = {cert["kind"] for t in report.tracks for cert in t.certificates}
    return [k for k in ROUTES if k in kinds]


def classify_iteration(cs: list[int], limit: float, tracer=None,
                       tamper: bool = False) -> Outcome:
    """verify_classification then recheck_report for every c, one at a time."""
    out = Outcome()
    effort = classify.Effort()
    effort.lattice_pool = {}          # per-run state starts fresh in every iteration
    hasher = hashlib.sha256()
    slowest: list[tuple] = []
    cases: Counter = Counter()
    t0 = perf_counter()
    with Alarm(limit) as alarm:
        for i, c in enumerate(cs):
            if tracer is not None:
                tracer.op = i
            out.attempted += 1
            report = None
            a = perf_counter()
            b = a
            try:
                alarm.start()
                report = classify.verify_classification(c, effort)
                b = perf_counter()
                checked = report
                if tamper and i == 0:   # claim a different class for the first c
                    other = classify.CaseVerdict(c, classify.CaseId(
                        report.verdict.case_id % 7 + 1))
                    checked = dataclasses.replace(report, verdict=other)
                classify.recheck_report(checked)
                alarm.stop()
            except (OpTimeout, AssertionError, *BUDGET_ERRORS) as exc:
                alarm.stop()
                out.failures.append((str(c), _failure_reason(exc)))
                out.rejected += isinstance(exc, AssertionError)
                if report is None:
                    b = perf_counter()
            e = perf_counter()
            out.prove_s += b - a
            out.check_s += e - b
            out.latencies.append(e - a)
            if report is None:
                hasher.update(_canonical({"c": str(c), "failed": True}) + b"\n")
                continue
            if report.status != "VERIFIED" and (not out.failures or out.failures[-1][0] != str(c)):
                out.failures.append((str(c), f"status {report.status}"))
            hasher.update(_canonical(classify.report_to_json(report)) + b"\n")
            cases[int(report.verdict.case_id)] += 1
            routes = _routes(report)
            out.routes.update(routes)
            route = "+".join(routes) or f"case-{int(report.verdict.case_id)}"
            entry = (e - a, i, c, route, b - a, e - b)
            if len(slowest) < SLOWEST_K:
                heapq.heappush(slowest, entry)
            elif entry > slowest[0]:
                heapq.heapreplace(slowest, entry)
    out.wall_s = perf_counter() - t0
    out.digest = hasher.hexdigest()
    out.slowest = [{"c": str(c), "route": route, "latency_s": round(lat, 6),
                    "classify_s": round(pb, 6), "recheck_s": round(ck, 6)}
                   for lat, _i, c, route, pb, ck in sorted(slowest, reverse=True)]
    out.notes["cases"] = {str(k): cases[k] for k in sorted(cases)}
    return out


def range_inputs(seed: int, tiny: bool) -> dict:
    rng = random.Random(f"classify_range:{seed}")
    half, shift = (300, 10) if tiny else (100_000, 1000)
    offset = rng.randint(-shift, shift)
    lo, hi = -half + offset, half + offset
    return {"lo": lo, "hi": hi, "cs": [c for c in range(lo, hi + 1) if c not in (0, -1)],
            "summary": f"c in [{lo}, {hi}]"}


def expected_case_counts(lo: int, hi: int) -> Counter:
    """Class counts over [lo, hi] from the closed forms alone.

    c = -m^2 (m >= 2) are cases 1-4: m = 4 is case 2, m + 1 = s^2 is case 4
    for s in {3, 5, 56} and case 3 otherwise, everything else case 1.
    c = 4m^2(m^2 - 1) (m >= 2) are case 5, except m = 2 (c = 48), case 6.
    Every other c outside {0, -1} is case 7.
    """
    counts: Counter = Counter()
    m = 2
    while m * m <= max(0, -lo):
        if lo <= -m * m <= hi:
            s = math.isqrt(m + 1)
            if m == 4:
                counts[2] += 1
            elif s * s == m + 1:
                counts[4 if s in (3, 5, 56) else 3] += 1
            else:
                counts[1] += 1
        m += 1
    m = 2
    while 4 * m * m * (m * m - 1) <= hi:
        if 4 * m * m * (m * m - 1) >= lo:
            counts[6 if m == 2 else 5] += 1
        m += 1
    total = hi - lo + 1 - sum(1 for c in (0, -1) if lo <= c <= hi)
    counts[7] = total - sum(counts.values())
    return counts


def range_iteration(inp: dict, limit: float, tracer=None, tamper: bool = False) -> Outcome:
    out = classify_iteration(inp["cs"], limit, tracer, tamper)
    if not out.failures:
        want = expected_case_counts(inp["lo"], inp["hi"])
        got = {int(k): v for k, v in out.notes["cases"].items()}
        if got != {k: v for k, v in want.items() if v}:
            out.problems.append(f"class counts {got} differ from closed forms {dict(want)}")
    return out


def large_inputs(seed: int, tiny: bool) -> dict:
    """Half uniform even c; half c = 0 mod 4 with c+1 prime and no table row.

    Primality comes from sympy, not from the program's own is_prime.
    """
    import sympy

    rng = random.Random(f"classify_large:{seed}")
    digits, count = ((10, 12), 4) if tiny else ((20, 30), 12)
    static = classify._static_table()
    cs = []
    for i in range(count):
        d = rng.randint(*digits)
        if i % 2 == 0:
            cs.append(2 * rng.randrange(10 ** (d - 1) // 2, 10 ** d // 2))
            continue
        while True:
            c = 4 * rng.randrange(10 ** (d - 1) // 4, 10 ** d // 4)
            if sympy.isprime(c + 1) and not sieve.match_congruence_rows(c, static):
                cs.append(c)
                break
    return {"cs": cs, "summary": [str(c) for c in cs]}


def large_iteration(inp: dict, limit: float, tracer=None, tamper: bool = False) -> Outcome:
    return classify_iteration(inp["cs"], limit, tracer, tamper)


# --- orbits_mod_p ----------------------------------------------------------------

def orbits_inputs(seed: int, tiny: bool) -> dict:
    """A seeded |c| <= 1000 with -c and c+1 both non-squares, and a prime sample."""
    rng = random.Random(f"orbits_mod_p:{seed}")
    table_bound, density_bound = (30, 3000) if tiny else (200, 300_000)
    while True:
        c = rng.randint(-1000, 1000)
        if c not in (0, -1) and not _is_square(-c) and not _is_square(c + 1):
            break
    sample = sorted(rng.sample(primes.primes_to(density_bound), 32))
    return {"c": c, "table_bound": table_bound, "density_bound": density_bound,
            "sample": sample,
            "summary": f"c={c}, table bound {table_bound}, density bound {density_bound}"}


def naive_divides_orbit(p: int, c: int) -> bool:
    """Does x -> x^2 + 1/c (mod p) return to 0 after leaving it?

    The orbit of 0 has at most p states, so p steps from f(0) = 1/c decide.
    """
    c0 = pow(c, -1, p)
    x = c0
    for _ in range(p):
        if x == 0:
            return True
        x = (x * x + c0) % p
    return False


def orbits_iteration(inp: dict, limit: float, tracer=None, tamper: bool = False) -> Outcome:
    """regenerate_congruence_table plus density_profile for the seeded c.

    Checks: every regenerated row passes verify_row_coverage, the density
    profile has no invariant violation, and divides_orbit agrees with a naive
    simulation on the seeded prime sample.  The diff against the static table
    is red by design and only reported.
    """
    c = inp["c"]
    out = Outcome(attempted=2)
    hasher = hashlib.sha256()
    t0 = perf_counter()
    with Alarm(limit) as alarm:
        try:
            alarm.start()
            a = perf_counter()
            table = sieve.regenerate_congruence_table(inp["table_bound"])
            diffs = sieve.compare_congruence_tables(table, classify._static_table())
            b = perf_counter()
            rows = dict(table.rows)
            if tamper:   # admit one residue the patterns do not cover
                k, extra = next((k, r) for k in sorted(rows) for r in range(1, k)
                                if math.gcd(r, k) == 1 and r not in rows[k])
                rows[k] = tuple(sorted(rows[k] + (extra,)))
            bad = [(k, r) for k in sorted(rows) for r in rows[k]
                   if not sieve.verify_row_coverage(k, r)]
            alarm.stop()
            out.prove_s += b - a
            out.check_s += perf_counter() - b
            if bad:
                out.rejected += 1
                out.failures.append((f"table {inp['table_bound']}",
                                     f"checker rejected rows {bad[:5]}"))
            hasher.update(sieve.format_congruence_table(table).encode())
            out.notes["table_diffs"] = len(diffs)
        except (OpTimeout, *BUDGET_ERRORS) as exc:
            alarm.stop()
            out.failures.append((f"table {inp['table_bound']}", _failure_reason(exc)))
        try:
            alarm.start()
            a = perf_counter()
            prof = density.density_profile(c, 0, inp["density_bound"])
            b = perf_counter()
            mismatched = [p for p in inp["sample"] if c % p
                          and density.divides_orbit(p, c, 0) != naive_divides_orbit(p, c)]
            alarm.stop()
            out.prove_s += b - a
            out.check_s += perf_counter() - b
            if mismatched:
                out.problems.append(f"divides_orbit disagrees with the naive orbit "
                                    f"at p in {mismatched[:5]} for c={c}")
            if prof.violations or not prof.hypothesis_met:
                out.rejected += 1
                out.failures.append((f"density c={c}", f"invariant violations "
                                     f"{list(prof.violations[:5])}, hypothesis "
                                     f"{prof.hypothesis_met}"))
            hasher.update(_canonical(density.profile_rows(prof)))
            out.notes["primes_tested"] = prof.checkpoints[-1].primes
        except (OpTimeout, *BUDGET_ERRORS) as exc:
            alarm.stop()
            out.failures.append((f"density c={c}", _failure_reason(exc)))
    out.wall_s = perf_counter() - t0
    out.latencies.append(out.wall_s)
    out.digest = hasher.hexdigest()
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: object      # (seed, tiny) -> dict
    iteration: object   # (inputs, limit, tracer, tamper) -> Outcome
    limit_s: float      # fixed per-operation time limit
    item: str           # what one latency sample is
    min_iterations: int = 1


WORKLOADS = {
    # One iteration takes 15-21 s and the first in a process is the slower, so
    # every run takes two: a run's median is then always over a cold and a
    # warm iteration, whichever way the host's speed drifts.
    "stab_e300": Workload("stab_e300", stab_inputs, stab_iteration, 150.0,
                          "prime index of the certificate (prove side)", 2),
    # c = 58080 alone takes about 20 s, so the limit sits well above it.
    "classify_range": Workload("classify_range", range_inputs, range_iteration, 90.0,
                               "c value (classify + recheck)"),
    "classify_large": Workload("classify_large", large_inputs, large_iteration, 5.0,
                               "c value (classify + recheck)"),
    "orbits_mod_p": Workload("orbits_mod_p", orbits_inputs, orbits_iteration, 60.0,
                             "c value (table regeneration + density profile)"),
}
