"""Span tracing installed from outside the program.

A Tracer replaces selected functions of the quadorbit modules with wrappers.
Every module namespace that binds the original function object gets the
wrapper, so callers that imported the name with ``from .x import f`` see it
too.  Each wrapped call records a span (name, start, end, parent span,
operation id) in flat arrays kept in memory; counts and a few maxima are
taken at the same boundaries.  ``uninstall`` restores the originals.

Per-layer self time is a span's duration minus the time its child spans
cover.  The root span covers one workload iteration, so the self times of
all layers plus the root's own self time (the benchmark's bookkeeping) add
up to the traced wall time.
"""
from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, function) pairs that get a span: the layer boundaries the workloads
# cross.  A span's layer is the module that defines the function; the root
# span's self time is the benchmark's own.  A name the program no longer has
# is skipped and listed in Tracer.missing, and its time stays in its caller.
SPANNED = [
    ("rounding", "nearest_int"), ("rounding", "ceil_int"), ("rounding", "floor_of_upper"),
    ("rounding", "floor_of_lower"), ("rounding", "interval_fractions"),
    ("lattice", "verify_no_squares_up_to"), ("lattice", "stab_entry_for_prime"),
    ("lattice", "required_divisor_bound"), ("lattice", "c_exclusion_bound"),
    ("lattice", "prove_divisor_bound"), ("lattice", "escalation_pass"),
    ("lattice", "closest_points"), ("lattice", "lagrange_reduce"),
    ("lattice", "_largest_nonpositive"), ("lattice", "check_stab_certificate"),
    ("lattice", "check_divisor_certificate"), ("lattice", "check_trace"),
    ("bounds", "stable_iterate_bound"), ("bounds", "initial_divisor_bound"),
    ("bounds", "valuation_split_inequality"), ("bounds", "square_split_inequality"),
    ("primes", "factorize"),
    ("orbit", "critical_numerators"), ("orbit", "orbit_point"),
    ("factors", "build_pattern"), ("factors", "obstruction"),
    ("sieve", "find_sieve_certificate"), ("sieve", "certificate_at_prime"),
    ("sieve", "verify_sieve_certificate"), ("sieve", "check_term_nonsquare"),
    ("sieve", "verify_row_coverage"), ("sieve", "regenerate_congruence_table"),
    ("sieve", "compare_congruence_tables"), ("sieve", "match_congruence_rows"),
    ("sieve", "match_m_rules"), ("sieve", "verify_m_rule"),
    ("classify", "verify_classification"), ("classify", "recheck_report"),
    ("classify", "report_to_json"),
    ("density", "density_profile"), ("density", "divides_orbit"),
]
# Counted without a span: cheap and called inside rounding spans.
COUNTED = [("rounding", "iv_context")]

LAYERS = ("rounding", "lattice", "bounds", "primes", "orbit", "factors",
          "sieve", "classify", "density")
ROOT = "bench.iteration"


def _bits(x) -> int:
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, (list, tuple)):
        return max((_bits(v) for v in x), default=0)
    num = getattr(x, "numerator", None)
    if num is not None:
        return max(abs(num).bit_length(), x.denominator.bit_length())
    return 0


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        self.name_id = {ROOT: 0}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.stack: list[int] = [-1]
        self.op = -1
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        import quadorbit  # noqa: F401  (loads every submodule)
        modules = [m for n, m in sys.modules.items()
                   if n == "quadorbit" or n.startswith("quadorbit.")]
        for mod, fn in SPANNED:
            self._replace(modules, mod, fn, self._spanned)
        for mod, fn in COUNTED:
            self._replace(modules, mod, fn, self._counted)

    def _replace(self, modules, mod: str, fn: str, make) -> None:
        orig = getattr(sys.modules.get(f"quadorbit.{mod}"), fn, None)
        if orig is None:
            self.missing.append(f"{mod}.{fn}")
            return
        wrapper = make(f"{mod}.{fn}", orig)
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    self._restore.append((m, attr, orig))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        s_name, s_parent, s_op = self.s_name, self.s_parent, self.s_op
        s_start, s_end, stack, counts = self.s_start, self.s_end, self.stack, self.counts
        on_args = on_result = None
        if name == "lattice.lagrange_reduce":
            def on_args(args):
                self._max("lattice.reduce_max_bits", _bits(args))
        elif name in ("orbit.critical_numerators", "orbit.orbit_point"):
            def on_result(res):
                self._max("orbit.numerator_max_bits",
                          _bits(res[-1] if isinstance(res, list) else res))
        elif name == "sieve.check_term_nonsquare":
            def on_result(res):
                counts["sieve.witness." + res.witness_kind] += 1

        def wrapper(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_op.append(self.op)
            s_start.append(0.0)
            s_end.append(0.0)
            stack.append(idx)
            if on_args is not None:
                on_args(args)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                s_start[idx], s_end[idx] = t0, perf_counter()
                stack.pop()
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            s_start[idx], s_end[idx] = t0, perf_counter()
            stack.pop()
            if on_result is not None:
                on_result(res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    # -- the root span ---------------------------------------------------------

    def open_root(self) -> None:
        self.s_name.append(0)
        self.s_parent.append(-1)
        self.s_op.append(-1)
        self.s_start.append(perf_counter())
        self.s_end.append(0.0)
        self.stack.append(len(self.s_name) - 1)

    def close_root(self) -> None:
        idx = self.stack.pop()
        self.s_end[idx] = perf_counter()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name span count, inclusive time, self time and max inclusive time."""
        n = len(self.s_name)
        child = [0.0] * n
        dur = [self.s_end[i] - self.s_start[i] for i in range(n)]
        for i in range(n):
            p = self.s_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.s_name[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            if dur[i] > row["max_s"]:
                row["max_s"] = dur[i]
        return out

    def write(self, path) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        header = {"names": self.names, "spans": len(self.s_name),
                  "arrays": ["name:i", "parent:i", "op:i", "start:d", "end:d"]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.s_name, self.s_parent, self.s_op, self.s_start, self.s_end):
                arr.tofile(fh)


ROUTES = ("neg-one-prime", "table-congruence", "split-inequality", "iterate-bound",
          "prime-lattice", "m-congruence", "sieve")
_LATTICE_DRIVER = ("verify_no_squares_up_to", "stab_entry_for_prime",
                   "required_divisor_bound", "c_exclusion_bound", "prove_divisor_bound")
_LATTICE_CHECK = ("check_stab_certificate", "check_divisor_certificate", "check_trace")


def layer_metrics(tracer: Tracer, routes: Counter, primes_tested: int) -> dict:
    """Per-layer metrics of one traced iteration, as {name: (value, unit)}."""
    summ = tracer.summary()

    def rows(prefix, names=None):
        return [r for n, r in summ.items()
                if n.startswith(prefix + ".") and (names is None or n.split(".", 1)[1] in names)]

    def tot(prefix, key, names=None):
        return sum(r[key] for r in rows(prefix, names))

    def top(prefix, key, names=None):
        return max((r[key] for r in rows(prefix, names)), default=0.0)

    counts, maxima = tracer.counts, tracer.maxima
    r_calls = tot("rounding", "calls")
    contexts = counts["rounding.iv_context"]
    passes = tot("lattice", "calls", ("escalation_pass",))
    attempts = tot("lattice", "calls", ("closest_points",))
    search = ("find_sieve_certificate", "certificate_at_prime")
    root = summ[ROOT]
    m = {
        "rounding.calls": (r_calls, "count"),
        "rounding.self_s": (tot("rounding", "self_s"), "s"),
        "rounding.contexts": (contexts, "count"),
        "rounding.contexts_per_call": (contexts / r_calls if r_calls else 0.0, "ratio"),
        "lattice.passes": (passes, "count"),
        "lattice.attempts": (attempts, "count"),
        "lattice.attempts_per_pass": (attempts / passes if passes else 0.0, "ratio"),
        "lattice.reduce_calls": (tot("lattice", "calls", ("lagrange_reduce",)), "count"),
        "lattice.reduce_self_s": (tot("lattice", "self_s", ("lagrange_reduce",)), "s"),
        "lattice.reduce_max_bits": (maxima["lattice.reduce_max_bits"], "bits"),
        "lattice.cvp_self_s": (tot("lattice", "self_s", ("closest_points",)), "s"),
        "lattice.pass_self_s": (tot("lattice", "self_s", ("escalation_pass",)), "s"),
        "lattice.h_window_s": (tot("lattice", "self_s", ("_largest_nonpositive",)), "s"),
        "lattice.check_s": (tot("lattice", "self_s", _LATTICE_CHECK), "s"),
        "lattice.driver_s": (tot("lattice", "self_s", _LATTICE_DRIVER), "s"),
        "lattice.self_s": (tot("lattice", "self_s"), "s"),
        "bounds.calls": (tot("bounds", "calls"), "count"),
        "bounds.self_s": (tot("bounds", "self_s"), "s"),
        "bounds.split_inequality_s": (
            tot("bounds", "total_s", ("valuation_split_inequality",)), "s"),
        "primes.factorize_calls": (tot("primes", "calls"), "count"),
        "primes.factorize_s": (tot("primes", "self_s"), "s"),
        "primes.factorize_max_s": (top("primes", "max_s"), "s"),
        "primes.budget_exceeded": (
            counts["primes.factorize.raised.FactorizationBudget"], "count"),
        "orbit.numerator_calls": (tot("orbit", "calls"), "count"),
        "orbit.numerator_s": (tot("orbit", "self_s"), "s"),
        "orbit.numerator_max_bits": (maxima["orbit.numerator_max_bits"], "bits"),
        "factors.calls": (tot("factors", "calls"), "count"),
        "factors.self_s": (tot("factors", "self_s"), "s"),
        "sieve.cert_search_calls": (tot("sieve", "calls", search), "count"),
        "sieve.cert_search_s": (tot("sieve", "self_s", search), "s"),
        "sieve.cert_verify_s": (tot("sieve", "self_s", ("verify_sieve_certificate",)), "s"),
        "sieve.residual_calls": (tot("sieve", "calls", ("check_term_nonsquare",)), "count"),
        "sieve.residual_s": (tot("sieve", "self_s", ("check_term_nonsquare",)), "s"),
        "sieve.residual_max_s": (top("sieve", "max_s", ("check_term_nonsquare",)), "s"),
        "sieve.residual_exact": (counts["sieve.witness.exact"], "count"),
        "sieve.residual_jacobi": (counts["sieve.witness.jacobi"], "count"),
        "sieve.row_coverage_s": (tot("sieve", "self_s", ("verify_row_coverage",)), "s"),
        "sieve.table_regen_s": (
            tot("sieve", "self_s", ("regenerate_congruence_table",)), "s"),
        "sieve.self_s": (tot("sieve", "self_s"), "s"),
        "classify.self_s": (tot("classify", "self_s"), "s"),
        "classify.recheck_s": (tot("classify", "total_s", ("recheck_report",)), "s"),
        "classify.recheck_max_s": (top("classify", "max_s", ("recheck_report",)), "s"),
    }
    for kind in ROUTES:
        m[f"classify.route.{kind}"] = (routes[kind], "count")
    m.update({
        "density.primes_tested": (primes_tested, "count"),
        "density.divides_orbit_s": (tot("density", "self_s", ("divides_orbit",)), "s"),
        "density.self_s": (tot("density", "self_s"), "s"),
        "bench.self_s": (root["self_s"], "s"),
        "trace.wall_s": (root["total_s"], "s"),
        "trace.spans": (len(tracer.s_name), "count"),
    })
    layers = sum(tot(layer, "self_s") for layer in LAYERS)
    m["trace.unaccounted_s"] = (root["total_s"] - layers - root["self_s"], "s")
    return m
