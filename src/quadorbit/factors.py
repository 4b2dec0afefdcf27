"""Factor polynomials of the first iterates of f(x) = x^2 + 1/c.

f itself splits exactly when c = -m^2, and f^2 splits (with f irreducible)
exactly when c = 4m^2(m^2-1).  This module builds the named linear and
quadratic factors appearing in those splittings, verifies their product
identities exactly, and evaluates the sign-adjusted obstruction values whose
non-squareness forces irreducibility of every composition with f^n.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .orbit import isqrt_if_square, orbit_point, DEFAULT_BIT_BUDGET

# s-values for which s^3 - s + 1 is a perfect square; the only ones where
# the deeper splitting with integral sqrt(s^3 - s + 1) occurs.
SPECIAL_S = (3, 5, 56)

Coeffs = tuple[Fraction, ...]  # low -> high degree


def poly_mul(a: Coeffs, b: Coeffs) -> Coeffs:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def poly_compose(outer: Coeffs, inner: Coeffs) -> Coeffs:
    out: Coeffs = (outer[-1],)
    for c in reversed(outer[:-1]):
        out = poly_mul(out, inner)
        out = (out[0] + c,) + out[1:]
    return out


def poly_eval(p: Coeffs, x: Fraction) -> Fraction:
    """p(x) by Horner, p low -> high; integer p and x give an integer."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def f_coeffs(c: int) -> Coeffs:
    return (Fraction(1, c), Fraction(0), Fraction(1))


@dataclass(frozen=True)
class FactorPoly:
    name: str
    coeffs: Coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: Fraction) -> Fraction:
        return poly_eval(self.coeffs, x)


def negative_square_parameter(c: int) -> int | None:
    """m >= 2 with c = -m^2, if c has that shape."""
    if c >= 0:
        return None
    m = isqrt_if_square(-c)
    return m if m is not None and m >= 2 else None


def quartic_form_parameter(c: int) -> int | None:
    """m >= 2 with c = 4m^2(m^2 - 1), if c has that shape."""
    if c <= 0:
        return None
    k = isqrt_if_square(1 + c)  # c + 1 = (2m^2 - 1)^2
    if k is None or k % 2 == 0:
        return None
    m = isqrt_if_square((k + 1) // 2)
    return m if m is not None and m >= 2 else None


def _lin(name: str, root: Fraction) -> FactorPoly:
    # x - root
    return FactorPoly(name, (-root, Fraction(1)))


def _quad(name: str, b: Fraction, c0: Fraction) -> FactorPoly:
    # x^2 + b x + c0
    return FactorPoly(name, (c0, b, Fraction(1)))


def build_pattern(c: int) -> list[FactorPoly]:
    """The complete named-factor list for a reducible f or f^2.

    Rejects c without either reducible shape.  Every product identity tying
    the factors to compositions of f is verified exactly before returning.
    """
    if c in (0, -1):
        raise ValueError("c must avoid 0 and -1")
    m = negative_square_parameter(c)
    if m is not None:
        return _pattern_negative_square(c, m)
    m = quartic_form_parameter(c)
    if m is not None:
        return _pattern_quartic_form(c, m)
    raise ValueError(f"c = {c} admits no reducible factor pattern")


def _pattern_negative_square(c: int, m: int) -> list[FactorPoly]:
    f = f_coeffs(c)
    g1 = _lin("g1", Fraction(1, m))
    g2 = _lin("g2", Fraction(-1, m))
    out = [g1, g2]
    _require(poly_mul(g1.coeffs, g2.coeffs) == f, "g1*g2 = f")
    if m == 4:
        g21 = _quad("g21", Fraction(-1), Fraction(7, 16))
        g22 = _quad("g22", Fraction(1), Fraction(7, 16))
        ff = poly_compose(f, f)
        _require(poly_mul(g21.coeffs, g22.coeffs) == poly_compose(g2.coeffs, ff),
                 "g21*g22 = g2(f(f(x)))")
        out += [g21, g22]
    s = isqrt_if_square(m + 1)
    if s is not None:
        h1 = _lin("h1", Fraction(s, m))
        h2 = _lin("h2", Fraction(-s, m))
        _require(poly_mul(h1.coeffs, h2.coeffs) == poly_compose(g1.coeffs, f),
                 "h1*h2 = g1(f(x))")
        out += [h1, h2]
        if s in SPECIAL_S:
            t = isqrt_if_square(s ** 3 - s + 1)
            assert t is not None
            h11 = _lin("h11", Fraction(t, m))
            h12 = _lin("h12", Fraction(-t, m))
            _require(poly_mul(h11.coeffs, h12.coeffs) == poly_compose(h1.coeffs, f),
                     "h11*h12 = h1(f(x))")
            out += [h11, h12]
    return out


def _pattern_quartic_form(c: int, m: int) -> list[FactorPoly]:
    f = f_coeffs(c)
    const = Fraction(2 * m * m - 1, 4 * m * m * (m * m - 1))
    q1 = _quad("q1", Fraction(-1, m), const)
    q2 = _quad("q2", Fraction(1, m), const)
    _require(poly_mul(q1.coeffs, q2.coeffs) == poly_compose(f, f), "q1*q2 = f(f(x))")
    out = [q1, q2]
    if m == 2:  # c = 48, the only m where q2(f(x)) splits further
        v1 = _quad("v1", Fraction(-1, 2), Fraction(19, 48))
        v2 = _quad("v2", Fraction(1, 2), Fraction(19, 48))
        _require(poly_mul(v1.coeffs, v2.coeffs) == poly_compose(q2.coeffs, f),
                 "v1*v2 = q2(f(x))")
        out += [v1, v2]
    return out


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"product identity failed: {what}")


def eval_at_orbit(g: FactorPoly, c: int, n: int,
                  bit_budget: int = DEFAULT_BIT_BUDGET) -> Fraction:
    """g(f^n(0)) exactly; n = 0 evaluates g at 0."""
    return g(orbit_point(c, n, bit_budget))


def obstruction(g: FactorPoly, c: int, n: int,
                bit_budget: int = DEFAULT_BIT_BUDGET) -> Fraction:
    """The value whose rational non-squareness blocks g(f^n(x)) from splitting.

    At n = 1 the value carries the sign (-1)^deg(g); deeper compositions use
    the plain orbit evaluation.
    """
    if n < 1:
        raise ValueError("index must be >= 1")
    val = eval_at_orbit(g, c, n, bit_budget)
    if n == 1 and g.degree % 2 == 1:
        val = -val
    return val
