import math
from fractions import Fraction

import pytest
import sympy

from quadorbit.factors import (SPECIAL_S, build_pattern, eval_at_orbit, f_coeffs,
                               negative_square_parameter, obstruction,
                               poly_compose, poly_mul,
                               quartic_form_parameter)
from quadorbit.orbit import is_perfect_square, orbit_point


def test_shape_detection():
    assert negative_square_parameter(-16) == 4
    assert negative_square_parameter(-9) == 3
    assert negative_square_parameter(-1) is None
    assert negative_square_parameter(7) is None
    assert quartic_form_parameter(48) == 2
    assert quartic_form_parameter(288) == 3
    assert quartic_form_parameter(4 * 25 * 24) == 5
    assert quartic_form_parameter(8) is None
    assert quartic_form_parameter(3) is None


def test_pattern_members():
    assert [g.name for g in build_pattern(-16)] == ["g1", "g2", "g21", "g22"]
    assert [g.name for g in build_pattern(-9)] == ["g1", "g2", "h1", "h2"]
    assert [g.name for g in build_pattern(-64)] == ["g1", "g2", "h1", "h2", "h11", "h12"]
    assert [g.name for g in build_pattern(48)] == ["q1", "q2", "v1", "v2"]
    assert [g.name for g in build_pattern(288)] == ["q1", "q2"]
    with pytest.raises(ValueError):
        build_pattern(7)
    with pytest.raises(ValueError):
        build_pattern(-1)


def test_h1_for_s2():
    h1 = {g.name: g for g in build_pattern(-9)}["h1"]
    assert h1.coeffs == (Fraction(-2, 3), Fraction(1))  # x - 2/3


def test_product_identities_across_parameters():
    # build_pattern verifies the identities internally; exercise both families
    for m in range(2, 201):
        build_pattern(-m * m)
        build_pattern(4 * m * m * (m * m - 1))
    for s in range(2, 15):
        build_pattern(-((s * s - 1) ** 2))
    for s in SPECIAL_S:
        pat = build_pattern(-((s * s - 1) ** 2))
        assert {"h11", "h12"} <= {g.name for g in pat}


def test_known_exception_value():
    g2 = {g.name: g for g in build_pattern(-16)}["g2"]
    assert obstruction(g2, -16, 2) == Fraction(49, 256)  # the m = 4 square


def test_obstruction_values():
    pat = {g.name: g for g in build_pattern(-16)}
    assert obstruction(pat["g21"], -16, 1) == Fraction(129, 256)
    # odd-degree factors flip sign at the first composition
    g1 = pat["g1"]
    assert obstruction(g1, -16, 1) == -eval_at_orbit(g1, -16, 1)
    assert obstruction(g1, -16, 1) == Fraction(5, 16)  # (m+1)/m^2


def test_h11_numerator_factorizations():
    for s, factors_known in ((3, (41,)), (5, (5, 53)), (56, (2, 656783))):
        c = -((s * s - 1) ** 2)
        h11 = {g.name: g for g in build_pattern(c)}["h11"]
        val = obstruction(h11, c, 1)
        num = val.numerator
        assert num == math.prod(factors_known)
        assert not is_perfect_square(num)


def test_eval_at_orbit_examples():
    pat = {g.name: g for g in build_pattern(-4)}  # m = 2
    assert eval_at_orbit(pat["g1"], -4, 1) == Fraction(-3, 4)
    assert eval_at_orbit(pat["g2"], -4, 1) == Fraction(1, 4)
    assert eval_at_orbit(pat["g1"], -4, 0) == pat["g1"](Fraction(0))


def test_negative_sign_shortcut():
    # for c = -m^2 every value of g1 and (away from the special set) h1 along
    # the orbit is negative
    for m in (2, 3, 5, 10, 50, 200):
        c = -m * m
        pat = {g.name: g for g in build_pattern(c)}
        for n in range(1, 7):
            assert eval_at_orbit(pat["g1"], c, n) < 0
    for s in (2, 4, 7, 10):
        c = -((s * s - 1) ** 2)
        pat = {g.name: g for g in build_pattern(c)}
        for n in range(1, 7):
            assert eval_at_orbit(pat["h1"], c, n) < 0


def _sympy_poly(coeffs):
    x = sympy.symbols("x")
    return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                          for i, c in enumerate(coeffs)), x)


def _is_irreducible(coeffs) -> bool:
    p = _sympy_poly(coeffs)
    return len([1 for _f, mult in p.factor_list()[1] for _ in range(mult)]) == 1


def test_obstruction_criterion_against_factorization_oracle():
    # non-square obstructions up to depth 3 must force irreducible
    # compositions; checked against an independent factorization oracle
    from quadorbit.factors import FactorPoly

    cases = 0
    for c in (-7, -5, -2, 2, 3, 5, 7, 10):
        f = f_coeffs(c)
        for b0 in (Fraction(1, 2), Fraction(-1, 3), Fraction(2)):
            for c0 in (Fraction(1, 3), Fraction(-1), Fraction(3, 4)):
                g = FactorPoly("g", (c0, b0, Fraction(1)))
                if not _is_irreducible(g.coeffs):
                    continue
                all_nonsquare = True
                for n in range(1, 4):
                    v = obstruction(g, c, n)
                    if v >= 0 and is_perfect_square(v.numerator) \
                            and is_perfect_square(v.denominator):
                        all_nonsquare = False
                        break
                if not all_nonsquare:
                    continue
                comp = g.coeffs
                for _depth in range(1, 3):
                    comp = poly_compose(comp, f)
                    assert _is_irreducible(comp), (c, g.coeffs)
                    cases += 1
    assert cases >= 20
