"""Laurent arithmetic: the product kernel against a schoolbook product, and
coefficient checks where a coefficient enters a polynomial."""
import random
from fractions import Fraction

import pytest

from wittforge.errors import ZeroElement
from wittforge.fields import FieldTower
from wittforge.laurent import LaurentPoly

Q = FieldTower.rationals()
QT = FieldTower.rationals("t")
RT = FieldTower.reals("t")
F13 = FieldTower.prime(13)
F13ST = FieldTower.prime(13, "s", "t")
F25T = FieldTower("F", 5, ("t",), 2)

TOWERS = (F13ST, F25T, Q, QT, RT)


def schoolbook(tower, f, g):
    """{exps: coeff} of f * g: every pair of terms, then each coefficient
    reduced (mod p over a prime base) and the zero ones dropped."""
    out = {}
    for ef, cf in f.items():
        for eg, cg in g.items():
            e = tuple(a + b for a, b in zip(ef, eg))
            out[e] = out.get(e, 0) + cf * cg
    if tower.kind == "F":
        out = {e: c % tower.p for e, c in out.items()}
    return {e: c for e, c in out.items() if c}


def random_poly(tower, rng):
    """Up to five terms, exponents in [-2, 2] so that products collide."""
    if tower.kind == "F":
        coeffs = range(1, tower.p)
    else:
        coeffs = (1, -1, 2, -2, Fraction(1, 2), Fraction(-5, 3))
    out = LaurentPoly.zero(tower)
    for _ in range(rng.randint(0, 5)):
        exps = {v: rng.randint(-2, 2) for v in tower.laurent_vars}
        out = out + LaurentPoly.monomial(tower, rng.choice(coeffs), exps)
    return out


def odd_terms_negated(f):
    """f(-x) for f(x), so that f(x) * f(-x) has cross terms that cancel."""
    out = LaurentPoly.zero(f.tower)
    for e, c in f.terms:
        exps = dict(zip(f.tower.laurent_vars, e))
        out = out + LaurentPoly.monomial(f.tower, -c if sum(e) % 2 else c, exps)
    return out


class TestProductKernel:
    @pytest.mark.parametrize("tower", TOWERS, ids=str)
    def test_seeded_products_match_schoolbook(self, tower):
        rng = random.Random(f"laurent-mul:{tower}")
        cancelled = negative = 0
        for _ in range(300):
            f, g = random_poly(tower, rng), random_poly(tower, rng)
            for x, y in ((f, g), (f, odd_terms_negated(f))):
                expected = schoolbook(tower, dict(x.terms), dict(y.terms))
                assert (x * y).terms == tuple(sorted(expected.items())), (x, y)
                pair_exps = {tuple(map(sum, zip(ex, ey))) for ex, _ in x.terms for ey, _ in y.terms}
                cancelled += len(expected) < len(pair_exps)
                negative += any(e < 0 for exps in expected for e in exps)
        # wherever the tower has a variable, the seeded cases include
        # products in which terms cancel and negative exponents
        assert (cancelled and negative) or not tower.laurent_vars

    @pytest.mark.parametrize("tower", TOWERS, ids=str)
    def test_products_that_cancel_to_zero(self, tower):
        a = LaurentPoly.monomial(tower, 2, {v: -1 for v in tower.laurent_vars})
        b = LaurentPoly.const(tower, 3)
        # (a + b)(a - b) - (a^2 - b^2) = 0, cross terms cancelling
        assert ((a + b) * (a - b) - (a * a - b * b)).is_zero
        assert (a * LaurentPoly.zero(tower)).is_zero
        assert (LaurentPoly.zero(tower) * a).is_zero
        if tower.laurent_vars:
            t = LaurentPoly.variable(tower, tower.laurent_vars[-1])
            assert ((1 + t) * (1 - t)).terms == (1 - t * t).terms


class TestEntryNormalization:
    """``_norm_coeff`` runs where a coefficient enters a polynomial:
    ``const``, ``monomial``, and so ``coerce`` in the ring operations."""

    @pytest.mark.parametrize("tower", TOWERS, ids=str)
    def test_float_coefficients_raise(self, tower):
        poly = LaurentPoly.const(tower, 1)
        with pytest.raises(TypeError):
            LaurentPoly.const(tower, 1.0)
        with pytest.raises(TypeError):
            LaurentPoly.monomial(tower, 2.5, {v: 1 for v in tower.laurent_vars})
        with pytest.raises(TypeError):
            poly * 2.0
        with pytest.raises(TypeError):
            poly + 0.5

    def test_denominator_vanishing_mod_p_raises(self):
        with pytest.raises(ZeroElement):
            LaurentPoly.const(F13, Fraction(1, 13))
        with pytest.raises(ZeroElement):
            LaurentPoly.monomial(F13ST, Fraction(1, 13), {"s": 1})

    def test_prime_field_constants_are_residues(self):
        assert LaurentPoly.const(F13, 14) == LaurentPoly.const(F13, 1)
        assert LaurentPoly.const(F13, -1).terms == (((), 12),)
        assert LaurentPoly.const(F13, Fraction(1, 2)).terms == (((), 7),)
        assert LaurentPoly.const(F13, 26).is_zero

    def test_rational_constants_are_fractions(self):
        ((_, c),) = LaurentPoly.const(Q, 3).terms
        assert type(c) is Fraction and c == 3

    def test_products_over_qt_keep_fractions(self):
        t = LaurentPoly.variable(QT, "t")
        f = (t + 2) * (t - Fraction(1, 3)) * LaurentPoly.monomial(QT, 5, {"t": -2})
        assert f.terms
        assert all(type(c) is Fraction for _, c in f.terms)
        g = f * f + f
        assert all(type(c) is Fraction for _, c in g.terms)
