"""Laurent arithmetic: the product kernel against a schoolbook product,
packed exponent keys at and near their limit, and coefficient checks where
a coefficient enters a polynomial."""
import random
from fractions import Fraction
from operator import itemgetter

import pytest

from wittforge import laurent
from wittforge.errors import ExponentOutOfRange, WittforgeError, ZeroElement
from wittforge.fields import CACHE_SIZE, FieldTower, canonical_square_class
from wittforge.laurent import EXP_LIMIT, LaurentPoly, _add_products, _key, _packed, _reduce_raw

Q = FieldTower.rationals()
QT = FieldTower.rationals("t")
RT = FieldTower.reals("t")
F13 = FieldTower.prime(13)
F13ST = FieldTower.prime(13, "s", "t")
F25T = FieldTower("F", 5, ("t",), 2)

F7PQRST = FieldTower.prime(7, "p", "q", "r", "s", "t")

TOWERS = (F13ST, F25T, Q, QT, RT)
VARIABLE_TOWERS = (F13ST, F25T, QT, RT, F7PQRST)


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


def tuple_keyed_reduce(tower, raw):
    """Terms of a raw {exps: coeff} map with tuple keys: coefficients mod p
    over prime bases, zeros dropped, sorted by exponent tuple."""
    if tower.kind == "F":
        terms = [(e, r) for e, c in raw.items() if (r := c % tower.p)]
    else:
        terms = [(e, c) for e, c in raw.items() if c]
    return tuple(sorted(terms, key=itemgetter(0)))


def tuple_keyed_sum(f, g):
    """The terms of f + g by the tuple-keyed reduction."""
    raw = dict(f.terms)
    for e, c in g.terms:
        raw[e] = raw.get(e, 0) + c
    return tuple_keyed_reduce(f.tower, raw)


def random_poly(tower, rng, exponents=(-2, 2)):
    """Up to five terms, exponents in [-2, 2] (or in the range given) so
    that products collide."""
    if tower.kind == "F":
        coeffs = range(1, tower.p)
    else:
        coeffs = (1, -1, 2, -2, Fraction(1, 2), Fraction(-5, 3))
    out = LaurentPoly.zero(tower)
    for _ in range(rng.randint(0, 5)):
        exps = {v: rng.randint(*exponents) for v in tower.laurent_vars}
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

    @pytest.mark.parametrize("tower", (QT, RT, F13ST), ids=str)
    def test_a_zero_factor_gives_zero_with_no_kernel_call(self, tower, monkeypatch):
        rng = random.Random(f"laurent-zero:{tower}")
        xs = [random_poly(tower, rng) for _ in range(20)]

        def forbidden(*args):
            raise AssertionError("a product with a zero factor reached the kernel")

        monkeypatch.setattr(laurent, "_add_products", forbidden)
        monkeypatch.setattr(laurent, "_reduce_raw", forbidden)
        zero = LaurentPoly.zero(tower)
        for x in xs + [zero]:
            assert (x * 0).terms == (0 * x).terms == ()
            assert (x * zero).terms == (zero * x).terms == ()
            assert (x * zero).tower == tower


class TestSmallOperands:
    """Sums and differences with a zero operand are the other operand,
    negation flips coefficients in place, and a difference reduces once."""

    @pytest.mark.parametrize("tower", TOWERS + (F7PQRST,), ids=str)
    def test_zero_operands_and_negation_skip_the_reduction(self, tower, monkeypatch):
        rng = random.Random(f"laurent-small:{tower}")
        fs = [random_poly(tower, rng) for _ in range(40)]
        expected = [(f.terms, tuple_keyed_reduce(tower, {e: -c for e, c in f.terms})) for f in fs]

        def forbidden(*args):
            raise AssertionError("a zero operand or a negation reached the kernel or the reduction")

        monkeypatch.setattr(laurent, "_add_products", forbidden)
        monkeypatch.setattr(laurent, "_reduce_raw", forbidden)
        zero = LaurentPoly.zero(tower)
        for f, (terms, negated) in zip(fs, expected):
            assert all(h.terms == terms for h in (f + zero, zero + f, f - zero, f + 0))
            if f.terms:  # the other operand itself
                assert f + zero is f and zero + f is f and f - zero is f
            assert (-f).terms == (zero - f).terms == (0 - f).terms == negated
            assert (-f).tower == tower and -(-f) == f

    @pytest.mark.parametrize("tower", TOWERS, ids=str)
    def test_a_difference_reduces_once(self, tower, monkeypatch):
        rng = random.Random(f"laurent-sub:{tower}")
        pairs = [(random_poly(tower, rng), random_poly(tower, rng)) for _ in range(60)]
        expected = [tuple_keyed_sum(f, -g) for f, g in pairs]
        calls = []
        reduce_raw = laurent._reduce_raw

        def counted(tower, raws):
            calls.append(len(raws))
            return reduce_raw(tower, raws)

        monkeypatch.setattr(laurent, "_reduce_raw", counted)
        for (f, g), terms in zip(pairs, expected):
            del calls[:]
            assert (f - g).terms == terms, (f, g)
            assert calls == ([1] if f.terms and g.terms else [])


class TestPackedKeys:
    """Exponent vectors are packed into one int each inside ``laurent``;
    ``terms`` keep their tuples, and every result is what tuple arithmetic
    gives."""

    @pytest.mark.parametrize("tower", VARIABLE_TOWERS, ids=str)
    def test_products_next_to_the_limit_match_schoolbook(self, tower):
        top = EXP_LIMIT - 1
        rng = random.Random(f"laurent-limit:{tower}")
        for _ in range(100):
            f, g = (random_poly(tower, rng, (-top, top)) for _ in range(2))
            edge = {v: rng.choice((-top, top)) for v in tower.laurent_vars}
            f = f + LaurentPoly.monomial(tower, 3, edge)
            expected = schoolbook(tower, dict(f.terms), dict(g.terms))
            assert (f * g).terms == tuple(sorted(expected.items())), (f, g)
        # three keys at +-(limit - 1) in one kernel call: x_i * y_j * gamma_ij
        for signs in ((1, 1, 1), (-1, -1, -1), (1, -1, 1)):
            x, y, z = (
                LaurentPoly.monomial(tower, 2, {v: s * top for v in tower.laurent_vars})
                + LaurentPoly.monomial(tower, Fraction(1, 3) if tower.kind != "F" else 5)
                for s in signs
            )
            (e, c) = z.terms[-1] if signs[2] > 0 else z.terms[0]
            raws = [{}]
            _add_products(raws, _packed((x,)), _packed((y,)), (((_key(e), c),),))
            xy = schoolbook(tower, dict(x.terms), dict(y.terms))
            expected = schoolbook(tower, xy, {e: c})
            (got,) = (f.terms for f in _reduce_raw(tower, raws))
            assert got == tuple(sorted(expected.items())), signs
            if len(set(signs)) == 1:
                assert max(abs(d) for exps, _ in got for d in exps) == 3 * top

    @pytest.mark.parametrize("tower", VARIABLE_TOWERS, ids=str)
    def test_the_limit_raises_a_named_error(self, tower):
        one = LaurentPoly.const(tower, 1)
        zero = LaurentPoly.zero(tower)  # a zero factor still packs the other
        for e in (EXP_LIMIT, -EXP_LIMIT, 10**12):
            for v in tower.laurent_vars:
                m = LaurentPoly.monomial(tower, 3, {v: e})  # built, not yet packed
                for op in (lambda: m * one, lambda: one * m, lambda: m * m,
                           lambda: m * zero, lambda: zero * m,
                           lambda: m + one, lambda: one - m, lambda: -m,
                           lambda: m + zero, lambda: zero + m, lambda: m + 0,
                           lambda: m - zero, lambda: zero - m, lambda: 0 - m):
                    with pytest.raises(ExponentOutOfRange, match=str(EXP_LIMIT)):
                        op()
        assert issubclass(ExponentOutOfRange, WittforgeError)

    def test_towers_whose_tuples_pack_to_one_int(self):
        # (), (0,), (0, 0) all have key 0, and (1,), (0, 1), (0, 0, 0, 0, 1)
        # key 1: each arity reads its keys back through its own memo
        towers = (F13, FieldTower.prime(13, "t"), F13ST, F7PQRST)
        assert {_key((0,) * n) for n in range(6)} == {0}
        assert {_key((0,) * n + (1,)) for n in range(5)} == {1}
        rng = random.Random("laurent-arities")
        for _ in range(50):
            for tower in rng.sample(towers, len(towers)):
                n = len(tower.laurent_vars)
                t = LaurentPoly.monomial(tower, 2, {tower.laurent_vars[-1]: 1} if n else {})
                f = t + rng.randint(1, 6)
                square = schoolbook(tower, dict(f.terms), dict(f.terms))
                assert (f * f).terms == tuple(sorted(square.items()))
                assert (f + t).terms == tuple_keyed_sum(f, t)
                assert all(len(e) == n for e, _ in (f * f + t).terms)

    @pytest.mark.parametrize("tower", TOWERS, ids=str)
    def test_the_zero_vector_has_the_falsy_key_zero(self, tower):
        zero = (0,) * len(tower.laurent_vars)
        assert _key(zero) == 0 and not _key(zero)
        a, b = LaurentPoly.const(tower, 3), LaurentPoly.const(tower, 4)
        assert (a * b).terms == ((zero, 12 % tower.p if tower.kind == "F" else 12),)
        assert (a + b).terms[0][0] == zero and (a - a).is_zero
        if tower.laurent_vars:
            v = LaurentPoly.variable(tower, tower.laurent_vars[0])
            w = LaurentPoly.variable(tower, tower.laurent_vars[0], -1)
            # t * t^-1 lands on key 0, beside the key of t^2
            assert (v * (w + v)).terms == ((zero, 1), ((2,) + zero[1:], 1))

    @pytest.mark.parametrize("tower", (Q, QT, RT), ids=str)
    def test_fraction_coefficients_stay_fractions(self, tower):
        rng = random.Random(f"laurent-fractions:{tower}")
        for _ in range(100):
            f, g = random_poly(tower, rng), random_poly(tower, rng)
            product = schoolbook(tower, dict(f.terms), dict(g.terms))
            assert (f * g).terms == tuple(sorted(product.items()))
            assert (f + g).terms == tuple_keyed_sum(f, g)
            for h in (f * g, f + g, -f):
                assert all(type(c) is Fraction for _, c in h.terms)

    @pytest.mark.parametrize("tower", TOWERS + (F7PQRST,), ids=str)
    def test_add_and_neg_match_the_tuple_keyed_reduction(self, tower):
        rng = random.Random(f"laurent-add-neg:{tower}")
        for _ in range(200):
            f, g = random_poly(tower, rng), random_poly(tower, rng)
            assert (f + g).terms == tuple_keyed_sum(f, g), (f, g)
            assert (-f).terms == tuple_keyed_reduce(tower, {e: -c for e, c in f.terms}), f
            assert (f - f).is_zero

    def test_memos_stay_bounded(self):
        tower = FieldTower.prime(13, "t")
        t = LaurentPoly.variable(tower, "t")
        for e in range(-CACHE_SIZE, CACHE_SIZE + 10):
            m = LaurentPoly.variable(tower, "t", e)
            assert (m * t).terms == (((e + 1,), 1),)
        assert len(laurent._KEYS) <= CACHE_SIZE
        assert all(len(memo) <= CACHE_SIZE for memo in laurent._EXPS.values())


class TestEntryNormalization:
    """``fields._norm_coeff`` runs where a coefficient enters a polynomial:
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
        # the message names the number, as square classes of constants do
        message = "denominator of 1/13 vanishes in F_13"
        with pytest.raises(ZeroElement, match=message):
            LaurentPoly.const(F13, Fraction(1, 13))
        with pytest.raises(ZeroElement, match=message):
            LaurentPoly.monomial(F13ST, Fraction(1, 13), {"s": 1})
        with pytest.raises(ZeroElement, match=message):
            canonical_square_class(F13, Fraction(1, 13))

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
