import ast
import dataclasses
import importlib
import inspect
import itertools
import math
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge.errors import (
    DeltaIsSquare,
    FactorBoundExceeded,
    FieldMismatch,
    InfiniteSquareClassGroup,
    InvalidFactorBound,
    NotLaurent,
    PrimalityBoundExceeded,
    UnknownVariable,
    UnsupportedDelta,
    ZeroElement,
)
import wittforge
from wittforge.fields import (
    DEFAULT_FACTOR_BOUND,
    FieldTower,
    PRIMALITY_BOUND,
    SquareClass,
    canonical_square_class,
    class_of_code,
    enumerate_square_classes,
    factor_bound,
    is_prime,
    lift_class,
    minus_one_class,
    nonresidue_class,
    one_class,
    residue_split,
    sq_mul,
    sqrt_mod,
    squarefree_decomposition,
    var_class,
    _parse_factor_bound,
)
from wittforge.oracles import extend_quadratic

Q = FieldTower.rationals()
F5 = FieldTower.prime(5)
F5T = FieldTower.prime(5, "t")
F13ST = FieldTower.prime(13, "s", "t")
RTS = FieldTower.reals("t", "s")

DESK = [F5T, F13ST, RTS]


class TestCanonical:
    def test_rational_squarefree(self):
        assert canonical_square_class(Q, 18).base == 2  # 18 = 2 * 3^2
        assert canonical_square_class(Q, -12).base == -3
        assert canonical_square_class(Q, Fraction(1, 2)).base == 2
        assert str(canonical_square_class(Q, -6)) == "-6"

    def test_each_class_is_formatted_once(self):
        # a second pass returns the first pass's strings: it builds none
        tower = FieldTower.prime(7, "p", "q", "r", "s", "t")
        classes = enumerate_square_classes(tower)
        assert len(classes) == 64
        first = [str(c) for c in classes]
        assert "u*p*q*r*s*t" in first
        assert all(str(c) is text and repr(c) is text for c, text in zip(classes, first))
        # the stored string is no field: equality and hashing are as before
        fresh = [SquareClass(tower, c.base, c.mask) for c in classes]
        assert fresh == classes and list(map(hash, fresh)) == list(map(hash, classes))

    def test_prime_nonresidue_by_enumeration(self):
        # oracle: the squares mod 5 are exactly {1, 4}
        squares = {x * x % 5 for x in range(1, 5)}
        assert squares == {1, 4}
        assert 3 not in squares
        assert canonical_square_class(F5, 3) == nonresidue_class(F5)
        assert F5.nonresidue == 2  # least nonresidue

    def test_laurent_monomial(self):
        # 4 t^3 = (2 t)^2 * t
        assert canonical_square_class(F5T, 4, {"t": 3}) == var_class(F5T, "t")

    def test_real_signs(self):
        assert canonical_square_class(RTS, Fraction(-7, 3)).base == -1
        assert canonical_square_class(RTS, 9).is_one

    def test_zero_and_unknown(self):
        with pytest.raises(ZeroElement):
            canonical_square_class(Q, 0)
        with pytest.raises(UnknownVariable):
            canonical_square_class(F5T, 1, {"x": 1})
        with pytest.raises(ZeroElement):
            canonical_square_class(F5, 10)  # vanishes mod 5

    def test_factor_bound(self, monkeypatch):
        monkeypatch.setenv("WITTFORGE_FACTOR_BOUND", "10")
        with pytest.raises(FactorBoundExceeded):
            canonical_square_class(Q, 101 * 103)
        # perfect square cofactor is still fine
        assert canonical_square_class(Q, 101 * 101).is_one
        # no divisor up to sqrt(101) = 10.05: a prime, whatever the bound
        assert canonical_square_class(Q, -2 * 101).base == -202

    def test_factor_bound_change_applies_mid_process(self, monkeypatch):
        monkeypatch.setenv("WITTFORGE_FACTOR_BOUND", "10")
        with pytest.raises(FactorBoundExceeded):
            squarefree_decomposition(101 * 103)
        monkeypatch.setenv("WITTFORGE_FACTOR_BOUND", "101")
        assert factor_bound() == 101
        assert squarefree_decomposition(101 * 103) == (1, (101, 103))
        monkeypatch.setenv("WITTFORGE_FACTOR_BOUND", "10")
        with pytest.raises(FactorBoundExceeded):
            squarefree_decomposition(101 * 103)
        monkeypatch.delenv("WITTFORGE_FACTOR_BOUND")
        assert factor_bound() == DEFAULT_FACTOR_BOUND

    def test_each_factor_bound_value_is_parsed_once(self, monkeypatch):
        monkeypatch.setenv("WITTFORGE_FACTOR_BOUND", "1234567")
        misses = _parse_factor_bound.cache_info().misses
        assert [factor_bound() for _ in range(3)] == [1234567] * 3
        assert _parse_factor_bound.cache_info().misses <= misses + 1

    @pytest.mark.parametrize("bound", ["abc", "-1", " ", "1e6"])
    def test_malformed_factor_bound_raises_on_every_call(self, monkeypatch, bound):
        monkeypatch.setenv("WITTFORGE_FACTOR_BOUND", bound)
        for _ in range(3):
            with pytest.raises(InvalidFactorBound):
                factor_bound()
            with pytest.raises(InvalidFactorBound):
                squarefree_decomposition(30)

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() converts strings of any length here",
    )
    def test_factor_bound_longer_than_int_converts_is_invalid(self, monkeypatch):
        monkeypatch.setenv("WITTFORGE_FACTOR_BOUND", "1" * (sys.get_int_max_str_digits() + 1))
        with pytest.raises(InvalidFactorBound):
            factor_bound()

    @given(
        c=st.integers(min_value=-10**5, max_value=10**5).filter(lambda n: n != 0),
        es=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    @settings(max_examples=150, deadline=None)
    def test_idempotent_on_random_monomials(self, c, es):
        tower = FieldTower.rationals("x", "y")
        cls = canonical_square_class(tower, c, {"x": es[0], "y": es[1]})
        again = canonical_square_class(
            tower, cls.base, {v: 1 for v in cls.odd_vars}
        )
        assert again == cls


class TestGroupLaw:
    def test_examples(self):
        two = canonical_square_class(Q, 2)
        assert sq_mul(two, two).is_one
        m2, three = canonical_square_class(Q, -2), canonical_square_class(Q, 3)
        assert sq_mul(m2, three) == canonical_square_class(Q, -6)
        u = nonresidue_class(F5T)
        ut = sq_mul(u, var_class(F5T, "t"))
        assert sq_mul(u, ut) == var_class(F5T, "t")

    def test_field_mismatch(self):
        with pytest.raises(FieldMismatch):
            sq_mul(one_class(Q), one_class(F5))

    def test_towers_compared_by_value_not_identity(self):
        # distinct but equal tower objects multiply; towers that differ in
        # one field only (variable order, degree) still raise
        twin = FieldTower.prime(13, "s", "t")
        assert twin is not F13ST and twin == F13ST
        s, t = var_class(F13ST, "s"), SquareClass(twin, 1, 0b10)
        assert sq_mul(s, t) == SquareClass(F13ST, 1, 0b11)
        for other in (FieldTower.prime(13, "t", "s"), FieldTower("F", 13, ("s", "t"), 2)):
            assert other is not F13ST and other != F13ST
            with pytest.raises(FieldMismatch):
                sq_mul(s, SquareClass(other, 1, 0b10))

    @pytest.mark.parametrize("tower", DESK, ids=str)
    def test_elementary_abelian_two_group(self, tower):
        classes = enumerate_square_classes(tower)
        assert len(classes) == 2 ** (1 + len(tower.laurent_vars))
        assert len(set(classes)) == len(classes)
        for x in classes:
            assert sq_mul(x, x).is_one
            for y in classes:
                assert sq_mul(x, y) in classes
                assert sq_mul(x, y) == sq_mul(y, x)

    @pytest.mark.parametrize("tower", DESK, ids=str)
    def test_natural_order_is_enumeration_order(self, tower):
        classes = enumerate_square_classes(tower)
        assert sorted(reversed(classes)) == classes
        assert [c.mask for c in classes[::2]] == list(range(2 ** len(tower.laurent_vars)))

    @pytest.mark.parametrize("tower", DESK + [FieldTower("F", 5, ("t",), 2)], ids=str)
    def test_codes_are_class_numbers_and_multiply_by_xor(self, tower):
        classes = enumerate_square_classes(tower)
        assert [c.code for c in classes] == list(range(len(classes)))
        for x in classes:
            assert class_of_code(tower, x.code) == x
            for y in classes:
                # reference: the squarefree part of the product of the bases
                sign, primes = squarefree_decomposition(x.base * y.base)
                expected = SquareClass(tower, math.prod(primes, start=sign), x.mask ^ y.mask)
                assert sq_mul(x, y) == expected

    @pytest.mark.parametrize("tower", [Q, FieldTower.rationals("s", "t")], ids=str)
    def test_rational_products_match_the_squarefree_reference(self, tower):
        values = [1, -1, 2, -2, 3, -6, 10, -15, 30, 77, -105, 2 * 3 * 5 * 7 * 11]
        masks = range(2 ** len(tower.laurent_vars))
        classes = [SquareClass(tower, v, m) for v in values for m in masks]
        for x in classes:
            for y in classes:
                # reference: the squarefree part of the product of the bases
                sign, primes = squarefree_decomposition(x.base * y.base)
                expected = SquareClass(tower, math.prod(primes, start=sign), x.mask ^ y.mask)
                assert sq_mul(x, y) == expected
                assert sq_mul(x, y).code == expected.code

    def test_tower_equality(self):
        # identity first, then the fields; other types are not towers
        assert F13ST == F13ST and F13ST == FieldTower.prime(13, "s", "t")
        assert F13ST != FieldTower.prime(13, "t", "s")
        assert F13ST != FieldTower("F", 13, ("s", "t"), 2)
        assert F13ST.__eq__("F13((s))((t))") is NotImplemented
        assert F13ST != "F13((s))((t))"
        assert hash(F13ST) == hash(FieldTower.prime(13, "s", "t"))

    def test_rational_codes(self):
        for value in (1, -1, 2, -6, 15, -15):
            c = canonical_square_class(FieldTower.rationals("t"), value, {"t": 1})
            assert c.code == (1, abs(c.base), c.base < 0)
            assert class_of_code(c.tower, c.code) == c

    def test_rational_order(self):
        values = [3, -1, 2, 1, -2, -3]
        got = sorted(canonical_square_class(Q, v) for v in values)
        assert [c.base for c in got] == [1, -1, 2, -2, 3, -3]

    def test_mask_outside_tower_rejected(self):
        assert SquareClass(F5T, 1, 1) == var_class(F5T, "t")
        for mask in (2, -1):
            with pytest.raises(UnknownVariable):
                SquareClass(F5T, 1, mask)
        with pytest.raises(ValueError):
            SquareClass(F5T, 3, 0)  # 3 is a nonresidue mod 5, but u = 2

    def test_enumeration_order_and_examples(self):
        assert [str(c) for c in enumerate_square_classes(F5)] == ["1", "u"]
        assert [str(c) for c in enumerate_square_classes(F13ST)] == [
            "1", "u", "s", "u*s", "t", "u*t", "s*t", "u*s*t",
        ]
        with pytest.raises(InfiniteSquareClassGroup):
            enumerate_square_classes(Q)

    def test_classes_are_distinct_no_monomial_square_hits_them(self):
        # truncated square search: a square of a several-term series has
        # distinct extreme terms, so only monomial squares could land on a
        # monomial class; exhaust those.
        for tower in (F5T, F13ST):
            p = tower.p
            nonsquares = [c for c in enumerate_square_classes(tower) if not c.is_one]
            square_classes = set()
            for c in range(1, p):
                for exps in itertools.product(range(-2, 3), repeat=len(tower.laurent_vars)):
                    mono = canonical_square_class(
                        tower,
                        c * c % p,
                        {v: 2 * e for v, e in zip(tower.laurent_vars, exps)},
                    )
                    square_classes.add(mono)
            assert square_classes == {one_class(tower)}
            assert all(ns not in square_classes for ns in nonsquares)


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestPrimality:
    def test_agrees_with_trial_division(self):
        for n in range(-3, 10**5):
            assert is_prime(n) == _trial_division_is_prime(n), n

    def test_strong_pseudoprimes_are_composite(self):
        # strong pseudoprimes to the bases 2, 3, 5, 7 and to 2, ..., 31
        assert not is_prime(3215031751)
        assert not is_prime(3825123056546413051)

    def test_mersenne_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(2**31 - 1)
        assert not is_prime(2**67 - 1)  # 193707721 * 761838257287

    def test_past_the_proven_bound(self):
        # 2^89 - 1 is prime, but no fixed set of bases is proven that far
        with pytest.raises(PrimalityBoundExceeded):
            is_prime(2**89 - 1)
        assert 2**89 - 1 > PRIMALITY_BOUND
        # a factor among the bases decides at any size
        assert not is_prime(3 * (2**89 - 1))
        assert not is_prime(2**200)

    def test_answers_are_kept_and_raises_are_not(self):
        # each answer is proven once; a raise is raised again on every call
        for _ in range(2):
            with pytest.raises(PrimalityBoundExceeded):
                is_prime(2**89 - 1)
        assert is_prime(2**61 - 1) and is_prime(2**61 - 1)
        assert not is_prime(561) and not is_prime(561)
        hits = is_prime.cache_info().hits
        assert is_prime(2**61 - 1) and is_prime.cache_info().hits == hits + 1
        assert FieldTower.prime(2**61 - 1).p == 2**61 - 1
        for q in (561, 2**67 - 1):
            with pytest.raises(ValueError):
                FieldTower.prime(q)


class TestSqrtMod:
    @staticmethod
    def check(a, p, r):
        if r is None:
            assert pow(a, (p - 1) // 2, p) == p - 1  # Euler: a nonresidue
        else:
            assert r * r % p == a % p and 0 <= r <= p - r

    def test_every_residue_below_500_against_enumeration(self):
        for p in (q for q in range(2, 500) if is_prime(q)):
            least = {}
            for r in range(p):
                least.setdefault(r * r % p, r)
            for a in range(p):
                r = sqrt_mod(a, p)
                assert r == least.get(a), (a, p)
                self.check(a, p, r)

    def test_large_primes(self):
        # 2^61 - 1 is 3 mod 4 (one step); 1000003 - 1 has 2-adic valuation 1
        # too, so 998244353 = 119 * 2^23 + 1 exercises the Tonelli-Shanks loop
        for p in (1000003, 2**61 - 1, 998244353):
            for a in list(range(1, 300)) + [p - 1, p - 2, 2**40 % p]:
                self.check(a, p, sqrt_mod(a, p))
            assert sqrt_mod(0, p) == 0
            assert sqrt_mod(4, p) == 2


class TestResidueSplit:
    def test_examples(self):
        u = nonresidue_class(F5T)
        x = sq_mul(u, var_class(F5T, "t"))
        assert residue_split(F5T, x) == (1, nonresidue_class(F5))
        four = canonical_square_class(F5T, 4)
        assert residue_split(F5T, four) == (0, one_class(F5))
        with pytest.raises(NotLaurent):
            residue_split(Q, one_class(Q))

    @pytest.mark.parametrize("tower", DESK, ids=str)
    def test_bijection_and_roundtrip(self, tower):
        inner = tower.inner()
        seen = set()
        t = var_class(tower, tower.outer_var)
        for x in enumerate_square_classes(tower):
            parity, unit = residue_split(tower, x)
            seen.add((parity, unit))
            back = lift_class(unit, tower)
            if parity:
                back = sq_mul(back, t)
            assert back == x
        assert len(seen) == 2 * len(enumerate_square_classes(inner))


class TestExtendQuadratic:
    def test_unramified(self):
        tower, transfer = extend_quadratic(F5, nonresidue_class(F5))
        assert str(tower) == "F25"
        assert transfer(nonresidue_class(F5)).is_one

    def test_ramified_t(self):
        t = var_class(F5T, "t")
        tower, transfer = extend_quadratic(F5T, t)
        assert str(tower) == "F5((r))"
        assert transfer(t).is_one
        assert not transfer(nonresidue_class(F5T)).is_one

    def test_ramified_ut(self):
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        tower, transfer = extend_quadratic(F5T, sq_mul(u, t))
        got = transfer(t)
        assert got.base == tower.nonresidue and not got.odd_vars

    def test_substitution_oracle(self):
        # delta = t: substitute t = r^2; delta = u t: substitute t = r^2 / u.
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        for delta, tpow_base in ((t, 1), (sq_mul(u, t), F5T.nonresidue)):
            upstairs, transfer = extend_quadratic(F5T, delta)
            for x in enumerate_square_classes(F5T):
                e = 1 if "t" in x.odd_vars else 0
                subst = canonical_square_class(
                    upstairs,
                    x.base * pow(tpow_base, e, 5),
                    {upstairs.outer_var: 2 * e},
                )
                assert subst == transfer(x)

    def test_homomorphism_kernel(self):
        supported = {
            F5T: enumerate_square_classes(F5T)[1:],  # u, t, ut
            F13ST: [
                nonresidue_class(F13ST),
                var_class(F13ST, "t"),
                sq_mul(nonresidue_class(F13ST), var_class(F13ST, "t")),
            ],
        }
        for tower, deltas in supported.items():
            classes = enumerate_square_classes(tower)
            for delta in deltas:
                _, transfer = extend_quadratic(tower, delta)
                kernel = {x for x in classes if transfer(x).is_one}
                assert kernel == {one_class(tower), delta}
                for x in classes:
                    for y in classes:
                        assert transfer(sq_mul(x, y)) == sq_mul(
                            transfer(x), transfer(y)
                        )

    def test_errors(self):
        with pytest.raises(DeltaIsSquare):
            extend_quadratic(F5T, one_class(F5T))
        with pytest.raises(UnsupportedDelta):
            extend_quadratic(F13ST, var_class(F13ST, "s"))  # inner variable
        with pytest.raises(UnsupportedDelta):
            extend_quadratic(
                F13ST,
                sq_mul(var_class(F13ST, "s"), var_class(F13ST, "t")),
            )
        with pytest.raises(UnsupportedDelta):
            extend_quadratic(RTS, minus_one_class(RTS))  # base not prime


class TestTowerBasics:
    def test_descriptor_strings(self):
        assert str(F13ST) == "F13((s))((t))"
        assert str(RTS) == "R((t))((s))"
        assert str(Q) == "Q"

    def test_char2_and_bad_bases_rejected(self):
        with pytest.raises(ValueError):
            FieldTower.prime(2)
        with pytest.raises(ValueError):
            FieldTower.prime(9)
        with pytest.raises(ValueError):
            FieldTower.prime(5, "t", "t")

    def test_subtowers_built_once(self):
        for tower in (F13ST, RTS, FieldTower("F", 5, ("t",), 2), FieldTower.rationals("t")):
            assert tower.inner() is tower.inner()
            assert tower.base_field() is tower.base_field()
            assert tower.inner() == FieldTower(
                tower.kind, tower.p, tower.laurent_vars[:-1], tower.degree
            )
        assert F13ST.inner().inner() is F13ST.base_field()

    def test_hash_agrees_with_equality(self):
        towers = [
            FieldTower.prime(13, "s", "t"),
            FieldTower.prime(13, "s", "t"),
            F13ST,
            FieldTower.prime(13, "t", "s"),
            FieldTower("F", 13, ("s", "t"), 2),
            FieldTower.prime(13, "s", "t").inner(),
            FieldTower.prime(13, "s"),
            FieldTower.reals("s", "t"),
            FieldTower.rationals("s", "t"),
        ]
        for a, b in itertools.product(towers, repeat=2):
            if a == b:
                assert hash(a) == hash(b)
        assert len(set(towers)) == 6
        assert {FieldTower.prime(13, "s", "t"): 1}[F13ST] == 1

    def test_pickled_tower_rehashes_in_another_process(self):
        # string hashes differ between processes, so the cached hash must not travel
        src = Path(wittforge.__file__).resolve().parents[1]
        head = "from wittforge.fields import FieldTower as T; import pickle, sys; t = T.prime(13, 's', 't'); "

        def run(seed, code, stdin=None):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
            return subprocess.run(
                [sys.executable, "-c", head + code],
                input=stdin, capture_output=True, env=env, timeout=60,
            )

        dumped = run("1", "sys.stdout.buffer.write(pickle.dumps(t))").stdout
        loaded = run("2", "print({t: 'found'}[pickle.loads(sys.stdin.buffer.read())])", dumped)
        assert (loaded.returncode, loaded.stdout) == (0, b"found\n")

    def test_class_hash_agrees_with_equality(self):
        # classes over equal but distinct towers are equal, so their hashes
        # agree; the hash is kept on the first call and read back after
        twin = FieldTower.prime(13, "s", "t")
        assert twin is not F13ST
        classes = enumerate_square_classes(F13ST) + enumerate_square_classes(twin)
        classes += [SquareClass(twin, 2, 3), var_class(RTS, "t"), one_class(Q)]
        for x in classes:
            assert hash(x) == hash(x) == vars(x)["_hash"]
        for a, b in itertools.product(classes, repeat=2):
            if a == b:
                assert hash(a) == hash(b)
        assert len(set(classes)) == 8 + 1 + 1
        assert {SquareClass(twin, 2, 3): 1}[class_of_code(F13ST, 7)] == 1
        for x in classes:
            assert pickle.loads(pickle.dumps(x)) == x

    def test_pickled_class_rehashes_in_another_process(self):
        # the kept hash, like the tower's, must not travel
        src = Path(wittforge.__file__).resolve().parents[1]
        head = (
            "from wittforge.fields import FieldTower as T, var_class; import pickle, sys; "
            "x = var_class(T.prime(13, 's', 't'), 't'); "
        )

        def run(seed, code, stdin=None):
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
            return subprocess.run(
                [sys.executable, "-c", head + code],
                input=stdin, capture_output=True, env=env, timeout=60,
            )

        dumped = run("1", "hash(x); sys.stdout.buffer.write(pickle.dumps(x))").stdout
        loaded = run("2", "print({x: 'found'}[pickle.loads(sys.stdin.buffer.read())])", dumped)
        assert (loaded.returncode, loaded.stdout) == (0, b"found\n")


def package_caches():
    """Every memoized function of the package, module level or in a class."""
    for info in pkgutil.iter_modules(wittforge.__path__):
        module = importlib.import_module(f"wittforge.{info.name}")
        scopes = [vars(module)] + [
            vars(obj)
            for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
        for scope in scopes:
            for name, obj in scope.items():
                fn = getattr(obj, "__func__", obj)
                if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                    yield f"{module.__name__}.{name}", fn


class TestValueClasses:
    def test_value_classes_generate_no_code_at_import(self):
        """The dataclass decorator compiles source text for each method it
        generates (init, repr, eq, order, frozen), at import, in every
        fresh process: the package's dataclasses only register their
        fields, and ``fields.Value`` gives what those methods did."""
        classes = []
        for info in pkgutil.iter_modules(wittforge.__path__):
            module = importlib.import_module(f"wittforge.{info.name}")
            classes += [
                obj
                for obj in vars(module).values()
                if isinstance(obj, type) and obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj)
            ]
        assert len(classes) == 19
        for cls in classes:
            params = cls.__dataclass_params__
            asked = [p for p in ("init", "repr", "eq", "order", "frozen") if getattr(params, p)]
            assert asked == [], f"{cls.__name__} asks the decorator for {asked}"
            assert issubclass(cls, wittforge.fields.Value), cls.__name__


class TestLayering:
    def test_only_cli_and_tests_import_oracles(self):
        """No library answer rests on a search or a reference model: among
        the package's modules only ``cli`` (behind ``--oracle``) imports
        ``oracles``."""
        package = Path(wittforge.__file__).parent
        importers = set()
        for path in package.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    module = "." * node.level + (node.module or "")
                    names = {a.name for a in node.names}
                    if module in (".oracles", "wittforge.oracles") or (
                        module in (".", "wittforge") and "oracles" in names
                    ):
                        importers.add(path.stem)
                elif isinstance(node, ast.Import):
                    if any(a.name == "wittforge.oracles" for a in node.names):
                        importers.add(path.stem)
        assert importers <= {"cli", "oracles"} and "cli" in importers


class TestCaches:
    def test_every_cache_is_bounded(self):
        caches = dict(package_caches())
        assert len(caches) >= 7
        for name, fn in caches.items():
            maxsize = fn.cache_info().maxsize
            if not inspect.signature(fn).parameters:
                # a function of no arguments has exactly one entry to keep
                assert maxsize == 1, name
            else:
                assert maxsize is not None and maxsize >= 4096, name
