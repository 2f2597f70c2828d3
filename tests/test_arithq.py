import itertools
import math
import random
from fractions import Fraction

import pytest

from wittforge.arithq import (
    Place,
    REAL_PLACE,
    global_isotropy,
    global_isotropy_certificate,
    hilbert_symbol,
    is_square_in_qp,
    local_isotropy,
    ramification_set,
    rational_invariants,
    witt_index_rational,
)
from wittforge import arithq, fields, qform
from wittforge.dsl import parse_field, parse_form
from wittforge.errors import FieldMismatch, ZeroArgument
from wittforge.fields import FieldTower, SquareClass, canonical_square_class
from wittforge.oracles import (
    hilbert2_unit_solvable,
    legendre_by_enumeration,
    rational_witness_search,
    unit_form_liftable_mod_p,
    verify_rational_witness,
)
from wittforge.qform import DiagonalForm, pfister, witt_decompose

Q = FieldTower.rationals()
PLACES = [REAL_PLACE, Place(2), Place(3), Place(5), Place(7), Place(13)]
RANGE30 = [n for n in range(-30, 31) if n != 0]


def qcls(c):
    return canonical_square_class(Q, c)


def qform_of(entries):
    return DiagonalForm(Q, tuple(qcls(e) for e in entries))


class TestHilbertSymbol:
    def test_trivial_first_argument(self):
        for b in (2, -3, 7, 30):
            for v in PLACES:
                assert hilbert_symbol(1, b, v) == 1

    def test_minus_one_minus_one(self):
        assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
        # oracle: exhaust z^2 = -x^2 - y^2 mod 8 over primitive triples
        assert hilbert2_unit_solvable(-1, -1) == -1
        assert hilbert_symbol(-1, -1, Place(2)) == -1

    def test_2_3_at_3(self):
        # oracle: 2 is a nonresidue mod 3
        assert legendre_by_enumeration(2, 3) == -1
        assert hilbert_symbol(2, 3, Place(3)) == -1

    def test_symmetry_full_range(self):
        for a, b in itertools.product(RANGE30, repeat=2):
            for v in PLACES:
                assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)

    def test_bimultiplicativity(self):
        small = [n for n in range(-10, 11) if n != 0]
        for v in PLACES:
            for a, b, c in itertools.product(small, small[:10], small[:10]):
                assert hilbert_symbol(a * b, c, v) == hilbert_symbol(
                    a, c, v
                ) * hilbert_symbol(b, c, v)

    def test_a_minus_a(self):
        for a in RANGE30:
            for v in PLACES:
                assert hilbert_symbol(a, -a, v) == 1

    def test_mod8_oracle_cross_check(self):
        odds = [n for n in RANGE30 if n % 2]
        for a, b in itertools.product(odds[::3], odds[::3]):
            assert hilbert_symbol(a, b, Place(2)) == hilbert2_unit_solvable(a, b)

    def test_product_formula(self):
        for a, b in itertools.product(RANGE30, repeat=2):
            prod = hilbert_symbol(a, b, REAL_PLACE)
            support = {2}
            for n in (abs(a), abs(b)):
                d = 2
                while d * d <= n:
                    if n % d == 0:
                        support.add(d)
                        while n % d == 0:
                            n //= d
                    d += 1
                if n > 1:
                    support.add(n)
            for p in support:
                prod *= hilbert_symbol(a, b, Place(p))
            assert prod == 1

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgument):
            hilbert_symbol(0, 1, REAL_PLACE)

    def test_fractions(self):
        assert hilbert_symbol(Fraction(1, 2), Fraction(-3, 5), Place(2)) in (-1, 1)
        assert hilbert_symbol(Fraction(2, 1), 8, Place(2)) == hilbert_symbol(
            2, 2, Place(2)
        )


class TestRamification:
    def test_examples(self):
        assert ramification_set(-1, -1) == frozenset({Place(2), REAL_PLACE})
        assert ramification_set(-1, -2) == frozenset({Place(2), REAL_PLACE})
        assert ramification_set(-1, -3) == frozenset({Place(3), REAL_PLACE})
        assert ramification_set(1, 17) == frozenset()

    def test_even_cardinality(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rng.choice(RANGE30)
            b = rng.choice(RANGE30)
            assert len(ramification_set(a, b)) % 2 == 0


class TestInvariants:
    def test_examples(self):
        inv = rational_invariants(qform_of([1, 1]))
        assert (inv.dim, inv.signature) == (2, (2, 0))
        assert inv.disc.is_one and not inv.hasse_minus

        inv = rational_invariants(qform_of([1, -1]))
        assert inv.disc == qcls(-1) and inv.signature == (1, 1)

        inv = rational_invariants(qform_of([2, -3]))
        assert inv.disc == qcls(-6)
        for v in [REAL_PLACE, Place(2), Place(3)]:
            assert inv.hasse(v) == hilbert_symbol(2, -3, v)

    def test_product_formula_for_hasse(self):
        rng = random.Random(11)
        for _ in range(100):
            entries = [rng.choice(RANGE30) for _ in range(rng.randint(1, 4))]
            inv = rational_invariants(qform_of(entries))
            assert len(inv.hasse_minus) % 2 == 0

    def test_hyperbolic_hasse_matches_symbolic_plane_sum(self):
        # hyperbolic forms of equal dimension share the hasse map of m * <1,-1>
        for m, entries in [
            (1, [2, -2]),
            (2, [1, -1, 3, -3]),
            (2, [5, -5, 7, -7]),
            (3, [1, -1, 2, -2, 15, -15]),
        ]:
            f = qform_of(entries)
            assert witt_index_rational(f).witt_index == m
            reference = qform_of([1, -1] * m)
            assert (
                rational_invariants(f).hasse_minus
                == rational_invariants(reference).hasse_minus
            )


class TestLocalIsotropy:
    def test_definite_at_real(self):
        assert not local_isotropy(qform_of([1, 1, 1, 1]), REAL_PLACE)

    def test_117_at_7(self):
        assert legendre_by_enumeration(-1, 7) == -1  # oracle
        assert not local_isotropy(qform_of([1, 1, -7]), Place(7))

    def test_five_squares_at_3(self):
        # oracle: a nonsingular zero mod 3 lifts by Hensel
        assert unit_form_liftable_mod_p([1, 1, 1, 1, 1], 3)
        assert local_isotropy(qform_of([1, 1, 1, 1, 1]), Place(3))

    def test_isotropic_everywhere_unit_odd_places(self):
        f = qform_of([1, 1, -7])
        for p in (3, 5, 11, 13):
            assert local_isotropy(f, Place(p))

    def test_square_in_qp(self):
        assert is_square_in_qp(Fraction(1, 4), 2)
        assert not is_square_in_qp(2, 2)
        assert is_square_in_qp(17, 2)  # 17 = 1 mod 8
        assert not is_square_in_qp(5, 5)
        assert is_square_in_qp(4, 7)


class TestGlobalIsotropy:
    def test_examples(self):
        assert global_isotropy(qform_of([1, -1]))
        assert global_isotropy(qform_of([1, 1, -2]))
        assert not global_isotropy(qform_of([1, 1, -7]))

    def test_certificate_names_place(self):
        # 1,1,-7 fails at both 2 and 7 (product formula: obstructions pair up)
        f = qform_of([1, 1, -7])
        ok, place = global_isotropy_certificate(f)
        assert not ok and place in (Place(2), Place(7))
        assert not local_isotropy(f, place)
        assert not local_isotropy(f, Place(7))

    def test_sampled_against_witness_search(self):
        rng = random.Random(23)
        for _ in range(150):
            dim = rng.randint(1, 4)
            entries = [rng.choice(RANGE30) for _ in range(dim)]
            f = qform_of(entries)
            raw = [e.base for e in f.entries]
            if global_isotropy(f):
                w = rational_witness_search(raw)
                assert w is not None and verify_rational_witness(raw, w)
            else:
                ok, place = global_isotropy_certificate(f)
                assert not ok and place is not None
                assert not local_isotropy(f, place)


class TestWittIndexRational:
    def test_split(self):
        w = witt_index_rational(qform_of([1, -1, 1, -1]))
        assert (w.witt_index, w.kernel_dim) == (2, 0)

    def test_quaternion_norm_2_3(self):
        # (2,3) ramifies at 3, so <<2,3>> is anisotropic
        assert hilbert_symbol(2, 3, Place(3)) == -1
        f = pfister(Q, (qcls(2), qcls(3)))
        w = witt_index_rational(f)
        assert (w.witt_index, w.kernel_dim) == (0, 4)

    def test_1177(self):
        w = witt_index_rational(qform_of([1, 1, -7, -7]))
        assert (w.witt_index, w.kernel_dim) == (0, 4)
        inv = w.kernel_invariants
        assert inv.dim == 4 and inv.signature == (2, 2)

    def test_odd_dimension(self):
        w = witt_index_rational(qform_of([1, -1, 3]))
        assert (w.witt_index, w.kernel_dim) == (1, 1)

    def test_kernel_invariants_anisotropic(self):
        rng = random.Random(5)
        for _ in range(60):
            dim = rng.randint(1, 5)
            f = qform_of([rng.choice(RANGE30) for _ in range(dim)])
            w = witt_index_rational(f)
            assert 2 * w.witt_index + w.kernel_dim == dim
            if w.kernel_dim:
                inv = w.kernel_invariants
                pos, neg = inv.signature
                assert pos >= 0 and neg >= 0


class TestFormsOverQOnly:
    """The local-global rules read a form's codes as entries over Q, so
    they take forms over Q itself.  <1,-t> over Q((t)) is anisotropic (its
    runs <1> and <-t> are), though <1,-1> over Q is a hyperbolic plane."""

    CALLS = [
        witt_index_rational,
        rational_invariants,
        lambda f: local_isotropy(f, REAL_PLACE),
        global_isotropy_certificate,
        global_isotropy,
    ]

    @pytest.mark.parametrize(
        "field, form", [("Q((t))", "[1,-t]"), ("Q((s))((t))", "[1,-s,t]"), ("F7", "[1,u]"), ("R", "[1,-1]")]
    )
    def test_every_other_tower_raises_field_mismatch(self, field, form):
        f = parse_form(form, parse_field(field))
        for call in self.CALLS:
            with pytest.raises(FieldMismatch):
                call(f)

    def test_q_laurent_form_keeps_its_decomposition(self):
        w = witt_decompose(parse_form("[1,-t]", parse_field("Q((t))")))
        assert (w.witt_index, w.kernel_dim) == (0, 2)

    def test_forms_over_q_answer_as_before(self):
        f = qform_of([1, -1])
        w = witt_index_rational(f)
        assert (w.witt_index, w.kernel_dim, w.kernel) == (1, 0, None)
        assert w == witt_decompose(f) and w.kernel_invariants.dim == 0
        inv = rational_invariants(f)
        assert (inv.dim, inv.disc, inv.hasse_minus, inv.signature) == (2, qcls(-1), frozenset(), (1, 1))
        assert global_isotropy(f) and global_isotropy_certificate(f) == (True, None)
        assert all(local_isotropy(f, v) for v in PLACES)
        g = qform_of([1, 1, -7])
        assert (witt_index_rational(g).witt_index, global_isotropy(g)) == (0, False)
        assert global_isotropy_certificate(g) == (False, Place(2)) and not local_isotropy(g, Place(2))


class TestPlace:
    def test_validation_and_repr(self):
        assert str(REAL_PLACE) == "oo"
        assert str(Place(13)) == "13"
        with pytest.raises(ValueError):
            Place(6)

    def test_proven_primes_leave_composites_rejected(self):
        # 561 = 3 * 11 * 17 is a Carmichael number; 563 is prime
        assert Place(563).p == 563
        with pytest.raises(ValueError):
            Place(561)
        assert Place(563) == Place(563)
        with pytest.raises(ValueError):
            Place(561)


# -- the one-pass invariants against the product over pairs ---------------------


def reference_hilbert(a: int, b: int, p: int) -> int:
    """(a, b)_p of nonzero ints by the formula for one pair (Serre, *A Course
    in Arithmetic*, Ch. III, Thm. 1); p == 0 is the real place."""
    if p == 0:
        return -1 if a < 0 and b < 0 else 1

    def split(n):
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v, n

    (alpha, u), (beta, w) = split(a), split(b)
    if p == 2:
        eps = lambda x: (x % 8 - 1) // 2 % 2
        omega = lambda x: ((x % 8) ** 2 - 1) // 8 % 2
        e = eps(u) * eps(w) + alpha * omega(w) + beta * omega(u)
        return -1 if e % 2 else 1
    leg = lambda x: 1 if pow(x % p, (p - 1) // 2, p) == 1 else -1
    h = 1  # (-1|p)^(alpha beta) (u|p)^beta (w|p)^alpha, factors with exponent 0 skipped
    if alpha % 2 and beta % 2:
        h *= leg(-1)
    if beta % 2:
        h *= leg(u)
    if alpha % 2:
        h *= leg(w)
    return h


def reference_hasse(values, p: int) -> int:
    """The Hasse invariant as its definition: prod over i < j of (a_i, a_j)_p."""
    h = 1
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            h *= reference_hilbert(values[i], values[j], p)
    return h


def reference_invariants(values, primes):
    """(dim, disc, Hasse invariant per place, signature) of the squarefree
    ``values``, with ``primes`` their support and 2, from the definitions:
    the disc is the sign of the product times each prime that divides an
    odd number of the values."""
    sign = (-1) ** sum(1 for x in values if x < 0)
    disc = sign * math.prod(q for q in primes if sum(1 for x in values if x % q == 0) % 2)
    hasse = {p: reference_hasse(values, p) for p in [0] + sorted(primes)}
    pos = sum(1 for x in values if x > 0)
    return len(values), disc, hasse, (pos, len(values) - pos)


def reference_isotropic_at(p, dim, disc, h, signature):
    """Whether a form of dimension ``dim``, discriminant ``disc``, Hasse
    invariant h at p and ``signature`` is isotropic at p: Serre's criterion
    (Ch. IV, Thm. 6) on (dim, d, s) and, at the real place (p == 0),
    indefiniteness."""
    if dim <= 1:
        return False
    if p == 0:
        return signature[0] > 0 and signature[1] > 0

    def local_square(m):
        if m % p == 0:
            return False
        return m % 8 == 1 if p == 2 else pow(m % p, (p - 1) // 2, p) == 1

    if dim == 2:
        return local_square(-disc)
    if dim == 3:
        return reference_hilbert(-1, -disc, p) == h
    if dim == 4:
        return not local_square(disc) or h == reference_hilbert(-1, -1, p)
    return True


def reference_obstruction(dim, disc, hasse, signature):
    """The first place, the real one (0) and then the primes ascending, at
    which the form is anisotropic, or None when it is isotropic."""
    return next(
        (p for p in sorted(hasse) if not reference_isotropic_at(p, dim, disc, hasse[p], signature)),
        None,
    )


def reference_witt_index(dim, disc, hasse, signature):
    """Witt index and kernel invariants by stripping hyperbolic planes off
    the invariants of ``reference_invariants``.

    f = <1,-1> ⊥ f' has dim(f') = dim(f) - 2, d(f') = -d(f) and
    s(f') = s(f) (-1, -d(f)).
    """
    (pos, neg), places = signature, sorted(hasse)
    index = 0
    while dim >= 2 and reference_obstruction(dim, disc, hasse, (pos, neg)) is None:
        hasse = {p: hasse[p] * reference_hilbert(-1, -disc, p) for p in places}
        dim, disc, pos, neg, index = dim - 2, -disc, pos - 1, neg - 1, index + 1
    return index, (dim, disc, {p for p in places if hasse[p] == -1}, (pos, neg))


def _primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for d in range(2, math.isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(range(d * d, n, d)))
    return [q for q in range(n) if sieve[q]]


LARGE_PRIMES = [q for q in _primes_below(10**5) if q > 13]


def seeded_entry(rng):
    """(value, primes): a sign times up to two primes from 2..13, and a
    third of the time times one prime up to 10^5, so that factoring stays
    cheap."""
    ps = rng.sample((2, 3, 5, 7, 11, 13), rng.randint(0, 2))
    if rng.random() < 1 / 3:
        ps.append(rng.choice(LARGE_PRIMES))
    return rng.choice((1, -1)) * math.prod(ps), ps


def seeded_squarefree_forms(seed, count):
    """(values, primes) of ``count`` forms of dimension 1-9, entries by
    ``seeded_entry``; ``primes`` holds 2 and every prime of an entry."""
    rng = random.Random(seed)
    for _ in range(count):
        values, primes = [], {2}
        for _ in range(rng.randint(1, 9)):
            value, ps = seeded_entry(rng)
            values.append(value)
            primes.update(ps)
        yield values, primes


class TestAgainstPairwiseReference:
    def test_hilbert_symbol_matches_pair_formula(self):
        for a, b in itertools.product(RANGE30, repeat=2):
            for v in PLACES:
                assert hilbert_symbol(a, b, v) == reference_hilbert(a, b, v.p)

    def test_invariants_and_witt_index_on_seeded_forms(self):
        outside = (3, 5, 7, 11, 13, 99991)  # off the support the Hasse invariant is 1
        seen = set()
        for values, primes in seeded_squarefree_forms(14, 4000):
            f = DiagonalForm(Q, tuple(SquareClass(Q, x) for x in values))
            inv = rational_invariants(f)
            dim, disc, hasse, signature = reference_invariants(values, primes)
            assert (inv.dim, inv.disc.base, inv.signature) == (dim, disc, signature)
            for p, h in hasse.items():
                assert inv.hasse(Place(p)) == h, (values, p)
            for p in set(outside) - primes:
                assert inv.hasse(Place(p)) == 1 == reference_hasse(values, p), (values, p)
            w = witt_index_rational(f)
            index, (k_dim, k_disc, k_minus, k_signature) = reference_witt_index(
                dim, disc, hasse, signature
            )
            kernel = w.kernel_invariants
            assert (w.witt_index, w.kernel_dim, kernel.dim) == (index, k_dim, k_dim), values
            assert (kernel.disc.base, kernel.signature) == (k_disc, k_signature), values
            assert kernel.hasse_minus == {Place(p) for p in k_minus}, values
            seen.add((dim % 2, min(index, 2), k_dim))
        assert len(seen) >= 10  # odd and even forms, anisotropic to index 2 and more

    @pytest.mark.parametrize("names", [("t",), ("s", "t")], ids=["Q((t))", "Q((s))((t))"])
    def test_kernel_runs_of_laurent_forms(self, names):
        # Springer: each variable mask's entries, bases only, form one run
        # over Q, decomposed on its own
        tower = FieldTower.rationals(*names)
        rng = random.Random(f"kernel-runs:{len(names)}")
        seen = set()
        for _ in range(600):
            runs = {}
            for _ in range(rng.randint(1, 9)):
                (value, ps), mask = seeded_entry(rng), rng.randrange(1 << len(names))
                values, primes = runs.setdefault(mask, ([], {2}))
                values.append(value)
                primes.update(ps)
            f = DiagonalForm(
                tower,
                tuple(SquareClass(tower, x, m) for m, (values, _) in runs.items() for x in values),
            )
            w = witt_decompose(f)
            expected_index, expected_class = 0, []
            for mask in sorted(runs):
                values, primes = runs[mask]
                index, (k_dim, k_disc, k_minus, k_signature) = reference_witt_index(
                    *reference_invariants(values, primes)
                )
                expected_index += index
                if k_dim:
                    expected_class.append((mask, k_dim, k_disc, {Place(p) for p in k_minus}, k_signature))
                seen.add((len(values) % 2, min(index, 2), k_dim))
            got = [
                (mask, inv.dim, inv.disc.base, inv.hasse_minus, inv.signature)
                for mask, inv in w.witt_class
            ]
            assert got == expected_class, f
            assert all(inv.disc.tower == Q for _, inv in w.witt_class)
            assert (w.witt_index, w.kernel_dim) == (expected_index, sum(c[1] for c in got)), f
        assert len(seen) >= 10

    def test_certificate_names_the_first_failing_place(self):
        failing = set()
        for values, primes in seeded_squarefree_forms(15, 1500):
            f = DiagonalForm(Q, tuple(SquareClass(Q, x) for x in values))
            first = reference_obstruction(*reference_invariants(values, primes))
            ok, place = global_isotropy_certificate(f)
            if first is None:
                assert ok and place is None, values
            else:
                assert not ok and place == Place(first), values
                failing.add(first if first < 3 else "odd")
        assert failing == {0, 2, "odd"}  # the real place, 2 and odd primes all come first somewhere


class TestOneLocalDataPass:
    """A Witt decomposition over Q reads its form's codes once and builds
    the kernel's invariants once, at the end: no form is rebuilt from the
    codes, no class is multiplied and no invariants are built per plane."""

    @pytest.mark.parametrize(
        "entries, index",
        [([1, 1, -7, -7], 0), ([1, -1, 3], 1), ([2, -2, 5, -5, 7], 2), ([1, -1, 2, -2, 3, -3], 3)],
    )
    def test_one_invariants_no_form_and_no_product_per_miss(self, monkeypatch, entries, index):
        f = qform_of(entries)
        built = {"invariants": 0, "form": 0, "sq_mul": 0}

        def counting(name, make):
            def counted(*args, **kwargs):
                built[name] += 1
                return make(*args, **kwargs)

            return counted

        monkeypatch.setattr(arithq, "RationalInvariants", counting("invariants", arithq.RationalInvariants))
        for module in (qform, arithq):
            monkeypatch.setattr(module, "DiagonalForm", counting("form", DiagonalForm))
        for module in (fields, qform, arithq):
            monkeypatch.setattr(module, "sq_mul", counting("sq_mul", fields.sq_mul), raising=False)
        qform._witt.cache_clear()
        w = witt_decompose(f)
        assert qform._witt.cache_info().misses == 1
        assert w.witt_index == index
        assert built == {"invariants": 1, "form": 0, "sq_mul": 0}


def scan_local_data(codes):
    """``arithq._local_data`` as a per-place scan: every place reads every
    entry through ``_hasse``, n symbols' worth of work per place."""
    values, primes, size, negative = [], {2}, 1, False
    for _, b, neg in codes:
        values.append(-b if neg else b)
        primes.update(fields.squarefree_decomposition(b)[1])
        g = math.gcd(size, b)
        size, negative = (size // g) * (b // g), negative != neg
    places = [0, *sorted(primes)]
    pos = sum(1 for x in values if x > 0)
    hasse = [arithq._hasse(values, p) for p in places]
    return places, -size if negative else size, hasse, (pos, len(values) - pos)


def scan_witt_codes(codes):
    """(witt_index, kernel dim, d, Hasse list, signature) of the Witt pass
    that strips one plane at a time and twists every place per plane."""
    places, d, hasse, (pos, neg) = scan_local_data(codes)
    dim, index = len(codes), 0
    while dim >= 2 and arithq._obstruction(dim, d, hasse, (pos, neg), places) is None:
        hasse = [h * arithq._hasse((-1, -d), p) for p, h in zip(places, hasse)]
        dim, d, pos, neg, index = dim - 2, -d, pos - 1, neg - 1, index + 1
    return index, dim, d, hasse, (pos, neg)


def seeded_long_forms(seed, count):
    """Forms of dimension 1-48 with entries by ``seeded_entry``, about
    two thirds of the entries of one sign, so that the Witt pass strips
    planes past dimension 4 and stops at either sign running out."""
    rng = random.Random(seed)
    for _ in range(count):
        lean = rng.choice((1, -1))
        values = []
        for _ in range(rng.randint(1, 48)):
            value, _ = seeded_entry(rng)
            values.append(abs(value) * (lean if rng.random() < 2 / 3 else -lean))
        yield values


class TestIncidenceLocalData:
    """The local data read off prime incidences equal the per-place scan."""

    def test_local_data_matches_the_scan(self):
        forms = [values for values, _ in seeded_squarefree_forms(44, 1500)]
        forms += list(seeded_long_forms(45, 300))
        for values in forms:
            codes = qform_of(values).key
            assert arithq._local_data(codes) == scan_local_data(codes), values

    def test_witt_pass_matches_the_plane_by_plane_pass(self):
        seen = set()
        for values in seeded_long_forms(46, 400):
            codes = qform_of(values).key
            index, inv, cls = arithq._witt_codes(Q, codes)
            s_index, s_dim, s_d, s_hasse, s_signature = scan_witt_codes(codes)
            places = scan_local_data(codes)[0]
            minus = {Place(p) for p, h in zip(places, s_hasse) if h < 0}
            assert (index, inv.dim, inv.disc.base) == (s_index, s_dim, s_d), values
            assert (inv.hasse_minus, inv.signature) == (minus, s_signature), values
            assert (cls is None) == (s_dim == 0), values
            seen.add((index % 4, min(s_dim, 5)))
        assert len(seen) >= 16  # every residue of the planes stripped mod 4, kernels of each size

    def test_ramification_set_matches_the_scan_of_the_raw_ints(self):
        # ramification_set passes num * den, which need not be squarefree;
        # _local_data reads each base as its squarefree part, since the
        # incidences see valuations 0 and 1 only
        rng = random.Random(47)
        pairs = [(Fraction(4 * 3, 25), -18), (9, 7), (Fraction(-1, 4), Fraction(8, 27))]
        for _ in range(600):
            a, b = (
                Fraction(
                    rng.choice((1, -1)) * math.prod(seeded_entry(rng)[1]) * rng.randint(1, 6) ** 2,
                    math.prod(seeded_entry(rng)[1]) * rng.randint(1, 4),
                )
                for _ in range(2)
            )
            pairs.append((a, b))
        for a, b in pairs:
            raw = [(0, abs(x), x < 0) for x in (arithq._as_int(a), arithq._as_int(b))]
            places, _, hasse, _ = scan_local_data(raw)
            expected = {Place(p) for p, h in zip(places, hasse) if h < 0}
            assert ramification_set(a, b) == expected, (a, b)
            squarefree = [
                (0, math.prod(primes), sign < 0)
                for sign, primes in map(fields.squarefree_decomposition, (a, b))
            ]
            reduced = scan_local_data(squarefree)
            assert arithq._local_data(squarefree) == reduced, (a, b)
            places, d, hasse, signature = arithq._local_data(raw)
            assert (places, hasse, signature) == (reduced[0], reduced[2], reduced[3]), (a, b)
            assert d == reduced[1], (a, b)

    def test_each_place_reads_only_its_entries(self, monkeypatch):
        # [1, -2, 3, -4, ...]: every prime below n is a place; the symbols
        # read the n entries at 2 and at the real place, and a few pairs
        # per place, not n entries per place
        n = 600
        f = qform_of([k if k % 2 else -k for k in range(1, n + 1)])
        read = []

        def counting(values, p):
            read.append(len(values))
            return hasse(values, p)

        hasse = arithq._hasse
        monkeypatch.setattr(arithq, "_hasse", counting)
        places = arithq._local_data(f.key)[0]
        assert sum(read) == 2 * n
        read.clear()
        qform._witt.cache_clear()
        assert witt_decompose(f).witt_index > 200
        # a few planes' twists per place, and the checks of dimension 4 and below
        assert sum(read) <= 2 * n + 16 * len(places)
