import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge.errors import (
    Degenerate,
    DeltaIsSquare,
    FieldMismatch,
    NoSplit,
    NotSymmetric,
    WitnessUnsupported,
    ZeroScale,
)
from wittforge.fields import (
    FieldTower,
    SquareClass,
    canonical_square_class,
    enumerate_square_classes,
    lift_class,
    minus_one_class,
    nonresidue_class,
    one_class,
    residue_split,
    sq_mul,
    var_class,
)
from wittforge.arithq import rational_invariants, witt_index_rational
from wittforge.dsl import parse_field, parse_form
from wittforge.laurent import LaurentPoly
from wittforge.oracles import (
    base_change,
    constant_witness_search,
    rational_witness_search,
    truncated_witness_search,
    verify_rational_witness,
)
from wittforge import oracles, qform
from wittforge.qform import (
    DiagonalForm,
    WittDecomposition,
    diagonalize,
    is_hyperbolic,
    is_isometric,
    is_isotropic,
    isotropic_vector,
    negate,
    orthogonal_sum,
    pfister,
    pfister_slot_witness,
    quadratic_splitting_classes,
    scale,
    splits_over_quadratic,
    tensor,
    witt_class,
    witt_decompose,
)

Q = FieldTower.rationals()
F5 = FieldTower.prime(5)
F5T = FieldTower.prime(5, "t")
F13ST = FieldTower.prime(13, "s", "t")
RTS = FieldTower.reals("t", "s")


def cls(tower, c, exps=None):
    return canonical_square_class(tower, c, exps)


def generators(tower):
    if tower.kind == "F":
        base = [nonresidue_class(tower)]
    else:
        base = [minus_one_class(tower)]
    return base + [var_class(tower, v) for v in tower.laurent_vars]


def pure_part(f):
    """The complement of the leading <1> in a Pfister form."""
    return DiagonalForm(f.tower, f.entries[1:])


def reference_splits(f, delta):
    """The form-based rule: a Pfister form f splits over sqrt(delta)
    when it is isotropic (so hyperbolic) or its pure part + <delta> is."""
    probe = orthogonal_sum(pure_part(f), DiagonalForm(f.tower, (delta,)))
    return is_isotropic(f) or is_isotropic(probe)


class TestDiagonalize:
    def test_hyperbolic_plane(self):
        f = diagonalize(Q, [[0, 1], [1, 0]])
        assert is_hyperbolic(f)
        assert is_isometric(f, DiagonalForm(Q, (one_class(Q), cls(Q, -1))))

    def test_identity(self):
        f = diagonalize(Q, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert f.entries == (one_class(Q),) * 3

    def test_trace_matrix_of_ramified_cubic(self):
        t = LaurentPoly.variable(F13ST, "t")
        z = LaurentPoly.zero(F13ST)
        three = LaurentPoly.const(F13ST, 3)
        f = diagonalize(F13ST, [[three, z, z], [z, z, 3 * t], [z, 3 * t, z]])
        target = DiagonalForm(
            F13ST, (one_class(F13ST), one_class(F13ST), minus_one_class(F13ST))
        )
        assert is_isometric(f, target)

    def test_errors(self):
        with pytest.raises(Degenerate):
            diagonalize(Q, [[1, 1], [1, 1]])
        with pytest.raises(Degenerate):
            diagonalize(Q, [[0, 0], [0, 0]])
        with pytest.raises(NotSymmetric):
            diagonalize(Q, [[1, 2], [3, 1]])
        with pytest.raises(NotSymmetric):
            diagonalize(Q, [[1, 2, 3], [2, 1, 4]])

    def test_isometry_class_preserved_over_q(self):
        # congruence transforms of a diagonal form come back isometric
        f = diagonalize(Q, [[2, 1, 0], [1, -3, 2], [0, 2, 5]])
        g = diagonalize(Q, [[2, 3, 2], [3, 1, 2], [2, 2, 4]])
        assert f.dim == g.dim == 3
        assert is_isometric(f, f) and is_isometric(g, g)


class TestCombine:
    def test_tensor_binary(self):
        a, b = cls(Q, 2), cls(Q, 3)
        f = tensor(pfister(Q, (a,)), pfister(Q, (b,)))
        expect = {one_class(Q), cls(Q, -2), cls(Q, -3), cls(Q, 6)}
        assert set(f.entries) == expect
        assert is_isometric(
            f, DiagonalForm(Q, (one_class(Q), cls(Q, -2), cls(Q, -3), cls(Q, 6)))
        )

    def test_orthogonal_sum_and_scale(self):
        one, m1 = one_class(Q), cls(Q, -1)
        f = orthogonal_sum(DiagonalForm(Q, (one,)), DiagonalForm(Q, (m1,)))
        assert f.entries == (one, m1)
        a, d = cls(Q, 5), cls(Q, 3)
        g = scale(pfister(Q, (d,)), a)
        assert g.entries == (a, cls(Q, -15))

    def test_errors(self):
        with pytest.raises(FieldMismatch):
            orthogonal_sum(pfister(Q, ()), pfister(F5, ()))
        with pytest.raises(ZeroScale):
            scale(pfister(Q, ()), 0)


class TestPfister:
    def test_one_slot(self):
        d = cls(Q, 5)
        assert pfister(Q, (d,)).entries == (one_class(Q), cls(Q, -5))

    def test_three_slots_exact_expansion(self):
        u, s, t = nonresidue_class(F13ST), var_class(F13ST, "s"), var_class(F13ST, "t")
        f = pfister(F13ST, (t, u, s))
        m1 = minus_one_class(F13ST)
        listed = [
            one_class(F13ST),
            sq_mul(m1, t),
            sq_mul(m1, u),
            sq_mul(t, u),
            sq_mul(m1, s),
            sq_mul(t, s),
            sq_mul(u, s),
            sq_mul(m1, sq_mul(t, sq_mul(u, s))),
        ]
        assert list(f.entries) == listed
        assert f.entries[0].is_one

    def test_empty(self):
        assert pfister(Q, ()).entries == (one_class(Q),)

    def test_pure_part(self):
        a, b = cls(Q, 2), cls(Q, 3)
        f = pfister(Q, (a, b))
        p = pure_part(f)
        assert set(p.entries) == {cls(Q, -2), cls(Q, -3), cls(Q, 6)}
        assert p.dim == 3
        d = cls(Q, 7)
        assert pure_part(pfister(Q, (d,))).entries == (cls(Q, -7),)
        u, s, t = nonresidue_class(F13ST), var_class(F13ST, "s"), var_class(F13ST, "t")
        assert pure_part(pfister(F13ST, (t, u, s))).dim == 7

    def test_slots_only_from_the_expansion(self):
        # the slots are recorded by pfister(), never passed with the entries
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        entries = pfister(F5T, (u, t)).entries
        with pytest.raises(TypeError):
            DiagonalForm(F5T, entries, (t, t))
        with pytest.raises(TypeError):
            DiagonalForm(F5T, entries, pfister_slots=(t, t))

    def test_a_form_is_its_tower_and_entries(self):
        # the slots are metadata: equality and hash ignore them
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        f = pfister(F5T, (u, t))
        plain = DiagonalForm(F5T, f.entries)
        assert f == plain and hash(f) == hash(plain)
        assert tensor(pfister(F5T, (u,)), pfister(F5T, (t,))) == pfister(F5T, (t, u))
        plain_t = DiagonalForm(F5T, pfister(F5T, (t,)).entries)
        assert tensor(pfister(F5T, (u,)), plain_t) == pfister(F5T, (t, u))


def reference_pfister_entries(tower, slots):
    """Entries of <<a_1,...,a_n>> by the class fold e -> e ++ (-a)*e,
    each product a ``sq_mul`` of two classes."""
    entries = (one_class(tower),)
    for a in slots:
        neg_a = sq_mul(minus_one_class(tower), a)
        entries += tuple(sq_mul(neg_a, e) for e in entries)
    return entries


class TestPfisterCodes:
    """``pfister`` folds its entries on codes, against the fold on classes."""

    def check(self, tower, slots):
        f = pfister(tower, slots)
        assert f.entries == reference_pfister_entries(tower, slots), (tower, slots)

    @pytest.mark.parametrize(
        "tower",
        [
            F13ST,
            FieldTower.prime(7, "r", "s", "t"),
            FieldTower.reals("s", "t"),
            FieldTower("F", 5, ("t",), 2),
        ],
        ids=str,
    )
    def test_every_slot_tuple_up_to_three_slots(self, tower):
        classes = enumerate_square_classes(tower)
        for n in range(4):
            for slots in itertools.product(classes, repeat=n):
                self.check(tower, slots)

    @pytest.mark.parametrize("tower", [Q, FieldTower.rationals("t")], ids=str)
    def test_seeded_rational_slots(self, tower):
        rng = random.Random(17)
        values = [v for v in range(-30, 31) if v]
        for _ in range(300):
            n = rng.randint(0, 3)
            slots = tuple(
                cls(tower, rng.choice(values), {v: rng.randint(0, 1) for v in tower.laurent_vars})
                for _ in range(n)
            )
            self.check(tower, slots)

    def test_slot_over_another_tower(self):
        # s over F13((s))((t)) and t over F5((t)) both have code 2: the fold
        # of (2,) over F13((s))((t)) is memoized first, and the slot is
        # still checked
        pfister(F13ST, (var_class(F13ST, "s"),))
        with pytest.raises(FieldMismatch):
            pfister(F13ST, (var_class(F5T, "t"),))


SYMBOL_TOWERS = [
    F13ST,  # -1 a square
    FieldTower.prime(7, "r", "s", "t"),  # -1 not a square
    FieldTower.prime(3, "s", "t"),
    FieldTower.reals("s", "t"),
    FieldTower.reals("r", "s", "t"),
    FieldTower("F", 5, ("s", "t"), 2),  # degree 2
]


def pfister_symbol(tower, slots):
    """The symbol of <<slots>>, read off the slot codes."""
    return qform._symbol(tower, tuple(a.code for a in slots))


class TestSymbols:
    """The symbol e_n(<<slots>>) in k_n against the Witt pass on the folded
    form: a Pfister form is hyperbolic iff its symbol is 0, and two of one
    fold are isometric iff their symbols are equal (Orlov-Vishik-Voevodsky,
    Ann. of Math. 165, 2007)."""

    @pytest.mark.parametrize("tower", SYMBOL_TOWERS, ids=str)
    def test_symbols_decide_isotropy_and_isometry(self, tower):
        classes = enumerate_square_classes(tower)
        for n in (1, 2, 3):
            symbol_classes, class_symbols = {}, {}
            for slots in itertools.product(classes, repeat=n):
                w = qform._witt(tower, tuple(sorted(qform._pfister_codes(tower, slots))))
                symbol = pfister_symbol(tower, slots)
                assert (symbol == 0) == (w.witt_index > 0), (tower, slots)
                symbol_classes.setdefault(symbol, set()).add(w.witt_class)
                class_symbols.setdefault(w.witt_class, set()).add(symbol)
            assert all(len(v) == 1 for v in symbol_classes.values()), (tower, n)
            assert all(len(v) == 1 for v in class_symbols.values()), (tower, n)

    @pytest.mark.parametrize("tower", [t for t in SYMBOL_TOWERS if len(t.laurent_vars) == 2], ids=str)
    def test_products_are_symmetric_and_multilinear(self, tower):
        # (x) * e_n(slots) is e_(n+1) of the slots and x, in any order of
        # the slots, and (xy) * e = (x) * e + (y) * e
        classes = enumerate_square_classes(tower)
        for slots in itertools.product(classes, repeat=2):
            codes = tuple(a.code for a in slots)
            e2 = qform._symbol(tower, codes)
            assert e2 == qform._symbol(tower, codes[::-1])
            for x, y in itertools.product(classes, repeat=2):
                xe2 = qform._symbol_times(tower, x.code, e2, 2)
                assert xe2 == qform._symbol(tower, (*codes, x.code))
                assert xe2 == qform._symbol(tower, (x.code, *codes))
                assert qform._symbol_times(tower, x.code ^ y.code, e2, 2) == (
                    xe2 ^ qform._symbol_times(tower, y.code, e2, 2)
                )

    @pytest.mark.parametrize("tower", SYMBOL_TOWERS[1::3], ids=str)
    def test_factor_exists_iff_the_extension_splits(self, tower):
        # a presentation <<d,b,c>> of e_3 exists exactly when tower(sqrt(d))
        # splits an anisotropic <<slots>>, and the one found is one
        classes = enumerate_square_classes(tower)
        for slots in random.Random(7).sample(list(itertools.combinations(classes, 3)), 40):
            symbol = pfister_symbol(tower, slots)
            if not symbol:
                continue
            for d in classes[1:]:
                codes = qform._presentation(tower, d.code, symbol, 3)
                assert (codes is not None) == splits_over_quadratic(tower, slots, d), (slots, d)
                if codes is not None:
                    assert codes[0] == d.code
                    assert qform._symbol(tower, codes) == symbol

    @pytest.mark.parametrize(
        "tower",
        [
            *(FieldTower.prime(p, *"pqrst"[5 - n:]) for p in (7, 5) for n in (4, 5)),
            *(FieldTower.reals(*"pqrst"[5 - n:]) for n in (4, 5)),
            F13ST,
        ],
        ids=str,
    )
    def test_presentations_keep_to_the_symbols_variables(self, tower):
        # seeded 2- to 4-fold forms, first slots drawn from the form's own
        # slots and from every class: the codes inside the variables of the
        # symbol and of the first slot give the presentation that trying
        # every code gives
        rng = random.Random(101)
        classes = enumerate_square_classes(tower)
        outcomes = set()
        for _ in range(200):
            slots = [rng.choice(classes) for _ in range(rng.randint(2, 4))]
            first = rng.choice(slots if rng.random() < 0.5 else classes)
            symbol = pfister_symbol(tower, slots)
            expected = presentation_trying_every_code(tower, first.code, symbol, len(slots))
            assert qform._presentation(tower, first.code, symbol, len(slots)) == expected, (slots, first)
            outcomes.add((expected is None, bool(symbol)))
        assert outcomes >= {(True, True), (False, True), (False, False)}

    def test_towers_without_symbols(self):
        # Q and a tower past SYMBOL_VARS variables have no symbols
        wide = FieldTower.prime(7, *(f"x{i}" for i in range(qform.SYMBOL_VARS + 1)))
        for tower in (Q, FieldTower.rationals("t"), wide):
            assert pfister_symbol(tower, (minus_one_class(tower),)) is None
        narrower = FieldTower.prime(7, *wide.laurent_vars[1:])
        assert pfister_symbol(narrower, (minus_one_class(narrower),)) == 1  # (u): -1 = u in F7

    def test_tables_are_built_on_first_use(self):
        code = (
            "import wittforge\n"
            "from wittforge import qform\n"
            "print(qform._symbol_table.cache_info().currsize)"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qform.__file__)))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert out.stdout.strip() == "0", out.stderr


def presentation_trying_every_code(tower, first_code, symbol, n):
    """The lexicographically first presentation of ``qform._presentation``,
    with every code of the tower tried for each later slot."""
    table = qform._symbol_table(tower)
    n_vars = len(tower.laurent_vars)
    gens = [1 << k for k in range(n_vars + 1)]
    found, e = (), 1  # 1 in k_0
    for k in range(1, n + 1):
        multisets = list(itertools.combinations_with_replacement(gens, n - k))
        for b in (first_code,) if k == 1 else range(2 << n_vars):
            e_b = qform._times_codes(table, (b,), e, k - 1)
            if qform._solve([qform._times_codes(table, m, e_b, k) for m in multisets], symbol) is not None:
                found, e = (*found, b), e_b
                break
        else:
            return None
    return found


class TestIsotropy:
    def test_definite_real(self):
        R = FieldTower.reals()
        assert not is_isotropic(DiagonalForm(R, (one_class(R), one_class(R))))

    def test_117_over_q_with_oracles(self):
        f = DiagonalForm(Q, (one_class(Q), one_class(Q), cls(Q, -7)))
        # oracle 1: -1 is a quadratic nonresidue mod 7
        assert {x * x % 7 for x in range(1, 7)} == {1, 2, 4}
        assert 6 not in {x * x % 7 for x in range(1, 7)}
        # oracle 2: no small witness
        assert rational_witness_search([1, 1, -7]) is None
        assert not is_isotropic(f)

    def test_rational_search_tries_every_quaternary_subform(self):
        # 1 + 1 + 1 - 3 = 0 needs the fifth coordinate
        w = rational_witness_search([1, 1, 1, 1, -3])
        assert w is not None and verify_rational_witness([1, 1, 1, 1, -3], w)
        assert w[4] != 0
        # a planted witness (x, y, z, 1) on four shuffled coordinates of six,
        # repeated coefficients included, is found within its bound
        rng = random.Random(5)
        for _ in range(40):
            a = [rng.choice((1, 1, 2, 3, -1, -5)) for _ in range(3)]
            x = [rng.randint(1, 4) for _ in range(3)]
            e = sum(ai * xi * xi for ai, xi in zip(a, x))
            if e == 0:
                continue
            entries = a + [-e] + [rng.choice((1, 7, -7)) for _ in range(2)]
            rng.shuffle(entries)
            w = rational_witness_search(entries, bounds=(4,))
            assert w is not None and verify_rational_witness(entries, w), entries

    def test_rational_search_raises_past_its_budget_at_once(self, monkeypatch):
        # C(d,3) + C(d,4) index subsets alone exceed the budget: no subform
        # is listed and no candidate looked at
        primes = [n for n in range(2, 720) if all(n % d for d in range(2, n))]
        assert len(primes) == 128
        monkeypatch.setattr(
            oracles, "_subforms", lambda *args: pytest.fail("subforms enumerated")
        )
        for entries in (primes, [1] * 100):
            with pytest.raises(oracles.OracleBudgetExceeded):
                rational_witness_search(entries)

    def test_rational_search_within_its_budget_still_exhausts(self):
        assert rational_witness_search([1, 1, -7]) is None
        assert rational_witness_search([1, 1, -7, -7]) is None

    def test_pfister_ut_over_f5t_with_oracles(self):
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        f = pfister(F5T, (u, t))
        # residue forms <1,-u> and <-1, u> are anisotropic over F5
        u5 = nonresidue_class(F5)
        for g in (
            DiagonalForm(F5, (one_class(F5), sq_mul(minus_one_class(F5), u5))),
            DiagonalForm(F5, (minus_one_class(F5), u5)),
        ):
            assert not is_isotropic(g)
        assert truncated_witness_search(f) is None
        assert not is_isotropic(f)

    def test_dim_zero_and_one(self):
        assert not is_isotropic(DiagonalForm(Q, ()))
        assert not is_isotropic(DiagonalForm(Q, (cls(Q, -1),)))


class TestWitt:
    def test_split_form(self):
        one, m1 = one_class(Q), cls(Q, -1)
        w = witt_decompose(DiagonalForm(Q, (one, m1, one, m1)))
        assert (w.witt_index, w.kernel_dim) == (2, 0)
        assert w.is_hyperbolic

    def test_1177_anisotropic(self):
        f = DiagonalForm(Q, (one_class(Q), one_class(Q), cls(Q, -7), cls(Q, -7)))
        assert rational_witness_search([1, 1, -7, -7]) is None  # oracle
        w = witt_decompose(f)
        assert (w.witt_index, w.kernel_dim) == (0, 4)

    def test_rank_one(self):
        w = witt_decompose(DiagonalForm(Q, (one_class(Q),)))
        assert (w.witt_index, w.kernel_dim) == (0, 1)

    def test_equality_over_qt_follows_isometry(self):
        # over Q((t)) no kernel and no kernel invariants are kept, so the
        # Witt class is what tells <1> from <2>; <1,2> and <3,6> stay equal
        qt = FieldTower.rationals("t")

        def form(*values):
            return DiagonalForm(qt, tuple(cls(qt, v) for v in values))

        for f, g in ((form(1), form(2)), (form(1, 2), form(3, 6)), (form(1, -1), form(5, -5))):
            w, wg = witt_decompose(f), witt_decompose(g)
            assert w.kernel is None and w.kernel_invariants is None
            assert (w == wg) == is_isometric(f, g)
            assert w != wg or hash(w) == hash(wg)
        assert witt_decompose(form(1)) != witt_decompose(form(2))
        assert witt_decompose(form(1, 2)) == witt_decompose(form(3, 6))

    @pytest.mark.parametrize("tower", [F5T, F13ST, RTS], ids=str)
    def test_decomposition_algebra(self, tower):
        classes = enumerate_square_classes(tower)
        t = var_class(tower, tower.outer_var)
        hyper = DiagonalForm(tower, (one_class(tower), minus_one_class(tower)))
        for dim in (1, 2, 3):
            for entries in itertools.product(classes, repeat=dim):
                f = DiagonalForm(tower, entries)
                w = witt_decompose(f)
                assert f.dim == 2 * w.witt_index + w.kernel_dim
                assert not is_isotropic(w.kernel)
                rebuilt = w.kernel
                for _ in range(w.witt_index):
                    rebuilt = orthogonal_sum(rebuilt, hyper)
                assert is_isometric(f, rebuilt)


class TestIsometric:
    def test_permutation(self):
        f = DiagonalForm(Q, (cls(Q, 2), cls(Q, 3)))
        g = DiagonalForm(Q, (cls(Q, 3), cls(Q, 2)))
        assert is_isometric(f, g)

    def test_signature_distinguishes(self):
        f = DiagonalForm(Q, (one_class(Q), one_class(Q)))
        g = DiagonalForm(Q, (one_class(Q), cls(Q, -1)))
        assert not is_isometric(f, g)

    def test_trace_form_identity(self):
        three = cls(F13ST, 3)
        tt = var_class(F13ST, "t")
        f = DiagonalForm(
            F13ST,
            (three, sq_mul(three, tt), sq_mul(cls(F13ST, -3), tt)),
        )
        g = DiagonalForm(
            F13ST, (one_class(F13ST), one_class(F13ST), minus_one_class(F13ST))
        )
        assert is_isometric(f, g)

    def test_reflexive_everywhere(self):
        for tower in (F5T, F13ST, RTS):
            for entries in itertools.product(enumerate_square_classes(tower), repeat=2):
                f = DiagonalForm(tower, entries)
                assert is_isometric(f, f)

    def test_mismatch(self):
        with pytest.raises(FieldMismatch):
            is_isometric(pfister(Q, ()), pfister(F5, ()))

    def test_witt_cancellation_matches_invariants_over_q(self):
        # reference: equal dimension, discriminant, Hasse invariants and
        # signature classify forms over Q
        rng = random.Random(1503)
        values = [1, -1, 2, -2, 3, -3, 5, -5, 6, -6, 7, 10, -15]
        outcomes = set()
        for _ in range(4000):
            d = rng.randint(1, 5)
            f, g = (
                DiagonalForm(Q, tuple(cls(Q, rng.choice(values)) for _ in range(d)))
                for _ in range(2)
            )
            expected = rational_invariants(f) == rational_invariants(g)
            assert is_isometric(f, g) == expected, (f, g)
            outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("tower", [Q, FieldTower.rationals("t")], ids=str)
    def test_equal_classes_match_witt_cancellation_over_q(self, tower):
        # reference: f ⊥ -g hyperbolic, decided by the recursive Springer
        # pass with the local-global rule at its leaves
        rng = random.Random(2015)

        def entry():
            c = rng.choice((1, -1))
            for q in rng.sample((2, 3, 5, 7), rng.randint(0, 2)):
                c *= q
            return cls(tower, c, {v: rng.randint(0, 1) for v in tower.laurent_vars})

        m1 = minus_one_class(tower)
        outcomes = set()
        for _ in range(600):
            f = DiagonalForm(tower, tuple(entry() for _ in range(rng.randint(1, 5))))
            how = rng.choice(("permute", "scale", "own"))
            if how == "permute":
                g = DiagonalForm(tower, tuple(rng.sample(f.entries, f.dim)))
            elif how == "scale":
                g = scale(f, entry())
            else:
                g = DiagonalForm(tower, tuple(entry() for _ in range(f.dim)))
            difference = DiagonalForm(
                tower, f.entries + tuple(sq_mul(m1, e) for e in g.entries)
            )
            expected = f.dim == g.dim and reference_witt(difference).kernel_dim == 0
            assert is_isometric(f, g) == expected, (f, g)
            outcomes.add(expected)
        assert outcomes == {True, False}


class TestPfisterDichotomy:
    @pytest.mark.parametrize("tower", [F5T, F13ST, RTS], ids=str)
    def test_isotropic_iff_hyperbolic(self, tower):
        gens = generators(tower)
        for n in (1, 2, 3):
            for slots in itertools.product(gens, repeat=n):
                f = pfister(tower, slots)
                assert is_isotropic(f) == is_hyperbolic(f)


class TestSplitsOverQuadratic:
    def test_hyperbolic_splits_everywhere(self):
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        f = pfister(F5T, (one_class(F5T), t))  # slot 1 makes it hyperbolic
        assert is_hyperbolic(f)
        for d in (u, t, sq_mul(u, t)):
            assert splits_over_quadratic(F5T, (one_class(F5T), t), d)

    def test_codes_rule_agrees_with_the_form_rule(self):
        # every 0-, 1- and 2-fold form, seeded 3-fold ones, every nonsquare delta
        rng = random.Random(20)
        towers = [
            F5T,
            F13ST,
            FieldTower.prime(7, "r", "s", "t"),
            FieldTower.reals("s", "t"),
            FieldTower("F", 5, ("t",), 2),
            FieldTower.prime(3, "r", "s", "t"),
        ]
        outcomes = set()
        for tower in towers:
            classes = enumerate_square_classes(tower)
            slot_tuples = [
                *(slots for n in range(3) for slots in itertools.product(classes, repeat=n)),
                *(tuple(rng.choice(classes) for _ in range(3)) for _ in range(32)),
            ]
            for slots in slot_tuples:
                f = pfister(tower, slots)
                for delta in classes[1:]:
                    splits = splits_over_quadratic(tower, slots, delta)
                    assert splits == reference_splits(f, delta), (tower, slots, delta)
                    outcomes.add(splits)
        assert outcomes == {True, False}
        # seeded 3-fold forms over four variables, every nonsquare delta
        for tower in (FieldTower.prime(7, "q", "r", "s", "t"), FieldTower.reals("q", "r", "s", "t")):
            classes = enumerate_square_classes(tower)
            for _ in range(24):
                slots = tuple(rng.choice(classes) for _ in range(3))
                f = pfister(tower, slots)
                expected = {delta for delta in classes[1:] if reference_splits(f, delta)}
                assert quadratic_splitting_classes(tower, slots) == expected, (tower, slots)
                for delta in classes[1:]:
                    assert splits_over_quadratic(tower, slots, delta) == (delta in expected)
        # seeded 1- to 3-fold forms and seeded delta over Q, Q((t)) and Q((s))((t))
        values = [1, -1, 2, -2, 3, -3, 5, -5, 6, 7, -7, 10, -14, 15, -30, 11, 13, -105]
        outcomes = set()
        for tower in (Q, FieldTower.rationals("t"), FieldTower.rationals("s", "t")):
            def seeded():
                return cls(tower, rng.choice(values), {v: rng.randint(0, 1) for v in tower.laurent_vars})
            for _ in range(150):
                slots = tuple(seeded() for _ in range(rng.randint(1, 3)))
                delta = seeded()
                if delta.is_one:
                    continue
                splits = splits_over_quadratic(tower, slots, delta)
                assert splits == reference_splits(pfister(tower, slots), delta), (tower, slots, delta)
                outcomes.add(splits)
        assert outcomes == {True, False}

    def test_splitting_sets_ask_one_base_field_key_per_delta(self, monkeypatch):
        # the 155 division classes over four F7 variables, one representative
        # per nonzero symbol of a slot triple: past the Pfister form's own
        # isotropy key, every delta is one question over F7 on its run, and
        # the memo holds the 155 Pfister keys and a few base-field keys
        tower = FieldTower.prime(7, "q", "r", "s", "t")
        reps = {}
        for slots in itertools.combinations_with_replacement(enumerate_square_classes(tower), 3):
            reps.setdefault(qform._symbol(tower, [a.code for a in slots]), slots)
        reps.pop(0)
        assert len(reps) == 155
        witt = qform._witt
        asked = []

        def spy(on, key):
            asked.append((on, key))
            return witt(on, key)

        witt.cache_clear()
        monkeypatch.setattr(qform, "_witt", spy)
        sets = [quadratic_splitting_classes(tower, slots) for slots in reps.values()]
        assert len(set(sets)) == 155
        pfister_keys = sorted(tuple(sorted(qform._pfister_codes(tower, slots))) for slots in reps.values())
        assert sorted(key for on, key in asked if on == tower) == pfister_keys
        assert {on for on, _ in asked} == {tower, tower.base_field()}
        assert witt.cache_info().currsize < 200

    def test_slot_or_delta_over_another_tower(self):
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        with pytest.raises(FieldMismatch):
            splits_over_quadratic(F13ST, (u,), nonresidue_class(F13ST))
        with pytest.raises(FieldMismatch):
            splits_over_quadratic(F5T, (u,), var_class(F13ST, "t"))
        with pytest.raises(FieldMismatch):
            pfister_slot_witness(F13ST, (t,), nonresidue_class(F13ST))

    def test_ut_splits_at_u(self):
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        f = pfister(F5T, (u, t))
        # the pure part <-u,-t,ut> plus <u> holds a +-u pair (-1 is square mod 5)
        probe = orthogonal_sum(pure_part(f), DiagonalForm(F5T, (u,)))
        assert is_isotropic(probe)
        assert splits_over_quadratic(F5T, (u, t), u)

    def test_delta_square_rejected(self):
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        with pytest.raises(DeltaIsSquare):
            splits_over_quadratic(F5T, (u, t), one_class(F5T))

    def test_agrees_with_extension_base_change(self):
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        f = pfister(F5T, (u, t))
        for delta in (u, t, sq_mul(u, t)):
            assert splits_over_quadratic(F5T, (u, t), delta) == is_hyperbolic(base_change(f, delta))


class TestSlotWitness:
    def test_first_slot_already_there(self):
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        assert pfister_slot_witness(F5T, (u, t), u) == (u, t)

    def test_ut_witness(self):
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        f = pfister(F5T, (u, t))
        ut = sq_mul(u, t)
        w = pfister_slot_witness(F5T, (u, t), ut)
        assert w[0] == ut and is_isometric(pfister(F5T, w), f)
        # the listed presentation (ut, t) is itself valid
        assert is_isometric(pfister(F5T, (ut, t)), f)

    def test_no_split(self):
        u, s = nonresidue_class(F13ST), var_class(F13ST, "s")
        t = var_class(F13ST, "t")
        assert not splits_over_quadratic(F13ST, (u, s), t)
        with pytest.raises(NoSplit):
            pfister_slot_witness(F13ST, (u, s), t)

    def test_unsupported_over_q(self):
        with pytest.raises(WitnessUnsupported):
            pfister_slot_witness(Q, (cls(Q, -1), cls(Q, -1)), cls(Q, -1))

    def test_hyperbolic_one_fold_form_has_no_presentation(self):
        # <<1>> splits over every sqrt(delta), but <<delta>> is anisotropic
        F7 = FieldTower.prime(7)
        assert splits_over_quadratic(F7, (one_class(F7),), nonresidue_class(F7))
        with pytest.raises(WitnessUnsupported):
            pfister_slot_witness(F7, (one_class(F7),), nonresidue_class(F7))

    def test_greedy_search_agrees_with_the_exhaustive_one(self):
        # every 1- and 2-fold form, seeded 3-fold ones, every splitting delta
        rng = random.Random(2015)
        towers = [
            FieldTower.prime(7, "t"),
            FieldTower.prime(7, "s", "t"),
            FieldTower.prime(13, "s", "t"),
            FieldTower.reals("s", "t"),
            FieldTower("F", 5, ("t",), 2),
            FieldTower.prime(3, "r", "s", "t"),
        ]
        seen = set()
        for tower in towers:
            classes = enumerate_square_classes(tower)
            slot_tuples = [
                *itertools.product(classes, repeat=1),
                *itertools.product(classes, repeat=2),
                *(tuple(rng.choice(classes) for _ in range(3)) for _ in range(16)),
            ]
            for slots in slot_tuples:
                f = pfister(tower, slots)
                for delta in classes[1:]:
                    if not splits_over_quadratic(tower, slots, delta):
                        continue
                    expected = reference_slot_witness(tower, slots, delta)
                    if expected is None:
                        with pytest.raises(WitnessUnsupported):
                            pfister_slot_witness(tower, slots, delta)
                    else:
                        assert pfister_slot_witness(tower, slots, delta) == expected, (f, delta)
                    seen.add((len(slots), expected is None, is_hyperbolic(f)))
        assert seen == {
            (1, False, False), (1, True, True), (2, False, False), (2, False, True),
            (3, False, False), (3, False, True),
        }

    def test_no_class_is_listed_and_no_form_decomposed_per_candidate(self, monkeypatch):
        # the presentation is read off the symbol: neither the class list
        # nor a Witt decomposition of a candidate form is asked for
        def refuse(*args):
            raise AssertionError("a search over classes or forms")

        monkeypatch.setattr(qform, "enumerate_square_classes", refuse)
        monkeypatch.setattr(qform, "witt_decompose", refuse)
        F7RST = FieldTower.prime(7, "r", "s", "t")
        u, r, s, t = nonresidue_class(F7RST), *(var_class(F7RST, v) for v in "rst")
        assert pfister_slot_witness(F7RST, (t, s, r), r) == (r, s, t)
        assert pfister_slot_witness(F7RST, (u, s, t), sq_mul(u, t)) == (sq_mul(u, t), u, s)

    @pytest.mark.parametrize(
        "tower", [FieldTower.prime(7, "r", "s", "t"), FieldTower.reals("r", "s", "t")], ids=str
    )
    def test_seeded_four_fold_presentations(self, tower):
        rng = random.Random(33)
        classes = enumerate_square_classes(tower)
        checked = 0
        while checked < 4:
            slots = tuple(rng.choice(classes) for _ in range(4))
            delta = rng.choice(classes[1:])
            if splits_over_quadratic(tower, slots, delta):
                expected = reference_slot_witness(tower, slots, delta)
                assert pfister_slot_witness(tower, slots, delta) == expected, (slots, delta)
                checked += 1

    def test_wide_tower_is_unsupported(self):
        # past SYMBOL_VARS variables there are no symbols to read
        wide = FieldTower.prime(7, *(f"x{i}" for i in range(qform.SYMBOL_VARS + 1)))
        x0, x1 = var_class(wide, "x0"), var_class(wide, "x1")
        with pytest.raises(WitnessUnsupported):
            pfister_slot_witness(wide, (nonresidue_class(wide), x0, x1), x0)


def reference_slot_witness(tower, slots, delta):
    """The exhaustive search: the first (delta, b_2, ..., b_n), in
    enumeration order, whose Pfister form is isometric to <<slots>>, or None."""
    f = pfister(tower, slots)
    classes = enumerate_square_classes(tower)
    for rest in itertools.product(classes, repeat=len(slots) - 1):
        candidate = (delta,) + rest
        if is_isometric(pfister(tower, candidate), f):
            return candidate
    return None


class TestConcurrency:
    def test_parallel_isotropy_queries_are_consistent(self):
        # everything is immutable and the memo tables are lock-protected
        from concurrent.futures import ThreadPoolExecutor

        classes = enumerate_square_classes(F13ST)
        forms = [
            DiagonalForm(F13ST, entries)
            for entries in itertools.product(classes, repeat=2)
        ]
        expected = [is_isotropic(f) for f in forms]
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(is_isotropic, forms * 4))
        assert results == expected * 4


def reference_constant_witness(f):
    """The constant-coordinate search over every value 0..p-1 of each
    coordinate: meet in the middle, returning the first right half, in
    lexicographic order, that some left half cancels, with the first such
    left half (the whole vector nonzero), or None."""
    tower, p, d = f.tower, f.tower.p, f.dim
    monos = [LaurentPoly.of_class(e).terms[0] for e in f.entries]
    half = d // 2

    def values(idxs, sign):
        for assign in itertools.product(range(p), repeat=len(idxs)):
            acc = {}
            for i, x in zip(idxs, assign):
                exps, coeff = monos[i]
                acc[exps] = (acc.get(exps, 0) + sign * coeff * x * x) % p
            yield assign, frozenset((e, c) for e, c in acc.items() if c)

    first, first_nonzero = {}, {}
    for assign, val in values(range(half), 1):
        first.setdefault(val, assign)
        if any(assign):
            first_nonzero.setdefault(val, assign)
    for assign, val in values(range(half, d), -1):
        match = (first if any(assign) else first_nonzero).get(val)
        if match is not None:
            return [LaurentPoly.const(tower, v) for v in match + assign]
    return None


class TestSpringerSoundness:
    def test_half_range_search_matches_full_range(self):
        # x and -x have one square, and negating a coordinate keeps a
        # witness one, so the first witness has every coordinate <= (p-1)/2
        towers = [FieldTower.prime(p) for p in (3, 5, 7, 13)] + [
            FieldTower.prime(3, "t"),
            FieldTower.prime(7, "s", "t"),
            F13ST,
            FieldTower.prime(5, "r", "s", "t"),
        ]
        outcomes = set()
        for tower in towers:
            classes = enumerate_square_classes(tower)
            for dim in (1, 2, 3, 4):
                for entries in itertools.combinations_with_replacement(classes, dim):
                    f = DiagonalForm(tower, entries)
                    witness = constant_witness_search(f)
                    assert witness == reference_constant_witness(f), f
                    outcomes.add(witness is None)
        assert outcomes == {True, False}

    def test_bivariate_constant_oracle(self):
        classes = enumerate_square_classes(F13ST)
        for dim in (1, 2, 3):
            for entries in itertools.product(classes, repeat=dim):
                f = DiagonalForm(F13ST, entries)
                witness = constant_witness_search(f)
                assert (witness is not None) == is_isotropic(f)

    def test_bivariate_dim4_exhaustive(self):
        classes = enumerate_square_classes(F13ST)
        for entries in itertools.product(classes, repeat=4):
            f = DiagonalForm(F13ST, entries)
            witness = constant_witness_search(f)
            assert (witness is not None) == is_isotropic(f)


class TestAnisotropicKernelOverRealBase:
    def test_appendix_construction_with_real_coefficients(self):
        # the real-signature base exists exactly for this construction:
        # phi_i = <1,-t_i> x <1,1> over R((t1))((t2)), difference kernel dim 4
        tower = FieldTower.reals("t1", "t2")
        m1 = minus_one_class(tower)
        t1, t2 = var_class(tower, "t1"), var_class(tower, "t2")
        phi1 = pfister(tower, (m1, t1))
        phi2 = pfister(tower, (m1, t2))
        assert not is_isotropic(phi1) and not is_isotropic(phi2)
        w = witt_decompose(orthogonal_sum(phi1, negate(phi2)))
        assert w.kernel_dim == 4
        assert not is_isotropic(w.kernel)


# -- the flat Springer pass against the one-variable-at-a-time recursion ------------


def reference_base_witt(f):
    """Witt decomposition over R or F_q without Witt classes.

    Over R the signs are counted: min(pos, neg) hyperbolic planes and the
    leftover signs as kernel.  Over F_q the dimension d and discriminant
    decide, with wi = d // 2: an odd form has kernel <disc * (-1)^wi>; an
    even one is hyperbolic when disc = (-1)^wi, and otherwise has kernel
    <1, disc * (-1)^(wi - 1)>, except that an anisotropic plane is its own
    kernel.  Entries are taken in class order, as the library's runs are.
    """
    tower, entries = f.tower, tuple(sorted(f.entries))
    one, m1 = one_class(tower), minus_one_class(tower)
    if tower.kind == "R":
        pos = sum(1 for e in entries if e.base == 1)
        neg = len(entries) - pos
        wi = min(pos, neg)
        leftover = (one,) * (pos - wi) + (m1,) * (neg - wi)
        return WittDecomposition(wi, len(leftover), DiagonalForm(tower, leftover))
    disc = one
    for e in entries:
        disc = sq_mul(disc, e)
    d, wi = len(entries), len(entries) // 2
    sign = m1 if wi % 2 else one  # (-1)^wi
    if d % 2:
        return WittDecomposition(wi, 1, DiagonalForm(tower, (sq_mul(disc, sign),)))
    if disc == sign:
        return WittDecomposition(wi, 0, DiagonalForm(tower, ()))
    if d == 2:
        return WittDecomposition(0, 2, DiagonalForm(tower, entries))
    kernel = (one, sq_mul(disc, sq_mul(sign, m1)))  # disc * (-1)^(wi-1)
    return WittDecomposition(wi - 1, 2, DiagonalForm(tower, kernel))


def reference_witt(f):
    """Springer's theorem one variable at a time (Lam, Ch. VI).

    The entries split by the parity of the outer variable into two
    residue forms over the inner tower; each is decomposed recursively
    and its kernel lifted back, the odd part times the outer variable.
    Over the base field the leaf is ``reference_base_witt``, or over Q
    the local-global rule of ``arithq``.
    """
    tower = f.tower
    if not tower.laurent_vars:
        if tower.kind == "Q":
            return witt_index_rational(f)
        return reference_base_witt(f)
    inner = tower.inner()
    parts = ([], [])
    for e in f.entries:
        parity, unit = residue_split(tower, e)
        parts[parity].append(unit)
    w0, w1 = (reference_witt(DiagonalForm(inner, tuple(part))) for part in parts)
    kernel = None
    if w0.kernel is not None and w1.kernel is not None:
        t = var_class(tower, tower.outer_var)
        kernel = DiagonalForm(
            tower,
            tuple(lift_class(e, tower) for e in w0.kernel.entries)
            + tuple(sq_mul(t, lift_class(e, tower)) for e in w1.kernel.entries),
        )
    return WittDecomposition(
        w0.witt_index + w1.witt_index, w0.kernel_dim + w1.kernel_dim, kernel
    )


@st.composite
def enumerable_forms(draw):
    """A diagonal form over a random F_p, F_{p^2} or R tower, 0-3 variables."""
    names = ("s", "t", "r")[: draw(st.integers(0, 3))]
    if draw(st.booleans()):
        tower = FieldTower.reals(*names)
    else:
        p = draw(st.sampled_from((3, 5, 7, 13)))
        tower = FieldTower("F", p, names, draw(st.sampled_from((1, 2))))
    classes = enumerate_square_classes(tower)
    entries = draw(st.lists(st.sampled_from(classes), max_size=8))
    return DiagonalForm(tower, tuple(entries))


class TestFlatSpringerProperties:
    @given(enumerable_forms())
    @settings(max_examples=300, deadline=None)
    def test_matches_recursive_reference(self, f):
        assert witt_decompose(f) == reference_witt(f)

    @given(enumerable_forms())
    @settings(max_examples=300, deadline=None)
    def test_isotropic_iff_positive_witt_index(self, f):
        assert is_isotropic(f) == (witt_decompose(f).witt_index > 0)

    @given(enumerable_forms(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_invariant_under_permutation_and_scaling(self, f, data):
        w = witt_decompose(f)
        shuffled = data.draw(st.permutations(f.entries))
        a = data.draw(st.sampled_from(enumerate_square_classes(f.tower)))
        for g in (DiagonalForm(f.tower, tuple(shuffled)), scale(f, a)):
            wg = witt_decompose(g)
            assert (wg.witt_index, wg.kernel_dim) == (w.witt_index, w.kernel_dim)

    @given(enumerable_forms())
    @settings(max_examples=300, deadline=None)
    def test_form_plus_its_negative_is_hyperbolic(self, f):
        assert is_hyperbolic(orthogonal_sum(f, negate(f)))


@st.composite
def enumerable_keys(draw):
    """(tower, sorted entry codes) over F_p (p = 1 and 3 mod 4), F_{p^2} or
    R with 0-4 variables, 0-10 entries."""
    n = draw(st.integers(0, 4))
    names = ("q", "r", "s", "t")[4 - n :]
    kind, p, degree = draw(
        st.sampled_from(
            (("F", 3, 1), ("F", 7, 1), ("F", 5, 1), ("F", 13, 1),
             ("F", 3, 2), ("F", 5, 2), ("R", None, 1))
        )
    )
    codes = draw(st.lists(st.integers(0, 2 ** (n + 1) - 1), max_size=10))
    return FieldTower(kind, p, names, degree), tuple(sorted(codes))


def reference_witt_class(tower, key):
    """The Witt class over R or F_q of the form with sorted entry codes
    ``key``, counted off the codes with no form built: code 2*mask + base
    bit puts each mask's entries in one run, masks ascending, and a run
    of pos base bits 0 and neg base bits 1 has class pos - neg in W(R) =
    Z, (pos - neg) mod 4 in W(F_q) = Z/4 when -1 is not a square, and
    (pos mod 2, neg mod 2) in W(F_q) = F_2[Z/2] when it is.  A run
    appears when its class is not 0."""
    counts = {}
    for code in key:
        counts.setdefault(code >> 1, [0, 0])[code & 1] += 1
    out = []
    for mask, (pos, neg) in counts.items():
        if tower.kind == "R":
            c = pos - neg
        elif tower.minus_one_is_square():
            c = pos % 2, neg % 2
        else:
            c = (pos - neg) % 4
        if c not in (0, (0, 0)):
            out.append((mask, c))
    return tuple(out)


class TestWittClassOffCodes:
    @given(enumerable_keys())
    @settings(max_examples=500, deadline=None)
    def test_equals_the_decompositions_class(self, tower_key):
        tower, key = tower_key
        expected = reference_witt_class(tower, key)
        f = DiagonalForm(tower, qform._classes(tower, key))
        assert witt_class(f) == expected
        assert witt_decompose(f).witt_class == expected

    @pytest.mark.parametrize(
        "tower, entries, witt_index, kernel",
        [
            # <u,u> is an anisotropic plane when -1 is not a square
            ("F7((t))", "[u,u,t]", 0, "[u,u,t]"),
            ("F3((t))", "[u,u,u*t,u*t]", 0, "[u,u,u*t,u*t]"),
            # the s-run <1,u> is hyperbolic; the t-run <1,1> is its own kernel
            ("F7((s))((t))", "[u,u,s,u*s,t,t]", 1, "[u,u,t,t]"),
        ],
    )
    def test_an_anisotropic_plane_is_its_own_kernel(self, tower, entries, witt_index, kernel):
        tower = parse_field(tower)
        f = parse_form(entries, tower)
        w = witt_decompose(f)
        assert (w.witt_index, w.kernel_dim) == (witt_index, f.dim - 2 * witt_index)
        assert w.kernel == parse_form(kernel, tower)
        assert w.witt_class == reference_witt_class(tower, f.key)


class TestOneDecompositionPerQuestion:
    @pytest.mark.parametrize(
        "tower, entries",
        [
            ("F7((r))((s))((t))", "[1,u,r,u*s,s*t,u*r*s*t,t,t]"),
            ("R((r))((s))((t))", "[1,-1,-r,s,-s,r*t,-s*t,-s*t]"),
        ],
    )
    def test_a_cold_pass_builds_one_kernel_form_and_one_decomposition(
        self, monkeypatch, tower, entries
    ):
        # the runs' answers are plain data: only the sum over the runs is built
        tower = parse_field(tower)
        f = parse_form(entries, tower)
        assert len(qform._runs(tower, f.key)) >= 5
        built = {DiagonalForm: 0, WittDecomposition: 0}
        for kind in built:
            def counting(self, *args, _kind=kind, _init=kind.__init__, **kwargs):
                built[_kind] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(kind, "__init__", counting)
        qform._witt.cache_clear()
        w = witt_decompose(f)
        assert built == {DiagonalForm: 1, WittDecomposition: 1}
        monkeypatch.undo()
        assert w == reference_witt(f) and w.witt_class == reference_witt_class(tower, f.key)

    def test_the_empty_form(self):
        # over Q the kernel's invariants survive, of dimension 0
        w = witt_decompose(DiagonalForm(Q, ()))
        assert (w.witt_index, w.kernel_dim, w.kernel, w.witt_class) == (0, 0, None, ())
        assert w.kernel_invariants.dim == 0
        assert w.kernel_invariants == rational_invariants(DiagonalForm(Q, ()))
        # over Q((t)) only the classes are kept, and there are none
        w = witt_decompose(DiagonalForm(FieldTower.rationals("t"), ()))
        assert (w.witt_index, w.kernel_dim, w.kernel, w.kernel_invariants, w.witt_class) == (
            0, 0, None, None, ()
        )
        # over R and F_p towers the kernel is the empty form
        for tower in (FieldTower.reals(), F5, F5T, RTS):
            w = witt_decompose(DiagonalForm(tower, ()))
            assert (w.witt_index, w.kernel_dim, w.kernel_invariants, w.witt_class) == (0, 0, None, ())
            assert w.kernel == DiagonalForm(tower, ()) and w.is_hyperbolic


# -- the same laws over Q and Q((t)), decided by local invariants --------------------

SMALL_PRIMES = (2, 3, 5, 7)


@st.composite
def rational_classes(draw, tower):
    """A signed product of distinct small primes, times t or not over Q((t))."""
    primes = draw(st.lists(st.sampled_from(SMALL_PRIMES), max_size=2, unique=True))
    c = draw(st.sampled_from((1, -1)))
    for q in primes:
        c *= q
    exps = {v: draw(st.integers(0, 1)) for v in tower.laurent_vars}
    return canonical_square_class(tower, c, exps)


@st.composite
def rational_forms(draw):
    tower = draw(st.sampled_from((Q, FieldTower.rationals("t"))))
    entries = draw(st.lists(rational_classes(tower), max_size=6))
    return DiagonalForm(tower, tuple(entries))


class TestRationalWittProperties:
    @given(rational_forms(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_witt_index_invariant_under_permutation_and_scaling(self, f, data):
        index = witt_decompose(f).witt_index
        shuffled = DiagonalForm(f.tower, tuple(data.draw(st.permutations(f.entries))))
        a = data.draw(rational_classes(f.tower))
        assert witt_decompose(shuffled).witt_index == index
        assert witt_decompose(scale(f, a)).witt_index == index

    @given(rational_forms())
    @settings(max_examples=200, deadline=None)
    def test_form_plus_its_negative_has_full_witt_index(self, f):
        assert witt_decompose(orthogonal_sum(f, negate(f))).witt_index == f.dim

    @given(rational_forms())
    @settings(max_examples=200, deadline=None)
    def test_isotropic_iff_positive_witt_index(self, f):
        assert is_isotropic(f) == (witt_decompose(f).witt_index > 0)


# -- memo keys: the tower is part of every key, and keys respect isometry ----------


class TestCacheKeys:
    def test_same_entries_over_different_towers(self):
        # <1,1> is isotropic exactly when -1 is a square: over F5, not F7
        answers = []
        for tower in (
            FieldTower.prime(5),
            FieldTower.prime(7),
            FieldTower.prime(5, "t"),
            FieldTower.prime(7, "t"),
        ):
            one = one_class(tower)
            answers.append(is_isotropic(DiagonalForm(tower, (one, one))))
        assert answers == [True, False, True, False]

    def test_same_codes_over_different_towers(self):
        # class number 1 is -1 over R and u over F5, where -1 is a square
        answers, pfisters = [], []
        for tower in (
            FieldTower.reals(),
            FieldTower.prime(5),
            FieldTower.reals("t"),
            FieldTower.prime(5, "t"),
        ):
            one, c1 = enumerate_square_classes(tower)[:2]
            answers.append(
                is_isometric(DiagonalForm(tower, (one, one)), DiagonalForm(tower, (c1, c1)))
            )
            pfisters.append(str(pfister(tower, (c1,))))
        assert answers == [False, True, False, True]
        assert pfisters == ["[1,1]", "[1,u]", "[1,1]", "[1,u]"]


KEY_TOWERS = tuple(
    tower
    for names in ((), ("t",), ("s", "t"))
    for tower in (
        FieldTower.prime(3, *names),
        FieldTower.prime(5, *names),
        FieldTower("F", 5, names, 2),
        FieldTower.reals(*names),
    )
)


@st.composite
def built_forms(draw, tower):
    """A form over ``tower``: plain entries, or built by tensor, scale or pfister."""
    classes = enumerate_square_classes(tower)

    def plain(max_size):
        entries = draw(st.lists(st.sampled_from(classes), max_size=max_size))
        return DiagonalForm(tower, tuple(entries))

    how = draw(st.sampled_from(("plain", "tensor", "scale", "pfister")))
    if how == "tensor":
        return tensor(plain(2), plain(3))
    if how == "scale":
        return scale(plain(6), draw(st.sampled_from(classes)))
    if how == "pfister":
        return pfister(tower, draw(st.lists(st.sampled_from(classes), max_size=2)))
    return plain(6)


class TestIsometryProperties:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_isometric_iff_difference_is_hyperbolic(self, data):
        tower = data.draw(st.sampled_from(KEY_TOWERS))
        f = data.draw(built_forms(tower))
        shuffled = DiagonalForm(tower, tuple(data.draw(st.permutations(f.entries))))
        g = data.draw(
            st.one_of(
                st.just(shuffled),
                st.builds(
                    lambda a: scale(shuffled, a),
                    st.sampled_from(enumerate_square_classes(tower)),
                ),
                built_forms(tower),
            )
        )
        # Witt cancellation, with -g built by the general group law
        m1 = minus_one_class(tower)
        difference = DiagonalForm(
            tower, f.entries + tuple(sq_mul(m1, e) for e in g.entries)
        )
        expected = f.dim == g.dim and reference_witt(difference).kernel_dim == 0
        assert is_isometric(f, g) == expected
        assert is_isometric(g, f) == expected


# -- Gram diagonalization properties ------------------------------------------------

GRAM_TOWERS = (
    F5,
    F5T,
    F13ST,
    FieldTower.reals("t"),
    Q,
    FieldTower.rationals("t"),
)


@st.composite
def monomials(draw, tower):
    """A nonzero c * prod v^e, small coefficient, exponents in [-2, 2]."""
    if tower.kind == "F":
        c = draw(st.integers(1, tower.p - 1))
    else:
        c = draw(st.sampled_from((1, -1, 2, -2, 3, -5, 6, Fraction(1, 7), Fraction(-3, 2))))
    exps = {v: draw(st.integers(-2, 2)) for v in tower.laurent_vars}
    return LaurentPoly.monomial(tower, c, exps)


@st.composite
def sparse_entries(draw, tower):
    """Zero about half the time, else a monomial."""
    return draw(st.one_of(st.just(LaurentPoly.zero(tower)), monomials(tower)))


def _matmul(a, b, tower):
    zero = LaurentPoly.zero(tower)
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), zero) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@st.composite
def invertible_matrices(draw, tower, n):
    """L * U with L unit lower and U upper triangular with monomial
    diagonal, rows permuted: invertible by construction."""
    zero, one = LaurentPoly.zero(tower), LaurentPoly.const(tower, 1)
    lower = [
        [draw(sparse_entries(tower)) if j < i else (one if i == j else zero) for j in range(n)]
        for i in range(n)
    ]
    upper = [
        [
            draw(sparse_entries(tower)) if j > i else (draw(monomials(tower)) if i == j else zero)
            for j in range(n)
        ]
        for i in range(n)
    ]
    t = _matmul(lower, upper, tower)
    return draw(st.permutations(t))


class TestDiagonalizeProperties:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_diagonal_gram_comes_back_in_order(self, data):
        tower = data.draw(st.sampled_from(GRAM_TOWERS))
        diag = data.draw(st.lists(monomials(tower), max_size=6))
        n = len(diag)
        gram = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        assert diagonalize(tower, gram).entries == tuple(d.square_class() for d in diag)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_congruent_grams_diagonalize_isometrically(self, data):
        tower = data.draw(st.sampled_from(GRAM_TOWERS))
        n = data.draw(st.integers(1, 3))
        gram = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = data.draw(sparse_entries(tower))
        t = data.draw(invertible_matrices(tower, n))
        t_transposed = [list(col) for col in zip(*t)]
        congruent = _matmul(t_transposed, _matmul(gram, t, tower), tower)
        try:
            f = diagonalize(tower, gram)
        except Degenerate:
            with pytest.raises(Degenerate):
                diagonalize(tower, congruent)
            return
        assert is_isometric(diagonalize(tower, congruent), f)


# -- square classes of Laurent polynomials --------------------------------------------


def reference_square_class(x):
    """The recursive extraction: the terms of lowest outer order form a
    unit one tower down, whose class is found the same way."""
    tower = x.tower
    if not tower.laurent_vars:
        ((_, c),) = x.terms
        return canonical_square_class(tower, c)
    v = min(e[-1] for e, _ in x.terms)
    inner = tower.inner()
    unit = reference_square_class(
        LaurentPoly(inner, tuple((e[:-1], c) for e, c in x.terms if e[-1] == v))
    )
    return SquareClass(tower, unit.base, unit.mask | (v & 1) << len(inner.laurent_vars))


@st.composite
def laurent_polys(draw):
    """A nonzero sum of up to five monomials over a tower of 0-3 variables."""
    names = ("r", "s", "t")[: draw(st.integers(0, 3))]
    kind = draw(st.sampled_from("FQR"))
    if kind == "F":
        tower = FieldTower("F", draw(st.sampled_from((3, 7, 13))), names, draw(st.sampled_from((1, 2))))
    else:
        tower = FieldTower(kind, None, names)
    poly = LaurentPoly.zero(tower)
    for _ in range(draw(st.integers(1, 5))):
        poly = poly + draw(monomials(tower))
    return poly


class TestSquareClassOfPolynomials:
    @given(laurent_polys())
    @settings(max_examples=300, deadline=None)
    def test_flat_lead_term_matches_the_recursion(self, x):
        if not x.is_zero:
            assert x.square_class() == reference_square_class(x)


# -- isotropic vectors from the Witt pass -----------------------------------------------


@st.composite
def prime_monomials(draw):
    """Monomial coefficients over F_p with 0-2 variables, p small or large."""
    p = draw(st.sampled_from((3, 7, 13, 1000003, 2**61 - 1)))
    tower = FieldTower.prime(p, *("s", "t")[: draw(st.integers(0, 2))])
    coeffs = []
    for _ in range(draw(st.integers(1, 6))):
        c = draw(st.integers(1, p - 1))
        exps = {v: draw(st.integers(-3, 3)) for v in tower.laurent_vars}
        coeffs.append(LaurentPoly.monomial(tower, c, exps))
    return tower, coeffs


class TestIsotropicVector:
    @given(prime_monomials())
    @settings(max_examples=300, deadline=None)
    def test_vector_iff_isotropic_and_exact(self, case):
        tower, coeffs = case
        x = isotropic_vector(tower, coeffs)
        f = DiagonalForm(tower, tuple(c.square_class() for c in coeffs))
        assert (x is not None) == is_isotropic(f)
        if x is not None:
            assert any(not xi.is_zero for xi in x)
            total = LaurentPoly.zero(tower)
            for c, xi in zip(coeffs, x):
                total = total + c * xi * xi
            assert total.is_zero

    def test_ternary_run_gets_the_least_solution(self):
        # <1,1,1> over F7: no isotropic pair, since -1 is not a square; the
        # first solution in lexicographic order is (1, 2, 3): 1 + 4 + 9 = 14
        tower = FieldTower.prime(7)
        x = isotropic_vector(tower, [LaurentPoly.const(tower, 1)] * 3)
        assert [str(xi) for xi in x] == ["1", "2", "3"]

    def test_runs_are_gated_and_lifted(self):
        # the mask-0 run <1,1> over F7 is anisotropic; the s-run <s, -s^3>
        # is isotropic and lifts (1, 1) by s^0 and s^-1
        tower = FieldTower.prime(7, "s")
        coeffs = [
            LaurentPoly.const(tower, 1),
            LaurentPoly.const(tower, 1),
            LaurentPoly.variable(tower, "s"),
            LaurentPoly.monomial(tower, -1, {"s": 3}),
        ]
        x = isotropic_vector(tower, coeffs)
        assert [str(xi) for xi in x] == ["0", "0", "1", "s^-1"]
