import dataclasses
import hashlib
import itertools
import json
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge.algebras import (
    AlgebraElement,
    algebra_from_slots,
    cayley_dickson,
    composition_defect,
    is_split,
    quaternion,
    zero_divisor_pair,
)
from wittforge import algebras, qform
from wittforge.arithq import Place, rational_invariants
from wittforge.cli import run_command
from wittforge.errors import (
    AlgebraMismatch,
    DimTooLarge,
    ExponentOutOfRange,
    InternalInconsistency,
    UnknownVariable,
    UnrepresentableClass,
    UnsupportedDim,
)
from wittforge.fields import (
    FieldTower,
    SquareClass,
    canonical_square_class,
    enumerate_square_classes,
    minus_one_class,
    nonresidue_class,
    one_class,
    var_class,
)
from wittforge.laurent import EXP_LIMIT, LaurentPoly, _key, _reduce_raw
from wittforge.oracles import find_defect_witness
from wittforge.qform import DiagonalForm, WittDecomposition, is_isotropic, pfister, tensor, witt_decompose
from wittforge.tori import (
    PureCubicGalois,
    QuadTimes,
    Split3,
    TorusType,
    compare_torus_systems,
    cubic_obstruction_report,
    type_report,
)

Q = FieldTower.rationals()
F13S = FieldTower.prime(13, "s")
F13ST = FieldTower.prime(13, "s", "t")


def _algebra_caches():
    return [
        fn
        for fn in vars(algebras).values()
        if hasattr(fn, "cache_clear") and fn.__module__ == algebras.__name__
    ]


@pytest.fixture(autouse=True)
def cold_algebra_caches():
    """Every test starts and ends with empty ``algebras`` memos: the
    fault-injection tests patch names the memoized helpers call
    (``LaurentPoly.of_class``), so a warm memo would hide the fault, and a
    poisoned entry left behind would leak into later tests."""
    for fn in _algebra_caches():
        fn.cache_clear()
    yield
    for fn in _algebra_caches():
        fn.cache_clear()


def qc(c):
    return canonical_square_class(Q, c)


def hamilton():
    return quaternion(Q, qc(-1), qc(-1))


def division_octonion_k():
    u = nonresidue_class(F13ST)
    s = var_class(F13ST, "s")
    t = var_class(F13ST, "t")
    return cayley_dickson(quaternion(F13ST, u, s), t)


def random_element(A, rng, polynomial=False):
    coords = []
    for _ in range(A.dim):
        if polynomial and A.tower.laurent_vars:
            poly = LaurentPoly.const(A.tower, rng.randint(-2, 2))
            for v in A.tower.laurent_vars:
                if rng.random() < 0.4:
                    poly = poly + LaurentPoly.monomial(
                        A.tower, rng.randint(-2, 2), {v: 1}
                    )
            coords.append(poly)
        else:
            coords.append(LaurentPoly.const(A.tower, rng.randint(-4, 4)))
    return A.element(coords)


class TestQuaternion:
    def test_hamilton_is_division_with_definite_norm(self):
        H = hamilton()
        assert H.norm.entries == (one_class(Q),) * 4
        assert not is_split(H)

    def test_defining_relations(self):
        H = hamilton()
        one, i, j, k = (H.basis(n) for n in range(4))
        assert (i * i).coords == (-one).coords
        assert (j * j).coords == (-one).coords
        assert (i * j).coords == k.coords
        assert (j * i).coords == (-k).coords

    def test_split_with_zero_divisor(self):
        S = quaternion(Q, one_class(Q), qc(5))
        assert is_split(S)
        # (1 + i)(1 - i) = 1 - i^2 = 0 when i^2 = 1
        one, i = S.basis(0), S.basis(1)
        prod = (one + i) * (one - i)
        assert prod.is_zero
        pair = zero_divisor_pair(S)
        assert pair is not None
        assert not pair[0].is_zero and not pair[1].is_zero
        assert (pair[0] * pair[1]).is_zero

    def test_division_over_laurent_base(self):
        u, s = nonresidue_class(F13S), var_class(F13S, "s")
        D = quaternion(F13S, u, s)
        assert not is_split(D)
        assert zero_divisor_pair(D) is None


class TestCayleyDickson:
    def test_octonion_over_q(self):
        O = cayley_dickson(hamilton(), qc(-1))
        assert O.dim == 8
        assert O.norm.entries == (one_class(Q),) * 8
        assert not is_split(O)

    def test_norm_is_binary_tensor_norm(self):
        u, s = nonresidue_class(F13ST), var_class(F13ST, "s")
        t = var_class(F13ST, "t")
        QK = quaternion(F13ST, u, s)
        C = cayley_dickson(QK, t)
        assert C.norm == tensor(pfister(F13ST, (t,)), QK.norm)

    def test_new_unit_squares_to_slot(self):
        C = division_octonion_k()
        uu = C.basis(4)
        sq = uu * uu
        assert str(sq.coords[0]) == "t"
        assert all(c.is_zero for c in sq.coords[1:])

    def test_sixteen_dim_negative_control(self):
        S = algebra_from_slots(Q, (qc(-1),) * 4)
        assert S.dim == 16
        with pytest.raises(UnsupportedDim):
            is_split(S)
        with pytest.raises(DimTooLarge):
            cayley_dickson(S, qc(-1))
        got = find_defect_witness(S)
        assert got is not None
        x, y, defect = got
        assert not defect.is_zero
        assert composition_defect(x, y) == defect

    def test_nonresidue_slot_over_degree_two_base(self):
        # every prime-field constant is a square in F25, so no structure
        # constant has the class u
        tower = FieldTower("F", 5, ("t",), 2)
        with pytest.raises(UnrepresentableClass):
            algebra_from_slots(tower, (nonresidue_class(tower), var_class(tower, "t")))
        with pytest.raises(UnrepresentableClass):
            LaurentPoly.of_class(nonresidue_class(tower))

    def test_mismatch(self):
        H = hamilton()
        D = quaternion(Q, qc(-1), qc(-2))
        with pytest.raises(AlgebraMismatch):
            H.basis(1) * D.basis(1)


class TestElements:
    def test_conj_involution_and_trace(self):
        rng = random.Random(3)
        C = division_octonion_k()
        for _ in range(20):
            x = random_element(C, rng, polynomial=True)
            assert x.conj().conj().coords == x.coords
            tr = x.trace()
            assert tr == x.coords[0] + x.coords[0]

    def test_rank_two_identity(self):
        # x^2 - trace(x) x + norm(x) = 0
        rng = random.Random(4)
        for A in (hamilton(), division_octonion_k()):
            one = A.one()
            for _ in range(15):
                x = random_element(A, rng, polynomial=True)
                lhs = x * x - x * x.trace() + one * x.norm()
                assert lhs.is_zero

    def test_norm_form_evaluation_matches_product_norm(self):
        rng = random.Random(5)
        for A in (hamilton(), division_octonion_k()):
            for _ in range(25):
                x = random_element(A, rng, polynomial=True)
                assert (x.norm() - x.norm_form_value()).is_zero
            for i, e in enumerate(A.norm.entries):
                assert A.norm_coeffs[i].square_class() == e

    def test_composition_law_random(self):
        rng = random.Random(6)
        for slots in [(qc(-1),), (qc(-1), qc(-1)), (qc(-1), qc(-1), qc(-1))]:
            A = algebra_from_slots(Q, slots)
            for _ in range(30):
                x, y = random_element(A, rng), random_element(A, rng)
                assert composition_defect(x, y).is_zero

    def test_associativity_dim_4_and_alternativity_dim_8(self):
        rng = random.Random(7)
        H = hamilton()
        for _ in range(20):
            x, y, z = (random_element(H, rng) for _ in range(3))
            assert ((x * y) * z).coords == (x * (y * z)).coords
        O = cayley_dickson(hamilton(), qc(-1))
        for _ in range(20):
            x, y = random_element(O, rng), random_element(O, rng)
            assert (x * (x * y)).coords == ((x * x) * y).coords
            assert ((y * x) * x).coords == (y * (x * x)).coords

    def test_octonions_not_associative(self):
        O = cayley_dickson(hamilton(), qc(-1))
        e1, e2, e4 = O.basis(1), O.basis(2), O.basis(4)
        assert ((e1 * e2) * e4).coords != (e1 * (e2 * e4)).coords


def _table_with_n_e1_of_class(s):
    """``_index_rule_table`` with gamma_11 = -s, so that the diagonal gives
    N(e_1) the class of s instead of -c_1."""
    good = algebras._index_rule_table

    def bad_table(tower, slots):
        table = [list(row) for row in good(tower, slots)]
        (table[1][1],) = (-LaurentPoly.of_class(s)).terms
        return tuple(tuple(row) for row in table)

    return bad_table


class TestSplitDetection:
    def test_split_iff_norm_isotropic(self):
        # F13((s))((t)) decides on the symbol; Q((s)) and a tower of more
        # than SYMBOL_VARS variables have none and decide on the Witt pass
        wide = FieldTower.prime(13, *(f"x{i}" for i in range(qform.SYMBOL_VARS - 1)), "s", "t")
        for tower in (F13ST, wide):
            u, s = nonresidue_class(tower), var_class(tower, "s")
            t = var_class(tower, "t")
            for slots in [(u, s), (u, t), (one_class(tower), s), (u, u), (u, s, t)]:
                A = algebra_from_slots(tower, slots)
                assert (A.symbol is None) == (tower is wide)
                assert is_split(A) == is_isotropic(A.norm)
        QS = FieldTower.rationals("s")
        for a, b in [(2, 3), (-1, -1), (1, 5), (-1, 7)]:
            A = quaternion(QS, canonical_square_class(QS, a), canonical_square_class(QS, b))
            assert A.symbol is None
            assert is_split(A) == is_isotropic(A.norm)

    def test_division_octonion(self):
        C = division_octonion_k()
        assert not is_split(C)
        assert C.norm == pfister(F13ST, C.slots)

    def test_zero_divisor_search_on_split_towers(self):
        u = nonresidue_class(F13ST)
        s, t = var_class(F13ST, "s"), var_class(F13ST, "t")
        for slots in [(one_class(F13ST), s), (u, u), (u, s, s)]:
            A = algebra_from_slots(F13ST, slots)
            if A.dim in (2, 4, 8) and is_split(A):
                pair = zero_divisor_pair(A)
                assert pair is not None
                assert (pair[0] * pair[1]).is_zero
                assert not pair[0].is_zero and not pair[1].is_zero

    def test_zero_divisors_over_large_prime_fields(self):
        # <<u,u>> has no isotropic pair when p = 3 mod 4, so the witness
        # comes from the ternary solution; a p^3 search would not finish
        for p in (1000003, 2**61 - 1):
            tower = FieldTower.prime(p)
            u = nonresidue_class(tower)
            x, y = zero_divisor_pair(quaternion(tower, u, u))
            assert (x * y).is_zero and not x.is_zero

    def test_zero_divisor_pair_checks_the_witness(self, monkeypatch):
        A = algebra_from_slots(F13ST, (one_class(F13ST), var_class(F13ST, "s")))
        assert zero_divisor_pair(A) is not None
        not_a_witness = [LaurentPoly.const(F13ST, 1)] + [LaurentPoly.zero(F13ST)] * 3
        monkeypatch.setattr(
            algebras, "isotropic_vector", lambda tower, coeffs: not_a_witness
        )
        with pytest.raises(InternalInconsistency):
            zero_divisor_pair(A)

    def test_table_is_checked_against_the_pfister_norm(self, monkeypatch):
        u, s = nonresidue_class(F13ST), var_class(F13ST, "s")
        monkeypatch.setattr(algebras, "_index_rule_table", _table_with_n_e1_of_class(s))
        A = quaternion(F13ST, u, s)
        with pytest.raises(InternalInconsistency):
            A.gamma

    def test_table_check_after_every_octonion_table(self, monkeypatch):
        # the injection of test_table_is_checked_against_the_pfister_norm,
        # after every octonion table over F13((s))((t)) has been built and
        # checked, with the slot-term, row-layout and fold memos warm
        classes = enumerate_square_classes(F13ST)
        for slots in itertools.product(classes, repeat=3):
            algebra_from_slots(F13ST, slots).gamma
        u, s = nonresidue_class(F13ST), var_class(F13ST, "s")
        quaternion(F13ST, u, s).gamma
        monkeypatch.setattr(algebras, "_index_rule_table", _table_with_n_e1_of_class(s))
        A = quaternion(F13ST, u, s)
        with pytest.raises(InternalInconsistency):
            A.gamma

    @pytest.mark.parametrize(
        "tower, factor",
        [(F13ST, 2), (FieldTower.reals("s", "t"), -1), (FieldTower.rationals("t"), 2)],
        ids=str,
    )
    def test_diagonal_base_class_is_checked(self, monkeypatch, tower, factor):
        # N(e_1) keeps its exponent parities, but its coefficient times a
        # nonsquare constant (u = 2 mod 13, -1, 2) moves its base class only
        good = algebras._index_rule_table
        slots = (minus_one_class(tower), var_class(tower, tower.outer_var))

        def scaled(by):
            def table(tower, slots):
                rows = [list(row) for row in good(tower, slots)]
                e, c = rows[1][1]
                rows[1][1] = (e, c * by)
                return tuple(tuple(row) for row in rows)

            return table

        # a square factor leaves every class, and so the check, as it was
        monkeypatch.setattr(algebras, "_index_rule_table", scaled(factor * factor))
        A = quaternion(tower, *slots)
        assert A.norm == pfister(tower, slots)
        A.gamma
        monkeypatch.setattr(algebras, "_index_rule_table", scaled(factor))
        A = quaternion(tower, *slots)
        with pytest.raises(InternalInconsistency, match="Pfister codes"):
            A.gamma

    def test_structure_constants_must_be_signed_monomials(self, monkeypatch):
        # slot "monomials" c + 1 give slot products of several terms
        of_class = LaurentPoly.of_class
        u, s = nonresidue_class(F13ST), var_class(F13ST, "s")
        monkeypatch.setattr(LaurentPoly, "of_class", classmethod(lambda cls, x: of_class(x) + 1))
        with pytest.raises(InternalInconsistency, match="signed monomials"):
            quaternion(F13ST, u, s)


class TestTableOnFirstUse:
    """The constructor checks the slots; the norm form and the table are
    built on their first read, the table checked against the norm's
    folded codes."""

    def test_a_product_builds_no_norm_form(self):
        # the table is checked on the folded codes, so neither the table nor
        # a product reads the norm form; a later read builds it
        u, s, t = nonresidue_class(F13ST), var_class(F13ST, "s"), var_class(F13ST, "t")
        for slots in ((u, s), (u, s, t), (one_class(F13ST), s, t)):
            A = algebra_from_slots(F13ST, slots)
            assert not (A.basis(1) * A.basis(2)).is_zero
            A.norm_coeffs
            assert "norm" not in vars(A)
            assert A.norm == pfister(F13ST, slots)

    def test_a_bad_table_raises_from_every_reader(self, monkeypatch, capsys):
        u, s = nonresidue_class(F13ST), var_class(F13ST, "s")
        monkeypatch.setattr(algebras, "_index_rule_table", _table_with_n_e1_of_class(s))
        A = quaternion(F13ST, u, s)
        x, y = A.basis(1), A.basis(2)
        readers = [
            lambda: A.gamma,
            lambda: x * y,
            lambda: A.norm_coeffs,
            x.norm_form_value,
            lambda: zero_divisor_pair(A),
        ]
        for read in readers:
            for _ in range(2):
                with pytest.raises(InternalInconsistency, match="Pfister codes"):
                    read()
        assert not {"gamma", "_gamma", "norm_coeffs"} & set(vars(A))
        argv = ["alg-build", "--field", "F13((s))((t))", "--slots", "u,s"]
        for _ in range(2):
            assert run_command(argv + ["--mul", "(0,1,0,0)", "(0,0,1,0)"]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert "error: InternalInconsistency" in err and "Traceback" not in err

    def test_the_obstruction_sweep_builds_no_table(self, monkeypatch):
        # the 168 division octonions over F13((s))((t)): slot masks
        # linearly independent over F_2, each with the 7 nonsquare d; no
        # slot product may be computed
        def forbidden(*args):
            raise AssertionError("the sweep built a slot product")

        monkeypatch.setattr(algebras, "_slot_products", forbidden)
        classes = enumerate_square_classes(F13ST)
        division = []
        for a, b, c in itertools.product(range(8), repeat=3):
            if a == 0 or b in (0, a) or c in (0, a, b, a ^ b):
                continue
            A = algebra_from_slots(F13ST, (classes[a], classes[b], classes[c]))
            assert not is_split(A)
            for d in classes[1:]:
                assert cubic_obstruction_report(A, d).verdict == "inadmissible"
            division.append(A)
        assert len(division) == 168
        assert not any("gamma" in vars(A) for A in division)
        assert not any("norm" in vars(A) for A in division)
        assert all(A.norm == pfister(F13ST, A.slots) for A in division)


# -- the product against the doubling formula on halves ------------------------------
#
# The reference works on plain {exps: coeff} dicts read off ``.terms``, with its
# own sums and products (reduced mod p, or kept as Fractions), so it shares no
# arithmetic with the library's product kernel.


def _reduced(tower, c):
    return c % tower.p if tower.kind == "F" else Fraction(c)


def _nonzero(tower, raw):
    return {e: c for e, c in ((e, _reduced(tower, c)) for e, c in raw.items()) if c}


def _add(tower, f, g):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    return _nonzero(tower, out)


def _mul(tower, f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _nonzero(tower, out)


def _conj(tower, x):
    return [x[0]] + [_nonzero(tower, {e: -c for e, c in v.items()}) for v in x[1:]]


def reference_product(tower, slots, x, y):
    """Cayley-Dickson doubling on coordinate halves, recursively:
    (a, b)(z, w) = (a z + c conj(w) b,  w a + b conj(z)) with u^2 = c the
    last slot, and the ground field's product at the bottom."""
    if not slots:
        return [_mul(tower, x[0], y[0])]
    h = len(x) // 2
    inner, c = slots[:-1], dict(LaurentPoly.of_class(slots[-1]).terms)
    a, b, z, w = x[:h], x[h:], y[:h], y[h:]
    cwb = reference_product(tower, inner, _conj(tower, w), b)
    first = [
        _add(tower, u, _mul(tower, c, v))
        for u, v in zip(reference_product(tower, inner, a, z), cwb)
    ]
    second = [
        _add(tower, u, v)
        for u, v in zip(
            reference_product(tower, inner, w, a),
            reference_product(tower, inner, b, _conj(tower, z)),
        )
    ]
    return first + second


Q_SLOT_VALUES = (-1, 2, -3, 5, 6, -7, 10, Fraction(1, 3))
QT = FieldTower.rationals("t")
RT = FieldTower.reals("t")
F25T = FieldTower("F", 5, ("t",), 2)


def _slots(tower):
    if tower.kind == "Q":
        return st.builds(
            lambda v, e: canonical_square_class(tower, v, {x: e for x in tower.laurent_vars}),
            st.sampled_from(Q_SLOT_VALUES),
            st.integers(0, 1),
        )
    # over F25 only classes with base 1 have a monomial representative
    classes = [c for c in enumerate_square_classes(tower) if tower.degree == 1 or c.base == 1]
    return st.sampled_from(classes)


@st.composite
def algebra_and_pair(draw):
    """Slots over F13((s))((t)), F25((t)), Q, Q((t)) or R((t)) for dimension
    2, 4, 8 or 16, and two elements with sparse Laurent coordinates."""
    tower = draw(st.sampled_from((F13ST, F25T, Q, QT, RT)))
    if tower.kind == "F":
        coeff = st.integers(1, tower.p - 1)
    else:
        coeff = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)))
    slots = tuple(draw(st.lists(_slots(tower), min_size=1, max_size=4)))
    A = algebra_from_slots(tower, slots)

    def poly():
        out = LaurentPoly.zero(tower)
        for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
            exps = {v: draw(st.integers(-2, 2)) for v in tower.laurent_vars}
            out = out + LaurentPoly.monomial(tower, draw(coeff), exps)
        return out

    x = A.element([poly() for _ in range(A.dim)])
    y = A.element([poly() for _ in range(A.dim)])
    return A, x, y


def reference_double(tower, table, c):
    """Cayley-Dickson doubling of a structure-constant table, the recursive
    way: with d = len(table) and e_(i + d) = e_i u, u^2 = c,

        (a,0)(b,0) = (ab, 0)         (a,0)(0,b) = (0, ba)
        (0,a)(b,0) = (0, a conj(b))  (0,a)(0,b) = (c conj(b) a, 0),

    entries as {exps: coeff} dicts with this file's own arithmetic."""
    d = len(table)
    cm = dict(LaurentPoly.of_class(c).terms)
    out = []
    for i in range(2 * d):
        bi, ii = divmod(i, d)
        row = []
        for j in range(2 * d):
            bj, jj = divmod(j, d)
            sign = 1 if jj == 0 else -1  # conj(e_jj) = sign * e_jj
            if bi == 0 and bj == 0:
                row.append(table[ii][jj])
            elif bi == 0:
                row.append(table[jj][ii])
            elif bj == 0:
                row.append(_nonzero(tower, {e: sign * v for e, v in table[ii][jj].items()}))
            else:
                signed_c = {e: sign * v for e, v in cm.items()}
                row.append(_mul(tower, signed_c, table[jj][ii]))
        out.append(row)
    return out


def reference_tables(tower, slot_tuples):
    """{slots: doubled table} for every tuple, each prefix doubled once."""
    one = {(0,) * len(tower.laurent_vars): 1}
    tables = {(): [[one]]}
    for slots in sorted(set(slot_tuples), key=len):
        for k in range(1, len(slots) + 1):
            if slots[:k] not in tables:
                tables[slots[:k]] = reference_double(tower, tables[slots[: k - 1]], slots[k - 1])
    return {slots: tables[slots] for slots in slot_tuples}


F7RST = FieldTower.prime(7, "r", "s", "t")


class TestIndexRule:
    """e_i e_j = omega(i, j) * prod_(k in i & j) c_k * e_(i xor j) gives the
    tables that recursive doubling gives."""

    def _check(self, tower, slot_tuples):
        for slots, expected in reference_tables(tower, slot_tuples).items():
            A = algebra_from_slots(tower, slots)
            # a negative sign stays on gamma's unreduced coefficient
            got = [[((e, _reduced(tower, c)),) for e, c in row] for row in A.gamma]
            assert got == [[tuple(sorted(v.items())) for v in row] for row in expected], slots

    def test_every_slot_tuple_up_to_dim_16_over_f13st(self):
        classes = enumerate_square_classes(F13ST)
        self._check(
            F13ST, [s for k in range(5) for s in itertools.product(classes, repeat=k)]
        )

    def test_seeded_slot_tuples(self):
        rng = random.Random(13)
        q_classes = [canonical_square_class(QT, v, {"t": e}) for v in Q_SLOT_VALUES for e in (0, 1)]
        for tower, classes in (
            (QT, q_classes),
            (RT, enumerate_square_classes(RT)),
            (F7RST, enumerate_square_classes(F7RST)),
        ):
            tuples = [tuple(rng.choice(classes) for _ in range(rng.randint(0, 4))) for _ in range(60)]
            self._check(tower, tuples)


class TestNormFromSlotCodes:
    """The norm is the Pfister form of the slots, and N(e_i) is the
    product of the -c_k over the slots k of i."""

    def _check(self, tower, slot_tuples):
        one = LaurentPoly.const(tower, 1)
        for slots in slot_tuples:
            A = algebra_from_slots(tower, slots)
            assert A.norm == pfister(tower, slots), slots
            diagonal = [A.gamma[i][i] for i in range(A.dim)]
            eager = tuple(
                _reduce_raw(tower, [{_key(e): -c if i else c} for i, (e, c) in enumerate(diagonal)])
            )
            assert A.norm_coeffs == eager
            minus_c = [-LaurentPoly.of_class(c) for c in slots]
            products = []
            for i in range(A.dim):
                x = one
                for k, m in enumerate(minus_c):
                    if i >> k & 1:
                        x = x * m
                products.append(x)
            assert [c.terms for c in A.norm_coeffs] == [x.terms for x in products], slots

    @pytest.mark.parametrize(
        "tower",
        [F13ST, F7RST, FieldTower.reals("s", "t"), F25T],
        ids=str,
    )
    def test_every_slot_tuple_up_to_octonions(self, tower):
        # over F25 only classes with base 1 have a monomial representative
        classes = [c for c in enumerate_square_classes(tower) if tower.degree == 1 or c.base == 1]
        self._check(tower, [s for k in range(4) for s in itertools.product(classes, repeat=k)])

    @pytest.mark.parametrize("tower", [Q, QT], ids=str)
    def test_seeded_slot_tuples_over_q(self, tower):
        rng = random.Random(41)
        values = Q_SLOT_VALUES + (-1, 3, 15, -30, Fraction(7, 12))
        tuples = [
            tuple(
                canonical_square_class(
                    tower, rng.choice(values), {v: rng.randint(-1, 2) for v in tower.laurent_vars}
                )
                for _ in range(rng.randint(0, 3))
            )
            for _ in range(300)
        ]
        self._check(tower, tuples)

    def test_of_class_is_the_canonical_monomial(self):
        q_classes = [
            canonical_square_class(QT, v, {"t": e}) for v in Q_SLOT_VALUES for e in (0, 1)
        ]
        towers = (F13ST, F7RST, FieldTower.reals("s", "t"), F25T, Q, FieldTower.prime(3))
        classes = q_classes + [c for t in towers if t.is_enumerable for c in enumerate_square_classes(t)]
        for c in classes:
            if c.tower.degree == 2 and c.base != 1:
                with pytest.raises(UnrepresentableClass):
                    LaurentPoly.of_class(c)
                continue
            got = LaurentPoly.of_class(c)
            expected = LaurentPoly.monomial(c.tower, c.base, {v: 1 for v in c.odd_vars})
            assert got == expected, c
            assert [type(x) for _, x in got.terms] == [type(x) for _, x in expected.terms]
            assert got.square_class() == c


def _seeded_tuples(rng, classes, count=60):
    return [tuple(rng.choice(classes) for _ in range(rng.randint(0, 4))) for _ in range(count)]


def _prefix_memo_cases():
    rng = random.Random(29)
    q_classes = [canonical_square_class(QT, v, {"t": e}) for v in Q_SLOT_VALUES for e in (0, 1)]
    f13st = enumerate_square_classes(F13ST)
    return [
        (F13ST, [s for k in range(5) for s in itertools.product(f13st, repeat=k)]),
        (QT, _seeded_tuples(rng, q_classes)),
        (RT, _seeded_tuples(rng, enumerate_square_classes(RT))),
        (F7RST, _seeded_tuples(rng, enumerate_square_classes(F7RST))),
    ]


class TestPrefixMemo:
    """An algebra built through warm memos (slot terms, row layouts,
    Pfister folds, filled by the algebras on its prefixes, by the ones
    after it, or by itself) is the one built from empty memos."""

    @pytest.mark.parametrize(
        "tower, tuples",
        _prefix_memo_cases(),
        ids=lambda x: str(x) if isinstance(x, FieldTower) else f"{len(x)}-tuples",
    )
    def test_warm_prefix_equals_cold(self, tower, tuples):
        built = {}
        for slots in tuples:
            A = algebra_from_slots(tower, slots)
            built[slots] = A.gamma, A.norm
        for fn in _algebra_caches():
            fn.cache_clear()
        for slots in reversed(tuples):
            A = algebra_from_slots(tower, slots)
            assert (A.gamma, A.norm) == built[slots], slots
        for slots in tuples:
            for fn in _algebra_caches():
                fn.cache_clear()
            A = algebra_from_slots(tower, slots)
            assert (A.gamma, A.norm) == built[slots], slots

    @pytest.mark.parametrize("tower", [F13ST, F7RST], ids=str)
    def test_doubling_a_built_algebra(self, tower):
        classes = enumerate_square_classes(tower)
        for slots in (s for k in range(3) for s in itertools.product(classes, repeat=k)):
            A = algebra_from_slots(tower, slots)
            for c in classes:
                D = cayley_dickson(A, c)
                E = algebra_from_slots(tower, slots + (c,))
                assert D == E and (D.gamma, D.norm) == (E.gamma, E.norm), (slots, c)


class TestReferenceProduct:
    @given(algebra_and_pair())
    @settings(max_examples=200, deadline=None)
    def test_product_matches_doubling_on_halves(self, case):
        A, x, y = case
        expected = reference_product(
            A.tower, A.slots, [dict(c.terms) for c in x.coords], [dict(c.terms) for c in y.coords]
        )
        assert [c.terms for c in (x * y).coords] == [tuple(sorted(v.items())) for v in expected]

    def test_seeded_octonions_over_three_variables(self):
        """Octonion products over F7((r))((s))((t)), with dense coordinates
        and negative exponents, against doubling on halves."""
        rng = random.Random(7)
        classes = enumerate_square_classes(F7RST)

        def coords():
            return [
                {
                    tuple(rng.randint(-2, 2) for _ in F7RST.laurent_vars): rng.randint(1, 6)
                    for _ in range(rng.randint(0, 3))
                }
                for _ in range(8)
            ]

        for _ in range(40):
            slots = tuple(rng.choice(classes) for _ in range(3))
            A = algebra_from_slots(F7RST, slots)
            xc, yc = coords(), coords()
            x, y = (
                A.element([LaurentPoly(F7RST, tuple(sorted(v.items()))) for v in c])
                for c in (xc, yc)
            )
            expected = reference_product(F7RST, slots, xc, yc)
            assert [c.terms for c in (x * y).coords] == [tuple(sorted(v.items())) for v in expected]
            assert composition_defect(x, y).is_zero

    @given(algebra_and_pair())
    @settings(max_examples=100, deadline=None)
    def test_element_times_its_conjugate_cancels_to_its_norm(self, case):
        A, x, _ = case
        prod = x * x.conj()
        assert all(c.is_zero for c in prod.coords[1:])
        assert prod.coords[0] == x.norm() == x.norm_form_value()


# -- the flat product against a schoolbook one, by the index rule ---------------------


def reference_sign_table(n):
    """omega(i, j) for n slots by the doubling formula run over signs,
    recursively: the new slot is the high bit, and conj(e_jj) = -e_jj unless
    jj = 0."""
    if n == 0:
        return ((1,),)
    w = reference_sign_table(n - 1)
    d = len(w)
    table = []
    for i in range(2 * d):
        bi, ii = divmod(i, d)
        row = []
        for j in range(2 * d):
            bj, jj = divmod(j, d)
            sign = 1 if jj == 0 else -1  # conj(e_jj) = sign * e_jj
            if bi == 0 and bj == 0:
                row.append(w[ii][jj])
            elif bi == 0:
                row.append(w[jj][ii])  # (a,0)(0,b) = (0, b a)
            elif bj == 0:
                row.append(sign * w[ii][jj])  # (0,a)(b,0) = (0, a conj(b))
            else:
                row.append(sign * w[jj][ii])  # (0,a)(0,b) = (c conj(b) a, 0)
        table.append(tuple(row))
    return tuple(table)


def schoolbook_product(tower, slots, x, y):
    """sum over every pair of terms of x_i * y_j * omega(i, j) *
    prod_(k in i & j) c_k at e_(i xor j), with the recursive sign table and
    this file's own dict arithmetic; no library product is called."""
    w = reference_sign_table(len(slots))
    cs = [dict(LaurentPoly.of_class(c).terms) for c in slots]
    zero = (0,) * len(tower.laurent_vars)
    out = [{} for _ in x]
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            g = {zero: w[i][j]}
            for k, ck in enumerate(cs):
                if (i & j) >> k & 1:
                    g = _mul(tower, g, ck)
            out[i ^ j] = _add(tower, out[i ^ j], _mul(tower, _mul(tower, xi, yj), g))
    return [tuple(sorted(v.items())) for v in out]


def _random_coords(tower, rng, dim, terms=(0, 1, 1, 2, 3)):
    if tower.kind == "F":
        coeffs = range(1, tower.p)
    else:
        coeffs = (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3))
    coords = []
    for _ in range(dim):
        raw = {}
        for _ in range(rng.choice(terms)):
            e = tuple(rng.randint(-3, 3) for _ in tower.laurent_vars)
            raw[e] = raw.get(e, 0) + rng.choice(coeffs)
        coords.append(_nonzero(tower, raw))
    return coords


def _as_element(A, coords):
    return A.element([LaurentPoly(A.tower, tuple(sorted(v.items()))) for v in coords])


RST = FieldTower.reals("s", "t")


def _slot_classes(tower):
    if tower.kind == "Q":
        return [canonical_square_class(tower, v, {"t": e}) for v in Q_SLOT_VALUES for e in (0, 1)]
    return enumerate_square_classes(tower)


def _value_samples() -> dict:
    """One value of each of the package's 19 value classes, by class name.
    The element lives in an algebra of its own, so that no report leaves
    anything in the instance dict its pickle carries."""
    u, s, t = nonresidue_class(F13ST), var_class(F13ST, "s"), var_class(F13ST, "t")
    element = algebra_from_slots(F13ST, (u, s)).element([LaurentPoly.variable(F13ST, "t"), 3, 0, 0])
    C = algebra_from_slots(F13ST, (u, s, t))
    split = algebra_from_slots(F13ST, (one_class(F13ST), s, t))
    form = DiagonalForm(F13ST, (one_class(F13ST), s, u * t))
    obstruction = cubic_obstruction_report(C, u * s)
    types = type_report(C)
    comparison = compare_torus_systems(C, split)
    return {
        "FieldTower": F13ST,
        "SquareClass": u * s,
        "LaurentPoly": LaurentPoly.variable(F13ST, "s", -2) + 3,
        "AlgebraElement": element,
        "Place": Place(5),
        "RationalInvariants": rational_invariants(DiagonalForm(Q, tuple(SquareClass(Q, a) for a in (1, 3, -5, 7)))),
        "DiagonalForm": form,
        "WittDecomposition": witt_decompose(form),
        "Split3": Split3(),
        "QuadTimes": QuadTimes(t),
        "PureCubicGalois": PureCubicGalois("t"),
        "TorusType": TorusType(s, QuadTimes(u)),
        "LambdaRow": obstruction.lambda_rows[1],
        "EvidenceRow": obstruction.evidence[5],
        "CubicObstructionReport": obstruction,
        "TypeVerdict": types.rows[9],
        "TypeReport": types,
        "ComparisonRow": comparison.rows[3],
        "ComparisonReport": comparison,
    }


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _value_digests() -> dict:
    """Per sample: its repr (a digest when longer than 80 characters) and
    a digest of its pickle, as a fresh process prints them."""
    out = {}
    for name, value in _value_samples().items():
        text = repr(value)
        out[name] = [text if len(text) <= 80 else _digest(text.encode()), _digest(pickle.dumps(value, protocol=4))]
    return out


# Recorded from the frozen dataclasses that the value classes replaced:
# per class, the repr (or its digest) and the pickle digest of its sample
# in a fresh process, and its field names, which are also the instance
# dict's keys, in order, right after the constructor.
RECORDED_VALUES = {
    "FieldTower": ["FieldTower(kind='F', p=13, laurent_vars=('s', 't'), degree=1)", "d9da7fa7e9cb3c9c", ["kind", "p", "laurent_vars", "degree", "_hash"]],
    "SquareClass": ["u*s", "32cab9ef8b5eb08b", ["tower", "base", "mask", "code"]],
    "LaurentPoly": ["s^-2+3", "30fa83d6c3a2250c", ["tower", "terms"]],
    "AlgebraElement": ["(t, 3, 0, 0)", "35dd10bd55511a40", ["algebra", "coords"]],
    "Place": ["5", "2eecb228ad290087", ["p"]],
    "RationalInvariants": ["8d4bc5ad41bc956d", "b1c6073780278b09", ["dim", "disc", "hasse_minus", "signature"]],
    "DiagonalForm": ["[1,s,u*t]", "c9f8b09eb4ef158a", ["tower", "entries", "key"]],
    "WittDecomposition": ["2acc741e550ece7d", "e7dd85ec5ed12c01", ["witt_index", "kernel_dim", "kernel", "kernel_invariants", "witt_class"]],
    "Split3": ["Split3()", "7e5b649b467197b3", []],
    "QuadTimes": ["QuadTimes(delta=t)", "b538e0da7f2bd79b", ["delta"]],
    "PureCubicGalois": ["PureCubicGalois(var='t')", "e96f43449a3a9c11", ["var"]],
    "TorusType": ["TorusType(quad=s, cubic=QuadTimes(delta=u))", "1712086b96f3b6e3", ["quad", "cubic"]],
    "LambdaRow": ["2a2032d433aba4ca", "25d74efd4b58be55", ["r", "unit", "norm_class", "norm_is_square", "lambda_is_square"]],
    "EvidenceRow": ["eecdd5dbac7c5eaa", "399f3cbf0be6fe6d", ["b", "c", "norm_matches", "trace_isometric", "contradiction"]],
    "CubicObstructionReport": ["213bf45d63e74a56", "401c9584e0b8f698", ["tower", "slots", "d", "verdict", "lambda_rows", "gram", "trace_diagonal", "evidence"]],
    "TypeVerdict": ["ac9cff98deb40933", "ab11822596507adf", ["tau", "verdict", "reason"]],
    "TypeReport": ["b376e84d26cc5c68", "3c4dbff17c5f19be", ["tower", "slots", "rows", "admissible"]],
    "ComparisonRow": ["4c94169c3ce8fa27", "c71582760ec26409", ["tau", "verdict1", "verdict2"]],
    "ComparisonReport": ["a493d2963342bdb8", "afa72b6324835999", ["tower", "slots1", "slots2", "rows", "verdict"]],
}


class TestFlatProduct:
    """The product is one pass over pairs of terms and one reduction of all
    the coordinates; it must give what the schoolbook sum over pairs gives,
    and build frozen values that behave as constructor-built ones."""

    @pytest.mark.parametrize("n", range(5))
    def test_closed_form_sign_equals_the_recursive_table(self, n):
        w = reference_sign_table(n)
        d = 1 << n
        assert [[algebras._sign(i, j) for j in range(d)] for i in range(d)] == [list(r) for r in w]

    @pytest.mark.parametrize("tower", (F13ST, F7RST, RST, QT), ids=str)
    def test_seeded_products_match_the_schoolbook_sum(self, tower):
        rng = random.Random(f"flat-product:{tower}")
        classes = _slot_classes(tower)
        for n in (2, 3, 4):
            for _ in range(6 if n < 4 else 2):
                slots = tuple(rng.choice(classes) for _ in range(n))
                A = algebra_from_slots(tower, slots)
                xc, yc = (_random_coords(tower, rng, A.dim) for _ in range(2))
                got = _as_element(A, xc) * _as_element(A, yc)
                assert [c.terms for c in got.coords] == schoolbook_product(tower, slots, xc, yc), slots
                if tower.kind != "F":  # over Q and R the reduction keeps Fractions
                    assert all(type(c) is Fraction for f in got.coords for _, c in f.terms)

    @pytest.mark.parametrize("tower", (F13ST, QT), ids=str)
    def test_products_whose_coordinates_cancel(self, tower):
        rng = random.Random(f"flat-cancel:{tower}")
        classes = _slot_classes(tower)
        for n in (2, 3, 4):
            slots = tuple(rng.choice(classes) for _ in range(n))
            A = algebra_from_slots(tower, slots)
            # e_1 e_2 = -e_2 e_1, so coordinate 3 of (e_1 + e_2)^2 cancels
            x = A.basis(1) + A.basis(2)
            xx = x * x
            assert xx.coords[3].is_zero and not xx.coords[0].is_zero
            coords = [dict(c.terms) for c in x.coords]
            assert [c.terms for c in xx.coords] == schoolbook_product(tower, slots, coords, coords)
            # x conj(x) cancels to its norm in every coordinate but the first
            y = _as_element(A, _random_coords(tower, rng, A.dim, terms=(1, 2)))
            assert all(c.is_zero for c in (y * y.conj()).coords[1:])
            assert (A.element([0] * A.dim) * y).is_zero
        # a zero divisor pair multiplies to zero in every coordinate
        split = algebra_from_slots(F13ST, (one_class(F13ST), var_class(F13ST, "s"), var_class(F13ST, "t")))
        x, y = zero_divisor_pair(split)
        assert all(c.terms == () for c in (x * y).coords)

    @pytest.mark.parametrize("tower", (F13ST, QT), ids=str)
    def test_a_coordinate_at_the_limit_raises(self, tower):
        A = algebra_from_slots(tower, (_slot_classes(tower)[1],) * 2)
        ok = A.element([1, 2, 0, 1])
        for e in (EXP_LIMIT, -EXP_LIMIT):
            m = LaurentPoly.monomial(tower, 3, {tower.laurent_vars[-1]: e})
            far = A.element([0, m, 0, 0])
            for op in (lambda: far * ok, lambda: ok * far, lambda: far * far, far.norm_form_value):
                with pytest.raises(ExponentOutOfRange, match=str(EXP_LIMIT)):
                    op()

    def test_element_coerces_what_is_not_a_polynomial_over_the_tower(self):
        A = division_octonion_k()
        same = FieldTower.prime(13, "s", "t")  # equal to F13ST, another object
        s = LaurentPoly.variable(F13ST, "s")
        t = LaurentPoly.variable(same, "t")
        x = A.element([s, t, 3, var_class(F13ST, "s"), 0, 0, 0, 0])
        assert x.coords[0] is s and x.coords[1] is t
        assert x.coords[2] == LaurentPoly.const(F13ST, 3) and x.coords[3] == s
        with pytest.raises(UnknownVariable):
            A.element([LaurentPoly.variable(F13S, "s")] + [0] * 7)

    def test_values_are_frozen_and_behave_as_constructor_built_ones(self):
        A = division_octonion_k()
        rng = random.Random("flat-frozen")
        x = _as_element(A, _random_coords(F13ST, rng, 8, terms=(1, 2)))
        y = A.element([LaurentPoly.variable(F13ST, "s"), 3] + [0] * 6)
        for value in (x, y, x * y):
            built = AlgebraElement(A, tuple(LaurentPoly(F13ST, c.terms) for c in value.coords))
            assert list(vars(value)) == ["algebra", "coords"]
            for c, b in zip(value.coords + (-value.coords[0],), built.coords + (-built.coords[0],)):
                assert list(vars(c)) == ["tower", "terms"]
                assert c == b and hash(c) == hash(b) and str(c) == str(b) and repr(c) == repr(b)
                assert pickle.dumps(c) == pickle.dumps(b) and pickle.loads(pickle.dumps(c)) == b
                for field in ("tower", "terms"):
                    with pytest.raises(dataclasses.FrozenInstanceError):
                        setattr(c, field, None)
            assert value == built and hash(value) == hash(built)
            assert str(value) == str(built) and repr(value) == repr(built)
            assert pickle.dumps(value) == pickle.dumps(built) and pickle.loads(pickle.dumps(value)) == built
            for field in ("algebra", "coords"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, field, None)
        assert [f.name for f in dataclasses.fields(LaurentPoly)] == ["tower", "terms"]
        assert [f.name for f in dataclasses.fields(AlgebraElement)] == ["algebra", "coords"]
        # every value class: frozen, and built, compared, hashed, printed and
        # pickled as the frozen dataclass it replaced
        samples = _value_samples()
        assert sorted(samples) == sorted(RECORDED_VALUES) and len(samples) == 19
        for name, value in samples.items():
            cls = type(value)
            fields = dataclasses.fields(cls)
            names = RECORDED_VALUES[name][2]
            assert cls.__name__ == name and [f.name for f in fields] == names
            built = cls(**{f.name: getattr(value, f.name) for f in fields if f.init})
            assert list(vars(built)) == names
            assert built == value and not built != value and hash(built) == hash(value)
            assert repr(built) == repr(value) and value.__eq__(object()) is NotImplemented
            if cls is not WittDecomposition:  # which compares witt_class only when nothing else is kept
                assert hash(value) == hash(tuple(getattr(value, f.name) for f in fields if f.compare))
            assert pickle.loads(pickle.dumps(value)) == value
            for field in names + ["unknown"]:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, field, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(value, field)
        # reprs and pickles as a fresh process prints them (caches of other
        # tests decide which equal objects are shared, and so the pickles)
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join([str(Path(algebras.__file__).resolve().parents[1]), str(tests)])
        flags = ["-O"] if sys.flags.optimize else []
        code = "import json, test_algebras; print(json.dumps(test_algebras._value_digests()))"
        out = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout) == {k: v[:2] for k, v in RECORDED_VALUES.items()}
        # the shared constructor takes every field, by position or by name, once
        t = var_class(F13ST, "t")
        assert QuadTimes(delta=t) == QuadTimes(t) and vars(QuadTimes(delta=t)) == {"delta": t}
        for args, kwargs in [((), {}), ((t, t), {}), ((t,), {"delta": t}), ((), {"d": t})]:
            with pytest.raises(TypeError):
                QuadTimes(*args, **kwargs)
        # replace reads the fields and calls the constructor with keywords
        w = samples["WittDecomposition"]
        assert dataclasses.replace(w) == w and dataclasses.replace(w, witt_index=2) != w
        rational = WittDecomposition(1, 2, None, samples["RationalInvariants"])
        assert dataclasses.replace(rational, witt_class=((0, rational.kernel_invariants),)) == rational
        assert vars(dataclasses.replace(rational, witt_class=())) == {**vars(rational), "witt_class": ()}
