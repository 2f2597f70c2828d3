"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import itertools
import random
import time

from wittforge.algebras import (
    algebra_from_slots,
    cayley_dickson,
    composition_defect,
    is_split,
    quaternion,
)
from wittforge.arithq import (
    Place,
    REAL_PLACE,
    global_isotropy,
    global_isotropy_certificate,
    hilbert_symbol,
    local_isotropy,
    ramification_set,
)
from wittforge.errors import NoSplit, UnsupportedDelta
from wittforge.fields import (
    FieldTower,
    canonical_square_class,
    enumerate_square_classes,
    minus_one_class,
    nonresidue_class,
    one_class,
    sq_mul,
    var_class,
)
from wittforge.laurent import LaurentPoly
from wittforge.oracles import (
    base_change,
    find_defect_witness,
    rational_witness_search,
    truncated_witness_search,
    verify_rational_witness,
)
from wittforge.qform import (
    DiagonalForm,
    diagonalize,
    splits_over_quadratic,
    is_hyperbolic,
    is_isometric,
    is_isotropic,
    negate,
    orthogonal_sum,
    pfister,
    pfister_slot_witness,
    witt_decompose,
)
from wittforge.tori import (
    ComparisonReport,
    CubicObstructionReport,
    TypeReport,
    compare_torus_systems,
    cubic_obstruction_report,
    splitting_profile,
    trace_form_gram,
    type_report,
)

Q = FieldTower.rationals()
F5T = FieldTower.prime(5, "t")
F13ST = FieldTower.prime(13, "s", "t")
RTS = FieldTower.reals("t", "s")


def _generators(tower):
    if tower.kind == "F":
        head = [nonresidue_class(tower)]
    else:
        head = [minus_one_class(tower)]
    return head + [var_class(tower, v) for v in tower.laurent_vars]


def _finish(label, limit, t0):
    elapsed = time.time() - t0
    print(f"[PASS] {label} ({elapsed:.1f}s, limit {limit}s)")
    assert elapsed < limit, f"{label} exceeded {limit}s"


def test_criterion_1_pure_subform_equivalences():
    t0 = time.time()
    checked = 0
    for tower in (F5T, F13ST, RTS):
        gens = _generators(tower)
        nonsquares = [c for c in enumerate_square_classes(tower) if not c.is_one]
        for n in (2, 3):
            for slots in itertools.product(gens, repeat=n):
                phi = pfister(tower, slots)
                for delta in nonsquares:
                    splits = splits_over_quadratic(tower, slots, delta)
                    # (iii): a slot presentation exists iff the form splits
                    try:
                        witness = pfister_slot_witness(tower, slots, delta)
                        assert witness[0] == delta
                        assert is_isometric(pfister(tower, witness), phi)
                        has_witness = True
                    except NoSplit:
                        has_witness = False
                    assert splits == has_witness
                    # (i): direct base change where the extension is modelled
                    try:
                        upstairs = base_change(phi, delta)
                    except UnsupportedDelta:
                        upstairs = None
                    if upstairs is not None:
                        assert splits == is_hyperbolic(upstairs)
                    checked += 1
    assert checked == (12 * 3) + (36 * 7) + (36 * 7)
    _finish(f"criterion 1: pure-subform splitting equivalences ({checked} cases)", 60, t0)


def test_criterion_2_springer_against_series_search():
    t0 = time.time()
    classes = enumerate_square_classes(F5T)
    total = 0
    for dim in (1, 2, 3, 4):
        for entries in itertools.product(classes, repeat=dim):
            f = DiagonalForm(F5T, entries)
            witness = truncated_witness_search(f, precision=4)
            assert (witness is not None) == is_isotropic(f), f
            total += 1
    assert total == 4 + 16 + 64 + 256
    _finish(f"criterion 2: Springer vs 4-term series search ({total} forms)", 60, t0)


def test_criterion_3_local_global():
    t0 = time.time()
    values = [n for n in range(-30, 31) if n != 0]
    for a, b in itertools.product(values, repeat=2):
        prod = hilbert_symbol(a, b, REAL_PLACE)
        support = set()
        for n in (2 * abs(a) * abs(b),):
            d = 2
            while d * d <= n:
                if n % d == 0:
                    support.add(d)
                    while n % d == 0:
                        n //= d
                d += 1
            if n > 1:
                support.add(n)
        for p in sorted(support):
            prod *= hilbert_symbol(a, b, Place(p))
        assert prod == 1
    rng = random.Random(20260810)
    entries_pool = [n for n in range(-50, 51) if n != 0]
    sampled = 0
    for _ in range(520):
        dim = rng.randint(1, 4)
        raw = [rng.choice(entries_pool) for _ in range(dim)]
        f = DiagonalForm(Q, tuple(canonical_square_class(Q, e) for e in raw))
        if global_isotropy(f):
            w = rational_witness_search(raw)
            assert w is not None, raw
            assert verify_rational_witness(raw, w)
            assert max(abs(x) for x in w) <= 10**4
        else:
            ok, place = global_isotropy_certificate(f)
            assert not ok and place is not None
            assert not local_isotropy(f, place)
        sampled += 1
    assert sampled >= 500
    _finish(
        f"criterion 3: Hilbert product formula (3600 pairs) + {sampled} global verdicts",
        120,
        t0,
    )


def test_criterion_4_theorem_replay_at_surrogate_scale():
    t0 = time.time()
    u, s, t = nonresidue_class(F13ST), var_class(F13ST, "s"), var_class(F13ST, "t")
    C = cayley_dickson(quaternion(F13ST, u, s), t)
    assert not is_split(C)
    target = pfister(F13ST, (t, u, s))
    assert sorted(C.norm.entries) == sorted(target.entries)
    assert is_isometric(C.norm, target)
    nonsquares = {c for c in enumerate_square_classes(F13ST) if not c.is_one}
    assert splitting_profile(C) == nonsquares and len(nonsquares) == 7

    tp = LaurentPoly.variable(F13ST, "t")
    zero = LaurentPoly.zero(F13ST)
    three = LaurentPoly.const(F13ST, 3)
    gram = trace_form_gram(F13ST, (-tp, zero, zero), 1)
    assert gram == [[three, zero, zero], [zero, zero, 3 * tp], [zero, 3 * tp, zero]]
    diag = diagonalize(F13ST, gram)
    assert is_isometric(
        diag,
        DiagonalForm(F13ST, (one_class(F13ST), one_class(F13ST), minus_one_class(F13ST))),
    )

    for d in sorted(nonsquares):
        rep = cubic_obstruction_report(C, d)
        assert rep.verdict == "inadmissible"
        assert not any(row.contradiction for row in rep.evidence)
    _finish("criterion 4: main-theorem replay over F13((s))((t))", 60, t0)


def test_criterion_5_anisotropic_kernel_dimension():
    t0 = time.time()
    cases = [
        (FieldTower.prime(5, "t1", "t2"), 2, lambda tw: [nonresidue_class(tw)]),
        (
            FieldTower.prime(13, "s", "t1", "t2"),
            3,
            lambda tw: [nonresidue_class(tw), var_class(tw, "s")],
        ),
    ]
    for tower, n, base_slots in cases:
        slots0 = base_slots(tower)
        t1, t2 = var_class(tower, "t1"), var_class(tower, "t2")
        phi1 = pfister(tower, tuple(slots0) + (t1,))
        phi2 = pfister(tower, tuple(slots0) + (t2,))
        assert phi1.dim == 2**n == phi2.dim
        assert not is_isotropic(phi1) and not is_isotropic(phi2)
        w = witt_decompose(orthogonal_sum(phi1, negate(phi2)))
        assert w.kernel_dim == 2**n
        assert not is_isotropic(w.kernel)
    _finish("criterion 5: kernel of phi1 perp -phi2 has dimension 2^n", 10, t0)


def test_criterion_6_composition_suite():
    t0 = time.time()
    rng = random.Random(606)

    def rand_elt(A, polynomial):
        coords = []
        for _ in range(A.dim):
            poly = LaurentPoly.const(A.tower, rng.randint(-3, 3))
            if polynomial:
                for v in A.tower.laurent_vars:
                    if rng.random() < 0.35:
                        poly = poly + LaurentPoly.monomial(
                            A.tower, rng.randint(-2, 2), {v: 1}
                        )
            coords.append(poly)
        return A.element(coords)

    m1 = canonical_square_class(Q, -1)
    u, s, t = nonresidue_class(F13ST), var_class(F13ST, "s"), var_class(F13ST, "t")
    towers_slots = [
        (Q, [(m1,), (m1, m1), (m1, m1, m1)], False),
        (F13ST, [(u,), (u, s), (u, s, t)], True),
    ]
    for tower, slot_lists, polynomial in towers_slots:
        for slots in slot_lists:
            A = algebra_from_slots(tower, slots)
            for _ in range(100):
                x, y = rand_elt(A, polynomial), rand_elt(A, polynomial)
                assert composition_defect(x, y).is_zero
            if A.dim == 8:
                for _ in range(25):
                    x, y = rand_elt(A, polynomial), rand_elt(A, polynomial)
                    assert (x * (x * y)).coords == ((x * x) * y).coords

    S = algebra_from_slots(Q, (m1, m1, m1, m1))
    got = find_defect_witness(S)
    assert got is not None and not got[2].is_zero
    _finish("criterion 6: composition law, alternativity, dim-16 defect", 60, t0)


def test_criterion_7_genus_suite():
    t0 = time.time()
    slots = [1, -1, 2, -2, 3, -3, 5, -5, 7, -7]
    pairs = [(a, b) for a in slots for b in slots]
    ram = {pair: ramification_set(*pair) for pair in pairs}
    from wittforge.tori import genus_equal_rational

    assert genus_equal_rational((-1, -1), (-1, -2))
    assert not genus_equal_rational((-1, -1), (-1, -3))
    for qa in pairs:
        assert genus_equal_rational(qa, qa)
        for qb in pairs:
            expected = ram[qa] == ram[qb]
            assert genus_equal_rational(qa, qb) == expected
            assert genus_equal_rational(qb, qa) == expected
    # transitivity via partition into ramification classes
    classes = {}
    for pair, r in ram.items():
        classes.setdefault(r, []).append(pair)
    for members in classes.values():
        for qa, qb in zip(members, members[1:]):
            assert genus_equal_rational(qa, qb)
    _finish(f"criterion 7: genus over Q on {len(pairs)} quaternion pairs", 60, t0)


def test_criterion_8_comparison_reports():
    t0 = time.time()
    u, s, t = nonresidue_class(F13ST), var_class(F13ST, "s"), var_class(F13ST, "t")
    one = one_class(F13ST)
    division = [
        algebra_from_slots(F13ST, (u, s, t)),
        algebra_from_slots(F13ST, (sq_mul(u, s), s, t)),
        algebra_from_slots(F13ST, (u, s, sq_mul(u, t))),
    ]
    split = [
        algebra_from_slots(F13ST, (one, s, t)),
        algebra_from_slots(F13ST, (u, u, s)),
    ]
    u5, t5 = nonresidue_class(F5T), var_class(F5T, "t")
    split5 = [algebra_from_slots(F5T, (u5, t5, sq_mul(u5, t5)))]
    for C in division + split:
        assert is_split(C) == (C in split)
    for C in division + split + split5:
        rep = compare_torus_systems(C, C)
        assert rep.verdict == "equivalent"
        assert ComparisonReport.from_json(rep.to_json()).to_json() == rep.to_json()
        tr = type_report(C)
        assert TypeReport.from_json(tr.to_json()).to_json() == tr.to_json()
    for C in division:
        for S in split:
            rep = compare_torus_systems(C, S)
            assert rep.verdict == "not equivalent"
            assert ComparisonReport.from_json(rep.to_json()).to_json() == rep.to_json()
    obs = cubic_obstruction_report(division[0], u)
    assert CubicObstructionReport.from_json(obs.to_json()).to_json() == obs.to_json()
    _finish("criterion 8: torus-system comparison and JSON round-trips", 30, t0)
