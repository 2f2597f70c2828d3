import dataclasses
import itertools
import random

import pytest

from wittforge import algebras, dsl, qform, tori
from wittforge.algebras import algebra_from_slots, cayley_dickson, is_split, quaternion
from wittforge.errors import (
    FieldMismatch,
    InfiniteSquareClassGroup,
    InternalInconsistency,
    LambdaNotUnit,
    NotSeparable,
    PreconditionFailed,
    UnrepresentableClass,
    UnsupportedCubic,
    UnsupportedDim,
)
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
from wittforge.qform import (
    DiagonalForm,
    diagonalize,
    is_hyperbolic,
    is_isometric,
    is_isotropic,
    orthogonal_sum,
    pfister,
    splits_over_quadratic,
    tensor,
    witt_class,
    witt_decompose,
)
from wittforge.tori import (
    ComparisonReport,
    PureCubicGalois,
    QuadTimes,
    Split3,
    TorusType,
    TypeReport,
    admits_type,
    compare_torus_systems,
    cubic_obstruction_report,
    genus_equal_rational,
    splitting_profile,
    torus_type_catalog,
    trace_form_gram,
    type_report,
)

Q = FieldTower.rationals()
F13 = FieldTower.prime(13)
F13T = FieldTower.prime(13, "t")
F13S = FieldTower.prime(13, "s")
F5T = FieldTower.prime(5, "t")
F13ST = FieldTower.prime(13, "s", "t")
F7ST = FieldTower.prime(7, "s", "t")
F7RST = FieldTower.prime(7, "r", "s", "t")
F13RST = FieldTower.prime(13, "r", "s", "t")


def _tori_caches():
    return [
        fn
        for fn in vars(tori).values()
        if hasattr(fn, "cache_clear") and fn.__module__ == tori.__name__
    ]


@pytest.fixture(autouse=True)
def cold_tori_caches():
    """Every test starts and ends with empty ``tori`` memos: the
    fault-injection tests patch names the memoized helpers call, so a
    warm memo would hide the fault, and a poisoned entry left behind
    would leak into later tests."""
    for fn in _tori_caches():
        fn.cache_clear()
    yield
    for fn in _tori_caches():
        fn.cache_clear()


def pfister_symbol(tower, slots):
    """The symbol of <<slots>>, read off the slot codes."""
    return qform._symbol(tower, tuple(a.code for a in slots))


def pure_part(tower, slots):
    """The complement of the leading <1> in the Pfister form <<slots>>."""
    return DiagonalForm(tower, pfister(tower, slots).entries[1:])


def unit_plus_t3(tower, diagonalize=diagonalize):
    """<1> + t3, t3 the trace form of K[x]/(x^3 - t), built as a form."""
    zero = LaurentPoly.zero(tower)
    minus_t = -LaurentPoly.variable(tower, tower.outer_var)
    t3 = diagonalize(tower, trace_form_gram(tower, (minus_t, zero, zero)))
    return orthogonal_sum(DiagonalForm(tower, (one_class(tower),)), t3)


def step_d_target(tower, d):
    """The Witt class of the step (d) target <<d>> x (<1> + t3), from forms."""
    return witt_class(tensor(pfister(tower, (d,)), unit_plus_t3(tower)))


def _inject_anisotropic_t3(monkeypatch):
    """Make step (d) fail: ``tori.diagonalize`` gives t3 with its first
    entry <3> scaled by the nonresidue u, so <1> + t3 is <1,3u> + H, not
    hyperbolic where -3 is a square.  The lambda rows and the algebra's
    symbol are left as they are, so the division check passes and only
    the per-tower step (d) check can fail; the ``tori`` memos, cleared
    around every test, hold no real t3."""
    real = tori.diagonalize

    def skewed(tower, gram):
        first, *rest = real(tower, gram).entries
        return DiagonalForm(tower, (sq_mul(first, nonresidue_class(tower)), *rest))

    monkeypatch.setattr(tori, "diagonalize", skewed)


def division_octonion():
    u, s, t = nonresidue_class(F13ST), var_class(F13ST, "s"), var_class(F13ST, "t")
    return cayley_dickson(quaternion(F13ST, u, s), t)


class TestCatalog:
    def test_f5t_sixteen_types(self):
        cat = torus_type_catalog(F5T)
        assert len(cat) == 16  # 4 quadratic x (split3 + 3 quad_times)
        assert not any(isinstance(t.cubic, PureCubicGalois) for t in cat)

    def test_f13st_includes_pure_cubic(self):
        cat = torus_type_catalog(F13ST)
        pure = [t for t in cat if isinstance(t.cubic, PureCubicGalois)]
        assert len(cat) == 72 and len(pure) == 8
        assert all(t.cubic.var == "t" for t in pure)

    def test_rationals_rejected(self):
        with pytest.raises(InfiniteSquareClassGroup):
            torus_type_catalog(Q)

    def test_a_catalog_past_the_row_bound_is_refused(self, monkeypatch):
        # 40 variables would list 2^41 classes: refused before any is listed
        def refuse(tower):
            raise AssertionError("classes listed")

        wide = FieldTower.prime(7, *(f"x{i}" for i in range(40)))
        u, x1, x39 = nonresidue_class(wide), var_class(wide, "x1"), var_class(wide, "x39")
        C = algebra_from_slots(wide, (u, x1, x39))
        monkeypatch.setattr(tori, "enumerate_square_classes", refuse)
        with pytest.raises(PreconditionFailed, match=str(tori.CATALOG_ROWS)):
            type_report(C)
        with pytest.raises(PreconditionFailed):
            compare_torus_systems(C, C)
        # nine variables (1,049,600 rows) are refused too
        with pytest.raises(PreconditionFailed, match="1049600 rows"):
            torus_type_catalog(FieldTower.prime(7, *(f"x{i}" for i in range(9))))

    def test_pure_cubic_invariant(self):
        with pytest.raises(ValueError):
            TorusType(one_class(F5T), PureCubicGalois("t"))  # 5 != 1 mod 3
        with pytest.raises(ValueError):
            TorusType(one_class(F13ST), PureCubicGalois("s"))  # not outermost


class TestSplittingProfile:
    def test_split_algebra_has_full_profile(self):
        s, t = var_class(F13ST, "s"), var_class(F13ST, "t")
        C = algebra_from_slots(F13ST, (one_class(F13ST), s, t))
        assert is_split(C)
        prof = splitting_profile(C)
        assert len(prof) == 7

    def test_quaternion_u_t_over_f5t(self):
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        A = quaternion(F5T, u, t)
        prof = splitting_profile(A)
        assert prof == {u, t, sq_mul(u, t)}

    def test_division_octonion_full_profile(self):
        C = division_octonion()
        prof = splitting_profile(C)
        nonsquares = {c for c in enumerate_square_classes(F13ST) if not c.is_one}
        assert prof == nonsquares

    def test_one_pfister_fold_per_profile(self, monkeypatch):
        # the slots are folded once for all 31 nonsquare d over
        # F7((q))((r))((s))((t)): one fold per profile, no repeat
        tower = FieldTower.prime(7, "q", "r", "s", "t")
        classes = enumerate_square_classes(tower)
        C = algebra_from_slots(tower, (classes[3], classes[10], classes[21]))
        folds = []
        fold = qform._pfister_codes
        monkeypatch.setattr(qform, "_pfister_codes", lambda *a: folds.append(a) or fold(*a))
        splitting_profile(C)
        assert len(folds) == 1


class TestAdmitsType:
    def test_split_admits_everything_but_pure_cubic(self):
        s, t = var_class(F13ST, "s"), var_class(F13ST, "t")
        C = algebra_from_slots(F13ST, (one_class(F13ST), s, t))
        for tau in torus_type_catalog(F13ST):
            if isinstance(tau.cubic, PureCubicGalois):
                with pytest.raises(UnsupportedCubic):
                    admits_type(C, tau)
            else:
                assert admits_type(C, tau)

    def test_division_example(self):
        C = division_octonion()
        u, s = nonresidue_class(F13ST), var_class(F13ST, "s")
        tau = TorusType(u, QuadTimes(s))
        assert admits_type(C, tau)  # splits at u and u*s

    def test_division_refuses_split_quadratic_part(self):
        C = division_octonion()
        for cubic in (Split3(), QuadTimes(var_class(F13ST, "s"))):
            assert not admits_type(C, TorusType(one_class(F13ST), cubic))

    def test_a_type_over_another_tower_is_a_field_mismatch(self):
        # the class 1 of another tower is not read as this tower's k x k
        for C in (division_octonion(), algebra_from_slots(F13ST, (one_class(F13ST),) * 3)):
            for cubic in (Split3(), QuadTimes(var_class(F13RST, "s"))):
                with pytest.raises(FieldMismatch):
                    admits_type(C, TorusType(one_class(F13RST), cubic))

    @pytest.mark.parametrize(
        "name", ["F13((s))((t))", "F7((r))((s))((t))", "R((r))((s))((t))", "F25((s))((t))"]
    )
    def test_agrees_with_the_type_report(self, name):
        """admits_type, which splits the algebra over F' and F'', agrees
        with the type report's verdict on every type of the split and
        quadratic kinds, for the first division and the first split
        algebra in slot order (over F25((s))((t)) the class u has no
        constant, so only split algebras are built)."""
        tower = dsl.parse_field(name)
        algebras = {}
        for slots in itertools.product(enumerate_square_classes(tower), repeat=3):
            try:
                A = algebra_from_slots(tower, slots)
            except UnrepresentableClass:
                continue
            algebras.setdefault(is_split(A), A)
            if len(algebras) == 2:
                break
        assert len(algebras) == (1 if name == "F25((s))((t))" else 2)
        for A in algebras.values():
            for row in type_report(A).rows:
                if not isinstance(row.tau.cubic, PureCubicGalois):
                    assert admits_type(A, row.tau) == (row.verdict == "admissible"), row

    def test_answers_over_q(self):
        # Q has no finite class group; the criterion needs only the classes
        # of the type. <<-1,-1,-1>> = 8<1> splits over Q(i) and Q(sqrt -2),
        # not over Q or the real field Q(sqrt 2).
        def qc(c):
            return canonical_square_class(Q, c)

        division = algebra_from_slots(Q, (qc(-1), qc(-1), qc(-1)))
        split = algebra_from_slots(Q, (one_class(Q), qc(2), qc(3)))
        cases = [
            (TorusType(qc(-1), Split3()), True),
            (TorusType(qc(-1), QuadTimes(qc(2))), True),
            (TorusType(one_class(Q), Split3()), False),
            (TorusType(qc(2), Split3()), False),
            (TorusType(qc(2), QuadTimes(qc(-1))), False),
        ]
        for tau, expected in cases:
            assert admits_type(division, tau) == expected
            assert admits_type(split, tau)

    def test_depends_only_on_profile_f5t_exhaustive(self):
        classes = enumerate_square_classes(F5T)
        for slots in itertools.product(classes, repeat=3):
            C = algebra_from_slots(F5T, slots)
            prof = splitting_profile(C)
            split = is_split(C)

            def from_profile(delta):
                return split if delta.is_one else delta in prof

            for tau in torus_type_catalog(F5T):
                if isinstance(tau.cubic, Split3):
                    expected = from_profile(tau.quad)
                else:
                    expected = from_profile(tau.quad) and from_profile(
                        sq_mul(tau.quad, tau.cubic.delta)
                    )
                assert admits_type(C, tau) == expected

    def test_depends_only_on_profile(self):
        u, s, t = nonresidue_class(F13ST), var_class(F13ST, "s"), var_class(F13ST, "t")
        slot_choices = [
            (u, s, t),
            (one_class(F13ST), s, t),
            (u, u, s),
            (sq_mul(u, s), s, t),
        ]
        for slots in slot_choices:
            C = algebra_from_slots(F13ST, slots)
            prof = splitting_profile(C)
            split = is_split(C)

            def from_profile(delta):
                return split if delta.is_one else delta in prof

            for tau in torus_type_catalog(F13ST):
                if isinstance(tau.cubic, PureCubicGalois):
                    continue
                if isinstance(tau.cubic, Split3):
                    expected = from_profile(tau.quad)
                else:
                    expected = from_profile(tau.quad) and from_profile(
                        sq_mul(tau.quad, tau.cubic.delta)
                    )
                assert admits_type(C, tau) == expected


class TestGenus:
    def test_examples(self):
        assert genus_equal_rational((-1, -1), (-1, -2))
        assert not genus_equal_rational((-1, -1), (-1, -3))
        assert genus_equal_rational((2, 3), (2, 3))

    def test_equivalence_relation_and_symbol_moves(self):
        slots = [-1, -2, -3, 5, 7, 1]
        pairs = [(a, b) for a in slots for b in slots]
        rng = random.Random(9)
        sample = rng.sample(pairs, 12)
        for qa in sample:
            assert genus_equal_rational(qa, qa)
            # symbol moves preserve the algebra, hence the genus
            a, b = qa
            assert genus_equal_rational(qa, (b, a))
            assert genus_equal_rational(qa, (a, -a * b))
            for qb in sample:
                assert genus_equal_rational(qa, qb) == genus_equal_rational(qb, qa)
                for qc in sample:
                    if genus_equal_rational(qa, qb) and genus_equal_rational(qb, qc):
                        assert genus_equal_rational(qa, qc)


def _f13_poly_mul(a, b):
    # multiplication in F13[x]/(x^3 - 1)
    out = [0] * 3
    for i in range(3):
        for j in range(3):
            out[(i + j) % 3] = (out[(i + j) % 3] + a[i] * b[j]) % 13
    return out


# -- the trace form the old way: traces of multiplication matrices ---------------


def _ref_ext_mul(tower, fcs, a, b):
    """Product in K[x]/(x^3 + c2 x^2 + c1 x + c0); fcs = (c0, c1, c2)."""
    zero = LaurentPoly.zero(tower)
    prod = [zero] * 5
    for i in range(3):
        for j in range(3):
            prod[i + j] = prod[i + j] + a[i] * b[j]
    for deg in (4, 3):
        c = prod[deg]
        prod[deg] = zero
        for k in range(3):
            prod[deg - 3 + k] = prod[deg - 3 + k] - c * fcs[k]
    return tuple(prod[:3])


def _ref_mult_matrix(tower, fcs, h):
    """Matrix of multiplication by h in the basis 1, x, x^2 (columns)."""
    zero, one = LaurentPoly.zero(tower), LaurentPoly.const(tower, 1)
    cols = [h]
    for _ in range(2):
        cols.append(_ref_ext_mul(tower, fcs, cols[-1], (zero, one, zero)))
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def _ref_det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def reference_trace_gram(tower, fcs, lam):
    """Tr(lam * x^i * x^j) as the trace of the multiplication matrix of the
    product, with every product taken in K[x]/(f); None if lam is not a unit."""
    if _ref_det3(_ref_mult_matrix(tower, fcs, lam)).is_zero:
        return None
    zero, one = LaurentPoly.zero(tower), LaurentPoly.const(tower, 1)
    basis = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    gram = [[zero] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            prod = _ref_ext_mul(tower, fcs, lam, _ref_ext_mul(tower, fcs, basis[i], basis[j]))
            m = _ref_mult_matrix(tower, fcs, prod)
            gram[i][j] = m[0][0] + m[1][1] + m[2][2]
    return gram


def _coerce3(tower, values):
    return tuple(LaurentPoly.const(tower, v) for v in values)


def _seeded_poly(rng, tower):
    """A sparse Laurent polynomial: 0 to 2 terms, exponents in [-1, 1]."""
    out = LaurentPoly.zero(tower)
    for _ in range(rng.choice((0, 1, 1, 2))):
        c = rng.randint(1, tower.p - 1) if tower.kind == "F" else rng.choice((1, -1, 2, -3))
        exps = {v: rng.randint(-1, 1) for v in tower.laurent_vars}
        out = out + LaurentPoly.monomial(tower, c, exps)
    return out


class TestTraceForm:
    def test_ramified_cubic_gram_matches_expected(self):
        t = LaurentPoly.variable(F13ST, "t")
        zero = LaurentPoly.zero(F13ST)
        gram = trace_form_gram(F13ST, (-t, zero, zero), 1)
        three = LaurentPoly.const(F13ST, 3)
        expected = [[three, zero, zero], [zero, zero, 3 * t], [zero, 3 * t, zero]]
        assert gram == expected

    def test_ramified_cubic_diagonalizes_to_111m(self):
        t = LaurentPoly.variable(F13ST, "t")
        zero = LaurentPoly.zero(F13ST)
        f = diagonalize(F13ST, trace_form_gram(F13ST, (-t, zero, zero), 1))
        target = DiagonalForm(
            F13ST, (one_class(F13ST), one_class(F13ST), minus_one_class(F13ST))
        )
        assert is_isometric(f, target)

    def test_split_etale_against_idempotent_oracle(self):
        # x^3 - 1 splits over F13 with roots 1, 3, 9; the Lagrange
        # idempotents give an orthonormal Gram, so the form is <1,1,1>.
        roots = [r for r in range(13) if pow(r, 3, 13) == 1]
        assert sorted(roots) == [1, 3, 9]
        idems = []
        for r in roots:
            others = [x for x in roots if x != r]
            den = 1
            for o in others:
                den = den * (r - o) % 13
            inv = pow(den, -1, 13)
            # (x - o1)(x - o2) / den
            o1, o2 = others
            poly = [o1 * o2 % 13, (-o1 - o2) % 13, 1]
            idems.append([c * inv % 13 for c in poly])
        for i, e in enumerate(idems):
            assert _f13_poly_mul(e, e) == e
            for j in range(i + 1, 3):
                assert _f13_poly_mul(e, idems[j]) == [0, 0, 0]
        total = [sum(e[k] for e in idems) % 13 for k in range(3)]
        assert total == [1, 0, 0]
        f = diagonalize(F13, trace_form_gram(F13, (-1, 0, 0), 1))
        target = DiagonalForm(F13, (one_class(F13),) * 3)
        assert is_isometric(f, target)

    def test_basis_independence(self):
        rng = random.Random(17)
        t = LaurentPoly.variable(F13ST, "t")
        zero = LaurentPoly.zero(F13ST)
        gram = trace_form_gram(F13ST, (-t, zero, zero), 1)
        base_form = diagonalize(F13ST, gram)
        for _ in range(5):
            # random unimodular integer matrix from elementary row operations
            mat = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
            for _ in range(6):
                i, j = rng.sample(range(3), 2)
                c = rng.randint(-2, 2)
                for k in range(3):
                    mat[i][k] += c * mat[j][k]
            u = [[LaurentPoly.const(F13ST, mat[i][j]) for j in range(3)] for i in range(3)]
            transformed = [[zero for _ in range(3)] for _ in range(3)]
            for i in range(3):
                for j in range(3):
                    acc = zero
                    for k in range(3):
                        for l in range(3):
                            acc = acc + u[k][i] * gram[k][l] * u[l][j]
                    transformed[i][j] = acc
            assert is_isometric(diagonalize(F13ST, transformed), base_form)

    def test_not_separable(self):
        # x^3 - 3x + 2 = (x - 1)^2 (x + 2)
        with pytest.raises(NotSeparable):
            trace_form_gram(Q, (2, -3, 0), 1)

    def test_lambda_not_unit(self):
        # x - 1 kills the idempotent component of x^3 - 1
        with pytest.raises(LambdaNotUnit):
            trace_form_gram(F13, (-1, 0, 0), (-1, 1, 0))

    @pytest.mark.parametrize(
        "tower", [F13ST, F7RST, FieldTower.rationals("t"), FieldTower.reals("t")], ids=str
    )
    def test_power_sum_gram_matches_matrix_traces(self, tower):
        """Seeded cubics and lambdas: the gram from Newton's power sums is the
        gram of multiplication-matrix traces, entry for entry and as strings."""
        rng = random.Random(31)
        compared = 0
        for _ in range(40):
            fcs = tuple(_seeded_poly(rng, tower) for _ in range(3))
            lam = tuple(_seeded_poly(rng, tower) for _ in range(3))
            if tori.cubic_discriminant(tower, fcs).is_zero:
                with pytest.raises(NotSeparable):
                    trace_form_gram(tower, fcs, lam)
                continue
            expected = reference_trace_gram(tower, fcs, lam)
            if expected is None:
                with pytest.raises(LambdaNotUnit):
                    trace_form_gram(tower, fcs, lam)
                continue
            gram = trace_form_gram(tower, fcs, lam)
            assert gram == expected
            assert [[str(e) for e in row] for row in gram] == [
                [str(e) for e in row] for row in expected
            ]
            compared += 1
        assert compared >= 15
        # x - 1 divides x^3 - 1 over every tower: the one refusal both ways share
        f, lam = _coerce3(tower, (-1, 0, 0)), _coerce3(tower, (-1, 1, 0))
        assert reference_trace_gram(tower, f, lam) is None
        with pytest.raises(LambdaNotUnit):
            trace_form_gram(tower, (-1, 0, 0), (-1, 1, 0))


class TestJacobsonNorm:
    """The norm of the hermitian-form construction, <<d>> x <<b,c>>, is
    the Pfister form <<b,c,d>>."""

    def test_entry_set_identity(self):
        u, s, t = nonresidue_class(F13ST), var_class(F13ST, "s"), var_class(F13ST, "t")
        f = tensor(pfister(F13ST, (t,)), pfister(F13ST, (u, s)))
        assert set(f.entries) == set(pfister(F13ST, (u, s, t)).entries)

    def test_entry_set_identity_exhaustive(self):
        classes = enumerate_square_classes(F13S)
        for d, b, c in itertools.product(classes, repeat=3):
            if d.is_one:
                continue
            f = tensor(pfister(F13S, (d,)), pfister(F13S, (b, c)))
            assert set(f.entries) == set(pfister(F13S, (d, b, c)).entries)

    def test_isotropic_twisted_hermitian_part_forces_hyperbolic(self):
        # whenever <<d>> x <-b,-c,bc> is isotropic the full norm splits
        classes = enumerate_square_classes(F13S)
        hit = 0
        for d, b, c in itertools.product(classes, repeat=3):
            if d.is_one:
                continue
            part = tensor(pfister(F13S, (d,)), pure_part(F13S, (b, c)))
            if is_isotropic(part):
                assert is_hyperbolic(pfister(F13S, (b, c, d)))
                hit += 1
        assert hit > 0

    def test_hyperbolic_when_pure_part_isotropic(self):
        u, s = nonresidue_class(F13S), var_class(F13S, "s")
        f = pfister(F13S, (u, s, u))
        assert is_isotropic(pure_part(F13S, (u, u, s)))
        assert is_hyperbolic(f)


class TestCubicObstruction:
    def test_inadmissible_with_exhaustive_evidence(self):
        C = division_octonion()
        u = nonresidue_class(F13ST)
        rep = cubic_obstruction_report(C, u)
        assert rep.verdict == "inadmissible"
        assert len(rep.evidence) == 64
        matching = [row for row in rep.evidence if row.norm_matches]
        assert matching  # hermitian candidates compatible with the norm exist
        assert all(row.trace_isometric is False for row in matching)
        assert not any(row.contradiction for row in rep.evidence)
        assert all(
            row.norm_is_square == row.lambda_is_square for row in rep.lambda_rows
        )
        assert len(rep.lambda_rows) == 8  # r in {0,1} x four unit classes

    def test_preconditions(self):
        s, t = var_class(F13ST, "s"), var_class(F13ST, "t")
        split_c = algebra_from_slots(F13ST, (one_class(F13ST), s, t))
        with pytest.raises(PreconditionFailed):
            cubic_obstruction_report(split_c, nonresidue_class(F13ST))
        C = division_octonion()
        with pytest.raises(PreconditionFailed):
            cubic_obstruction_report(C, one_class(F13ST))

    def test_the_reports_build_no_norm_form(self):
        # is_split and the seven reports read the algebra's symbol, which
        # keys the report bodies; the matching Jacobson norms, whose class
        # step (d) reads as the norm's, are isometric to the norm; the norm
        # form is built only when it is read
        C = division_octonion()
        assert not is_split(C)
        norm_class = witt_class(pfister(F13ST, C.slots))
        for d in enumerate_square_classes(F13ST)[1:]:
            rep = cubic_obstruction_report(C, d)
            assert rep.verdict == "inadmissible"
            matching = [row for row in rep.evidence if row.norm_matches]
            assert matching
            for row in matching:
                assert witt_class(pfister(F13ST, (row.b, row.c, d))) == norm_class
        assert "norm" not in vars(C)
        assert vars(C)["_obstruction_symbol"] == pfister_symbol(F13ST, C.slots)
        assert C.norm == pfister(F13ST, C.slots)

    def test_the_sweep_folds_no_norm(self, monkeypatch):
        # is_split and the seven reports read the symbol kept at
        # construction: no Pfister fold, and no norm form kept
        def refuse(*args):
            raise AssertionError("Pfister slots folded")

        monkeypatch.setattr(qform, "_pfister_codes", refuse)
        monkeypatch.setattr(algebras, "_pfister_codes", refuse)
        C = division_octonion()
        assert not is_split(C)
        for d in enumerate_square_classes(F13ST)[1:]:
            cubic_obstruction_report(C, d)
        assert "norm" not in vars(C)

    def test_a_failed_precondition_raises_on_every_call(self):
        # a failed check of the algebra keeps nothing on it; once the checks
        # of the algebra pass, those of d still run on every call
        s, t = var_class(F13ST, "s"), var_class(F13ST, "t")
        F5ST = FieldTower.prime(5, "s", "t")  # no zeta_3 in F5
        failing = [
            (algebra_from_slots(F13ST, (one_class(F13ST), s, t)), "division"),
            (quaternion(F13ST, nonresidue_class(F13ST), t), "octonion"),
            (algebra_from_slots(F5ST, enumerate_square_classes(F5ST)[1:4]), "zeta_3"),
        ]
        for C, reason in failing:
            is_split(C)
            kept = dict(vars(C))
            for d in enumerate_square_classes(C.tower)[1:] * 2:
                with pytest.raises(PreconditionFailed, match=reason):
                    cubic_obstruction_report(C, d)
            assert vars(C) == kept
        C = division_octonion()
        cubic_obstruction_report(C, s)
        for _ in range(2):
            with pytest.raises(PreconditionFailed, match="nonsquare"):
                cubic_obstruction_report(C, one_class(F13ST))
            with pytest.raises(FieldMismatch):
                cubic_obstruction_report(C, var_class(F7ST, "s"))

    def test_an_obstruction_past_the_row_bound_fails_fast(self, monkeypatch):
        # <<u,x1,x_(n-1)>> at d = x0 over F7((x0))...((x_(n-1))): 9 to 16
        # variables have symbols but 4^(n+1) evidence rows, more than
        # CATALOG_ROWS, and are refused before any pair or class is listed,
        # on every call; 17 and 40 have no symbols; 8 pass the checks
        def refuse(*args):
            raise AssertionError("pairs or classes listed")

        def octonion_over(n):
            tower = FieldTower.prime(7, *(f"x{i}" for i in range(n)))
            slots = (nonresidue_class(tower), var_class(tower, "x1"), var_class(tower, f"x{n - 1}"))
            return algebra_from_slots(tower, slots), var_class(tower, "x0")

        monkeypatch.setattr(tori, "_pair_table", refuse)
        monkeypatch.setattr(tori, "enumerate_square_classes", refuse)
        for n, message in [
            (9, "1048576 evidence rows"),
            (16, "17179869184 evidence rows"),
            (17, "at most 16 Laurent variables"),
            (40, "at most 16 Laurent variables"),
        ]:
            C, d = octonion_over(n)
            for _ in range(2):
                with pytest.raises(PreconditionFailed, match=message):
                    cubic_obstruction_report(C, d)
            assert "_obstruction_symbol" not in vars(C)
        C, _ = octonion_over(8)
        assert tori._obstruction_symbol(C) == C.symbol != 0

    def test_json_roundtrip(self):
        C = division_octonion()
        rep = cubic_obstruction_report(C, var_class(F13ST, "t"))
        text = rep.to_json()
        assert type(rep).from_json(text).to_json() == text

    def test_contradicting_evidence_raises(self, monkeypatch):
        # a t3 with <1> + t3 not hyperbolic: the step (d) target is no
        # longer hyperbolic, and the per-tower check says so
        C = division_octonion()
        u = nonresidue_class(F13ST)
        _inject_anisotropic_t3(monkeypatch)
        assert not is_hyperbolic(unit_plus_t3(F13ST, tori.diagonalize))
        with pytest.raises(InternalInconsistency, match=r"<1> \+ t3 has the kernel"):
            cubic_obstruction_report(C, u)
        # type_report reads its verdict from the same rule
        with pytest.raises(InternalInconsistency, match=r"<1> \+ t3 has the kernel"):
            type_report(C)
        # and so does the comparison, through its pure-cubic rows
        with pytest.raises(InternalInconsistency, match=r"<1> \+ t3 has the kernel"):
            compare_torus_systems(C, C)

    def test_a_raise_is_not_memoized(self, monkeypatch):
        # the injection of test_contradicting_evidence_raises: no memo keeps
        # an entry for a raise, so a second call of either report raises again
        C = division_octonion()
        u = nonresidue_class(F13ST)
        _inject_anisotropic_t3(monkeypatch)
        for _ in range(2):
            with pytest.raises(InternalInconsistency):
                cubic_obstruction_report(C, u)
            with pytest.raises(InternalInconsistency):
                type_report(C)
            with pytest.raises(InternalInconsistency):
                compare_torus_systems(C, C)
        assert tori._report_body.cache_info().currsize == 0
        assert tori._tower_rows.cache_info().currsize == 0

    def test_step_d_class_comparison_matches_trace_isometry(self):
        """Step (d) as the rows record it, from the norm's symbol and the
        hyperbolic target <<d>> x (<1> + t3), agrees on every candidate
        with the direct isometry test <<d>> x t3 ~ <<d>> x pure(<<b,c>>).  Each
        candidate's row is read from the evidence rows at the class of its
        Jacobson norm built as a form, so the row must match; the rows are
        asked for once per distinct class of nonzero symbol.  A class of
        symbol 0 is the hyperbolic target: each of its candidates passes
        the direct test, and the rule raises on it, so no row is built.
        Over F13((t)) every candidate passes the direct test; the other
        towers have both outcomes.  The rows are keyed on symbols: each
        class is asked for by the symbol of its first candidate."""
        outcomes = set()
        for tower in (F13T, F13ST, F7ST, F7RST):
            zero = LaurentPoly.zero(tower)
            minus_t = -LaurentPoly.variable(tower, tower.outer_var)
            t3 = diagonalize(tower, trace_form_gram(tower, (minus_t, zero, zero)))
            classes = enumerate_square_classes(tower)
            for d in classes[1:]:
                pf_d = pfister(tower, (d,))
                lhs = tensor(pf_d, t3)
                by_class = {}
                for i, (b, c) in enumerate(itertools.product(classes, repeat=2)):
                    jnorm_class = witt_class(pfister(tower, (b, c, d)))
                    by_class.setdefault(jnorm_class, []).append((i, b, c))
                for jnorm_class, candidates in by_class.items():
                    _, b, c = candidates[0]
                    symbol = pfister_symbol(tower, (b, c, d))
                    if not symbol:
                        for _, b, c in candidates:
                            assert is_isometric(lhs, tensor(pf_d, pure_part(tower, (b, c))))
                        outcomes.add(True)
                        with pytest.raises(InternalInconsistency, match="contradicted at d"):
                            tori._cubic_verdict(tower, d.code, symbol)
                        continue
                    rows = tori._evidence_rows(tower, d.code, symbol)
                    for i, _, _ in candidates:
                        row = rows[i]
                        pure = tensor(pf_d, pure_part(tower, (row.b, row.c)))
                        direct = is_isometric(lhs, pure)
                        assert row.norm_matches, (tower, d, row)
                        assert row.trace_isometric == direct, (tower, d, row)
                        outcomes.add(direct)
        assert outcomes == {True, False}

    def test_rows_equal_a_reference_built_row_by_row(self):
        """The rows against rows written out from each candidate's Jacobson
        norm <<b,c,d>> as a form, for every nonsquare d and every Jacobson
        norm class of nonzero symbol.  One table per tower serves every
        call, so a shared unmatched row must never be read as a match.
        The reference reads Witt classes alone, the target's built as a
        form; the rows are asked for by the symbol of a Jacobson norm of
        the class.  The step (d) target is the hyperbolic class here, that
        of the isotropic <<b,c,d>>, of symbol 0: its report body raises
        before any row is built, and nothing is memoized."""
        states = set()
        for tower in (F13ST, F7ST, F7RST):
            classes = enumerate_square_classes(tower)
            pairs = list(itertools.product(classes, repeat=2))
            for d in classes[1:]:
                target = step_d_target(tower, d)
                jnorm_classes = [witt_class(pfister(tower, (b, c, d))) for b, c in pairs]
                symbols = {}
                for (b, c), jnorm_class in zip(pairs, jnorm_classes):
                    symbols.setdefault(jnorm_class, pfister_symbol(tower, (b, c, d)))
                for norm_class in dict.fromkeys(jnorm_classes + [target]):
                    if norm_class == target:
                        tables = tori._pair_table.cache_info().currsize
                        with pytest.raises(InternalInconsistency, match="contradicted at d"):
                            tori._report_body(tower, d.code, 0)
                        assert tori._report_body.cache_info().currsize == 0
                        assert tori._pair_table.cache_info().currsize == tables
                        continue
                    assert symbols[norm_class]
                    reference = []
                    for (b, c), jnorm_class in zip(pairs, jnorm_classes):
                        matches = jnorm_class == norm_class
                        iso = norm_class == target if matches else None
                        contradiction = matches and norm_class == target
                        reference.append(tori.EvidenceRow(b, c, matches, iso, contradiction))
                        states.add((matches, iso, contradiction))
                    rows = tori._evidence_rows(tower, d.code, symbols[norm_class])
                    assert rows == tuple(reference)
        assert states == {(False, None, False), (True, False, False)}

    def test_the_sweep_builds_232_rows(self, monkeypatch):
        # the 168 x 7 reports over F13((s))((t)) read 7 report bodies of 64
        # rows: the tower's 64 shared unmatched rows are built once, and
        # each body builds its own 24 matches; every unmatched row read is
        # one of the shared objects
        built = []

        def counted(*args):
            built.append(row_class(*args))
            return built[-1]

        row_class = tori.EvidenceRow
        monkeypatch.setattr(tori, "EvidenceRow", counted)
        classes = enumerate_square_classes(F13ST)
        reports = 0
        read = []
        for slots in itertools.product(classes, repeat=3):
            A = algebra_from_slots(F13ST, slots)
            if not is_split(A):
                for d in classes[1:]:
                    evidence = cubic_obstruction_report(A, d).evidence
                    assert len(evidence) == 64
                    read += [row for row in evidence if not row.norm_matches]
                    reports += 1
        assert reports == 168 * 7
        shared = {id(row) for row in built if not row.norm_matches}
        assert len(built) == 232 and len(shared) == 64
        assert sum(row.norm_matches for row in built) == 7 * 24
        assert {id(row) for row in read} == shared

    def test_reports_over_seven_variables_share_their_unmatched_rows(self):
        # 256 classes, 65,536 pairs and thousands of distinct symbols (b)(c):
        # the reports at d = x0 and x1 read the same unmatched row objects
        tower = FieldTower.prime(7, *(f"x{i}" for i in range(7)))
        slots = (nonresidue_class(tower), var_class(tower, "x1"), var_class(tower, "x6"))
        C = algebra_from_slots(tower, slots)
        first, second = (cubic_obstruction_report(C, var_class(tower, x)).evidence for x in ("x0", "x1"))
        unmatched = [(a, b) for a, b in zip(first, second) if not b.norm_matches]
        assert not any(a.norm_matches for a in first)
        assert len(unmatched) == 65_536 - 24
        assert all(a is b for a, b in unmatched)

    def test_the_report_is_written_as_its_constructor_writes_it(self):
        # the report's instance dict is written in one step, which is what
        # the constructor stores only while the class has no __post_init__
        report_class = tori.CubicObstructionReport
        assert not hasattr(report_class, "__post_init__")
        names = [f.name for f in dataclasses.fields(report_class)]
        for C, tower in ((division_octonion(), F13ST), (self._division_f7rst(), F7RST)):
            for d in enumerate_square_classes(tower)[1:]:
                rep = cubic_obstruction_report(C, d)
                built = report_class(*(getattr(rep, name) for name in names))
                assert type(rep) is report_class
                assert list(vars(rep)) == names
                assert rep == built and hash(rep) == hash(built)
                assert rep.to_json() == built.to_json()
                assert rep.to_json_dict() == built.to_json_dict()

    @staticmethod
    def _division_f7rst():
        classes = enumerate_square_classes(F7RST)
        for slots in itertools.combinations(classes[1:], 3):
            A = algebra_from_slots(F7RST, slots)
            if not is_split(A):
                return A

    def test_contradicting_lambda_row_raises(self, monkeypatch):
        C = division_octonion()
        monkeypatch.setattr(tori, "sq_mul", lambda x, y: one_class(x.tower))
        with pytest.raises(InternalInconsistency):
            cubic_obstruction_report(C, nonresidue_class(F13ST))
        with pytest.raises(InternalInconsistency):
            type_report(C)

    def test_rule_matches_the_rows(self):
        """The rule ``_cubic_verdict`` reads against the row scan, for
        every division norm class and every nonsquare d: a row matches the
        norm exactly when d splits the algebra (Lam, Ch. X), exactly when
        the norm's symbol has a presentation <<d,b,c>>, and a row
        contradicts the theorem exactly when, besides, the norm class is
        the step (d) target, built as a form.  Over two variables the one
        division class is split by every d; over three some d leave it
        division."""
        pairs, matched = 0, 0
        for tower in (F13ST, F7ST, F7RST, F13RST):
            classes = enumerate_square_classes(tower)
            division = {}
            for slots in itertools.product(classes, repeat=3):
                norm = pfister(tower, slots)
                if not is_isotropic(norm):
                    division.setdefault(witt_class(norm), slots)
            for norm_class, slots in division.items():
                symbol = pfister_symbol(tower, slots)
                for d in classes[1:]:
                    rows = tori._evidence_rows(tower, d.code, symbol)
                    splits = splits_over_quadratic(tower, slots, d)
                    assert any(r.norm_matches for r in rows) == splits, (slots, d)
                    presented = qform._presentation(tower, d.code, symbol, 3) is not None
                    assert presented == splits, (slots, d)
                    contradiction = splits and norm_class == step_d_target(tower, d)
                    assert any(r.contradiction for r in rows) == contradiction, (slots, d)
                    assert tori._cubic_verdict(tower, d.code, symbol) == "inadmissible"
                    pairs += 1
                    matched += splits
        assert 0 < matched < pairs

    @pytest.mark.parametrize(
        "name, hyperbolic",
        [
            *((name, True) for name in (
                "F13((t))", "F13((s))((t))", "F7((s))((t))", "F7((r))((s))((t))",
                "F7((q))((r))((s))((t))", "F25((s))((t))", "F121((t))",
            )),
            *((name, False) for name in ("F5((t))", "F11((s))((t))", "R((t))")),
        ],
    )
    def test_unit_plus_t3_is_hyperbolic_exactly_with_zeta3(self, name, hyperbolic):
        """<1> + t3 = <1,3> + H, built as a form, is hyperbolic (Witt index
        2) exactly over the towers with zeta_3, and has Witt index 1 and a
        kernel <1,3> of dimension 2 over the others; the per-tower step (d)
        check passes on the first and fails on the second, so it rests on
        the computed t3, not on the tower's name."""
        tower = dsl.parse_field(name)
        w = witt_decompose(unit_plus_t3(tower))
        assert (w.witt_index, w.kernel_dim) == ((2, 0) if hyperbolic else (1, 2))
        assert tower.has_zeta3() == hyperbolic
        if hyperbolic:
            assert tori._tower_rows(tower)[2] == unit_plus_t3(tower).entries[1:]
        else:
            with pytest.raises(InternalInconsistency, match=r"<1> \+ t3 has the kernel"):
                tori._tower_rows(tower)
            assert tori._tower_rows.cache_info().currsize == 0

    def test_a_hyperbolic_norm_contradicts_the_rule(self):
        # symbol 0 is a hyperbolic norm: every candidate's trace forms would
        # be isometric to the hyperbolic target's
        for tower in (F13ST, F7RST):
            for d in enumerate_square_classes(tower)[1:]:
                with pytest.raises(InternalInconsistency, match="contradicted at d"):
                    tori._cubic_verdict(tower, d.code, 0)
                assert tori._cubic_verdict(tower, d.code, 1) == "inadmissible"

    def test_type_report_builds_no_evidence(self, monkeypatch):
        """type_report reads the pure-cubic rows off the rule alone: with
        the obstruction report and its evidence tables made to raise, it
        gives the same JSON for division and split octonions."""
        classes = enumerate_square_classes(F7RST)
        triples = random.Random(5).sample(list(itertools.combinations(classes, 3)), 12)
        triples.append((one_class(F7RST), *classes[1:3]))
        algebras = [algebra_from_slots(F7RST, slots) for slots in triples]
        assert {is_split(A) for A in algebras} == {True, False}
        expected = [type_report(A).to_json() for A in algebras]
        for fn in _tori_caches():
            fn.cache_clear()

        def forbidden(*args):
            raise AssertionError("type_report built an evidence table")

        for name in ("cubic_obstruction_report", "_evidence_rows", "_pair_table"):
            monkeypatch.setattr(tori, name, forbidden)
        assert [type_report(A).to_json() for A in algebras] == expected

    def _warm_equals_cold(self, algebras, ds):
        """A report served from memos filled by other algebras equals one
        built with the per-tower and per-norm-key memos empty."""
        warm = {
            (A.slots, d): cubic_obstruction_report(A, d).to_json()
            for A in algebras
            for d in ds
        }
        for A in algebras:
            for d in ds:
                tori._tower_rows.cache_clear()
                tori._report_body.cache_clear()
                assert cubic_obstruction_report(A, d).to_json() == warm[A.slots, d]

    def test_memo_keys_over_f13st(self):
        # a seeded sample of the swept algebras, every nonsquare d
        classes = enumerate_square_classes(F13ST)
        rng = random.Random(3)
        division = []
        while len(division) < 12:
            A = algebra_from_slots(F13ST, rng.sample(classes, 3))
            if not is_split(A) and A not in division:
                division.append(A)
        self._warm_equals_cold(division, [d for d in classes if not d.is_one])

    def test_memo_keys_over_f7st(self):
        # -1 is not a square in F7, so the division norms have several keys
        classes = enumerate_square_classes(F7ST)
        algebras = [algebra_from_slots(F7ST, slots) for slots in itertools.product(classes, repeat=3)]
        division = [A for A in algebras if not is_split(A)]
        assert len({A.norm.key for A in division}) > 1
        self._warm_equals_cold(division, [d for d in classes if not d.is_one])

    def test_memo_keys_over_f7rst(self):
        # three variables: division norms that are not isometric, so the
        # evidence rows differ between norm keys for the same d
        classes = enumerate_square_classes(F7RST)
        rng = random.Random(11)
        division = []
        while len(division) < 24:
            A = algebra_from_slots(F7RST, rng.sample(classes, 3))
            if not is_split(A):
                division.append(A)
        ds = rng.sample([d for d in classes if not d.is_one], 3)
        self._warm_equals_cold(division, ds)
        matches = {
            tuple(row.norm_matches for row in cubic_obstruction_report(A, ds[0]).evidence)
            for A in division
        }
        assert len(matches) > 1

    def test_every_division_octonion_every_d_inadmissible(self):
        classes = enumerate_square_classes(F13ST)
        nonsquares = [c for c in classes if not c.is_one]
        division = 0
        for slots in itertools.product(classes, repeat=3):
            A = algebra_from_slots(F13ST, slots)
            if is_split(A):
                continue
            division += 1
            for d in nonsquares:
                assert cubic_obstruction_report(A, d).verdict == "inadmissible"
        assert division == 168
        # the division norms are all isometric here: one report body per d
        assert tori._report_body.cache_info().misses == 7


class TestCompare:
    def test_self_equivalent(self):
        C = division_octonion()
        rep = compare_torus_systems(C, C)
        assert rep.verdict == "equivalent"

    def test_split_vs_division(self):
        C = division_octonion()
        s, t = var_class(F13ST, "s"), var_class(F13ST, "t")
        S = algebra_from_slots(F13ST, (one_class(F13ST), s, t))
        rep = compare_torus_systems(C, S)
        assert rep.verdict == "not equivalent"

    def test_equal_profile_division_pair(self):
        u, s, t = nonresidue_class(F13ST), var_class(F13ST, "s"), var_class(F13ST, "t")
        C1 = division_octonion()
        C2 = algebra_from_slots(F13ST, (sq_mul(u, s), s, t))
        assert not is_split(C2)
        assert splitting_profile(C1) == splitting_profile(C2)
        rep = compare_torus_systems(C1, C2)
        assert rep.verdict == "equivalent"

    def test_field_mismatch(self):
        C = division_octonion()
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        other = algebra_from_slots(F5T, (u, t, sq_mul(u, t)))
        with pytest.raises(FieldMismatch):
            compare_torus_systems(C, other)

    def test_reports_roundtrip(self):
        C = division_octonion()
        tr = type_report(C)
        assert TypeReport.from_json(tr.to_json()).to_json() == tr.to_json()
        s, t = var_class(F13ST, "s"), var_class(F13ST, "t")
        S = algebra_from_slots(F13ST, (one_class(F13ST), s, t))
        cr = compare_torus_systems(C, S)
        assert ComparisonReport.from_json(cr.to_json()).to_json() == cr.to_json()

    @pytest.mark.parametrize(
        "tower", [F13ST, F7RST, FieldTower.reals("t")], ids=str
    )
    def test_reports_decode_to_equal_dataclasses(self, tower):
        # equal strings alone would pass a decoder that put the lambda
        # table's units over the wrong tower
        gen = nonresidue_class(tower) if tower.kind == "F" else minus_one_class(tower)
        t = var_class(tower, "t")
        C = algebra_from_slots(tower, (gen, var_class(tower, tower.laurent_vars[0]), t))
        S = algebra_from_slots(tower, (one_class(tower), gen, t))
        assert not is_split(C) and is_split(S)
        reports = [type_report(C), type_report(S), compare_torus_systems(C, S)]
        if tower.has_zeta3():
            reports += [cubic_obstruction_report(C, d) for d in (gen, t)]
        for r in reports:
            assert type(r).from_json(r.to_json()) == r
        assert len({type(r) for r in reports}) == (3 if tower.has_zeta3() else 2)

    def test_report_over_degree_two_base_roundtrips(self):
        # the field prints as F25((t)) and its catalog rows name the class u
        tower = FieldTower("F", 5, ("t",), 2)
        t = var_class(tower, "t")
        tr = type_report(algebra_from_slots(tower, [t, t, t]))
        back = TypeReport.from_json(tr.to_json())
        assert back == tr and back.to_json() == tr.to_json()


def census(tower):
    """One octonion algebra per symbol of a slot triple over ``tower``, in
    slot order: one division algebra per nonzero symbol and one split
    algebra (symbol 0)."""
    reps = {}
    for slots in itertools.combinations_with_replacement(enumerate_square_classes(tower), 3):
        A = algebra_from_slots(tower, slots)
        reps.setdefault(A.symbol, A)
    return list(reps.values())


def reference_comparison(r1, r2):
    """The row-by-row rule on two type reports: the zipped rows, and the
    verdict, equivalent iff every row agrees."""
    rows = [(a.tau, a.verdict, b.verdict) for a, b in zip(r1.rows, r2.rows)]
    return rows, "equivalent" if all(v1 == v2 for _, v1, v2 in rows) else "not equivalent"


class TestCompareOnTheFlags:
    def _check(self, A, B, ra, rb):
        """The comparison of A and B against the reference on their type
        reports ra and rb; whether the pair is equivalent."""
        rep = compare_torus_systems(A, B)
        rows = [(r.tau, r.verdict1, r.verdict2) for r in rep.rows]
        assert (rows, rep.verdict) == reference_comparison(ra, rb)
        return rep.equivalent

    @pytest.mark.parametrize(
        "name, size", [("F13((s))((t))", 2), ("F7((r))((s))((t))", 16)]
    )
    def test_census_pairs_agree_with_the_row_reference(self, name, size):
        """Every pair of the census algebras, self-pairs included, gets the
        reference's rows and verdict; distinct census algebras have
        distinct flag vectors, so only the self-pairs are equivalent."""
        algebras = census(dsl.parse_field(name))
        assert len(algebras) == size and sum(is_split(A) for A in algebras) == 1
        reports = [type_report(A) for A in algebras]
        for i, j in itertools.combinations_with_replacement(range(size), 2):
            same = self._check(algebras[i], algebras[j], reports[i], reports[j])
            assert same == (i == j), (algebras[i].slots, algebras[j].slots)

    def test_seeded_pairs_over_r_agree_with_the_row_reference(self):
        algebras = census(dsl.parse_field("R((r))((s))((t))"))
        assert len(algebras) == 52
        reports = [type_report(A) for A in algebras]
        pairs = list(itertools.combinations_with_replacement(range(len(algebras)), 2))
        sample = random.Random(42).sample(pairs, 200)
        assert any(i == j for i, j in sample)
        for i, j in sample:
            same = self._check(algebras[i], algebras[j], reports[i], reports[j])
            assert same == (i == j), (algebras[i].slots, algebras[j].slots)

    def test_the_comparison_builds_no_type_report(self, monkeypatch):
        """With type_report made to raise, the comparison gives the same
        JSON on split and division pairs."""
        classes = enumerate_square_classes(F7RST)
        triples = random.Random(7).sample(list(itertools.combinations(classes, 3)), 6)
        triples.append((one_class(F7RST), *classes[1:3]))
        algebras = [algebra_from_slots(F7RST, slots) for slots in triples]
        algebras += [division_octonion(), algebra_from_slots(F13ST, (one_class(F13ST),) * 3)]
        assert {is_split(A) for A in algebras} == {True, False}
        pairs = [(A, B) for A in algebras for B in algebras if A.tower == B.tower]
        expected = [compare_torus_systems(A, B).to_json() for A, B in pairs]
        for fn in _tori_caches():
            fn.cache_clear()

        def forbidden(*args):
            raise AssertionError("the comparison built a type report")

        monkeypatch.setattr(tori, "type_report", forbidden)
        assert [compare_torus_systems(A, B).to_json() for A, B in pairs] == expected

    def test_a_quaternion_in_either_position_is_unsupported(self, monkeypatch):
        C = division_octonion()
        H = quaternion(F13ST, nonresidue_class(F13ST), var_class(F13ST, "s"))
        for pair in ((H, C), (C, H), (H, H)):
            with pytest.raises(UnsupportedDim):
                compare_torus_systems(*pair)
        # both dims are checked before the row bound (40 variables would
        # list 2^41 classes) and so before any class or flag is built
        wide = FieldTower.prime(7, *(f"x{i}" for i in range(40)))
        u, x1, x39 = nonresidue_class(wide), var_class(wide, "x1"), var_class(wide, "x39")
        O, Hw = algebra_from_slots(wide, (u, x1, x39)), quaternion(wide, u, x1)

        def refuse(tower):
            raise AssertionError("classes listed")

        monkeypatch.setattr(tori, "enumerate_square_classes", refuse)
        for pair in ((O, Hw), (Hw, O)):
            with pytest.raises(UnsupportedDim):
                compare_torus_systems(*pair)
