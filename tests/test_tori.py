import itertools
import random

import pytest

from wittforge import tori
from wittforge.algebras import algebra_from_slots, cayley_dickson, is_split, quaternion
from wittforge.errors import (
    DSquare,
    FieldMismatch,
    InfiniteSquareClassGroup,
    InternalInconsistency,
    LambdaNotUnit,
    NotSeparable,
    PreconditionFailed,
    UnsupportedCubic,
)
from wittforge.fields import (
    FieldTower,
    canonical_square_class,
    enumerate_square_classes,
    extend_quadratic,
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
    pfister,
    pure_part,
    tensor,
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
    jacobson_norm,
    splitting_profile,
    torus_type_catalog,
    trace_form,
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
        f = trace_form(F13ST, (-t, zero, zero), 1)
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
        f = trace_form(F13, (-1, 0, 0), 1)
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
            trace_form(Q, (2, -3, 0), 1)

    def test_lambda_not_unit(self):
        # x - 1 kills the idempotent component of x^3 - 1
        with pytest.raises(LambdaNotUnit):
            trace_form(F13, (-1, 0, 0), (-1, 1, 0))


class TestJacobsonNorm:
    def test_entry_set_identity(self):
        u, s, t = nonresidue_class(F13ST), var_class(F13ST, "s"), var_class(F13ST, "t")
        f = jacobson_norm(F13ST, u, s, t)
        assert set(f.entries) == set(pfister(F13ST, (u, s, t)).entries)
        assert f.is_pfister

    def test_entry_set_identity_exhaustive(self):
        classes = enumerate_square_classes(F13S)
        for d, b, c in itertools.product(classes, repeat=3):
            if d.is_one:
                continue
            f = jacobson_norm(F13S, d, b, c)
            assert set(f.entries) == set(pfister(F13S, (d, b, c)).entries)

    def test_isotropic_twisted_hermitian_part_forces_hyperbolic(self):
        # whenever <<d>> x <-b,-c,bc> is isotropic the full norm splits
        classes = enumerate_square_classes(F13S)
        hit = 0
        for d, b, c in itertools.product(classes, repeat=3):
            if d.is_one:
                continue
            part = tensor(pfister(F13S, (d,)), pure_part(pfister(F13S, (b, c))))
            if is_isotropic(part):
                assert is_hyperbolic(jacobson_norm(F13S, d, b, c))
                hit += 1
        assert hit > 0

    def test_hyperbolic_when_pure_part_isotropic(self):
        u, s = nonresidue_class(F13S), var_class(F13S, "s")
        f = jacobson_norm(F13S, u, u, s)
        assert is_isotropic(pure_part(pfister(F13S, (u, u, s))))
        assert is_hyperbolic(f)

    def test_d_square_rejected(self):
        with pytest.raises(DSquare):
            jacobson_norm(F13ST, one_class(F13ST), one_class(F13ST), one_class(F13ST))


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

    def test_json_roundtrip(self):
        C = division_octonion()
        rep = cubic_obstruction_report(C, var_class(F13ST, "t"))
        text = rep.to_json()
        assert type(rep).from_json(text).to_json() == text

    def test_contradicting_evidence_raises(self, monkeypatch):
        C = division_octonion()
        u = nonresidue_class(F13ST)
        # every form gets one class: each candidate matches the norm, and
        # the norm class equals the step (d) target
        monkeypatch.setattr(tori, "witt_class", lambda f: ())
        with pytest.raises(InternalInconsistency):
            cubic_obstruction_report(C, u)
        # type_report reads its verdict from the same report
        with pytest.raises(InternalInconsistency):
            type_report(C)

    def test_step_d_class_comparison_matches_trace_isometry(self):
        """Step (d) read off Witt classes, the Jacobson norm's against the
        target <<d>> x (<1> + t3), agrees on every candidate with the
        direct isometry test <<d>> x t3 ~ <<d>> x pure(<<b,c>>).  Over
        F13((t)) every candidate passes the direct test; the other towers
        have both outcomes."""
        outcomes = set()
        for tower in (F13T, F13ST, F7ST, F7RST):
            zero = LaurentPoly.zero(tower)
            minus_t = -LaurentPoly.variable(tower, tower.outer_var)
            t3 = trace_form(tower, (minus_t, zero, zero))
            for d in enumerate_square_classes(tower):
                if d.is_one:
                    continue
                pf_d = pfister(tower, (d,))
                lhs = tensor(pf_d, t3)
                target, candidates = tori._hermitian_candidates(tower, d)
                for b, c, jnorm_class in candidates:
                    pure = tensor(pf_d, pure_part(pfister(tower, (b, c))))
                    direct = is_isometric(lhs, pure)
                    assert (jnorm_class == target) == direct, (tower, d, b, c)
                    outcomes.add(direct)
        assert outcomes == {True, False}

    def test_contradicting_lambda_row_raises(self, monkeypatch):
        C = division_octonion()
        monkeypatch.setattr(tori, "sq_mul", lambda x, y: one_class(x.tower))
        with pytest.raises(InternalInconsistency):
            cubic_obstruction_report(C, nonresidue_class(F13ST))

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
                tori._evidence_rows.cache_clear()
                assert cubic_obstruction_report(A, d).to_json() == warm[A.slots, d]

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
        tower = extend_quadratic(F5T, nonresidue_class(F5T)).tower
        t = var_class(tower, "t")
        tr = type_report(algebra_from_slots(tower, [t, t, t]))
        back = TypeReport.from_json(tr.to_json())
        assert back == tr and back.to_json() == tr.to_json()
