"""Torus-type catalogs, splitting profiles and the cubic obstruction.

A maximal-torus type of an automorphism group of an octonion algebra is
indexed by a pair (quadratic etale class, cubic etale descriptor).  The
quadratic part is a square class (1 encoding k x k); the cubic part is
either fully split, the product of k with a quadratic etale algebra, or
the ramified Galois cubic k((t))(t^(1/3)) available once the base holds
a primitive cube root of unity.

Admissibility of the first two cubic kinds reduces to splitting the
algebra over at most two quadratic extensions.  The cubic-field kind is
ruled out for division algebras by an exhaustive trace-form comparison:
every hermitian-shape candidate (b, c) compatible with the norm form
would force the norm to be hyperbolic.

Each part of an obstruction report is computed once per the inputs it
depends on: the lambda rows, the trace gram and the trace diagonal per
tower; the hermitian candidates per (tower, d); and the evidence rows per
(tower, d, sorted codes of the algebra norm's entries), the only part of
the norm that isometry reads (not the form itself, whose Pfister slots
differ between algebras with the same norm).  The memoized helpers call
``sq_mul``, ``is_isometric`` and the other names through this module's
globals.  Every report still runs its preconditions and reads its
verdict off its own rows.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from . import dsl
from .algebras import CompositionAlgebra, is_split
from .errors import (
    DSquare,
    FieldMismatch,
    InternalInconsistency,
    LambdaNotUnit,
    NotSeparable,
    PreconditionFailed,
    UnsupportedCubic,
    UnsupportedDim,
)
from .arithq import ramification_set
from .fields import (
    CACHE_SIZE,
    FieldTower,
    SquareClass,
    class_of_code,
    enumerate_square_classes,
    lift_class,
    sq_mul,
    var_class,
)
from .laurent import LaurentPoly
from .qform import (
    DiagonalForm,
    diagonalize,
    is_isometric,
    pfister,
    pure_part,
    splits_over_quadratic,
    tensor,
)


# -- torus types ------------------------------------------------------------------


@dataclass(frozen=True)
class Split3:
    """Cubic part k x k x k."""


@dataclass(frozen=True)
class QuadTimes:
    """Cubic part k x E for the quadratic etale algebra of class delta."""

    delta: SquareClass


@dataclass(frozen=True)
class PureCubicGalois:
    """Cubic part k((t))(t^(1/3)), Galois once zeta_3 lives downstairs."""

    var: str


Cubic = Union[Split3, QuadTimes, PureCubicGalois]


@dataclass(frozen=True)
class TorusType:
    quad: SquareClass
    cubic: Cubic

    def __post_init__(self):
        if isinstance(self.cubic, PureCubicGalois):
            tower = self.quad.tower
            if not tower.laurent_vars or self.cubic.var != tower.outer_var:
                raise ValueError("pure cubic type needs the outermost uniformizer")
            if not tower.has_zeta3():
                raise ValueError("pure cubic Galois type needs zeta_3 in the base")

    def __str__(self):
        return f"(quad={self.quad}, cubic={_cubic_str(self.cubic)})"


def _cubic_str(c: Cubic) -> str:
    if isinstance(c, Split3):
        return "split3"
    if isinstance(c, QuadTimes):
        return f"quad_times({c.delta})"
    return f"pure_cubic({c.var})"


def _cubic_dict(c: Cubic) -> dict:
    if isinstance(c, Split3):
        return {"kind": "split3"}
    if isinstance(c, QuadTimes):
        return {"kind": "quad_times", "delta": str(c.delta)}
    return {"kind": "pure_cubic", "var": c.var}


def _cubic_from_dict(d: dict, tower: FieldTower) -> Cubic:
    if d["kind"] == "split3":
        return Split3()
    if d["kind"] == "quad_times":
        return QuadTimes(dsl.parse_class(d["delta"], tower))
    return PureCubicGalois(d["var"])


def torus_type_catalog(tower: FieldTower) -> list[TorusType]:
    """All torus types over an enumerable tower, in a fixed order."""
    classes = enumerate_square_classes(tower)
    cubics: list[Cubic] = [Split3()]
    cubics += [QuadTimes(d) for d in classes if not d.is_one]
    if tower.has_zeta3() and tower.laurent_vars:
        cubics.append(PureCubicGalois(tower.outer_var))
    return [TorusType(q, c) for q in classes for c in cubics]


# -- splitting criteria --------------------------------------------------------------


def splitting_profile(C: CompositionAlgebra) -> frozenset[SquareClass]:
    """Nonsquare classes delta with C split by adjoining sqrt(delta)."""
    if not C.norm.is_pfister:
        raise PreconditionFailed("algebra norm carries no Pfister provenance")
    return frozenset(
        d
        for d in enumerate_square_classes(C.tower)
        if not d.is_one and splits_over_quadratic(C.norm, d)
    )


def _split_by(C: CompositionAlgebra, delta: SquareClass) -> bool:
    """Split by the quadratic etale algebra of class delta (1 = k x k)."""
    if delta.is_one:
        return is_split(C)
    return splits_over_quadratic(C.norm, delta)


def admits_type(C: CompositionAlgebra, tau: TorusType) -> bool:
    """Embedding criterion for the split and quadratic cubic kinds.

    The torus determined by (F', L = k x E) embeds iff the algebra is
    split by both F' and F'' where [F'] + [F''] = [E].
    """
    if C.dim != 8:
        raise UnsupportedDim("torus types are catalogued for octonion algebras")
    if isinstance(tau.cubic, PureCubicGalois):
        raise UnsupportedCubic("use cubic_obstruction_report for the cubic field kind")
    if isinstance(tau.cubic, Split3):
        return _split_by(C, tau.quad)
    second = sq_mul(tau.quad, tau.cubic.delta)
    return _split_by(C, tau.quad) and _split_by(C, second)


def genus_equal_rational(q1: tuple, q2: tuple) -> bool:
    """Quaternion genus over Q: equality of ramification sets."""
    a1, b1 = q1
    a2, b2 = q2
    return ramification_set(a1, b1) == ramification_set(a2, b2)


# -- cubic etale algebra arithmetic ---------------------------------------------------


def _ext_mul(tower, fcs, a, b):
    """Product in K[x]/(x^3 + c2 x^2 + c1 x + c0); fcs = (c0, c1, c2)."""
    zero = LaurentPoly.zero(tower)
    prod = [zero] * 5
    for i in range(3):
        for j in range(3):
            prod[i + j] = prod[i + j] + a[i] * b[j]
    for deg in (4, 3):
        c = prod[deg]
        if c.is_zero:
            continue
        prod[deg] = zero
        for k in range(3):
            prod[deg - 3 + k] = prod[deg - 3 + k] - c * fcs[k]
    return tuple(prod[:3])


def _mult_matrix(tower, fcs, h):
    """Matrix of multiplication by h in the basis 1, x, x^2 (columns)."""
    zero = LaurentPoly.zero(tower)
    one = LaurentPoly.const(tower, 1)
    x = (zero, one, zero)
    cols = [h]
    for _ in range(2):
        cols.append(_ext_mul(tower, fcs, cols[-1], x))
    return [[cols[j][i] for j in range(3)] for i in range(3)]


def _ext_trace(tower, fcs, h) -> LaurentPoly:
    m = _mult_matrix(tower, fcs, h)
    return m[0][0] + m[1][1] + m[2][2]


def _det3(tower, m) -> LaurentPoly:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _coerce_cubic(tower, f) -> tuple:
    fcs = tuple(LaurentPoly.coerce(tower, c) for c in f)
    if len(fcs) != 3:
        raise ValueError("a monic cubic is given by its three lower coefficients")
    return fcs


def _coerce_element(tower, lam) -> tuple:
    if isinstance(lam, (tuple, list)):
        coords = tuple(LaurentPoly.coerce(tower, c) for c in lam)
        if len(coords) != 3:
            raise ValueError("cubic algebra elements have three coordinates")
        return coords
    zero = LaurentPoly.zero(tower)
    return (LaurentPoly.coerce(tower, lam), zero, zero)


def cubic_discriminant(tower, f) -> LaurentPoly:
    c0, c1, c2 = _coerce_cubic(tower, f)
    return (
        18 * c2 * c1 * c0
        - 4 * c2 * c2 * c2 * c0
        + c2 * c2 * c1 * c1
        - 4 * c1 * c1 * c1
        - 27 * c0 * c0
    )


def trace_form_gram(tower: FieldTower, f, lam=1):
    """Gram matrix of (x, y) -> Tr(lam * x * y) on K[x]/(f), basis 1, x, x^2."""
    fcs = _coerce_cubic(tower, f)
    if cubic_discriminant(tower, f).is_zero:
        raise NotSeparable("cubic polynomial has vanishing discriminant")
    lam = _coerce_element(tower, lam)
    if _det3(tower, _mult_matrix(tower, fcs, lam)).is_zero:
        raise LambdaNotUnit("scaling element is not invertible")
    zero = LaurentPoly.zero(tower)
    one = LaurentPoly.const(tower, 1)
    basis = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    gram = [[zero] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            prod = _ext_mul(tower, fcs, basis[i], basis[j])
            prod = _ext_mul(tower, fcs, lam, prod)
            gram[i][j] = gram[j][i] = _ext_trace(tower, fcs, prod)
    return gram


def trace_form(tower: FieldTower, f, lam=1) -> DiagonalForm:
    return diagonalize(tower, trace_form_gram(tower, f, lam))


def jacobson_norm(
    tower: FieldTower, d: SquareClass, b: SquareClass, c: SquareClass
) -> DiagonalForm:
    """<<d>> tensor <1,-b,-c,bc>, the norm of the hermitian-form construction."""
    if d.is_one:
        raise DSquare(f"{d} is a square")
    return tensor(pfister(tower, (d,)), pfister(tower, (b, c)))


# -- the cubic-field obstruction --------------------------------------------------------


@lru_cache(maxsize=CACHE_SIZE)
def _ramified_cubic_trace_form(tower: FieldTower):
    """Gram and diagonalization of the trace form of K(t^(1/3))."""
    minus_t = -LaurentPoly.variable(tower, tower.outer_var)
    zero = LaurentPoly.zero(tower)
    gram = trace_form_gram(tower, (minus_t, zero, zero), 1)
    return gram, diagonalize(tower, gram)


@lru_cache(maxsize=CACHE_SIZE)
def _hermitian_candidates(tower: FieldTower, d: SquareClass) -> tuple:
    """The algebra-independent half of steps (c) and (d): for every (b, c),
    the hermitian norm <<d>> x <<b,c>> and whether the trace form
    <<d>> x t3 is isometric to <<d>> x pure(<<b,c>>)."""
    _, t3 = _ramified_cubic_trace_form(tower)
    pf_d = pfister(tower, (d,))
    lhs = tensor(pf_d, t3)
    classes = enumerate_square_classes(tower)
    return tuple(
        (
            b,
            c,
            jacobson_norm(tower, d, b, c),
            is_isometric(lhs, tensor(pf_d, pure_part(pfister(tower, (b, c))))),
        )
        for b in classes
        for c in classes
    )


@dataclass(frozen=True)
class LambdaRow:
    r: int
    unit: SquareClass
    norm_class: SquareClass
    norm_is_square: bool
    lambda_is_square: bool


@dataclass(frozen=True)
class EvidenceRow:
    b: SquareClass
    c: SquareClass
    norm_matches: bool
    trace_isometric: Optional[bool]
    contradiction: bool


@dataclass(frozen=True)
class CubicObstructionReport:
    tower: FieldTower
    slots: tuple[SquareClass, ...]
    d: SquareClass
    verdict: str
    lambda_rows: tuple[LambdaRow, ...]
    gram: tuple[tuple[str, ...], ...]
    trace_diagonal: tuple[SquareClass, ...]
    evidence: tuple[EvidenceRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "kind": "cubic-obstruction",
            "field": str(self.tower),
            "algebra": {"slots": [str(s) for s in self.slots]},
            "d": str(self.d),
            "verdict": self.verdict,
            "lambda_table": [
                {
                    "r": row.r,
                    "unit": str(row.unit),
                    "norm_class": str(row.norm_class),
                    "norm_is_square": row.norm_is_square,
                    "lambda_is_square": row.lambda_is_square,
                }
                for row in self.lambda_rows
            ],
            "trace_gram": [list(row) for row in self.gram],
            "trace_diagonal": [str(e) for e in self.trace_diagonal],
            "evidence": [
                {
                    "b": str(row.b),
                    "c": str(row.c),
                    "norm_matches": row.norm_matches,
                    "trace_isometric": row.trace_isometric,
                    "contradiction": row.contradiction,
                }
                for row in self.evidence
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "CubicObstructionReport":
        d = json.loads(text)
        tower = dsl.parse_field(d["field"])
        return cls(
            tower,
            tuple(dsl.parse_class(s, tower) for s in d["algebra"]["slots"]),
            dsl.parse_class(d["d"], tower),
            d["verdict"],
            tuple(
                LambdaRow(
                    row["r"],
                    dsl.parse_class(row["unit"], tower.inner()),
                    dsl.parse_class(row["norm_class"], tower),
                    row["norm_is_square"],
                    row["lambda_is_square"],
                )
                for row in d["lambda_table"]
            ),
            tuple(tuple(row) for row in d["trace_gram"]),
            tuple(dsl.parse_class(s, tower) for s in d["trace_diagonal"]),
            tuple(
                EvidenceRow(
                    dsl.parse_class(row["b"], tower),
                    dsl.parse_class(row["c"], tower),
                    row["norm_matches"],
                    row["trace_isometric"],
                    row["contradiction"],
                )
                for row in d["evidence"]
            ),
        )


def _obstruction_verdict(lambda_rows, evidence) -> str:
    """"inadmissible" unless a row contradicts the theorem for a division
    algebra: a lambda row breaking the square-norm criterion, or a
    hermitian candidate that would make the norm hyperbolic."""
    bad = [r for r in lambda_rows if r.norm_is_square != r.lambda_is_square]
    bad += [r for r in evidence if r.contradiction]
    if bad:
        raise InternalInconsistency(f"cubic obstruction contradicted by {bad[0]}")
    return "inadmissible"


def cubic_obstruction_report(
    C: CompositionAlgebra, d: SquareClass
) -> CubicObstructionReport:
    """Replay of the cubic-field exclusion for a division octonion algebra.

    (a) the unit-and-valuation check forcing the hermitian scaling to be
    a square, (b) the trace form of the ramified cubic, (c) all (b, c)
    square-class pairs whose hermitian norm matches the algebra norm,
    (d) for each, the trace-form isometry that would make the norm
    hyperbolic.  The rows come from memos keyed on the tower and on
    (tower, d, norm key); the verdict is read off them on every call, and
    a row contradicting the theorem raises InternalInconsistency.
    """
    tower = C.tower
    if C.dim != 8:
        raise PreconditionFailed("the obstruction applies to octonion algebras")
    if not tower.is_enumerable:
        raise PreconditionFailed("the obstruction sweep needs a finite class group")
    if not tower.laurent_vars:
        raise PreconditionFailed("the ramified cubic needs a Laurent uniformizer")
    if not tower.has_zeta3():
        raise PreconditionFailed("the cubic is Galois only with zeta_3 in the base")
    if is_split(C):
        raise PreconditionFailed("the obstruction applies to division algebras")
    if d.tower != tower:
        raise FieldMismatch(f"{d.tower} vs {tower}")
    if d.is_one:
        raise PreconditionFailed("d must be a nonsquare")

    lambda_rows, gram, trace_diagonal = _tower_rows(tower)
    evidence = _evidence_rows(tower, d, C.norm.key)
    return CubicObstructionReport(
        tower,
        C.slots,
        d,
        _obstruction_verdict(lambda_rows, evidence),
        lambda_rows,
        gram,
        trace_diagonal,
        evidence,
    )


@lru_cache(maxsize=CACHE_SIZE)
def _tower_rows(tower: FieldTower) -> tuple:
    """Steps (a) and (b), which depend on the tower alone: the lambda rows,
    the trace gram as strings and the diagonal of t3."""
    inner = tower.inner()
    t_class = var_class(tower, tower.outer_var)

    # (a) lambda = unit * t^(r/3) up to cube-root-adjusted squares:
    # the norm class is unit^3 * t^r ~ unit * t^r; an even valuation and
    # a square unit force lambda itself to be a square upstairs.
    lambda_rows = []
    for r in (0, 1):
        for unit in enumerate_square_classes(inner):
            norm_class = lift_class(unit, tower)
            if r:
                norm_class = sq_mul(norm_class, t_class)
            row = LambdaRow(
                r, unit, norm_class, norm_class.is_one, r == 0 and unit.is_one
            )
            lambda_rows.append(row)

    # (b) trace form of K(t^(1/3))
    gram, t3 = _ramified_cubic_trace_form(tower)
    return (
        tuple(lambda_rows),
        tuple(tuple(str(e) for e in row) for row in gram),
        tuple(t3.entries),
    )


@lru_cache(maxsize=CACHE_SIZE)
def _evidence_rows(tower: FieldTower, d: SquareClass, norm_key: tuple) -> tuple:
    """Steps (c) and (d) against the algebra norm with sorted entry codes
    ``norm_key``: isometry reads nothing else of a form, so every algebra
    with that norm key shares these rows."""
    norm = DiagonalForm(tower, tuple(class_of_code(tower, c) for c in norm_key))
    evidence = []
    for b, c, jnorm, trace_isometric in _hermitian_candidates(tower, d):
        matches = is_isometric(jnorm, norm)
        iso = trace_isometric if matches else None
        evidence.append(EvidenceRow(b, c, matches, iso, bool(matches and iso)))
    return tuple(evidence)


# -- reports -----------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeVerdict:
    tau: TorusType
    verdict: str  # admissible | inadmissible | undecided
    reason: str


@dataclass(frozen=True)
class TypeReport:
    tower: FieldTower
    slots: tuple[SquareClass, ...]
    rows: tuple[TypeVerdict, ...]

    @property
    def admissible(self) -> tuple[TorusType, ...]:
        return tuple(r.tau for r in self.rows if r.verdict == "admissible")

    def to_json_dict(self) -> dict:
        return {
            "kind": "type-report",
            "field": str(self.tower),
            "algebra": {"slots": [str(s) for s in self.slots]},
            "catalog": [
                {
                    "quad": str(r.tau.quad),
                    "cubic": _cubic_dict(r.tau.cubic),
                    "verdict": r.verdict,
                    "reason": r.reason,
                }
                for r in self.rows
            ],
            "admissible": [
                {"quad": str(t.quad), "cubic": _cubic_dict(t.cubic)}
                for t in self.admissible
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "TypeReport":
        d = json.loads(text)
        tower = dsl.parse_field(d["field"])
        rows = tuple(
            TypeVerdict(
                TorusType(
                    dsl.parse_class(r["quad"], tower),
                    _cubic_from_dict(r["cubic"], tower),
                ),
                r["verdict"],
                r["reason"],
            )
            for r in d["catalog"]
        )
        return cls(
            tower, tuple(dsl.parse_class(s, tower) for s in d["algebra"]["slots"]), rows
        )


@dataclass(frozen=True)
class ComparisonReport:
    tower: FieldTower
    slots1: tuple[SquareClass, ...]
    slots2: tuple[SquareClass, ...]
    rows: tuple[tuple[TorusType, str, str], ...]
    verdict: str  # "equivalent" | "not equivalent"

    @property
    def equivalent(self) -> bool:
        return self.verdict == "equivalent"

    def to_json_dict(self) -> dict:
        return {
            "kind": "comparison",
            "field": str(self.tower),
            "algebra1": {"slots": [str(s) for s in self.slots1]},
            "algebra2": {"slots": [str(s) for s in self.slots2]},
            "types": [
                {
                    "quad": str(tau.quad),
                    "cubic": _cubic_dict(tau.cubic),
                    "verdict1": v1,
                    "verdict2": v2,
                }
                for tau, v1, v2 in self.rows
            ],
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "ComparisonReport":
        d = json.loads(text)
        tower = dsl.parse_field(d["field"])
        rows = tuple(
            (
                TorusType(
                    dsl.parse_class(r["quad"], tower),
                    _cubic_from_dict(r["cubic"], tower),
                ),
                r["verdict1"],
                r["verdict2"],
            )
            for r in d["types"]
        )
        return cls(
            tower,
            tuple(dsl.parse_class(s, tower) for s in d["algebra1"]["slots"]),
            tuple(dsl.parse_class(s, tower) for s in d["algebra2"]["slots"]),
            rows,
            d["verdict"],
        )


def _type_verdict(C: CompositionAlgebra, tau: TorusType) -> TypeVerdict:
    if isinstance(tau.cubic, PureCubicGalois):
        if is_split(C):
            return TypeVerdict(
                tau, "undecided", "split algebra: outside the division-algebra obstruction"
            )
        if tau.quad.is_one:
            return TypeVerdict(
                tau, "inadmissible", "quadratic part must be a field for a division algebra"
            )
        report = cubic_obstruction_report(C, tau.quad)
        return TypeVerdict(
            tau, report.verdict, "cubic obstruction: no hermitian candidate survives"
        )
    if isinstance(tau.cubic, Split3):
        first = second = tau.quad
    else:
        first, second = tau.quad, sq_mul(tau.quad, tau.cubic.delta)
    ok1 = _split_by(C, first)
    ok2 = ok1 if second == first else _split_by(C, second)
    verdict = "admissible" if (ok1 and ok2) else "inadmissible"
    reason = f"split by sqrt({first}): {'yes' if ok1 else 'no'}; split by sqrt({second}): {'yes' if ok2 else 'no'}"
    return TypeVerdict(tau, verdict, reason)


def type_report(C: CompositionAlgebra) -> TypeReport:
    if C.dim != 8:
        raise UnsupportedDim("torus types are catalogued for octonion algebras")
    catalog = torus_type_catalog(C.tower)
    rows = tuple(_type_verdict(C, tau) for tau in catalog)
    return TypeReport(C.tower, C.slots, rows)


def compare_torus_systems(
    C1: CompositionAlgebra, C2: CompositionAlgebra
) -> ComparisonReport:
    """Per-type admissibility comparison; equivalent iff the verdicts agree."""
    if C1.tower != C2.tower:
        raise FieldMismatch(f"{C1.tower} vs {C2.tower}")
    r1 = type_report(C1)
    r2 = type_report(C2)
    rows = tuple(
        (a.tau, a.verdict, b.verdict) for a, b in zip(r1.rows, r2.rows)
    )
    same = all(v1 == v2 for _, v1, v2 in rows)
    return ComparisonReport(
        C1.tower, C1.slots, C2.slots, rows, "equivalent" if same else "not equivalent"
    )
