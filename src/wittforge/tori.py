"""Torus-type catalogs, splitting profiles and the cubic obstruction.

A maximal-torus type of an automorphism group of an octonion algebra is
indexed by a pair (quadratic etale class, cubic etale descriptor).  The
quadratic part is a square class (1 encoding k x k); the cubic part is
either fully split, the product of k with a quadratic etale algebra, or
the ramified Galois cubic k((t))(t^(1/3)) available once the base holds
a primitive cube root of unity.

Admissibility of the first two cubic kinds reduces to splitting the
algebra over at most two quadratic extensions.  A type report computes
the algebra's splitting set once, the classes whose quadratic etale
algebra splits it (its splitting profile, plus 1 when it is split), and
reads every such verdict's two classes off it; ``admits_type`` tests
just its type's two classes, so it needs no finite class group.  The
cubic-field kind is ruled out for division algebras by an exhaustive
trace-form comparison: every hermitian-shape candidate (b, c)
compatible with the norm form would force the norm to be hyperbolic.
The Jacobson norm <<d>> x <<b,c>> is <<d>> + <<d>> x pure(<<b,c>>), so
by Witt cancellation step (d), <<d>> x t3 ~ <<d>> x pure(<<b,c>>), holds
exactly when its Witt class equals that of <<d>> x (<1> + t3).

Each part of an obstruction report is computed once per the inputs it
depends on: the lambda rows, the trace gram and the trace diagonal t3
per tower; the target class and the Witt class of every candidate's
Jacobson norm per (tower, d); and the evidence rows per (tower, d, Witt
class of the algebra norm), the only part of the norm that isometry of
8-dimensional forms reads, so algebras with isometric norms share one
entry whatever their slots or entries.  The memoized helpers call
``sq_mul``, ``witt_class`` and the other names through this module's
globals.  Every report still runs its preconditions and reads its
verdict off its own rows.

The three reports share one JSON codec, ``_encode`` and ``_decode``,
driven by the dataclasses' own fields and declared types: a field's
``key`` metadata renames or nests its JSON key (the empty path spreads a
row's torus type into the row), one table maps ``kind`` tags to the
report and cubic classes, and derived ``init=False`` fields are written
but not read back.  Each class's field plan, with an encoder and decoder
per declared type, is built once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache
from typing import Optional, Union, get_args, get_origin, get_type_hints

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
    enumerate_square_classes,
    lift_class,
    one_class,
    sq_mul,
    var_class,
)
from .laurent import LaurentPoly
from .qform import (
    DiagonalForm,
    diagonalize,
    pfister,
    splits_over_quadratic,
    tensor,
    witt_class,
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
    return frozenset(
        d
        for d in enumerate_square_classes(C.tower)
        if not d.is_one and splits_over_quadratic(C.norm, d)
    )


def _splitting_set(C: CompositionAlgebra) -> frozenset[SquareClass]:
    """Classes delta whose quadratic etale algebra splits C: the splitting
    profile, and 1 (for k x k) when C is split."""
    profile = splitting_profile(C)
    return profile | {one_class(C.tower)} if is_split(C) else profile


def _quadratic_pair(tau: TorusType) -> tuple[SquareClass, SquareClass]:
    """The classes of F' and F'' with [F'] + [F''] = [E], for the cubic part
    k x E of a split or quadratic kind (E = k x k for split3)."""
    if isinstance(tau.cubic, Split3):
        return tau.quad, tau.quad
    return tau.quad, sq_mul(tau.quad, tau.cubic.delta)


def admits_type(C: CompositionAlgebra, tau: TorusType) -> bool:
    """Embedding criterion for the split and quadratic cubic kinds.

    The torus determined by (F', L = k x E) embeds iff the algebra is
    split by both F' and F'' where [F'] + [F''] = [E].
    """
    if C.dim != 8:
        raise UnsupportedDim("torus types are catalogued for octonion algebras")
    if isinstance(tau.cubic, PureCubicGalois):
        raise UnsupportedCubic("use cubic_obstruction_report for the cubic field kind")
    return all(
        is_split(C) if q.is_one else splits_over_quadratic(C.norm, q)
        for q in set(_quadratic_pair(tau))
    )


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
def _hermitian_candidates(tower: FieldTower, d: SquareClass) -> tuple:
    """The algebra-independent half of steps (c) and (d): the target, the
    Witt class of <<d>> x (<1> + t3), and for every (b, c) the Witt class
    of the hermitian norm <<d>> x <<b,c>>."""
    unit_t3 = DiagonalForm(tower, (one_class(tower), *_tower_rows(tower)[2]))
    classes = enumerate_square_classes(tower)
    return witt_class(tensor(pfister(tower, (d,)), unit_t3)), tuple(
        (b, c, witt_class(jacobson_norm(tower, d, b, c))) for b in classes for c in classes
    )


def _key(*path: str):
    """A report field written under the JSON key path ``path`` (nested
    objects) instead of its name; the empty path spreads the field's own
    object into its parent's."""
    return field(metadata={"key": path})


class _Report:
    """JSON for a report through the one codec, ``_encode``/``_decode``."""

    def to_json_dict(self) -> dict:
        return _encode(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str):
        return _decode(cls, json.loads(text), None)


@dataclass(frozen=True)
class LambdaRow:
    r: int
    unit: SquareClass = field(metadata={"inner": True})  # a class of tower.inner()
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
class CubicObstructionReport(_Report):
    tower: FieldTower = _key("field")
    slots: tuple[SquareClass, ...] = _key("algebra", "slots")
    d: SquareClass
    verdict: str
    lambda_rows: tuple[LambdaRow, ...] = _key("lambda_table")
    gram: tuple[tuple[str, ...], ...] = _key("trace_gram")
    trace_diagonal: tuple[SquareClass, ...]
    evidence: tuple[EvidenceRow, ...]


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
    a square, (b) the trace form t3 of the ramified cubic, (c) all (b, c)
    square-class pairs whose hermitian norm matches the algebra norm,
    (d) for each, the trace-form isometry that would make the norm
    hyperbolic: by Witt cancellation, the norm's class is the target's.
    The rows come from memos keyed on the tower and on (tower, d, norm
    class); the verdict is read off them on every call, and a row
    contradicting the theorem raises InternalInconsistency.
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
    evidence = _evidence_rows(tower, d, witt_class(C.norm))
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

    # (b) trace form of K(t^(1/3)) = K[x]/(x^3 - t)
    gram = trace_form_gram(tower, (-LaurentPoly.variable(tower, tower.outer_var), 0, 0))
    return (
        tuple(lambda_rows),
        tuple(tuple(str(e) for e in row) for row in gram),
        diagonalize(tower, gram).entries,
    )


@lru_cache(maxsize=CACHE_SIZE)
def _evidence_rows(tower: FieldTower, d: SquareClass, norm_class: tuple) -> tuple:
    """Steps (c) and (d) against the algebra norm of Witt class
    ``norm_class``: a Jacobson norm, 8-dimensional like the algebra norm,
    matches it exactly when the classes are equal, and step (d) holds on
    a matching row exactly when the norm class is the target, so every
    algebra whose norm has that class shares these rows."""
    target, candidates = _hermitian_candidates(tower, d)
    evidence = []
    for b, c, jnorm_class in candidates:
        matches = jnorm_class == norm_class
        iso = norm_class == target if matches else None
        evidence.append(EvidenceRow(b, c, matches, iso, bool(matches and iso)))
    return tuple(evidence)


# -- reports -----------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeVerdict:
    tau: TorusType = _key()
    verdict: str  # admissible | inadmissible | undecided
    reason: str


@dataclass(frozen=True)
class TypeReport(_Report):
    tower: FieldTower = _key("field")
    slots: tuple[SquareClass, ...] = _key("algebra", "slots")
    rows: tuple[TypeVerdict, ...] = _key("catalog")
    admissible: tuple[TorusType, ...] = field(init=False)

    def __post_init__(self):
        admissible = tuple(r.tau for r in self.rows if r.verdict == "admissible")
        object.__setattr__(self, "admissible", admissible)


@dataclass(frozen=True)
class ComparisonRow:
    tau: TorusType = _key()
    verdict1: str
    verdict2: str


@dataclass(frozen=True)
class ComparisonReport(_Report):
    tower: FieldTower = _key("field")
    slots1: tuple[SquareClass, ...] = _key("algebra1", "slots")
    slots2: tuple[SquareClass, ...] = _key("algebra2", "slots")
    rows: tuple[ComparisonRow, ...] = _key("types")
    verdict: str  # "equivalent" | "not equivalent"

    @property
    def equivalent(self) -> bool:
        return self.verdict == "equivalent"


def _type_verdict(
    C: CompositionAlgebra, split: frozenset[SquareClass], tau: TorusType
) -> TypeVerdict:
    """The verdict on tau for C, whose splitting set is ``split``."""
    if isinstance(tau.cubic, PureCubicGalois):
        if one_class(C.tower) in split:
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
    first, second = _quadratic_pair(tau)
    ok1, ok2 = first in split, second in split
    verdict = "admissible" if (ok1 and ok2) else "inadmissible"
    reason = f"split by sqrt({first}): {'yes' if ok1 else 'no'}; split by sqrt({second}): {'yes' if ok2 else 'no'}"
    return TypeVerdict(tau, verdict, reason)


def type_report(C: CompositionAlgebra) -> TypeReport:
    if C.dim != 8:
        raise UnsupportedDim("torus types are catalogued for octonion algebras")
    split = _splitting_set(C)
    rows = tuple(_type_verdict(C, split, tau) for tau in torus_type_catalog(C.tower))
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
        ComparisonRow(a.tau, a.verdict, b.verdict) for a, b in zip(r1.rows, r2.rows)
    )
    same = all(r.verdict1 == r.verdict2 for r in rows)
    return ComparisonReport(
        C1.tower, C1.slots, C2.slots, rows, "equivalent" if same else "not equivalent"
    )


# -- the report codec ----------------------------------------------------------------------


# The ``kind`` tag of every tagged dataclass: the reports, and the cubic
# kinds, which the decoder tells apart by it.
_KINDS = {
    "split3": Split3,
    "quad_times": QuadTimes,
    "pure_cubic": PureCubicGalois,
    "cubic-obstruction": CubicObstructionReport,
    "type-report": TypeReport,
    "comparison": ComparisonReport,
}
_TAGS = {cls: kind for kind, cls in _KINDS.items()}


def _as_is(value, tower=None):
    return value


@lru_cache(maxsize=CACHE_SIZE)
def _codec(tp) -> tuple:
    """The (encode, decode) pair for values of declared type ``tp``, built
    once: towers and classes as their strings (classes parsed over the
    tower handed to decode), tuples as lists, a dataclass or a union of
    tagged kinds as an object, and anything else as itself."""
    if tp is FieldTower:
        return str, lambda value, tower: dsl.parse_field(value)
    if tp is SquareClass:
        return str, dsl.parse_class
    if get_origin(tp) is tuple:
        enc, dec = _codec(get_args(tp)[0])
        return (
            lambda value: [enc(v) for v in value],
            lambda value, tower: tuple(dec(v, tower) for v in value),
        )
    if any(map(is_dataclass, (tp, *get_args(tp)))):
        return _encode, lambda value, tower: _decode(tp, value, tower)
    return _as_is, _as_is


@lru_cache(maxsize=CACHE_SIZE)
def _plan(cls) -> tuple:
    """Per field of a dataclass, built once: its name, JSON key path,
    encode and decode, whether it is read back (derived ``init=False``
    fields are not) and whether its classes live over ``tower.inner()``."""
    types = get_type_hints(cls)
    return tuple(
        (f.name, f.metadata.get("key", (f.name,)), *_codec(types[f.name]),
         f.init, f.metadata.get("inner", False))
        for f in fields(cls)
    )


def _encode(value) -> dict:
    """The JSON object of a report or any dataclass part of one: its
    ``kind`` tag, if it has one, then its fields in declaration order."""
    cls = type(value)
    out = {"kind": _TAGS[cls]} if cls in _TAGS else {}
    for name, path, encode, _, _, _ in _plan(cls):
        encoded = encode(getattr(value, name))
        if not path:
            out.update(encoded)
            continue
        node = out
        for k in path[:-1]:
            node = node.setdefault(k, {})
        node[path[-1]] = encoded
    return out


def _decode(tp, value: dict, tower: Optional[FieldTower]):
    """The inverse of ``_encode`` for a dataclass ``tp``, or a union of
    tagged kinds, resolved by the value's ``kind``.  Classes are parsed
    over ``tower``, which a report reads from its own tower field,
    declared first."""
    if not is_dataclass(tp):
        tp = _KINDS[value["kind"]]
    kwargs = {}
    for name, path, _, decode, init, inner in _plan(tp):
        if not init:  # derived: written, not read back
            continue
        v = value
        for k in path:
            v = v[k]
        kwargs[name] = decode(v, tower.inner() if inner else tower)
        if isinstance(kwargs[name], FieldTower):
            tower = kwargs[name]
    return tp(**kwargs)
