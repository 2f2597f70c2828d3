"""Torus-type catalogs, splitting profiles and the cubic obstruction.

A maximal-torus type of an automorphism group of an octonion algebra is
indexed by a pair (quadratic etale class, cubic etale descriptor).  The
quadratic part is a square class (1 encoding k x k); the cubic part is
either fully split, the product of k with a quadratic etale algebra, or
the ramified Galois cubic k((t))(t^(1/3)) available once the base holds
a primitive cube root of unity.

Admissibility of the first two cubic kinds reduces to splitting the
algebra over at most two quadratic extensions.  An algebra's flag vector
(``_flags``) tells, per class code, whether the class's quadratic etale
algebra splits the algebra: the class 1 (k x k) when the algebra is split
(``is_split``), any other class when it is in the splitting profile.
The one rule ``_type_verdict`` reads a type's verdict off the flags of
F' and F'' (``_quadratic_pair``), or flag 0 for the cubic-field kind;
``admits_type`` hands it just its type's two flags, keyed by code, so it
needs no finite class group.  The split3 rows list the flags and every
row is a function of them, so ``compare_torus_systems`` decides on flag
equality, with no type report.  The cubic-field kind is
ruled out for division algebras by a trace-form comparison: every
hermitian-shape candidate (b, c) compatible with the norm form would
force the norm to be hyperbolic.  The Jacobson norm <<d>> x <<b,c>> is
<<d>> + <<d>> x pure(<<b,c>>), so by Witt cancellation step (d),
<<d>> x t3 ~ <<d>> x pure(<<b,c>>), holds exactly when the norm's Witt
class equals that of <<d>> x (<1> + t3), the target.  For x^3 = t,
Tr(x) = Tr(x^2) = Tr(x^4) = 0 and Tr(x^3) = 3t, so t3 is <3> + H and
<1> + t3 is <1,3> + H, hyperbolic exactly when zeta_3 is in k.  Step
(d) is this check, on the computed t3, once per tower next to the
lambda rows (``_tower_rows``; InternalInconsistency if it fails).  Then
every target is hyperbolic, and a candidate's trace forms are isometric
exactly when the norm is hyperbolic.

The candidates are compared by their mod-2 symbols (see ``qform``).  A
3-fold Pfister form is determined by its symbol e_3 in k_3: two are
isometric iff their symbols are equal, and one is hyperbolic iff its
symbol is 0 (Orlov-Vishik-Voevodsky, Ann. of Math. 165, 2007).  So a
candidate matches the norm exactly when (d)(b)(c) is the norm's symbol,
which an algebra keeps from its construction, and a match contradicts
the theorem exactly when that symbol is 0.  One rule, ``_cubic_verdict``,
keyed on (tower, d, symbol), gives both reports their pure-cubic
verdict: "inadmissible" for a nonzero symbol, which a division algebra's
norm has, while symbol 0 raises before any row is built.  So a row has
two states: a match, whose trace forms are not isometric, or no match.
One table per tower (``_pair_table``) holds the distinct symbols (b)(c)
in k_2 and, per (b, c) pair, the index of its symbol and its unmatched
row, so a d costs one product (d)(b)(c) per distinct symbol.

An obstruction report's parts are computed once per the inputs they
depend on: the lambda rows and step (d) (checked as built), the trace
gram and t3 per tower; and the report body, verdict and evidence rows, per
(tower, code of d, symbol of the norm), so algebras with isometric norms
share it.  The preconditions that depend on the algebra alone are
checked once per algebra, the division check on its symbol, and the
symbol is kept on the algebra once they pass; a failure keeps nothing
and raises again.  A repeated report pays for the checks on d, one memo
lookup on (tower, int, int) and a copy of the memoized fields into the
report's instance dict, and builds and folds no form.  An evidence row
is a function of its (b, c) pair and its state, so every report over a
tower shares the table's unmatched rows, and a report body builds only
its matching rows.  The report and the memoized helpers call ``sq_mul``,
``diagonalize`` and ``EvidenceRow`` through module globals.

The three reports share one JSON codec, ``_encode`` and ``_decode``,
driven by the dataclasses' own fields and declared types: a field's
``key`` metadata renames or nests its JSON key (the empty path spreads a
row's torus type into the row), one table maps ``kind`` tags to the
report and cubic classes, and derived ``init=False`` fields are written
but not read back.  Each class's field plan, with an encoder and decoder
per declared type, is built once.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache
from typing import Optional, Union, get_args, get_origin, get_type_hints

from . import dsl
from .algebras import CompositionAlgebra, is_split
from .errors import (
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
    Value,
    class_of_code,
    enumerate_square_classes,
    lift_class,
    one_class,
    sq_mul,
    var_class,
)
from .laurent import LaurentPoly
from .qform import (
    SYMBOL_VARS,
    _symbol,
    _symbol_times,
    _witt,
    diagonalize,
    quadratic_splitting_classes,
    splits_over_quadratic,
)


# -- torus types ------------------------------------------------------------------


@dataclass(init=False, repr=False, eq=False)
class Split3(Value):
    """Cubic part k x k x k."""


@dataclass(init=False, repr=False, eq=False)
class QuadTimes(Value):
    """Cubic part k x E for the quadratic etale algebra of class delta."""

    delta: SquareClass


@dataclass(init=False, repr=False, eq=False)
class PureCubicGalois(Value):
    """Cubic part k((t))(t^(1/3)), Galois once zeta_3 lives downstairs."""

    var: str


Cubic = Union[Split3, QuadTimes, PureCubicGalois]


@dataclass(init=False, repr=False, eq=False)
class TorusType(Value):
    """A maximal torus type: its quadratic class and its cubic part."""

    quad: SquareClass
    cubic: Cubic

    def __init__(self, quad: SquareClass, cubic: Cubic):
        if isinstance(cubic, PureCubicGalois):
            tower = quad.tower
            if not tower.laurent_vars or cubic.var != tower.outer_var:
                raise ValueError("pure cubic type needs the outermost uniformizer")
            if not tower.has_zeta3():
                raise ValueError("pure cubic Galois type needs zeta_3 in the base")
        self.__dict__.update(quad=quad, cubic=cubic)

    def __str__(self):
        return f"(quad={self.quad}, cubic={_cubic_str(self.cubic)})"


def _cubic_str(c: Cubic) -> str:
    if isinstance(c, Split3):
        return "split3"
    if isinstance(c, QuadTimes):
        return f"quad_times({c.delta})"
    return f"pure_cubic({c.var})"


# The most rows a torus-type catalog or an obstruction report's evidence
# may have: about 2^(2n+2) over n Laurent variables, so eight variables
# (262,656 rows, some 3 s for a type report) are catalogued and nine (over
# a million rows) are refused.
CATALOG_ROWS = 1 << 19


def torus_type_catalog(tower: FieldTower) -> list[TorusType]:
    """All torus types over an enumerable tower, in a fixed order.
    PreconditionFailed, before any class is listed, when there would be
    more than ``CATALOG_ROWS`` of them."""
    pure = tower.has_zeta3() and bool(tower.laurent_vars)
    count = 2 ** (len(tower.laurent_vars) + 1)  # the classes, if enumerable
    if tower.is_enumerable and count * (count + pure) > CATALOG_ROWS:
        raise PreconditionFailed(
            f"the torus-type catalog over {tower} has {count * (count + pure)} rows, "
            f"more than the bound of {CATALOG_ROWS}"
        )
    classes = enumerate_square_classes(tower)
    cubics: list[Cubic] = [Split3()]
    cubics += [QuadTimes(d) for d in classes if not d.is_one]
    if pure:
        cubics.append(PureCubicGalois(tower.outer_var))
    return [TorusType(q, c) for q in classes for c in cubics]


# -- splitting criteria --------------------------------------------------------------


def splitting_profile(C: CompositionAlgebra) -> frozenset[SquareClass]:
    """Nonsquare classes delta with C split by adjoining sqrt(delta)."""
    return quadratic_splitting_classes(C.tower, C.slots)


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
    if tau.quad.tower != C.tower:
        raise FieldMismatch(f"{tau.quad.tower} vs {C.tower}")
    if isinstance(tau.cubic, PureCubicGalois):
        raise UnsupportedCubic("use cubic_obstruction_report for the cubic field kind")
    flags = {q.code: is_split(C) if q.is_one else splits_over_quadratic(C.tower, C.slots, q)
             for q in set(_quadratic_pair(tau))}
    return _type_verdict(C, flags, tau).verdict == "admissible"


def genus_equal_rational(q1: tuple, q2: tuple) -> bool:
    """Quaternion genus over Q: equality of ramification sets."""
    a1, b1 = q1
    a2, b2 = q2
    return ramification_set(a1, b1) == ramification_set(a2, b2)


# -- cubic etale algebra arithmetic ---------------------------------------------------


def _times_x(fcs, a) -> tuple:
    """a * x in K[x]/(x^3 + c2 x^2 + c1 x + c0), fcs = (c0, c1, c2): a shift
    of the coordinates, with x^3 = -c0 - c1 x - c2 x^2."""
    c0, c1, c2 = fcs
    a0, a1, a2 = a
    return -(a2 * c0), a0 - a2 * c1, a1 - a2 * c2


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
    """Gram matrix of (x, y) -> Tr(lam * x * y) on K[x]/(f), basis 1, x, x^2:
    entry (i, j) is Tr(lam * x^(i+j)) = sum_m (lam * x^(i+j))_m * Tr(x^m)."""
    fcs = _coerce_cubic(tower, f)
    if cubic_discriminant(tower, f).is_zero:
        raise NotSeparable("cubic polynomial has vanishing discriminant")
    lam = _coerce_element(tower, lam)
    # lam * x^k for k = 0..4; the first three are the columns of lam's
    # multiplication matrix in the basis 1, x, x^2
    powers = [lam]
    for _ in range(4):
        powers.append(_times_x(fcs, powers[-1]))
    if _det3(tower, [[powers[j][i] for j in range(3)] for i in range(3)]).is_zero:
        raise LambdaNotUnit("scaling element is not invertible")
    # Tr(x^m) as power sums of the roots, by Newton's identities
    _, c1, c2 = fcs
    power_sums = (LaurentPoly.const(tower, 3), -c2, c2 * c2 - 2 * c1)
    zero = LaurentPoly.zero(tower)
    traces = [sum((h * p for h, p in zip(hk, power_sums)), zero) for hk in powers]
    return [[traces[i + j] for j in range(3)] for i in range(3)]


# -- the cubic-field obstruction --------------------------------------------------------


def _key(*path: str):
    """A report field written under the JSON key path ``path`` (nested
    objects) instead of its name; the empty path spreads the field's own
    object into its parent's."""
    return field(metadata={"key": path})


class _Report(Value):
    """JSON for a report through the one codec, ``_encode``/``_decode``."""

    def to_json_dict(self) -> dict:
        return _encode(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str):
        return _decode(cls, json.loads(text), None)


@dataclass(init=False, repr=False, eq=False)
class LambdaRow(Value):
    """Step (a) for one unit class and valuation r of lambda."""

    r: int
    unit: SquareClass = field(metadata={"inner": True})  # a class of tower.inner()
    norm_class: SquareClass
    norm_is_square: bool
    lambda_is_square: bool


@dataclass(init=False, repr=False, eq=False)
class EvidenceRow(Value):
    """Steps (c) and (d) for one hermitian candidate (b, c)."""

    b: SquareClass
    c: SquareClass
    norm_matches: bool
    trace_isometric: Optional[bool]
    contradiction: bool


@dataclass(init=False, repr=False, eq=False)
class CubicObstructionReport(_Report):
    """The cubic-field exclusion replayed for one algebra and one d."""

    tower: FieldTower = _key("field")
    slots: tuple[SquareClass, ...] = _key("algebra", "slots")
    d: SquareClass
    verdict: str
    lambda_rows: tuple[LambdaRow, ...] = _key("lambda_table")
    gram: tuple[tuple[str, ...], ...] = _key("trace_gram")
    trace_diagonal: tuple[SquareClass, ...]
    evidence: tuple[EvidenceRow, ...]


def _cubic_verdict(tower: FieldTower, d_code: int, symbol: int) -> str:
    """"inadmissible" for an algebra whose norm has the symbol ``symbol``.
    Once ``_tower_rows`` has checked that the step (d) target is
    hyperbolic, a candidate's trace forms are isometric only when the
    norm is hyperbolic, of symbol 0, which a division algebra's norm is
    not: symbol 0 contradicts the theorem (InternalInconsistency).  Both
    reports read their pure-cubic verdict here."""
    _tower_rows(tower)  # checks the lambda rows and step (d), once per tower
    if not symbol:
        raise InternalInconsistency(
            f"cubic obstruction contradicted at d = {class_of_code(tower, d_code)}"
        )
    return "inadmissible"


def cubic_obstruction_report(
    C: CompositionAlgebra, d: SquareClass
) -> CubicObstructionReport:
    """Replay of the cubic-field exclusion for a division octonion algebra.

    (a) the unit-and-valuation check forcing the hermitian scaling to be
    a square, (b) the trace form t3 of the ramified cubic, (c) all (b, c)
    square-class pairs whose hermitian norm matches the algebra norm,
    (d) for each, the trace-form isometry that would make the norm
    hyperbolic: by Witt cancellation, the norm's class is the target's,
    and the target is hyperbolic (checked once per tower).
    The preconditions of the algebra alone are answered once per algebra
    (``_obstruction_symbol``), those of d on every call; the rest of the
    report, its verdict and its rows, comes from one memo keyed on the
    ints (d's code, the norm's symbol), whose verdict ``_cubic_verdict``
    decides.  A contradiction raises InternalInconsistency, and a raise
    is never memoized.  The report's instance dict is filled from the
    memoized fields, in order, and then given the algebra's tower and
    slots and d: exactly what its constructor writes.
    """
    symbol = C.__dict__.get("_obstruction_symbol")
    if symbol is None:
        symbol = _obstruction_symbol(C)
    tower = C.tower
    if d.tower is not tower and d.tower != tower:
        raise FieldMismatch(f"{d.tower} vs {tower}")
    if not d.code:  # the class 1: the tower is enumerable
        raise PreconditionFailed("d must be a nonsquare")

    report = object.__new__(CubicObstructionReport)
    fields_ = report.__dict__
    fields_.update(_report_body(tower, d.code, symbol))
    fields_["tower"] = tower
    fields_["slots"] = C.slots
    fields_["d"] = d
    return report


def _obstruction_symbol(C: CompositionAlgebra) -> int:
    """The preconditions of the obstruction that depend on the algebra
    alone, and its norm's symbol, the report body's key: checked once and
    kept in the algebra's instance dict as ``_obstruction_symbol`` once
    they pass.  A failure keeps nothing, so it raises again on every
    call.  A report has one evidence row per pair of classes, 4^(n+1)
    over n Laurent variables, held to ``CATALOG_ROWS`` like the catalog."""
    tower = C.tower
    if C.dim != 8:
        raise PreconditionFailed("the obstruction applies to octonion algebras")
    if not tower.is_enumerable:
        raise PreconditionFailed("the obstruction sweep needs a finite class group")
    if not tower.laurent_vars:
        raise PreconditionFailed("the ramified cubic needs a Laurent uniformizer")
    if not tower.has_zeta3():
        raise PreconditionFailed("the cubic is Galois only with zeta_3 in the base")
    symbol = C.symbol
    if symbol is None:
        raise PreconditionFailed(
            f"the obstruction sweep needs at most {SYMBOL_VARS} Laurent variables"
        )
    rows = 4 ** (len(tower.laurent_vars) + 1)
    if rows > CATALOG_ROWS:
        raise PreconditionFailed(
            f"the obstruction report over {tower} has {rows} evidence rows, "
            f"more than the bound of {CATALOG_ROWS}"
        )
    if not symbol:
        raise PreconditionFailed("the obstruction applies to division algebras")
    C.__dict__["_obstruction_symbol"] = symbol
    return symbol


@lru_cache(maxsize=CACHE_SIZE)
def _report_body(tower: FieldTower, d_code: int, symbol: int) -> dict:
    """Every field of an obstruction report, by name and in order, for any
    division algebra over ``tower`` whose norm has the symbol ``symbol``
    and the d of code ``d_code``, with ``tower``, ``slots`` and ``d`` left
    for the report to fill: the verdict (``_cubic_verdict``), which raises
    on symbol 0 before any row is built, and the rows, the unmatched ones
    the tower's shared row objects (``_pair_table``)."""
    verdict = _cubic_verdict(tower, d_code, symbol)
    lambda_rows, gram, trace_diagonal = _tower_rows(tower)
    evidence = _evidence_rows(tower, d_code, symbol)
    return {"tower": None, "slots": None, "d": None, "verdict": verdict,
            "lambda_rows": lambda_rows, "gram": gram,
            "trace_diagonal": trace_diagonal, "evidence": evidence}


@lru_cache(maxsize=CACHE_SIZE)
def _tower_rows(tower: FieldTower) -> tuple:
    """Steps (a), (b) and (d), which depend on the tower alone: the lambda
    rows, checked as they are built, the trace gram as strings and t3's
    diagonal, and the check that <1> + t3, hence every target, is hyperbolic."""
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
            if row.norm_is_square != row.lambda_is_square:
                raise InternalInconsistency(f"cubic obstruction contradicted by {row}")
            lambda_rows.append(row)

    # (b) trace form of K(t^(1/3)) = K[x]/(x^3 - t)
    gram = trace_form_gram(tower, (-LaurentPoly.variable(tower, tower.outer_var), 0, 0))
    t3 = diagonalize(tower, gram).entries

    # (d) <1> + t3 = <1,3> + H is hyperbolic iff -3 is a square
    w = _witt(tower, tuple(sorted((one_class(tower).code, *(e.code for e in t3)))))
    if w.kernel_dim:
        raise InternalInconsistency(f"cubic obstruction contradicted: <1> + t3 has the kernel {w.kernel}")
    return tuple(lambda_rows), tuple(tuple(str(e) for e in row) for row in gram), t3


@lru_cache(maxsize=CACHE_SIZE)
def _pair_table(tower: FieldTower) -> tuple:
    """The pairs (b, c) of square classes of an enumerable tower, built
    once: the distinct symbols (b)(c) in k_2, in the order of their first
    pair, and per pair, b outer, the index of its symbol and its unmatched
    row.  The Jacobson norm <<b,c,d>> has the symbol (d)(b)(c), so one
    product per symbol tells which pairs match a norm."""
    symbols: dict[int, int] = {}
    pairs = []
    for b, c in itertools.product(enumerate_square_classes(tower), repeat=2):
        index = symbols.setdefault(_symbol(tower, (b.code, c.code)), len(symbols))
        pairs.append((index, EvidenceRow(b, c, False, None, False)))
    return tuple(symbols), tuple(pairs)


def _evidence_rows(tower: FieldTower, d_code: int, symbol: int) -> tuple:
    """The rows of steps (c) and (d) against a norm of the nonzero symbol
    ``symbol``, one per pair (b, c): a row matches when (d)(b)(c) is that
    symbol, one product per distinct (b)(c) (``_pair_table``).  The step
    (d) target is hyperbolic and the symbol is not 0 (``_report_body``
    reads ``_cubic_verdict`` first, which raises on 0), so a matching
    row's trace forms are not isometric and no row contradicts.  A
    matching row is built per call; an unmatched row is its pair's
    shared row, built once per tower."""
    symbols, pairs = _pair_table(tower)
    matched = [_symbol_times(tower, d_code, value, 2) == symbol for value in symbols]
    return tuple(EvidenceRow(row.b, row.c, True, False, False) if matched[i] else row for i, row in pairs)


# -- reports -----------------------------------------------------------------------------


@dataclass(init=False, repr=False, eq=False)
class TypeVerdict(Value):
    """One catalog row: a torus type, its verdict and the reason."""

    tau: TorusType = _key()
    verdict: str  # admissible | inadmissible | undecided
    reason: str


@dataclass(init=False, repr=False, eq=False)
class TypeReport(_Report):
    """The verdict on every torus type; ``admissible`` is derived."""

    tower: FieldTower = _key("field")
    slots: tuple[SquareClass, ...] = _key("algebra", "slots")
    rows: tuple[TypeVerdict, ...] = _key("catalog")
    admissible: tuple[TorusType, ...] = field(init=False)

    def __init__(self, tower, slots, rows):
        admissible = tuple(r.tau for r in rows if r.verdict == "admissible")
        self.__dict__.update(tower=tower, slots=slots, rows=rows, admissible=admissible)


@dataclass(init=False, repr=False, eq=False)
class ComparisonRow(Value):
    """One torus type's verdicts for the two algebras."""

    tau: TorusType = _key()
    verdict1: str
    verdict2: str


@dataclass(init=False, repr=False, eq=False)
class ComparisonReport(_Report):
    """Per-type verdicts of two algebras; equivalent iff they all agree."""

    tower: FieldTower = _key("field")
    slots1: tuple[SquareClass, ...] = _key("algebra1", "slots")
    slots2: tuple[SquareClass, ...] = _key("algebra2", "slots")
    rows: tuple[ComparisonRow, ...] = _key("types")
    verdict: str  # "equivalent" | "not equivalent"

    @property
    def equivalent(self) -> bool:
        return self.verdict == "equivalent"


def _flags(C: CompositionAlgebra) -> list[bool]:
    """Per class code, whether that class's quadratic etale algebra splits
    C: the splitting profile, and ``is_split`` at code 0 (k x k)."""
    flags = [False] * len(enumerate_square_classes(C.tower))
    for c in splitting_profile(C):
        flags[c.code] = True
    flags[0] = is_split(C)
    return flags


def _type_verdict(C: CompositionAlgebra, flags, tau: TorusType) -> TypeVerdict:
    """The verdict on tau for C: ``flags[k]`` is entry k of C's flag vector
    (``_flags``), a list or a dict holding at least the codes tau reads."""
    if isinstance(tau.cubic, PureCubicGalois):
        if flags[0]:
            return TypeVerdict(tau, "undecided", "split algebra: outside the division-algebra obstruction")
        if tau.quad.is_one:
            return TypeVerdict(tau, "inadmissible", "quadratic part must be a field for a division algebra")
        verdict = _cubic_verdict(C.tower, tau.quad.code, C.symbol)
        return TypeVerdict(tau, verdict, "cubic obstruction: no hermitian candidate survives")
    first, second = _quadratic_pair(tau)
    ok1, ok2 = flags[first.code], flags[second.code]
    verdict = "admissible" if (ok1 and ok2) else "inadmissible"
    reason = f"split by sqrt({first}): {'yes' if ok1 else 'no'}; split by sqrt({second}): {'yes' if ok2 else 'no'}"
    return TypeVerdict(tau, verdict, reason)


def type_report(C: CompositionAlgebra) -> TypeReport:
    if C.dim != 8:
        raise UnsupportedDim("torus types are catalogued for octonion algebras")
    catalog = torus_type_catalog(C.tower)  # checks the catalog's size first
    flags = _flags(C)
    return TypeReport(C.tower, C.slots, tuple(_type_verdict(C, flags, tau) for tau in catalog))


def compare_torus_systems(C1: CompositionAlgebra, C2: CompositionAlgebra) -> ComparisonReport:
    """Per-type comparison, decided on the flag vectors (``_type_verdict``):
    the split3 row of q reads flag q twice, a quad_times(delta) row flags q
    and q*delta, and a pure-cubic row flag 0, then ``_cubic_verdict``,
    which returns "inadmissible" or raises.  So the rows all agree exactly
    when the vectors are equal.  The towers, both dims and the catalog's
    row bound are checked before any flag is built."""
    if C1.tower != C2.tower:
        raise FieldMismatch(f"{C1.tower} vs {C2.tower}")
    if C1.dim != 8 or C2.dim != 8:
        raise UnsupportedDim("torus types are catalogued for octonion algebras")
    catalog = torus_type_catalog(C1.tower)  # checks the catalog's size first
    f1, f2 = _flags(C1), _flags(C2)
    rows = tuple(
        ComparisonRow(tau, _type_verdict(C1, f1, tau).verdict, _type_verdict(C2, f2, tau).verdict)
        for tau in catalog
    )
    return ComparisonReport(
        C1.tower, C1.slots, C2.slots, rows, "equivalent" if f1 == f2 else "not equivalent"
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
