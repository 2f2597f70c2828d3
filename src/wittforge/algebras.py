"""Composition algebras by structure constants.

Quaternions, octonions and the dimension-16 negative control are
iterated doublings of the ground field: C = A + A*u with u^2 = c and

    (x, y) (z, w) = (x z + c conj(w) y,  w x + y conj(z)).

The norm of the double is <1,-c> tensor N_A, so an algebra built on
slots (a, b, ...) has the corresponding Pfister form as its norm.

Doubling keeps basis products monomial, e_i * e_j = gamma_ij * e_(i xor j),
and unrolled it gives the index rule

    gamma_ij = omega(i, j) * prod_(k in i & j) c_k,

with c_k the monomial of slot k (bit k of the index) and omega(i, j) = +-1.
The sign omega(i, j) does not depend on the slots; ``_sign`` reads it in
closed form off the bits of i and j, the doubling formula unrolled from the
top bit down.  The table ``gamma`` holds one
(exps, coeff) term per pair, picked out of the 2^n slot products and
their negatives by a layout read off omega and cached per slot count
(``_row_getters``).  The products are built one doubling at a time, as
C(a_1, ..., a_n) = CD(C(a_1, ..., a_(n-1)), a_n): from the product 1,
each slot appends every product so far times its monomial (exponent
vectors added, coefficients multiplied and reduced mod p), whose one
term (``LaurentPoly.of_class``, checked to be a single term) is memoized
per class (``_slot_term``).  The pair's sign sits on its coefficient,
which is left unreduced, since products reduce once at the end.  An
algebra is identified by (tower, slots), which is all its table depends
on.

Construction checks the slots (at most four, each a square class over
the tower) and the one-term monomial of each (``_slot_term``), and keeps
the norm's mod-2 symbol, ``symbol`` = (a_1)...(a_n), read off the slot
codes (``qform._symbol``; None over Q, Q((t)) and towers of more than
``qform.SYMBOL_VARS`` variables).  It builds and folds no form.  An
algebra of dimension 2, 4 or 8 is split iff its norm is hyperbolic, that
is iff the symbol is 0; without a symbol ``is_split`` asks whether the
norm form is isotropic.  The norm form ``norm`` is ``qform.pfister`` of
the slots, built on its first read.  Questions of the norm alone
(splitting, the cubic obstruction) read the symbol and stop there.  The
table is built on its first read (``gamma``), and checked on codes, once
per algebra, before any reader gets it: the class code of each
N(e_i) = -gamma_ii, with N(e_0) = 1, is read off its term
(``laurent._term_class``: the exponent parities and the base class of
the coefficient) and must equal entry i of the norm's codes as
``qform._pfister_codes`` folds them, so no norm form is built.  A table
that fails raises on every read.  The diagonal coefficients
``norm_coeffs`` become polynomials on first use.  Element coordinates are
exact Laurent polynomials; the operations used here (multiply, conjugate, norm, trace)
never leave that ring.  A zero divisor is x with conj x, for x an
isotropic vector of the diagonal norm (``qform.isotropic_vector``).

A product is one accumulate-then-reduce pass on packed exponent keys, one
int per exponent vector (see ``laurent``).  The coordinates of x and of y
are packed into one flat list of (slot, key, coeff) terms each
(``laurent._packed``); the kernel ``laurent._add_products`` runs one double
loop over the pairs of terms, reads row gamma_i once per term of x, and
adds x_i * y_j * gamma_ij, unreduced, into a raw {key: coeff} map for slot
i xor j, its exponent the sum of three keys.  One call of the one
reduction, ``laurent._reduce_raw``, then turns the dim maps into the
coordinates, reading the keys back as tuples.  The norm value is the same
kernel, one coordinate at a time, as slot 0 with gamma = N(e_i).  The
table is packed once per algebra, on the first product (``_gamma``).
Products and ``element`` build their values with one write of the
instance dict; ``element`` coerces only what is not already a polynomial
over the tower.  Exponents of size ``laurent.EXP_LIMIT`` or more raise
``ExponentOutOfRange`` where they are packed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import add, itemgetter
from typing import Sequence

from .errors import (
    AlgebraMismatch,
    DimTooLarge,
    InternalInconsistency,
    UnsupportedDim,
    ZeroSlot,
)
from .fields import (
    CACHE_SIZE,
    FieldTower,
    SquareClass,
    Value,
    _class_code,
    _norm_coeff,
    class_of_code,
)
from .laurent import (
    LaurentPoly,
    _add_products,
    _key,
    _packed,
    _reduce_raw,
    _term_class,
)
from .qform import (
    DiagonalForm,
    _pfister_codes,
    _symbol,
    is_isotropic,
    isotropic_vector,
    pfister,
)

_new = object.__new__  # values are built by one write of the instance dict


class CompositionAlgebra:
    """The algebra on ``slots``: the symbol of its Pfister norm, kept at
    construction where the tower has symbols (else None); the norm form,
    built on first read; and its structure-constant table by the index
    rule, built and checked against the norm's codes on first use."""

    def __init__(self, tower, slots):
        slots = tuple(slots)
        if len(slots) > 4:
            raise DimTooLarge("doubling past dimension 16 is not supported")
        for c in slots:
            if not isinstance(c, SquareClass):
                raise ZeroSlot("doubling slot must be a nonzero square class")
            if c.tower is not tower and c.tower != tower:
                raise AlgebraMismatch(f"{c.tower} vs {tower}")
        codes = tuple(c.code for c in slots)
        for code in codes:
            _slot_term(tower, code)  # each slot has its one-term monomial
        self.tower = tower
        self.slots = slots
        self.dim = 1 << len(slots)
        self.symbol = _symbol(tower, codes)  # None where the tower has no symbols

    @cached_property
    def norm(self) -> DiagonalForm:
        """The Pfister norm <<slots>> as a form, built on first read."""
        return pfister(self.tower, self.slots)

    @cached_property
    def gamma(self) -> tuple:
        """e_i * e_j = gamma[i][j] * e_(i ^ j), one (exps, coeff) term per
        pair, by the index rule on first use; the class of each N(e_i),
        read off its term, must be the norm's entry i."""
        gamma = _index_rule_table(self.tower, self.slots)
        codes = _pfister_codes(self.tower, self.slots)
        diagonal = tuple(
            _class_code(self.tower, *_term_class(self.tower, e, c)) for e, c in _norm_terms(gamma)
        )
        if diagonal != codes:
            raise InternalInconsistency(
                f"norm codes {diagonal} of the table do not fit the Pfister codes {codes}"
            )
        return gamma

    @cached_property
    def _gamma(self) -> tuple:
        """The table with packed exponent keys, (key, coeff) terms, as the
        product kernel reads it: packed on first use, once."""
        return tuple([(_key(e), c) for e, c in row] for row in self.gamma)

    @cached_property
    def norm_coeffs(self) -> tuple[LaurentPoly, ...]:
        """N(e_i) as polynomials, from the table's diagonal on first use."""
        return tuple(_reduce_raw(self.tower, [{k: c} for k, c in _norm_terms(self._gamma)]))

    def __eq__(self, other):
        return (
            isinstance(other, CompositionAlgebra)
            and self.tower == other.tower
            and self.slots == other.slots
        )

    def __hash__(self):
        return hash((self.tower, self.slots))

    def __str__(self):
        inner = ",".join(str(s) for s in self.slots)
        return f"CD({self.tower}; {inner})" if inner else f"CD({self.tower})"

    __repr__ = __str__

    def element(self, coords) -> "AlgebraElement":
        tower = self.tower
        coords = tuple([
            c if type(c) is LaurentPoly and c.tower is tower else LaurentPoly.coerce(tower, c)
            for c in coords
        ])
        if len(coords) != self.dim:
            raise AlgebraMismatch(f"need {self.dim} coordinates, got {len(coords)}")
        x = _new(AlgebraElement)  # one write of the instance dict
        d = x.__dict__
        d["algebra"], d["coords"] = self, coords
        return x

    def basis(self, i: int) -> "AlgebraElement":
        coords = [0] * self.dim
        coords[i] = 1
        return self.element(coords)

    def one(self) -> "AlgebraElement":
        return self.basis(0)


@dataclass(init=False, repr=False, eq=False)
class AlgebraElement(Value):
    """An element of ``algebra``: one polynomial coordinate per basis vector."""

    algebra: CompositionAlgebra
    coords: tuple[LaurentPoly, ...]

    def _check(self, other):
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise AlgebraMismatch(f"{self.algebra} vs {other.algebra}")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(
            self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return AlgebraElement(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            c = LaurentPoly.coerce(self.algebra.tower, other)
            return AlgebraElement(self.algebra, tuple(c * a for a in self.coords))
        self._check(other)
        A = self.algebra
        raws = [{} for _ in range(A.dim)]  # slot i ^ j: {key: unreduced coeff}
        _add_products(raws, _packed(self.coords), _packed(other.coords), A._gamma)
        x = _new(AlgebraElement)  # one write of the instance dict
        d = x.__dict__
        d["algebra"], d["coords"] = A, tuple(_reduce_raw(A.tower, raws))
        return x

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coords)

    def conj(self) -> "AlgebraElement":
        return AlgebraElement(
            self.algebra, (self.coords[0],) + tuple(-c for c in self.coords[1:])
        )

    def trace(self) -> LaurentPoly:
        return self.coords[0] + self.coords[0]

    def norm(self) -> LaurentPoly:
        """x * conj(x), landing in the scalar span."""
        prod = self * self.conj()
        if not all(c.is_zero for c in prod.coords[1:]):
            raise InternalInconsistency(f"norm of {self} left the scalar span")
        return prod.coords[0]

    def norm_form_value(self) -> LaurentPoly:
        """The norm evaluated as a diagonal form on the coordinates."""
        raws = [{}]
        for n, c in zip(_norm_terms(self.algebra._gamma), self.coords):
            x = _packed((c,))
            _add_products(raws, x, x, ((n,),))
        return _reduce_raw(self.algebra.tower, raws)[0]

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    __repr__ = __str__


def _sign(i: int, j: int) -> int:
    """omega(i, j) = +-1 with gamma_ij = omega(i, j) * prod_(k in i & j) c_k,
    in closed form: the doubling formula unrolled over the index bits, from
    the top bit down.  At bit b, with i', j' the parts of i and j below it,

        (a,0)(b,0) = (ab, 0)         (a,0)(0,b) = (0, ba)
        (0,a)(b,0) = (0, a conj(b))  (0,a)(0,b) = (c conj(b) a, 0),

    so the sign flips where i has bit b and j' != 0 (conj(e_j') = -e_j'),
    and i', j' swap places where j has bit b (Baez, "The Octonions", Bull.
    AMS 39, 2002, 2.2).  Once j' = 0 no sign flips and no parts swap."""
    sign = 1
    top = 1 << (i | j).bit_length()
    while j:
        top >>= 1
        if i & top:
            i ^= top
            if j & ~top:  # j' != 0
                sign = -sign
        if j & top:
            i, j = j ^ top, i
    return sign


def _norm_terms(gamma) -> list:
    """N(e_0) = 1 and N(e_i) = -e_i^2 = -gamma_ii as terms of the table's
    format, (exps, coeff) or (key, coeff), the coefficients unreduced."""
    return [(e, -c if i else c) for i, row in enumerate(gamma) for e, c in (row[i],)]


@lru_cache(maxsize=CACHE_SIZE)
def _row_getters(n: int) -> tuple:
    """Row i of the table for n slots, picked out of the 2^n slot products
    followed by their negatives: entry j is product i & j, negated where
    omega(i, j) < 0.  An itemgetter of one index returns the item itself,
    so the one-entry row of no slots is a slice."""
    d = 1 << n
    if d == 1:
        return (itemgetter(slice(0, 1)),)
    return tuple(
        itemgetter(*(i & j if _sign(i, j) > 0 else d + (i & j) for j in range(d)))
        for i in range(d)
    )


@lru_cache(maxsize=CACHE_SIZE)
def _slot_term(tower: FieldTower, code) -> tuple:
    """The one (exps, coeff) term of the monomial of the slot class with
    code ``code`` (``LaurentPoly.of_class``), checked to be a single term,
    once per class."""
    x = class_of_code(tower, code)
    terms = LaurentPoly.of_class(x).terms
    if len(terms) != 1:
        raise InternalInconsistency(
            f"slot {x} has the terms {terms}: slots must be signed monomials"
        )
    return terms[0]


def _slot_products(tower: FieldTower, slots: tuple) -> list:
    """The 2^n slot products prod_(k in i) c_k, i < 2^n, as (exps, coeff)
    terms reduced mod p, one doubling at a time: from the product 1, each
    slot appends every product so far times its term."""
    products = [((0,) * len(tower.laurent_vars), _norm_coeff(tower, 1))]
    for slot in slots:
        e, c = _slot_term(tower, slot.code)
        last = [(tuple(map(add, pe, e)), pc * c) for pe, pc in products]
        if tower.kind == "F":
            last = [(le, lc % tower.p) for le, lc in last]
        products += last
    return products


def _index_rule_table(tower: FieldTower, slots: tuple) -> tuple:
    """gamma_ij = omega(i, j) * prod_(k in i & j) c_k as one (exps, coeff)
    term, c_k the checked one-term monomial of slot k: the 2^n slot products
    and the sign on the coefficient, unreduced (products reduce at the end)."""
    pos = _slot_products(tower, slots)
    signed = (*pos, *[(e, -c) for e, c in pos])
    return tuple(row(signed) for row in _row_getters(len(slots)))


def cayley_dickson(A: CompositionAlgebra, c: SquareClass) -> CompositionAlgebra:
    """Double A with a new unit of square c."""
    return algebra_from_slots(A.tower, A.slots + (c,))


def quaternion(tower: FieldTower, a: SquareClass, b: SquareClass) -> CompositionAlgebra:
    """Basis 1, i, j, ij with i^2 = a, j^2 = b, ij = -ji; norm <<a,b>>."""
    return algebra_from_slots(tower, (a, b))


def octonion(
    tower: FieldTower, a: SquareClass, b: SquareClass, c: SquareClass
) -> CompositionAlgebra:
    return algebra_from_slots(tower, (a, b, c))


def algebra_from_slots(
    tower: FieldTower, slots: Sequence[SquareClass]
) -> CompositionAlgebra:
    return CompositionAlgebra(tower, slots)


def is_split(A: CompositionAlgebra) -> bool:
    """Split means isotropic (equivalently hyperbolic) norm form: a zero
    symbol where the tower has symbols, an isotropic norm form elsewhere."""
    if A.dim not in (2, 4, 8):
        raise UnsupportedDim(f"splitness is defined for dimensions 2, 4, 8; got {A.dim}")
    if A.symbol is not None:
        return A.symbol == 0
    return is_isotropic(A.norm)


def composition_defect(x: AlgebraElement, y: AlgebraElement) -> LaurentPoly:
    """N(xy) - N(x)N(y), exactly; zero in every true composition algebra."""
    if x.algebra != y.algebra:
        raise AlgebraMismatch(f"{x.algebra} vs {y.algebra}")
    return (x * y).norm_form_value() - x.norm_form_value() * y.norm_form_value()


# -- witnesses -----------------------------------------------------------------


def zero_divisor_pair(A: CompositionAlgebra):
    """A pair (x, conj x) of nonzero elements multiplying to zero, or None.

    x is an isotropic vector of the diagonal norm (``qform.isotropic_vector``),
    so a pair exists only when the norm form is isotropic; the product is
    checked exactly before the pair is returned.
    """
    coords = isotropic_vector(A.tower, A.norm_coeffs)
    if coords is None:
        return None
    x = A.element(coords)
    pair = (x, x.conj())
    if x.is_zero or not (pair[0] * pair[1]).is_zero:
        raise InternalInconsistency(f"{x} is not a zero divisor of {A}")
    return pair
