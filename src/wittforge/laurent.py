"""Exact Laurent-polynomial scalars over a field tower.

Used wherever square classes are not enough: Gram matrix reduction,
composition algebra structure constants and element arithmetic, trace
forms.  Coefficients are Fractions over Q and sign bases, residues mod p
over prime bases, so over a degree-2 base F_{p^2} the nonresidue class has
no monomial representative.  Exponent vectors follow the tower's variable
order, innermost first; negative exponents are allowed.

Arithmetic accumulates, then reduces: sums and products first add raw
coefficients (ints, or Fractions) into a plain {exps: coeff} map, every
product through the one kernel ``_add_product``, and ``_reduce_raw``
then turns that map into a polynomial: ``_norm_coeff`` once per
exponent, zeros dropped, terms sorted.  Reduction mod p is a ring
homomorphism, so the result is the one that reducing at every step
gives.  ``algebras`` builds whole element products the same way.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnknownVariable, UnrepresentableClass, ZeroElement
from .fields import FieldTower, SquareClass, _base_class_of_constant


def _norm_coeff(tower: FieldTower, c):
    if isinstance(c, float):
        raise TypeError("exact coefficients only")
    if tower.kind == "F":
        if isinstance(c, Fraction):
            den = c.denominator
            if den % tower.p == 0:
                raise ZeroElement(f"denominator vanishes in F_{tower.p}")
            return c.numerator * pow(den, -1, tower.p) % tower.p
        return int(c) % tower.p
    if isinstance(c, Fraction):
        return c
    return Fraction(int(c))


def _add_product(raw: dict, f, g, h) -> None:
    """Add every term of the product of three term sequences into ``raw``,
    coefficients unreduced.  The loops nest h, f, g: the longest goes last."""
    for eh, ch in h:
        for ef, cf in f:
            efh = [a + b for a, b in zip(ef, eh)]
            cfh = cf * ch
            for eg, cg in g:
                e = tuple([a + b for a, b in zip(efh, eg)])
                raw[e] = raw.get(e, 0) + cfh * cg


def _reduce_raw(tower: FieldTower, raw: dict) -> "LaurentPoly":
    """The polynomial of a raw {exps: coeff} map: each coefficient reduced
    once, zero terms dropped, terms sorted by exponent vector."""
    terms = []
    for e, c in raw.items():
        c = _norm_coeff(tower, c)
        if c:
            terms.append((e, c))
    terms.sort()
    return LaurentPoly(tower, tuple(terms))


@dataclass(frozen=True)
class LaurentPoly:
    tower: FieldTower
    terms: tuple  # sorted ((exps, coeff), ...), exps aligned with laurent_vars

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, tower: FieldTower) -> "LaurentPoly":
        return cls(tower, ())

    @classmethod
    def const(cls, tower: FieldTower, c) -> "LaurentPoly":
        return _reduce_raw(tower, {(0,) * len(tower.laurent_vars): c})

    @classmethod
    def monomial(cls, tower: FieldTower, c, exponents=None) -> "LaurentPoly":
        exponents = exponents or {}
        for v in exponents:
            if v not in tower.laurent_vars:
                raise UnknownVariable(f"{v!r} not declared in {tower}")
        exps = tuple(exponents.get(v, 0) for v in tower.laurent_vars)
        return _reduce_raw(tower, {exps: c})

    @classmethod
    def variable(cls, tower: FieldTower, name: str, e: int = 1) -> "LaurentPoly":
        return cls.monomial(tower, 1, {name: e})

    @classmethod
    def of_class(cls, x: SquareClass) -> "LaurentPoly":
        """The canonical monomial representing a square class.

        Every prime-field constant is a square in F_{p^2}, so the
        nonresidue class of a degree-2 base has no such monomial.
        """
        if x.tower.degree == 2 and x.base != 1:
            raise UnrepresentableClass(
                f"no constant of F_{x.tower.p} represents {x} over {x.tower}"
            )
        return cls.monomial(x.tower, x.base, {v: 1 for v in x.odd_vars})

    @classmethod
    def coerce(cls, tower: FieldTower, value) -> "LaurentPoly":
        if isinstance(value, LaurentPoly):
            if value.tower != tower:
                raise UnknownVariable(f"polynomial over {value.tower}, expected {tower}")
            return value
        if isinstance(value, SquareClass):
            return cls.of_class(value)
        return cls.const(tower, value)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = LaurentPoly.coerce(self.tower, other)
        raw = dict(self.terms)
        for e, c in other.terms:
            raw[e] = raw.get(e, 0) + c
        return _reduce_raw(self.tower, raw)

    __radd__ = __add__

    def __neg__(self):
        return _reduce_raw(self.tower, {e: -c for e, c in self.terms})

    def __sub__(self, other):
        return self + (-LaurentPoly.coerce(self.tower, other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = LaurentPoly.coerce(self.tower, other)
        raw = {}
        one = (((0,) * len(self.tower.laurent_vars), 1),)
        _add_product(raw, self.terms, other.terms, one)
        return _reduce_raw(self.tower, raw)

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- square class extraction ----------------------------------------------

    def square_class(self) -> SquareClass:
        """Class of this element in the Laurent tower: that of its leading
        term, least in the outermost exponent, then the next one inward,
        since 1 + (higher order) is a square by Hensel's lemma in odd
        characteristic, one variable at a time."""
        if self.is_zero:
            raise ZeroElement("0 has no square class")
        exps, c = min(self.terms, key=lambda term: term[0][::-1])
        mask = sum((e & 1) << i for i, e in enumerate(exps))
        return SquareClass(self.tower, _base_class_of_constant(self.tower, c), mask)

    # -- display ----------------------------------------------------------------

    def _fmt_term(self, exps, coeff) -> str:
        parts = []
        for name, e in zip(self.tower.laurent_vars, exps):
            if e == 0:
                continue
            parts.append(name if e == 1 else f"{name}^{e}")
        if not parts:
            return str(coeff)
        body = "*".join(parts)
        if coeff == 1:
            return body
        if coeff == -1:
            return "-" + body
        return f"{coeff}*{body}"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        out = ""
        for exps, coeff in self.terms:
            t = self._fmt_term(exps, coeff)
            if out and not t.startswith("-"):
                out += "+"
            out += t
        return out

    __repr__ = __str__
