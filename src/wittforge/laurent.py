"""Exact Laurent-polynomial scalars over a field tower.

Used wherever square classes are not enough: Gram matrix reduction,
composition algebra structure constants and element arithmetic, trace
forms.  Coefficients are Fractions over Q and sign bases, residues mod p
over prime bases, so over a degree-2 base F_{p^2} the nonresidue class has
no monomial representative.  Exponent vectors follow the tower's variable
order, innermost first; negative exponents are allowed.
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


@dataclass(frozen=True)
class LaurentPoly:
    tower: FieldTower
    terms: tuple  # sorted ((exps, coeff), ...), exps aligned with laurent_vars

    # -- constructors --------------------------------------------------------

    @classmethod
    def _make(cls, tower, term_map):
        terms = tuple(
            sorted((e, c) for e, c in term_map.items() if c != 0)
        )
        return cls(tower, terms)

    @classmethod
    def zero(cls, tower: FieldTower) -> "LaurentPoly":
        return cls(tower, ())

    @classmethod
    def const(cls, tower: FieldTower, c) -> "LaurentPoly":
        c = _norm_coeff(tower, c)
        n = len(tower.laurent_vars)
        return cls._make(tower, {(0,) * n: c})

    @classmethod
    def monomial(cls, tower: FieldTower, c, exponents=None) -> "LaurentPoly":
        exponents = exponents or {}
        for v in exponents:
            if v not in tower.laurent_vars:
                raise UnknownVariable(f"{v!r} not declared in {tower}")
        c = _norm_coeff(tower, c)
        exps = tuple(exponents.get(v, 0) for v in tower.laurent_vars)
        return cls._make(tower, {exps: c})

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

    def _map(self):
        return dict(self.terms)

    def __add__(self, other):
        other = LaurentPoly.coerce(self.tower, other)
        m = self._map()
        for e, c in other.terms:
            m[e] = _norm_coeff(self.tower, m.get(e, 0) + c)
        return LaurentPoly._make(self.tower, m)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._make(
            self.tower, {e: _norm_coeff(self.tower, -c) for e, c in self.terms}
        )

    def __sub__(self, other):
        return self + (-LaurentPoly.coerce(self.tower, other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = LaurentPoly.coerce(self.tower, other)
        m = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                m[e] = _norm_coeff(self.tower, m.get(e, 0) + c1 * c2)
        return LaurentPoly._make(self.tower, m)

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    # -- square class extraction ----------------------------------------------

    def square_class(self) -> SquareClass:
        """Class of this element in the Laurent tower.

        The lowest-order coefficient in the outermost variable determines
        the class: 1 + (higher order) is a square by Hensel's lemma in
        odd characteristic, so the extraction recurses inward.
        """
        if self.is_zero:
            raise ZeroElement("0 has no square class")
        tower = self.tower
        if not tower.laurent_vars:
            ((_, c),) = self.terms
            return SquareClass(tower, _base_class_of_constant(tower, c))
        v = min(e[-1] for e, _ in self.terms)
        inner = tower.inner()
        sub = {e[:-1]: c for e, c in self.terms if e[-1] == v}
        unit = LaurentPoly._make(inner, sub).square_class()
        outer_bit = (v & 1) << len(inner.laurent_vars)
        return SquareClass(tower, unit.base, unit.mask | outer_bit)

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
