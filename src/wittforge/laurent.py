"""Exact Laurent-polynomial scalars over a field tower.

Used wherever square classes are not enough: Gram matrix reduction,
composition algebra structure constants and element arithmetic, trace
forms.  Coefficients are Fractions over Q and sign bases, residues mod p
over prime bases, so over a degree-2 base F_{p^2} the nonresidue class has
no monomial representative.  Exponent vectors follow the tower's variable
order, innermost first; negative exponents are allowed.

Arithmetic accumulates, then reduces: sums and products add raw ints or
Fractions into plain {exps: coeff} maps, every product through the one
kernel ``_add_products``; ``_reduce_raw`` turns a map into a polynomial,
mod p over prime bases (a ring homomorphism, so this is what reducing at
every step gives), zeros dropped, terms sorted.  ``_norm_coeff`` checks
coefficients where they enter: ``const``, ``monomial`` and ``of_class``.
The class of a monomial term is read off it by ``_term_class`` (base class
of the coefficient, parities of the exponents), for ``square_class`` and
for the algebras' norm check alike.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter

from .errors import UnknownVariable, UnrepresentableClass, ZeroElement
from .fields import FieldTower, SquareClass, _base_class_of_constant


def _norm_coeff(tower: FieldTower, c):
    if isinstance(c, float):
        raise TypeError("exact coefficients only")
    if tower.kind == "F":
        if type(c) is int:
            return c % tower.p
        if isinstance(c, Fraction):
            den = c.denominator
            if den % tower.p == 0:
                raise ZeroElement(f"denominator vanishes in F_{tower.p}")
            return c.numerator * pow(den, -1, tower.p) % tower.p
        return int(c) % tower.p
    return Fraction(c)


def _term_class(tower: FieldTower, exps, c) -> tuple[int, int]:
    """(base part, variable mask) of the class of the monomial c * x^exps:
    the base class of c and the parities of the exponents."""
    return _base_class_of_constant(tower, c), sum((e & 1) << i for i, e in enumerate(exps))


def _add_products(raws: list, xs, ys, gamma) -> None:
    """Add every term of x_i * y_j * gamma[i][j], unreduced, into raws[i ^ j]:
    xs, ys hold one term sequence per slot, gamma[i][j] is one (exps, coeff)
    term; a polynomial product is one slot with gamma = 1.  Per slot j, x is
    flattened into its terms times gamma_ij, so ex + e_gamma is summed once."""
    xs = [(i, x) for i, x in enumerate(xs) if x]
    for j, y in enumerate(ys):
        if not y:
            continue
        xg = [(raws[i ^ j], tuple(map(add, ex, eg)), cx * cg)
              for i, x in xs for eg, cg in (gamma[i][j],) for ex, cx in x]
        for ey, cy in y:
            for raw, exg, cxg in xg:
                e = tuple(map(add, exg, ey))
                raw[e] = raw.get(e, 0) + cxg * cy


def _reduce_raw(tower: FieldTower, raw: dict) -> "LaurentPoly":
    """The polynomial of a raw {exps: coeff} map: coefficients mod p over
    prime bases, zero terms dropped, terms sorted by exponent vector."""
    if tower.kind == "F":
        p = tower.p
        terms = [(e, r) for e, c in raw.items() if (r := c % p)]
    else:
        terms = [(e, c) for e, c in raw.items() if c]
    terms.sort(key=itemgetter(0))
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
        return cls.monomial(tower, c)

    @classmethod
    def monomial(cls, tower: FieldTower, c, exponents=None) -> "LaurentPoly":
        exponents = exponents or {}
        for v in exponents:
            if v not in tower.laurent_vars:
                raise UnknownVariable(f"{v!r} not declared in {tower}")
        exps = tuple(exponents.get(v, 0) for v in tower.laurent_vars)
        c = _norm_coeff(tower, c)
        return cls(tower, ((exps, c),) if c else ())

    @classmethod
    def variable(cls, tower: FieldTower, name: str, e: int = 1) -> "LaurentPoly":
        return cls.monomial(tower, 1, {name: e})

    @classmethod
    def of_class(cls, x: SquareClass) -> "LaurentPoly":
        """The canonical monomial representing a square class: its base
        part times each variable of its mask, read off directly.

        Every prime-field constant is a square in F_{p^2}, so the
        nonresidue class of a degree-2 base has no such monomial.
        """
        if x.tower.degree == 2 and x.base != 1:
            raise UnrepresentableClass(
                f"no constant of F_{x.tower.p} represents {x} over {x.tower}"
            )
        exps = tuple(x.mask >> i & 1 for i in range(len(x.tower.laurent_vars)))
        return cls(x.tower, ((exps, _norm_coeff(x.tower, x.base)),))

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
        raws, one = [{}], ((0,) * len(self.tower.laurent_vars), 1)
        _add_products(raws, (self.terms,), (other.terms,), ((one,),))
        return _reduce_raw(self.tower, raws[0])

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
        return SquareClass(self.tower, *_term_class(self.tower, exps, c))

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
