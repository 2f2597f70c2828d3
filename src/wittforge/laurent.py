"""Exact Laurent-polynomial scalars over a field tower.

Used wherever square classes are not enough: Gram matrix reduction,
composition algebra structure constants and element arithmetic, trace
forms.  Coefficients are Fractions over Q and sign bases, residues mod p
over prime bases, so over a degree-2 base F_{p^2} the nonresidue class has
no monomial representative.  Exponent vectors follow the tower's variable
order, innermost first; negative exponents are allowed.  A polynomial's
``terms`` are sorted ``((exps, coeff), ...)`` with ``exps`` a tuple.

Arithmetic packs, accumulates, then reduces.  Inside this module an
exponent vector e of n entries is one int, its key: the sum of
e_i * 2^(K*(n-1-i)), the first variable in the most significant digit,
digits balanced in (-2^(K-1), 2^(K-1)) (Kronecker substitution).  Adding
exponent vectors is adding keys, and keys sort as their tuples do.
Every exponent is checked where it is packed: |e| < EXP_LIMIT = 2^(K-3),
so that three keys (x_i * y_j * gamma_ij) add without a carry from one
digit into the next; a larger one raises ``ExponentOutOfRange`` instead of
colliding with another key.  Sums and products add raw ints or Fractions
into plain {key: coeff} maps.  ``_packed`` lists the terms of one or more
polynomials as one flat list of (slot, key, coeff), slot the index of the
polynomial; every product goes through the one kernel ``_add_products``,
one double loop over pairs of terms that adds cx * cy * cg at ex + ey + eg
into the map of slot i xor j (a polynomial product is slot 0 with gamma =
1).  ``_reduce_raw``, the one reduction, turns a list of maps into
polynomials with the tower read once: mod p over prime bases (a ring
homomorphism, so this is what reducing at every step gives), zeros
dropped, terms sorted by key and the keys read back as tuples.  It builds
each value, as ``__init__`` does, with one write of the instance dict
(``fields.Value`` forbids ``__setattr__``).  Values are taken to be
canonical: terms sorted, nonzero, reduced.  So a sum with a zero operand
is the other operand, and negation maps each coefficient c to -c (p - c
over F_p) in the order the terms already have, so a difference f + (-g)
reduces at most once; a product with a zero factor is zero, with no
kernel call and no reduction.  Every operand is packed first, so its exponents are
still checked in each of these cases.  Packing and
unpacking go through memos bounded by ``fields.CACHE_SIZE``; the
unpacking memo is kept per arity, since (1,) and (0, 1) have the same
key.  ``fields._norm_coeff``, the one rule that reduces a constant into
the tower, checks coefficients where they enter: ``const``, ``monomial``
and ``of_class``.  The class of a monomial term is read off it by
``_term_class`` (base class of the coefficient, parities of the
exponents), for ``square_class`` and for the algebras' norm check alike.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ExponentOutOfRange, UnknownVariable, UnrepresentableClass, ZeroElement, number_text
from .fields import CACHE_SIZE, FieldTower, SquareClass, Value, _base_class_of_constant, _norm_coeff

K = 32  # bits per exponent digit of a packed key
EXP_LIMIT = 1 << (K - 3)  # |e| < EXP_LIMIT: three keys add without a carry
_HALF = 1 << (K - 1)
_DIGIT = (1 << K) - 1

_KEYS: dict = {}  # exponent tuple -> key; a tuple carries its arity
_EXPS: dict = {}  # arity -> {key: exponent tuple}


def _term_class(tower: FieldTower, exps, c) -> tuple[int, int]:
    """(base part, variable mask) of the class of the monomial c * x^exps:
    the base class of c and the parities of the exponents."""
    return _base_class_of_constant(tower, c), sum((e & 1) << i for i, e in enumerate(exps))


def _remember(memo: dict, k, v):
    """memo[k] = v, the oldest entry dropped once CACHE_SIZE are kept."""
    if len(memo) >= CACHE_SIZE:
        del memo[next(iter(memo))]
    memo[k] = v
    return v


def _key(exps: tuple) -> int:
    """The packed key of an exponent vector, each exponent checked."""
    key = _KEYS.get(exps)
    if key is None:
        key = 0
        for e in exps:
            if not -EXP_LIMIT < e < EXP_LIMIT:
                raise ExponentOutOfRange(
                    f"exponent {number_text(e)}: packed arithmetic needs |e| < {EXP_LIMIT}"
                )
            key = (key << K) + e
        _remember(_KEYS, exps, key)
    return key


def _exps(key: int, n: int, memo: dict) -> tuple:
    """The exponent vector of n entries packed in key, by balanced digits,
    through memo (the unpacking memo of arity n)."""
    exps = memo.get(key)
    if exps is None:
        out = []
        k = key
        for _ in range(n):
            e = ((k + _HALF) & _DIGIT) - _HALF
            out.append(e)
            k = (k - e) >> K
        exps = _remember(memo, key, tuple(out[::-1]))
    return exps


def _packed(polys) -> list:
    """The terms of the polynomials as one flat list [(slot, key, coeff), ...],
    slot the index of the polynomial in polys, each key checked where packed."""
    try:
        return [(i, _KEYS[e], c) for i, f in enumerate(polys) for e, c in f.terms]
    except KeyError:
        return [(i, _key(e), c) for i, f in enumerate(polys) for e, c in f.terms]


def _add_products(raws: list, xs, ys, gamma) -> None:
    """Add x_i * y_j * gamma_ij, unreduced, into raws[i ^ j] for every pair of
    a term (i, ex, cx) of xs and a term (j, ey, cy) of ys (``_packed``):
    one double loop over term pairs, row gamma[i] read once per x term,
    gamma[i][j] one packed (key, coeff) term, so each pair adds cx * cy * cg
    at the key ex + ey + eg.  A polynomial product is slot 0 with gamma = 1.
    Most pairs land on a key not yet in the map, so the map is asked once
    whether it holds the key instead of read with a default."""
    for i, ex, cx in xs:
        row = gamma[i]
        for j, ey, cy in ys:
            eg, cg = row[j]
            raw = raws[i ^ j]
            e = ex + ey + eg
            if e in raw:
                raw[e] += cx * cy * cg
            else:
                raw[e] = cx * cy * cg


_ONE = (((0, 1),),)  # gamma of a polynomial product: key 0, the zero vector, coefficient 1
_new = object.__new__  # the reduction builds values by one write of the instance dict


def _reduce_raw(tower: FieldTower, raws) -> list:
    """The polynomials of raw {key: coeff} maps, one per map and with the
    tower read once for all of them: coefficients mod p over prime bases,
    zero terms dropped, terms sorted by key, keys unpacked.  The keys are
    sorted as plain ints: keys of two or more variables are ints of more
    than one digit, which sort faster alone than as the first item of
    (key, coeff) pairs."""
    n = len(tower.laurent_vars)
    memo = _EXPS.get(n)
    if memo is None:
        memo = _EXPS[n] = {}
    p = tower.p if tower.kind == "F" else None
    out = []
    for raw in raws:
        keys = sorted(raw)
        try:
            if p:
                terms = [(memo[k], r) for k in keys if (r := raw[k] % p)]
            else:
                terms = [(memo[k], c) for k in keys if (c := raw[k])]
        except KeyError:
            if p:
                terms = [(_exps(k, n, memo), r) for k in keys if (r := raw[k] % p)]
            else:
                terms = [(_exps(k, n, memo), c) for k in keys if (c := raw[k])]
        f = _new(LaurentPoly)  # one write of the instance dict, as in __init__
        d = f.__dict__
        d["tower"], d["terms"] = tower, tuple(terms)
        out.append(f)
    return out


@dataclass(init=False, repr=False, eq=False)
class LaurentPoly(Value):
    """A Laurent polynomial over ``tower``: its canonical terms."""

    tower: FieldTower
    terms: tuple  # sorted ((exps, coeff), ...), exps aligned with laurent_vars

    def __init__(self, tower: FieldTower, terms: tuple):
        d = self.__dict__
        d["tower"], d["terms"] = tower, terms

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
            if value.tower is not tower and value.tower != tower:
                raise UnknownVariable(f"polynomial over {value.tower}, expected {tower}")
            return value
        if isinstance(value, SquareClass):
            return cls.of_class(value)
        return cls.const(tower, value)

    # -- ring operations -----------------------------------------------------
    #
    # Every operand is packed, so an exponent out of range raises, before a
    # zero operand or a negation returns with no kernel call or reduction.

    def __add__(self, other):
        other = LaurentPoly.coerce(self.tower, other)
        terms = _packed((self, other))
        if not self.terms:
            return other
        if not other.terms:
            return self
        raw = {}
        for _, k, c in terms:
            raw[k] = raw.get(k, 0) + c
        return _reduce_raw(self.tower, (raw,))[0]

    __radd__ = __add__

    def __neg__(self):
        _packed((self,))
        tower = self.tower
        if tower.kind == "F":  # terms stay sorted and nonzero: c -> p - c
            p = tower.p
            return LaurentPoly(tower, tuple([(e, p - c) for e, c in self.terms]))
        return LaurentPoly(tower, tuple([(e, -c) for e, c in self.terms]))

    def __sub__(self, other):
        # negation makes no reduction, so a difference makes one, in the sum
        return self + (-LaurentPoly.coerce(self.tower, other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = LaurentPoly.coerce(self.tower, other)
        mine, theirs = _packed((self,)), _packed((other,))
        if not (mine and theirs):
            return LaurentPoly(self.tower, ())
        raws = [{}]
        _add_products(raws, mine, theirs, _ONE)
        return _reduce_raw(self.tower, raws)[0]

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
            return number_text(coeff)
        body = "*".join(parts)
        if coeff == 1:
            return body
        if coeff == -1:
            return "-" + body
        return f"{number_text(coeff)}*{body}"

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
