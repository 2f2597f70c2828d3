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
into plain {key: coeff} maps, every product through the one kernel
``_add_products``; ``_reduce_raw``, the one reduction, turns a map into a
polynomial, mod p over prime bases (a ring homomorphism, so this is what
reducing at every step gives), zeros dropped, terms sorted by key and the
keys read back as tuples.  A product with a zero factor is zero at once,
after both factors are packed (so their exponents are still checked),
with no kernel call and no reduction; sums always reduce.  Packing and
unpacking go through memos bounded by ``fields.CACHE_SIZE``; the
unpacking memo is kept per arity, since (1,) and (0, 1) have the same
key.  ``fields._norm_coeff``, the one rule that reduces a constant into
the tower, checks coefficients where they enter: ``const``, ``monomial``
and ``of_class``.  The class of a monomial term is read off it by ``_term_class`` (base class of the
coefficient, parities of the exponents), for ``square_class`` and for the
algebras' norm check alike.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ExponentOutOfRange, UnknownVariable, UnrepresentableClass, ZeroElement, number_text
from .fields import CACHE_SIZE, FieldTower, SquareClass, _base_class_of_constant, _norm_coeff

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
    """The terms of each polynomial as a list [(key, coeff), ...]."""
    try:
        return [[(_KEYS[e], c) for e, c in f.terms] for f in polys]
    except KeyError:
        return [[(_key(e), c) for e, c in f.terms] for f in polys]


def _add_products(raws: list, xs, ys, gamma) -> None:
    """Add every term of x_i * y_j * gamma[i][j], unreduced, into raws[i ^ j]:
    xs, ys hold one packed term sequence per slot, gamma[i][j] is one packed
    (key, coeff) term; a polynomial product is one slot with gamma = 1.  Per
    slot j, x is flattened into its terms times gamma_ij, so ex + eg is
    summed once."""
    xs = [(i, x) for i, x in enumerate(xs) if x]
    for j, y in enumerate(ys):
        if not y:
            continue
        xg = [(raws[i ^ j], ex + eg, cx * cg)
              for i, x in xs for eg, cg in (gamma[i][j],) for ex, cx in x]
        for ey, cy in y:
            for raw, exg, cxg in xg:
                e = exg + ey
                raw[e] = raw.get(e, 0) + cxg * cy


def _reduce_raw(tower: FieldTower, raw: dict) -> "LaurentPoly":
    """The polynomial of a raw {key: coeff} map: coefficients mod p over
    prime bases, zero terms dropped, terms sorted by key, keys unpacked."""
    n = len(tower.laurent_vars)
    memo = _EXPS.get(n)
    if memo is None:
        memo = _EXPS[n] = {}
    keys = sorted(raw)
    if tower.kind == "F":
        p = tower.p
        try:
            terms = [(memo[k], r) for k in keys if (r := raw[k] % p)]
        except KeyError:
            terms = [(_exps(k, n, memo), r) for k in keys if (r := raw[k] % p)]
    else:
        try:
            terms = [(memo[k], c) for k in keys if (c := raw[k])]
        except KeyError:
            terms = [(_exps(k, n, memo), c) for k in keys if (c := raw[k])]
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
        mine, theirs = _packed((self, other))
        raw = dict(mine)
        for k, c in theirs:
            raw[k] = raw.get(k, 0) + c
        return _reduce_raw(self.tower, raw)

    __radd__ = __add__

    def __neg__(self):
        (mine,) = _packed((self,))
        return _reduce_raw(self.tower, {k: -c for k, c in mine})

    def __sub__(self, other):
        return self + (-LaurentPoly.coerce(self.tower, other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = LaurentPoly.coerce(self.tower, other)
        mine, theirs = _packed((self, other))
        if not (mine and theirs):  # both packed, so an exponent out of range still raises
            return LaurentPoly(self.tower, ())
        raws = [{}]
        # gamma = 1: key 0, that of the zero exponent vector, coefficient 1
        _add_products(raws, (mine,), (theirs,), (((0, 1),),))
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
