"""Local-global machinery over Q.

Hilbert symbols, Hasse invariants with the product-over-pairs convention,
local and global isotropy, and Witt indices, all read off a form's local
data at the places that decide about it (Serre, *A Course in Arithmetic*,
Ch. III-IV).

``_hasse`` computes every symbol: prod over i < j of (a_i, a_j)_v of a
list of ints in one pass per place, each entry's local data read once
(sign; valuation bit and Legendre symbol of the unit at odd p; valuation
bit and unit mod 8 at 2) and the product over pairs read off counts, so a
form of dimension n costs O(n) per place, not C(n, 2) symbols.  A Hilbert
symbol is the invariant of the pair.

``_local_data`` decides a form from its sorted codes (mask, |b|, b < 0):
the places [0, 2, p, ...] (the real place, then 2 and the primes of the
entries, the factor bound read once), the discriminant folded into one
squarefree int d, the Hasse invariant at each place as a list of +-1 in
that order, and the signature; off those places every form is isotropic
and every invariant 1.  Invariants, ramification sets, local and global
isotropy (the first obstructing place in that order) and the Witt index
read it.  ``_witt_codes``, ``qform``'s base-field rule over Q, strips
hyperbolic planes on these ints: each plane multiplies the list by
(-1, -d)_v and turns d into -d, and the kernel's ``RationalInvariants``
are built once, at the end.  Forms over other towers raise FieldMismatch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Optional

from .errors import FieldMismatch, ZeroArgument
from .fields import (
    FieldTower,
    SquareClass,
    Value,
    factor_bound,
    is_prime,
    legendre,
    squarefree_decomposition,
)
from .qform import DiagonalForm, WittDecomposition, witt_decompose


@total_ordering
@dataclass(init=False, repr=False, eq=False)
class Place(Value):
    """A completion of Q: FinitePrime(p) or the real place (p == 0)."""

    p: int

    def __init__(self, p: int):
        if p != 0 and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.__dict__["p"] = p

    def _values(self) -> tuple:
        return (self.p,)

    def __lt__(self, other):
        return self.p < other.p if type(other) is type(self) else NotImplemented

    @property
    def is_real(self) -> bool:
        return self.p == 0

    def __str__(self) -> str:
        return "oo" if self.is_real else str(self.p)

    __repr__ = __str__


REAL_PLACE = Place(0)


def _as_int(x) -> int:
    """A nonzero int in the square class of x: num * den for a Fraction."""
    if isinstance(x, SquareClass):
        x = x.base
    f = Fraction(x)
    if f == 0:
        raise ZeroArgument("Hilbert symbols need nonzero arguments")
    return f.numerator * f.denominator


def _hasse(values, p: int) -> int:
    """prod over i < j of (a_i, a_j)_v for nonzero ints a_i, at the real
    place (p == 0) or at the prime p, in one pass over the entries.

    The symbol is bilinear and depends only on each entry's local data
    (Serre, *A Course in Arithmetic*, Ch. III, Thm. 1), so the product over
    pairs is a function of counts.  Real place: k negative entries give
    (-1)^C(k,2).  Odd p: with alpha_i the valuation bit, l_i the Legendre
    symbol of the unit and A the number of alpha_i = 1, the product is
    (-1|p)^C(A,2) * prod l_i^(A - alpha_i), that is (-1|p)^C(A,2) times the
    Legendre symbol of the product of the units with alpha_i = 1 (A even)
    or alpha_i = 0 (A odd).  p = 2: with e_i, w_i the epsilon and omega
    bits of the unit mod 8, E and W their counts, the exponent of -1 is
    C(E,2) + A*W - sum alpha_i*w_i.
    """
    if p == 0:
        k = sum(1 for a in values if a < 0)
        return -1 if k * (k - 1) // 2 % 2 else 1
    A = 0
    if p == 2:
        E = W = alpha_omega = 0
        for u in values:
            alpha = 0
            while u % 2 == 0:
                u //= 2
                alpha ^= 1
            omega = (u >> 1 ^ u >> 2) & 1  # u = 3, 5 mod 8
            A += alpha
            E += u >> 1 & 1  # u = 3, 7 mod 8
            W += omega
            alpha_omega += alpha & omega
        return -1 if (E * (E - 1) // 2 + A * W - alpha_omega) % 2 else 1
    units = [1, 1]  # products mod p of the units with alpha = 0 and alpha = 1
    for u in values:
        alpha = 0
        while u % p == 0:
            u //= p
            alpha ^= 1
        A += alpha
        units[alpha] = units[alpha] * u % p
    h = legendre(units[0] if A % 2 else units[1], p)
    return -h if p % 4 == 3 and A * (A - 1) // 2 % 2 else h


def hilbert_symbol(a, b, v: Place) -> int:
    """(a, b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial local solution."""
    return _hasse((_as_int(a), _as_int(b)), v.p)


def ramification_set(a, b) -> frozenset[Place]:
    """Places where the quaternion symbol (a, b) does not split."""
    places, _, hasse, _ = _local_data([(0, abs(x), x < 0) for x in (_as_int(a), _as_int(b))])
    return frozenset(Place(p) for p, h in zip(places, hasse) if h < 0)


@dataclass(init=False, repr=False, eq=False)
class RationalInvariants(Value):
    """Classifying data of a form over Q.

    ``hasse_minus`` holds exactly the places where the Hasse invariant
    (product over i < j of pairwise symbols) equals -1.
    """

    dim: int
    disc: SquareClass
    hasse_minus: frozenset[Place]
    signature: tuple[int, int]

    def hasse(self, v: Place) -> int:
        return -1 if v in self.hasse_minus else 1


def _local_data(codes) -> tuple[list[int], int, list[int], tuple[int, int]]:
    """(places, d, hasse, signature) of the form over Q of sorted codes
    ``codes`` (module docstring).  d folds the codes as ``fields._code_mul``
    does; the primes are those of the entries, factored up to
    ``WITTFORGE_FACTOR_BOUND``."""
    values, primes, size, negative = [], {2}, 1, False
    bound = factor_bound()
    for _, b, neg in codes:
        values.append(-b if neg else b)
        primes.update(squarefree_decomposition(b, bound)[1])
        g = math.gcd(size, b)
        size, negative = (size // g) * (b // g), negative != neg
    places = [0, *sorted(primes)]
    pos = sum(1 for x in values if x > 0)
    hasse = [_hasse(values, p) for p in places]
    return places, -size if negative else size, hasse, (pos, len(values) - pos)


def _invariants(tower: FieldTower, dim: int, places, d: int, hasse, signature):
    minus = frozenset(Place(p) for p, h in zip(places, hasse) if h < 0)
    return RationalInvariants(dim, SquareClass(tower, d), minus, signature)


def _rational_key(f: DiagonalForm) -> tuple:
    """The codes of a form over Q itself; FieldMismatch over any other
    tower, Q((t)) included, whose forms the local-global rules do not see."""
    if f.tower.kind != "Q" or f.tower.laurent_vars:
        raise FieldMismatch(f"the local-global rules of Q do not apply over {f.tower}")
    return f.key


def rational_invariants(f: DiagonalForm) -> RationalInvariants:
    return _invariants(f.tower, f.dim, *_local_data(_rational_key(f)))


def is_square_in_qp(x, p: int) -> bool:
    if type(x) is not int:
        x = Fraction(x)
        x = x.numerator * x.denominator
    if x == 0:
        return True
    alpha = 0
    while x % p == 0:
        x //= p
        alpha ^= 1
    if alpha:
        return False
    if p == 2:
        return x % 8 == 1
    return legendre(x, p) == 1


def _local_isotropic(dim: int, d: int, h: int, signature, p: int) -> bool:
    """Classical case analysis on (dim, disc d, Hasse invariant h,
    signature) at the real place (p == 0) or the prime p."""
    if dim <= 1:
        return False
    if p == 0:
        pos, neg = signature
        return pos >= 1 and neg >= 1
    if dim == 2:
        return is_square_in_qp(-d, p)
    if dim == 3:
        return _hasse((-1, -d), p) == h  # (-1, -disc)_p
    if dim == 4:
        return not is_square_in_qp(d, p) or h == _hasse((-1, -1), p)
    return True


def _obstruction(dim: int, d: int, hasse, signature, places) -> Optional[int]:
    """The first of ``places`` (0 the real place) at which a form of these
    invariants is anisotropic, or None.  Past dimension 4 every finite
    place is isotropic, so only the real place is read."""
    for p, h in zip(places if dim <= 4 else places[:1], hasse):
        if not _local_isotropic(dim, d, h, signature, p):
            return p
    return None


def local_isotropy(f: DiagonalForm, v: Place) -> bool:
    places, d, hasse, signature = _local_data(_rational_key(f))
    h = hasse[places.index(v.p)] if v.p in places else 1
    return _local_isotropic(f.dim, d, h, signature, v.p)


def global_isotropy_certificate(f: DiagonalForm) -> tuple[bool, Optional[Place]]:
    """Hasse-Minkowski over the places of ``_local_data``: verdict plus
    the first failing place (the real place, then the primes ascending)."""
    places, d, hasse, signature = _local_data(_rational_key(f))
    p = _obstruction(f.dim, d, hasse, signature, places)
    return p is None, None if p is None else Place(p)


def global_isotropy(f: DiagonalForm) -> bool:
    return global_isotropy_certificate(f)[0]


def _witt_codes(tower: FieldTower, codes) -> tuple:
    """``qform._base_witt`` over Q on sorted codes: (witt_index, kernel
    invariants, class), the class the invariants or None when hyperbolic."""
    places, d, hasse, (pos, neg) = _local_data(codes)
    dim, index = len(codes), 0
    while dim >= 2 and _obstruction(dim, d, hasse, (pos, neg), places) is None:
        hasse = [h * _hasse((-1, -d), p) for p, h in zip(places, hasse)]
        dim, d, pos, neg, index = dim - 2, -d, pos - 1, neg - 1, index + 1
    inv = _invariants(tower, dim, places, d, hasse, (pos, neg))
    return index, inv, inv if dim else None


def witt_index_rational(f: DiagonalForm) -> WittDecomposition:
    """The Witt decomposition of a form over Q, by ``qform``'s Witt pass."""
    _rational_key(f)
    return witt_decompose(f)
