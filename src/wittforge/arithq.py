"""Local-global machinery over Q.

Hilbert symbols at the real place and at finite primes, Hasse invariants
with the product-over-pairs convention, local isotropy by the classical
dimension case analysis, and Witt indices computed on invariant tuples.

One routine, ``_hasse``, computes every symbol: the Hasse invariant
prod over i < j of (a_i, a_j)_v of a list of integers, in one pass per
place.  Each entry's local data is read once (the sign; the valuation bit
and the Legendre symbol of the unit at an odd p; the valuation bit and the
unit mod 8 at 2), and the product over pairs is read off counts, so a
form of dimension n costs O(n) per place, not C(n, 2) symbols.  A Hilbert
symbol is the Hasse invariant of the pair, and the plane-stripping step
of ``witt_index_rational`` is that of <-1, -disc>.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from typing import Optional

from .errors import ZeroArgument
from .fields import (
    SquareClass,
    Value,
    factor_bound,
    is_prime,
    legendre,
    minus_one_class,
    one_class,
    sq_mul,
    squarefree_decomposition,
)
from .qform import DiagonalForm, WittDecomposition


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


def _split(a: int, p: int) -> tuple[int, int]:
    """(alpha, u) with a = p^v * u, p not dividing u, alpha = v mod 2."""
    alpha = 0
    while a % p == 0:
        a //= p
        alpha ^= 1
    return alpha, a


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
        for a in values:
            alpha, u = _split(a, 2)
            omega = (u >> 1 ^ u >> 2) & 1  # u = 3, 5 mod 8
            A += alpha
            E += u >> 1 & 1  # u = 3, 7 mod 8
            W += omega
            alpha_omega += alpha & omega
        return -1 if (E * (E - 1) // 2 + A * W - alpha_omega) % 2 else 1
    units = [1, 1]  # products mod p of the units with alpha = 0 and alpha = 1
    for a in values:
        alpha, u = _split(a, p)
        A += alpha
        units[alpha] = units[alpha] * u % p
    h = legendre(units[0] if A % 2 else units[1], p)
    return -h if p % 4 == 3 and A * (A - 1) // 2 % 2 else h


def hilbert_symbol(a, b, v: Place) -> int:
    """(a, b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial local solution."""
    return _hasse((_as_int(a), _as_int(b)), v.p)


def _support_primes(values) -> list[int]:
    """2 and the primes dividing some value to an odd power: away from
    them every Hilbert symbol of the values is 1.  Factoring is bounded
    by ``WITTFORGE_FACTOR_BOUND``, read once per call."""
    primes = {2}
    bound = factor_bound()
    for x in values:
        primes.update(squarefree_decomposition(x, bound)[1])
    return sorted(primes)


def ramification_set(a, b) -> frozenset[Place]:
    """Places where the quaternion symbol (a, b) does not split."""
    a, b = _as_int(a), _as_int(b)
    places = [REAL_PLACE] + [Place(p) for p in _support_primes((a, b))]
    return frozenset(v for v in places if _hasse((a, b), v.p) == -1)


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


def _entry_values(f: DiagonalForm) -> list[int]:
    return [e.base for e in f.entries]


def support_places(f: DiagonalForm) -> list[Place]:
    return [Place(p) for p in _support_primes(_entry_values(f))]


def _invariants_and_places(f: DiagonalForm) -> tuple[RationalInvariants, list[Place]]:
    """The invariants of f and the places that decide about it: the real
    place, then ``support_places(f)``."""
    vals = _entry_values(f)
    places = [REAL_PLACE] + support_places(f)
    disc = one_class(f.tower)
    for e in f.entries:
        disc = sq_mul(disc, e)
    minus = frozenset(v for v in places if _hasse(vals, v.p) == -1)
    pos = sum(1 for x in vals if x > 0)
    return RationalInvariants(len(vals), disc, minus, (pos, len(vals) - pos)), places


def rational_invariants(f: DiagonalForm) -> RationalInvariants:
    return _invariants_and_places(f)[0]


def is_square_in_qp(x, p: int) -> bool:
    x = Fraction(x)
    if x == 0:
        return True
    alpha, u = _split(x.numerator * x.denominator, p)
    if alpha:
        return False
    if p == 2:
        return u % 8 == 1
    return legendre(u, p) == 1


def _local_isotropic(
    dim: int, disc_val: int, hasse_v: int, signature, v: Place
) -> bool:
    """Classical case analysis on (dim, disc, hasse, signature) at one place."""
    if dim <= 1:
        return False
    if v.is_real:
        pos, neg = signature
        return pos >= 1 and neg >= 1
    p = v.p
    if dim == 2:
        return is_square_in_qp(-disc_val, p)
    if dim == 3:
        return _hasse((-1, -disc_val), p) == hasse_v  # (-1, -disc)_p
    if dim == 4:
        if not is_square_in_qp(disc_val, p):
            return True
        return hasse_v == _hasse((-1, -1), p)
    return True


def local_isotropy(f: DiagonalForm, v: Place) -> bool:
    inv = rational_invariants(f)
    return _local_isotropic(inv.dim, inv.disc.base, inv.hasse(v), inv.signature, v)


def _failing_place(inv: RationalInvariants, places) -> Optional[Place]:
    """First place where the invariants describe an anisotropic form."""
    for v in places:
        if not _local_isotropic(inv.dim, inv.disc.base, inv.hasse(v), inv.signature, v):
            return v
    return None


def global_isotropy_certificate(f: DiagonalForm) -> tuple[bool, Optional[Place]]:
    """Hasse-Minkowski over the finite support: verdict plus a failing
    place for anisotropic forms.

    Outside the primes of the entries (all squarefree) and 2, every form
    of any dimension is automatically isotropic, so the real place plus
    the support decides.
    """
    place = _failing_place(*_invariants_and_places(f))
    return place is None, place


def global_isotropy(f: DiagonalForm) -> bool:
    return global_isotropy_certificate(f)[0]


def witt_index_rational(f: DiagonalForm) -> WittDecomposition:
    """Strip hyperbolic planes on the invariant tuple until anisotropic.

    One plane off: dim - 2, hasse(v) *= (-1, -disc)_v, disc -> -disc,
    signature drops (1, 1).  The kernel survives as invariants only.  The
    support places are found once, and each step's symbol is the Hasse
    invariant of <-1, -disc> at each of them.
    """
    inv, places = _invariants_and_places(f)
    m1 = minus_one_class(f.tower)
    index = 0
    while inv.dim >= 2 and _failing_place(inv, places) is None:
        step = (-1, -inv.disc.base)
        minus = frozenset(v for v in places if inv.hasse(v) * _hasse(step, v.p) == -1)
        pos, neg = inv.signature
        inv = RationalInvariants(
            inv.dim - 2, sq_mul(m1, inv.disc), minus, (pos - 1, neg - 1)
        )
        index += 1
    return WittDecomposition(index, inv.dim, None, inv)
