"""Local-global machinery over Q.

Hilbert symbols at the real place and at finite primes, Hasse invariants
with the product-over-pairs convention, local isotropy by the classical
dimension case analysis, and Witt indices computed on invariant tuples.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ZeroArgument
from .fields import (
    SquareClass,
    is_prime,
    legendre,
    minus_one_class,
    one_class,
    sq_mul,
    squarefree_decomposition,
)
from .qform import DiagonalForm, WittDecomposition


@dataclass(frozen=True, order=True)
class Place:
    """A completion of Q: FinitePrime(p) or the real place (p == 0)."""

    p: int

    def __post_init__(self):
        if self.p != 0 and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_real(self) -> bool:
        return self.p == 0

    def __str__(self) -> str:
        return "oo" if self.is_real else str(self.p)

    __repr__ = __str__


REAL_PLACE = Place(0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, SquareClass):
        x = x.base
    f = Fraction(x)
    if f == 0:
        raise ZeroArgument("Hilbert symbols need nonzero arguments")
    return f


def _val_unit(x: Fraction, p: int) -> tuple[int, Fraction]:
    """p-adic valuation and unit part."""
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _unit_mod(u: Fraction, m: int) -> int:
    return u.numerator * pow(u.denominator, -1, m) % m


def hilbert_symbol(a, b, v: Place) -> int:
    """(a, b)_v: +1 iff z^2 = a x^2 + b y^2 has a nontrivial local solution."""
    a = _as_fraction(a)
    b = _as_fraction(b)
    if v.is_real:
        return -1 if a < 0 and b < 0 else 1
    p = v.p
    alpha, u = _val_unit(a, p)
    beta, w = _val_unit(b, p)
    if p == 2:
        um, wm = _unit_mod(u, 8), _unit_mod(w, 8)
        eps_u, eps_w = (um - 1) // 2 % 2, (wm - 1) // 2 % 2
        om_u, om_w = (um * um - 1) // 8 % 2, (wm * wm - 1) // 8 % 2
        exp = eps_u * eps_w + alpha * om_w + beta * om_u
        return -1 if exp % 2 else 1
    lu = legendre(_unit_mod(u, p), p)
    lw = legendre(_unit_mod(w, p), p)
    lm1 = legendre(p - 1, p)
    out = (lm1 ** (alpha * beta)) * (lu**beta) * (lw**alpha)
    return out


def _support_primes(values) -> list[int]:
    """2 and the primes dividing some value to an odd power: away from
    them every Hilbert symbol of the values is 1.  Factoring is bounded
    by ``WITTFORGE_FACTOR_BOUND``."""
    primes = {2}
    for x in values:
        primes.update(squarefree_decomposition(x)[1])
    return sorted(primes)


def ramification_set(a, b) -> frozenset[Place]:
    """Places where the quaternion symbol (a, b) does not split."""
    a = _as_fraction(a)
    b = _as_fraction(b)
    out = set()
    if hilbert_symbol(a, b, REAL_PLACE) == -1:
        out.add(REAL_PLACE)
    for p in _support_primes((a, b)):
        v = Place(p)
        if hilbert_symbol(a, b, v) == -1:
            out.add(v)
    return frozenset(out)


@dataclass(frozen=True)
class RationalInvariants:
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


def rational_invariants(f: DiagonalForm) -> RationalInvariants:
    vals = _entry_values(f)
    disc = one_class(f.tower)
    for e in f.entries:
        disc = sq_mul(disc, e)
    minus = set()
    for v in [REAL_PLACE] + support_places(f):
        h = 1
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                h *= hilbert_symbol(vals[i], vals[j], v)
        if h == -1:
            minus.add(v)
    pos = sum(1 for x in vals if x > 0)
    return RationalInvariants(len(vals), disc, frozenset(minus), (pos, len(vals) - pos))


def is_square_in_qp(x, p: int) -> bool:
    x = Fraction(x)
    if x == 0:
        return True
    v, u = _val_unit(x, p)
    if v % 2:
        return False
    if p == 2:
        return _unit_mod(u, 8) == 1
    return legendre(_unit_mod(u, p), p) == 1


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
        return hilbert_symbol(-1, -disc_val, v) == hasse_v
    if dim == 4:
        if not is_square_in_qp(disc_val, p):
            return True
        return hasse_v == hilbert_symbol(-1, -1, v)
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
    place = _failing_place(rational_invariants(f), [REAL_PLACE] + support_places(f))
    return place is None, place


def global_isotropy(f: DiagonalForm) -> bool:
    return global_isotropy_certificate(f)[0]


def witt_index_rational(f: DiagonalForm) -> WittDecomposition:
    """Strip hyperbolic planes on the invariant tuple until anisotropic.

    One plane off: dim - 2, disc -> -disc, hasse(v) *= (-1, -disc')_v,
    signature drops (1, 1).  The kernel survives as invariants only.
    """
    inv = rational_invariants(f)
    places = [REAL_PLACE] + support_places(f)
    m1 = minus_one_class(f.tower)
    index = 0
    while inv.dim >= 2 and _failing_place(inv, places) is None:
        disc2 = sq_mul(m1, inv.disc)
        minus = set()
        for v in places:
            h = inv.hasse(v) * hilbert_symbol(-1, disc2.base, v)
            if h == -1:
                minus.add(v)
        pos, neg = inv.signature
        inv = RationalInvariants(
            inv.dim - 2, disc2, frozenset(minus), (pos - 1, neg - 1)
        )
        index += 1
    return WittDecomposition(index, inv.dim, None, inv)
