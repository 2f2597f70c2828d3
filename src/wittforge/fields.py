"""Canonical square-class arithmetic over towers of computable fields.

A field tower is a base field -- Q, F_p (p an odd prime), or a formally
real base that only remembers signs -- with a stack of Laurent series
variables, innermost first.  ``F13((s))((t))`` has variables ("s", "t")
and t is the outermost uniformizer.

Everything downstream works with canonical square classes instead of raw
field elements: quadratic form theory over these fields only sees the
group k^x / k^{x2}.  A class is a base part, always a squarefree integer:

* Q       signed squarefree integer (trial-divided up to a configurable
          bound, ``WITTFORGE_FACTOR_BOUND``),
* F_p     1 or the least positive quadratic nonresidue u (a prime),
* signs   +1 / -1,

times a bit mask whose bit i marks an odd exponent of ``laurent_vars[i]``.
Over F_p and sign bases the group is the F_2-vector space (Z/2)^(n+1):
class number k = 2*mask + (base bit) is its enumeration order and its
natural order, and the product of two classes is the XOR of their
numbers.  Every class carries a ``code``, computed once: that number
over F_p and sign bases, and the order key (mask, |base|, base < 0)
over Q.  Codes compare in the natural order, hash as plain ints or
tuples, and ``class_of_code`` turns a code back into its class.

The unramified quadratic extension of an F_p tower is modelled by the
same prime with ``degree == 2`` (the field F_{p^2}); its square-class
group is still {1, u} but every base constant is a square there.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache, total_ordering
from fractions import Fraction
from typing import Callable, Optional, Union

from .errors import (
    DeltaIsSquare,
    FactorBoundExceeded,
    FieldMismatch,
    InfiniteSquareClassGroup,
    NotLaurent,
    PrimalityBoundExceeded,
    UnknownVariable,
    UnsupportedDelta,
    ZeroElement,
)

DEFAULT_FACTOR_BOUND = 10**6

# Entries kept by every memo cache in the package: a memory bound for a
# long-lived process, sized for the benchmark rounds (working sets of about
# 520 entries).  Larger computations evict: ``g2-types`` over
# F7((q))((r))((s))((t)) misses the Pfister cache 32,800 times.  Eviction
# costs rebuilds, never answers.
CACHE_SIZE = 4096


def factor_bound() -> int:
    return int(os.environ.get("WITTFORGE_FACTOR_BOUND", DEFAULT_FACTOR_BOUND))


# Miller-Rabin with the prime bases up to 41 is proven to decide
# primality of every n below PRIMALITY_BOUND (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.  A number with a factor among the bases
    is decided at any size; any other n >= PRIMALITY_BOUND raises
    PrimalityBoundExceeded rather than answer without a proof."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    if n >= PRIMALITY_BOUND:
        raise PrimalityBoundExceeded(
            f"{n} is not below {PRIMALITY_BOUND}, the bound of the primality proof"
        )
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p; 0 when p divides a."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def sqrt_mod(a: int, p: int) -> Optional[int]:
    """The least r with r^2 = a mod the prime p, or None when a is a
    nonresidue: Tonelli-Shanks, then the smaller of r and p - r."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while not q & 1:
        q, s = q >> 1, s + 1
    r, t = pow(a, (q + 1) // 2, p), pow(a, q, p)  # r^2 = a t; t has order dividing 2^(s-1)
    c = pow(least_nonresidue(p), q, p) if t != 1 else 1
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        r, c = r * b % p, b * b % p
        t, s = t * c % p, i
    return min(r, p - r)


@lru_cache(maxsize=CACHE_SIZE)
def least_nonresidue(p: int) -> int:
    n = 2
    while legendre(n, p) != -1:
        n += 1
    return n


@lru_cache(maxsize=CACHE_SIZE)
def _sign_and_primes(n: int, bound: int) -> tuple[int, tuple[int, ...]]:
    """Squarefree decomposition of n by trial division up to ``bound``.

    Returns (sign, primes with odd multiplicity).  A cofactor with no
    divisor up to its square root is prime.  Once the divisors pass the
    bound, a remaining cofactor that is a perfect square contributes
    nothing and anything else raises FactorBoundExceeded.
    """
    sign = -1 if n < 0 else 1
    n = abs(n)
    primes = []
    d = 2
    while d * d <= n:
        if d > bound:
            r = math.isqrt(n)
            if r * r != n:
                raise FactorBoundExceeded(
                    f"cofactor {n} exceeds the trial division bound {bound}"
                )
            n = 1
            break
        if n % d == 0:
            mult = 0
            while n % d == 0:
                n //= d
                mult += 1
            if mult % 2:
                primes.append(d)
        d += 1 if d == 2 else 2
    if n > 1:  # no divisor up to its square root: a prime
        primes.append(n)
    return sign, tuple(sorted(primes))


def squarefree_decomposition(value) -> tuple[int, tuple[int, ...]]:
    """(sign, odd-multiplicity primes) of a nonzero int or Fraction."""
    if isinstance(value, Fraction):
        n = value.numerator * value.denominator
    else:
        n = int(value)
    if n == 0:
        raise ZeroElement("0 has no square class")
    return _sign_and_primes(n, factor_bound())


_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


@dataclass(frozen=True)
class FieldTower:
    """Base field descriptor plus ordered Laurent variables (innermost first)."""

    kind: str  # "Q" | "R" | "F"
    p: Optional[int] = None
    laurent_vars: tuple[str, ...] = ()
    degree: int = 1  # 2 models the unramified quadratic extension of F_p
    # towers key every memo cache, so the hash is computed once, here
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("Q", "R", "F"):
            raise ValueError(f"unknown base kind {self.kind!r}")
        if self.kind == "F":
            if self.p is None or self.p == 2 or not is_prime(self.p):
                raise ValueError("prime base needs an odd prime (char 2 rejected)")
            if self.degree not in (1, 2):
                raise ValueError("only degree 1 and 2 prime bases are supported")
        else:
            if self.p is not None or self.degree != 1:
                raise ValueError(f"base {self.kind} takes no prime/degree")
        if len(set(self.laurent_vars)) != len(self.laurent_vars):
            raise ValueError("Laurent variable names must be distinct")
        for v in self.laurent_vars:
            if not v or v[0].isdigit() or not set(v) <= _IDENT_OK:
                raise ValueError(f"bad variable name {v!r}")
        object.__setattr__(
            self, "_hash", hash((self.kind, self.p, self.laurent_vars, self.degree))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt on unpickling: string hashes differ between processes
        return FieldTower, (self.kind, self.p, self.laurent_vars, self.degree)

    # -- constructors ------------------------------------------------------

    @classmethod
    def rationals(cls, *laurent_vars: str) -> "FieldTower":
        return cls("Q", None, tuple(laurent_vars))

    @classmethod
    def reals(cls, *laurent_vars: str) -> "FieldTower":
        return cls("R", None, tuple(laurent_vars))

    @classmethod
    def prime(cls, p: int, *laurent_vars: str) -> "FieldTower":
        return cls("F", p, tuple(laurent_vars))

    # -- structure ----------------------------------------------------------

    @property
    def outer_var(self) -> str:
        if not self.laurent_vars:
            raise NotLaurent(f"{self} has no Laurent variable")
        return self.laurent_vars[-1]

    def base_field(self) -> "FieldTower":
        """The base field alone, every Laurent variable dropped."""
        return _subtower(self.kind, self.p, (), self.degree)

    def inner(self) -> "FieldTower":
        if not self.laurent_vars:
            raise NotLaurent(f"{self} has no Laurent variable")
        return _subtower(self.kind, self.p, self.laurent_vars[:-1], self.degree)

    @property
    def is_enumerable(self) -> bool:
        return self.kind in ("F", "R")

    @property
    def nonresidue(self) -> int:
        """Canonical nonresidue marker of a prime base."""
        if self.kind != "F":
            raise ValueError(f"{self} has no canonical nonresidue")
        return least_nonresidue(self.p)

    def minus_one_is_square(self) -> bool:
        if self.kind == "F":
            return self.degree == 2 or self.p % 4 == 1
        return False

    def has_zeta3(self) -> bool:
        """Whether the base contains a primitive cube root of unity."""
        if self.kind != "F":
            return False
        if self.degree == 2:
            return self.p != 3
        return self.p % 3 == 1

    def __str__(self) -> str:
        if self.kind == "F":
            head = f"F{self.p ** self.degree}"
        else:
            head = self.kind
        return head + "".join(f"(({v}))" for v in self.laurent_vars)


@lru_cache(maxsize=CACHE_SIZE)
def _subtower(kind, p, laurent_vars, degree) -> FieldTower:
    """A tower below one already validated: built and checked once."""
    return FieldTower(kind, p, laurent_vars, degree)


@total_ordering
@dataclass(frozen=True)
class SquareClass:
    """Canonical representative of an element of k^x / k^{x2}.

    ``base`` is the base-field part and bit i of ``mask`` marks an odd
    exponent of ``tower.laurent_vars[i]`` (see module docstring).  Classes
    of one tower are totally ordered by ``code``: by (mask, |base|, sign
    of base), which over enumerable towers is the enumeration order.
    """

    tower: FieldTower
    base: int
    mask: int = 0
    code: Union[int, tuple[int, int, bool]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.mask < 0 or self.mask >> len(self.tower.laurent_vars):
            raise UnknownVariable(
                f"variable mask {self.mask:#b} exceeds the variables of {self.tower}"
            )
        if self.tower.kind == "F":
            if self.base not in (1, self.tower.nonresidue):
                raise ValueError(f"non-canonical prime base part {self.base}")
        elif self.tower.kind == "R":
            if self.base not in (1, -1):
                raise ValueError(f"non-canonical sign part {self.base}")
        elif self.base == 0:
            raise ZeroElement("0 has no square class")
        if self.tower.kind == "Q":
            code = (self.mask, abs(self.base), self.base < 0)
        else:
            code = 2 * self.mask + (self.base != 1)
        object.__setattr__(self, "code", code)

    @property
    def odd_vars(self) -> frozenset[str]:
        """The Laurent variables carrying an odd exponent."""
        return frozenset(
            v for i, v in enumerate(self.tower.laurent_vars) if self.mask >> i & 1
        )

    @property
    def is_one(self) -> bool:
        return self.base == 1 and not self.mask

    def __lt__(self, other: "SquareClass") -> bool:
        return self.code < other.code

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return sq_mul(self, other)

    def __str__(self) -> str:
        vars_part = [
            v for i, v in enumerate(self.tower.laurent_vars) if self.mask >> i & 1
        ]
        if self.tower.kind == "F":
            base_part = "1" if self.base == 1 else "u"
        else:
            base_part = str(self.base)
        if not vars_part:
            return base_part
        if base_part == "1":
            return "*".join(vars_part)
        if base_part == "-1":
            return "-" + "*".join(vars_part)
        return "*".join([base_part] + vars_part)

    __repr__ = __str__


def one_class(tower: FieldTower) -> SquareClass:
    return SquareClass(tower, 1)


def minus_one_class(tower: FieldTower) -> SquareClass:
    if tower.kind == "F":
        if tower.minus_one_is_square():
            return one_class(tower)
        return SquareClass(tower, tower.nonresidue)
    return SquareClass(tower, -1)


def nonresidue_class(tower: FieldTower) -> SquareClass:
    if tower.kind != "F":
        raise ValueError(f"{tower} has no canonical nonresidue class")
    return SquareClass(tower, tower.nonresidue)


def var_class(tower: FieldTower, name: str) -> SquareClass:
    if name not in tower.laurent_vars:
        raise UnknownVariable(f"{name!r} not declared in {tower}")
    return SquareClass(tower, 1, 1 << tower.laurent_vars.index(name))


def _base_class_of_constant(tower: FieldTower, coeff) -> int:
    """Canonical base part of a nonzero constant, per base kind."""
    if isinstance(coeff, float):
        raise TypeError("exact constants only (int or Fraction)")
    if coeff == 0:
        raise ZeroElement("0 has no square class")
    if tower.kind == "Q":
        sign, primes = squarefree_decomposition(coeff)
        out = sign
        for q in primes:
            out *= q
        return out
    if tower.kind == "R":
        return 1 if coeff > 0 else -1
    # prime base
    p = tower.p
    if isinstance(coeff, Fraction):
        num, den = coeff.numerator, coeff.denominator
        if den % p == 0:
            raise ZeroElement(f"denominator of {coeff} vanishes in F_{p}")
        c = num * pow(den, -1, p)
    else:
        c = int(coeff)
    if c % p == 0:
        raise ZeroElement(f"{coeff} vanishes in F_{p}")
    if tower.degree == 2:
        return 1  # every base constant is a square in F_{p^2}
    return 1 if legendre(c, p) == 1 else tower.nonresidue


def canonical_square_class(
    tower: FieldTower, coeff, exponents: Optional[dict[str, int]] = None
) -> SquareClass:
    """Square class of the monomial ``coeff * prod(v**e)``.

    Idempotent: feeding a canonical representative back in returns the
    same class.
    """
    mask = 0
    for v, e in (exponents or {}).items():
        if v not in tower.laurent_vars:
            raise UnknownVariable(f"{v!r} not declared in {tower}")
        mask |= (e & 1) << tower.laurent_vars.index(v)
    return SquareClass(tower, _base_class_of_constant(tower, coeff), mask)


def sq_mul(x: SquareClass, y: SquareClass) -> SquareClass:
    """Group law of k^x / k^{x2}; every class is its own inverse.

    Bases are squarefree, so b1*b2 / gcd^2 is the squarefree part.
    """
    if x.tower != y.tower:
        raise FieldMismatch(f"{x.tower} vs {y.tower}")
    g = math.gcd(x.base, y.base)
    return SquareClass(x.tower, (x.base // g) * (y.base // g), x.mask ^ y.mask)


def enumerate_square_classes(tower: FieldTower) -> list[SquareClass]:
    """All square classes; class k has code k: base bit k & 1, mask k >> 1."""
    if not tower.is_enumerable:
        raise InfiniteSquareClassGroup(f"{tower} has infinitely many square classes")
    return [
        class_of_code(tower, k) for k in range(2 ** (len(tower.laurent_vars) + 1))
    ]


@lru_cache(maxsize=CACHE_SIZE)
def class_of_code(tower: FieldTower, code) -> SquareClass:
    """The class of ``tower`` whose ``code`` is ``code``, built once.

    Cached per (tower, code) rather than as a whole table per tower, so a
    tower with many variables costs only the classes actually used.
    """
    if tower.kind == "Q":
        mask, size, negative = code
        return SquareClass(tower, -size if negative else size, mask)
    nonsq = tower.nonresidue if tower.kind == "F" else -1
    return SquareClass(tower, nonsq if code & 1 else 1, code >> 1)


def residue_split(tower: FieldTower, x: SquareClass) -> tuple[int, SquareClass]:
    """Split x = unit * t_outer^parity into (parity, unit class downstairs)."""
    if not tower.laurent_vars:
        raise NotLaurent(f"{tower} has no Laurent variable")
    if x.tower != tower:
        raise FieldMismatch(f"{x.tower} vs {tower}")
    outer_bit = len(tower.laurent_vars) - 1
    parity = x.mask >> outer_bit
    return parity, SquareClass(tower.inner(), x.base, x.mask ^ (parity << outer_bit))


def lift_class(x: SquareClass, tower: FieldTower) -> SquareClass:
    """Reinterpret a class of the inner tower one Laurent level up."""
    if tower.inner() != x.tower:
        raise FieldMismatch(f"{x.tower} is not the inner tower of {tower}")
    return SquareClass(tower, x.base, x.mask)


@dataclass(frozen=True)
class QuadraticExtension:
    """Model of tower(sqrt(delta)) with its square-class transfer map."""

    tower: FieldTower
    delta: SquareClass
    transfer: Callable[[SquareClass], SquareClass]


def _fresh_var(taken: tuple[str, ...]) -> str:
    name = "r"
    k = 2
    while name in taken:
        name = f"r{k}"
        k += 1
    return name


def extend_quadratic(tower: FieldTower, delta: SquareClass) -> QuadraticExtension:
    """Adjoin a square root of delta for the two supported shapes.

    * delta purely in the base: unramified, becomes the degree-2 base;
    * delta = (base unit) * outermost variable: ramified, the outer
      uniformizer is replaced by its square root.

    Classes mixing inner variables have no tower-shaped model here; use
    the pure-subform splitting criterion for those.
    """
    if delta.tower != tower:
        raise FieldMismatch(f"{delta.tower} vs {tower}")
    if delta.is_one:
        raise DeltaIsSquare(f"{delta} is a square")
    if tower.kind != "F":
        raise UnsupportedDelta(f"quadratic extension models need a prime base, got {tower}")

    if not delta.mask:
        # unramified: delta is the base nonresidue
        if tower.degree == 2:
            raise UnsupportedDelta("base is already quadratically extended")
        new_tower = FieldTower("F", tower.p, tower.laurent_vars, 2)

        def transfer(x: SquareClass, _t=new_tower) -> SquareClass:
            if x.tower != tower:
                raise FieldMismatch(f"{x.tower} vs {tower}")
            return SquareClass(_t, 1, x.mask)

        return QuadraticExtension(new_tower, delta, transfer)

    outer_bit = 1 << (len(tower.laurent_vars) - 1)  # delta.mask != 0: n >= 1
    if delta.mask == outer_bit:
        # ramified: t = r^2 / delta0, so the class of t maps to delta0
        delta0 = SquareClass(tower, delta.base)
        inner_vars = tower.laurent_vars[:-1]
        new_tower = FieldTower(
            tower.kind, tower.p, inner_vars + (_fresh_var(inner_vars),), tower.degree
        )

        def transfer(x: SquareClass, _t=new_tower, _d0=delta0) -> SquareClass:
            if x.tower != tower:
                raise FieldMismatch(f"{x.tower} vs {tower}")
            base = x.base
            if x.mask & outer_bit:
                base = sq_mul(SquareClass(tower, base), _d0).base
            return SquareClass(_t, base, x.mask & ~outer_bit)

        return QuadraticExtension(new_tower, delta, transfer)

    raise UnsupportedDelta(
        f"{delta} mixes inner variables; only base units and base*outer are modelled"
    )
