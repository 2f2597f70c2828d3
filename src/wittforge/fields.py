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
Over F_p and sign bases the group is the F_2-vector space (Z/2)^(n+1)
(Lam, Ch. VI §1): class number k = 2*mask + (base bit) is its
enumeration order and its natural order.  Every class carries a
``code``, computed once: that number over F_p and sign bases, and the
order key (mask, |base|, base < 0) over Q.  Codes hash as plain ints or
tuples, ``class_of_code`` turns one back into its class, and the group
law is ``_code_mul`` on codes (XOR of class numbers; over Q, XOR of masks
and signs with base |b1*b2| / gcd^2), which ``sq_mul`` reads as a class.
A class builds its string on its first ``str`` and its hash on its first
``hash``, and keeps both.

The unramified quadratic extension of an F_p tower is modelled by the
same prime with ``degree == 2`` (the field F_{p^2}); its square-class
group is still {1, u} but every base constant is a square there.

Value classes only register their fields with ``@dataclass(init=False,
repr=False, eq=False)``: no method is compiled at import.  ``Value`` writes
the instance dict once, in field order, forbids assignment and deletion
(FrozenInstanceError), compares and hashes the tuple of ``compare`` fields
and prints the dataclass repr.
"""
from __future__ import annotations

import math
import os
from dataclasses import FrozenInstanceError, dataclass, field, fields
from functools import lru_cache, total_ordering
from fractions import Fraction
from typing import Optional, Union

from .errors import (
    FactorBoundExceeded,
    FieldMismatch,
    InfiniteSquareClassGroup,
    InvalidFactorBound,
    NotLaurent,
    PrimalityBoundExceeded,
    UnknownVariable,
    ZeroElement,
    number_text,
)

DEFAULT_FACTOR_BOUND = 10**6

# Entries kept by every memo cache in the package: a memory bound for a
# long-lived process, sized well above a benchmark round (the largest memo
# of one round holds 168 entries on obstruction-sweep, 196 on
# octonion-arith and 495 on rational-forms).  Larger computations may
# evict; eviction costs rebuilds, never answers.
CACHE_SIZE = 4096


def factor_bound() -> int:
    """``WITTFORGE_FACTOR_BOUND``, a non-negative integer, or the default.
    The variable is read on every call, so a change takes effect at once;
    each distinct value is parsed once."""
    raw = os.environ.get("WITTFORGE_FACTOR_BOUND")
    return DEFAULT_FACTOR_BOUND if raw is None else _parse_factor_bound(raw)


@lru_cache(maxsize=CACHE_SIZE)
def _parse_factor_bound(raw: str) -> int:
    # a raise is not cached: a malformed value raises on every call
    if raw.strip().isdecimal():
        try:
            return int(raw)
        except ValueError:  # more digits than int() converts
            pass
    raise InvalidFactorBound(
        f"WITTFORGE_FACTOR_BOUND={raw!r} is not a non-negative integer"
    )


# Miller-Rabin with the prime bases up to 41 is proven to decide
# primality of every n below PRIMALITY_BOUND (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


@lru_cache(maxsize=CACHE_SIZE)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.  A number with a factor among the bases
    is decided at any size; any other n >= PRIMALITY_BOUND raises
    PrimalityBoundExceeded rather than answer without a proof.  Each
    answer is proven once per process (every ``Place`` of a support prime
    asks again); a raise is not kept, so it is raised again."""
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
                    f"cofactor {number_text(n)} exceeds the trial division bound {bound}"
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


def squarefree_decomposition(value, bound: Optional[int] = None) -> tuple[int, tuple[int, ...]]:
    """(sign, odd-multiplicity primes) of a nonzero int or Fraction, to ``bound`` or factor_bound()."""
    if isinstance(value, Fraction):
        n = value.numerator * value.denominator
    else:
        n = int(value)
    if n == 0:
        raise ZeroElement("0 has no square class")
    return _sign_and_primes(n, factor_bound() if bound is None else bound)


class Value:
    """The immutable base of the package's value classes (module docstring)."""

    def __init__(self, *args, **kwargs):
        names = Value._names(type(self))[0]
        if kwargs or len(args) != len(names):  # by name, as the dataclass also took them
            values = dict(zip(names, args), **kwargs)
            if len(values) != len(args) + len(kwargs) or values.keys() != set(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
            args = [values[name] for name in names]
        self.__dict__.update(zip(names, args))

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @staticmethod
    @lru_cache(maxsize=CACHE_SIZE)
    def _names(cls) -> tuple:  # (init, compare) field names
        fs = fields(cls)
        return tuple(f.name for f in fs if f.init), tuple(f.name for f in fs if f.compare)

    def _values(self) -> tuple:
        return tuple([self.__dict__[name] for name in Value._names(type(self))[1]])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
        return f"{type(self).__qualname__}({shown})"


_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


@dataclass(init=False, repr=False, eq=False)
class FieldTower(Value):
    """Base field descriptor plus ordered Laurent variables (innermost first)."""

    kind: str  # "Q" | "R" | "F"
    p: Optional[int] = None
    laurent_vars: tuple[str, ...] = ()
    degree: int = 1  # 2 models the unramified quadratic extension of F_p
    # towers key every memo cache, so the hash is computed once, here
    _hash: int = field(init=False, repr=False, compare=False)

    def __init__(self, kind: str, p: Optional[int] = None, laurent_vars: tuple = (), degree: int = 1):
        if kind not in ("Q", "R", "F"):
            raise ValueError(f"unknown base kind {kind!r}")
        if kind == "F":
            if p is None or p == 2 or not is_prime(p):
                raise ValueError("prime base needs an odd prime (char 2 rejected)")
            if degree not in (1, 2):
                raise ValueError("only degree 1 and 2 prime bases are supported")
        else:
            if p is not None or degree != 1:
                raise ValueError(f"base {kind} takes no prime/degree")
        if len(set(laurent_vars)) != len(laurent_vars):
            raise ValueError("Laurent variable names must be distinct")
        for v in laurent_vars:
            if not v or v[0].isdigit() or not set(v) <= _IDENT_OK:
                raise ValueError(f"bad variable name {v!r}")
        # one attribute at a time, not the dict: CPython reads towers faster
        values = kind, p, laurent_vars, degree, hash((kind, p, laurent_vars, degree))
        for name, value in zip(("kind", "p", "laurent_vars", "degree", "_hash"), values):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        # classes and forms of one tower share its object: answer that first
        if self is other:
            return True
        if not isinstance(other, FieldTower):
            return NotImplemented
        return (self.kind, self.p, self.laurent_vars, self.degree) == (
            other.kind, other.p, other.laurent_vars, other.degree
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
@dataclass(init=False, repr=False, eq=False)
class SquareClass(Value):
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

    def __init__(self, tower: FieldTower, base: int, mask: int = 0):
        if mask < 0 or mask >> len(tower.laurent_vars):
            raise UnknownVariable(f"variable mask {mask:#b} exceeds the variables of {tower}")
        if tower.kind == "F":
            if base not in (1, tower.nonresidue):
                raise ValueError(f"non-canonical prime base part {base}")
        elif tower.kind == "R":
            if base not in (1, -1):
                raise ValueError(f"non-canonical sign part {base}")
        elif base == 0:
            raise ZeroElement("0 has no square class")
        d = self.__dict__
        d["tower"], d["base"], d["mask"], d["code"] = tower, base, mask, _class_code(tower, base, mask)

    @property
    def odd_vars(self) -> frozenset[str]:
        """The Laurent variables carrying an odd exponent."""
        return frozenset(
            v for i, v in enumerate(self.tower.laurent_vars) if self.mask >> i & 1
        )

    @property
    def is_one(self) -> bool:
        return self.base == 1 and not self.mask

    def __hash__(self) -> int:
        """The hash of (tower, base, mask), the fields ``__eq__`` compares,
        computed on the first call and kept in the instance dict as
        ``_text`` is: memo keys hash a class on every lookup."""
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.tower, self.base, self.mask))
        return h

    def __reduce__(self):
        # rebuilt on unpickling: string hashes differ between processes
        return SquareClass, (self.tower, self.base, self.mask)

    def __lt__(self, other: "SquareClass") -> bool:
        return self.code < other.code

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        return sq_mul(self, other)

    def _format(self) -> str:
        vars_part = [
            v for i, v in enumerate(self.tower.laurent_vars) if self.mask >> i & 1
        ]
        if self.tower.kind == "F":
            base_part = "1" if self.base == 1 else "u"
        else:
            base_part = number_text(self.base)
        if not vars_part:
            return base_part
        if base_part == "1":
            return "*".join(vars_part)
        if base_part == "-1":
            return "-" + "*".join(vars_part)
        return "*".join([base_part] + vars_part)

    def __str__(self) -> str:
        """Built on the first call and kept in the instance dict, where the
        fields, equality and hash of a ``Value`` never look.  A plain dict
        entry, not ``functools.cached_property``: that takes a lock on each
        first read, and most classes over Q are printed once."""
        text = self.__dict__.get("_text")
        if text is None:
            text = self.__dict__["_text"] = self._format()
        return text

    __repr__ = __str__


def _class_code(tower: FieldTower, base: int, mask: int):
    """The code of the class with canonical base part ``base`` and variable
    mask ``mask``: (mask, |base|, base < 0) over Q, 2*mask + base bit else."""
    if tower.kind == "Q":
        return mask, abs(base), base < 0
    return 2 * mask + (base != 1)


def one_class(tower: FieldTower) -> SquareClass:
    return class_of_code(tower, (0, 1, False) if tower.kind == "Q" else 0)


def minus_one_class(tower: FieldTower) -> SquareClass:
    if tower.kind == "Q":
        return class_of_code(tower, (0, 1, True))
    return class_of_code(tower, 0 if tower.minus_one_is_square() else 1)


def nonresidue_class(tower: FieldTower) -> SquareClass:
    if tower.kind != "F":
        raise ValueError(f"{tower} has no canonical nonresidue class")
    return SquareClass(tower, tower.nonresidue)


def var_class(tower: FieldTower, name: str) -> SquareClass:
    if name not in tower.laurent_vars:
        raise UnknownVariable(f"{name!r} not declared in {tower}")
    return SquareClass(tower, 1, 1 << tower.laurent_vars.index(name))


def _norm_coeff(tower: FieldTower, c):
    """An exact constant as the tower's coefficient: its residue mod p over
    a prime base, a Fraction over Q and sign bases."""
    if isinstance(c, float):
        raise TypeError("exact coefficients only")
    if tower.kind != "F":
        return Fraction(c)
    p = tower.p
    if type(c) is int:
        return c % p
    if isinstance(c, Fraction):
        if c.denominator % p == 0:
            raise ZeroElement(f"denominator of {number_text(c)} vanishes in F_{p}")
        return c.numerator * pow(c.denominator, -1, p) % p
    return int(c) % p


def _base_class_of_constant(tower: FieldTower, coeff, bound: Optional[int] = None) -> int:
    """Canonical base part of a nonzero constant, per base kind; over Q factored up to ``bound``."""
    if isinstance(coeff, float):
        raise TypeError("exact constants only (int or Fraction)")
    if coeff == 0:
        raise ZeroElement("0 has no square class")
    if tower.kind == "Q":
        sign, primes = squarefree_decomposition(coeff, bound)
        out = sign
        for q in primes:
            out *= q
        return out
    if tower.kind == "R":
        return 1 if coeff > 0 else -1
    # prime base
    p = tower.p
    c = _norm_coeff(tower, coeff)
    if c == 0:
        raise ZeroElement(f"{number_text(coeff)} vanishes in F_{p}")
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


def _code_mul(x, y):
    """The group law of k^x / k^{x2} on codes: the XOR of class numbers over
    F_p, F_{p^2} and sign bases; over Q, where bases are squarefree, masks
    and signs XOR and the base's size is |b1*b2| / gcd^2."""
    if isinstance(x, int):
        return x ^ y
    g = math.gcd(x[1], y[1])
    return x[0] ^ y[0], (x[1] // g) * (y[1] // g), x[2] != y[2]


def sq_mul(x: SquareClass, y: SquareClass) -> SquareClass:
    """Group law of k^x / k^{x2}: the product of the codes, as a class.
    Products over Q, whose classes are unbounded in number, are not kept."""
    if x.tower != y.tower:
        raise FieldMismatch(f"{x.tower} vs {y.tower}")
    make = class_of_code if x.tower.is_enumerable else class_of_code.__wrapped__
    return make(x.tower, _code_mul(x.code, y.code))


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
