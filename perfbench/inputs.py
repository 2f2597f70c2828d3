"""Seeded inputs for the three workloads, as plain Python data.

Nothing here imports wittforge: inputs are made before the program is
imported, so their cost is not part of any measurement, and the checkers
in ``checks`` can read them without trusting the program.

Square classes of F13((s))((t)) are written as 3-bit masks over
(u, s, t): bit 0 is the nonresidue u, bit 1 is s, bit 2 is t.  Since -1
is a square in F13 the class group is the F_2-vector space on these bits.
"""
from __future__ import annotations

import random

P = 13
NONRESIDUE = 2  # least quadratic nonresidue mod 13, the program's canonical u
NONSQUARES = tuple(range(1, 8))

# octonion-arith: every element has exactly TERMS_PER_ELEMENT Laurent
# monomials spread over its 8 coordinates (6 monomial coordinates and 2
# binomial ones), exponents in [-EXP, EXP]^2, so every product does the
# same amount of coefficient work whatever the seed.
OCTONION_DIM = 8
TERMS_PER_ELEMENT = 10
EXP = 3
EVAL_POINTS = 3

# rational-forms: the dimension mix cycles through 2..8.  Entry number k
# of a round is a random sign times (k mod 3) distinct random primes from
# SMALL_PRIMES, times a large prime when k = 0 mod 4, times a square j^2
# (2 <= j <= 6) when k = 2 mod 4.  Large primes come from a seeded pool
# with LARGE_PER_BAND primes in each band of LARGE_BANDS, so the cost of
# trial division is about the same for every seed.
DIMS = (2, 3, 4, 5, 6, 7, 8)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
LARGE_BANDS = ((1_000, 3_000), (3_000, 10_000), (10_000, 30_000), (30_000, 100_000))
LARGE_PER_BAND = 12


def _rng(*key) -> random.Random:
    # str seeds go through SHA-512, so they do not depend on PYTHONHASHSEED
    return random.Random(":".join(str(k) for k in key))


def independent(a: int, b: int, c: int) -> bool:
    """det(a, b, c) != 0 over F_2 for 3-bit masks."""
    return a != 0 and b not in (0, a) and c not in (0, a, b, a ^ b)


def division_slots() -> list[tuple[int, int, int]]:
    """The 168 slot triples of division octonion algebras, lexicographic."""
    return [
        (a, b, c)
        for a in range(8)
        for b in range(8)
        for c in range(8)
        if independent(a, b, c)
    ]


def obstruction_inputs(seed: int) -> list[tuple[tuple[int, int, int], list[int]]]:
    """All 168 division algebras in a seeded order, each with the 7 nonsquare
    d in a seeded order.  The work is the same for every seed."""
    rng = _rng("obstruction-sweep", seed)
    algebras = division_slots()
    rng.shuffle(algebras)
    return [(slots, rng.sample(NONSQUARES, len(NONSQUARES))) for slots in algebras]


def _element(rng: random.Random) -> list[tuple]:
    """Coordinates as tuples of ((e_s, e_t), coeff), sorted by exponent:
    the term layout of wittforge's LaurentPoly over F13((s))((t))."""
    sizes = [1] * OCTONION_DIM
    for i in rng.sample(range(OCTONION_DIM), TERMS_PER_ELEMENT - OCTONION_DIM):
        sizes[i] = 2
    coords = []
    for k in sizes:
        exps = set()
        while len(exps) < k:
            exps.add((rng.randint(-EXP, EXP), rng.randint(-EXP, EXP)))
        coords.append(tuple(sorted((e, rng.randint(1, P - 1)) for e in exps)))
    return coords


def octonion_algebra(seed: int) -> tuple[int, int, int]:
    """One division algebra per seed, the same for every round."""
    return _rng("octonion-arith", seed).choice(division_slots())


def octonion_inputs(seed: int, round_no: int, n: int) -> list[dict]:
    rng = _rng("octonion-arith", seed, round_no)
    out = []
    for _ in range(n):
        x, y = _element(rng), _element(rng)
        points = [
            (rng.randint(1, P - 1), rng.randint(1, P - 1)) for _ in range(EVAL_POINTS)
        ]
        out.append({"x": x, "y": y, "points": points})
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def large_primes(seed: int) -> list[int]:
    rng = _rng("large-primes", seed)
    pool: list[int] = []
    for lo, hi in LARGE_BANDS:
        band: set[int] = set()
        while len(band) < LARGE_PER_BAND:
            n = rng.randrange(lo, hi) | 1
            if _is_prime(n):
                band.add(n)
        pool += sorted(band)
    return pool


def _entry(rng: random.Random, pool: list[int], k: int) -> tuple[int, int, tuple[int, ...]]:
    """(value, sign, odd-multiplicity primes) of entry number k."""
    sign = rng.choice((1, -1))
    factors = rng.sample(SMALL_PRIMES, k % 3)
    if k % 4 == 0:
        factors.append(rng.choice(pool))
    elif k % 4 == 2:
        factors += _factor_small(rng.randint(2, 6)) * 2
    value = sign
    odd: set[int] = set()
    for q in factors:
        value *= q
        odd ^= {q}
    return value, sign, tuple(sorted(odd))


def _factor_small(k: int) -> list[int]:
    out, d = [], 2
    while k > 1:
        while k % d == 0:
            out.append(d)
            k //= d
        d += 1
    return out


def rational_inputs(seed: int, round_no: int, n: int) -> list[dict]:
    """n distinct diagonal forms over Q; dims cycle through DIMS."""
    rng = _rng("rational-forms", seed, round_no)
    pool = large_primes(seed)
    seen: set[tuple[int, ...]] = set()
    out: list[dict] = []
    made = 0
    while len(out) < n:
        dim = DIMS[len(out) % len(DIMS)]
        entries = [_entry(rng, pool, k) for k in range(made, made + dim)]
        made += dim
        key = tuple(sorted(v for v, _, _ in entries))
        if key in seen:
            continue
        seen.add(key)
        out.append(
            {
                "values": [v for v, _, _ in entries],
                "classes": [(sg, list(ps)) for _, sg, ps in entries],
            }
        )
    return out
