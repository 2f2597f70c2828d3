"""Diagonal quadratic form algebra: Pfister forms, isotropy, Witt theory.

Forms are always diagonal, with canonical square classes as entries.
Witt decomposition, isotropy and isometry apply one base-field rule,
``_base_witt``, which returns plain data, the Witt index, the kernel and
the form's class in W(k): the class counted from the entries of each
class over R and F_q (``_count_class``; Lam, Ch. II), with the kernel's
codes read off it, and the kernel's invariants from ``arithq`` over Q.
Over a Laurent tower k((t_1))...((t_n)), Springer's theorem gives
W(k((t_1))...((t_n))) = sum over variable masks m in (Z/2)^n of W(k):
the entries of one mask, with the mask cleared, form one residue run
(``_runs`` splits entry codes into runs), and the rule runs once on
each.  A form's Witt class is its (mask, base class) pairs, and forms of
one dimension are isometric when their classes are equal (Witt
cancellation).  ``isotropic_vector`` takes its vector from
the same runs: the first run the rule makes isotropic gets an exact
base-field solution (a square root for a pair, the least ternary
solution over F_p), lifted by monomials.

A form's ``key`` is the sorted tuple of its entries' codes (see
``fields``), computed once.  The memo caches are keyed on (tower, key),
so a repeated question costs one tuple hash; the tower stays in every
key, since the same codes mean different classes over different towers.
Pfister forms are folded on codes by ``fields._code_mul``: <1> times
<1,-a> for each slot a in turn (``_fold``), the slots' towers checked
first, in one routine, ``_pfister_codes``, which ``pfister``, the
splitting questions and an algebra's table check all read; tensor
products and scalings multiply entries by ``fields.sq_mul``.

One memoized Springer pass, ``_witt``, answers every Witt question:
decomposition, class, isotropy, isometry and splitting, adding up the
rule's answers on a form's runs into the one ``WittDecomposition``.

A form is its tower and its entries, and nothing else: a Pfister form
keeps no record of its slots.  The questions that need slots take them,
as every caller holds them (an algebra's ``slots``, a ``<<...>>``
literal): ``splits_over_quadratic`` and ``quadratic_splitting_classes``
(every nonsquare delta from one fold and one isotropy lookup) decide on
the folded codes without building a form, by one base-field question on
delta's run (``_pure_represents``), and ``pfister_slot_witness`` reads its
presentation off the form's symbol (below).

Over F_q and R towers a Pfister form also has its mod-2 symbol.  The
mod-2 Milnor K-ring of K = k((t_1))...((t_n)) is k_*(k)[xi_1,...,xi_n]
with xi_i = (t_i) and xi_i^2 = (-1) xi_i (Milnor, Invent. Math. 9,
1970; Lam, Ch. VI), where k_1(k) is spanned by (base), the class (u)
over F_q and (-1) over R, and k_2(F_q) = 0.  A class's vector in k_1 is
its code: base bit 0 stands for (base), bit i+1 for xi_i, and (-1) is
(base) times the code of -1.  An element of k_r is an int bit set over
the variable subsets S, bit S standing for the monomial
(base)^(r-|S|) xi_S (over F_q only |S| = r - 1 and r survive), and a
product by a class is a few shifts and masks per code bit
(``_times_codes``, reading the tower's ``_symbol_table``, built on first
use).  The symbol of <<a_1,...,a_n>> is e_n = (a_1)...(a_n); two n-fold
Pfister forms are isometric iff their symbols are equal, and one is
hyperbolic iff its symbol is 0 (Orlov-Vishik-Voevodsky, Ann. of Math.
165, 2007).  Symbols are kept on towers of at most ``SYMBOL_VARS``
variables (a bit set has 2^n bits); Q, Q((t)) and wider towers have none.

``_presentation`` finds the presentation ``pfister_slot_witness``
gives, and serves nothing else (the cubic obstruction of ``tori`` needs
none: its step (d) target is hyperbolic).  An anisotropic Pfister form
is divisible by rho iff its symbol lies in e(rho) k_* (same reference;
Lam, Ch. X), so the lexicographically first presentation with a given
first slot takes each further slot as the least code that keeps the
symbol in the span of the product so far times k_(n-k), one F_2
elimination (``_solve``) per code tried.  Only codes in the variables of
the symbol and of the first slot are tried, and no form is built or
decomposed per candidate.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from .errors import (
    Degenerate,
    DeltaIsSquare,
    FieldMismatch,
    InternalInconsistency,
    NoSplit,
    NotSymmetric,
    WitnessUnsupported,
    ZeroScale,
)
from .fields import (
    CACHE_SIZE,
    FieldTower,
    SquareClass,
    Value,
    _code_mul,
    class_of_code,
    enumerate_square_classes,
    minus_one_class,
    one_class,
    sq_mul,
    sqrt_mod,
)
from .laurent import LaurentPoly


def _times(a: SquareClass, entries) -> tuple[SquareClass, ...]:
    """a*e for each entry e."""
    return tuple(sq_mul(a, e) for e in entries)


@dataclass(init=False, repr=False, eq=False)
class DiagonalForm(Value):
    """The form <entries> over ``tower``; ``key`` is its sorted entry codes."""

    tower: FieldTower
    entries: tuple[SquareClass, ...]
    key: tuple = field(init=False, repr=False, compare=False)

    def __init__(self, tower: FieldTower, entries: tuple[SquareClass, ...]):
        for e in entries:
            if e.tower is not tower and e.tower != tower:
                raise FieldMismatch(f"entry {e} lives over {e.tower}, not {tower}")
        self.__dict__.update(tower=tower, entries=entries, key=tuple(sorted(e.code for e in entries)))

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "[" + ",".join(str(e) for e in self.entries) + "]"

    __repr__ = __str__


def _classes(tower: FieldTower, codes) -> tuple[SquareClass, ...]:
    return tuple(class_of_code(tower, c) for c in codes)


def _pfister_codes(tower: FieldTower, slots: Sequence[SquareClass]) -> tuple:
    """The entry codes of <<a_1,...,a_n>>: the slots, each checked to live
    over ``tower``, folded on their codes (``_fold``)."""
    for a in slots:
        if a.tower != tower:
            raise FieldMismatch(f"slot {a} lives over {a.tower}, not {tower}")
    minus_one = minus_one_class(tower).code
    return tuple(_fold([one_class(tower).code], [_code_mul(minus_one, a.code) for a in slots]))


def _fold(codes: list, negs: list) -> list:
    """The codes of phi x <<a_1,...,a_n>>, given those of phi and of the -a:
    fold e -> e ++ (-a)*e over the slots."""
    for neg_a in negs:
        codes = codes + [_code_mul(neg_a, e) for e in codes]
    return codes


def pfister(tower: FieldTower, slots: Sequence[SquareClass]) -> DiagonalForm:
    """The n-fold Pfister form <1,-a_1> x ... x <1,-a_n>."""
    return DiagonalForm(tower, _classes(tower, _pfister_codes(tower, slots)))


# -- mod-2 symbols -----------------------------------------------------------------

# Symbols are kept on enumerable towers of at most this many variables: an
# element of k_r is a bit set over the 2^n variable subsets.
SYMBOL_VARS = 16


@lru_cache(maxsize=CACHE_SIZE)
def _symbol_table(tower: FieldTower) -> Optional[tuple]:
    """What a product in k_* of the tower reads, built on first use, or
    None when the tower has no symbols (a Q base, or more than
    ``SYMBOL_VARS`` variables): (inside, keeps, minus_one).
    ``inside[i]`` is the bit set of the subsets S holding variable i;
    ``keeps[r]`` those monomials of k_r that (base) and the twist (-1)
    carry into k_(r+1) (the ones of |S| = r over F_q, where
    k_2(F_q) = 0; all of them over R, whose one entry serves every r);
    ``minus_one`` the code of -1, so (-1) = minus_one * (base)."""
    n = len(tower.laurent_vars)
    if not tower.is_enumerable or n > SYMBOL_VARS:
        return None
    every = (1 << (1 << n)) - 1
    # the subsets without variable i are 2^i of every 2^(i+1) in a row;
    # shifted by 2^i, they are those with it
    inside = tuple(
        every // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1) << (1 << i) for i in range(n)
    )
    by_size = [1]  # the subsets of size r of the first m variables, m = 0
    for m in range(n):
        by_size = [a | b << (1 << m) for a, b in zip(by_size + [0], [0] + by_size)]
    keeps = (-1,) if tower.kind == "R" else (*by_size, 0)
    return inside, keeps, minus_one_class(tower).code


def _times_codes(table: tuple, codes, y: int, r: int) -> int:
    """(x_1)...(x_m) * y in k_(r+m), for the classes x_j of ``codes`` and y
    in k_r, with ``table`` the tower's ``_symbol_table``: one class at a
    time, (x) being (base) for the base bit of its code and xi_i for each
    variable bit.  (base) raises the power of (base) of each monomial;
    xi_i moves a monomial xi_S with i outside S to xi_(S+i), one shift of
    the bit set, and one with i in S to (-1) xi_S, since xi_i^2 = (-1) xi_i."""
    inside, keeps, minus_one = table
    last = len(keeps) - 1
    for code in codes:
        keep = keeps[r] if r < last else keeps[last]
        out = y & keep if code & 1 else 0
        twist = keep if minus_one else 0
        mask, i = code >> 1, 0
        while mask:
            if mask & 1:
                part = y & inside[i]
                out ^= ((y ^ part) << (1 << i)) ^ (part & twist)
            mask >>= 1
            i += 1
        y, r = out, r + 1
    return y


def _symbol(tower: FieldTower, codes) -> Optional[int]:
    """e_n(<<a_1,...,a_n>>) = (a_1)...(a_n) in k_n from the slot codes, or
    None when the tower has no symbols."""
    table = _symbol_table(tower)
    if table is None:
        return None
    return _times_codes(table, codes, 1, 0)  # from 1 in k_0, the monomial S = {}


def _symbol_times(tower: FieldTower, code: int, y: int, r: int) -> int:
    """(x) * y in k_(r+1) for the class x of ``code`` and y in k_r."""
    return _times_codes(_symbol_table(tower), (code,), y, r)


def _solve(vectors: list, target: int) -> Optional[int]:
    """A bit set k with the XOR of the vectors[i] for the bits i of k equal
    to ``target``, or None when the vectors do not span it: Gaussian
    elimination over F_2, each pivot keeping the vectors it sums."""
    pivots: dict[int, tuple[int, int]] = {}
    for i, v in enumerate(vectors):
        combo = 1 << i
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v, combo
                break
            pv, pc = pivots[top]
            v, combo = v ^ pv, combo ^ pc
    combo = 0
    while target:
        top = target.bit_length() - 1
        if top not in pivots:
            return None
        pv, pc = pivots[top]
        target, combo = target ^ pv, combo ^ pc
    return combo


def _presentation(tower: FieldTower, first_code: int, symbol: int, n: int) -> Optional[tuple]:
    """The codes (first, b_2, ..., b_n) of the lexicographically first
    presentation <<first, b_2, ..., b_n>> of the n-fold Pfister form of
    symbol ``symbol``, or None when ``symbol`` is not in (first) k_(n-1).
    Each b_k is the least code with ``symbol`` in
    (first)(b_2)...(b_k) k_(n-k), which the product times every multiset
    of n-k generator codes spans; membership is one elimination.  An
    anisotropic Pfister form is divisible by rho iff its symbol lies in
    e(rho) k_* (Orlov-Vishik-Voevodsky; Lam, Ch. X), so once the first
    slot is in, every later step finds its b_k.  A hyperbolic form (symbol
    0) gets the slots 1, as <<first, 1, ...>> is hyperbolic.  Only codes
    whose variables lie in those of ``symbol`` and of the first slot are
    tried: setting xi_i to 0 is a ring map of k_*, which fixes the symbol
    and the slots so far when they avoid xi_i, so clearing bit i of a b_k
    that works gives a smaller code that works."""
    table = _symbol_table(tower)
    n_vars = len(tower.laurent_vars)
    gens = [1 << k for k in range(n_vars + 1)]
    support = first_code >> 1
    for i, part in enumerate(table[0]):
        support |= bool(symbol & part) << i
    found, e = (), 1  # 1 in k_0
    for k in range(1, n + 1):
        multisets = list(itertools.combinations_with_replacement(gens, n - k))
        for b in (first_code,) if k == 1 else range(2 << n_vars):
            if b >> 1 & ~support:
                continue
            e_b = _times_codes(table, (b,), e, k - 1)
            if _solve([_times_codes(table, m, e_b, k) for m in multisets], symbol) is not None:
                found, e = (*found, b), e_b
                break
        else:
            return None
    return found


def orthogonal_sum(f: DiagonalForm, g: DiagonalForm) -> DiagonalForm:
    if f.tower != g.tower:
        raise FieldMismatch(f"{f.tower} vs {g.tower}")
    return DiagonalForm(f.tower, f.entries + g.entries)


def tensor(f: DiagonalForm, g: DiagonalForm) -> DiagonalForm:
    """Tensor product; blocks of g scaled by the entries of f."""
    if f.tower != g.tower:
        raise FieldMismatch(f"{f.tower} vs {g.tower}")
    return DiagonalForm(
        f.tower, tuple(ab for a in f.entries for ab in _times(a, g.entries))
    )


def scale(f: DiagonalForm, a) -> DiagonalForm:
    """Multiply every entry by the class of ``a``."""
    if not isinstance(a, SquareClass):
        if a == 0:
            raise ZeroScale("cannot scale a form by 0")
        a = LaurentPoly.const(f.tower, a).square_class()
    if a.tower != f.tower:
        raise FieldMismatch(f"{a.tower} vs {f.tower}")
    if a.is_one:
        return f
    return DiagonalForm(f.tower, _times(a, f.entries))


def negate(f: DiagonalForm) -> DiagonalForm:
    return scale(f, minus_one_class(f.tower))


# -- Gram matrix diagonalization ---------------------------------------------


def diagonalize(tower: FieldTower, gram) -> DiagonalForm:
    """Diagonal form isometric to the symmetric Gram matrix.

    Fraction-free symmetric elimination, in place: each basis change is
    applied to the rows it touches and then to the same columns, so the
    matrix stays symmetric.  Basis vector i > k is replaced by
    pivot*e_i - m_ik*e_k, which rescales entries by squares only.  A zero
    diagonal is repaired by swapping in a later nonzero one, or else by
    e_i += e_j using an off-diagonal entry (2 m_ij != 0 in odd
    characteristic) and a swap of i into place.
    """
    m = [[LaurentPoly.coerce(tower, v) for v in row] for row in gram]
    n = len(m)
    if any(len(row) != n for row in m):
        raise NotSymmetric("Gram matrix is not square")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise NotSymmetric(f"entries ({i},{j}) and ({j},{i}) differ")

    def swap(a, b):
        m[a], m[b] = m[b], m[a]
        for row in m:
            row[a], row[b] = row[b], row[a]

    for k in range(n):
        if m[k][k].is_zero:
            s = next((i for i in range(k + 1, n) if not m[i][i].is_zero), None)
            if s is not None:
                swap(k, s)
            else:
                pair = next(
                    (
                        (i, j)
                        for i in range(k, n)
                        for j in range(i + 1, n)
                        if not m[i][j].is_zero
                    ),
                    None,
                )
                if pair is None:
                    raise Degenerate("Gram matrix is singular")
                i, j = pair
                m[i] = [a + b for a, b in zip(m[i], m[j])]  # e_i += e_j
                for row in m:
                    row[i] = row[i] + row[j]
                if i != k:
                    swap(k, i)
        pivot = m[k][k]
        steps = [(i, m[i][k]) for i in range(k + 1, n) if not m[i][k].is_zero]
        for i, a in steps:
            m[i] = [pivot * x - a * y for x, y in zip(m[i], m[k])]
        for row in m:
            for i, a in steps:
                row[i] = pivot * row[i] - a * row[k]

    return DiagonalForm(tower, tuple(m[k][k].square_class() for k in range(n)))


# -- isotropy, Witt decomposition -----------------------------------------------


@dataclass(init=False, repr=False, eq=False)
class WittDecomposition(Value):
    """Witt index and anisotropic kernel, as a form or as invariants."""

    witt_index: int
    kernel_dim: int
    kernel: Optional[DiagonalForm] = None  # None when only invariants survive (Q)
    kernel_invariants: Optional[object] = None  # arithq.RationalInvariants
    # (mask, base class) per anisotropic run; compared only when it is all
    # that is kept of the kernel (over Q((t))...), else derived
    witt_class: Optional[tuple] = field(default=None, repr=False)

    def __init__(self, witt_index, kernel_dim, kernel=None, kernel_invariants=None, witt_class=None):
        self.__dict__.update(witt_index=witt_index, kernel_dim=kernel_dim, kernel=kernel,
                             kernel_invariants=kernel_invariants, witt_class=witt_class)

    def _values(self) -> tuple:
        kept = self.kernel is not None or self.kernel_invariants is not None
        return (self.witt_index, self.kernel_dim, self.kernel, self.kernel_invariants,
                None if kept else self.witt_class)

    @property
    def is_hyperbolic(self) -> bool:
        return self.kernel_dim == 0

    @property
    def dim(self) -> int:
        return 2 * self.witt_index + self.kernel_dim


def _count_class(tower: FieldTower, pos: int, neg: int) -> tuple:
    """The base-field rule over R and F_q, for a form of pos entries <1> and
    neg entries <-1> or <u> (base bit 0 and 1 of their codes): its class c
    in W(k) and the numbers (ones, others) of the entries <1> and <-1> or
    <u> of its kernel.  c is pos - neg in W(R) = Z, (pos - neg) mod 4 in
    W(F_q) = Z/4 when -1 is not a square (kernels [], <1>, <1,1>, <u>), and
    (pos mod 2, neg mod 2) in W(F_q) = F_2[Z/2] when it is."""
    if tower.kind == "R":
        c = pos - neg
        return c, max(c, 0), max(-c, 0)
    if tower.minus_one_is_square():
        c = pos % 2, neg % 2
        return c, *c
    c = (pos - neg) % 4
    return c, *((0, 0), (1, 0), (2, 0), (0, 1))[c]


def _runs(tower: FieldTower, codes) -> dict:
    """Springer's residue runs of the entry codes ``codes`` (Lam, Ch. VI):
    for each variable mask, in order of first appearance, the base-field
    codes of the entries of that mask with the mask cleared, ``code & 1``
    over R and F_q and (0, |b|, b < 0) over Q.  Sorted codes give masks
    ascending and each run sorted."""
    runs: dict = {}
    for code in codes:
        mask, base = (code >> 1, code & 1) if type(code) is int else (code[0], (0, *code[1:]))
        runs.setdefault(mask, []).append(base)
    return runs


def _base_witt(base: FieldTower, codes) -> tuple:
    """The base-field rule on the sorted codes of a form over R, F_q or Q:
    (witt_index, kernel, class or None when hyperbolic).  Over Q ``arithq``,
    the kernel its invariants; over R and F_q ``_count_class`` on the counts
    of base bits 0 and 1, the kernel its sorted base codes (an anisotropic
    plane is its own kernel).  Unmemoized: each run's class is its own."""
    if base.kind == "Q":
        from . import arithq
        return arithq._witt_codes(base, codes)
    neg = sum(codes)
    pos = len(codes) - neg
    c, ones, others = _count_class(base, pos, neg)
    if pos + neg == 2 == ones + others:
        ones, others = pos, neg
    return (pos + neg - ones - others) // 2, (0,) * ones + (1,) * others, c if ones + others else None


@lru_cache(maxsize=CACHE_SIZE)
def _witt(tower: FieldTower, key: tuple) -> WittDecomposition:
    """Springer's theorem once per variable, flattened: W of the tower is
    the sum over variable masks m of W(base), the summand of m spanned by
    the run of mask m (``_runs``; Lam, Ch. VI); a base-field form is one
    run, of mask 0.  ``_base_witt`` decides each run and the parts add up:
    Witt indices, (mask, class) of the anisotropic runs, and one kernel
    form of the runs' kernel codes, masks put back, over R and F_q; over Q
    the one run's invariants, over Q((t_1))... only the classes."""
    base, index, kernels, classes = tower.base_field(), 0, [], []
    for mask, run in (_runs(tower, key) if tower.laurent_vars else {0: key}).items():
        i, k, c = _base_witt(base, run)
        index += i
        kernels.append((mask, k))
        if c is not None:
            classes.append((mask, c))
    kernel = invariants = None
    if tower.kind != "Q":
        kernel = DiagonalForm(tower, _classes(tower, [2 * mask | code for mask, k in kernels for code in k]))
    elif not tower.laurent_vars:
        ((_, invariants),) = kernels
    return WittDecomposition(index, len(key) - 2 * index, kernel, invariants, tuple(classes))


def witt_decompose(f: DiagonalForm) -> WittDecomposition:
    return _witt(f.tower, f.key)


def witt_class(f: DiagonalForm) -> tuple:
    """The class of f in the Witt ring: (mask, base class) for each
    anisotropic run, masks ascending; () when f is hyperbolic."""
    return _witt(f.tower, f.key).witt_class


def is_isotropic(f: DiagonalForm) -> bool:
    return witt_decompose(f).witt_index > 0


def is_hyperbolic(f: DiagonalForm) -> bool:
    return witt_decompose(f).is_hyperbolic


def _base_sqrt(base: FieldTower, a):
    """A square root of the base constant a among the constants, or None:
    the least one over F_p and F_{p^2}, the positive one over Q and R."""
    if base.kind == "F":
        return sqrt_mod(a, base.p)
    a = Fraction(a)
    rn, rd = math.isqrt(max(a.numerator, 0)), math.isqrt(a.denominator)
    if a > 0 and rn * rn == a.numerator and rd * rd == a.denominator:
        return Fraction(rn, rd)
    return None


def _base_vector(base: FieldTower, b: list) -> Optional[list]:
    """Nonzero constants y with sum b_i y_i^2 = 0, or None.

    The first pair with -b_i b_j = r^2 gives y_i = r, y_j = b_i.  Failing
    that, three entries over F_p give the least solution (1, y_1, y_2):
    y_1 the least value with -(b_0 + b_1 y_1^2)/b_2 a square (about half
    of all values are), y_2 its least root.  No solution has y_0 = 0, as
    (1, 2) is no isotropic pair, so this is the lexicographically first.
    Over Q three entries get a bounded search.
    """
    n = len(b)
    for i in range(n):
        for j in range(i + 1, n):
            root = _base_sqrt(base, -b[i] * b[j])
            if root is not None:
                y = [0] * n
                y[i], y[j] = root, b[i]
                return y
    if n >= 3 and base.kind == "F" and base.degree == 1:
        inv = pow(b[2], -1, base.p)
        for y1 in range(base.p):
            root = sqrt_mod(-(b[0] + b[1] * y1 * y1) * inv, base.p)
            if root is not None:
                return [1, y1, root] + [0] * (n - 3)
    if n >= 3 and base.kind == "Q":
        for x0, x1 in itertools.product(range(31), repeat=2):
            root = _base_sqrt(base, -(b[0] * x0 * x0 + b[1] * x1 * x1) / b[2])
            if root is not None:
                return [x0, x1, root] + [0] * (n - 3)
    return None


def isotropic_vector(
    tower: FieldTower, coeffs: Sequence[LaurentPoly]
) -> Optional[list[LaurentPoly]]:
    """Exact nonzero x with sum c_i x_i^2 = 0 for monomials c_i, or None.

    The residue runs of the Witt pass (``_runs``), masks ascending; a run
    is searched only when the base-field rule, asked on its base codes,
    makes it isotropic.  A vector y of its base constants lifts to
    x_i = y_i * prod v^(-floor(e_i/2)), e_i the exponents of c_i, and the
    other x_i are 0.  An isotropic run with no vector is skipped over
    F_{p^2} (no constant root) and Q (a bounded search); over F_p it
    raises InternalInconsistency.
    """
    monos = [m for (m,) in (c.terms for c in coeffs)]  # ValueError unless monomials
    classes = [c.square_class() for c in coeffs]
    base = tower.base_field()
    for mask, run in sorted(_runs(tower, [c.code for c in classes]).items()):
        if not _witt(base, tuple(sorted(run))).witt_index:
            continue
        idxs = [i for i, c in enumerate(classes) if c.mask == mask]
        y = _base_vector(base, [monos[i][1] for i in idxs])
        if y is None:
            if base.kind == "F" and base.degree == 1:
                raise InternalInconsistency(f"isotropic run {_classes(base, run)} without a vector")
            continue
        out = [LaurentPoly.zero(tower)] * len(coeffs)
        for i, yi in zip(idxs, y):
            half = {v: -(e // 2) for v, e in zip(tower.laurent_vars, monos[i][0])}
            out[i] = LaurentPoly.monomial(tower, yi, half)
        return out
    return None


def is_isometric(f: DiagonalForm, g: DiagonalForm) -> bool:
    """Witt cancellation: same dimension and equal Witt classes."""
    if f.tower != g.tower:
        raise FieldMismatch(f"{f.tower} vs {g.tower}")
    return f.dim == g.dim and witt_class(f) == witt_class(g)


# -- splitting over quadratic extensions -------------------------------------------


def splits_over_quadratic(
    tower: FieldTower, slots: Sequence[SquareClass], delta: SquareClass
) -> bool:
    """Whether <<slots>> becomes hyperbolic over tower(sqrt(delta)).

    Decided entirely downstairs, on the folded codes: a hyperbolic form
    splits over anything, and otherwise the pure subform (every entry but
    the leading <1>) represents -delta exactly when the extension kills
    the form, one base-field question on delta's run (``_pure_represents``).
    """
    codes = _pfister_codes(tower, slots)
    if delta.tower != tower:
        raise FieldMismatch(f"{delta.tower} vs {tower}")
    if delta.is_one:
        raise DeltaIsSquare(f"{delta} is a square")
    # isotropic Pfister forms are hyperbolic
    if _witt(tower, tuple(sorted(codes))).witt_index > 0:
        return True
    return _pure_represents(tower, _runs(tower, codes[1:]), delta.code)


def quadratic_splitting_classes(
    tower: FieldTower, slots: Sequence[SquareClass]
) -> frozenset[SquareClass]:
    """The nonsquare classes delta of an enumerable tower with <<slots>>
    hyperbolic over tower(sqrt(delta)): the answers of
    ``splits_over_quadratic`` for every delta at once.  One fold of the
    checked slots, one isotropy question and one split of the pure subform
    into runs serve every delta; then each delta is one base-field lookup."""
    nonsquares = [d for d in enumerate_square_classes(tower) if not d.is_one]
    codes = _pfister_codes(tower, slots)
    if _witt(tower, tuple(sorted(codes))).witt_index > 0:
        return frozenset(nonsquares)
    runs = _runs(tower, codes[1:])
    return frozenset(d for d in nonsquares if _pure_represents(tower, runs, d.code))


def _pure_represents(tower: FieldTower, runs: dict, delta_code) -> bool:
    """Whether the pure subform of an anisotropic Pfister form (every entry
    but the leading <1>), of residue runs ``runs``, represents -delta, that
    is whether it plus <delta> is isotropic: exactly when tower(sqrt(delta))
    splits the form (Lam, Ch. X).  The pure subform is anisotropic with the
    form, so by Springer's theorem only delta's own run can turn isotropic:
    one memoized question over the base field, on that run plus delta's
    base code, on every tower (Lam, Ch. VI)."""
    ((mask, run),) = _runs(tower, (delta_code,)).items()
    return _witt(tower.base_field(), tuple(sorted(runs.get(mask, []) + run))).witt_index > 0


def pfister_slot_witness(
    tower: FieldTower, slots: Sequence[SquareClass], delta: SquareClass
) -> tuple[SquareClass, ...]:
    """Slots (delta, b_2, ..., b_n) presenting f = <<slots>> with delta in front.

    The lexicographically first presentation, in enumeration order (the
    order of codes), read off f's mod-2 symbol by ``_presentation``: b_k
    is the first class for which <<delta, b_2, ..., b_k>> divides f.
    Only available where symbols are kept, over F_q and R towers of at
    most ``SYMBOL_VARS`` variables; over Q the split/no-split decision is
    all there is.  The slots found are checked to present f.
    """
    if not tower.is_enumerable:
        raise WitnessUnsupported(f"witness search needs a finite class group, not {tower}")
    if _symbol_table(tower) is None:
        raise WitnessUnsupported(
            f"witness search needs at most {SYMBOL_VARS} Laurent variables, not {tower}"
        )
    f = pfister(tower, slots)
    if not splits_over_quadratic(tower, slots, delta):
        raise NoSplit(f"{f} does not split over sqrt({delta})")
    n = len(slots)
    if n == 1 and is_hyperbolic(f):
        raise WitnessUnsupported(
            f"<<{slots[0]}>> is hyperbolic and <<{delta}>> is not: "
            f"no presentation has {delta} in front"
        )
    codes = _presentation(tower, delta.code, _symbol(tower, [a.code for a in slots]), n)
    if codes is None:
        raise InternalInconsistency(f"{f} splits over sqrt({delta}) but has no presentation")
    found = _classes(tower, codes)
    if not is_isometric(pfister(tower, found), f):
        raise InternalInconsistency(f"slots {found} found for {f} do not present it")
    return found
