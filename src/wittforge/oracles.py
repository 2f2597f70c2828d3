"""Brute-force oracles and references, independent of the decision
procedures they check.

The searches only ever certify: a returned witness is verified exactly,
and the "none found" answers are exhaustive over their stated candidate
spaces.  A search whose candidates would exceed ``SEARCH_BUDGET`` raises
OracleBudgetExceeded instead of running.  ``extend_quadratic`` and
``base_change`` model k(sqrt(delta)) as a tower for the two shapes of
delta where one exists, a reference for ``qform.splits_over_quadratic``,
which decides downstairs; ``find_defect_witness`` searches for a pair
breaking the composition law in dimension 16.  No library answer uses
this module: the test suite compares it against the library verdicts,
and the CLI exposes the searches behind ``--oracle``.
"""
from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

from .algebras import CompositionAlgebra
from .errors import DeltaIsSquare, FieldMismatch, InternalInconsistency, UnsupportedDelta
from .fields import FieldTower, SquareClass, sq_mul
from .laurent import LaurentPoly
from .qform import DiagonalForm


class OracleBudgetExceeded(RuntimeError):
    pass


SEARCH_BUDGET = 2_000_000  # candidates one search may look at


def _check_budget(count: int) -> None:
    if count > SEARCH_BUDGET:
        raise OracleBudgetExceeded(f"{count} candidates exceed the budget {SEARCH_BUDGET}")


# -- truncated Laurent series witness search (one variable) ------------------------


def truncated_witness_search(
    f: DiagonalForm, precision: int = 4
) -> Optional[list[LaurentPoly]]:
    """Isotropy witness with truncated series coordinates, or None.

    Coordinates are polynomials sum x_m t^m with m < precision and
    coefficients exhausted over F_p, normalized so the constant layer is
    nonzero; the congruence q(x) = 0 mod t^precision is checked layer by
    layer.  A layer whose constraint is constant and nonzero prunes the
    node, which keeps the anisotropic side exhaustive and cheap.
    """
    tower = f.tower
    if tower.kind != "F" or tower.degree != 1 or len(tower.laurent_vars) != 1:
        raise ValueError("series search expects a one-variable prime-base tower")
    p = tower.p
    d = f.dim
    if d == 0:
        return None
    entries = [(e.base % p, e.mask) for e in f.entries]  # mask is the t-parity
    _check_budget(p**d)
    spent = 0

    def layer_value(layers, k):
        total = 0
        for i, (ci, ei) in enumerate(entries):
            kk = k - ei
            if kk < 0:
                continue
            s = 0
            for m in range(kk + 1):
                n = kk - m
                if m < len(layers) and n < len(layers):
                    s += layers[m][i] * layers[n][i]
            total += ci * s
        return total % p

    def dfs(layers):
        nonlocal spent
        k = len(layers)
        if k == precision:
            return layers
        # affine structure in the new layer: gradient from the unit block
        grad = tuple(
            (2 * ci * layers[0][i]) % p if ei == 0 else 0
            for i, (ci, ei) in enumerate(entries)
        )
        const = layer_value(layers + [(0,) * d], k)
        if const and not any(grad):
            return None
        spent += p**d
        _check_budget(spent)
        for xk in itertools.product(range(p), repeat=d):
            if (const + sum(g * v for g, v in zip(grad, xk))) % p:
                continue
            got = dfs(layers + [xk])
            if got is not None:
                return got
        return None

    for x0 in itertools.product(range(p), repeat=d):
        if not any(x0):
            continue
        if layer_value([x0], 0) != 0:
            continue
        got = dfs([x0])
        if got is not None:
            coords = []
            for i in range(d):
                poly = LaurentPoly.zero(tower)
                for m, layer in enumerate(got):
                    if layer[i]:
                        poly = poly + LaurentPoly.monomial(
                            tower, layer[i], {tower.laurent_vars[0]: m}
                        )
                coords.append(poly)
            # exact residual check modulo t^precision
            total = LaurentPoly.zero(tower)
            for e, x in zip(f.entries, coords):
                total = total + LaurentPoly.of_class(e) * x * x
            if any(exps[0] < precision for exps, _ in total.terms):
                raise InternalInconsistency(
                    f"witness {coords} leaves a residue below t^{precision}"
                )
            return coords
    return None


# -- exact constant-coordinate search (any enumerable tower) ------------------------


def constant_witness_search(f: DiagonalForm) -> Optional[list[LaurentPoly]]:
    """Exact isotropy witness with base-field constant coordinates.

    Meet-in-the-middle over two halves, each coordinate in 0..(p-1)/2 (x
    and -x have one square); a hit is an exact identity, certifying isotropy.
    For square-class entries a constant witness exists whenever the form
    is isotropic: some residue block is isotropic downstairs and its
    witness lifts with zeros elsewhere.
    """
    tower = f.tower
    if tower.kind != "F" or tower.degree != 1:
        raise ValueError("constant search expects a prime-base tower")
    p = tower.p
    d = f.dim
    if d == 0:
        return None
    # entries are class monomials: (exponent vector, unit coefficient)
    monos = []
    for e in f.entries:
        ((exps, coeff),) = LaurentPoly.of_class(e).terms
        monos.append((exps, coeff))
    half = d // 2
    _check_budget(p**half + p ** (d - half))
    left, right = list(range(half)), list(range(half, d))

    def values(idxs):
        out = []
        for assign in itertools.product(range((p + 1) // 2), repeat=len(idxs)):
            acc: dict = {}
            for i, x in zip(idxs, assign):
                if x:
                    exps, coeff = monos[i]
                    acc[exps] = (acc.get(exps, 0) + coeff * x * x) % p
            val = frozenset((e, c) for e, c in acc.items() if c)
            out.append((assign, val))
        return out

    def negated(val):
        return frozenset((e, (-c) % p) for e, c in val)

    first: dict = {}
    first_nonzero: dict = {}
    for assign, val in values(left):
        first.setdefault(val, assign)
        if any(assign):
            first_nonzero.setdefault(val, assign)
    for assign, val in values(right):
        target = negated(val)
        if any(assign):
            match = first.get(target)
        else:
            match = first_nonzero.get(target)
        if match is not None:
            coords = [LaurentPoly.const(tower, v) for v in match + assign]
            total = LaurentPoly.zero(tower)
            for e, x in zip(f.entries, coords):
                total = total + LaurentPoly.of_class(e) * x * x
            if not total.is_zero:  # exact certificate
                raise InternalInconsistency(f"witness {coords} does not annihilate {f}")
            return coords
    return None


# -- rational witness search ---------------------------------------------------------


def _reduce(ws: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for w in ws:
        g = math.gcd(g, abs(w))
    return tuple(w // g for w in ws) if g > 1 else tuple(ws)


def _perfect_square(n: int) -> Optional[int]:
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def _subforms(a: Sequence[int], r: int):
    """Index r-subsets of ``a``, skipping each whose coefficients, in
    order, repeat an earlier subset's: the search on it would repeat too."""
    seen = set()
    for combo in itertools.combinations(range(len(a)), r):
        coeffs = tuple(a[m] for m in combo)
        if coeffs not in seen:
            seen.add(coeffs)
            yield combo


def rational_witness_search(
    entries: Sequence[int], bounds: Sequence[int] = (30, 120, 400)
) -> Optional[tuple[int, ...]]:
    """Integer isotropy witness for a diagonal form over Q, or None.

    Pair rule, then ternary subforms (loop two coordinates, perfect
    square for the third), then quaternary subforms (meet in the middle
    of two coordinate pairs), with an escalating coordinate bound.  Every
    subform is tried, so a witness with at most four nonzero coordinates,
    each within the last bound, is found.  The candidates are counted
    against ``SEARCH_BUDGET`` before each sweep runs: the index subsets
    scanned for subforms, then (b+1)^2 per ternary and 2(b+1)^2 per
    quaternary subform at bound b.
    """
    a = [int(x) for x in entries]
    d = len(a)
    if d <= 1:
        return None
    for i in range(d):
        for j in range(i + 1, d):
            s = _perfect_square(-a[i] * a[j])
            if s is not None and s != 0:
                out = [0] * d
                out[i], out[j] = s, abs(a[i])
                return _reduce(out)
    spent = math.comb(d, 3) + math.comb(d, 4)
    _check_budget(spent)
    triples, quadruples = list(_subforms(a, 3)), list(_subforms(a, 4))
    for bound in bounds:
        spent += len(triples) * (bound + 1) ** 2
        _check_budget(spent)
        for i, j, k in triples:
            for x in range(bound + 1):
                for y in range(bound + 1):
                    if x == 0 and y == 0:
                        continue
                    s = _perfect_square(-a[k] * (a[i] * x * x + a[j] * y * y))
                    if s is not None:
                        out = [0] * d
                        out[i], out[j], out[k] = a[k] * x, a[k] * y, s
                        if any(out):
                            return _reduce(out)
        spent += 2 * len(quadruples) * (bound + 1) ** 2
        _check_budget(spent)
        for i, j, k, l in quadruples:
            table: dict[int, tuple[int, int]] = {}
            nonzero_table: dict[int, tuple[int, int]] = {}
            for x1 in range(bound + 1):
                for x2 in range(bound + 1):
                    v = a[i] * x1 * x1 + a[j] * x2 * x2
                    table.setdefault(v, (x1, x2))
                    if x1 or x2:
                        nonzero_table.setdefault(v, (x1, x2))
            for x3 in range(bound + 1):
                for x4 in range(bound + 1):
                    v = -(a[k] * x3 * x3 + a[l] * x4 * x4)
                    match = table.get(v) if (x3 or x4) else nonzero_table.get(v)
                    if match is not None:
                        out = [0] * d
                        out[i], out[j], out[k], out[l] = match[0], match[1], x3, x4
                        return _reduce(out)
    return None


def verify_rational_witness(entries: Sequence[int], witness: Sequence[int]) -> bool:
    total = sum(int(a) * w * w for a, w in zip(entries, witness))
    return total == 0 and any(witness)


# -- local oracles --------------------------------------------------------------------


def hilbert2_unit_solvable(a: int, b: int) -> int:
    """(a,b)_2 for odd a, b by exhausting z^2 = a x^2 + b y^2 mod 8.

    A primitive solution mod 8 exists exactly when the symbol is +1.
    """
    if a % 2 == 0 or b % 2 == 0:
        raise ValueError("unit oracle wants odd arguments")
    for x, y, z in itertools.product(range(8), repeat=3):
        if x % 2 == 0 and y % 2 == 0 and z % 2 == 0:
            continue
        if (a * x * x + b * y * y - z * z) % 8 == 0:
            return 1
    return -1


def legendre_by_enumeration(a: int, p: int) -> int:
    squares = {x * x % p for x in range(1, p)}
    return 1 if a % p in squares else -1


def unit_form_liftable_mod_p(entries: Sequence[int], p: int) -> bool:
    """Nonsingular zero mod an odd prime; Hensel lifts it to Z_p.

    Only meaningful when every entry is a unit at p.
    """
    a = [int(x) % p for x in entries]
    if any(x == 0 for x in a):
        raise ValueError("entries must be units at p")
    d = len(a)
    for vec in itertools.product(range(p), repeat=d):
        if not any(vec):
            continue
        if sum(c * x * x for c, x in zip(a, vec)) % p == 0:
            if any((2 * c * x) % p for c, x in zip(a, vec)):
                return True
    return False


# -- base change along a modelled quadratic extension ----------------------------------


def extend_quadratic(tower: FieldTower, delta: SquareClass):
    """(tower of tower(sqrt(delta)), transfer), transfer mapping a class of
    ``tower`` to its class upstairs, for the two shapes with a model:

    * delta purely in the base: unramified, the degree-2 base;
    * delta = (base unit) * outermost variable: ramified, the outer
      uniformizer replaced by its square root, a fresh variable r, r2, ...

    Classes mixing inner variables have no tower-shaped model here.
    """
    if delta.tower != tower:
        raise FieldMismatch(f"{delta.tower} vs {tower}")
    if delta.is_one:
        raise DeltaIsSquare(f"{delta} is a square")
    if tower.kind != "F":
        raise UnsupportedDelta(f"quadratic extension models need a prime base, got {tower}")
    outer = 1 << (len(tower.laurent_vars) - 1) if tower.laurent_vars else 0
    if not delta.mask:
        if tower.degree == 2:
            raise UnsupportedDelta("base is already quadratically extended")
        upstairs = FieldTower("F", tower.p, tower.laurent_vars, 2)
    elif delta.mask == outer:
        inner = tower.laurent_vars[:-1]
        fresh, k = "r", 2
        while fresh in inner:
            fresh, k = f"r{k}", k + 1
        upstairs = FieldTower("F", tower.p, inner + (fresh,), tower.degree)
    else:
        raise UnsupportedDelta(
            f"{delta} mixes inner variables; only base units and base*outer are modelled"
        )

    def transfer(x: SquareClass) -> SquareClass:
        if x.tower != tower:
            raise FieldMismatch(f"{x.tower} vs {tower}")
        if not delta.mask:  # every base constant is a square in F_{p^2}
            return SquareClass(upstairs, 1, x.mask)
        if x.mask & outer:  # t = r^2 / delta0: the class of t maps to delta0
            x = sq_mul(x, SquareClass(tower, delta.base))
        return SquareClass(upstairs, x.base, x.mask & ~outer)

    return upstairs, transfer


def base_change(f: DiagonalForm, delta: SquareClass) -> DiagonalForm:
    """f over f.tower(sqrt(delta)), entry by entry through the transfer map."""
    tower, transfer = extend_quadratic(f.tower, delta)
    return DiagonalForm(tower, tuple(transfer(e) for e in f.entries))


# -- composition defect search ----------------------------------------------------------


def find_defect_witness(A: CompositionAlgebra):
    """Sparse pair with N(xy) != N(x)N(y); such pairs exist in dimension 16.

    x runs over e_i + e_j and, for each, y over e_k + e_l then e_k - e_l
    (i < j, k < l, lexicographic); every candidate and its norm is built
    once."""
    basis = [A.basis(i) for i in range(A.dim)]
    negs = [-e for e in basis]
    pairs = list(itertools.combinations(range(A.dim), 2))
    ys = [
        (y, y.norm_form_value())
        for k, l in pairs
        for y in (basis[k] + basis[l], basis[k] + negs[l])
    ]
    for i, j in pairs:
        x = basis[i] + basis[j]
        nx = x.norm_form_value()
        for y, ny in ys:
            defect = (x * y).norm_form_value() - nx * ny
            if not defect.is_zero:
                return x, y, defect
    return None
