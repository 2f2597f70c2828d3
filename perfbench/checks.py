"""Correctness checkers, computed apart from the program.

Each checker takes a workload's plain inputs and the plain outputs the
program gave for one operation, and returns None when the outputs are
right or a string naming the first thing that is wrong.  None of them
imports wittforge or trusts a label the program prints: the obstruction
checker ignores the report's ``verdict``, the octonion checker multiplies
again mod 13, and the rational checker has its own Hilbert symbols.
"""
from __future__ import annotations

from inputs import NONRESIDUE, P, independent

# -- obstruction-sweep ---------------------------------------------------------

_BITS = {"u": 1, "s": 2, "t": 4}


def parse_class(text: str) -> int:
    """3-bit mask of a printed square class of F13((s))((t))."""
    if text == "1":
        return 0
    mask = 0
    for tok in text.split("*"):
        bit = _BITS.get(tok)
        if bit is None or mask & bit:
            raise ValueError(f"not a canonical class: {text!r}")
        mask |= bit
    return mask


def check_obstruction(inp, out) -> str | None:
    """inp: (slots, ds); out: {"split": bool, "reports": [{"d", "slots", "rows"}]}.

    An algebra with independent slots is division.  For each nonsquare d
    the norm matches exactly at the 24 pairs (b, c) with det(d, b, c) != 0,
    and no matching pair has an isometric trace form.
    """
    slots, ds = inp
    if out["split"] is not False:
        return f"algebra {slots} reported split"
    if len(out["reports"]) != len(ds):
        return f"{len(out['reports'])} reports for {len(ds)} values of d"
    for d, rep in zip(ds, out["reports"]):
        try:
            if tuple(parse_class(x) for x in rep["slots"]) != tuple(slots):
                return f"report slots {rep['slots']} for algebra {slots}"
            if parse_class(rep["d"]) != d:
                return f"report d {rep['d']} for d {d}"
            pairs = [(parse_class(b), parse_class(c)) for b, c, _, _ in rep["rows"]]
        except ValueError as exc:
            return str(exc)
        if sorted(pairs) != [(b, c) for b in range(8) for c in range(8)]:
            return f"d={d}: evidence rows do not cover each (b, c) once"
        for (b, c), (_, _, matches, iso) in zip(pairs, rep["rows"]):
            if matches is not independent(d, b, c):
                return f"d={d} b={b} c={c}: norm_matches {matches}"
            if iso is not (False if matches else None):
                return f"d={d} b={b} c={c}: trace_isometric {iso}"
    return None


# -- octonion-arith ------------------------------------------------------------


def _eval_poly(terms, s0: int, t0: int) -> int:
    return sum(c * pow(s0, es, P) * pow(t0, et, P) for (es, et), c in terms) % P


def _slot_value(mask: int, s0: int, t0: int) -> int:
    v = NONRESIDUE if mask & 1 else 1
    if mask & 2:
        v *= s0
    if mask & 4:
        v *= t0
    return v % P


def _conj(x):
    return [x[0]] + [-v % P for v in x[1:]]


def cd_mul(x, y, cs):
    """Cayley-Dickson product mod P: (a,b)(z,w) = (az + c conj(w) b, wa + b conj(z))."""
    if not cs:
        return [x[0] * y[0] % P]
    h = len(x) // 2
    c, inner = cs[-1], cs[:-1]
    a, b, z, w = x[:h], x[h:], y[:h], y[h:]
    first = [
        (p + c * q) % P
        for p, q in zip(cd_mul(a, z, inner), cd_mul(_conj(w), b, inner))
    ]
    second = [
        (p + q) % P for p, q in zip(cd_mul(w, a, inner), cd_mul(b, _conj(z), inner))
    ]
    return first + second


def cd_norm(x, cs) -> int:
    """The diagonal norm <<c_1, ..., c_n>> with the doubling's signs."""
    coeffs = [1]
    for c in cs:
        coeffs = coeffs + [-c * m % P for m in coeffs]
    return sum(k * v * v for k, v in zip(coeffs, x)) % P


def check_octonion(slots, inp, out) -> str | None:
    """inp: {"x", "y", "points"}; out: product coordinates as term lists."""
    if len(out) != len(inp["x"]):
        return f"product has {len(out)} coordinates"
    for s0, t0 in inp["points"]:
        cs = [_slot_value(m, s0, t0) for m in slots]
        x = [_eval_poly(c, s0, t0) for c in inp["x"]]
        y = [_eval_poly(c, s0, t0) for c in inp["y"]]
        xy = [_eval_poly(c, s0, t0) for c in out]
        if xy != cd_mul(x, y, cs):
            return f"product differs at (s, t) = ({s0}, {t0})"
        if cd_norm(xy, cs) != cd_norm(x, cs) * cd_norm(y, cs) % P:
            return f"N(xy) != N(x)N(y) at (s, t) = ({s0}, {t0})"
    return None


# -- rational-forms ------------------------------------------------------------


def _val_unit(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def _legendre(a: int, p: int) -> int:
    return 1 if pow(a % p, (p - 1) // 2, p) == 1 else -1


def _eps(u: int) -> int:
    """(u - 1) / 2 mod 2 for odd u."""
    return (u % 8 - 1) // 2 % 2


def _omega(u: int) -> int:
    """(u^2 - 1) / 8 mod 2 for odd u."""
    return ((u % 8) ** 2 - 1) // 8 % 2


def hilbert(a: int, b: int, p: int) -> int:
    """(a, b)_p for nonzero integers; p == 0 is the real place."""
    if p == 0:
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _val_unit(a, p)
    beta, w = _val_unit(b, p)
    if p == 2:
        e = _eps(u) * _eps(w) + alpha * _omega(w) + beta * _omega(u)
        return -1 if e % 2 else 1
    sign = -1 if (alpha * beta * (p - 1) // 2) % 2 else 1
    return sign * _legendre(u, p) ** beta * _legendre(w, p) ** alpha


def _is_local_square(n: int, p: int) -> bool:
    if p == 0:
        return n > 0
    v, u = _val_unit(n, p)
    if v % 2:
        return False
    return u % 8 == 1 if p == 2 else _legendre(u, p) == 1


def _kernel(sign: int, primes) -> int:
    out = sign
    for q in primes:
        out *= q
    return out


def _disc(classes) -> int:
    sign, odd = 1, set()
    for sg, ps in classes:
        sign *= sg
        odd ^= set(ps)
    return _kernel(sign, sorted(odd))


def rational_isotropic(classes) -> bool:
    """Isotropy over Q from the entries' square classes (sign, odd primes)."""
    vals = [_kernel(sg, ps) for sg, ps in classes]
    dim = len(vals)
    if dim >= 5:
        return min(vals) < 0 < max(vals)
    if dim == 2:
        a, b = classes
        return a[0] != b[0] and sorted(a[1]) == sorted(b[1])
    places = {0, 2} | {q for _, ps in classes for q in ps}
    if dim == 3:
        a, b, c = vals
        return all(hilbert(-a * c, -b * c, v) == 1 for v in places)
    disc = _disc(classes)
    for v in places:
        eps = 1
        for i in range(dim):
            for j in range(i + 1, dim):
                eps *= hilbert(vals[i], vals[j], v)
        if _is_local_square(disc, v) and eps == -hilbert(-1, -1, v):
            return False
    return True


def _check_form_echo(inp, payload) -> str | None:
    want = [str(_kernel(sg, ps)) for sg, ps in inp["classes"]]
    if payload.get("form") != want:
        return f"form printed as {payload.get('form')}, expected {want}"
    return None


def check_isotropy(inp, payload) -> str | None:
    """payload: the JSON of ``qf-isotropy --field Q --json``."""
    bad = _check_form_echo(inp, payload)
    if bad:
        return bad
    want = rational_isotropic(inp["classes"])
    if payload.get("isotropic") is not want:
        return f"isotropic {payload.get('isotropic')}, expected {want}"
    return None


def check_witt(inp, payload) -> str | None:
    """payload: the JSON of ``qf-witt --field Q --json``.

    2i + k = dim; the kernel signature is (p - i, n - i); its discriminant
    is (-1)^i disc; a kernel of dimension >= 5 is definite; i > 0 exactly
    when the form is isotropic.
    """
    bad = _check_form_echo(inp, payload)
    if bad:
        return bad
    classes = inp["classes"]
    dim = len(classes)
    i, k = payload["witt_index"], payload["kernel_dim"]
    inv = payload.get("kernel_invariants") or {}
    pos = sum(1 for sg, _ in classes if sg > 0)
    if 2 * i + k != dim:
        return f"2*{i} + {k} != {dim}"
    if inv.get("dim") != k:
        return f"kernel invariants dim {inv.get('dim')} != kernel_dim {k}"
    if inv.get("signature") != [pos - i, dim - pos - i]:
        return f"kernel signature {inv.get('signature')} for ({pos}, {dim - pos}), i={i}"
    if inv.get("disc") != str((-1) ** i * _disc(classes)):
        return f"kernel disc {inv.get('disc')}, expected {(-1) ** i * _disc(classes)}"
    if k >= 5 and 0 not in inv["signature"]:
        return f"anisotropic kernel of dimension {k} is indefinite"
    if (i > 0) is not rational_isotropic(classes):
        return f"witt index {i} contradicts the isotropy verdict"
    return None
