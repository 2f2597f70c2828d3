"""Recursive-descent parsers for the field/form/element literal syntax.

Grammar (ASCII, whitespace tolerated between tokens):

    field    :=  ("Q" | "R" | "F" int) ( "((" ident "))" )*
    form     :=  "[" monomial ("," monomial)* "]"  |  pfister
    pfister  :=  "<<" [ monomial ("," monomial)* ] ">>"
    slots    :=  monomial ("," monomial)*
    element  :=  "(" poly ("," poly)* ")"
    poly     :=  monomial (("+"|"-") factor ("*" factor)*)*
    monomial :=  ["+"|"-"] factor ("*" factor)*
    factor   :=  int ["/" int]  |  ident ["^" ["-"] int]
    rationals := monomial "," monomial

In ``"F" int`` the integer q is an odd prime p (the prime field F_p) or
its square p^2 (the degree-2 base F_{p^2}), as ``str`` of a tower writes
them.  The rightmost field variable is the outermost uniformizer.  Over a
prime base the identifier ``u`` denotes the canonical nonresidue unless
a Laurent variable of that name shadows it; over F_{p^2}, where every
prime-field constant is a square, ``u`` is the nonresidue class and may
appear in class, slot and form literals but not in polynomials.  The
rationals of ``alg-genus`` are monomials over Q, so ``0.5``, ``1e-5``
and ``1_000`` are parse errors.

Lexical rules.  A literal is lexed once, and every parser walks the one
token list.  A token is optional whitespace (``str.isspace``), then one
of three classes: an integer, a run of decimal digits (``str.isdecimal``:
the digits ``int()`` reads, not superscripts); a word, a run of
``str.isalnum()`` characters and ``_`` that does not start with a decimal
digit (an identifier is a word that starts with a letter or ``_``; the
field parser splits ``F13`` after its letter); or any other single
character.  Whitespace may stand between any two tokens but not inside
``((``, ``))``, ``<<`` and ``>>``.  An error points at the first
character of the token where parsing stopped, past its whitespace (the
end of the text when no token is left); ``division by zero`` points at
the end of the denominator, an ``unknown identifier`` with an exponent
at the end of that exponent, and a bad field size just past its ``F``.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ParseError, ZeroSlot
from .fields import (
    FieldTower,
    SquareClass,
    _base_class_of_constant,
    factor_bound,
    is_prime,
    nonresidue_class,
    sq_mul,
)
from .laurent import LaurentPoly
from .qform import DiagonalForm, pfister

# one token: (whitespace, integer, word, other character).  In a str
# pattern \s is exactly what str.isspace accepts, \d what str.isdecimal
# accepts and \w what str.isalnum accepts, and "_".
_TOKEN = re.compile(r"(\s*)(?:(\d+)|(\w+)|(\S))")
_END = ("", "", "", "")  # appended after the last token
# the second character of "((", "))", "<<" and ">>": no whitespace before it
_OPEN, _CLOSE, _LT, _GT = (("", "", "", c) for c in "()<>")


def _lex(text: str) -> list:
    toks = _TOKEN.findall(text)
    toks.append(_END)
    return toks


def _error(message: str, text: str, toks: list, i: int, past: bool = False) -> ParseError:
    """A ParseError at the first character of token ``i`` or, with
    ``past``, just after its last; the position is summed only here."""
    pos = sum(len("".join(t)) for t in toks[: i + past])
    if not past:
        pos = len(text) if toks[i] is _END else pos + len(toks[i][0])
    return ParseError(message, text, pos)


def _finish(text: str, toks: list, i: int, what: str):
    """Check that token ``i`` is the end of the text."""
    if toks[i] is not _END:
        raise _error(f"trailing characters after {what}", text, toks, i)


def _integer(text: str, toks: list, i: int) -> int:
    digits = toks[i][1]
    if not digits:
        raise _error("expected an integer", text, toks, i)
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts (int_max_str_digits)
        raise _error(f"integer literal of {len(digits)} digits is too long", text, toks, i) from None


def _is_ident(word: str) -> bool:
    return word[:1].isalpha() or word[:1] == "_"


def parse_field(text: str) -> FieldTower:
    toks = _lex(text)
    ws, _, word, _ = toks[0]
    kind = word[:1]
    if kind not in ("Q", "R", "F"):
        raise _error(
            "expected a base field: Q, R or F<q>, q = p or p^2, p an odd prime", text, toks, 0
        )
    if len(word) > 1:  # "F13" is one word: the letter, then the rest lexed apart
        toks[0:1] = [(ws, "", kind, "")] + _TOKEN.findall(word[1:])
    p, degree, i = None, 1, 1
    if kind == "F":
        q = _integer(text, toks, 1)
        r = math.isqrt(q)
        p, degree = (r, 2) if r * r == q else (q, 1)
        if p == 2 or not is_prime(p):
            raise ParseError(
                f"F{q}: the size must be an odd prime p or its square p^2", text, len(ws) + 1
            )
        i = 2
    names = []
    while toks[i][3] == "(" and toks[i + 1] == _OPEN:
        if not _is_ident(toks[i + 2][2]):
            raise _error("expected an identifier", text, toks, i + 2)
        names.append(toks[i + 2][2])
        if not (toks[i + 3][3] == ")" and toks[i + 4] == _CLOSE):
            raise _error("expected '))'", text, toks, i + 3)
        i += 5
    _finish(text, toks, i, "field descriptor")
    try:
        return FieldTower(kind, p, tuple(names), degree)
    except ValueError as exc:
        raise ParseError(str(exc), text, 0) from exc


# Exponent key of ``u`` over a degree-2 base: every prime-field constant
# is a square in F_{p^2}, so the nonresidue is a class symbol there, not a
# coefficient.
_NONRESIDUE = None


def _monomial(text: str, toks: list, i: int, tower: FieldTower):
    """The monomial from token ``i``: (coefficient, {variable: exponent},
    index of the token after it)."""
    coeff, exps = 1, {}
    sign = toks[i][3]
    if sign == "-" or sign == "+":  # one sign at most: a second fails as a factor
        coeff, i = (-1 if sign == "-" else 1), i + 1
    while True:
        digits, name = toks[i][1], toks[i][2]
        if digits:
            num = _integer(text, toks, i)
            if toks[i + 1][3] == "/":
                den = _integer(text, toks, i + 2)
                if den == 0:
                    raise _error("division by zero", text, toks, i + 2, past=True)
                coeff, i = coeff * Fraction(num, den), i + 3
            else:
                coeff, i = coeff * num, i + 1
        else:
            if not _is_ident(name):
                raise _error("expected an identifier", text, toks, i)
            e, i, at = 1, i + 1, None
            if toks[i][3] == "^":
                i += 1
                if toks[i][3] == "-":
                    e, i = -1, i + 1
                e, i, at = e * _integer(text, toks, i), i + 1, i
            if name in tower.laurent_vars:
                exps[name] = exps.get(name, 0) + e
            elif name == "u" and tower.kind == "F" and tower.degree == 1:
                coeff = coeff * pow(tower.nonresidue, e, tower.p)
            elif name == "u" and tower.kind == "F":
                exps[_NONRESIDUE] = exps.get(_NONRESIDUE, 0) + e
            else:
                message = f"unknown identifier {name!r} over {tower}"
                # past the exponent, or where the next token starts
                raise _error(message, text, toks, i if at is None else at, at is not None)
        if toks[i][3] != "*":
            return coeff, exps, i
        i += 1


def _monomial_class(tower: FieldTower, coeff, exps, bound=None) -> SquareClass:
    mask = odd_u = 0
    if exps:  # a constant has no exponents to fold
        odd_u = exps.pop(_NONRESIDUE, 0) & 1
        index = tower.laurent_vars.index
        for v, e in exps.items():
            mask |= (e & 1) << index(v)
    c = SquareClass(tower, _base_class_of_constant(tower, coeff, bound), mask)
    return sq_mul(c, nonresidue_class(tower)) if odd_u else c


def parse_class(text: str, tower: FieldTower) -> SquareClass:
    toks = _lex(text)
    coeff, exps, i = _monomial(text, toks, 0, tower)
    _finish(text, toks, i, "monomial")
    return _monomial_class(tower, coeff, exps)


def _slot_list(text: str, toks: list, i: int, tower: FieldTower, pfister_close: bool):
    """Nonzero monomials from token ``i``, separated by commas, up to ``>>``
    (an empty list allowed) with ``pfister_close``, else to the end of the
    text: (slots, index of the token after them)."""
    slots, bound = [], None
    if pfister_close and toks[i][3] == ">" and toks[i + 1] == _GT:
        return (), i + 2
    while True:
        coeff, exps, i = _monomial(text, toks, i, tower)
        if coeff == 0:
            raise ZeroSlot("slot must be nonzero")
        if bound is None and tower.kind == "Q":
            bound = factor_bound()  # once per literal, where its first entry reads it
        slots.append(_monomial_class(tower, coeff, exps, bound))
        if pfister_close and toks[i][3] == ">" and toks[i + 1] == _GT:
            return tuple(slots), i + 2
        if not pfister_close and toks[i] is _END:
            return tuple(slots), i
        if toks[i][3] != ",":
            raise _error("expected ','", text, toks, i)
        i += 1


def parse_slots(text: str, tower: FieldTower) -> tuple[SquareClass, ...]:
    return _slot_list(text, _lex(text), 0, tower, False)[0]


def _pfister_slots(text: str, toks: list, tower: FieldTower) -> tuple[SquareClass, ...]:
    if not (toks[0][3] == "<" and toks[1] == _LT):
        raise _error("expected '<<'", text, toks, 0)
    slots, i = _slot_list(text, toks, 2, tower, True)
    _finish(text, toks, i, "Pfister literal")
    return slots


def parse_pfister(text: str, tower: FieldTower) -> tuple[SquareClass, ...]:
    """The slots of a Pfister literal ``<<a_1,...,a_n>>``."""
    return _pfister_slots(text, _lex(text), tower)


def parse_form(text: str, tower: FieldTower) -> DiagonalForm:
    toks = _lex(text)
    if toks[0][3] == "<" and toks[1] == _LT:
        return pfister(tower, _pfister_slots(text, toks, tower))
    if toks[0][3] != "[":
        raise _error("expected '['", text, toks, 0)
    entries, bound, i = [], None, 1
    while True:
        coeff, exps, i = _monomial(text, toks, i, tower)
        if bound is None and coeff and tower.kind == "Q":
            bound = factor_bound()  # once per literal, where its first entry reads it
        entries.append(_monomial_class(tower, coeff, exps, bound))
        if toks[i][3] == "]":
            break
        if toks[i][3] != ",":
            raise _error("expected ','", text, toks, i)
        i += 1
    _finish(text, toks, i + 1, "form literal")
    return DiagonalForm(tower, tuple(entries))


def _poly(text: str, toks: list, i: int, tower: FieldTower):
    """The polynomial from token ``i``: (value, index of the token after it)."""
    out = None
    while True:
        coeff, exps, i = _monomial(text, toks, i, tower)
        if _NONRESIDUE in exps:
            raise _error(f"u is a square class over {tower}, not an element", text, toks, i)
        term = LaurentPoly.monomial(tower, coeff, exps) if coeff else LaurentPoly.zero(tower)
        out = term if out is None else out + term
        if toks[i][3] != "+" and toks[i][3] != "-":
            return out, i


def parse_poly(text: str, tower: FieldTower) -> LaurentPoly:
    toks = _lex(text)
    out, i = _poly(text, toks, 0, tower)
    _finish(text, toks, i, "polynomial")
    return out


def parse_element_coords(text: str, tower: FieldTower) -> tuple[LaurentPoly, ...]:
    toks = _lex(text)
    if toks[0][3] != "(":
        raise _error("expected '('", text, toks, 0)
    coords, i = [], 1
    while True:
        poly, i = _poly(text, toks, i, tower)
        coords.append(poly)
        if toks[i][3] == ")":
            break
        if toks[i][3] != ",":
            raise _error("expected ','", text, toks, i)
        i += 1
    _finish(text, toks, i + 1, "element literal")
    return tuple(coords)


def parse_rational_pair(text: str) -> tuple:
    """The two rationals of ``monomial "," monomial`` over Q."""
    toks = _lex(text)
    rationals = FieldTower.rationals()
    a, _, i = _monomial(text, toks, 0, rationals)
    if toks[i][3] != ",":
        raise _error("expected ','", text, toks, i)
    b, _, i = _monomial(text, toks, i + 1, rationals)
    _finish(text, toks, i, "rational pair")
    return a, b
