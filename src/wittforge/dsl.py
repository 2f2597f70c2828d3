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
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional

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


# a run of whitespace: in a str pattern, \s is exactly what str.isspace accepts
_WS = re.compile(r"\s*")
# an integer after optional whitespace: in a str pattern, \d is exactly what
# str.isdecimal accepts, the digits int() reads (not superscripts, which
# str.isdigit also accepts)
_INT = re.compile(r"\s*(\d+)")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.text, self.pos)

    def skip_ws(self):
        # most tokens follow no whitespace: test one character before matching
        if self.text[self.pos : self.pos + 1].isspace():
            self.pos = _WS.match(self.text, self.pos).end()

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def match(self, token: str) -> bool:
        # a token never starts with whitespace: at a match there is none to skip
        if not self.text.startswith(token, self.pos):
            self.skip_ws()
            if not self.text.startswith(token, self.pos):
                return False
        self.pos += len(token)
        return True

    def expect(self, token: str):
        if not self.match(token):
            raise self.error(f"expected {token!r}")

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def integer(self) -> int:
        m = _INT.match(self.text, self.pos)
        if m is None:
            self.skip_ws()
            raise self.error("expected an integer")
        try:
            value = int(m[1])
        except ValueError:  # more digits than int() converts (int_max_str_digits)
            self.pos = m.start(1)
            raise self.error(f"integer literal of {len(m[1])} digits is too long") from None
        self.pos = m.end()
        return value

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and (
            self.text[self.pos].isalpha() or self.text[self.pos] == "_"
        ):
            self.pos += 1
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
        if self.pos == start:
            raise self.error("expected an identifier")
        return self.text[start : self.pos]


def parse_field(text: str) -> FieldTower:
    s = _Scanner(text)
    s.skip_ws()
    ch = s.peek()
    degree = 1
    if ch == "Q":
        s.pos += 1
        kind, p = "Q", None
    elif ch == "R":
        s.pos += 1
        kind, p = "R", None
    elif ch == "F":
        s.pos += 1
        start = s.pos
        kind, q = "F", s.integer()
        r = math.isqrt(q)
        p, degree = (r, 2) if r * r == q else (q, 1)
        if p == 2 or not is_prime(p):
            raise ParseError(
                f"F{q}: the size must be an odd prime p or its square p^2", text, start
            )
    else:
        raise s.error("expected a base field: Q, R or F<q>, q = p or p^2, p an odd prime")
    names = []
    while s.match("(("):
        names.append(s.ident())
        s.expect("))")
    if not s.at_end():
        raise s.error("trailing characters after field descriptor")
    try:
        return FieldTower(kind, p, tuple(names), degree)
    except ValueError as exc:
        raise ParseError(str(exc), text, 0) from exc


# Exponent key of ``u`` over a degree-2 base: every prime-field constant
# is a square in F_{p^2}, so the nonresidue is a class symbol there, not a
# coefficient.
_NONRESIDUE = None


def _parse_factor(s: _Scanner, tower: FieldTower, coeff, exps):
    s.skip_ws()
    if s.peek().isdecimal():
        num = s.integer()
        if s.match("/"):
            den = s.integer()
            if den == 0:
                raise s.error("division by zero")
            coeff = coeff * Fraction(num, den)
        else:
            coeff = coeff * num
        return coeff
    name = s.ident()
    e = 1
    if s.match("^"):
        sign = -1 if s.match("-") else 1
        e = sign * s.integer()
    if name in tower.laurent_vars:
        exps[name] = exps.get(name, 0) + e
        return coeff
    if name == "u" and tower.kind == "F" and tower.degree == 1:
        return coeff * pow(tower.nonresidue, e, tower.p)
    if name == "u" and tower.kind == "F":
        exps[_NONRESIDUE] = exps.get(_NONRESIDUE, 0) + e
        return coeff
    raise s.error(f"unknown identifier {name!r} over {tower}")


def _parse_monomial(s: _Scanner, tower: FieldTower):
    coeff = 1
    s.skip_ws()
    if s.peek() in ("+", "-"):  # one sign at most: a second fails as a factor
        coeff = -1 if s.peek() == "-" else 1
        s.pos += 1
    exps: dict[str, int] = {}
    coeff = _parse_factor(s, tower, coeff, exps)
    while s.match("*"):
        coeff = _parse_factor(s, tower, coeff, exps)
    return coeff, exps


def _monomial_class(tower: FieldTower, coeff, exps, bound=None) -> SquareClass:
    odd_u = exps.pop(_NONRESIDUE, 0) % 2
    mask = sum((e & 1) << tower.laurent_vars.index(v) for v, e in exps.items())
    c = SquareClass(tower, _base_class_of_constant(tower, coeff, bound), mask)
    return sq_mul(c, nonresidue_class(tower)) if odd_u else c


def parse_class(text: str, tower: FieldTower) -> SquareClass:
    s = _Scanner(text)
    coeff, exps = _parse_monomial(s, tower)
    if not s.at_end():
        raise s.error("trailing characters after monomial")
    return _monomial_class(tower, coeff, exps)


def _parse_slot_list(s: _Scanner, tower: FieldTower, stop: Optional[str] = None):
    """Nonzero monomials separated by commas, up to the ``stop`` token (an
    empty list allowed) or, when ``stop`` is None, to the end of the text."""
    slots, bound = [], None
    if stop is not None and s.match(stop):
        return ()
    while True:
        coeff, exps = _parse_monomial(s, tower)
        if coeff == 0:
            raise ZeroSlot("slot must be nonzero")
        if bound is None and tower.kind == "Q":
            bound = factor_bound()  # once per literal, where its first entry reads it
        slots.append(_monomial_class(tower, coeff, exps, bound))
        if (s.at_end() if stop is None else s.match(stop)):
            return tuple(slots)
        s.expect(",")


def parse_slots(text: str, tower: FieldTower) -> tuple[SquareClass, ...]:
    return _parse_slot_list(_Scanner(text), tower)


def parse_pfister(text: str, tower: FieldTower) -> tuple[SquareClass, ...]:
    """The slots of a Pfister literal ``<<a_1,...,a_n>>``."""
    s = _Scanner(text)
    s.expect("<<")
    slots = _parse_slot_list(s, tower, ">>")
    if not s.at_end():
        raise s.error("trailing characters after Pfister literal")
    return slots


def parse_form(text: str, tower: FieldTower) -> DiagonalForm:
    s = _Scanner(text)
    if s.match("<<"):
        return pfister(tower, parse_pfister(text, tower))
    s.expect("[")
    entries, bound = [], None
    while True:
        coeff, exps = _parse_monomial(s, tower)
        if bound is None and coeff and tower.kind == "Q":
            bound = factor_bound()  # once per literal, where its first entry reads it
        entries.append(_monomial_class(tower, coeff, exps, bound))
        if s.match("]"):
            break
        s.expect(",")
    if not s.at_end():
        raise s.error("trailing characters after form literal")
    return DiagonalForm(tower, tuple(entries))


def _parse_term(s: _Scanner, tower: FieldTower) -> LaurentPoly:
    coeff, exps = _parse_monomial(s, tower)
    if _NONRESIDUE in exps:
        raise s.error(f"u is a square class over {tower}, not an element")
    return LaurentPoly.monomial(tower, coeff, exps) if coeff else LaurentPoly.zero(tower)


def parse_poly(text_or_scanner, tower: FieldTower) -> LaurentPoly:
    s = (
        text_or_scanner
        if isinstance(text_or_scanner, _Scanner)
        else _Scanner(text_or_scanner)
    )
    out = _parse_term(s, tower)
    s.skip_ws()
    while s.peek() in ("+", "-"):
        out = out + _parse_term(s, tower)
        s.skip_ws()
    if not isinstance(text_or_scanner, _Scanner) and not s.at_end():
        raise s.error("trailing characters after polynomial")
    return out


def parse_element_coords(text: str, tower: FieldTower) -> tuple[LaurentPoly, ...]:
    s = _Scanner(text)
    s.expect("(")
    coords = []
    while True:
        coords.append(parse_poly(s, tower))
        if s.match(")"):
            break
        s.expect(",")
    if not s.at_end():
        raise s.error("trailing characters after element literal")
    return tuple(coords)


def parse_rational_pair(text: str) -> tuple:
    """The two rationals of ``monomial "," monomial`` over Q."""
    s = _Scanner(text)
    rationals = FieldTower.rationals()
    a, _ = _parse_monomial(s, rationals)
    s.expect(",")
    b, _ = _parse_monomial(s, rationals)
    if not s.at_end():
        raise s.error("trailing characters after rational pair")
    return a, b
