import json
import math
import os
import random
import shlex
import string
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wittforge
from wittforge import cli, dsl, fields
from wittforge.cli import build_parser, run_command
from wittforge.algebras import AlgebraElement
from wittforge.errors import FactorBoundExceeded, ParseError, WittforgeError, ZeroSlot
from wittforge.fields import (
    FieldTower,
    canonical_square_class,
    enumerate_square_classes,
    nonresidue_class,
    sq_mul,
    var_class,
)
from wittforge.laurent import EXP_LIMIT, LaurentPoly
from wittforge.qform import pfister

F5T = FieldTower.prime(5, "t")
F13ST = FieldTower.prime(13, "s", "t")


class TestParsers:
    def test_field_descriptors(self):
        for text in ("Q", "R", "F5", "F13((s))((t))", "Q((x))", "R((t))((s))"):
            tower = dsl.parse_field(text)
            assert str(tower) == text

    def test_field_errors(self):
        for bad in ("", "Z", "F4", "F13((s)", "F13((s))x", "F((s))", "Q(("):
            with pytest.raises(ParseError):
                dsl.parse_field(bad)
        for bad in ("F0", "F1", "F2", "F4", "F8", "F15", "F27", "F125"):
            with pytest.raises(ParseError, match=r"odd prime p or its square p\^2"):
                dsl.parse_field(bad)

    def test_tower_str_roundtrip(self):
        towers = (
            FieldTower.rationals(),
            FieldTower.reals("t"),
            F5T,
            F13ST,
            FieldTower("F", 5, ("t",), 2),
            FieldTower("F", 3, (), 2),
            FieldTower("F", 13, ("s", "t"), 2),
            FieldTower.prime(5, "r"),
            FieldTower("F", 5, ("r",), 2),
            FieldTower.prime(13, "s", "r"),
        )
        for tower in towers:
            assert dsl.parse_field(str(tower)) == tower

    def test_nonresidue_over_degree_two_base(self):
        f25t = FieldTower("F", 5, ("t",), 2)
        assert dsl.parse_form("[1,u,u*t]", f25t).entries == (
            enumerate_square_classes(f25t)[0],
            nonresidue_class(f25t),
            sq_mul(nonresidue_class(f25t), var_class(f25t, "t")),
        )
        with pytest.raises(ParseError):
            dsl.parse_poly("1+u", f25t)

    def test_class_roundtrip(self):
        for tower in (F5T, F13ST, FieldTower("F", 5, ("t",), 2)):
            for c in enumerate_square_classes(tower):
                assert dsl.parse_class(str(c), tower) == c

    def test_monomials(self):
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        assert dsl.parse_class("4*t^3", F5T) == t
        assert dsl.parse_class("-1", F5T).is_one  # -1 is a square mod 5
        assert dsl.parse_class("u*t", F5T) == sq_mul(u, t)
        assert dsl.parse_class("1/2", F5T) == dsl.parse_class("3", F5T)  # 1/2 = 3 mod 5

    def test_form_literals(self):
        f = dsl.parse_form("[1,-u,-t,u*t]", F5T)
        assert f.dim == 4
        g = dsl.parse_form("<<u,t>>", F5T)
        assert g == pfister(F5T, (nonresidue_class(F5T), var_class(F5T, "t")))
        assert dsl.parse_form("<<>>", F5T).entries == (dsl.parse_class("1", F5T),)

    def test_pfister_literal_is_its_slots(self):
        u, t = nonresidue_class(F5T), var_class(F5T, "t")
        assert dsl.parse_pfister(" << u , t >> ", F5T) == (u, t)
        assert dsl.parse_pfister("<<>>", F5T) == ()
        for bad in ("[1,u]", "<<u", "<<u,t>>x", "u,t"):
            with pytest.raises(ParseError):
                dsl.parse_pfister(bad, F5T)
        with pytest.raises(ParseError) as info:
            dsl.parse_pfister("[1,u]", F5T)
        assert info.value.pos == 0

    @pytest.mark.parametrize(
        "tower", [FieldTower.prime(7), FieldTower.prime(13), F13ST], ids=str
    )
    def test_nonresidue_powers_reduce_mod_p(self, tower):
        # the value of u^e computed exactly, as a rational number, then reduced
        for e in range(-20, 21):
            for coeff in (1, 3):
                exact = coeff * Fraction(tower.nonresidue) ** e
                text = f"{coeff}*u^{e}"
                assert dsl.parse_class(text, tower) == canonical_square_class(tower, exact)
                assert dsl.parse_poly(text, tower) == LaurentPoly.const(tower, exact)

    def test_huge_nonresidue_power_parses_at_once(self):
        t0 = time.perf_counter()
        for tower in (FieldTower.prime(13), F13ST):
            assert dsl.parse_class("u^1000000000000", tower).is_one
            assert dsl.parse_class("u^-1000000000001", tower) == nonresidue_class(tower)
            assert dsl.parse_form("[u^1000000000000]", tower).entries[0].is_one
        assert time.perf_counter() - t0 < 5

    def test_form_errors(self):
        for bad in ("[1", "[1,]", "<<u", "[]", "[1]x", "<<u,>>"):
            with pytest.raises(ParseError):
                dsl.parse_form(bad, F5T)
        with pytest.raises(ZeroSlot):
            dsl.parse_form("<<0>>", F5T)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError):
            dsl.parse_class("w", F5T)
        with pytest.raises(ParseError):
            dsl.parse_class("u", FieldTower.rationals())

    def test_element_coords(self):
        coords = dsl.parse_element_coords("(1, 0, t, 2+t^2)", F5T)
        assert len(coords) == 4
        assert str(coords[3]) == "2+t^2"
        assert coords[2] == LaurentPoly.variable(F5T, "t")
        with pytest.raises(ParseError):
            dsl.parse_element_coords("(1, 2", F5T)

    def test_poly_string_roundtrip(self):
        for text in ("2+t^2", "1-t", "t^-1", "3*t", "1+s*t"):
            p = dsl.parse_poly(text, F13ST)
            assert dsl.parse_poly(str(p), F13ST) == p

    def test_factor_bound_read_once_per_literal(self, monkeypatch):
        # 10403 = 101 * 103 needs trial division past 100
        Q, reads = FieldTower.rationals(), []
        bound = fields.factor_bound
        monkeypatch.setattr(dsl, "factor_bound", lambda: reads.append(1) or bound())
        assert str(dsl.parse_form("[10403, 6, -35, 2*9, 7]", Q)) == "[10403,6,-35,2,7]"
        assert [str(a) for a in dsl.parse_slots("10403, 6, -35", Q)] == ["10403", "6", "-35"]
        assert len(reads) == 2
        dsl.parse_form("[1, u, u*t]", F5T)  # no factoring over F_p
        assert len(reads) == 2
        monkeypatch.setenv("WITTFORGE_FACTOR_BOUND", "100")  # the next literal reads the change
        with pytest.raises(FactorBoundExceeded):
            dsl.parse_form("[6, 10403]", Q)

    @given(st.text(alphabet=string.printable, max_size=25))
    @settings(max_examples=300, deadline=None)
    def test_parser_totality(self, text):
        for fn in (
            lambda: dsl.parse_field(text),
            lambda: dsl.parse_form(text, F5T),
            lambda: dsl.parse_class(text, F5T),
        ):
            try:
                fn()
            except WittforgeError:
                pass  # ParseError or a domain error, never a crash


def reference_skip_ws(text, pos):
    """The scanner's former whitespace loop, one character per step."""
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


class reference_scanner:
    """The former ``dsl._Scanner``: whitespace skipped before every token,
    integers read one ``isdigit`` character at a time."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        return ParseError(message, self.text, self.pos)

    def skip_ws(self):
        self.pos = reference_skip_ws(self.text, self.pos)

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def match(self, token):
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token):
        if not self.match(token):
            raise self.error(f"expected {token!r}")

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start : self.pos])

    def ident(self):
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


SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
# digits that str.isdigit accepts and int() rejects: superscripts and the like
NON_DECIMAL_DIGITS = [
    c for c in map(chr, range(sys.maxunicode + 1)) if c.isdigit() and not c.isdecimal()
]

# pieces of the literal syntax: fields, forms, Pfister forms, slots and elements
_VALID_LITERALS = [
    "Q", "R", "F13", "F25", "F13((s))((t))", "F5((t))", "Q((t))",
    "[1,-t]", "[2*s,-3/4*t^-2,u]", "[-1,+2,-3]", "<<u,s,t>>", "<<>>", "<<-1,s^3>>",
    "u,s,t", "1,s*t", "-u*s^-1", "3/5", "(1,0,s+t,-1)", "(s^2-3*t,1/2,u)",
    "[12,٣,7*t]", "(1)",
]
_PIECES = ["[", "]", "<<", ">>", "(", ")", "((", "))", ",", "*", "/", "^", "-", "+",
           "0", "1", "17", "u", "s", "t", "x", "Q", "F", "٣", "_", "\u200b"]


def _seeded_literals(rng, count):
    """Valid literals with whitespace between (and inside) their tokens,
    truncated, or followed by garbage."""
    out = []
    for _ in range(count):
        text = rng.choice(_VALID_LITERALS)
        chars = []
        for ch in text:
            if rng.random() < 0.3:
                chars.append("".join(rng.choice(SPACES) for _ in range(rng.randint(1, 3))))
            chars.append(ch)
        text = "".join(chars)
        roll = rng.random()
        if roll < 0.25:
            text = text[: rng.randint(0, len(text))]
        elif roll < 0.5:
            text += "".join(rng.choice(_PIECES + [rng.choice(SPACES)]) for _ in range(rng.randint(1, 4)))
        elif roll < 0.6:
            text = "".join(rng.choice(_PIECES + [rng.choice(SPACES)]) for _ in range(rng.randint(1, 10)))
        if rng.random() < 0.3:
            text += rng.choice(SPACES)
        out.append(text)
    return out


def _parse_outcomes(text):
    """What each parser makes of the text: its value, or the error with
    its position."""
    parsers = (
        dsl.parse_field,
        lambda t: dsl.parse_form(t, F13ST),
        lambda t: dsl.parse_form(t, FieldTower.rationals()),
        lambda t: dsl.parse_class(t, F13ST),
        lambda t: dsl.parse_slots(t, F13ST),
        lambda t: dsl.parse_element_coords(t, F13ST),
        lambda t: dsl.parse_poly(t, F13ST),
    )
    out = []
    for fn in parsers:
        try:
            out.append(("ok", fn(text)))
        except ParseError as e:
            out.append(("ParseError", e.pos, str(e)))
        except WittforgeError as e:
            out.append((type(e).__name__, str(e)))
    return out


class TestScanner:
    SPACES = SPACES

    def test_skip_ws_accepts_what_isspace_accepts(self):
        # every whitespace code point, each run ended by a non-space one
        text = "".join(c + self.SPACES[:i] + "x\u200b" for i, c in enumerate(self.SPACES))
        scanner = dsl._Scanner(text)
        for pos in range(len(text) + 1):
            scanner.pos = pos
            scanner.skip_ws()
            assert scanner.pos == reference_skip_ws(text, pos), pos

    def test_error_positions_unchanged(self, monkeypatch):
        bad = [
            " [1,\u00a0t^\u2003]",
            "<<u,\u3000 ,s>>",
            "[1,\x1c\x1d 2,",
            "\u2028F13((s))\u0085((",
            "(1,\t2\u200b)",
            "[\v3/\f0]",
        ]

        def positions():
            out = []
            for text in bad:
                for fn in (dsl.parse_field, lambda t: dsl.parse_form(t, F13ST),
                           lambda t: dsl.parse_element_coords(t, F13ST)):
                    try:
                        fn(text)
                        out.append(None)
                    except ParseError as e:
                        out.append(e.pos)
                    except WittforgeError as e:
                        out.append(type(e).__name__)
            return out

        fast = positions()
        assert any(isinstance(p, int) and p > 0 for p in fast)

        def slow_skip_ws(scanner):
            scanner.pos = reference_skip_ws(scanner.text, scanner.pos)

        monkeypatch.setattr(dsl._Scanner, "skip_ws", slow_skip_ws)
        assert positions() == fast

    def test_scanner_matches_reference_scanner(self, monkeypatch):
        texts = _seeded_literals(random.Random(18), 1500)
        assert not any(c in NON_DECIMAL_DIGITS for text in texts for c in text)
        fast = [_parse_outcomes(text) for text in texts]
        outcomes = [o for per_text in fast for o in per_text]
        assert {"ok", "ParseError"} <= {o[0] for o in outcomes}
        assert any(o[0] == "ParseError" and o[1] > 0 for o in outcomes)
        monkeypatch.setattr(dsl, "_Scanner", reference_scanner)
        for text, expected in zip(texts, fast):
            assert _parse_outcomes(text) == expected, text

    def test_non_decimal_digits_are_parse_errors(self):
        # int() rejects these although str.isdigit accepts them
        assert len(NON_DECIMAL_DIGITS) > 100 and "\u00b2" in NON_DECIMAL_DIGITS
        for c in NON_DECIMAL_DIGITS:
            for fn in (
                lambda: dsl.parse_form(f"[2{c}]", F13ST),
                lambda: dsl.parse_form(f"[{c}]", F13ST),
                lambda: dsl.parse_form(f"[1,3/{c}]", FieldTower.rationals()),
                lambda: dsl.parse_class(f"s^{c}", F13ST),
                lambda: dsl.parse_class(f"{c}*s", F13ST),
                lambda: dsl.parse_field(f"F1{c}"),
                lambda: dsl.parse_field(f"F{c}"),
                lambda: dsl.parse_field(f"F13{c}((t))"),
            ):
                with pytest.raises(ParseError):
                    fn()

    def test_composite_sizes_rejected_after_primes_proven(self):
        # primality answers are kept per process; 561 is a Carmichael number
        assert dsl.parse_field("F563").p == 563
        for _ in range(2):
            with pytest.raises(ParseError):
                dsl.parse_field("F561")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() converts strings of any length here",
    )
    def test_integers_longer_than_int_converts_are_parse_errors(self):
        long = "1" * (sys.get_int_max_str_digits() + 1)
        cases = [
            (lambda: dsl.parse_form(f"[{long}]", F13ST), 1),
            (lambda: dsl.parse_form(f"[1, 3/{long}]", FieldTower.rationals()), 6),
            (lambda: dsl.parse_class(f"s^-{long}", F13ST), 3),
            (lambda: dsl.parse_field(f"F{long}((t))"), 1),
        ]
        for fn, pos in cases:
            with pytest.raises(ParseError, match="too long") as info:
                fn()
            assert info.value.pos == pos

    def test_decimal_digits_of_any_script_parse(self):
        # Arabic-Indic three is a decimal digit: int() reads it as 3
        Q = FieldTower.rationals()
        assert dsl.parse_form("[\u0663]", Q) == dsl.parse_form("[3]", Q)
        assert dsl.parse_field("F1\u0663") == FieldTower.prime(13)


def readme_commands():
    """The argv of every ``wittforge ...`` line in the README."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    return [
        shlex.split(line)[1:]
        for line in readme.read_text(encoding="utf-8").splitlines()
        if line.startswith("wittforge ")
    ]


DISPATCH_CASES = [
    [],
    ["-h"],
    ["--help"],
    ["--he"],
    ["qf-isotropy", "-h"],
    ["qf-isotropy", "--field", "Q", "--form", "[1,-1]", "--help"],
    ["qf-isotropy", "--fie", "Q", "--fo", "[1,-1]"],
    ["qf-witt", "--field=Q", "--form=[1,2,3]"],
    ["qf-isotropy", "--field", "Q", "--form", "[1,1]", "--json", "--json"],
    ["qf-isotropy", "--field", "Q", "--form", "[1,-1]", "--", "x"],
    ["qf-isotropy", "--", "--field", "Q", "--form", "[1]"],
    ["qf-isotropy", "--field", "Q", "--form", "[1]", "extra", "more"],
    ["qf-isotropy", "--field", "Q", "--form", "[1]", "--bogus", "--x=1"],
    ["qf-witt", "--field", "F5"],
    ["qf-witt", "--form", "[1]"],
    ["no-such-command", "--field", "Q"],
    ["qf"],
    ["--json", "qf-isotropy", "--field", "Q", "--form", "[1]"],
    ["qf-isotropy", "--field", "Q", "--field", "R", "--form", "[1,1]"],
    ["qf-isotropy", "--field", "Q", "--form", "-x"],
    ["qf-isotropy", "--field", "Q", "--form", "[1", "--json"],
    ["qf-isotropy", "--oracle", "--field", "Q", "--form", "[1,1,1,1,-3]", "--json"],
    ["alg-build", "--field", "F5", "--slots", "u", "--mul", "(1,0)"],
    ["alg-genus", "--q1=1,-1", "--q2", "-1,-1"],
    ["qf-pfister-split", "--field", "F5((t))", "--form", "<<u,t>>", "--delta", "1"],
]


class TestCli:
    def run(self, capsys, *argv):
        code = run_command(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_qf_isotropy_examples(self, capsys):
        code, out, _ = self.run(
            capsys, "qf-isotropy", "--field", "F5((t))", "--form", "<<u,t>>"
        )
        assert code == 0 and out.strip() == "anisotropic"
        code, out, _ = self.run(
            capsys, "qf-isotropy", "--field", "Q", "--form", "[1,-1]", "--oracle"
        )
        assert code == 0
        assert out.splitlines() == ["isotropic", "oracle: witness (1, 1) (agreement)"]

    def test_oracle_witness_off_the_first_four_coordinates(self, capsys):
        # 1 + 1 + 1 - 3 = 0 needs the last coordinate: every 4-subset is tried
        code, out, _ = self.run(
            capsys, "qf-isotropy", "--field", "Q", "--form", "[1,1,1,1,-3]", "--oracle"
        )
        assert code == 0
        assert out.splitlines() == ["isotropic", "oracle: witness (1, 1, 1, 0, 1) (agreement)"]

    def test_oracle_inconclusive_when_nothing_was_checked(self, capsys):
        # the witness (2,1,1,1,0,1) uses five coordinates, past the search
        argv = ["qf-isotropy", "--field", "Q", "--form", "[1,1,1,1,1,-7]", "--oracle"]
        code, out, _ = self.run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[1] == (
            "oracle: no witness found (bound exhausted) (inconclusive)"
        )
        code, out, _ = self.run(capsys, *argv, "--json")
        assert json.loads(out)["oracle"]["agrees"] is None
        code, out, _ = self.run(
            capsys, "qf-isotropy", "--field", "R((t))", "--form", "[1,-t]",
            "--oracle", "--json",
        )
        assert json.loads(out)["oracle"] == {
            "agrees": None, "detail": "no oracle for this field"
        }
        code, out, _ = self.run(
            capsys, "alg-split", "--field", "Q", "--slots", "1,3", "--oracle"
        )
        assert out.splitlines()[-1] == "oracle: no oracle for this field (inconclusive)"
        code, out, _ = self.run(
            capsys, "qf-witt", "--field", "Q", "--form", "[1,1,-7,-7]", "--oracle"
        )
        assert out.splitlines()[-1] == (
            "oracle: no kernel to check over this field (inconclusive)"
        )
        code, out, _ = self.run(
            capsys, "alg-split", "--field", "F5((t))", "--slots", "u,t",
            "--oracle", "--json",
        )
        assert json.loads(out)["oracle"] == {"agrees": True}

    def test_parse_error_exit_2_with_caret(self, capsys):
        code, _, err = self.run(
            capsys, "qf-isotropy", "--field", "Q((x))", "--form", "[1"
        )
        assert code == 2
        assert "^" in err and "parse error" in err

    def test_domain_error_exit_1_named(self, capsys):
        code, _, err = self.run(
            capsys, "qf-pfister-split", "--field", "F5((t))",
            "--form", "<<u,t>>", "--delta", "1",
        )
        assert code == 1 and "DeltaIsSquare" in err

    def test_bad_usage_exit_2(self, capsys):
        assert self.run(capsys, "qf-isotropy")[0] == 2
        assert self.run(capsys, "no-such-command")[0] == 2

    def test_one_parser_serves_every_command(self, capsys):
        # the parser is built once per process: a usage error in between
        # must leave nothing behind for the next command
        parser = build_parser()
        code, out, _ = self.run(
            capsys, "qf-isotropy", "--field", "F5((t))", "--form", "<<u,t>>"
        )
        assert (code, out) == (0, "anisotropic\n")
        code, out, err = self.run(capsys, "qf-witt", "--field", "F5")
        assert code == 2 and out == "" and "--form" in err
        code, out, _ = self.run(
            capsys, "qf-witt", "--field", "R((t))", "--form", "[1,1,-t]", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "qf-witt" and "oracle" not in payload
        assert (payload["witt_index"], payload["kernel"]) == (0, ["1", "1", "-t"])
        assert build_parser() is parser

    def test_dispatch_matches_nested_parse(self, capsys, monkeypatch):
        # argparse wraps usage text to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        cases = DISPATCH_CASES + [
            argv + extra for argv in readme_commands() for extra in ([], ["--json"])
        ]
        assert len(readme_commands()) >= 10

        def outcomes():
            return [self.run(capsys, *argv) for argv in cases]

        fast = outcomes()
        assert {code for code, _, _ in fast} == {0, 1, 2}
        # the former dispatch: the top parser runs the subcommand's parser
        monkeypatch.setattr(cli, "_parse_args", lambda argv: build_parser().parse_args(argv))
        for argv, a, b in zip(cases, fast, outcomes()):
            assert a == b, argv

    def test_readme_names_every_subcommand(self):
        assert {argv[0] for argv in readme_commands()} == set(cli._parsers()[1])

    def test_unicode_digits_exit_2(self, capsys):
        for argv in (
            ["qf-isotropy", "--field", "Q", "--form", "[2\u00b2]"],
            ["qf-isotropy", "--field", "F1\u00b3", "--form", "[1]"],
        ):
            code, out, err = self.run(capsys, *argv)
            assert (code, out) == (2, "") and err.startswith("parse error:"), argv

    def test_huge_prime_field_answers_quickly(self):
        # 2^61 - 1: trial division up to its square root would not finish
        src = Path(wittforge.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [
                sys.executable, "-m", "wittforge.cli", "qf-isotropy",
                "--field", "F2305843009213693951", "--form", "[1,1]",
            ],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "anisotropic\n", "")

    def test_closed_stdout_exits_1_without_traceback(self):
        # standard output is a pipe whose read end is closed before the
        # command writes, as when ``| head -1`` has already exited
        src = Path(wittforge.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [
                    sys.executable, "-m", "wittforge.cli", "g2-types",
                    "--slots", "u,s,t", "--field", "F13((s))((t))",
                ],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr, proc.stderr

    def test_oracle_budget_is_inconclusive(self, capsys):
        # the series search would look at more than SEARCH_BUDGET candidates
        argv = ["qf-isotropy", "--field", "F31((t))", "--form", "[1,1,1,t]", "--oracle"]
        code, out, _ = self.run(capsys, *argv)
        assert (code, out) == (
            0, "isotropic\noracle: search budget exceeded (inconclusive)\n"
        )
        code, out, _ = self.run(capsys, *argv, "--json")
        assert json.loads(out)["oracle"] == {
            "agrees": None, "detail": "search budget exceeded"
        }
        code, out, _ = self.run(
            capsys, "alg-split", "--field", "F1000003", "--slots", "u,u", "--oracle"
        )
        assert code == 0
        assert out.splitlines()[-1] == "oracle: search budget exceeded (inconclusive)"

    def test_rational_oracle_past_its_budget_still_checks_local_obstructions(self, capsys):
        # [1..17] has C(17,3) + C(17,4) subsets, each swept at bound 30,
        # past the budget; the form is positive definite, so oo obstructs
        form = "[" + ",".join(str(n) for n in range(1, 18)) + "]"
        argv = ["qf-isotropy", "--field", "Q", "--form", form, "--oracle"]
        code, out, _ = self.run(capsys, *argv)
        assert (code, out) == (
            0, "anisotropic\noracle: local obstruction at oo (agreement)\n"
        )
        code, out, _ = self.run(capsys, *argv, "--json")
        assert json.loads(out)["oracle"] == {
            "agrees": True, "detail": "local obstruction at oo"
        }
        # an isotropic form the full search would take about 2.5e6 candidates on
        code, out, _ = self.run(
            capsys, "qf-isotropy", "--field", "Q", "--form", "[1,1,1,1,-7,-7,-7,-7]",
            "--oracle",
        )
        assert (code, out) == (
            0, "isotropic\noracle: search budget exceeded (inconclusive)\n"
        )

    def test_oracle_budget_checked_before_enumerating(self):
        # 2^61 - 1 candidates per coordinate: no grid may be built
        src = Path(wittforge.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [
                sys.executable, "-m", "wittforge.cli", "qf-isotropy",
                "--field", "F2305843009213693951", "--form", "[1,1]", "--oracle",
            ],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            0, "anisotropic\noracle: search budget exceeded (inconclusive)\n", ""
        )

    def test_oracle_grid_is_not_kept_in_memory(self):
        # p^d = 37^4 candidate layers are walked, not stored: the peak RSS
        # of the command, read in a parent process that runs only it
        src = Path(wittforge.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        measure = (
            "import json, resource, subprocess, sys\n"
            "proc = subprocess.run([sys.executable, '-m', 'wittforge.cli', 'qf-isotropy',"
            " '--field', 'F37((t))', '--form', '[1,1,1,t]', '--oracle'],"
            " capture_output=True, text=True)\n"
            "peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
            "print(json.dumps([proc.returncode, proc.stdout, peak_kib]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", measure],
            capture_output=True, text=True, env=env, timeout=60,
        )
        code, out, peak_kib = json.loads(proc.stdout)
        assert code == 0 and "inconclusive" in out
        assert peak_kib < 64 * 1024, f"peak RSS {peak_kib / 1024:.0f} MiB"

    def test_field_past_the_primality_bound_named_error(self, capsys):
        code, _, err = self.run(
            capsys, "qf-isotropy", "--field", f"F{2**89 - 1}", "--form", "[1,1]"
        )
        assert code == 1 and err.startswith("error: PrimalityBoundExceeded:")

    def test_cubic_obstruction_json(self, capsys):
        code, out, _ = self.run(
            capsys, "g2-cubic-obstruction", "--field", "F13((s))((t))",
            "--octonion", "u,s,t", "--d", "u", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "inadmissible"
        assert len(payload["evidence"]) == 64

    def test_json_reports_reparse(self, capsys):
        from wittforge.tori import CubicObstructionReport, TypeReport, ComparisonReport

        _, out, _ = self.run(
            capsys, "g2-cubic-obstruction", "--field", "F13((s))((t))",
            "--octonion", "u,s,t", "--d", "t", "--json",
        )
        assert CubicObstructionReport.from_json(out).to_json() == out.strip()
        _, out, _ = self.run(
            capsys, "g2-types", "--field", "F13((s))((t))", "--slots", "u,s,t", "--json"
        )
        assert TypeReport.from_json(out).to_json() == out.strip()
        _, out, _ = self.run(
            capsys, "g2-compare", "--field", "F13((s))((t))",
            "--slots1", "u,s,t", "--slots2", "1,s,t", "--json",
        )
        assert ComparisonReport.from_json(out).to_json() == out.strip()

    def test_deterministic_output(self, capsys):
        argv = [
            "g2-types", "--field", "F5((t))", "--slots", "u,t,u*t", "--json",
        ]
        _, first, _ = self.run(capsys, *argv)
        _, second, _ = self.run(capsys, *argv)
        assert first == second

    def test_alg_commands(self, capsys):
        code, out, _ = self.run(
            capsys, "alg-build", "--field", "F13((s))((t))", "--slots", "u,s",
            "--mul", "(0,1,0,0)", "(0,0,1,0)",
        )
        assert code == 0 and "product (0, 0, 0, 1)" in out
        code, out, _ = self.run(
            capsys, "alg-split", "--field", "Q", "--slots", "1,3", "--oracle"
        )
        assert code == 0 and "split" in out and "zero divisor" in out
        code, out, _ = self.run(capsys, "alg-genus", "--q1=-1,-1", "--q2=-1,-2")
        assert code == 0 and "equal genus" in out
        code, out, _ = self.run(capsys, "alg-genus", "--q1=-1,-1", "--q2=-1,-3")
        assert code == 0 and "different genus" in out

    def test_qf_witt_over_q(self, capsys):
        code, out, _ = self.run(
            capsys, "qf-witt", "--field", "Q", "--form", "[1,1,-7,-7]", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["witt_index"] == 0 and payload["kernel_dim"] == 4
        assert payload["kernel_invariants"]["signature"] == [2, 2]
        assert "kernel_runs" not in payload

    def test_qf_witt_kernel_runs_over_q_laurent(self, capsys):
        def witt(form, *flags):
            code, out, _ = self.run(
                capsys, "qf-witt", "--field", "Q((t))", "--form", form, *flags
            )
            assert code == 0
            return out

        # <1> and <2> have equal Witt index and kernel dimension
        assert witt("[1]") != witt("[2]")
        assert witt("[2]").splitlines()[-1] == (
            "kernel invariants at 1: disc 2, hasse -1 at {}, signature (1, 0)"
        )
        runs = json.loads(witt("[1,2*t]", "--json"))["kernel_runs"]
        assert [(r["at"], r["dim"], r["disc"]) for r in runs] == [("1", 1, "1"), ("t", 1, "2")]
        assert "kernel invariants at t: disc 2" in witt("[1,2*t]")
        assert json.loads(witt("[1,-1]", "--json"))["kernel_runs"] == []

    def test_pfister_split_witness(self, capsys):
        code, out, _ = self.run(
            capsys, "qf-pfister-split", "--field", "F5((t))",
            "--form", "<<u,t>>", "--delta", "u*t", "--witness",
        )
        assert code == 0 and out.splitlines()[0] == "splits"
        assert out.splitlines()[1].startswith("witness <<u*t,")

    def test_pfister_split_takes_a_pfister_literal(self, capsys):
        # a diagonal form carries no slots: a caret parse error, not a domain error
        code, out, err = self.run(
            capsys, "qf-pfister-split", "--field", "F5", "--form", "[1,u]", "--delta", "u",
        )
        assert code == 2 and out == ""
        assert "expected '<<'" in err and "^" in err and "Traceback" not in err

    def test_alg_build_multiplies_once(self, capsys, monkeypatch):
        calls = []
        mul = AlgebraElement.__mul__

        def counting_mul(x, y):
            calls.append((x, y))
            return mul(x, y)

        monkeypatch.setattr(AlgebraElement, "__mul__", counting_mul)
        argv = [
            "alg-build", "--field", "F13((s))((t))", "--slots", "u,s",
            "--mul", "(0,1,0,0)", "(0,0,1,0)",
        ]
        for extra in ([], ["--json"]):
            calls.clear()
            code, _, _ = self.run(capsys, *argv, *extra)
            assert code == 0 and len(calls) == 1

    def test_pfister_split_witness_of_hyperbolic_one_fold_form(self, capsys):
        # <<1>> splits over F7(sqrt u), but no <<u>> presents it
        code, out, err = self.run(
            capsys, "qf-pfister-split", "--field", "F7",
            "--form", "<<1>>", "--delta", "u", "--witness",
        )
        assert code == 1 and out == ""
        assert "WitnessUnsupported" in err and "InternalInconsistency" not in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="int() converts strings of any length here",
    )
    @pytest.mark.parametrize("field, form", [("Q", "[{}]"), ("F{}", "[1]")])
    def test_long_literal_is_a_caret_parse_error(self, capsys, field, form):
        long = "1" * 5000
        code, out, err = self.run(
            capsys, "qf-isotropy", "--field", field.format(long), "--form", form.format(long)
        )
        assert code == 2 and out == ""
        assert err.startswith("parse error: integer literal of 5000 digits") and "^" in err

    def test_exponent_out_of_range_exits_1(self, capsys):
        big = f"t^{EXP_LIMIT}"
        code, out, err = self.run(
            capsys, "alg-build", "--field", "F13((t))", "--slots", "u,t",
            "--mul", f"({big},0,0,0)", "(t,0,0,0)",
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ExponentOutOfRange:") and "Traceback" not in err
        # one less is in range: the product has exponent EXP_LIMIT
        code, out, _ = self.run(
            capsys, "alg-build", "--field", "F13((t))", "--slots", "u,t",
            "--mul", f"(t^{EXP_LIMIT - 1},0,0,0)", "(t,0,0,0)",
        )
        assert code == 0 and f"product (t^{EXP_LIMIT}, 0, 0, 0)" in out

    def test_factor_bound_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WITTFORGE_FACTOR_BOUND", "10")
        code, _, err = self.run(
            capsys, "qf-isotropy", "--field", "Q", "--form", "[10403]"
        )
        assert code == 1 and "FactorBoundExceeded" in err

    @pytest.mark.parametrize("bound", ["abc", "-1"])
    def test_malformed_factor_bound(self, capsys, monkeypatch, bound):
        monkeypatch.setenv("WITTFORGE_FACTOR_BOUND", bound)
        code, _, err = self.run(capsys, "qf-isotropy", "--field", "Q", "--form", "[6,1]")
        assert code == 1 and "InvalidFactorBound" in err

    def test_alg_genus_respects_factor_bound(self, capsys):
        # a product of two 10-digit primes: unbounded trial division hangs
        t0 = time.perf_counter()
        code, _, err = self.run(
            capsys, "alg-genus", "--q1=99999999100000001881,-1", "--q2=-1,-1"
        )
        assert code == 1 and "FactorBoundExceeded" in err
        assert time.perf_counter() - t0 < 10

    def test_alg_genus_prime_past_bound(self, capsys):
        # 1000003 is prime: trial division up to its square root proves it
        code, out, _ = self.run(capsys, "alg-genus", "--q1=1000003,-1", "--q2=-1,-1")
        assert code == 0 and out.strip() == "different genus {2, 1000003} vs {2, oo}"

    @pytest.mark.parametrize(
        "q1", ["1e5000,1", "1e999999,1", "0.5,1", "1e-5,1", "1_000,1", "1/0,1", "1,2,3", "x,1"]
    )
    def test_alg_genus_rationals_are_monomials(self, capsys, q1):
        # Fraction() read 1e5000 (a traceback from str()) and 1e999999 (a
        # hang in trial division) past int()'s digit limit
        t0 = time.perf_counter()
        code, out, err = self.run(capsys, "alg-genus", f"--q1={q1}", "--q2=1,1")
        assert time.perf_counter() - t0 < 2
        assert code == 2 and out == ""
        assert err.startswith("parse error: ") and "^" in err

    def test_alg_genus_takes_products_and_fractions(self, capsys):
        code, out, _ = self.run(capsys, "alg-genus", "--q1=-2*3/4, 5", "--q2=-6,5", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["q1"] == ["-3/2", "5"] and payload["equal_genus"]

    @pytest.mark.parametrize(
        "argv, text, pos",
        [
            (["qf-isotropy", "--field", "Q", "--form", "[--1,+-+1]"], "[--1,+-+1]", 2),
            (["alg-genus", "--q1=--1,-1", "--q2=-1,-1"], "--1,-1", 1),
            (["alg-build", "--field", "F5((t))", "--slots", "t", "--mul", "(t+-1,0)", "(1,0)"], "(t+-1,0)", 3),
        ],
        ids=["form", "rationals", "element"],
    )
    def test_one_sign_per_monomial(self, capsys, argv, text, pos):
        # the caret points at the second sign of a run
        code, out, err = self.run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.splitlines()[1:] == ["  " + text, "  " + " " * pos + "^"]

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="str() converts integers of any length here",
    )
    @pytest.mark.parametrize(
        "argv, start",
        [
            (
                ["qf-isotropy", "--field", "Q", "--form", f"[{10**4000 + 1}*{10**4000 + 3}]"],
                "error: FactorBoundExceeded: cofactor <",
            ),
            (
                ["qf-isotropy", "--field", "F5", "--form", f"[{5 * 10**4000}*{5 * 10**4000}]"],
                "error: ZeroElement: <",
            ),
            (
                ["qf-isotropy", "--field", "F5", "--form", f"[{5 * 10**4000}*{5 * 10**4000}/7]"],
                "error: ZeroElement: <",
            ),
            (
                [
                    "alg-build", "--field", "F5((t))", "--slots", "t",
                    "--mul", f"(t^{'9' * 4300}*t^{'9' * 4300},0)", "(1,0)",
                ],
                "error: ExponentOutOfRange: exponent <",
            ),
        ],
        ids=["cofactor", "constant", "fraction", "exponent"],
    )
    def test_messages_name_long_integers_by_size(self, capsys, monkeypatch, argv, start):
        # literals within int()'s digit limit, multiplied past what str() converts
        monkeypatch.setenv("WITTFORGE_FACTOR_BOUND", "10")
        code, out, err = self.run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(start) and "-bit integer>" in err

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
        reason="str() converts integers of any length here",
    )
    @pytest.mark.parametrize("command", ["alg-build", "alg-genus", "qf-witt"])
    def test_output_names_long_integers_by_size(self, capsys, command):
        # each literal converts; the product it makes is past what str() converts
        if command == "alg-build":
            b = 3 * 10**4000 + 1
            argv = ["alg-build", "--field", "Q", "--slots", "2", "--mul", f"({b}*{b},0)", "(1,0)"]
            expected = "product (<26579-bit integer>, 0)"
        elif command == "alg-genus":
            a = 10**4000
            argv = ["alg-genus", f"--q1={a}*{a},1", "--q2=1,1", "--json"]
            expected = '"q1": ["<26576-bit integer>", "1"]'
        else:
            # the odd primes below 9,000 and those from 9,000 to 18,000: two
            # literals of some 3,900 digits, a squarefree class of 7,800
            odd = [p for p in range(3, 18000, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))]
            a, b = math.prod(p for p in odd if p < 9000), math.prod(p for p in odd if p > 9000)
            argv = ["qf-witt", "--field", "Q", "--form", f"[{a}*{b},1]"]
            expected = f"disc <{(a * b).bit_length()}-bit integer>"
        code, out, err = self.run(capsys, *argv)
        assert (code, err) == (0, "") and expected in out

    def test_huge_literal_named_error(self, capsys):
        huge = str(3 * 10**400 + 1)
        code, _, err = self.run(
            capsys, "qf-isotropy", "--field", "Q", "--form", f"[{huge},1]"
        )
        assert code == 1 and err.startswith("error: FactorBoundExceeded:")

    def test_fuzzed_cli_never_crashes(self, capsys):
        rng = random.Random(99)
        alphabet = "[]<>(),*^-+ uFQRst0123456789"
        for _ in range(120):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 15)))
            code = run_command(
                ["qf-isotropy", "--field", "F5((t))", "--form", text]
            )
            assert code in (0, 1, 2)
            capsys.readouterr()
