import json
import os
import random
import string
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wittforge
from wittforge import dsl
from wittforge.cli import build_parser, run_command
from wittforge.errors import ParseError, WittforgeError, ZeroSlot
from wittforge.fields import (
    FieldTower,
    enumerate_square_classes,
    extend_quadratic,
    nonresidue_class,
    sq_mul,
    var_class,
)
from wittforge.laurent import LaurentPoly
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
        f25t = extend_quadratic(F5T, nonresidue_class(F5T)).tower
        towers = (
            FieldTower.rationals(),
            FieldTower.reals("t"),
            F5T,
            F13ST,
            f25t,
            FieldTower("F", 3, (), 2),
            FieldTower("F", 13, ("s", "t"), 2),
            extend_quadratic(F5T, var_class(F5T, "t")).tower,
            extend_quadratic(f25t, var_class(f25t, "t")).tower,
            extend_quadratic(
                F13ST, sq_mul(nonresidue_class(F13ST), var_class(F13ST, "t"))
            ).tower,
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

    def test_factor_bound_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WITTFORGE_FACTOR_BOUND", "10")
        code, _, err = self.run(
            capsys, "qf-isotropy", "--field", "Q", "--form", "[10403]"
        )
        assert code == 1 and "FactorBoundExceeded" in err

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
