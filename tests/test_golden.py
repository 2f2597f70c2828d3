"""Byte-for-byte pins of report JSON, Witt kernels and CLI text, and
digests of the whole cubic-obstruction sweep and of seeded algebra
products.

``tests/golden_outputs.json`` holds the outputs below as the library
produced them; any change to square-class representation, ordering,
form construction, the Witt decomposition or the zero-divisor search
must leave them identical.  Regenerate the file (only when an output is
meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import io
import itertools
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

from wittforge import cli
from wittforge.algebras import (
    algebra_from_slots,
    composition_defect,
    is_split,
    zero_divisor_pair,
)
from wittforge.dsl import parse_field, parse_form, parse_slots
from wittforge.fields import enumerate_square_classes
from wittforge.laurent import LaurentPoly
from wittforge.oracles import find_defect_witness
from wittforge.qform import DiagonalForm, is_isometric, is_isotropic, witt_decompose
from wittforge.tori import compare_torus_systems, cubic_obstruction_report, type_report

GOLDEN = Path(__file__).with_name("golden_outputs.json")


def _witt_rows(field: str) -> list:
    tower = parse_field(field)
    classes = enumerate_square_classes(tower)
    rows = []
    for dim in range(1, 5):
        for entries in itertools.combinations_with_replacement(classes, dim):
            # reversed, so the library's own entry order is what is pinned
            f = DiagonalForm(tower, tuple(reversed(entries)))
            w = witt_decompose(f)
            rows.append([str(f), is_isotropic(f), w.witt_index, str(w.kernel)])
    return rows


# Forms over Q((t)): Witt indices come from rational invariants, and the
# kernel itself is not computed there.
RATIONAL_LAURENT_FORMS = (
    "[1]",
    "[t]",
    "[1,1]",
    "[1,-1]",
    "[1,t]",
    "[t,-t]",
    "[2,-2*t]",
    "[1,1,1]",
    "[1,1,-t]",
    "[-1,2,5*t]",
    "[1,1,1,1]",
    "[1,1,t,t]",
    "[1,-2,3*t,-6*t]",
    "[1,1,1,1,1,-7]",
    "[7*t,7*t,7*t,7*t,-t]",
    "[1,2,3,5,7*t,-11*t,13*t]",
)


def _rational_laurent_rows() -> list:
    tower = parse_field("Q((t))")
    rows = []
    for text in RATIONAL_LAURENT_FORMS:
        f = parse_form(text, tower)
        w = witt_decompose(f)
        rows.append(
            [str(f), is_isotropic(f), w.witt_index, w.kernel_dim, str(w.kernel)]
        )
    return rows


def _zero_divisor_rows(field: str) -> list:
    tower = parse_field(field)
    classes = enumerate_square_classes(tower)
    rows = []
    for n in (2, 3):
        for slots in itertools.product(classes, repeat=n):
            pair = zero_divisor_pair(algebra_from_slots(tower, slots))
            strs = None if pair is None else [str(pair[0]), str(pair[1])]
            rows.append([",".join(str(s) for s in slots), strs])
    return rows


def _cli_rows() -> list:
    """[argv, exit code, stdout, stderr] of every README command with and
    without ``--json``, of every ``DISPATCH_CASES`` argv, and of ``-h`` for
    each subcommand the README names, at COLUMNS=80 (argparse wraps usage
    and help text to the terminal width)."""
    from test_dsl_cli import DISPATCH_CASES, readme_commands

    readme = readme_commands()
    cases = [argv + extra for argv in readme for extra in ([], ["--json"])]
    cases += DISPATCH_CASES
    cases += [[name, "-h"] for name in sorted({argv[0] for argv in readme})]
    rows = []
    with patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in cases:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run_command(list(argv))
            rows.append([argv, code, out.getvalue(), err.getvalue()])
    return rows


def collect() -> dict:
    tower = parse_field("F13((s))((t))")
    C = algebra_from_slots(tower, parse_slots("u,s,t", tower))
    C2 = algebra_from_slots(tower, parse_slots("1,s,t", tower))
    return {
        "cubic_obstruction": [
            cubic_obstruction_report(C, d).to_json()
            for d in enumerate_square_classes(tower)
            if not d.is_one
        ],
        "type_report": type_report(C).to_json(),
        "compare": compare_torus_systems(C, C2).to_json(),
        "witt_F5((t))": _witt_rows("F5((t))"),
        "witt_R((t))": _witt_rows("R((t))"),
        "witt_F3((s))((t))": _witt_rows("F3((s))((t))"),
        "witt_R((s))((t))": _witt_rows("R((s))((t))"),
        "witt_Q((t))": _rational_laurent_rows(),
        "zero_divisor_F13((s))((t))": _zero_divisor_rows("F13((s))((t))"),
        # p = 7 is 3 mod 4: -1 is a nonsquare, so three-entry runs with no
        # isotropic pair occur and need the ternary solution
        "zero_divisor_F7((s))((t))": _zero_divisor_rows("F7((s))((t))"),
        "cli": _cli_rows(),
    }


# sha256 over the report JSON of every division octonion algebra over
# F13((s))((t)) against every nonsquare d: the whole obstruction sweep.
SWEEP_SHA256 = "7024bb062c750300b94bd0990f572864cd766fbfed4c2582c71d2a1b73eb6cb0"


def test_whole_obstruction_sweep():
    tower = parse_field("F13((s))((t))")
    # class k has bit 0 = u, bit 1 = s, bit 2 = t; the slots (a, b, c) of a
    # division algebra are linearly independent over F_2, taken in
    # lexicographic order, and d runs over the nonsquares 1..7
    classes = enumerate_square_classes(tower)
    digest = hashlib.sha256()
    algebras = 0
    for a, b, c in itertools.product(range(8), repeat=3):
        if a == 0 or b in (0, a) or c in (0, a, b, a ^ b):
            continue
        algebras += 1
        C = algebra_from_slots(tower, [classes[a], classes[b], classes[c]])
        for d in range(1, 8):
            digest.update(cubic_obstruction_report(C, classes[d]).to_json().encode())
    assert algebras == 168
    assert digest.hexdigest() == SWEEP_SHA256


# sha256 over str() of x*y, N(x*y) as a diagonal form and N(xy) - N(x)N(y)
# for seeded pairs in dimensions 8 and 16, then over the sparse pair that
# find_defect_witness returns for the 16-dimensional negative control.
PRODUCT_SHA256 = "9deb011df88e225d02ae23f20e9d794493023802e3a2208a72980ac4e4d6efdc"

PRODUCT_ALGEBRAS = (
    ("F13((s))((t))", "u,s,t", "u,s,t,s*t"),
    ("Q((t))", "-1,2,t", "-1,2,t,-3*t"),
    ("R((t))", "-1,t,-t", "-1,t,-t,-1"),
)


def _seeded_element(A, rng):
    tower = A.tower
    if tower.kind == "F":
        coeffs = range(1, tower.p)
    else:
        coeffs = (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3))
    coords = []
    for _ in range(A.dim):
        poly = LaurentPoly.zero(tower)
        for _ in range(rng.choice((0, 1, 1, 2))):
            exps = {v: rng.randint(-2, 2) for v in tower.laurent_vars}
            poly = poly + LaurentPoly.monomial(tower, rng.choice(coeffs), exps)
        coords.append(poly)
    return A.element(coords)


def product_digest() -> str:
    digest = hashlib.sha256()
    rng = random.Random(20150)
    for field, *slot_lists in PRODUCT_ALGEBRAS:
        tower = parse_field(field)
        for slots in slot_lists:
            A = algebra_from_slots(tower, parse_slots(slots, tower))
            for _ in range(6):
                x, y = _seeded_element(A, rng), _seeded_element(A, rng)
                for value in (x * y, (x * y).norm_form_value(), composition_defect(x, y)):
                    digest.update(str(value).encode() + b";")
    q = parse_field("Q")
    for value in find_defect_witness(algebra_from_slots(q, parse_slots("-1,-1,-1,-1", q))):
        digest.update(str(value).encode() + b";")
    return digest.hexdigest()


def test_product_digest():
    assert product_digest() == PRODUCT_SHA256


# sha256 over the type reports of four seeded division octonions over
# F7((r))((s))((t)), whose norms all have different keys while the first
# three are isometric, and of the split octonion <<1,s,t>>; then over the
# comparison of the first and the last division octonion, and over the
# obstruction reports of the division octonions against every nonsquare
# d, whose evidence rows a type report never builds.
TYPES_F7RST_SHA256 = "20e0bf00b6e9509363f27228d6f1d4c0fb22db6acd83a98e507972a7005b4aef"


def types_digest() -> str:
    tower = parse_field("F7((r))((s))((t))")
    classes = enumerate_square_classes(tower)
    rng = random.Random(1503)
    division = []
    while len(division) < 4:
        A = algebra_from_slots(tower, rng.sample(classes, 3))
        if is_split(A) or A.norm.key in {B.norm.key for B in division}:
            continue
        # the second one has the first one's norm up to isometry
        if len(division) == 1 and not is_isometric(A.norm, division[0].norm):
            continue
        division.append(A)
    split = algebra_from_slots(tower, parse_slots("1,s,t", tower))
    digest = hashlib.sha256()
    for A in division + [split]:
        digest.update(type_report(A).to_json().encode())
    digest.update(compare_torus_systems(division[0], division[3]).to_json().encode())
    for A in division:
        for d in classes[1:]:
            digest.update(cubic_obstruction_report(A, d).to_json().encode())
    return digest.hexdigest()


def test_type_reports_over_three_variables():
    assert types_digest() == TYPES_F7RST_SHA256


def test_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = collect()
    assert sorted(got) == sorted(golden)
    for key in golden:
        assert got[key] == golden[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), indent=1) + "\n")
