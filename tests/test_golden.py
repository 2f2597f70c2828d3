"""Byte-for-byte pins of report JSON and Witt kernels, and a digest of
the whole cubic-obstruction sweep.

``tests/golden_outputs.json`` holds the outputs below as the library
produced them; any change to square-class representation, ordering,
form construction, the Witt decomposition or the zero-divisor search
must leave them identical.  Regenerate the file (only when an output is
meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import itertools
import json
from pathlib import Path

from wittforge.algebras import algebra_from_slots, zero_divisor_pair
from wittforge.dsl import parse_field, parse_form, parse_slots
from wittforge.fields import enumerate_square_classes
from wittforge.qform import DiagonalForm, is_isotropic, witt_decompose
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


def test_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = collect()
    assert sorted(got) == sorted(golden)
    for key in golden:
        assert got[key] == golden[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), indent=1) + "\n")
