"""Byte-for-byte pins of report JSON and Witt kernels.

``tests/golden_outputs.json`` holds the outputs below as the library
produced them; any change to square-class representation, ordering or
form construction must leave them identical.  Regenerate the file (only
when an output is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""
import itertools
import json
from pathlib import Path

from wittforge.algebras import algebra_from_slots
from wittforge.dsl import parse_field, parse_slots
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
    }


def test_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text())
    got = collect()
    assert sorted(got) == sorted(golden)
    for key in golden:
        assert got[key] == golden[key], key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(collect(), indent=1) + "\n")
