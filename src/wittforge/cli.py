"""Command line front end.

Field descriptors, form literals and slot lists use the DSL documented
in ``dsl``.  Exit codes: 0 success, 1 domain error (the library error is
named on stderr), 2 parse error (caret-annotated) or bad usage.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import arithq, dsl, oracles, qform, tori
from .algebras import algebra_from_slots, is_split, zero_divisor_pair
from .errors import ParseError, WittforgeError
from .fields import FieldTower, SquareClass


def _place_key(v):
    return (1, 0) if v.is_real else (0, v.p)


def _places_str(places) -> str:
    return "{" + ", ".join(str(v) for v in sorted(places, key=_place_key)) + "}"


def _emit(payload: dict, args, human_lines) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        for line in human_lines:
            print(line)


def _parse_field(args) -> FieldTower:
    return dsl.parse_field(args.field)


# -- qf commands -----------------------------------------------------------------


def _cmd_qf_isotropy(args) -> int:
    tower = _parse_field(args)
    f = dsl.parse_form(args.form, tower)
    verdict = qform.is_isotropic(f)
    payload = {
        "command": "qf-isotropy",
        "field": str(tower),
        "form": [str(e) for e in f.entries],
        "isotropic": verdict,
    }
    lines = ["isotropic" if verdict else "anisotropic"]
    if args.oracle:
        agrees, detail = _isotropy_oracle(f, verdict)
        payload["oracle"] = {"agrees": agrees, "detail": detail}
        lines.append(f"oracle: {detail} ({_outcome(agrees)})")
    _emit(payload, args, lines)
    return 0


BUDGET_EXCEEDED = "search budget exceeded"


def _outcome(agrees) -> str:
    """An oracle outcome: True agrees, False disagrees, None checked nothing."""
    if agrees is None:
        return "inconclusive"
    return "agreement" if agrees else "DISAGREEMENT"


def _isotropy_oracle(f, verdict):
    """(agrees, detail); agrees is None when the oracle settled nothing."""
    tower = f.tower
    if tower.kind == "F" and tower.degree == 1:
        # both searches are exhaustive: an isotropic form has a witness there
        try:
            if len(tower.laurent_vars) == 1:
                witness = oracles.truncated_witness_search(f)
            else:
                witness = oracles.constant_witness_search(f)
        except oracles.OracleBudgetExceeded:
            return None, BUDGET_EXCEEDED
        found = witness is not None
        detail = (
            "witness (" + ", ".join(str(w) for w in witness) + ")"
            if found
            else "no witness in the search space"
        )
        return found == verdict, detail
    if tower.kind == "Q" and not tower.laurent_vars:
        witness = oracles.rational_witness_search([e.base for e in f.entries])
        if witness is not None:
            return verdict is True, "witness " + str(tuple(witness))
        ok, place = arithq.global_isotropy_certificate(f)
        if not ok:
            return verdict is False, f"local obstruction at {place}"
        # a bounded search that found nothing proves nothing
        return None, "no witness found (bound exhausted)"
    return None, "no oracle for this field"


def _invariants(inv) -> tuple[dict, str]:
    """The JSON object and the text of a rational kernel's invariants."""
    places = sorted(inv.hasse_minus, key=_place_key)
    payload = {
        "dim": inv.dim,
        "disc": str(inv.disc),
        "hasse_minus": [str(v) for v in places],
        "signature": list(inv.signature),
    }
    return payload, f"disc {inv.disc}, hasse -1 at {_places_str(places)}, signature {inv.signature}"


def _cmd_qf_witt(args) -> int:
    tower = _parse_field(args)
    f = dsl.parse_form(args.form, tower)
    w = qform.witt_decompose(f)
    payload = {
        "command": "qf-witt",
        "field": str(tower),
        "form": [str(e) for e in f.entries],
        "witt_index": w.witt_index,
        "kernel_dim": w.kernel_dim,
        "hyperbolic": w.is_hyperbolic,
        "kernel": [str(e) for e in w.kernel.entries] if w.kernel is not None else None,
    }
    lines = [f"witt_index {w.witt_index}", f"kernel_dim {w.kernel_dim}"]
    if w.kernel is not None:
        lines.append(f"kernel {w.kernel}")
    if w.kernel_invariants is not None:
        payload["kernel_invariants"], text = _invariants(w.kernel_invariants)
        lines.append(f"kernel invariants: {text}")
    if tower.kind == "Q" and tower.laurent_vars:
        payload["kernel_runs"] = []  # one rational kernel per anisotropic run
        for mask, inv in qform.witt_class(f):
            at = SquareClass(tower, 1, mask)
            run, text = _invariants(inv)
            payload["kernel_runs"].append({"at": str(at), **run})
            lines.append(f"kernel invariants at {at}: {text}")
    if args.oracle:
        if w.kernel is None:
            ok, detail = None, "no kernel to check over this field"
        else:
            ok, detail = not qform.is_isotropic(w.kernel), "kernel anisotropic"
        payload["oracle"] = {"kernel_anisotropic": ok}
        lines.append(f"oracle: {detail} ({_outcome(ok)})")
    _emit(payload, args, lines)
    return 0


def _cmd_qf_pfister_split(args) -> int:
    tower = _parse_field(args)
    f = dsl.parse_form(args.form, tower)
    delta = dsl.parse_class(args.delta, tower)
    verdict = qform.splits_over_quadratic(f, delta)
    payload = {
        "command": "qf-pfister-split",
        "field": str(tower),
        "form": [str(e) for e in f.entries],
        "delta": str(delta),
        "splits": verdict,
    }
    lines = ["splits" if verdict else "does not split"]
    if args.witness and verdict:
        slots = qform.pfister_slot_witness(f, delta)
        payload["witness"] = [str(s) for s in slots]
        lines.append("witness <<" + ",".join(str(s) for s in slots) + ">>")
    _emit(payload, args, lines)
    return 0


# -- algebra commands ---------------------------------------------------------------


def _cmd_alg_build(args) -> int:
    tower = _parse_field(args)
    slots = dsl.parse_slots(args.slots, tower)
    A = algebra_from_slots(tower, slots)
    payload = {
        "command": "alg-build",
        "field": str(tower),
        "slots": [str(s) for s in slots],
        "dim": A.dim,
        "norm": [str(e) for e in A.norm.entries],
    }
    lines = [f"dimension {A.dim}", f"norm {A.norm}"]
    if A.dim in (2, 4, 8):
        split = is_split(A)
        payload["split"] = split
        lines.append("split" if split else "division")
    if args.mul:
        x = A.element(dsl.parse_element_coords(args.mul[0], tower))
        y = A.element(dsl.parse_element_coords(args.mul[1], tower))
        payload["product"] = [str(c) for c in (x * y).coords]
        lines.append(f"product {x * y}")
    _emit(payload, args, lines)
    return 0


def _cmd_alg_split(args) -> int:
    tower = _parse_field(args)
    slots = dsl.parse_slots(args.slots, tower)
    A = algebra_from_slots(tower, slots)
    split = is_split(A)
    payload = {
        "command": "alg-split",
        "field": str(tower),
        "slots": [str(s) for s in slots],
        "split": split,
    }
    lines = ["split" if split else "division"]
    if split:
        pair = zero_divisor_pair(A)
        if pair is not None:
            payload["zero_divisor"] = [str(pair[0]), str(pair[1])]
            lines.append(f"zero divisor {pair[0]} * {pair[1]} = 0")
    if args.oracle:
        if tower.kind == "F" and tower.degree == 1:
            try:
                witness = oracles.constant_witness_search(A.norm)
            except oracles.OracleBudgetExceeded:
                payload["oracle"] = {"agrees": None, "detail": BUDGET_EXCEEDED}
                lines.append(f"oracle: {BUDGET_EXCEEDED} ({_outcome(None)})")
            else:
                agrees = (witness is not None) == split
                payload["oracle"] = {"agrees": agrees}
                lines.append(f"oracle: {_outcome(agrees)}")
        else:
            payload["oracle"] = {"agrees": None, "detail": "no oracle for this field"}
            lines.append(f"oracle: no oracle for this field ({_outcome(None)})")
    _emit(payload, args, lines)
    return 0


def _split_pair(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("expected two comma-separated rationals", text, 0)
    out = []
    for part in parts:
        part = part.strip()
        try:
            from fractions import Fraction

            out.append(Fraction(part))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {part!r}", text, text.find(part)) from exc
    return tuple(out)


def _cmd_alg_genus(args) -> int:
    q1 = _split_pair(args.q1)
    q2 = _split_pair(args.q2)
    equal = tori.genus_equal_rational(q1, q2)
    r1 = arithq.ramification_set(*q1)
    r2 = arithq.ramification_set(*q2)
    payload = {
        "command": "alg-genus",
        "q1": [str(x) for x in q1],
        "q2": [str(x) for x in q2],
        "ramification1": [str(v) for v in sorted(r1, key=_place_key)],
        "ramification2": [str(v) for v in sorted(r2, key=_place_key)],
        "equal_genus": equal,
    }
    lines = [
        (
            f"equal genus {_places_str(r1)} = {_places_str(r2)}"
            if equal
            else f"different genus {_places_str(r1)} vs {_places_str(r2)}"
        )
    ]
    _emit(payload, args, lines)
    return 0


# -- g2 commands ------------------------------------------------------------------------


def _cmd_g2_types(args) -> int:
    tower = _parse_field(args)
    slots = dsl.parse_slots(args.slots, tower)
    A = algebra_from_slots(tower, slots)
    report = tori.type_report(A)
    lines = [
        f"quad={r.tau.quad} cubic={tori._cubic_str(r.tau.cubic)} -> {r.verdict}"
        for r in report.rows
    ]
    lines.append(f"admissible {len(report.admissible)} of {len(report.rows)}")
    _emit(report.to_json_dict(), args, lines)
    return 0


def _cmd_g2_compare(args) -> int:
    tower = _parse_field(args)
    A1 = algebra_from_slots(tower, dsl.parse_slots(args.slots1, tower))
    A2 = algebra_from_slots(tower, dsl.parse_slots(args.slots2, tower))
    report = tori.compare_torus_systems(A1, A2)
    lines = [report.verdict]
    for row in report.rows:
        if row.verdict1 != row.verdict2:
            lines.append(
                f"differs at quad={row.tau.quad} cubic={tori._cubic_str(row.tau.cubic)}: "
                f"{row.verdict1} vs {row.verdict2}"
            )
    _emit(report.to_json_dict(), args, lines)
    return 0


def _cmd_g2_cubic_obstruction(args) -> int:
    tower = _parse_field(args)
    slots = dsl.parse_slots(args.octonion, tower)
    A = algebra_from_slots(tower, slots)
    d = dsl.parse_class(args.d, tower)
    report = tori.cubic_obstruction_report(A, d)
    matches = sum(1 for row in report.evidence if row.norm_matches)
    lines = [
        report.verdict,
        f"hermitian candidates matching the norm: {matches} of {len(report.evidence)}",
        "trace form gram "
        + "; ".join("[" + ", ".join(row) + "]" for row in report.gram),
    ]
    _emit(report.to_json_dict(), args, lines)
    return 0


# -- parser ------------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    parsing leaves it unchanged, and building it costs about as much as a
    cached query."""
    parser = argparse.ArgumentParser(
        prog="wittforge",
        description="exact quadratic form and composition algebra calculator",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, **flags):
        p = sub.add_parser(name)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true")
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        return p

    add(
        "qf-isotropy",
        _cmd_qf_isotropy,
        **{
            "--field": {"required": True},
            "--form": {"required": True},
            "--oracle": {"action": "store_true"},
        },
    )
    add(
        "qf-witt",
        _cmd_qf_witt,
        **{
            "--field": {"required": True},
            "--form": {"required": True},
            "--oracle": {"action": "store_true"},
        },
    )
    add(
        "qf-pfister-split",
        _cmd_qf_pfister_split,
        **{
            "--field": {"required": True},
            "--form": {"required": True},
            "--delta": {"required": True},
            "--witness": {"action": "store_true"},
        },
    )
    p = add(
        "alg-build",
        _cmd_alg_build,
        **{"--field": {"required": True}, "--slots": {"required": True}},
    )
    p.add_argument("--mul", nargs=2, metavar=("X", "Y"))
    add(
        "alg-split",
        _cmd_alg_split,
        **{
            "--field": {"required": True},
            "--slots": {"required": True},
            "--oracle": {"action": "store_true"},
        },
    )
    add(
        "alg-genus",
        _cmd_alg_genus,
        **{"--q1": {"required": True}, "--q2": {"required": True}},
    )
    add(
        "g2-types",
        _cmd_g2_types,
        **{"--field": {"required": True}, "--slots": {"required": True}},
    )
    add(
        "g2-compare",
        _cmd_g2_compare,
        **{
            "--field": {"required": True},
            "--slots1": {"required": True},
            "--slots2": {"required": True},
        },
    )
    add(
        "g2-cubic-obstruction",
        _cmd_g2_cubic_obstruction,
        **{
            "--field": {"required": True},
            "--octonion": {"required": True},
            "--d": {"required": True},
        },
    )
    return parser


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ParseError as exc:
        print(exc.caret_message(), file=sys.stderr)
        return 2
    except WittforgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
