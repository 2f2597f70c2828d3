"""Self-tests of the benchmark, apart from the repository's test suite.

    python3 -m pytest -q perfbench/selftest.py

Each checker passes wittforge's real outputs and rejects each kind of
corrupted output; the checkers' own algebra is checked against facts
that do not come from the program; the traced run's self times add up
to its time; and the benchmark refuses to run without the sources.
"""
from __future__ import annotations

import copy
import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import worker
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
wf = worker._import_program()


def _outputs(cls, n, seed=3):
    w = cls(seed, 0)
    w.setup(wf)
    return w, [(item, w.plain(w.run(item))) for item in w.items[:n]]


# -- obstruction-sweep ---------------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    return _outputs(worker.ObstructionSweep, 2)


def _first_match(rows):
    return next(i for i, r in enumerate(rows) if r[2])


def _set_row(out, i, **kw):
    rows = out["reports"][0]["rows"]
    b, c, m, iso = rows[i]
    rows[i] = (kw.get("b", b), kw.get("c", c), kw.get("m", m), kw.get("iso", iso))


OBSTRUCTION_CORRUPTIONS = {
    "split": lambda o: o.update(split=True),
    "norm_matches flipped": lambda o: _set_row(o, 0, m=not o["reports"][0]["rows"][0][2]),
    "trace_isometric true": lambda o: _set_row(
        o, _first_match(o["reports"][0]["rows"]), iso=True
    ),
    "trace_isometric missing": lambda o: _set_row(
        o, _first_match(o["reports"][0]["rows"]), iso=None
    ),
    "row dropped": lambda o: o["reports"][0]["rows"].pop(),
    "row duplicated": lambda o: _set_row(
        o, 1, b=o["reports"][0]["rows"][0][0], c=o["reports"][0]["rows"][0][1]
    ),
    "wrong d": lambda o: o["reports"][0].update(d="u*s*t" if o["reports"][0]["d"] != "u*s*t" else "u"),
    "slots reordered": lambda o: o["reports"][0]["slots"].reverse(),
    "report missing": lambda o: o["reports"].pop(),
    "non-canonical class": lambda o: _set_row(o, 0, b="s*u"),
}


def test_obstruction_accepts_program_output(sweep):
    w, pairs = sweep
    for item, out in pairs:
        assert w.check(item, out) is None
        assert sum(r[2] for r in out["reports"][0]["rows"]) == 24


@pytest.mark.parametrize("kind", OBSTRUCTION_CORRUPTIONS)
def test_obstruction_rejects(sweep, kind):
    w, pairs = sweep
    item, out = pairs[0]
    bad = copy.deepcopy(out)
    for rep in bad["reports"]:
        rep["rows"] = list(rep["rows"])
    OBSTRUCTION_CORRUPTIONS[kind](bad)
    assert w.check(item, bad)


def test_168_division_algebras():
    assert len(inputs.division_slots()) == 168


# -- octonion-arith ----------------------------------------------------------------


@pytest.fixture(scope="module")
def products():
    return _outputs(worker.OctonionArith, 5)


def _bump(terms, i):
    (e, c), rest = terms[i], list(terms)
    rest[i] = (e, c % 13 + 1)
    return tuple(rest)


OCTONION_CORRUPTIONS = {
    "coefficient": lambda o: o.__setitem__(3, _bump(o[3], 0)),
    "term dropped": lambda o: o.__setitem__(5, o[5][1:]),
    "coordinates swapped": lambda o: o.__setitem__(slice(1, 3), [o[2], o[1]]),
    "conjugated": lambda o: o.__setitem__(
        slice(1, 8), [tuple((e, -c % 13) for e, c in t) for t in o[1:]]
    ),
    "coordinate missing": lambda o: o.pop(),
}


def test_octonion_accepts_program_output(products):
    w, pairs = products
    for item, out in pairs:
        assert w.check(item, out) is None


@pytest.mark.parametrize("kind", OCTONION_CORRUPTIONS)
def test_octonion_rejects(products, kind):
    w, pairs = products
    item, out = pairs[0]
    bad = list(out)
    OCTONION_CORRUPTIONS[kind](bad)
    assert w.check(item, bad)


def _rand_vec(rng, n):
    return [rng.randrange(13) for _ in range(n)]


def test_cd_mul_composes_in_dimension_8_only():
    rng = random.Random(5)
    for _ in range(50):
        cs = [rng.randrange(1, 13) for _ in range(3)]
        x, y = _rand_vec(rng, 8), _rand_vec(rng, 8)
        xy = checks.cd_mul(x, y, cs)
        assert checks.cd_norm(xy, cs) == checks.cd_norm(x, cs) * checks.cd_norm(y, cs) % 13
    cs = [rng.randrange(1, 13) for _ in range(4)]
    broken = 0
    for _ in range(50):
        x, y = _rand_vec(rng, 16), _rand_vec(rng, 16)
        n = checks.cd_norm(checks.cd_mul(x, y, cs), cs)
        broken += n != checks.cd_norm(x, cs) * checks.cd_norm(y, cs) % 13
    assert broken > 0  # the composition check can fail: sedenions do not compose


def test_cd_mul_basis_relations():
    # i^2 = a, j^2 = b, ij = -ji in the quaternions with slots (a, b)
    a, b = 2, 5
    i, j = [0, 1, 0, 0], [0, 0, 1, 0]
    assert checks.cd_mul(i, i, [a, b]) == [a, 0, 0, 0]
    assert checks.cd_mul(j, j, [a, b]) == [b, 0, 0, 0]
    ij, ji = checks.cd_mul(i, j, [a, b]), checks.cd_mul(j, i, [a, b])
    assert ij == [-v % 13 for v in ji] and ij != ji


# -- rational-forms -----------------------------------------------------------------


@pytest.fixture(scope="module")
def commands():
    return _outputs(worker.RationalForms, 140)


def _payload(commands, cmd, pred=lambda form, out: True):
    w, pairs = commands
    for (form, c, argv), out in pairs:
        if c == cmd and pred(form, out):
            return w, (form, c, argv), copy.deepcopy(out)
    raise LookupError(cmd)


def test_rational_accepts_program_output(commands):
    w, pairs = commands
    for item, out in pairs:
        assert w.check(item, out) is None
    verdicts = [out["isotropic"] for (_, c, _), out in pairs if c == "qf-isotropy"]
    assert any(verdicts) and not all(verdicts)


def _inv(out):
    return out["kernel_invariants"]


RATIONAL_CORRUPTIONS = {
    ("qf-isotropy", "verdict flipped"): lambda o: o.update(isotropic=not o["isotropic"]),
    ("qf-isotropy", "entry not reduced"): lambda o: o["form"].__setitem__(0, "4"),
    ("qf-witt", "index shifted"): lambda o: o.update(
        witt_index=o["witt_index"] + 1, kernel_dim=o["kernel_dim"] - 2
    ),
    ("qf-witt", "dimension broken"): lambda o: o.update(kernel_dim=o["kernel_dim"] + 2),
    ("qf-witt", "disc sign"): lambda o: _inv(o).update(disc=str(-int(_inv(o)["disc"]))),
    ("qf-witt", "signature swapped"): lambda o: _inv(o).update(
        signature=_inv(o)["signature"][::-1]
    ),
}


@pytest.mark.parametrize("cmd,kind", RATIONAL_CORRUPTIONS)
def test_rational_rejects(commands, cmd, kind):
    def asymmetric(form, out):  # so that swapping the signature changes it
        sig = out.get("kernel_invariants", {}).get("signature")
        return out.get("witt_index", 1) > 0 and (sig is None or sig[0] != sig[1])

    w, item, out = _payload(commands, cmd, asymmetric)
    RATIONAL_CORRUPTIONS[cmd, kind](out)
    assert w.check(item, out)


def test_rational_rejects_indefinite_anisotropic_kernel(commands):
    def big_indefinite(form, out):
        sig = [sum(sg > 0 for sg, _ in form["classes"]), sum(sg < 0 for sg, _ in form["classes"])]
        return len(form["classes"]) >= 5 and min(sig) > 0

    w, item, out = _payload(commands, "qf-witt", big_indefinite)
    form = item[0]
    dim = len(form["classes"])
    pos = sum(sg > 0 for sg, _ in form["classes"])
    out.update(witt_index=0, kernel_dim=dim)
    _inv(out).update(dim=dim, signature=[pos, dim - pos], disc=str(checks._disc(form["classes"])))
    assert "indefinite" in w.check(item, out)


def _squarefree(n):
    return all(n % (p * p) for p in range(2, int(abs(n) ** 0.5) + 1))


def _classes(values):
    out = []
    for v in values:
        ps = [p for p in range(2, abs(v) + 1) if abs(v) % p == 0 and all(p % q for q in range(2, p))]
        out.append((1 if v > 0 else -1, ps))
    return out


def test_ternary_isotropy_matches_holzer_search():
    # Holzer: a solution of ax^2 + by^2 + cz^2 = 0 (squarefree, pairwise
    # coprime a, b, c) exists iff one exists with |x| <= sqrt|bc|, etc.
    vals = [v for v in range(-15, 16) if v and _squarefree(v)]
    for a, b, c in itertools.combinations(vals, 3):
        if math.gcd(a, b) * math.gcd(b, c) * math.gcd(a, c) != 1:
            continue
        bx, by, bz = (math.isqrt(abs(u * v)) for u, v in ((b, c), (a, c), (a, b)))
        found = any(
            a * x * x + b * y * y + c * z * z == 0
            for x in range(bx + 1)
            for y in range(-by, by + 1)
            for z in range(-bz, bz + 1)
            if (x, y, z) != (0, 0, 0)
        )
        assert checks.rational_isotropic(_classes([a, b, c])) == found, (a, b, c)


@pytest.mark.parametrize(
    "values,isotropic",
    [
        ([1, 1, 1, 1], False),
        ([1, 1, 1, -7], False),  # 7w^2 is never a sum of three squares
        ([1, 1, 1, 1, -7], True),  # 4 + 1 + 1 + 1 = 7
        ([1, 1, 1, -1], True),
        ([1, -2, -3, 6], False),  # <<2, 3>>: (2, 3) ramifies at 3
        ([1, -1, 5, 7], True),
        ([1, 1, 3, 3], False),  # disc 1, (-1,-1) ramifies at 2 and oo
        ([2, 3], False),
        ([3, -3], True),
        ([1, 1, 1, 1, -1], True),
        ([1, 2, 3, 5, 7, 11], False),
    ],
)
def test_rational_isotropy_known_forms(values, isotropic):
    assert checks.rational_isotropic(_classes(values)) is isotropic


def test_hilbert_product_formula():
    rng = random.Random(11)
    for _ in range(200):
        a, b = (rng.choice([-1, 1]) * rng.randrange(1, 200) for _ in range(2))
        places = [0, 2] + [p for p in range(3, 200) if all(p % q for q in range(2, p))]
        prod = 1
        for v in places:
            prod *= checks.hilbert(a, b, v)
        assert prod == 1, (a, b)


# -- tracer and the command -----------------------------------------------------------


def test_traced_self_times_add_up():
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "rational-forms", "2", "0", "trace"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    tr = result["trace"]
    assert result["failed"] == 0
    attributed = sum(tr[f"{layer}.self_s"] for layer in LAYERS) + tr["bench.self_s"]
    assert abs(attributed - tr["trace.traced_s"]) < 1e-9 * tr["trace.traced_s"]
    assert tr["cli.build_parser.calls"] == worker.RATIONAL_FORMS * 2
    assert tr["qform.is_isotropic.calls"] == worker.RATIONAL_FORMS
    assert tr["laurent.calls"] == tr["tori.calls"] == 0
    assert all(tr[f"{layer}.self_s"] > 0 for layer in ("fields", "arithq", "dsl", "cli"))


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "rational-forms",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
