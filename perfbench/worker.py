"""One round of one workload, in a fresh single-threaded process.

    python3 perfbench/worker.py WORKLOAD SEED ROUND MODE

MODE is ``setup`` (import and prepare, then stop), ``run`` (the measured
phase, untraced) or ``trace`` (the same with the span tracer installed).
The round's inputs are made as plain data before wittforge is imported.
The worker prints one JSON object on its last line of standard output.

A fresh process per round means the program's lru caches start empty,
so every round does the same work.  Each operation is timed alone; the
reference kernel runs before the first operation and after every slice
of about SLICE_S seconds of operations, and each operation's time is
scaled by the nominal kernel time over the mean kernel time around its
batch of about BATCH_S seconds (see ``_scales``).
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import checks
import inputs
from kernel import NOMINAL_S, time_kernel
from tracer import HOT, LAYERS, CACHED_LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SLICE_S = 0.02
SETUP_KERNELS = 4  # kernel runs before and after set-up
BATCH_S = 0.2

OCTONION_OPS = 1000  # products per round
RATIONAL_FORMS = 200  # forms per round, each sent through two commands


# -- workloads: inputs, set-up, one operation, its plain output, its check ----


def _f13_classes(wf):
    """F13((s))((t)) and its 8 square classes, indexed by (u, s, t) bit mask."""
    tower = wf.FieldTower.prime(inputs.P, "s", "t")
    gens = (wf.nonresidue_class(tower), wf.var_class(tower, "s"), wf.var_class(tower, "t"))
    classes = []
    for mask in range(8):
        c = wf.one_class(tower)
        for bit, g in enumerate(gens):
            if mask >> bit & 1:
                c = wf.sq_mul(c, g)
        classes.append(c)
    return tower, classes


class ObstructionSweep:
    """Op: one division algebra through algebra_from_slots, is_split and the
    7 cubic_obstruction_report calls, one per nonsquare d."""

    def __init__(self, seed, round_no):
        self.items = inputs.obstruction_inputs(seed)

    def setup(self, wf):
        self.wf = wf
        self.tower, self.classes = _f13_classes(wf)

    def run(self, item):
        wf, cls = self.wf, self.classes
        slots, ds = item
        C = wf.algebra_from_slots(self.tower, [cls[m] for m in slots])
        return wf.is_split(C), [wf.cubic_obstruction_report(C, cls[d]) for d in ds]

    @staticmethod
    def plain(result):
        split, reports = result
        return {
            "split": split,
            "reports": [
                {
                    "d": str(rep.d),
                    "slots": [str(s) for s in rep.slots],
                    "rows": [
                        (str(r.b), str(r.c), r.norm_matches, r.trace_isometric)
                        for r in rep.evidence
                    ],
                }
                for rep in reports
            ],
        }

    def check(self, item, out):
        return checks.check_obstruction(item, out)


class OctonionArith:
    """Op: build two octonions from their Laurent terms and multiply them."""

    def __init__(self, seed, round_no):
        self.slots = inputs.octonion_algebra(seed)
        self.items = inputs.octonion_inputs(seed, round_no, OCTONION_OPS)

    def setup(self, wf):
        self.wf = wf
        self.tower, classes = _f13_classes(wf)
        self.algebra = wf.algebra_from_slots(self.tower, [classes[m] for m in self.slots])

    def run(self, item):
        poly, tower, A = self.wf.LaurentPoly, self.tower, self.algebra
        x = A.element([poly(tower, terms) for terms in item["x"]])
        y = A.element([poly(tower, terms) for terms in item["y"]])
        return x * y

    @staticmethod
    def plain(result):
        return [c.terms for c in result.coords]

    def check(self, item, out):
        return checks.check_octonion(self.slots, item, out)


class RationalForms:
    """Op: one ``qf-isotropy`` or ``qf-witt`` command over Q, through
    cli.run_command in this process, standard output captured."""

    COMMANDS = ("qf-isotropy", "qf-witt")

    def __init__(self, seed, round_no):
        self.items = []
        for form in inputs.rational_inputs(seed, round_no, RATIONAL_FORMS):
            literal = "[" + ",".join(str(v) for v in form["values"]) + "]"
            for cmd in self.COMMANDS:
                self.items.append((form, cmd, [cmd, "--field", "Q", "--form", literal, "--json"]))

    def setup(self, wf):
        from wittforge import cli

        self.cli = cli

    def run(self, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.run_command(item[2])
        if rc != 0:
            raise RuntimeError(f"exit code {rc}")
        return buf.getvalue()

    @staticmethod
    def plain(result):
        return json.loads(result.splitlines()[-1])

    def check(self, item, out):
        form, cmd, _ = item
        return (checks.check_isotropy if cmd == "qf-isotropy" else checks.check_witt)(form, out)


WORKLOADS = {
    "obstruction-sweep": ObstructionSweep,
    "octonion-arith": OctonionArith,
    "rational-forms": RationalForms,
}


# -- the round ---------------------------------------------------------------


def _import_program():
    if not (SRC / "wittforge" / "__init__.py").is_file():
        raise SystemExit(f"wittforge sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import wittforge

    if Path(wittforge.__file__).resolve().parent != SRC / "wittforge":
        raise SystemExit(f"imported wittforge from {wittforge.__file__}, not {SRC}")
    return wittforge


def _scales(raw, slice_of, kernels) -> list[float]:
    """Calibration factor of each operation.

    Slices of about SLICE_S of operations alternate with kernel runs;
    consecutive slices form batches of at least BATCH_S.  A batch's factor
    is NOMINAL_S over the mean of the kernel runs before, between and
    after its slices.
    """
    slice_raw = [0.0] * (len(kernels) - 1)
    for dt, j in zip(raw, slice_of):
        slice_raw[j] += dt
    slice_scale, first, acc = [], 0, 0.0
    for j, dt in enumerate(slice_raw):
        acc += dt
        if acc >= BATCH_S or j == len(slice_raw) - 1:
            window = kernels[first : j + 2]
            slice_scale += [NOMINAL_S * len(window) / sum(window)] * (j + 1 - first)
            first, acc = j + 1, 0.0
    return [slice_scale[j] for j in slice_of]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(argv) -> dict:
    name, seed, round_no, mode = argv[0], int(argv[1]), int(argv[2]), argv[3]
    workload = WORKLOADS[name](seed, round_no)

    around = [time_kernel() for _ in range(SETUP_KERNELS)]
    t0 = time.perf_counter()
    wf = _import_program()
    workload.setup(wf)
    setup_raw = time.perf_counter() - t0
    around += [time_kernel() for _ in range(SETUP_KERNELS)]
    result = {
        "setup_s": setup_raw * NOMINAL_S * len(around) / sum(around),
        "setup_raw_s": setup_raw,
    }
    if mode == "setup":
        return result

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install(wf)

    raw, slice_of, kernels = [], [], [time_kernel()]
    failed, wrong, slice_s = 0, 0, 0.0
    for op_id, item in enumerate(workload.items):
        error = None
        if tracer:
            tracer.begin_op(op_id)
        t = time.perf_counter()
        try:
            out = workload.run(item)
        except Exception as exc:  # an operation that fails is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if tracer:
            tracer.end_op()
        raw.append(dt)
        slice_of.append(len(kernels) - 1)
        slice_s += dt
        if slice_s >= SLICE_S or op_id == len(workload.items) - 1:
            kernels.append(time_kernel())
            slice_s = 0.0
        if error is None:
            try:
                error = workload.check(item, workload.plain(out))
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
            wrong += error is not None
        if error is not None:
            failed += 1
            if len(result.setdefault("errors", [])) < 5:
                result["errors"].append(error)
    peak_rss = _peak_rss_mb()

    scale = _scales(raw, slice_of, kernels)
    result.update(
        attempted=len(raw),
        failed=failed,
        wrong=wrong,
        op_s=[r * s for r, s in zip(raw, scale)],
        raw_s=sum(raw),
        kernels=kernels,
        peak_rss_mb=peak_rss,
    )
    if tracer:
        result["trace"] = _trace_metrics(tracer, scale)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}")
    return result


def _trace_metrics(tracer: Tracer, scale) -> dict:
    """Per-layer metrics under the names BENCHMARK.json gives them."""
    selfs = tracer.self_times(scale)
    calls = tracer.layer_calls()
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = selfs[layer]
    for name in HOT:
        out[name if name.endswith(".new") else name + ".calls"] = tracer.count(name)
    for layer in CACHED_LAYERS:
        out[f"{layer}.cache_hit_ratio"] = tracer.cache_hit_ratio(layer)
    out["bench.self_s"] = selfs["bench"]
    out["trace.traced_s"] = tracer.ops_time(scale)
    out["trace.spans"] = len(tracer.sp_end)
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
