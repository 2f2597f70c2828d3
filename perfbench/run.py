"""Benchmark entry point for wittforge.

    python3 perfbench/run.py --workload obstruction-sweep --seed 1 --seconds 20 --trace 0

Runs whole rounds of one workload (or ``all``), one at a time, each in a
fresh worker process (see ``worker.py``), until ``--seconds`` have passed;
then it times set-up alone in SETUP_PROBES more fresh processes.  It
prints one JSON object per workload, the last line being
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1`` it
runs one untraced and one traced round on the same inputs instead and
prints the per-layer metrics and the tracing overhead.  Raw worker
results and span files go to ``.perfbench-out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OUT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
WORKER_TIMEOUT_S = 170


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, round_no: int, mode: str) -> dict:
    # A fixed hash seed makes set and dict layouts, and so the work, the
    # same in every process.  Bytecode is always written, so that set-up
    # time never includes compiling wittforge, whatever the environment.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(round_no), mode]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{' '.join(cmd[1:])} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(
            f"{' '.join(cmd[1:])} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _outcome(rounds) -> dict:
    return {
        "correct": all(r["wrong"] == 0 for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
    }


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    run_worker(workload, seed, 0, "setup")  # compiles bytecode, warms the file cache
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(run_worker(workload, seed, len(rounds), "run"))
    probes = [run_worker(workload, seed, 0, "setup") for _ in range(SETUP_PROBES)]
    op_s = [t for r in rounds for t in r["op_s"]]
    metrics = {
        "ops_per_s": _metric(len(op_s) / sum(op_s), "1/s"),
        "op_median_ms": _metric(statistics.median(op_s) * 1e3, "ms"),
        "setup_s": _metric(statistics.median(p["setup_s"] for p in probes + rounds), "s"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in rounds), "MiB"),
    }
    return dict(_outcome(rounds), metrics=metrics), {"rounds": rounds, "probes": probes}


def measure_traced(workload: str, seed: int) -> tuple[dict, dict]:
    run_worker(workload, seed, 0, "setup")
    plain = run_worker(workload, seed, 0, "run")
    traced = run_worker(workload, seed, 0, "trace")
    values = dict(traced["trace"])
    values["trace.untraced_s"] = sum(plain["op_s"])
    values["trace.overhead_ratio"] = sum(traced["op_s"]) / values["trace.untraced_s"]
    metrics = {name: _metric(v, _unit(name)) for name, v in values.items()}
    return dict(_outcome([plain, traced]), metrics=metrics), {"rounds": [plain, traced]}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wittforge" / "__init__.py").is_file():
        print(f"wittforge sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            if args.trace:
                result, raw = measure_traced(name, args.seed)
            else:
                result, raw = measure(name, args.seed, args.seconds)
            OUT.mkdir(exist_ok=True)
            raw_file = OUT / f"raw-{name}-seed{args.seed}-trace{args.trace}.json"
            raw_file.write_text(json.dumps(dict(raw, result=result)))
            results.append(result)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, result in zip(names, results):
        print(f"# {name}", file=sys.stderr)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
