"""The fixed pure-Python reference kernel used to calibrate wall times.

Wall-clock rates on a shared small machine drift by tens of percent from
run to run, while the ratio of a workload's time to a kernel timed next to
it stays within a few percent.  So every measured time T is reported as

    T * NOMINAL_S / K

where K is the kernel's wall time measured around the batch that T
belongs to.  The kernel touches no wittforge code; it mixes what the
program spends its time on: small tuple and frozenset allocation, dict
lookups, modular integer arithmetic, method calls on small objects and a
sort.

Run ``python3 perfbench/kernel.py`` to time it on a machine; NOMINAL_S is
its typical time on the reference machine, recorded in the README.
"""
from __future__ import annotations

import statistics
import time

NOMINAL_S = 0.0025
ROUNDS = 1000


class _Cell:
    __slots__ = ("key", "bits")

    def __init__(self, key, bits):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "bits", bits)

    def times(self, other: "_Cell") -> "_Cell":
        return _Cell((self.key * other.key) % 8191, self.bits ^ other.bits)


def reference_kernel() -> int:
    table: dict = {}
    acc = 0
    cell = _Cell(1, frozenset())
    step = _Cell(7919, frozenset(("s",)))
    flip = _Cell(13, frozenset(("t",)))
    for i in range(ROUNDS):
        cell = cell.times(step if i % 3 else flip)
        key = (cell.key % 13, cell.bits, i & 7)
        table[key] = table.get(key, 0) + pow(cell.key, 3, 8191)
        acc = (acc * 31 + len(cell.bits) + hash(key[0])) % 1_000_003
    ranked = sorted(table.items(), key=lambda kv: (kv[1], kv[0][0], kv[0][2]))
    return acc + len(ranked)


def time_kernel() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


if __name__ == "__main__":
    times = [time_kernel() for _ in range(300)]
    q1, med, q3 = statistics.quantiles(times, n=4)
    print(
        f"reference kernel: median {med * 1e3:.3f} ms, "
        f"quartiles {q1 * 1e3:.3f}-{q3 * 1e3:.3f} ms over {len(times)} runs"
    )
