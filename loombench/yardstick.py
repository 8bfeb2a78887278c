"""A fixed piece of Python work that measures how fast the host runs now.

The benchmark runs on shared hosts whose speed drifts. On a shared 4-vCPU
Xeon, the same LDG pass took 0.19 s in one process and 0.30 s in another a
minute later, and two ten-run sets twenty minutes apart differed by 9-30%
on every timing, with no CPU time stolen by the hypervisor: the work
itself ran slower. Such drift moved this yardstick with the passes: over
fourteen processes in a row, dividing each process's mean pass time by its
mean yardstick time cut the spread from 0.20-0.24 to 0.07-0.09 of the
median.

A run times the yardstick after every partitioning pass and reports each
single-threaded Python timing scaled by ``NOMINAL_S / mean yardstick
time``: what the run would have measured on a host where the yardstick
takes ``NOMINAL_S``. Spark's JVM work runs on every core and did not follow
the yardstick, so it is reported as measured. The yardstick is a frozen
copy of LDG over plain dicts on a graph of its own, so no change to the
program under test can move it.
"""
from __future__ import annotations

import gc
import random
import time

# The yardstick's median time on a shared 4-vCPU Intel Xeon at 2.1 GHz
# with Python 3.11; it only sets the level that scaled timings are
# reported at.
NOMINAL_S = 0.1

N_VERTICES = 10_000
N_EDGES = 25_000
K = 8


def stream() -> list[tuple[int, int]]:
    """The yardstick's stream: a fixed skewed random graph."""
    rng = random.Random(20_000)
    pairs = (
        (rng.randrange(N_VERTICES), int(N_VERTICES * rng.random() ** 2))
        for _ in range(N_EDGES)
    )
    return [(u, v) for u, v in pairs if u != v]


STREAM = stream()


def partition(stream: list[tuple[int, int]], n: int, k: int) -> dict[int, int]:
    """LDG: each new vertex joins the partition holding most of its revealed
    neighbours, weighted by that partition's remaining capacity."""
    capacity = n / k
    adj: dict[int, set[int]] = {}
    part: dict[int, int] = {}
    sizes = [0] * k
    for u, v in stream:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
        for x in (u, v):
            if x in part:
                continue
            best, best_score = 0, -1.0
            for p in range(k):
                shared = sum(1 for w in adj[x] if part.get(w, -1) == p)
                score = (shared + 1) * (1 - sizes[p] / capacity)
                if score > best_score:
                    best, best_score = p, score
            part[x] = best
            sizes[best] += 1
    return part


def measure() -> float:
    """Seconds one yardstick pass takes now. The cyclic garbage collector
    is paused, so that its pauses, which grow with the heap the program
    left behind, do not count (the yardstick makes no cycles)."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        partition(STREAM, N_VERTICES, K)
        return time.perf_counter() - t0
    finally:
        gc.enable()
