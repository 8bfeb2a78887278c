"""Benchmark for Table 2 — time to partition 10k edges.

One benchmark per (dataset, system) cell: ``harness.run_system`` streams a
full BFS-ordered stream through a fresh partitioner (steady-state, the
same unit as ``jobs/table2_throughput.py``), and the reproduced metric is
its ms per 10k edges. Shape to verify against the paper: Hash fastest,
LDG ≈ Fennel, Loom slower by a small factor (paper: avg 2-3x Fennel,
range 1.5-7.1x).
"""
import pytest

from repro.eval.harness import run_system
from repro.graphs.generators import generate
from repro.graphs.streams import ordered_stream
from repro.partitioners.base import stream_of
from repro.workloads.queries import workload

SCALE = 3_000
DATASETS = ["dblp", "provgen", "musicbrainz", "lubm", "lubm4000"]
SYSTEMS = ["hash", "ldg", "fennel", "loom"]

_cache = {}


def dataset(name):
    if name not in _cache:
        g = generate(name, scale=SCALE)
        stream = list(stream_of(g, ordered_stream(g, "bfs", seed=0)))
        _cache[name] = (g, stream, workload(name))
    return _cache[name]


@pytest.mark.parametrize("system", SYSTEMS)
@pytest.mark.parametrize("name", DATASETS)
def test_partition_stream(benchmark, name, system):
    g, stream, wl = dataset(name)
    run = benchmark.pedantic(
        run_system, args=(system, g, stream, 8, wl), kwargs={"window": 10_000},
        rounds=3, iterations=1,
    )
    benchmark.extra_info["n_edges"] = run.n_edges
    benchmark.extra_info["ms_per_10k"] = run.ms_per_10k
    assert len(run.assignment) > 0
