"""End-to-end experiment harness (paper Sec. 5).

One experiment = (dataset, stream order, k): stream the graph in the given
order through each partitioner (Hash / LDG / Fennel / Loom), execute the
dataset's query workload over each resulting partitioning with Spark SQL,
and report ipt as a percentage of the Hash baseline — the exact quantity
plotted in Figs. 7 and 8 — plus the imbalance and the ms-per-10k-edges
throughput of Table 2.

Loom's window defaults to the paper's t = 10k edges, capped at |E|/4 for
small scaled-down graphs so the window slides (the paper's 10k window is
~0.4% of DBLP's edges; an uncapped 10k window would swallow a 5k-edge test
graph whole and never exercise eviction).
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import SparkSession

from repro.core.loom import DEFAULT_WINDOW, LoomPartitioner
from repro.eval.ipt import WorkloadIpt, workload_ipt
from repro.graphs.generators import generate
from repro.graphs.model import LabeledGraph
from repro.graphs.streams import ordered_stream
from repro.partitioners.base import StreamEdge, StreamingPartitioner, stream_of
from repro.partitioners.fennel import FennelPartitioner
from repro.partitioners.hash_part import HashPartitioner
from repro.partitioners.ldg import LDGPartitioner
from repro.workloads.queries import Workload, workload as load_workload

SYSTEMS = ("hash", "ldg", "fennel", "loom")


def build_partitioner(
    name: str,
    k: int,
    graph: LabeledGraph,
    wl: Workload,
    *,
    window: int | None = None,
) -> StreamingPartitioner:
    """Instantiate one of the four evaluated systems (Sec. 5.1)."""
    n, m = graph.n_vertices, graph.n_edges
    if name == "hash":
        return HashPartitioner(k, n)
    if name == "ldg":
        return LDGPartitioner(k, n)
    if name == "fennel":
        return FennelPartitioner(k, n, m)
    if name == "loom":
        t = window if window is not None else default_window(m)
        return LoomPartitioner(k, n, wl, window=t)
    raise ValueError(f"unknown system {name!r}; expected one of {SYSTEMS}")


def default_window(n_edges: int) -> int:
    """Paper default t = 10k, capped so scaled-down streams still slide."""
    return max(10, min(DEFAULT_WINDOW, n_edges // 4))


@dataclass(frozen=True)
class SystemRun:
    """One partitioner applied to one ordered stream."""

    system: str
    assignment: dict[int, int]
    elapsed_s: float
    n_edges: int
    imbalance: float

    @property
    def ms_per_10k(self) -> float:
        """Table 2's metric: milliseconds to partition 10k edges."""
        return self.elapsed_s / max(1, self.n_edges) * 10_000 * 1000


def run_system(
    name: str,
    graph: LabeledGraph,
    stream: list[StreamEdge],
    k: int,
    wl: Workload,
    **loom_kwargs,
) -> SystemRun:
    """Pass the materialised ``stream`` of ``graph`` through partitioner
    ``name`` and time it. The stream is built by the caller (once per graph
    and order, :func:`repro.partitioners.base.stream_of`), so the time (and
    Table 2's ms/10k) is the partitioner's alone."""
    p = build_partitioner(name, k, graph, wl, **loom_kwargs)
    t0 = time.perf_counter()
    assignment = p.partition(stream)
    elapsed = time.perf_counter() - t0
    return SystemRun(name, assignment, elapsed, len(stream), p.state.imbalance())


@dataclass(frozen=True)
class ExperimentRow:
    """One cell group of Fig. 7/8: a system's quality on one stream."""

    dataset: str
    order: str
    k: int
    system: str
    ipt: float
    pct_of_hash: float
    imbalance: float
    ms_per_10k: float
    n_matches: int


def run_experiment(
    spark: SparkSession,
    dataset: str,
    order: str,
    k: int,
    *,
    scale: int = 2000,
    seed: int = 0,
    systems: tuple[str, ...] = SYSTEMS,
    graph: LabeledGraph | None = None,
    **loom_kwargs,
) -> list[ExperimentRow]:
    """Full experiment for one (dataset, order, k) triple.

    Returns one row per system with ipt normalised to Hash (Hash itself is
    always included to provide the baseline, mirroring Figs. 7-8).
    """
    if graph is None:
        graph = generate(dataset, scale=scale)
    wl = load_workload(dataset)
    stream = list(stream_of(graph, ordered_stream(graph, order, seed=seed)))
    runs = {
        name: run_system(name, graph, stream, k, wl, **loom_kwargs)
        for name in dict.fromkeys(("hash",) + tuple(systems))
    }
    quality: dict[str, WorkloadIpt] = {
        name: workload_ipt(spark, graph, run.assignment, wl)
        for name, run in runs.items()
    }
    hash_ipt = quality["hash"].total
    rows = []
    for name in dict.fromkeys(("hash",) + tuple(systems)):
        run, q = runs[name], quality[name]
        pct = 100.0 * q.total / hash_ipt if hash_ipt > 0 else 0.0
        rows.append(
            ExperimentRow(
                dataset, order, k, name, q.total, pct,
                run.imbalance, run.ms_per_10k, q.total_matches,
            )
        )
    return rows


def format_rows(rows: list[ExperimentRow]) -> str:
    """Fixed-width text table of experiment rows (job output format)."""
    hdr = (
        f"{'dataset':<12} {'order':<7} {'k':>3} {'system':<7} "
        f"{'ipt':>12} {'% of hash':>10} {'imbal':>6} {'ms/10k':>9}"
    )
    lines = [hdr, "-" * len(hdr)]
    for r in rows:
        lines.append(
            f"{r.dataset:<12} {r.order:<7} {r.k:>3} {r.system:<7} "
            f"{r.ipt:>12.1f} {r.pct_of_hash:>9.1f}% {r.imbalance:>6.2f} "
            f"{r.ms_per_10k:>9.1f}"
        )
    return "\n".join(lines)
