"""Inter-partition-traversal (ipt) accounting over a partitioned graph.

This is the paper's partition-quality measure (Sec. 1.3, 5): execute the
query workload ``Q`` over the partitioned graph and count traversals of
edges whose endpoints live in different partitions, weighted by query
frequency. Like the paper we execute over *logical* partitions — the
partition id is a column, and the counting is a Spark SQL aggregation.

Which sub-graphs match a query depends only on the graph; only "is this
edge cut?" depends on the assignment. So the ipt of query q is a weighted
edge cut,

    n_ipt_q = sum over dedges rows (src, dst) of w_q(src, dst) * [part(src) != part(dst)]

where ``w_q(src, dst)`` counts the (embedding, pattern edge) pairs that map
a pattern edge onto the row, and ``n_matches_q = sum(w_q) / |E(q)|``.
:func:`edge_weights` runs the embedding join of :mod:`repro.eval.matcher`
once per graph and pattern set and keeps the weights on the driver while
the graph lives; :func:`workload_ipt` attaches one assignment's partitions
to them and sums every query's cut in one Spark SQL aggregate. ``ipt_sql``,
which charges each embedding directly, stays the reference: the tests and
the benchmark check the two agree query by query on DuckDB.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.eval.matcher import DEDGES, WEIGHTS, cut_sql, workload_weights_sql
from repro.graphs.model import LabeledGraph
from repro.workloads.queries import Workload


def partition_tables(
    graph: LabeledGraph, assignment: dict[int, int]
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Pandas (vertices, dedges) tables for a partitioned graph.

    ``vertices`` is (vid, label, part) — vertices the partitioner never saw
    (isolated; they join no embedding) get part = -1; no SQL reads it.
    ``dedges`` holds both orientations of every undirected edge,
    denormalised with each endpoint's label and partition (see
    :mod:`repro.eval.matcher`).
    """
    vids = sorted(graph.labels)
    vertices = pd.DataFrame(
        {
            "vid": vids,
            "label": [graph.label_of(v) for v in vids],
            "part": [assignment.get(v, -1) for v in vids],
        }
    )
    ce = graph.canonical_edges()
    src = [u for u, _ in ce] + [v for _, v in ce]
    dst = [v for _, v in ce] + [u for u, _ in ce]
    dedges = pd.DataFrame(
        {
            "src": src,
            "dst": dst,
            "src_label": [graph.label_of(v) for v in src],
            "dst_label": [graph.label_of(v) for v in dst],
            "src_part": [assignment.get(v, -1) for v in src],
            "dst_part": [assignment.get(v, -1) for v in dst],
        }
    )
    return vertices, dedges


def register_views(spark: SparkSession, dedges: pd.DataFrame) -> None:
    """Register ``dedges`` as the temp view the compiled SQL reads."""
    spark.createDataFrame(dedges).createOrReplaceTempView(DEDGES)


@dataclass(frozen=True)
class QueryIpt:
    """Per-query result: embeddings found and ipt charged."""

    n_matches: int
    n_ipt: int
    frequency: float

    @property
    def weighted_ipt(self) -> float:
        return self.frequency * self.n_ipt


@dataclass(frozen=True)
class WorkloadIpt:
    """Workload-level result: the quality of one partitioning."""

    per_query: tuple[QueryIpt, ...]

    @property
    def total(self) -> float:
        """Frequency-weighted ipt — the paper's quality score."""
        return sum(q.weighted_ipt for q in self.per_query)

    @property
    def total_matches(self) -> int:
        return sum(q.n_matches for q in self.per_query)


@dataclass(frozen=True)
class EdgeWeights:
    """A graph's per-edge workload weights, held on the driver.

    Row i is a directed ``dedges`` row (vids[src[i]], vids[dst[i]]) and
    ``w[i, q]`` is query q's weight on it (see ``matcher.weights_sql``).
    """

    vids: np.ndarray  # distinct vertices of the rows
    src: np.ndarray  # row -> index into vids
    dst: np.ndarray
    w: np.ndarray  # rows x queries
    n_matches: tuple[int, ...]  # per query: sum of its weights / |E(q)|


# id(graph) -> (weak reference to the graph, pattern key, its weights). One
# entry per live graph; an entry leaves with its graph.
_WEIGHTS: dict[int, tuple[weakref.ref, tuple, EdgeWeights]] = {}


def _pattern_key(workload: Workload) -> tuple:
    """The patterns' structure (labels and canonical edges), in workload
    order; frequencies are not part of it."""
    return tuple(
        (tuple(sorted(p.labels.items())), tuple(p.canonical_edges()))
        for p, _ in workload
    )


def edge_weights(
    spark: SparkSession, graph: LabeledGraph, workload: Workload
) -> EdgeWeights:
    """``graph``'s per-edge weights under ``workload``'s patterns, computed
    with one Spark SQL query the first time and kept while ``graph`` lives.

    The cache is keyed on the graph object's identity, so an equal but
    distinct graph gets its own weights, and on the patterns' structure.
    """
    key = _pattern_key(workload)
    gid = id(graph)
    entry = _WEIGHTS.get(gid)
    if entry is not None and entry[0]() is graph and entry[1] == key:
        return entry[2]
    register_views(spark, partition_tables(graph, {})[1])
    patterns = [p for p, _ in workload]
    pdf = spark.sql(workload_weights_sql(patterns)).toPandas()
    n = len(pdf)
    vids, ends = np.unique(
        np.concatenate([pdf["src"].to_numpy(), pdf["dst"].to_numpy()]),
        return_inverse=True,
    )
    w = pdf[[f"w{q}" for q in range(len(patterns))]].to_numpy(dtype=np.int64)
    weights = EdgeWeights(
        vids,
        ends[:n].astype(np.int32),
        ends[n:].astype(np.int32),
        w,
        tuple(int(total) // p.n_edges for total, p in zip(w.sum(axis=0), patterns)),
    )
    _WEIGHTS[gid] = (weakref.ref(graph, lambda _: _WEIGHTS.pop(gid, None)), key, weights)
    return weights


def cut_table(weights: EdgeWeights, assignment: dict[int, int]) -> pd.DataFrame:
    """The ``WEIGHTS`` table of one partitioning: (src_part, dst_part, w0,
    ..., w{n-1}) per weight row, part -1 for a vertex the assignment lacks
    (as in :func:`partition_tables`)."""
    parts = np.fromiter(
        (assignment.get(v, -1) for v in weights.vids.tolist()),
        dtype=np.int64,
        count=len(weights.vids),
    )
    return pd.DataFrame(
        {"src_part": parts[weights.src], "dst_part": parts[weights.dst]}
        | {f"w{q}": weights.w[:, q] for q in range(weights.w.shape[1])}
    )


def workload_ipt(
    spark: SparkSession,
    graph: LabeledGraph,
    assignment: dict[int, int],
    workload: Workload,
) -> WorkloadIpt:
    """Execute ``workload`` over the partitioned ``graph`` and count ipt.

    Every query's ipt is a weighted edge cut of the graph's per-edge
    weights (:func:`edge_weights`): one Spark SQL aggregate per call.
    """
    weights = edge_weights(spark, graph, workload)
    rows = cut_table(weights, assignment)
    schema = ", ".join(f"{c} long" for c in rows.columns)  # rows may be empty
    # One partition, so the aggregate is one Spark job with no shuffle.
    spark.createDataFrame(rows, schema).coalesce(1).createOrReplaceTempView(WEIGHTS)
    cut = spark.sql(cut_sql(len(workload))).collect()[0]
    return WorkloadIpt(
        tuple(
            QueryIpt(n, int(cut[f"n_ipt{q}"]), freq)
            for q, (n, (_, freq)) in enumerate(zip(weights.n_matches, workload))
        )
    )
