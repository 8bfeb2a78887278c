"""Labelled-graph data model shared by the partitioners and the trie.

The paper (Sec. 1.3) defines a labelled graph ``G = (V, E, L_V, f_l)`` with
undirected edges and a surjective vertex->label map. Query patterns are just
small labelled graphs. This module provides a light driver-side
representation used by the streaming state machines; the data-parallel side
(generation, matching, ipt accounting) works on Spark DataFrames with the
schemas produced by :func:`vertices_df` / :func:`edges_df`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import pairwise
from typing import Iterable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def norm_edge(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


@dataclass
class LabeledGraph:
    """An undirected labelled graph held in driver memory.

    ``labels`` maps vertex id -> label string; ``edges`` is a list of
    (u, v) pairs. Self-loops are rejected (query patterns in the paper are
    simple graphs); parallel edges are collapsed by :meth:`canonical_edges`.
    The graph is not mutated after construction, so the canonical edge list
    is computed once; when ``edges`` already is that list (sorted, unique
    ``(min, max)`` tuples, as the generators pass it) it is shared, not
    copied.
    """

    labels: dict[int, str]
    edges: list[tuple[int, int]] = field(default_factory=list)
    _canonical: list[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) not supported")
            if u not in self.labels or v not in self.labels:
                raise ValueError(f"edge ({u},{v}) references unlabelled vertex")
        ce = self.edges
        if not (
            isinstance(ce, list)
            and all(type(e) is tuple and e[0] < e[1] for e in ce)
            and all(a < b for a, b in pairwise(ce))
        ):
            ce = sorted({norm_edge(u, v) for u, v in ce})
        self._canonical = ce

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return len(self._canonical)

    def canonical_edges(self) -> list[tuple[int, int]]:
        """Deduplicated, canonically-oriented edge list, sorted (shared:
        callers must not mutate it)."""
        return self._canonical

    def degree(self, v: int) -> int:
        return sum(1 for e in self._canonical if v in e)

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in self.labels}
        for u, v in self._canonical:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def label_of(self, v: int) -> str:
        return self.labels[v]

    def label_set(self) -> set[str]:
        return set(self.labels.values())


def subgraph_degrees(edges: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Vertex -> degree within the sub-graph induced by ``edges``."""
    deg: dict[int, int] = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def vertices_df(spark: SparkSession, graph: LabeledGraph) -> DataFrame:
    """Spark DataFrame (vid: long, label: string) for a labelled graph."""
    pdf = pd.DataFrame(
        {"vid": list(graph.labels.keys()), "label": list(graph.labels.values())}
    )
    return spark.createDataFrame(pdf)


def edges_df(spark: SparkSession, graph: LabeledGraph) -> DataFrame:
    """Spark DataFrame (src: long, dst: long), canonical orientation."""
    ce = graph.canonical_edges()
    pdf = pd.DataFrame({"src": [u for u, _ in ce], "dst": [v for _, v in ce]})
    return spark.createDataFrame(pdf)
