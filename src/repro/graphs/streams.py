"""Graph stream orderings (paper Sec. 5.1).

The evaluation streams each graph from disk in one of three orders:

* **breadth-first** — BFS across all connected components; an edge is
  emitted the first time the traversal crosses it;
* **depth-first** — the DFS analogue;
* **random** — a random permutation of the edge list (the
  pseudo-adversarial order for streaming partitioners [30]).

All orders are deterministic in ``seed`` (start vertices and neighbour
visit order are drawn from a seeded RNG) and cover *every* edge exactly
once, including edges of vertices discovered late (when a vertex is
dequeued, all not-yet-emitted incident edges are emitted — matching "a
breadth-first search across the connected components of a graph" over
edges). Orderings are computed driver-side in O(V + E); see DESIGN.md
Sec. 3 for the layering rationale.
"""
from __future__ import annotations

from collections import deque

import numpy as np

from repro.graphs.model import LabeledGraph, norm_edge

ORDERS = ("bfs", "random", "dfs")


def random_order(graph: LabeledGraph, *, seed: int = 0) -> list[tuple[int, int]]:
    edges = graph.canonical_edges()
    g = np.random.default_rng(seed)
    return [edges[i] for i in g.permutation(len(edges))]


def _traversal_order(
    graph: LabeledGraph, *, seed: int, lifo: bool
) -> list[tuple[int, int]]:
    g = np.random.default_rng(seed)
    adj = graph.adjacency()
    for v in adj:
        adj[v] = [adj[v][i] for i in g.permutation(len(adj[v]))]
    vertices = list(graph.labels)
    starts = [vertices[i] for i in g.permutation(len(vertices))]
    emitted: set[tuple[int, int]] = set()
    visited: set[int] = set()
    out: list[tuple[int, int]] = []

    def emit_incident(v: int) -> list[int]:
        nxt = []
        for w in adj[v]:
            e = norm_edge(v, w)
            if e not in emitted:
                emitted.add(e)
                out.append(e)
            if w not in visited:
                nxt.append(w)
        return nxt

    for s in starts:
        if s in visited:
            continue
        frontier: deque[int] = deque([s])
        visited.add(s)
        while frontier:
            v = frontier.pop() if lifo else frontier.popleft()
            for w in emit_incident(v):
                if w not in visited:
                    visited.add(w)
                    frontier.append(w)
    if len(out) != graph.n_edges:
        raise RuntimeError(f"traversal emitted {len(out)} of {graph.n_edges} edges")
    return out


def bfs_order(graph: LabeledGraph, *, seed: int = 0) -> list[tuple[int, int]]:
    return _traversal_order(graph, seed=seed, lifo=False)


def dfs_order(graph: LabeledGraph, *, seed: int = 0) -> list[tuple[int, int]]:
    return _traversal_order(graph, seed=seed, lifo=True)


def ordered_stream(
    graph: LabeledGraph, order: str, *, seed: int = 0
) -> list[tuple[int, int]]:
    """Edge list of ``graph`` in the named stream order."""
    if order == "bfs":
        return bfs_order(graph, seed=seed)
    if order == "dfs":
        return dfs_order(graph, seed=seed)
    if order == "random":
        return random_order(graph, seed=seed)
    raise ValueError(f"unknown stream order {order!r}; expected one of {ORDERS}")
