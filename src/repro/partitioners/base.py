"""Shared streaming-partitioner machinery.

All four systems evaluated in the paper (Hash, LDG, Fennel, Loom) consume
the same input — an ordered stream of labelled undirected edges — and
produce the same output: a vertex-centric k-way assignment (Sec. 1.3).
:class:`PartitionState` tracks vertex placements, per-partition sizes and
the adjacency revealed to vertices not yet placed (streaming heuristics
score a vertex by its already-assigned neighbours). Once a vertex is
assigned it is never moved and never replicated (strict one-pass streaming
model, Sec. 1.2).

Hash, LDG and Fennel place a vertex the first time it appears, so when
their rule runs the vertex has revealed one neighbour, the other endpoint
of the arriving edge: :meth:`StreamingPartitioner.add_edge` hands the rule
that neighbour's partition and keeps no adjacency. Only Loom, which holds
vertices back in its window, reveals edges to :meth:`PartitionState.observe_edge`.

:class:`StreamEdge` is the one edge type of the program: the stream, Loom's
window and the tests all carry it.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.graphs.model import LabeledGraph


@dataclass(frozen=True, slots=True)
class StreamEdge:
    """One element of a labelled edge stream."""

    eid: int
    u: int
    v: int
    lu: str
    lv: str


def stream_of(graph: LabeledGraph, order: list[tuple[int, int]]) -> Iterator[StreamEdge]:
    """Materialise an edge ordering of ``graph`` as a labelled stream."""
    for i, (u, v) in enumerate(order):
        yield StreamEdge(i, u, v, graph.label_of(u), graph.label_of(v))


class PartitionState:
    """Vertex assignments + partition occupancies + the adjacency revealed
    to unplaced vertices."""

    def __init__(self, k: int, n_vertices: int, *, slack: float = 1.1):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.n = n_vertices
        # Hard capacity: the maximum-imbalance cap b·n/k (paper Sec. 4,
        # emulating Fennel's ν·n/k). A partition at this size may not
        # receive further vertices while any alternative exists.
        self.capacity = max(1, math.ceil(slack * n_vertices / k))
        # Soft capacity: LDG's C = n/k. Residual-capacity weights are
        # computed against this, so the penalty reaches zero exactly at
        # the balanced size — with the slacked C the weight never hits
        # zero and BFS neighbour-following snowballs one partition to the
        # hard cap, which is not LDG's published behaviour (1-3% imbalance).
        self.soft_capacity = max(1, math.ceil(n_vertices / k))
        self.sizes = [0] * k
        self.assignment: dict[int, int] = {}
        self.adj: dict[int, set[int]] = {}

    def observe_edge(self, u: int, v: int) -> None:
        """Reveal an edge to the adjacency of each endpoint not yet placed.
        Adjacency is read only for unplaced vertices (the one being placed,
        and the unplaced vertices of a cluster), and a placed vertex stays
        placed, so a placed endpoint's set would never be read again. A
        vertex's set is made on its first edge, not offered on each."""
        adj, assignment = self.adj, self.assignment
        if u not in assignment:
            s = adj.get(u)
            if s is None:
                adj[u] = {v}
            else:
                s.add(v)
        if v not in assignment:
            s = adj.get(v)
            if s is None:
                adj[v] = {u}
            else:
                s.add(u)

    def assign(self, v: int, pid: int) -> None:
        if v in self.assignment:
            if self.assignment[v] != pid:
                raise ValueError(f"vertex {v} already assigned (no reassignment)")
            return
        self.assignment[v] = pid
        self.sizes[pid] += 1

    def is_assigned(self, v: int) -> bool:
        return v in self.assignment

    def neighbour_counts(self, v: int) -> dict[int, int]:
        """{i: |N(v) ∩ S_i|} over the revealed adjacency, for every partition
        holding a neighbour of ``v`` (the partitions ``v`` touches)."""
        counts: dict[int, int] = {}
        assignment = self.assignment
        for w in self.adj.get(v, ()):
            pid = assignment.get(w)
            if pid is not None:
                counts[pid] = counts.get(pid, 0) + 1
        return counts

    def neighbours_in(self, v: int, pid: int) -> int:
        """|N(v) ∩ S_pid| over the revealed adjacency."""
        return self.neighbour_counts(v).get(pid, 0)

    def least_loaded(self) -> int:
        """The smallest partition, lowest index first."""
        return self.sizes.index(min(self.sizes))

    def candidates(self, touched: dict[int, int], cap: float) -> list[int]:
        """The partitions below ``cap`` that can win a vertex score whose
        value on a partition not in ``touched`` depends only on its size and
        never rises with it (LDG, Fennel with γ ≥ 1): every touched one, plus
        the least-loaded untouched one. The other untouched partitions score
        no higher than that one and lose the (-size, -pid) tie-break, so an
        argmax over these candidates equals the argmax over all k."""
        sizes = self.sizes
        out = [pid for pid in touched if sizes[pid] < cap]
        pid = self.least_loaded()
        if pid in touched:  # rare: scan for the least-loaded untouched one
            rest = [(s, i) for i, s in enumerate(sizes) if s < cap and i not in touched]
            if rest:
                out.append(min(rest)[1])
        elif sizes[pid] < cap:
            out.append(pid)
        return out

    def imbalance(self) -> float:
        """max partition size over the balanced ideal n/k."""
        if self.n == 0:
            return 1.0
        return max(self.sizes) / (self.n / self.k)


class StreamingPartitioner(ABC):
    """One-pass partitioner: edges in, vertex->partition map out."""

    name: str = "base"

    def __init__(self, k: int, n_vertices: int, *, slack: float = 1.1):
        self.state = PartitionState(k, n_vertices, slack=slack)

    def add_edge(self, e: StreamEdge) -> None:
        """Consume one stream element. The vertex rule is applied to an edge
        stream as the paper's footnote 7 describes for LDG: each unassigned
        endpoint is placed, in endpoint order. Every vertex is placed at its
        first edge, so the only neighbour it has revealed is the other
        endpoint: its counts are ``{part(other): 1}`` when that one is
        placed, else ``{}`` (a self-loop's other endpoint is itself)."""
        st = self.state
        assignment = st.assignment
        u, v = e.u, e.v
        if u not in assignment:
            pid = assignment.get(v)
            st.assign(u, self.choose(u, {} if pid is None else {pid: 1}))
        if v not in assignment:  # u is placed by now
            st.assign(v, self.choose(v, {assignment[u]: 1}))

    @abstractmethod
    def choose(self, v: int, counts: dict[int, int]) -> int:
        """The partition for unassigned vertex ``v`` (the system's rule),
        given ``counts``, its revealed neighbours per partition holding one
        (as :meth:`PartitionState.neighbour_counts` returns them)."""

    def finalize(self) -> None:
        """Flush any buffered state (no-op for memoryless partitioners)."""

    def partition(self, stream: Iterable[StreamEdge]) -> dict[int, int]:
        """Run the full stream and return the vertex assignment."""
        for e in stream:
            self.add_edge(e)
        self.finalize()
        return dict(self.state.assignment)
