"""TPSTry++: the Traversal Pattern Summary Trie (paper Sec. 2, Alg. 1).

Every node represents a connected labelled graph; every parent a sub-graph
of its children, so the structure is a DAG (a graph with ``d`` edges is
reachable from several ``d-1``-edge sub-graphs, e.g. ``a-b-a-b`` from both
``b-a-b`` and ``a-b-a``). Node identity is the factor-multiset signature of
:mod:`repro.core.signature` — two sub-graphs from different queries with
equal signatures share one node, which is exactly the trie-merging step of
Fig. 3. Each node carries a *support*: the fraction of workload frequency
mass belonging to queries that contain the node's graph as a sub-graph
(counted once per query, so support is monotonically non-increasing from
parent to child — the pruning property used in Sec. 3).

Construction enumerates the connected-sub-graph lattice of each query graph
level by level (equivalent to Alg. 1's recursion from every starting edge,
but visiting each sub-graph once per query), linking parent node -> child
node annotated with the incremental factor set ``fac(e, g)`` that Alg. 2
uses for streaming matching.

:class:`MotifIndex` is the motif-filtered view Loom streams against. Its
:meth:`MotifIndex.table` holds one :class:`StepTable` per ordered label
pair the stream shows: the pair's single-edge motif (the window gate),
that motif's support (the tie-break weight) and its motif steps (Alg. 2's
extensions), all from the same ``fac`` arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.core.signature import (
    DEFAULT_P,
    FactorKey,
    LabelHash,
    fac,
    incremental_factors,
)
from repro.graphs.model import LabeledGraph, norm_edge


@dataclass
class TrieNode:
    """One TPSTry++ node: a connected sub-graph up to isomorphism."""

    key: FactorKey
    n_edges: int
    # Representative embedding: labelled edge list of the first sub-graph
    # that produced this node (for inspection / tests only).
    rep_edges: tuple[tuple[str, str], ...]
    support_mass: float = 0.0
    # fac(e, g) multiset-key -> the child node key reached by adding an edge
    # with those factors: sorted(key + fac), so one child per factor key.
    # Alg. 2 line 7 resolves matches through this map.
    children_by_fac: dict[FactorKey, FactorKey] = field(default_factory=dict)


ROOT_KEY: FactorKey = ()


class TPSTry:
    """The TPSTry++ for a workload ``Q`` (built incrementally, Fig. 3)."""

    def __init__(self, label_hash: LabelHash):
        self.h = label_hash
        self.nodes: dict[FactorKey, TrieNode] = {
            ROOT_KEY: TrieNode(ROOT_KEY, 0, ())
        }
        self.total_mass: float = 0.0

    @classmethod
    def from_workload(
        cls,
        workload: list[tuple[LabeledGraph, float]],
        *,
        p: int = DEFAULT_P,
        seed: int = 7,
    ) -> "TPSTry":
        """Build the trie for ``[(query_graph, frequency), ...]``."""
        labels = set()
        for q, _ in workload:
            labels |= q.label_set()
        trie = cls(LabelHash(labels, p=p, seed=seed))
        for q, freq in workload:
            trie.add_query(q, freq)
        return trie

    def add_query(self, q: LabeledGraph, freq: float = 1.0) -> None:
        """Add one query graph with relative frequency ``freq`` (Alg. 1)."""
        if freq <= 0:
            raise ValueError("query frequency must be positive")
        labels = q.labels
        all_edges = q.canonical_edges()
        if not all_edges:
            raise ValueError("query graph has no edges")
        adj = q.adjacency()
        touched: set[FactorKey] = set()

        # Level 1: every single edge, child of the root.
        frontier: dict[frozenset[tuple[int, int]], FactorKey] = {}
        for e in all_edges:
            fac = incremental_factors(e, (), labels, self.h)
            key = self._link(ROOT_KEY, fac, (e,), labels)
            touched.add(key)
            frontier[frozenset([e])] = key

        # Level d -> d+1: extend every connected sub-graph by one incident
        # edge. Each (sub-graph, new edge) pair yields a parent->child link;
        # each distinct sub-graph is expanded once.
        while frontier:
            nxt: dict[frozenset[tuple[int, int]], FactorKey] = {}
            for sub, parent_key in frontier.items():
                verts = {x for e in sub for x in e}
                incident = {
                    norm_edge(v, w)
                    for v in verts
                    for w in adj[v]
                    if norm_edge(v, w) not in sub
                }
                for e in sorted(incident):
                    fac = incremental_factors(e, sub, labels, self.h)
                    child_sub = sub | {e}
                    rep = tuple(sorted(child_sub))
                    key = self._link(parent_key, fac, rep, labels)
                    touched.add(key)
                    nxt.setdefault(frozenset(child_sub), key)
            frontier = nxt

        # Support: counted once per query per node, weighted by frequency.
        for key in touched:
            self.nodes[key].support_mass += freq
        self.total_mass += freq

    def _link(
        self,
        parent_key: FactorKey,
        fac: FactorKey,
        rep_edges: tuple[tuple[int, int], ...],
        labels: dict[int, str],
    ) -> FactorKey:
        """Create/find the child of ``parent_key`` reached via ``fac``."""
        child_key = tuple(sorted(parent_key + fac))
        node = self.nodes.get(child_key)
        if node is None:
            rep = tuple(
                (labels[u], labels[v]) if labels[u] <= labels[v] else (labels[v], labels[u])
                for u, v in rep_edges
            )
            node = TrieNode(child_key, len(rep_edges), tuple(sorted(rep)))
            self.nodes[child_key] = node
        self.nodes[parent_key].children_by_fac[fac] = child_key
        return child_key

    def support(self, key: FactorKey) -> float:
        """Relative support of a node in [0, 1] (root has support 1)."""
        if self.total_mass == 0:
            return 0.0
        if key == ROOT_KEY:
            return 1.0
        return self.nodes[key].support_mass / self.total_mass

    def motifs(self, threshold: float) -> "MotifIndex":
        """Filter to nodes with support >= ``threshold`` (the shaded nodes
        of Fig. 2); support monotonicity guarantees the result is a
        connected sub-DAG rooted at the root."""
        keep = {
            k
            for k in self.nodes
            if k != ROOT_KEY and self.support(k) >= threshold
        }
        return MotifIndex(self, keep, threshold)


class StepTable(NamedTuple):
    """What an edge of one ordered label pair ``(la, lb)`` does in Loom.

    ``edge`` is the single-edge motif node such an edge matches, or None:
    the window gate (Sec. 3) lets the edge in exactly when it is set.
    ``support`` is that node's support (0.0 without one), the edge type's
    weight in equal opportunism's tie-break. ``steps[(node, du, dv)]`` is
    the motif child that an ``la``-``lb`` edge whose endpoints have degrees
    ``du`` and ``dv`` in a match of ``node`` reaches (hits only; every
    absent in-range key is a miss).

    ``from_u`` holds the nodes with a hit at ``du >= 1, dv = 0`` (an edge
    that grows a match from its ``la`` end only), ``from_v`` the mirror
    set, and ``nodes`` every node with a hit."""

    edge: FactorKey | None
    support: float
    steps: dict[tuple[FactorKey, int, int], FactorKey]
    nodes: frozenset[FactorKey]
    from_u: frozenset[FactorKey]
    from_v: frozenset[FactorKey]

    @classmethod
    def of(
        cls,
        edge: FactorKey | None,
        support: float,
        steps: dict[tuple[FactorKey, int, int], FactorKey],
    ) -> "StepTable":
        return cls(
            edge,
            support,
            steps,
            frozenset(n for n, _, _ in steps),
            frozenset(n for n, du, dv in steps if du >= 1 and dv == 0),
            frozenset(n for n, du, dv in steps if du == 0 and dv >= 1),
        )


class MotifIndex:
    """The motif-filtered view of a TPSTry++ used for stream matching."""

    def __init__(self, trie: TPSTry, keep: set[FactorKey], threshold: float):
        self.trie = trie
        self.keep = keep
        self.threshold = threshold
        self._support = {k: trie.support(k) for k in trie.nodes}
        # Ordered label pair -> its step table. Filled lazily: the stream
        # reveals labels absent from the workload.
        self._tables: dict[tuple[str, str], StepTable] = {}

    def __len__(self) -> int:
        return len(self.keep)

    def support(self, key: FactorKey) -> float:
        return self._support[key]

    def single_edge_motif(self, fac: FactorKey) -> FactorKey | None:
        """Motif node for a single edge with factors ``fac``, if any
        (Sec. 3: the gate deciding whether an edge enters the window)."""
        return self.motif_child(ROOT_KEY, fac)

    def motif_child(self, key: FactorKey, fac: FactorKey) -> FactorKey | None:
        """Motif child of node ``key`` whose factor-set difference equals
        ``fac`` (Alg. 2 line 7: ``fac(e, g) = c.signatures \\ n.signatures``)."""
        child = self.trie.nodes[key].children_by_fac.get(fac)
        return child if child in self.keep else None

    def table(self, la: str, lb: str) -> StepTable:
        """The table of ``la``-``lb`` edges: the one place that decides
        what such an edge does. Built on first use, so there is one per
        ordered label pair the stream shows, workload labels or not.

        ``edge`` is ``single_edge_motif(fac(h, la, lb))``. The steps come
        from :meth:`motif_child` over every endpoint degree pair ``du, dv``
        in ``[0, n_edges(node)]``: a match's vertices have at most as many
        sub-graph edges as the match, so these are all the degrees an
        extension can see, and a lookup equals ``motif_child(node, fac(h,
        la, lb, du, dv))``. Both are decided by factor arithmetic (never by
        comparing query labels), so signature collisions behave exactly as
        they do in matching. ``fac`` is symmetric, so the same calls fill
        the mirror table of ``lb``-``la`` edges, which shares ``edge`` and
        ``support``.
        """
        table = self._tables.get((la, lb))
        if table is None:
            h = self.trie.h
            edge = self.single_edge_motif(fac(h, la, lb))
            support = self._support[edge] if edge is not None else 0.0
            steps, mirror = {}, {}
            for key in self.keep:
                degrees = range(self.trie.nodes[key].n_edges + 1)
                for du in degrees:
                    for dv in degrees:
                        child = self.motif_child(key, fac(h, la, lb, du, dv))
                        if child is not None:
                            steps[(key, du, dv)] = mirror[(key, dv, du)] = child
            self._tables[(lb, la)] = StepTable.of(edge, support, mirror)
            table = self._tables[(la, lb)] = StepTable.of(edge, support, steps)
        return table

    def max_motif_edges(self) -> int:
        """Edge count of the largest motif (bounds match growth)."""
        return max((self.trie.nodes[k].n_edges for k in self.keep), default=0)
