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
"""
from __future__ import annotations

from dataclasses import dataclass, field

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
    children: set[FactorKey] = field(default_factory=set)
    # fac(e, g) multiset-key -> child node keys reachable by adding an edge
    # with those factors. Alg. 2 line 7 resolves matches through this map.
    children_by_fac: dict[FactorKey, set[FactorKey]] = field(default_factory=dict)


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
        parent = self.nodes[parent_key]
        parent.children.add(child_key)
        parent.children_by_fac.setdefault(fac, set()).add(child_key)
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


class MotifIndex:
    """The motif-filtered view of a TPSTry++ used for stream matching."""

    def __init__(self, trie: TPSTry, keep: set[FactorKey], threshold: float):
        self.trie = trie
        self.keep = keep
        self.threshold = threshold
        # Unordered label pair -> the motif nodes an edge of that type can
        # extend. Filled lazily: the stream reveals labels absent from the
        # workload.
        self._extendable: dict[tuple[str, str], frozenset[FactorKey]] = {}

    def __len__(self) -> int:
        return len(self.keep)

    def is_motif(self, key: FactorKey) -> bool:
        return key in self.keep

    def support(self, key: FactorKey) -> float:
        return self.trie.support(key)

    def single_edge_motif(self, fac: FactorKey) -> FactorKey | None:
        """Motif node for a single edge with factors ``fac``, if any
        (Sec. 3: the gate deciding whether an edge enters the window)."""
        root = self.trie.nodes[ROOT_KEY]
        for child in root.children_by_fac.get(fac, ()):
            if child in self.keep:
                return child
        return None

    def motif_child(self, key: FactorKey, fac: FactorKey) -> FactorKey | None:
        """Motif child of node ``key`` whose factor-set difference equals
        ``fac`` (Alg. 2 line 7: ``fac(e, g) = c.signatures \\ n.signatures``)."""
        node = self.trie.nodes[key]
        for child in node.children_by_fac.get(fac, ()):
            if child in self.keep:
                return child
        return None

    def extendable(self, la: str, lb: str) -> frozenset[FactorKey]:
        """Edge-type extension filter: the motif nodes that an ``la``-``lb``
        edge takes to a motif child for some endpoint degrees ``du, dv`` in
        ``[0, n_edges(node)]``.

        A match's vertices have at most as many sub-graph edges as the
        match, so a node outside the set proves :meth:`motif_child` returns
        ``None`` for every such edge. Decided by the same factor arithmetic
        as matching (never by comparing query labels), so signature
        collisions behave exactly as they do in :meth:`motif_child`.
        """
        pair = (la, lb) if la <= lb else (lb, la)
        nodes = self._extendable.get(pair)
        if nodes is None:
            found = set()
            for key in self.keep:
                degrees = range(self.trie.nodes[key].n_edges + 1)
                if any(
                    self.motif_child(key, fac(self.trie.h, la, lb, du, dv)) is not None
                    for du in degrees
                    for dv in degrees
                ):
                    found.add(key)
            nodes = self._extendable[pair] = frozenset(found)
        return nodes

    def max_motif_edges(self) -> int:
        """Edge count of the largest motif (bounds match growth)."""
        return max((self.trie.nodes[k].n_edges for k in self.keep), default=0)
