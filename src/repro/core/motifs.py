"""Sliding-window motif matching over a graph stream (paper Sec. 3, Alg. 2).

The :class:`WindowMatcher` maintains Loom's temporary partition ``P_temp``
(the window of the most recent motif-relevant edges) together with the
``matchList`` map: vertex -> set of ⟨edge-set, trie-node⟩ motif matches
containing that vertex. All isomorphism checks are incremental factor
arithmetic against the motif-filtered TPSTry++ — signatures are never
recomputed from scratch.

Per arriving edge ``e = (v1, v2)``:

1. If ``e``'s single-edge factors match no single-edge motif, it is
   rejected (the caller assigns it immediately via LDG; it never enters the
   window and displaces nothing).
2. Otherwise ``e`` joins the window and ``⟨{e}, m⟩`` joins matchList.
3. Every existing match touching ``v1`` or ``v2`` is extended with ``e`` if
   the match's trie node has a motif child whose factor difference equals
   ``fac(e, match)`` (Alg. 2 lines 4-8). The edge-type extension filter
   (:meth:`MotifIndex.extendable`) first drops every match whose trie node no
   edge of ``e``'s label pair can extend, whatever the endpoint degrees, so
   only the few matches ``e`` can grow reach ``fac``/``motif_child``.
4. Every pair of matches drawn from matchList(v1) x matchList(v2) of which
   at least one contains ``e`` is recursively joined edge-by-edge from the
   smaller into the larger, recording a new match only when the smaller
   match is exhausted (Alg. 2 lines 11-18). Pairs are tried only when some
   match other than ``⟨{e}, m⟩`` contains ``e``.

New matches never replace old ones; matches are dropped only when one of
their edges is permanently assigned to a partition (``remove_edges``).

**Tie order.** :meth:`WindowMatcher.matches_containing` sorts by (support,
size, first edge); equal keys are common, and their order is the iteration
order of the ``_by_eid`` set, which depends on the order matches were
recorded in. That order follows the iteration order of the flat matchList
sets, so the matchList stays one flat set per vertex: bucketing it by trie
node records the same matches in another order and changes which tied
matches equal opportunism rations (and thus the assignment).
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.signature import fac
from repro.core.tpstry import FactorKey, MotifIndex
from repro.partitioners.base import StreamEdge


@dataclass(frozen=True, slots=True)
class Match:
    """A motif-matching sub-graph in the window: its window edge ids, the
    TPSTry++ node (motif) it matches, and its vertices. The vertex set is
    derived from the edges, so it takes no part in equality or hashing."""

    eids: frozenset[int]
    node: FactorKey
    vertices: frozenset[int] = field(compare=False)

    def __len__(self) -> int:
        return len(self.eids)


class WindowMatcher:
    """``P_temp`` + ``matchList`` state machine (one instance per stream)."""

    def __init__(self, motifs: MotifIndex):
        self.motifs = motifs
        self.h = motifs.trie.h
        # eid -> edge, in arrival order; the edges carry their endpoint labels.
        self.window: OrderedDict[int, StreamEdge] = OrderedDict()
        # vertex -> matches containing it; a vertex is a key exactly while
        # it belongs to some match.
        self.match_list: dict[int, set[Match]] = {}
        self._all: set[Match] = set()
        self._by_eid: dict[int, set[Match]] = {}  # edge -> matches containing it
        self._max_edges = motifs.max_motif_edges()
        # Per-edge-set vertex degrees (sub-graph degrees drive fac(e, g));
        # cached so hub vertices with hundreds of matches don't recompute
        # them for every arriving edge.
        self._deg: dict[frozenset[int], dict[int, int]] = {}
        # (label_u, label_v, deg_u_in_g, deg_v_in_g) -> fac key memo: the
        # incremental factors depend only on endpoint labels and their
        # current sub-graph degrees.
        self._fac_memo: dict[tuple[str, str, int, int], tuple[int, ...]] = {}

    # ---------------------------------------------------------------- utils
    def __len__(self) -> int:
        return len(self.window)

    def oldest(self) -> StreamEdge | None:
        return next(iter(self.window.values()), None)

    def _match(self, eids: frozenset[int], node: FactorKey) -> Match:
        # Built edge by edge, so the vertex set's iteration order (which
        # orders equal opportunism's floating-point neighbour sums) depends
        # only on the edge set.
        window = self.window
        verts = frozenset(x for i in eids for x in (window[i].u, window[i].v))
        return Match(eids, node, verts)

    def _degrees(self, eids: frozenset[int]) -> dict[int, int]:
        """Cached sub-graph degree map for a window edge set."""
        deg = self._deg.get(eids)
        if deg is None:
            deg = {}
            for i in eids:
                e = self.window[i]
                deg[e.u] = deg.get(e.u, 0) + 1
                deg[e.v] = deg.get(e.v, 0) + 1
            self._deg[eids] = deg
        return deg

    def _fac(self, e: StreamEdge, deg: dict[int, int]) -> tuple[int, ...]:
        """``fac(e, g)`` from ``g``'s degree map, memoised per edge type
        and endpoint degrees."""
        key = (e.lu, e.lv, deg.get(e.u, 0), deg.get(e.v, 0))
        f = self._fac_memo.get(key)
        if f is None:
            f = self._fac_memo[key] = fac(self.h, *key)
        return f

    def _record(self, m: Match) -> bool:
        """Insert a match into matchList for all its vertices; dedup."""
        if m in self._all:
            return False
        self._all.add(m)
        for v in m.vertices:
            self.match_list.setdefault(v, set()).add(m)
        for eid in m.eids:
            self._by_eid.setdefault(eid, set()).add(m)
        return True

    # ------------------------------------------------------------ main path
    def offer(self, e: StreamEdge) -> bool:
        """Process a new stream edge. Returns True if it entered the window
        (matched a single-edge motif), False if the caller must assign it
        immediately."""
        node = self.motifs.single_edge_motif(self._fac(e, {}))
        if node is None:
            return False
        self.window[e.eid] = e
        self._record(self._match(frozenset([e.eid]), node))
        self._extend_with(e)
        self._join_pairs(e)
        return True

    def _extend_with(self, e: StreamEdge) -> None:
        """Alg. 2 lines 4-8: grow each match touching e's endpoints by e.

        Only matches whose trie node can take an edge of e's type (see
        :meth:`MotifIndex.extendable`) are tried; a match at the largest
        motif size never can. Candidates are snapshotted because _record
        mutates match_list.
        """
        u, v = e.u, e.v
        can = self.motifs.extendable(e.lu, e.lv)
        if not can:
            return
        candidates = [
            m
            for m in self.match_list.get(u, set()) | self.match_list.get(v, set())
            if m.node in can and e.eid not in m.eids
        ]
        for m in candidates:
            child = self.motifs.motif_child(m.node, self._fac(e, self._degrees(m.eids)))
            if child is not None:
                self._record(self._match(m.eids | {e.eid}, child))

    def _join_pairs(self, e: StreamEdge) -> None:
        """Alg. 2 lines 11-18: join matches across e's two endpoints.

        Any *newly formed* combined match must contain the just-arrived
        edge ``e`` (joins among older matches were already attempted when
        their own last edge arrived), so only pairs where at least one
        member contains ``e`` are tried: every match containing ``e`` holds
        both endpoints, so it pairs with all of the other endpoint's
        matches, and a match without ``e`` pairs only with those containing
        ``e``. A match already at the largest-motif size can never absorb
        another edge and is never paired.
        """
        u, v = e.u, e.v
        # big + {e} is exactly what _extend_with already did, and
        # {e} + {e'} reaches the same trie node as extending {e'} by e
        # (the trie links every parent), so {e} itself never pairs.
        just_e = frozenset([e.eid])

        def pairable(m: Match) -> bool:
            return len(m.eids) < self._max_edges and m.eids != just_e

        if not any(pairable(m) for m in self._by_eid[e.eid]):
            return
        ms1 = [m for m in self.match_list[u] if pairable(m)]
        ms2 = [m for m in self.match_list[v] if pairable(m)]
        ms2_e = [m for m in ms2 if e.eid in m.eids]
        for m1 in ms1:
            for m2 in ms2 if e.eid in m1.eids else ms2_e:
                if m1 == m2 or m2.eids <= m1.eids or m1.eids <= m2.eids:
                    continue
                big, small = (m1, m2) if len(m1.eids) >= len(m2.eids) else (m2, m1)
                rest = small.eids - big.eids
                if len(big.eids) + len(rest) <= self._max_edges:
                    self._grow(big.eids, big.node, rest)

    def _grow(
        self,
        base: frozenset[int],
        node: FactorKey,
        remaining: frozenset[int],
        deg: dict[int, int] | None = None,
    ) -> None:
        """Recursively add ``remaining`` edges to ``base``; record the match
        only when every edge has been placed ("grow ... updating matchList
        only if all edges from the smaller match have been added").

        ``deg`` carries the sub-graph degrees through the recursion so
        transient edge sets never enter the degree cache.
        """
        if not remaining:
            self._record(self._match(base, node))
            return
        if deg is None:
            deg = self._degrees(base)
        for eid in sorted(remaining):
            e2 = self.window[eid]
            if e2.u not in deg and e2.v not in deg:
                continue  # trie children always add incident edges
            if node not in self.motifs.extendable(e2.lu, e2.lv):
                continue
            child = self.motifs.motif_child(node, self._fac(e2, deg))
            if child is not None:
                ndeg = dict(deg)
                ndeg[e2.u] = ndeg.get(e2.u, 0) + 1
                ndeg[e2.v] = ndeg.get(e2.v, 0) + 1
                self._grow(base | {eid}, child, remaining - {eid}, ndeg)

    # ------------------------------------------------------------ eviction
    def matches_containing(self, eid: int) -> list[Match]:
        """All window matches containing edge ``eid``, sorted by descending
        motif support then ascending size (Sec. 4's support ordering; the
        single-edge match always sorts first by support monotonicity)."""
        out = self._by_eid.get(eid, set())
        return sorted(
            out,
            key=lambda m: (-self.motifs.support(m.node), len(m.eids), min(m.eids)),
        )

    def remove_edges(self, eids: set[int]) -> None:
        """Permanently assign edges: drop them from the window and drop
        every match touching any of them (their edges left ``P_temp``)."""
        doomed = set()
        for eid in eids:
            doomed |= self._by_eid.get(eid, set())
        for m in doomed:
            self._all.discard(m)
            for v in m.vertices:
                s = self.match_list.get(v)
                if s is not None:
                    s.discard(m)
                    if not s:
                        del self.match_list[v]
            for eid in m.eids:
                s = self._by_eid.get(eid)
                if s is not None:
                    s.discard(m)
                    if not s:
                        del self._by_eid[eid]
            self._deg.pop(m.eids, None)
        for eid in eids:
            self.window.pop(eid, None)
