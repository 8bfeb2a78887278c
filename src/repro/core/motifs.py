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
   window and displaces nothing). The gate depends only on ``e``'s ordered
   label pair, so it reads the ``edge`` node of that pair's step table
   (:meth:`MotifIndex.table`), which steps 3 and 4 use too.
2. Otherwise ``e`` joins the window and ``⟨{e}, m⟩`` joins matchList.
3. Every existing match touching ``v1`` or ``v2`` is extended with ``e`` if
   the match's trie node has a motif child whose factor difference equals
   ``fac(e, match)`` (Alg. 2 lines 4-8). ``fac(e, match)`` depends only on
   ``e``'s labels and its endpoints' degrees in the match, so the step table
   of ``e``'s label pair (:meth:`MotifIndex.table`) maps (trie node, degree
   of ``v1``, degree of ``v2``) straight to that child. Only matches whose
   node has some step are looked up, and when ``⟨{e}, m⟩`` is the only
   match of one endpoint, only the nodes the table can grow from the other
   endpoint alone; when there are none, the matchList is not scanned.
4. Every pair of matches drawn from matchList(v1) x matchList(v2) of which
   at least one contains ``e`` is recursively joined edge-by-edge from the
   smaller into the larger, recording a new match only when the smaller
   match is exhausted (Alg. 2 lines 11-18). Pairs are tried only when some
   match other than ``⟨{e}, m⟩`` contains ``e``. Such a match has at least
   two edges and a pairable one fewer than the largest motif, so with no
   motif of three or more edges no pair is ever tried and the step is
   skipped.

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

from repro.core.tpstry import FactorKey, MotifIndex, StepTable
from repro.partitioners.base import StreamEdge


class Match:
    """A motif-matching sub-graph in the window: its window edge ids, the
    TPSTry++ node (motif) it matches, and its vertices.

    Equality and hashing use ``(eids, node)`` only. The hash is computed
    once and equals ``hash((eids, node))``, so sets of matches lay out and
    iterate exactly as for that tuple. The vertex set and ``deg`` (vertex
    -> degree in the match, filled on first use by
    :meth:`WindowMatcher._degrees`) derive from the edges."""

    __slots__ = ("eids", "node", "vertices", "deg", "_hash")

    def __init__(self, eids: frozenset[int], node: FactorKey, vertices: frozenset[int]):
        self.eids = eids
        self.node = node
        self.vertices = vertices
        self.deg: dict[int, int] | None = None
        self._hash = hash((eids, node))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self.eids == other.eids and self.node == other.node

    def __len__(self) -> int:
        return len(self.eids)

    def __repr__(self) -> str:
        return f"Match({sorted(self.eids)}, {self.node})"


class WindowMatcher:
    """``P_temp`` + ``matchList`` state machine (one instance per stream)."""

    def __init__(self, motifs: MotifIndex):
        self.motifs = motifs
        # eid -> edge, in arrival order; the edges carry their endpoint labels.
        self.window: OrderedDict[int, StreamEdge] = OrderedDict()
        # vertex -> matches containing it; a vertex is a key exactly while
        # it belongs to some match.
        self.match_list: dict[int, set[Match]] = {}
        # edge -> matches containing it; with match_list, the only record
        # of which matches exist.
        self._by_eid: dict[int, set[Match]] = {}
        self._max_edges = motifs.max_motif_edges()
        # Pairs need a match of 2+ edges below the largest motif size.
        self._joins = self._max_edges >= 3

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

    def _degrees(self, m: Match) -> dict[int, int]:
        """``m``'s sub-graph degree map (it drives ``fac(e, m)``), cached
        on ``m`` so hub vertices with hundreds of matches don't recompute
        it for every arriving edge."""
        deg = m.deg
        if deg is None:
            deg = m.deg = {}
            window = self.window
            for i in m.eids:
                e = window[i]
                deg[e.u] = deg.get(e.u, 0) + 1
                deg[e.v] = deg.get(e.v, 0) + 1
        return deg

    def _record(self, m: Match) -> None:
        """Insert a match into matchList for all its vertices and into
        ``_by_eid`` for all its edges. A match already recorded (joins can
        form one twice) is in all of those sets, so adding it again
        changes nothing and needs no separate check."""
        match_list, by_eid = self.match_list, self._by_eid
        for v in m.vertices:
            s = match_list.get(v)
            if s is None:
                match_list[v] = {m}
            else:
                s.add(m)
        for eid in m.eids:
            s = by_eid.get(eid)
            if s is None:
                by_eid[eid] = {m}
            else:
                s.add(m)

    # ------------------------------------------------------------ main path
    def offer(self, e: StreamEdge) -> bool:
        """Process a new stream edge. Returns True if it entered the window
        (matched a single-edge motif), False if the caller must assign it
        immediately."""
        table = self.motifs.table(e.lu, e.lv)
        if table.edge is None:
            return False
        self.window[e.eid] = e
        # The vertex set in _match's order: u, then v.
        self._record(Match(frozenset((e.eid,)), table.edge, frozenset((e.u, e.v))))
        self._extend_with(e, table)
        if self._joins:
            self._join_pairs(e)
        return True

    def _extend_with(self, e: StreamEdge, table: StepTable) -> None:
        """Alg. 2 lines 4-8: grow each match touching e's endpoints by e.

        ``table``, the step table of e's label pair, gives each match's
        child from its node and the degrees of ``u`` and ``v`` in it. Only
        matches whose node has a step are looked up; a match at the largest
        motif size never has one. ``⟨{e}, m⟩`` is in both endpoints'
        matchList sets, so when it is all of ``v``'s, every other match
        holds ``u`` and not ``v`` (degrees ``du >= 1, dv = 0``) and only
        ``from_u`` nodes can grow; with none, the union is never built (and
        symmetrically for ``u``). A scan that runs iterates the same union
        in the same order, so matches are recorded in the same order as by
        a per-match ``motif_child(fac(e, m))`` lookup (the tie order of
        :meth:`matches_containing` depends on it). The union is a snapshot:
        _record adds to both sets.
        """
        u, v, eid = e.u, e.v, e.eid
        at_u, at_v = self.match_list[u], self.match_list[v]
        if len(at_v) == 1:
            can = table.from_u
        elif len(at_u) == 1:
            can = table.from_v
        else:
            can = table.nodes
        if not can:
            return
        steps = table.steps
        for m in at_u | at_v:
            if m.node in can and eid not in m.eids:
                deg = m.deg or self._degrees(m)
                child = steps.get((m.node, deg.get(u, 0), deg.get(v, 0)))
                if child is not None:
                    self._record(self._match(m.eids | {eid}, child))

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
                    self._grow(big.eids, big.node, rest, self._degrees(big))

    def _grow(
        self,
        base: frozenset[int],
        node: FactorKey,
        remaining: frozenset[int],
        deg: dict[int, int],
    ) -> None:
        """Recursively add ``remaining`` edges to ``base``; record the match
        only when every edge has been placed ("grow ... updating matchList
        only if all edges from the smaller match have been added").

        ``deg`` is ``base``'s sub-graph degree map; it is copied, never
        changed, on the way down.
        """
        if not remaining:
            self._record(self._match(base, node))
            return
        for eid in sorted(remaining):
            e2 = self.window[eid]
            du, dv = deg.get(e2.u, 0), deg.get(e2.v, 0)
            if not du and not dv:
                continue  # trie children always add incident edges
            child = self.motifs.table(e2.lu, e2.lv).steps.get((node, du, dv))
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
        out = self._by_eid.get(eid, ())
        if len(out) <= 1:
            return list(out)
        support = self.motifs.support
        return sorted(out, key=lambda m: (-support(m.node), len(m.eids), min(m.eids)))

    def remove_edges(self, eids: set[int] | frozenset[int]) -> None:
        """Permanently assign edges: drop them from the window and drop
        every match touching any of them (their edges left ``P_temp``).

        Each edge's matches are dropped from a snapshot of its ``_by_eid``
        set; a match already dropped via an earlier edge is no longer in
        it. Discards leave the same sets, and ``del`` the same dicts, in
        any order, so this equals dropping the union of those sets."""
        match_list, by_eid = self.match_list, self._by_eid
        for eid in eids:
            for m in tuple(by_eid.get(eid, ())):
                for v in m.vertices:
                    s = match_list.get(v)
                    if s is not None:
                        s.discard(m)
                        if not s:
                            del match_list[v]
                for i in m.eids:
                    s = by_eid.get(i)
                    if s is not None:
                        s.discard(m)
                        if not s:
                            del by_eid[i]
        for eid in eids:
            self.window.pop(eid, None)
