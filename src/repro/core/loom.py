"""The Loom partitioner (paper Sec. 4).

Wires together the motif-filtered TPSTry++ (Sec. 2), the sliding-window
matcher (Sec. 3) and two balance-aware assignment heuristics:

* **LDG** for edges that can never belong to a motif match — they are
  assigned the moment they arrive and never enter the window;
* **equal opportunism** for the evicted edge of a full window together
  with its cluster of motif matches ``M_e``.

Equal opportunism scores each partition with a rationed sum of bids

    bid(S_i, ⟨E_k, m_k⟩) = N(S_i, E_k) · (1 − |V(S_i)|/C) · supp(m_k)

over the first ``l(S_i) · |M_e|`` matches of the support-ordered ``M_e``,
where the ration

    l(S_i) = (|V(S_min)| / |V(S_i)|) · α,
    α = 1 if S_i is smallest, 0 if |V(S_i)| > |V(S_min)|·b, else user α

(the paper's Eq. 2 as computed in its own worked example — see DESIGN.md
for the typo note). The winning partition receives every vertex of its
rationed matches; those edges leave the window, and matches sharing them
are dropped. Defaults follow the paper: window t = 10k edges, support
threshold T = 40%, α = 2/3, b = 1.1.

Only partitions holding a vertex of their rationed prefix are bid for.
This is exact: every term of any other partition's bid is ±0.0, so its
bid is exactly 0.0, and a single largest positive bid wins whatever the
other key components are. Only a tie among the top bids, or no positive
bid, needs the full comparison of all k partitions and its neighbour
scan. The LDG fallback scores only the partitions a vertex touches
(:func:`repro.partitioners.ldg.ldg_choose`).

Loom is the one system that keeps adjacency, and only for vertices not
yet placed (:meth:`PartitionState.observe_edge`): the LDG fallback and
the tie-break's neighbour scan read it only for such vertices.

A cluster of one match is ``{e}``'s own, over ``e``'s endpoints, and most
such evictions are forced: with both endpoints assigned there is nothing
to place, and with one endpoint on a partition below the cap that the
ration lets bid, that partition is the single positive bidder and takes
the other endpoint. These are decided without the auction, with the same
result; any other cluster goes to equal opportunism.
"""
from __future__ import annotations

import math

from repro.core.motifs import Match, WindowMatcher
from repro.core.tpstry import MotifIndex, TPSTry
from repro.graphs.model import LabeledGraph
from repro.partitioners.base import StreamEdge, StreamingPartitioner
from repro.partitioners.ldg import ldg_choose

DEFAULT_WINDOW = 10_000
DEFAULT_THRESHOLD = 0.4
DEFAULT_ALPHA = 2.0 / 3.0
DEFAULT_B = 1.1


def ration(
    sizes: list[int],
    i: int,
    capacity: int,
    *,
    alpha: float = DEFAULT_ALPHA,
    s_min: int | None = None,
) -> float:
    """The rationing function ``l(S_i)`` over vertex counts ``sizes``.

    Eq. 2 with the semantics of the paper's worked example: the smallest
    partition gets the full ration (α = 1); a partition over the maximum
    imbalance may not bid at all (α = 0); otherwise the inverse size ratio
    scaled by the user α. The imbalance cap is Fennel-style — against the
    capacity ``b·n/k`` — because the example applies the α = 2/3 branch to
    a partition 33% larger than the smallest, which rules out a cap
    relative to |V(S_min)| (see DESIGN.md on Eq. 2). ``s_min`` is
    ``min(sizes)``, for a caller that has it already.
    """
    if s_min is None:
        s_min = min(sizes)
    s_i = sizes[i]
    if s_i <= s_min:
        return 1.0  # the smallest partition always gets the full ration
    if s_i >= capacity:
        return 0.0  # over the maximum-imbalance cap: may not bid
    return (s_min / s_i) * alpha


class LoomPartitioner(StreamingPartitioner):
    """Streaming, workload-aware partitioner."""

    name = "loom"

    def __init__(
        self,
        k: int,
        n_vertices: int,
        workload: list[tuple[LabeledGraph, float]] | None = None,
        *,
        motifs: MotifIndex | None = None,
        window: int = DEFAULT_WINDOW,
        threshold: float = DEFAULT_THRESHOLD,
        alpha: float = DEFAULT_ALPHA,
        b: float = DEFAULT_B,
    ):
        super().__init__(k, n_vertices, slack=b)
        if motifs is None:
            if workload is None:
                raise ValueError("provide a workload or a prebuilt MotifIndex")
            motifs = TPSTry.from_workload(workload).motifs(threshold)
        self.motifs = motifs
        self.t = window
        self.alpha = alpha
        self.labels: dict[int, str] = {}
        self.matcher = WindowMatcher(motifs)

    # ------------------------------------------------------------- stream
    def add_edge(self, e: StreamEdge) -> None:
        st = self.state
        # The matcher reads labels off the window's edges and equal
        # opportunism reads self.labels: a vertex keeps its first label.
        labels = self.labels
        if labels.setdefault(e.u, e.lu) != e.lu or labels.setdefault(e.v, e.lv) != e.lv:
            raise ValueError(f"stream edge {e.eid} relabels a vertex already seen")
        st.observe_edge(e.u, e.v)
        entered = self.matcher.offer(e)
        if not entered:
            # Sec. 3: e can never be part of a motif match — assign now;
            # it "behaves as if never added to the window" and displaces
            # nothing. An endpoint that currently belongs to P_temp (it
            # has motif matches awaiting allocation) is NOT permanently
            # placed here: window vertices are "accessible in this
            # temporary partition prior to being permanently allocated",
            # and their placement is equal opportunism's decision.
            for w in (e.u, e.v):
                if not st.is_assigned(w) and w not in self.matcher.match_list:
                    st.assign(w, self.choose(w, st.neighbour_counts(w)))
        # Slide the window: it spans the t most recently added stream
        # edges (Sec. 1.3), so buffered motif edges older than t stream
        # positions are evicted and permanently assigned.
        horizon = e.eid - self.t
        while (oldest := self.matcher.oldest()) is not None and oldest.eid <= horizon:
            self._evict(oldest)

    def finalize(self) -> None:
        """Drain ``P_temp`` at end of stream (the window is only a staging
        partition; every edge must end up permanently placed)."""
        while (oldest := self.matcher.oldest()) is not None:
            self._evict(oldest)

    def choose(self, v: int, counts: dict[int, int]) -> int:
        """The LDG fallback for vertices equal opportunism does not place,
        over ``counts``, the neighbours the window has revealed to ``v``."""
        return ldg_choose(self.state, counts)

    # ----------------------------------------------------------- eviction
    def _evict(self, e_old: StreamEdge) -> None:
        """Evict window edge ``e_old`` with its cluster of matches ``M_e``."""
        m_e = self.matcher.matches_containing(e_old.eid)
        if len(m_e) == 1:
            # A forced eviction: the one match is {e_old}'s own, over
            # e_old's endpoints, and the auction has one possible result.
            st = self.state
            pu = st.assignment.get(e_old.u)
            pv = st.assignment.get(e_old.v)
            if pu is not None and pv is not None:
                self.matcher.remove_edges(m_e[0].eids)  # nothing to place
                return
            if pu is not None or pv is not None:
                # A lone anchor below the cap with a positive ration is
                # the single positive bidder, with a prefix of one match.
                a, w = (pu, e_old.v) if pv is None else (pv, e_old.u)
                sizes, cap = st.sizes, st.capacity
                if sizes[a] < cap and ration(sizes, a, cap, alpha=self.alpha) > 0.0:
                    st.assign(w, a)
                    self.matcher.remove_edges(m_e[0].eids)
                    return
        elif not m_e:
            # Every window edge keeps its single-edge match until the edge
            # leaves the window, so this is a broken matcher invariant.
            raise RuntimeError(f"window edge {e_old.eid} has no motif match")
        self._equal_opportunism(m_e)

    def _equal_opportunism(self, m_e: list[Match]) -> None:
        """Assign the winning partition its rationed prefix of ``M_e``."""
        pid, n = self._bid(m_e)
        if n == 1 or len(m_e) == 1:
            self._assign_edges(m_e[0].eids, pid)
        else:
            self._assign_edges({eid for m in m_e[:n] for eid in m.eids}, pid)

    def _bid(self, m_e: list[Match]) -> tuple[int, int]:
        """The winning partition and the length of its rationed prefix."""
        st = self.state
        assignment, sizes, cap = st.assignment, st.sizes, st.capacity
        support = self.motifs.support
        n_m, alpha = len(m_e), self.alpha
        s_min = min(sizes)
        # One walk over the cluster, in match order. A partition's ration,
        # prefix length and residual weight are fixed on its first
        # appearance; its bid then adds N(S_i, E_k) · resid · supp(m_k)
        # for each match k of its prefix that holds its vertices.
        bids: dict[int, float] = {}
        lengths: dict[int, int] = {}  # 0: the ration bars the partition
        resids: dict[int, float] = {}
        for j, m in enumerate(m_e):
            counts: dict[int, int] = {}
            for v in m.vertices:
                pid = assignment.get(v)
                if pid is not None:
                    counts[pid] = counts.get(pid, 0) + 1
            if not counts:
                continue
            supp = support(m.node)
            for pid, c in counts.items():
                n_i = lengths.get(pid)
                if n_i is None:
                    l_i = ration(sizes, pid, cap, alpha=alpha, s_min=s_min)
                    if l_i <= 0.0:
                        lengths[pid] = 0
                        continue
                    n_i = lengths[pid] = max(1, math.ceil(l_i * n_m))
                    # Residual weight against the hard cap b·n/k: it stays
                    # positive until the ration (l = 0 at the cap)
                    # excludes the partition, so a cluster's anchor
                    # partition never loses its bid merely for being at
                    # the balanced size — the LDG fallback fills to the
                    # soft cap n/k, below this.
                    resids[pid] = 1.0 - sizes[pid] / cap
                    bids[pid] = 0.0
                if j < n_i:
                    bids[pid] += c * resids[pid] * supp
        # Every other partition bids exactly 0.0 (its terms are all ±0.0),
        # so a single largest positive bid wins outright.
        top = max(bids.values(), default=0.0)
        if top > 0.0:
            winners = [pid for pid, bid in bids.items() if bid == top]
            if len(winners) == 1:
                return winners[0], lengths[winners[0]]
        # A tie among the top bids, or no positive bid: compare every
        # partition allowed to bid, with an LDG-style secondary signal —
        # where the whole cluster's unassigned vertices already have
        # assigned neighbours. Equal opportunism "extends ideas present in
        # LDG" (Sec. 4); without this, clusters whose own vertices are all
        # unassigned (bid 0 everywhere) would scatter round-robin instead
        # of following their neighbourhood. Neighbour pulls are weighted by
        # the workload relevance of the connecting edge type (its
        # single-edge support in the TPSTry++, read off its step table,
        # plus a small floor so unqueried edges still count): the paper's
        # own rationale — edges "may not be traversed with equal likelihood
        # given a workload Q" — applied to the tie-break.
        labels, table = self.labels, self.motifs.table
        cluster = {v for m in m_e for v in m.vertices}
        nbr_counts = [0.0] * st.k
        for v in cluster:
            if v not in assignment:
                for w in st.adj.get(v, ()):
                    pid = assignment.get(w, -1)
                    if pid >= 0:
                        nbr_counts[pid] += 0.1 + table(labels[v], labels[w]).support
        # The smallest partition always has a full ration, so one bids.
        best_pid, best_key, best_n = -1, None, 1
        for pid in range(st.k):
            l_i = ration(sizes, pid, cap, alpha=alpha, s_min=s_min)
            if l_i <= 0.0:
                continue
            resid = 1.0 - sizes[pid] / cap
            key = (bids.get(pid, 0.0), nbr_counts[pid] * max(resid, 0.0), -sizes[pid], -pid)
            if best_key is None or key > best_key:
                best_pid, best_key, best_n = pid, key, max(1, math.ceil(l_i * n_m))
        return best_pid, best_n

    def _assign_edges(self, eids: set[int] | frozenset[int], pid: int) -> None:
        """Assign every unassigned vertex of ``eids`` to ``pid``, then retire
        the edges from the window. A vertex goes to the LDG fallback instead
        when ``pid`` is already at capacity, so a won cluster never pushes
        its partition over the cap."""
        st = self.state
        assignment = st.assignment
        window = self.matcher.window
        verts = sorted({x for i in eids for x in (window[i].u, window[i].v)})
        for v in verts:
            if v not in assignment:
                if st.sizes[pid] < st.capacity:
                    st.assign(v, pid)
                else:
                    st.assign(v, self.choose(v, st.neighbour_counts(v)))
        self.matcher.remove_edges(eids)
