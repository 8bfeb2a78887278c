"""Unit tests for the Loom partitioner and equal opportunism (Sec. 4)."""
import math
from collections import Counter

import pytest

from repro.core.loom import DEFAULT_ALPHA, LoomPartitioner, ration
from repro.core.motifs import Match
from repro.core.tpstry import TPSTry
from repro.eval.harness import default_window, run_system
from repro.graphs import generators, streams
from repro.graphs.model import LabeledGraph
from repro.partitioners.base import StreamEdge, stream_of
from repro.partitioners.ldg import LDGPartitioner
from repro.workloads.queries import _path, workload


def simple_workload():
    return [(_path(["a", "b", "c"]), 0.6), (_path(["a", "b"]), 0.4)]


def make_loom(k=2, n=100, **kw):
    return LoomPartitioner(k, n, simple_workload(), **kw)


class TestRation:
    def test_smallest_partition_full_ration(self):
        assert ration([5, 10], 0, capacity=100) == 1.0

    def test_equal_sizes_full_ration(self):
        assert ration([7, 7], 1, capacity=100) == 1.0

    def test_paper_worked_example(self):
        """Sec. 4: S_1 33.3% larger than S_2 with α = 2/3 gives l = 1/2."""
        l = ration([400, 300], 0, capacity=10_000, alpha=2.0 / 3.0)
        assert l == pytest.approx(0.5)

    def test_over_capacity_zero(self):
        assert ration([50, 10], 0, capacity=50) == 0.0

    def test_alpha_scales(self):
        l1 = ration([20, 10], 0, capacity=100, alpha=1.0)
        l2 = ration([20, 10], 0, capacity=100, alpha=0.5)
        assert l1 == pytest.approx(2 * l2)

    def test_inverse_size_correlation(self):
        """l shrinks as the partition grows relative to the smallest."""
        l_small = ration([12, 10], 0, capacity=100)
        l_big = ration([30, 10], 0, capacity=100)
        assert l_small > l_big > 0


class TestConstruction:
    def test_requires_workload_or_motifs(self):
        with pytest.raises(ValueError):
            LoomPartitioner(2, 10)

    def test_prebuilt_motif_index(self):
        motifs = TPSTry.from_workload(simple_workload()).motifs(0.4)
        p = LoomPartitioner(2, 10, motifs=motifs)
        assert p.motifs is motifs

    def test_paper_defaults(self):
        p = make_loom()
        assert p.t == 10_000
        assert p.alpha == pytest.approx(DEFAULT_ALPHA)
        assert p.state.capacity == math.ceil(1.1 * 100 / 2)  # b·n/k
        assert p.motifs.threshold == pytest.approx(0.4)


class TestStreaming:
    def test_non_motif_edges_assigned_immediately(self):
        p = make_loom()
        g = LabeledGraph({0: "z", 1: "z"}, [(0, 1)])
        for e in stream_of(g, g.canonical_edges()):
            p.add_edge(e)
        assert p.state.is_assigned(0) and p.state.is_assigned(1)
        assert len(p.matcher) == 0

    def test_motif_edges_deferred_to_window(self):
        p = make_loom()
        g = LabeledGraph({0: "a", 1: "b"}, [(0, 1)])
        for e in stream_of(g, g.canonical_edges()):
            p.add_edge(e)
        assert not p.state.is_assigned(0)
        assert len(p.matcher) == 1

    def test_pending_vertex_not_stolen_by_non_motif_edge(self):
        """A vertex in P_temp stays pending when a non-motif edge touches
        it (it is 'accessible in this temporary partition prior to being
        permanently allocated', Sec. 3)."""
        p = make_loom()
        g = LabeledGraph({0: "a", 1: "b", 2: "z"}, [(0, 1), (1, 2)])
        for e in stream_of(g, [(0, 1), (1, 2)]):
            p.add_edge(e)
        assert not p.state.is_assigned(1)  # pending in window
        assert p.state.is_assigned(2)      # plain LDG

    def test_finalize_drains_window(self):
        p = make_loom()
        g = LabeledGraph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)])
        asg = p.partition(stream_of(g, [(0, 1), (1, 2)]))
        assert set(asg) == {0, 1, 2}
        assert len(p.matcher) == 0

    def test_window_slides_by_stream_age(self):
        """An edge t stream-positions old is evicted even if the buffer
        holds fewer than t motif edges (window over the t most recently
        added edges, Sec. 1.3)."""
        p = make_loom(window=3)
        labels = {0: "a", 1: "b"}
        labels.update({i: "z" for i in range(2, 10)})
        edges = [(0, 1)] + [(i, i + 1) for i in range(2, 9)]
        g = LabeledGraph(labels, edges)
        for e in stream_of(g, edges):
            p.add_edge(e)
        # edge (0,1) arrived at position 0; by position 4 it is out of the
        # window and its vertices permanently assigned
        assert p.state.is_assigned(0) and p.state.is_assigned(1)

    def test_motif_cluster_assigned_together(self):
        """An a-b-c match that forms inside the window lands in one
        partition."""
        p = make_loom(k=4, n=12, window=100)
        g = LabeledGraph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)])
        asg = p.partition(stream_of(g, [(0, 1), (1, 2)]))
        assert asg[0] == asg[1] == asg[2]

    def test_eviction_follows_anchor(self):
        """A motif edge whose endpoint is already assigned pulls the rest
        of the cluster to that partition via the bid's N term."""
        p = make_loom(k=4, n=100, window=2)
        labels = {0: "a", 1: "b", 2: "c", 3: "z", 4: "z", 5: "z", 6: "z"}
        # z-z edges first: establish different partition sizes
        edges = [(3, 4), (5, 6), (0, 1), (1, 2)]
        g = LabeledGraph(labels, edges)
        asg = p.partition(stream_of(g, edges))
        assert asg[0] == asg[1] == asg[2]

    def test_all_vertices_assigned_after_finalize(self):
        import numpy as np

        rng = np.random.default_rng(5)
        labels = {i: ["a", "b", "c", "z"][rng.integers(0, 4)] for i in range(80)}
        edges = set()
        while len(edges) < 150:
            u, v = rng.integers(0, 80, 2)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = LabeledGraph(labels, sorted(edges))
        p = make_loom(k=4, n=80, window=20)
        asg = p.partition(stream_of(g, g.canonical_edges()))
        seen = {x for e in g.canonical_edges() for x in e}
        assert set(asg) == seen

    def test_balance_within_b(self):
        import numpy as np

        rng = np.random.default_rng(9)
        labels = {i: ["a", "b", "c"][rng.integers(0, 3)] for i in range(200)}
        edges = set()
        while len(edges) < 400:
            u, v = rng.integers(0, 200, 2)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        g = LabeledGraph(labels, sorted(edges))
        p = make_loom(k=8, n=200, window=50)
        p.partition(stream_of(g, g.canonical_edges()))
        # hard cap: ceil(1.1 * n / k); one-past-the-post on the spill path
        assert max(p.state.sizes) <= p.state.capacity + 1

    def test_deterministic(self):
        import numpy as np

        rng = np.random.default_rng(3)
        labels = {i: ["a", "b", "c", "z"][rng.integers(0, 4)] for i in range(60)}
        edges = sorted(
            {
                (min(u, v), max(u, v))
                for u, v in rng.integers(0, 60, (120, 2))
                if u != v
            }
        )
        g = LabeledGraph(labels, edges)
        a1 = make_loom(k=4, n=60, window=15).partition(stream_of(g, edges))
        a2 = make_loom(k=4, n=60, window=15).partition(stream_of(g, edges))
        assert a1 == a2


class TestInputContract:
    def test_relabelled_vertex_raises(self):
        """The matcher reads labels off the stream edges and equal
        opportunism reads the first-seen labels; they may not disagree."""
        p = make_loom()
        p.add_edge(StreamEdge(0, 0, 1, "a", "b"))
        p.add_edge(StreamEdge(1, 1, 2, "b", "c"))  # 1 keeps its label
        with pytest.raises(ValueError, match="relabels"):
            p.add_edge(StreamEdge(2, 1, 3, "c", "c"))

    def test_window_edge_without_match_raises(self):
        """Every window edge keeps its single-edge match until it leaves
        the window; an edge without one is a broken matcher invariant,
        raised on eviction rather than placed by a fallback."""
        p = make_loom(window=2)
        p.add_edge(StreamEdge(0, 0, 1, "a", "b"))
        p.add_edge(StreamEdge(1, 1, 2, "b", "c"))
        del p.matcher._by_eid[0]
        with pytest.raises(RuntimeError, match="window edge 0 has no motif match"):
            p.add_edge(StreamEdge(2, 3, 4, "a", "b"))


class TestNoMotifWorkload:
    """DESIGN.md §3b.8: at a support threshold no node reaches, no edge
    enters the window, so every vertex is placed the moment its first edge
    arrives, by Loom's LDG fallback: Loom is LDG."""

    @pytest.mark.parametrize("k", [4, 8])
    @pytest.mark.parametrize("order", ["bfs", "random"])
    @pytest.mark.parametrize("dataset", ["dblp", "provgen", "musicbrainz", "lubm"])
    def test_loom_assigns_as_ldg(self, dataset, order, k):
        g = generators.generate(dataset, scale=2_000)
        stream = list(stream_of(g, streams.ordered_stream(g, order, seed=0)))
        loom = LoomPartitioner(
            k, g.n_vertices, workload(dataset),
            window=default_window(g.n_edges), threshold=1.01,
        )
        assert len(loom.motifs) == 0
        want = LDGPartitioner(k, g.n_vertices).partition(stream)
        assert loom.partition(stream) == want


class TestCapacity:
    def test_won_cluster_never_overfills_partition(self):
        """Once the winning partition is full, the rest of a won cluster
        goes to the LDG fallback; on this stream a cluster fills its
        winner part-way (placing all of it would end at 268 against a
        capacity of 267)."""
        g = generators.generate("dblp", scale=2_000)
        stream = list(stream_of(g, streams.ordered_stream(g, "bfs", seed=1)))
        run = run_system("loom", g, stream, 8, workload("dblp"), window=10_000)
        capacity = math.ceil(1.1 * g.n_vertices / 8)
        sizes = Counter(run.assignment.values())
        assert max(sizes.values()) <= capacity


class TestEdgeTypeSupport:
    """The tie-break weights an edge type by its step table's support."""

    def test_motif_type_support(self):
        table = make_loom().motifs.table("a", "b")
        assert table.edge is not None
        assert table.support == pytest.approx(1.0)  # a-b in both queries

    def test_non_motif_type_zero(self):
        table = make_loom().motifs.table("z", "z")
        assert table.edge is None
        assert table.support == 0.0

    def test_cache_symmetric(self):
        motifs = make_loom().motifs
        ab, ba = motifs.table("a", "b"), motifs.table("b", "a")
        assert (ab.edge, ab.support) == (ba.edge, ba.support)
        assert set(motifs._tables) == {("a", "b"), ("b", "a")}

    def test_tie_break_weights_neighbours_by_edge_type(self):
        """No partition bids, so the tie-break decides. Cluster vertex 0
        (label a) has one a-b neighbour in partition 0 (weight 0.1 + 1.0)
        and two a-c neighbours in partition 1 (0.1 + 0.0 each). Partition 0
        wins although partition 1 has more neighbours and fewer vertices."""
        p = make_loom()
        st = p.state
        p.labels.update({0: "a", 1: "b", 10: "b", 11: "c", 12: "c"})
        for w, pid in ((10, 0), (11, 1), (12, 1)):
            st.observe_edge(0, w)
            st.assign(w, pid)
        for w in (20, 21, 22):
            st.assign(w, 0)
        assert st.sizes == [4, 2]
        node = p.motifs.table("a", "b").edge
        m_e = [Match(frozenset({100}), node, frozenset({0, 1}))]
        assert p._bid(m_e) == (0, 1)
