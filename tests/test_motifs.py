"""Unit tests for sliding-window motif matching (paper Sec. 3, Alg. 2).

The central fixture reconstructs the Fig. 5 walkthrough: a stream of five
edges over labels a/b/c, matched against motifs m1 = a-b, m2 = b-c,
m3 = a-b-c, m4 = a-b-a, m5 = b-a-b and m6 = a-b-a-b (all sub-graphs of the
workload {a-b-a-b path, a-b-c path}).
"""
import pytest

from repro.core.loom import LoomPartitioner
from repro.core.motifs import Match, WindowMatcher
from repro.core.signature import factor_key, graph_factors
from repro.core.tpstry import TPSTry
from repro.graphs import generators, streams
from repro.graphs.model import Edge, LabeledGraph
from repro.partitioners.base import stream_of
from repro.workloads.queries import _path, workload


def fig5_motifs():
    wl = [(_path(["a", "b", "a", "b"]), 0.5), (_path(["a", "b", "c"]), 0.5)]
    return TPSTry.from_workload(wl).motifs(0.4)


# Fig. 5 vertex labels: 1,3 are 'a'; 2,4 are 'b'; 5,6 are 'c'.
FIG5_LABELS = {1: "a", 2: "b", 3: "a", 4: "b", 5: "c", 6: "c"}
E1 = Edge(1, 1, 2)  # a-b
E2 = Edge(2, 3, 4)  # a-b
E3 = Edge(3, 4, 5)  # b-c
E4 = Edge(4, 2, 6)  # b-c (incident to e1)
E5 = Edge(5, 2, 3)  # b-a, joins e1 and e2


@pytest.fixture()
def matcher():
    return WindowMatcher(fig5_motifs(), dict(FIG5_LABELS))


def edge_sets(matcher, v):
    return {m.eids for m in matcher.match_list.get(v, set())}


class TestFig5Walkthrough:
    def test_e1_single_edge_match(self, matcher):
        assert matcher.offer(E1) is True
        assert edge_sets(matcher, 1) == {frozenset({1})}
        assert edge_sets(matcher, 2) == {frozenset({1})}

    def test_e2_independent_match(self, matcher):
        matcher.offer(E1)
        matcher.offer(E2)
        assert edge_sets(matcher, 3) == {frozenset({2})}
        # e1's entries are untouched: e2 is not connected to e1
        assert edge_sets(matcher, 1) == {frozenset({1})}

    def test_e3_extends_e2_to_abc(self, matcher):
        """Fig. 5: e3 (b-c) joins e2's match to form an a-b-c m3 match
        recorded for vertices 3, 4 and 5."""
        matcher.offer(E1)
        matcher.offer(E2)
        assert matcher.offer(E3) is True
        assert frozenset({2, 3}) in edge_sets(matcher, 3)
        assert frozenset({2, 3}) in edge_sets(matcher, 4)
        assert frozenset({2, 3}) in edge_sets(matcher, 5)
        # older matches are kept, not replaced (Sec. 3)
        assert frozenset({2}) in edge_sets(matcher, 3)

    def test_e4_extends_e1(self, matcher):
        for e in (E1, E2, E3):
            matcher.offer(e)
        matcher.offer(E4)
        assert frozenset({4}) in edge_sets(matcher, 6)       # <e4, m2>
        assert frozenset({1, 4}) in edge_sets(matcher, 2)    # <{e1,e4}, m3>

    def test_e5_pairwise_join_forms_m6(self, matcher):
        """The m6 = a-b-a-b match combines <{e1,e5}, m4> with <e2, m1>
        (Alg. 2 lines 11-18) and lands in matchList for vertices 1-4."""
        for e in (E1, E2, E3, E4):
            matcher.offer(e)
        matcher.offer(E5)
        assert frozenset({1, 5}) in edge_sets(matcher, 2)    # a-b-a   (m4)
        assert frozenset({2, 5}) in edge_sets(matcher, 3)    # b-a-b   (m5)
        for v in (1, 2, 3, 4):
            assert frozenset({1, 2, 5}) in edge_sets(matcher, v)  # m6

    def test_full_window_contents(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        assert len(matcher) == 5


class TestGate:
    def test_non_motif_edge_rejected(self, matcher):
        """An edge whose type matches no single-edge motif never enters
        the window (Sec. 3)."""
        labels = matcher.labels
        labels[10] = "c"
        labels[11] = "c"
        assert matcher.offer(Edge(99, 10, 11)) is False  # c-c: not a motif
        assert len(matcher) == 0
        assert 10 not in matcher.match_list

    def test_motif_edge_accepted(self, matcher):
        assert matcher.offer(E1) is True
        assert len(matcher) == 1


class TestEviction:
    def test_matches_containing_sorted_by_support(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        m_e1 = matcher.matches_containing(1)
        # single-edge a-b (support 1.0) sorts first; support then
        # descends (all other motifs have support 0.5)
        assert m_e1[0].eids == frozenset({1})
        supports = [matcher.motifs.support(m.node) for m in m_e1]
        assert supports == sorted(supports, reverse=True)
        assert all(1 in m.eids for m in m_e1)

    def test_remove_edges_drops_touching_matches(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        matcher.remove_edges({1})
        assert 1 not in matcher.window
        for v, ms in matcher.match_list.items():
            for m in ms:
                assert 1 not in m.eids
        # e2's own matches survive (they never contained e1)
        assert frozenset({2}) in edge_sets(matcher, 3)

    def test_remove_all(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        matcher.remove_edges(set(matcher.window))
        assert len(matcher) == 0
        assert matcher.match_list == {}
        assert matcher._by_eid == {}

    def test_oldest_follows_arrival_order(self, matcher):
        matcher.offer(E1)
        matcher.offer(E2)
        assert matcher.oldest() == E1
        matcher.remove_edges({E1.eid})
        assert matcher.oldest() == E2

    def test_every_window_edge_has_single_match(self, matcher):
        """The eviction path relies on matches_containing(eid) never being
        empty for a window edge."""
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        matcher.remove_edges({E1.eid})
        for eid in matcher.window:
            assert matcher.matches_containing(eid)


class TestInvariants:
    def test_no_duplicate_matches(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        seen = set()
        for ms in matcher.match_list.values():
            for m in ms:
                seen.add(m)
        assert len(seen) == len(matcher._all)

    def test_match_size_bounded_by_largest_motif(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        cap = matcher.motifs.max_motif_edges()
        for m in matcher._all:
            assert len(m.eids) <= cap

    def test_matches_are_connected(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        for m in matcher._all:
            edges = [matcher.window[i].endpoints() for i in m.eids]
            verts = {x for p in edges for x in p}
            # union-find connectivity
            parent = {v: v for v in verts}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for u, v in edges:
                parent[find(u)] = find(v)
            assert len({find(v) for v in verts}) == 1

    def test_match_nodes_are_motifs(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        for m in matcher._all:
            assert matcher.motifs.is_motif(m.node)

    def test_by_eid_index_consistent(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        matcher.remove_edges({E3.eid})
        for eid, ms in matcher._by_eid.items():
            for m in ms:
                assert eid in m.eids
                assert m in matcher._all
        for m in matcher._all:
            for eid in m.eids:
                assert m in matcher._by_eid[eid]


class TestStreamScenarios:
    def test_duplicate_vertex_ids_interleaved(self):
        """Two overlapping a-b-a paths share matches without clobbering."""
        motifs = fig5_motifs()
        labels = {1: "a", 2: "b", 3: "a", 4: "a"}
        m = WindowMatcher(motifs, labels)
        m.offer(Edge(1, 1, 2))
        m.offer(Edge(2, 2, 3))
        m.offer(Edge(3, 2, 4))
        sets2 = {mm.eids for mm in m.match_list[2]}
        assert frozenset({1, 2}) in sets2  # 1-2-3 a-b-a
        assert frozenset({1, 3}) in sets2  # 1-2-4 a-b-a
        assert frozenset({2, 3}) in sets2  # 3-2-4 a-b-a

    def test_star_does_not_overmatch(self):
        """A b vertex with three a neighbours yields only 2-edge a-b-a
        matches (a-b-a-b needs a second b)."""
        motifs = fig5_motifs()
        labels = {0: "b", 1: "a", 2: "a", 3: "a"}
        m = WindowMatcher(motifs, labels)
        for i, leaf in enumerate((1, 2, 3), start=1):
            m.offer(Edge(i, 0, leaf))
        sizes = {len(mm.eids) for mm in m._all}
        assert sizes == {1, 2}


def assert_sound(matcher):
    """The matcher's soundness oracle: every live match's trie node is the
    signature of its edge set recomputed from scratch, it sits in exactly
    the matchList sets of its own vertices, and ``_by_eid`` indexes it
    under exactly its edges."""
    placed: dict[Match, set[int]] = {}
    for v, ms in matcher.match_list.items():
        assert ms, f"vertex {v} kept an empty matchList entry"
        for m in ms:
            placed.setdefault(m, set()).add(v)
    indexed: dict[Match, set[int]] = {}
    for eid, ms in matcher._by_eid.items():
        assert ms, f"edge {eid} kept an empty _by_eid entry"
        for m in ms:
            indexed.setdefault(m, set()).add(eid)
    assert placed.keys() == matcher._all
    assert indexed.keys() == matcher._all
    for m in matcher._all:
        edges = [matcher.window[i].endpoints() for i in m.eids]
        verts = {x for e in edges for x in e}
        assert m.vertices == verts
        assert placed[m] == verts
        assert indexed[m] == set(m.eids)
        g = LabeledGraph({x: matcher.labels[x] for x in verts}, edges)
        assert m.node == factor_key(graph_factors(g, matcher.h))


class TestSoundnessOracle:
    def test_fig5_after_every_offer(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
            assert_sound(matcher)
        matcher.remove_edges({E3.eid})
        assert_sound(matcher)

    @pytest.mark.parametrize("dataset", ["dblp", "provgen", "musicbrainz", "lubm"])
    @pytest.mark.parametrize("order", ["bfs", "random"])
    def test_dataset_streams(self, dataset, order):
        """Small generated streams through Loom with a short window, so
        matches are created, extended, joined and evicted; the oracle holds
        after every edge."""
        g = generators.generate(dataset, scale=300)
        motifs = TPSTry.from_workload(workload(dataset)).motifs(0.4)
        p = LoomPartitioner(4, g.n_vertices, motifs=motifs, window=150)
        n_matches = 0
        for e in stream_of(g, streams.ordered_stream(g, order, seed=0)):
            p.add_edge(e)
            assert_sound(p.matcher)
            n_matches += sum(len(m) > 1 for m in p.matcher._all)
        p.finalize()
        assert_sound(p.matcher)
        assert not p.matcher._all
        assert n_matches > 0  # multi-edge matches were exercised
