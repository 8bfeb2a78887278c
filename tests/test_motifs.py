"""Unit tests for sliding-window motif matching (paper Sec. 3, Alg. 2).

The central fixture reconstructs the Fig. 5 walkthrough: a stream of five
edges over labels a/b/c, matched against motifs m1 = a-b, m2 = b-c,
m3 = a-b-c, m4 = a-b-a, m5 = b-a-b and m6 = a-b-a-b (all sub-graphs of the
workload {a-b-a-b path, a-b-c path}).
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loom import LoomPartitioner
from repro.core.motifs import Match, WindowMatcher
from repro.core.signature import fac, factor_key, graph_factors
from repro.core.tpstry import TPSTry
from repro.graphs import generators, streams
from repro.graphs.model import LabeledGraph
from repro.partitioners.base import StreamEdge, stream_of
from repro.workloads.queries import _path, _star, workload


def fig5_motifs():
    wl = [(_path(["a", "b", "a", "b"]), 0.5), (_path(["a", "b", "c"]), 0.5)]
    return TPSTry.from_workload(wl).motifs(0.4)


# Fig. 5 vertex labels: 1,3 are 'a'; 2,4 are 'b'; 5,6 are 'c'.
FIG5_LABELS = {1: "a", 2: "b", 3: "a", 4: "b", 5: "c", 6: "c"}


def edge(eid, u, v, labels=FIG5_LABELS):
    return StreamEdge(eid, u, v, labels[u], labels[v])


E1 = edge(1, 1, 2)  # a-b
E2 = edge(2, 3, 4)  # a-b
E3 = edge(3, 4, 5)  # b-c
E4 = edge(4, 2, 6)  # b-c (incident to e1)
E5 = edge(5, 2, 3)  # b-a, joins e1 and e2


@pytest.fixture()
def matcher():
    return WindowMatcher(fig5_motifs())


def edge_sets(matcher, v):
    return {m.eids for m in matcher.match_list.get(v, set())}


def live_matches(matcher):
    """Every match the matcher holds: the union of its ``_by_eid`` sets."""
    return set().union(*matcher._by_eid.values())


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
        c_c = StreamEdge(99, 10, 11, "c", "c")  # not a motif
        assert matcher.offer(c_c) is False
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
        assert len(seen) == len(live_matches(matcher))

    def test_match_size_bounded_by_largest_motif(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        cap = matcher.motifs.max_motif_edges()
        for m in live_matches(matcher):
            assert len(m.eids) <= cap

    def test_matches_are_connected(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        for m in live_matches(matcher):
            edges = [(matcher.window[i].u, matcher.window[i].v) for i in m.eids]
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
        for m in live_matches(matcher):
            assert m.node in matcher.motifs.keep

    def test_by_eid_index_consistent(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        matcher.remove_edges({E3.eid})
        placed = {m for ms in matcher.match_list.values() for m in ms}
        for eid, ms in matcher._by_eid.items():
            for m in ms:
                assert eid in m.eids
                assert m in placed
        for m in live_matches(matcher):
            for eid in m.eids:
                assert m in matcher._by_eid[eid]


class TestStreamScenarios:
    def test_duplicate_vertex_ids_interleaved(self):
        """Two overlapping a-b-a paths share matches without clobbering."""
        motifs = fig5_motifs()
        labels = {1: "a", 2: "b", 3: "a", 4: "a"}
        m = WindowMatcher(motifs)
        m.offer(edge(1, 1, 2, labels))
        m.offer(edge(2, 2, 3, labels))
        m.offer(edge(3, 2, 4, labels))
        sets2 = {mm.eids for mm in m.match_list[2]}
        assert frozenset({1, 2}) in sets2  # 1-2-3 a-b-a
        assert frozenset({1, 3}) in sets2  # 1-2-4 a-b-a
        assert frozenset({2, 3}) in sets2  # 3-2-4 a-b-a

    def test_star_does_not_overmatch(self):
        """A b vertex with three a neighbours yields only 2-edge a-b-a
        matches (a-b-a-b needs a second b)."""
        motifs = fig5_motifs()
        labels = {0: "b", 1: "a", 2: "a", 3: "a"}
        m = WindowMatcher(motifs)
        for i, leaf in enumerate((1, 2, 3), start=1):
            m.offer(edge(i, 0, leaf, labels))
        sizes = {len(mm.eids) for mm in live_matches(m)}
        assert sizes == {1, 2}


def assert_sound(matcher):
    """The matcher's soundness oracle: matchList and ``_by_eid`` index the
    same matches, every such match's trie node is the signature of its
    edge set recomputed from scratch, it sits in exactly the matchList sets
    of its own vertices, and ``_by_eid`` indexes it under exactly its
    edges."""
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
    assert placed.keys() == indexed.keys()
    labels = {}
    for e in matcher.window.values():
        labels[e.u], labels[e.v] = e.lu, e.lv
    for m in indexed:
        edges = [(matcher.window[i].u, matcher.window[i].v) for i in m.eids]
        verts = {x for e in edges for x in e}
        assert m.vertices == verts
        assert placed[m] == verts
        assert indexed[m] == set(m.eids)
        g = LabeledGraph({x: labels[x] for x in verts}, edges)
        assert m.node == factor_key(graph_factors(g, matcher.motifs.trie.h))


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
            n_matches += sum(len(m) > 1 for m in live_matches(p.matcher))
        p.finalize()
        assert_sound(p.matcher)
        assert not p.matcher._by_eid and not p.matcher.match_list
        assert n_matches > 0  # multi-edge matches were exercised


class TestMatchContract:
    def test_hash_is_the_key_tuple_hash(self):
        m = Match(frozenset({3, 7}), (2, 5, 9), frozenset({1, 2, 4}))
        assert hash(m) == hash((m.eids, m.node))

    def test_equality_ignores_vertices_and_degrees(self):
        a = Match(frozenset({3, 7}), (2, 5, 9), frozenset({1, 2, 4}))
        b = Match(frozenset({3, 7}), (2, 5, 9), frozenset({8}))
        b.deg = {8: 2}
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Match(frozenset({3, 7}), (2, 5, 11), a.vertices)
        assert a != Match(frozenset({3}), (2, 5, 9), a.vertices)
        assert a != (a.eids, a.node)

    def test_degrees_cached_on_the_match(self, matcher):
        for e in (E1, E2, E3, E4, E5):
            matcher.offer(e)
        for m in live_matches(matcher):
            deg = matcher._degrees(m)
            assert matcher._degrees(m) is deg
            want = {}
            for i in m.eids:
                for x in (matcher.window[i].u, matcher.window[i].v):
                    want[x] = want.get(x, 0) + 1
            assert deg == want


class ReferenceMatcher(WindowMatcher):
    """Match extension as it was before the step tables: the union of both
    endpoints' matchLists, the edge-type node filter ``table(la, lb).nodes``,
    then ``motif_child(fac(e, m))`` for every candidate, from degrees
    recounted off the window."""

    def _window_degrees(self, eids):
        deg = {}
        for i in eids:
            e = self.window[i]
            deg[e.u] = deg.get(e.u, 0) + 1
            deg[e.v] = deg.get(e.v, 0) + 1
        return deg

    def _extend_with(self, e, _table):
        u, v = e.u, e.v
        can = self.motifs.table(e.lu, e.lv).nodes
        if not can:
            return
        candidates = [
            m
            for m in self.match_list.get(u, set()) | self.match_list.get(v, set())
            if m.node in can and e.eid not in m.eids
        ]
        for m in candidates:
            deg = self._window_degrees(m.eids)
            f = fac(self.motifs.trie.h, e.lu, e.lv, deg.get(u, 0), deg.get(v, 0))
            child = self.motifs.motif_child(m.node, f)
            if child is not None:
                self._record(self._match(m.eids | {e.eid}, child))

    def _grow(self, base, node, remaining, deg=None):
        if not remaining:
            self._record(self._match(base, node))
            return
        deg = self._window_degrees(base)
        for eid in sorted(remaining):
            e2 = self.window[eid]
            if e2.u not in deg and e2.v not in deg:
                continue
            if node not in self.motifs.table(e2.lu, e2.lv).nodes:
                continue
            f = fac(self.motifs.trie.h, e2.lu, e2.lv, deg.get(e2.u, 0), deg.get(e2.v, 0))
            child = self.motifs.motif_child(node, f)
            if child is not None:
                self._grow(base | {eid}, child, remaining - {eid})


def assert_same_order(got, want):
    """Every matchList and ``_by_eid`` entry iterates in the same order (the
    order equal opportunism's tie-break reads)."""
    assert list(got.window) == list(want.window)
    assert list(got.match_list) == list(want.match_list)
    for v, ms in want.match_list.items():
        assert list(got.match_list[v]) == list(ms), f"matchList of vertex {v}"
    assert list(got._by_eid) == list(want._by_eid)
    for eid, ms in want._by_eid.items():
        assert list(got._by_eid[eid]) == list(ms), f"_by_eid of edge {eid}"


class AlwaysJoinMatcher(WindowMatcher):
    """``offer`` as it was before the gate memo and the join skip: the gate
    looks the single-edge motif up on every edge, ``{e}``'s match is built
    by ``_match``, and ``_join_pairs`` runs on every edge that enters the
    window, whatever the largest motif's size."""

    def offer(self, e):
        node = self.motifs.single_edge_motif(fac(self.motifs.trie.h, e.lu, e.lv))
        if node is None:
            return False
        self.window[e.eid] = e
        self._record(self._match(frozenset([e.eid]), node))
        self._extend_with(e, self.motifs.table(e.lu, e.lv))
        self._join_pairs(e)
        return True


def run_both(motifs, stream, k, window, reference=ReferenceMatcher):
    """Loom over ``stream`` with this matcher and with the ``reference``
    one; the order check runs after every edge and after the final drain."""
    n = 1 + max(max(e.u, e.v) for e in stream)
    got = LoomPartitioner(k, n, motifs=motifs, window=window)
    want = LoomPartitioner(k, n, motifs=motifs, window=window)
    want.matcher = reference(motifs)
    n_multi = 0
    for e in stream:
        got.add_edge(e)
        want.add_edge(e)
        assert_same_order(got.matcher, want.matcher)
        n_multi += sum(len(m) > 1 for m in live_matches(want.matcher))
    got.finalize()
    want.finalize()
    assert_same_order(got.matcher, want.matcher)
    assert got.state.assignment == want.state.assignment
    return n_multi


def fig1_motifs():
    """The Fig. 1 workload's trie at T = 0: its 3-edge motifs (the a-b-a-b
    path, the b-{a,a,c} star) make ``_join_pairs``/``_grow`` run."""
    q1 = LabeledGraph({0: "a", 1: "b", 2: "a", 3: "b"}, [(0, 1), (1, 2), (2, 3), (3, 0)])
    wl = [(q1, 1.0), (_path(["a", "b", "a"]), 1.0), (_star("b", ["a", "a", "c"]), 1.0)]
    return TPSTry.from_workload(wl, p=251, seed=7).motifs(0.0)


@st.composite
def fig1_streams(draw):
    """A stream over at most 10 vertices labelled a/b/c/z (z is in no
    query), without self-loops; a vertex pair may repeat."""
    n = draw(st.integers(2, 10))
    labels = draw(st.lists(st.sampled_from("abcz"), min_size=n, max_size=n))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            min_size=1,
            max_size=40,
        )
    )
    stream = [StreamEdge(i, u, v, labels[u], labels[v]) for i, (u, v) in enumerate(pairs)]
    return stream, draw(st.integers(1, 12)), draw(st.sampled_from([1, 2, 3]))


class TestRecordOrderOracle:
    """The step tables and the side rule record the same matches in the
    same order as the reference, so every set iterates identically."""

    MOTIFS = fig1_motifs()

    def test_fig1_motifs_go_past_two_edges(self):
        assert self.MOTIFS.max_motif_edges() == 4

    @settings(max_examples=300, deadline=None)
    @given(fig1_streams())
    def test_fig1_streams(self, case):
        stream, window, k = case
        run_both(self.MOTIFS, stream, k, window)

    def test_fig1_joins_run(self):
        """Edge 3 (b0-a2) links a1-b0 and a2-b4: the a1-b0-a2-b4 path
        (edges 0, 2, 3) can only come from a join, since extension adds
        just the new edge to one existing match."""
        labels = {0: "b", 1: "a", 2: "a", 3: "c", 4: "b"}
        pairs = [(0, 1), (0, 3), (2, 4), (0, 2), (1, 4)]
        stream = [StreamEdge(i, u, v, labels[u], labels[v]) for i, (u, v) in enumerate(pairs)]
        matcher = WindowMatcher(self.MOTIFS)
        for e in stream[:4]:
            matcher.offer(e)
        assert frozenset({0, 2, 3}) in {m.eids for m in live_matches(matcher)}
        assert run_both(self.MOTIFS, stream, 2, 10) > 0

    def test_fig1_cycle_closes(self):
        """The last edge of the a-b-a-b 4-cycle joins two vertices that are
        both in the 3-edge path's match (du = dv = 1): no side rule
        applies, and the path grows into the cycle."""
        labels = {0: "a", 1: "b", 2: "a", 3: "b"}
        pairs = [(0, 1), (1, 2), (2, 3), (3, 0)]
        stream = [StreamEdge(i, u, v, labels[u], labels[v]) for i, (u, v) in enumerate(pairs)]
        matcher = WindowMatcher(self.MOTIFS)
        for e in stream:
            matcher.offer(e)
        assert frozenset(range(4)) in {m.eids for m in live_matches(matcher)}
        run_both(self.MOTIFS, stream, 2, 10)

    @pytest.mark.parametrize("dataset", ["dblp", "provgen", "musicbrainz", "lubm"])
    def test_dataset_streams(self, dataset):
        g = generators.generate(dataset, scale=2_000)
        motifs = TPSTry.from_workload(workload(dataset)).motifs(0.4)
        stream = list(stream_of(g, streams.ordered_stream(g, "bfs", seed=0)))
        assert run_both(motifs, stream, 4, 100) > 0


def count_joins(monkeypatch):
    """Record the eid of every ``_join_pairs`` call."""
    calls = []
    join = WindowMatcher._join_pairs

    def counting(self, e):
        calls.append(e.eid)
        return join(self, e)

    monkeypatch.setattr(WindowMatcher, "_join_pairs", counting)
    return calls


class TestJoinSkipOracle:
    """With no motif of three or more edges, no match is pairable, so
    ``offer`` skips ``_join_pairs``; a matcher that always joins records
    the same matches in the same order and Loom assigns the same."""

    @pytest.mark.parametrize("dataset", ["dblp", "provgen", "musicbrainz"])
    def test_dataset_streams(self, dataset):
        g = generators.generate(dataset, scale=2_000)
        motifs = TPSTry.from_workload(workload(dataset)).motifs(0.4)
        assert motifs.max_motif_edges() <= 2  # the skip applies
        stream = list(stream_of(g, streams.ordered_stream(g, "bfs", seed=0)))
        assert run_both(motifs, stream, 4, 100, reference=AlwaysJoinMatcher) > 0

    def test_not_called_without_a_three_edge_motif(self, monkeypatch):
        calls = count_joins(monkeypatch)
        g = generators.generate("dblp", scale=300)
        matcher = WindowMatcher(TPSTry.from_workload(workload("dblp")).motifs(0.4))
        entered = [matcher.offer(e) for e in stream_of(g, streams.ordered_stream(g, "bfs", seed=0))]
        assert any(entered) and calls == []

    def test_fig1_joins_still_run(self, monkeypatch):
        """The Fig. 1 trie at T = 0 has 3- and 4-edge motifs, so every edge
        that enters the window is offered to ``_join_pairs``."""
        calls = count_joins(monkeypatch)
        motifs = fig1_motifs()
        labels = {0: "b", 1: "a", 2: "a", 3: "c", 4: "b"}
        pairs = [(0, 1), (0, 3), (2, 4), (0, 2), (1, 4)]
        matcher = WindowMatcher(motifs)
        entered = [
            eid
            for eid, (u, v) in enumerate(pairs)
            if matcher.offer(StreamEdge(eid, u, v, labels[u], labels[v]))
        ]
        assert entered == [0, 1, 2, 3, 4]
        assert calls == entered
        assert frozenset({0, 2, 3}) in {m.eids for m in live_matches(matcher)}
