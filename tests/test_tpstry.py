"""Unit tests for TPSTry++ construction and motif filtering (Sec. 2, Alg. 1)."""
import math

import pytest

from repro.core.signature import LabelHash, fac, incremental_factors
from repro.core.tpstry import ROOT_KEY, TPSTry
from repro.graphs import generators, streams
from repro.graphs.model import LabeledGraph
from repro.partitioners.base import stream_of
from repro.workloads.queries import _path, _star, workload


def fig1_workload():
    """The running example of Fig. 1: q1 = a-b 4-cycle, q2 = a-b-a path,
    q3 = b with two a neighbours and one c neighbour (star)."""
    q1 = LabeledGraph({0: "a", 1: "b", 2: "a", 3: "b"}, [(0, 1), (1, 2), (2, 3), (3, 0)])
    q2 = _path(["a", "b", "a"])
    q3 = _star("b", ["a", "a", "c"])
    return [(q1, 1.0), (q2, 1.0), (q3, 1.0)]


@pytest.fixture()
def fig1_trie():
    return TPSTry.from_workload(fig1_workload(), p=251, seed=7)


def children(node):
    """Every child key of a trie node, over all its ``fac`` links."""
    return set(node.children_by_fac.values())


class TestConstruction:
    def test_root_exists(self, fig1_trie):
        assert ROOT_KEY in fig1_trie.nodes
        assert fig1_trie.nodes[ROOT_KEY].n_edges == 0

    def test_single_edge_nodes_are_root_children(self, fig1_trie):
        root = fig1_trie.nodes[ROOT_KEY]
        for child in children(root):
            assert fig1_trie.nodes[child].n_edges == 1

    def test_fig1_single_edges(self, fig1_trie):
        """Fig. 2's first trie level: exactly the edge types a-b and b-c."""
        root = fig1_trie.nodes[ROOT_KEY]
        reps = {fig1_trie.nodes[c].rep_edges for c in children(root)}
        assert reps == {(("a", "b"),), (("b", "c"),)}

    def test_isomorphic_subgraphs_share_nodes(self):
        """a-b-c from one query and c-b-a from another merge (Sec. 2.1)."""
        trie = TPSTry.from_workload(
            [(_path(["a", "b", "c"]), 1.0), (_path(["c", "b", "a"]), 1.0)]
        )
        two_edge = [n for n in trie.nodes.values() if n.n_edges == 2]
        assert len(two_edge) == 1
        assert trie.support(two_edge[0].key) == 1.0

    def test_dag_shape_abab(self):
        """Fig. 2: a-b-a-b is reachable from both b-a-b and a-b-a."""
        q1 = LabeledGraph(
            {0: "a", 1: "b", 2: "a", 3: "b"}, [(0, 1), (1, 2), (2, 3), (3, 0)]
        )
        trie = TPSTry.from_workload([(q1, 1.0)])
        # path sub-graphs of the 4-cycle: a-b, a-b-a / b-a-b, a-b-a-b, cycle
        paths3 = [n for n in trie.nodes.values() if n.n_edges == 3]
        assert len(paths3) == 1  # the a-b-a-b path
        parents = [
            n for n in trie.nodes.values() if paths3[0].key in children(n)
        ]
        # both 2-edge sub-paths (a-b-a and b-a-b) are distinct nodes and
        # both link to the 3-edge path
        assert len(parents) == 2
        assert all(p.n_edges == 2 for p in parents)

    def test_every_query_subgraph_count(self):
        """A 2-edge path query yields root + 2 single edges + 1 pair."""
        trie = TPSTry.from_workload([(_path(["a", "b", "c"]), 1.0)])
        by_depth = {}
        for n in trie.nodes.values():
            by_depth.setdefault(n.n_edges, 0)
            by_depth[n.n_edges] += 1
        assert by_depth == {0: 1, 1: 2, 2: 1}

    def test_rejects_empty_query(self):
        trie = TPSTry(LabelHash(["a"]))
        with pytest.raises(ValueError):
            trie.add_query(LabeledGraph({0: "a"}, []))

    def test_rejects_nonpositive_frequency(self):
        trie = TPSTry(LabelHash(["a", "b"]))
        with pytest.raises(ValueError):
            trie.add_query(_path(["a", "b"]), 0.0)


class TestSupport:
    def test_root_support_is_one(self, fig1_trie):
        assert fig1_trie.support(ROOT_KEY) == 1.0

    def test_support_counted_once_per_query(self):
        """q1 contains four a-b edges but contributes its frequency once."""
        q1 = LabeledGraph(
            {0: "a", 1: "b", 2: "a", 3: "b"}, [(0, 1), (1, 2), (2, 3), (3, 0)]
        )
        trie = TPSTry.from_workload([(q1, 1.0), (_path(["c", "d"]), 1.0)])
        ab = [n for n in trie.nodes.values() if n.rep_edges == (("a", "b"),)]
        assert len(ab) == 1
        assert trie.support(ab[0].key) == pytest.approx(0.5)

    def test_support_weighted_by_frequency(self):
        trie = TPSTry.from_workload(
            [(_path(["a", "b"]), 3.0), (_path(["b", "c"]), 1.0)]
        )
        ab = next(n for n in trie.nodes.values() if n.rep_edges == (("a", "b"),))
        bc = next(n for n in trie.nodes.values() if n.rep_edges == (("b", "c"),))
        assert trie.support(ab.key) == pytest.approx(0.75)
        assert trie.support(bc.key) == pytest.approx(0.25)

    def test_support_monotone_on_trie_paths(self, fig1_trie):
        """Sec. 3: a node's support never exceeds any ancestor's."""
        for node in fig1_trie.nodes.values():
            for child in children(node):
                assert (
                    fig1_trie.support(child) <= fig1_trie.support(node.key) + 1e-12
                )

    def test_shared_subgraph_accumulates(self, fig1_trie):
        """a-b occurs in all three Fig. 1 queries -> support 1.0."""
        ab = next(
            n for n in fig1_trie.nodes.values() if n.rep_edges == (("a", "b"),)
        )
        assert fig1_trie.support(ab.key) == pytest.approx(1.0)


class TestMotifIndex:
    def test_threshold_filters(self, fig1_trie):
        """At T = 40% with equal frequencies, sub-graphs in >= 2 of 3
        queries are motifs."""
        motifs = fig1_trie.motifs(0.4)
        for key in motifs.keep:
            assert fig1_trie.support(key) >= 0.4

    def test_high_threshold_empty(self, fig1_trie):
        assert len(fig1_trie.motifs(1.01)) == 0

    def test_zero_threshold_keeps_all(self, fig1_trie):
        assert len(fig1_trie.motifs(0.0)) == len(fig1_trie.nodes) - 1

    def test_motif_closure_downward(self, fig1_trie):
        """Support monotonicity: every ancestor of a motif is a motif
        (the pruning property Sec. 3 relies on)."""
        motifs = fig1_trie.motifs(0.4)
        for node in fig1_trie.nodes.values():
            if node.key == ROOT_KEY:
                continue
            for child in children(node):
                if child in motifs.keep:
                    assert node.key in motifs.keep

    def test_single_edge_motif_lookup(self, fig1_trie):
        from repro.core.signature import incremental_factors

        motifs = fig1_trie.motifs(0.4)
        fac = incremental_factors((0, 1), (), {0: "a", 1: "b"}, fig1_trie.h)
        assert motifs.single_edge_motif(fac) is not None
        fac_cd = incremental_factors((0, 1), (), {0: "c", 1: "d"}, fig1_trie.h)
        assert motifs.single_edge_motif(fac_cd) is None

    def test_motif_child_lookup(self, fig1_trie):
        """Extending a-b by another a-b at the b end reaches a-b-a."""
        from repro.core.signature import incremental_factors

        motifs = fig1_trie.motifs(0.4)
        labels = {0: "a", 1: "b", 2: "a"}
        fac1 = incremental_factors((0, 1), (), labels, fig1_trie.h)
        n1 = motifs.single_edge_motif(fac1)
        fac2 = incremental_factors((1, 2), [(0, 1)], labels, fig1_trie.h)
        n2 = motifs.motif_child(n1, fac2)
        assert n2 is not None
        assert fig1_trie.nodes[n2].n_edges == 2

    def test_max_motif_edges(self, fig1_trie):
        motifs = fig1_trie.motifs(0.4)
        assert motifs.max_motif_edges() == max(
            fig1_trie.nodes[k].n_edges for k in motifs.keep
        )

    def test_empty_motifs_max_edges_zero(self, fig1_trie):
        assert fig1_trie.motifs(1.01).max_motif_edges() == 0


class TestExtensionFilter:
    """A node outside ``MotifIndex.table(la, lb).nodes`` must have no motif
    child for any la-lb edge, whatever the endpoint degrees."""

    LABELS = ["a", "b", "c", "z"]  # z: a data label absent from the workload

    @pytest.mark.parametrize("threshold", [0.0, 0.4])
    def test_excluded_node_has_no_motif_child(self, fig1_trie, threshold):
        motifs = fig1_trie.motifs(threshold)
        for key in motifs.keep:
            n = fig1_trie.nodes[key].n_edges
            for la in self.LABELS:
                for lb in self.LABELS:
                    if key in motifs.table(la, lb).nodes:
                        continue
                    for du in range(n + 1):
                        for dv in range(n + 1):
                            f = fac(fig1_trie.h, la, lb, du, dv)
                            assert motifs.motif_child(key, f) is None

    def test_includes_real_extensions(self, fig1_trie):
        """a-b extends to a-b-a by another a-b edge, and to a-b-c by b-c."""
        motifs = fig1_trie.motifs(0.0)
        ab = next(
            n.key for n in fig1_trie.nodes.values() if n.rep_edges == (("a", "b"),)
        )
        assert ab in motifs.table("a", "b").nodes
        assert ab in motifs.table("c", "b").nodes
        assert ab not in motifs.table("a", "c").nodes
        assert not motifs.table("z", "z").nodes

    def test_symmetric_in_labels(self, fig1_trie):
        motifs = fig1_trie.motifs(0.4)
        for la in self.LABELS:
            for lb in self.LABELS:
                assert motifs.table(la, lb).nodes == motifs.table(lb, la).nodes

    def test_fac_matches_incremental_factors(self, fig1_trie):
        labels = {0: "a", 1: "b", 2: "c"}
        sub = [(0, 1), (1, 2)]
        assert incremental_factors((0, 2), sub, labels, fig1_trie.h) == fac(
            fig1_trie.h, "a", "c", 1, 1
        )
        assert incremental_factors((1, 0), (), labels, fig1_trie.h) == fac(
            fig1_trie.h, "a", "b"
        )


class TestDatasetWorkloadTries:
    @pytest.mark.parametrize("name", ["dblp", "provgen", "musicbrainz", "lubm"])
    def test_workload_builds_with_motifs(self, name):
        trie = TPSTry.from_workload(workload(name))
        motifs = trie.motifs(0.4)
        assert len(motifs) > 0, f"{name} workload must yield motifs at T=40%"
        # every workload here is built to exercise multi-edge matching
        assert motifs.max_motif_edges() >= 1

    def test_lubm_has_three_edge_motif(self):
        """The 0.4-frequency 4-vertex LUBM chain yields a 3-edge motif."""
        motifs = TPSTry.from_workload(workload("lubm")).motifs(0.4)
        assert motifs.max_motif_edges() == 3

    def test_incremental_equals_batch_construction(self):
        """Adding queries one at a time (Fig. 3's merge) equals building
        from the full workload."""
        wl = workload("dblp")
        t1 = TPSTry.from_workload(wl)
        labels = set()
        for q, _ in wl:
            labels |= q.label_set()
        t2 = TPSTry(LabelHash(labels, p=251, seed=7))
        for q, f in wl:
            t2.add_query(q, f)
        assert set(t1.nodes) == set(t2.nodes)
        for k in t1.nodes:
            assert t1.support(k) == pytest.approx(t2.support(k))


def link_tries():
    """The Fig. 1 trie and the tries of the four dataset workloads."""
    cases = [pytest.param(TPSTry.from_workload(fig1_workload()), id="fig1")]
    for name in ("dblp", "provgen", "musicbrainz", "lubm"):
        cases.append(pytest.param(TPSTry.from_workload(workload(name)), id=name))
    return cases


class TestLinks:
    """A ``fac`` link names exactly one child: growing a sub-graph by an
    edge with factors ``fac`` gives the multiset union of the factors, so
    the child's key is ``sorted(parent + fac)`` (Alg. 2 line 7)."""

    @pytest.mark.parametrize("trie", link_tries())
    def test_child_key_is_parent_plus_fac(self, trie):
        linked = set()
        for parent, node in trie.nodes.items():
            for f, child in node.children_by_fac.items():
                assert child == tuple(sorted(parent + f))
                assert trie.nodes[child].n_edges == node.n_edges + 1
                linked.add(child)
        assert linked == set(trie.nodes) - {ROOT_KEY}

    @pytest.mark.parametrize("trie", link_tries())
    def test_motif_child_is_the_linked_child_in_keep(self, trie):
        """At T = 0.4 and at a T just above the lowest support (so some
        node is left out), a link to a node outside ``keep`` gives None."""
        lowest = min(trie.support(key) for key in trie.nodes if key != ROOT_KEY)
        for threshold in (0.4, math.nextafter(lowest, math.inf)):
            motifs = trie.motifs(threshold)
            outside = 0
            for parent, node in trie.nodes.items():
                for f, child in node.children_by_fac.items():
                    if child in motifs.keep:
                        assert motifs.motif_child(parent, f) == child
                    else:
                        assert motifs.motif_child(parent, f) is None
                        outside += 1
        assert outside > 0


def workload_cases():
    """(motif index, labels) pairs: the Fig. 1 trie at T in {0, 0.4} and
    the four dataset workloads at T = 0.4, each with a data label ``z``
    absent from its workload."""
    fig1 = TPSTry.from_workload(fig1_workload(), p=251, seed=7)
    cases = [
        pytest.param(fig1.motifs(t), ["a", "b", "c", "z"], id=f"fig1-T{t}")
        for t in (0.0, 0.4)
    ]
    for name in ("dblp", "provgen", "musicbrainz", "lubm"):
        wl = workload(name)
        labels = sorted(set().union(*(q.label_set() for q, _ in wl)))
        motifs = TPSTry.from_workload(wl).motifs(0.4)
        cases.append(pytest.param(motifs, labels + ["z"], id=name))
    return cases


def degree_keys(motifs):
    """Every in-range (node, du, dv) key: du, dv in [0, n_edges(node)]."""
    for key in motifs.keep:
        n = motifs.trie.nodes[key].n_edges
        for du in range(n + 1):
            for dv in range(n + 1):
                yield key, du, dv


class TestStepTable:
    """MotifIndex.table(la, lb) must equal motif_child(fac) exactly: the
    matcher looks children up in it instead of calling motif_child."""

    @pytest.mark.parametrize("motifs, labels", workload_cases())
    def test_entries_equal_motif_child(self, motifs, labels):
        h = motifs.trie.h
        hits = 0
        for la in labels:
            for lb in labels:
                steps = motifs.table(la, lb).steps
                in_range = set()
                for key, du, dv in degree_keys(motifs):
                    in_range.add((key, du, dv))
                    want = motifs.motif_child(key, fac(h, la, lb, du, dv))
                    if want is None:
                        assert (key, du, dv) not in steps
                    else:
                        assert steps[(key, du, dv)] == want
                        hits += 1
                assert set(steps) <= in_range
        assert hits > 0

    @pytest.mark.parametrize("motifs, labels", workload_cases())
    def test_mirror(self, motifs, labels):
        for la in labels:
            for lb in labels:
                steps, mirror = motifs.table(la, lb).steps, motifs.table(lb, la).steps
                assert len(steps) == len(mirror)
                for (n, du, dv), child in steps.items():
                    assert mirror[(n, dv, du)] == child

    @pytest.mark.parametrize("motifs, labels", workload_cases())
    def test_side_sets(self, motifs, labels):
        """A node outside from_u has no hit at any (du >= 1, 0), and one
        outside from_v none at any (0, dv >= 1)."""
        for la in labels:
            for lb in labels:
                table = motifs.table(la, lb)
                for key, du, dv in degree_keys(motifs):
                    if (key, du, dv) not in table.steps:
                        continue
                    if du >= 1 and dv == 0:
                        assert key in table.from_u
                    if du == 0 and dv >= 1:
                        assert key in table.from_v
                assert table.from_u <= table.nodes
                assert table.from_v <= table.nodes
                assert table.from_v == motifs.table(lb, la).from_u

    @pytest.mark.parametrize("motifs, labels", workload_cases())
    def test_extendable_is_node_projection(self, motifs, labels):
        """The nodes an la-lb edge can extend are exactly the steps' nodes."""
        for la in labels:
            for lb in labels:
                table = motifs.table(la, lb)
                assert table.nodes == {n for n, _, _ in table.steps}

    def test_side_sets_on_fig1(self, fig1_trie):
        """a-b grows to a-b-a from its b end by an a-b edge (u = a new), and
        to a-b-c from its b end by a b-c edge (v = c new)."""
        motifs = fig1_trie.motifs(0.0)
        ab = next(
            n.key for n in fig1_trie.nodes.values() if n.rep_edges == (("a", "b"),)
        )
        assert ab in motifs.table("a", "b").from_v
        assert ab in motifs.table("b", "a").from_u
        assert ab in motifs.table("b", "c").from_u
        assert ab not in motifs.table("b", "c").from_v
        assert ab in motifs.table("c", "b").from_v

    def test_table_built_once(self, fig1_trie):
        motifs = fig1_trie.motifs(0.4)
        assert motifs.table("a", "b") is motifs.table("a", "b")
        assert motifs.table("b", "a") is motifs.table("b", "a")

    def test_support_equals_trie_support(self, fig1_trie):
        motifs = fig1_trie.motifs(0.0)
        for key in fig1_trie.nodes:
            assert motifs.support(key) == fig1_trie.support(key)


class TestEdgeGate:
    """``table(la, lb).edge`` is the window gate and ``.support`` the
    tie-break weight: both must be what the single-edge motif lookup
    gives, for every label pair a stream can show."""

    @pytest.mark.parametrize("name", ["dblp", "provgen", "musicbrainz", "lubm"])
    def test_every_label_pair_of_a_stream(self, name):
        """Every ordered pair over the labels of the scale-2,000 graph and
        its workload, plus a label ``z`` in neither, so pairs the stream
        never shows and pairs absent from the workload are covered."""
        graph = generators.generate(name, scale=2_000)
        stream = list(stream_of(graph, streams.ordered_stream(graph, "bfs", seed=0)))
        wl = workload(name)
        motifs = TPSTry.from_workload(wl).motifs(0.4)
        h = motifs.trie.h
        labels = sorted(
            graph.label_set().union(*(q.label_set() for q, _ in wl)) | {"z"}
        )
        for la in labels:
            for lb in labels:
                table, mirror = motifs.table(la, lb), motifs.table(lb, la)
                assert table.edge == motifs.single_edge_motif(fac(h, la, lb))
                assert (table.edge, table.support) == (mirror.edge, mirror.support)
                if table.edge is None:
                    assert table.support == 0.0
                else:
                    assert table.support == motifs.support(table.edge)
        # The stream has edge types on both sides of the gate.
        gated = {motifs.table(e.lu, e.lv).edge is None for e in stream}
        assert gated == {True, False}

    def test_gate_follows_factor_arithmetic_not_labels(self):
        """With r(a) = 3, r(b) = 10 and r(x) = 6, an x-b edge has the
        factors {|6 - 10|, 6 + 1, 10 + 1} = {4, 7, 11} of an a-b edge
        ({|3 - 10|, 3 + 1, 10 + 1}), so it passes the gate as a-b although
        no query has label x; y (r = 5, factors {5, 6, 11}) does not."""
        h = LabelHash(["a", "b"]).with_r({"a": 3, "b": 10, "x": 6, "y": 5})
        assert fac(h, "x", "b") == fac(h, "a", "b")
        trie = TPSTry(h)
        trie.add_query(_path(["a", "b", "a"]))
        motifs = trie.motifs(0.4)
        ab = motifs.table("a", "b")
        assert ab.edge is not None and ab.support == 1.0
        for la, lb in (("x", "b"), ("b", "x")):
            table = motifs.table(la, lb)
            assert (table.edge, table.support) == (ab.edge, ab.support)
        assert motifs.table("y", "b").edge is None
        assert motifs.table("y", "b").support == 0.0
