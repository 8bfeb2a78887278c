"""Unit tests for TPSTry++ construction and motif filtering (Sec. 2, Alg. 1)."""
import pytest

from repro.core.signature import LabelHash, fac, incremental_factors
from repro.core.tpstry import ROOT_KEY, TPSTry
from repro.graphs.model import LabeledGraph
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


class TestConstruction:
    def test_root_exists(self, fig1_trie):
        assert ROOT_KEY in fig1_trie.nodes
        assert fig1_trie.nodes[ROOT_KEY].n_edges == 0

    def test_single_edge_nodes_are_root_children(self, fig1_trie):
        root = fig1_trie.nodes[ROOT_KEY]
        for child in root.children:
            assert fig1_trie.nodes[child].n_edges == 1

    def test_fig1_single_edges(self, fig1_trie):
        """Fig. 2's first trie level: exactly the edge types a-b and b-c."""
        root = fig1_trie.nodes[ROOT_KEY]
        reps = {fig1_trie.nodes[c].rep_edges for c in root.children}
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
            n for n in trie.nodes.values() if paths3[0].key in n.children
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

    def test_children_by_fac_resolves(self, fig1_trie):
        """Every child is reachable through its fac key (Alg. 2's lookup)."""
        for node in fig1_trie.nodes.values():
            via_fac = {c for cs in node.children_by_fac.values() for c in cs}
            assert via_fac == node.children

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
            for child in node.children:
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
            for child in node.children:
                if motifs.is_motif(child):
                    assert motifs.is_motif(node.key)

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
    """A node outside MotifIndex.extendable(la, lb) must have no motif
    child for any la-lb edge, whatever the endpoint degrees."""

    LABELS = ["a", "b", "c", "z"]  # z: a data label absent from the workload

    @pytest.mark.parametrize("threshold", [0.0, 0.4])
    def test_excluded_node_has_no_motif_child(self, fig1_trie, threshold):
        motifs = fig1_trie.motifs(threshold)
        for key in motifs.keep:
            n = fig1_trie.nodes[key].n_edges
            for la in self.LABELS:
                for lb in self.LABELS:
                    if key in motifs.extendable(la, lb):
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
        assert ab in motifs.extendable("a", "b")
        assert ab in motifs.extendable("c", "b")
        assert ab not in motifs.extendable("a", "c")
        assert not motifs.extendable("z", "z")

    def test_symmetric_in_labels(self, fig1_trie):
        motifs = fig1_trie.motifs(0.4)
        for la in self.LABELS:
            for lb in self.LABELS:
                assert motifs.extendable(la, lb) == motifs.extendable(lb, la)

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
