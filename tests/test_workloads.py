"""Unit tests for the per-dataset query workloads (Sec. 5.1.2)."""
import pytest

from repro.graphs.generators import DATASETS
from repro.workloads.queries import WORKLOADS, _path, _star, workload


class TestBuilders:
    def test_path_shape(self):
        p = _path(["a", "b", "c"])
        assert p.n_vertices == 3
        assert p.canonical_edges() == [(0, 1), (1, 2)]
        assert [p.label_of(i) for i in range(3)] == ["a", "b", "c"]

    def test_star_shape(self):
        s = _star("hub", ["x", "y", "z"])
        assert s.n_vertices == 4
        assert s.degree(0) == 3
        assert s.label_of(0) == "hub"

    def test_two_vertex_path(self):
        p = _path(["a", "b"])
        assert p.canonical_edges() == [(0, 1)]


class TestWorkloads:
    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_frequencies_sum_to_one(self, name):
        wl = workload(name)
        assert sum(f for _, f in wl) == pytest.approx(1.0)

    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_all_frequencies_positive(self, name):
        assert all(f > 0 for _, f in workload(name))

    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_patterns_are_small(self, name):
        """Fig. 6-scale patterns: 2-4 edges ('of the order of 10 edges'
        is the paper's upper bound for query graphs)."""
        for pat, _ in workload(name):
            assert 1 <= pat.n_edges <= 10

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_pattern_labels_exist_in_dataset(self, name):
        g = DATASETS[name](scale=500)
        data_labels = g.label_set()
        for pat, _ in workload(name):
            assert pat.label_set() <= data_labels

    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_patterns_connected(self, name):
        for pat, _ in workload(name):
            adj = pat.adjacency()
            seen = set()
            stack = [next(iter(pat.labels))]
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                stack.extend(adj[v])
            assert seen == set(pat.labels)

    def test_lubm4000_shares_lubm_workload(self):
        w1 = [(sorted(p.labels.values()), f) for p, f in workload("lubm")]
        w2 = [(sorted(p.labels.values()), f) for p, f in workload("lubm4000")]
        assert w1 == w2

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            workload("snap-twitter")

    @pytest.mark.parametrize("scale", [0.5, 1.5])
    def test_frequencies_not_summing_to_one_raise(self, monkeypatch, scale):
        """A ValueError, not an assert, so the check survives ``python -O``."""
        skewed = [(p, f * scale) for p, f in workload("dblp")]
        monkeypatch.setitem(WORKLOADS, "dblp", lambda: skewed)
        with pytest.raises(ValueError, match="sum to"):
            workload("dblp")

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_motifs_exist_at_paper_threshold(self, name):
        """Every workload yields motifs at the paper's T = 40%, including
        at least one multi-edge motif so equal opportunism is exercised."""
        from repro.core.tpstry import TPSTry

        motifs = TPSTry.from_workload(workload(name)).motifs(0.4)
        assert len(motifs) >= 2
        assert motifs.max_motif_edges() >= 2
