"""Unit tests for the graph model and the Table-1 dataset substitutes."""
import pytest

from repro.graphs.generators import (
    DATASETS,
    PAPER_TABLE1,
    Relation,
    dblp_lite,
    generate,
    lubm_lite,
    musicbrainz_lite,
    provgen_lite,
    schema_graph,
)
from repro.graphs.model import LabeledGraph, norm_edge, subgraph_degrees
from repro.workloads.queries import workload


class TestModel:
    def test_norm_edge(self):
        assert norm_edge(3, 1) == (1, 3)
        assert norm_edge(1, 3) == (1, 3)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            LabeledGraph({0: "a"}, [(0, 0)])

    def test_rejects_unlabelled_endpoint(self):
        with pytest.raises(ValueError):
            LabeledGraph({0: "a"}, [(0, 1)])

    def test_canonical_edges_dedup(self):
        g = LabeledGraph({0: "a", 1: "b"}, [(0, 1), (1, 0), (0, 1)])
        assert g.canonical_edges() == [(0, 1)]
        assert g.n_edges == 1

    def test_canonical_edges_computed_once(self):
        g = LabeledGraph({0: "a", 1: "b", 2: "c"}, [(2, 1), (0, 1)])
        assert g.canonical_edges() is g.canonical_edges()
        assert "_canonical" not in repr(g)

    def test_canonical_edge_list_shared_when_already_canonical(self):
        labels = {0: "a", 1: "b", 2: "c"}
        edges = [(0, 1), (0, 2), (1, 2)]
        g = LabeledGraph(labels, edges)
        assert g.canonical_edges() is edges
        for other in ([(1, 0), (0, 2)], [(0, 2), (0, 1)], [(0, 1), (0, 1)], [[0, 1]]):
            g = LabeledGraph(labels, other)
            assert g.canonical_edges() is not other
            assert g.canonical_edges() == sorted({norm_edge(u, v) for u, v in other})

    def test_degree_and_adjacency(self):
        g = LabeledGraph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)])
        assert g.degree(1) == 2
        assert sorted(g.adjacency()[1]) == [0, 2]

    def test_subgraph_degrees(self):
        assert subgraph_degrees([(0, 1), (1, 2)]) == {0: 1, 1: 2, 2: 1}

    def test_label_set(self):
        g = LabeledGraph({0: "a", 1: "b", 2: "a"}, [(0, 1)])
        assert g.label_set() == {"a", "b"}


class TestSchemaGraph:
    def test_deterministic(self):
        g1 = schema_graph({"a": 0.5, "b": 0.5}, [Relation("a", "b", 1.0)], scale=100, seed=1)
        g2 = schema_graph({"a": 0.5, "b": 0.5}, [Relation("a", "b", 1.0)], scale=100, seed=1)
        assert g1.labels == g2.labels
        assert g1.canonical_edges() == g2.canonical_edges()

    def test_seed_changes_graph(self):
        g1 = schema_graph({"a": 0.5, "b": 0.5}, [Relation("a", "b", 1.0)], scale=100, seed=1)
        g2 = schema_graph({"a": 0.5, "b": 0.5}, [Relation("a", "b", 1.0)], scale=100, seed=2)
        assert g1.canonical_edges() != g2.canonical_edges()

    def test_relation_respects_schema(self):
        g = schema_graph(
            {"a": 0.5, "b": 0.3, "c": 0.2},
            [Relation("a", "b", 1.5)],
            scale=200,
            seed=0,
        )
        for u, v in g.canonical_edges():
            assert {g.label_of(u), g.label_of(v)} == {"a", "b"}

    def test_no_self_loops(self):
        g = schema_graph({"a": 1.0}, [Relation("a", "a", 2.0)], scale=100, seed=0)
        for u, v in g.canonical_edges():
            assert u != v

    def test_contiguous_class_blocks(self):
        g = schema_graph({"a": 0.5, "b": 0.5}, [], scale=10, seed=0)
        labels = [g.label_of(v) for v in sorted(g.labels)]
        assert labels == ["a"] * 5 + ["b"] * 5

    def test_zipf_skews_degrees(self):
        g = schema_graph(
            {"src": 0.9, "dst": 0.1},
            [Relation("src", "dst", 1.0, zipf=1.4)],
            scale=2000,
            seed=0,
        )
        degs = sorted(
            (g.degree(v) for v in g.labels if g.label_of(v) == "dst"), reverse=True
        )
        # heavy-tailed: the busiest destination well above the mean
        mean = sum(degs) / len(degs)
        assert degs[0] > 4 * mean


class TestDatasetSubstitutes:
    @pytest.mark.parametrize(
        "name,fn", [("dblp", dblp_lite), ("provgen", provgen_lite),
                    ("musicbrainz", musicbrainz_lite), ("lubm", lubm_lite)]
    )
    def test_label_count_matches_table1(self, name, fn):
        """|L_V| is Table 1's heterogeneity column: 8 / 3 / 12 / 15."""
        g = fn(scale=1500)
        assert len(g.label_set()) == PAPER_TABLE1[name][2]

    @pytest.mark.parametrize(
        "name,lo,hi",
        [("dblp", 1.5, 2.5), ("provgen", 1.4, 2.2),
         ("musicbrainz", 2.0, 3.6), ("lubm", 2.2, 4.6)],
    )
    def test_edge_vertex_ratio(self, name, lo, hi):
        g = DATASETS[name](scale=2000)
        ratio = g.n_edges / g.n_vertices
        assert lo <= ratio <= hi, f"{name} E/V = {ratio:.2f}"

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_scale_controls_size(self, name):
        small = DATASETS[name](scale=500)
        big = DATASETS[name](scale=2000)
        assert 3 <= big.n_vertices / small.n_vertices <= 5

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_deterministic(self, name):
        g1, g2 = DATASETS[name](scale=500), DATASETS[name](scale=500)
        assert g1.canonical_edges() == g2.canonical_edges()

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_workload_patterns_have_matches(self, name, spark):
        """Every workload pattern must occur in its dataset — otherwise
        the ipt experiment would be vacuous."""
        import duckdb

        from repro.eval.ipt import partition_tables
        from repro.eval.matcher import ipt_sql

        g = DATASETS[name](scale=1500)
        _, dedges = partition_tables(g, {})
        con = duckdb.connect()
        con.register("dedges", dedges)
        for pat, _ in workload(name):
            n = con.execute(ipt_sql(pat)).fetchone()[0]  # n_matches
            assert n > 0, f"{name}: pattern {sorted(pat.labels.values())} unmatched"
        con.close()

    @pytest.mark.parametrize("name", list(DATASETS))
    def test_queried_types_are_proper_subset(self, name):
        """Workload edge types must cover some but not all edges —
        the skew premise of the paper (Sec. 1, Sec. 5.1.1)."""
        g = DATASETS[name](scale=1500)
        qtypes = {
            frozenset((p.label_of(a), p.label_of(b)))
            for p, _ in workload(name)
            for a, b in p.canonical_edges()
        }
        queried = sum(
            1
            for u, v in g.canonical_edges()
            if frozenset((g.label_of(u), g.label_of(v))) in qtypes
        )
        assert 0.2 <= queried / g.n_edges <= 0.9

    def test_generate_by_name(self):
        g = generate("dblp", scale=300)
        assert g.n_vertices > 0

    def test_generate_lubm4000_is_larger(self):
        g100 = generate("lubm", scale=500)
        g4000 = generate("lubm4000", scale=500)
        assert g4000.n_vertices > 2 * g100.n_vertices

    def test_generate_unknown_raises(self):
        with pytest.raises(KeyError):
            generate("imdb")


class TestSparkIntegration:
    def test_vertices_and_edges_df(self, spark):
        from repro.graphs.model import edges_df, vertices_df

        g = dblp_lite(scale=300)
        v = vertices_df(spark, g)
        e = edges_df(spark, g)
        assert v.count() == g.n_vertices
        assert e.count() == g.n_edges
        assert set(v.columns) == {"vid", "label"}
        assert set(e.columns) == {"src", "dst"}

    def test_dataset_stats_match_oracle(self, spark):
        """Label histogram computed by Spark matches DuckDB (Table 1 stats
        path through the oracle)."""
        from repro.graphs.model import vertices_df
        from repro.oracle import assert_equivalent

        g = provgen_lite(scale=400)
        v = vertices_df(spark, g)
        got = v.groupBy("label").count().withColumnRenamed("count", "n")
        assert_equivalent(
            got,
            "SELECT label, COUNT(*) AS n FROM verts GROUP BY label",
            verts=v,
        )
