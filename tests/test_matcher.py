"""Tests for the Spark SQL pattern matcher, validated against DuckDB.

Every query-result test runs the compiled SQL on Spark and checks it with
``repro.oracle.assert_equivalent`` over the same tables, so a broken
Catalyst plan (wrong join, dropped predicate) fails loudly.
"""
import duckdb
import pytest

from repro.eval.ipt import partition_tables, register_views
from repro.eval.matcher import DEDGES, embeddings_sql, ipt_sql
from repro.graphs.generators import dblp_lite, musicbrainz_lite
from repro.graphs.model import LabeledGraph
from repro.oracle import assert_equivalent
from repro.partitioners.hash_part import hash_vertex
from repro.workloads.queries import _path, _star, workload


def tiny_graph() -> LabeledGraph:
    """Fig. 1's graph G: vertices 1-8, labels a/b/c, hand-checkable."""
    labels = {1: "a", 2: "b", 3: "c", 4: "b", 5: "a", 6: "a", 7: "b", 8: "c"}
    edges = [(1, 2), (2, 3), (2, 6), (1, 4), (4, 5), (5, 7), (6, 7), (7, 8)]
    return LabeledGraph(labels, edges)


def hash_assignment(g: LabeledGraph, k: int = 2) -> dict[int, int]:
    return {v: hash_vertex(v, k) for v in g.labels}


@pytest.fixture()
def tiny_views(spark):
    g = tiny_graph()
    _, dedges = partition_tables(g, hash_assignment(g))
    register_views(spark, dedges)
    return g, dedges


class TestSqlGeneration:
    def test_one_alias_per_pattern_edge(self):
        sql = embeddings_sql(_path(["a", "b", "c"]))
        assert sql.count(f"{DEDGES} e") == 2

    def test_labels_constrained(self):
        sql = embeddings_sql(_path(["a", "b"]))
        assert "src_label = 'a'" in sql
        assert "dst_label = 'b'" in sql

    def test_distinctness_only_for_equal_labels(self):
        sql_hetero = embeddings_sql(_path(["a", "b", "c"]))
        assert "<>" not in sql_hetero  # no vid inequality predicates needed
        sql_homo = embeddings_sql(_path(["a", "b", "a"]))
        assert "<>" in sql_homo

    def test_rejects_edgeless_pattern(self):
        with pytest.raises(ValueError):
            embeddings_sql(LabeledGraph({0: "a"}, []))


class TestTinyGraphCounts:
    """Hand-computed embedding counts on the Fig. 1 graph."""

    def run_count(self, spark, pattern):
        return spark.sql(ipt_sql(pattern)).collect()[0]["n_matches"]

    def test_ab_edges(self, spark, tiny_views):
        # a-b edges: (1,2) (1,4) (4,5) (5,7) (6,7) (2,6) -> 6, each matched
        # in exactly one direction by the label constraint
        assert self.run_count(spark, _path(["a", "b"])) == 6

    def test_bc_edges(self, spark, tiny_views):
        # b-c edges: (2,3), (7,8)
        assert self.run_count(spark, _path(["b", "c"])) == 2

    def test_abc_paths(self, spark, tiny_views):
        # a-b-c paths: 1-2-3, 6-2-3, 5-7-8, 6-7-8
        assert self.run_count(spark, _path(["a", "b", "c"])) == 4

    def test_aba_counts_both_directions(self, spark, tiny_views):
        # a-b-a sub-graphs {1-2-6, 1-4-5, 5-7-6}, each matched by 2
        # bijections (swap the two 'a' vertices)
        assert self.run_count(spark, _path(["a", "b", "a"])) == 6

    def test_star_b_aa(self, spark, tiny_views):
        # b vertices with >= 2 'a' neighbours: 2 (1,6), 4 (1,5), 7 (5,6)
        # each star counted twice (leaf order)
        assert self.run_count(spark, _star("b", ["a", "a"])) == 6

    def test_no_match_label(self, spark, tiny_views):
        assert self.run_count(spark, _path(["c", "c"])) == 0


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "pattern",
        [
            _path(["a", "b"]),
            _path(["a", "b", "c"]),
            _path(["a", "b", "a"]),
            _star("b", ["a", "a", "c"]),
            _path(["a", "b", "a", "b"]),
        ],
        ids=["edge", "path3", "homo-path", "star", "path4"],
    )
    def test_embeddings_match_duckdb(self, spark, tiny_views, pattern):
        _, dedges = tiny_views
        got = spark.sql(embeddings_sql(pattern))
        assert_equivalent(got, embeddings_sql(pattern), dedges=dedges)

    def test_counts_match_duckdb_on_dblp(self, spark):
        g = dblp_lite(scale=300)
        _, dedges = partition_tables(g, hash_assignment(g, 4))
        register_views(spark, dedges)
        for pattern, _ in workload("dblp"):
            got = spark.sql(ipt_sql(pattern))
            assert_equivalent(got, ipt_sql(pattern), dedges=dedges)

    def test_ipt_matches_duckdb_on_musicbrainz(self, spark):
        g = musicbrainz_lite(scale=300)
        _, dedges = partition_tables(g, hash_assignment(g, 4))
        register_views(spark, dedges)
        for pattern, _ in workload("musicbrainz"):
            got = spark.sql(ipt_sql(pattern))
            assert_equivalent(got, ipt_sql(pattern), dedges=dedges)


class TestIptSql:
    def test_all_one_partition_zero_ipt(self, spark):
        g = tiny_graph()
        _, dedges = partition_tables(g, {v: 0 for v in g.labels})
        register_views(spark, dedges)
        row = spark.sql(ipt_sql(_path(["a", "b", "c"]))).collect()[0]
        assert row["n_matches"] == 4
        assert row["n_ipt"] == 0

    def test_each_vertex_own_partition_cuts_everything(self, spark):
        g = tiny_graph()
        _, dedges = partition_tables(g, {v: v for v in g.labels})
        register_views(spark, dedges)
        row = spark.sql(ipt_sql(_path(["a", "b", "c"]))).collect()[0]
        # every pattern edge of every embedding is cut: 4 matches * 2 edges
        assert row["n_ipt"] == 8

    def test_hand_computed_cut(self, spark):
        g = tiny_graph()
        assignment = {1: 0, 2: 0, 3: 0, 4: 0, 5: 1, 6: 1, 7: 1, 8: 1}
        _, dedges = partition_tables(g, assignment)
        register_views(spark, dedges)
        # a-b-c embeddings: 1-2-3 (0 cuts), 6-2-3 (edge 6-2 cut -> 1),
        # 5-7-8 (0 cuts), 6-7-8 (0 cuts)
        row = spark.sql(ipt_sql(_path(["a", "b", "c"]))).collect()[0]
        assert row["n_ipt"] == 1

    def test_empty_match_is_zero_not_null(self, spark, tiny_views):
        row = spark.sql(ipt_sql(_path(["c", "c"]))).collect()[0]
        assert row["n_matches"] == 0
        assert row["n_ipt"] == 0


class TestPartitionTables:
    def test_dedges_has_both_orientations(self):
        g = tiny_graph()
        _, dedges = partition_tables(g, {})
        assert len(dedges) == 2 * g.n_edges
        pairs = set(zip(dedges.src, dedges.dst))
        assert (1, 2) in pairs and (2, 1) in pairs

    def test_unassigned_part_is_minus_one(self):
        g = tiny_graph()
        vertices, dedges = partition_tables(g, {1: 0})
        assert vertices.set_index("vid").loc[2, "part"] == -1
        assert vertices.set_index("vid").loc[1, "part"] == 0

    def test_labels_denormalised_correctly(self):
        g = tiny_graph()
        _, dedges = partition_tables(g, {})
        for r in dedges.itertuples():
            assert r.src_label == g.label_of(r.src)
            assert r.dst_label == g.label_of(r.dst)
