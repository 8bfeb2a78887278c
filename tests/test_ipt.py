"""Tests for workload-level ipt accounting (the paper's quality measure).

``workload_ipt`` scores a partitioning as a weighted edge cut over per-edge
weights cached per graph; DuckDB running the embedding join of ``ipt_sql``
is the reference it must equal, query by query.
"""
import gc
import weakref

import duckdb
import pytest

from repro.eval import ipt
from repro.eval.ipt import (
    QueryIpt,
    WorkloadIpt,
    cut_table,
    edge_weights,
    partition_tables,
    register_views,
    workload_ipt,
)
from repro.eval.matcher import (
    DEDGES,
    WEIGHTS,
    cut_sql,
    ipt_sql,
    weights_sql,
    workload_weights_sql,
)
from repro.graphs.generators import generate, provgen_lite
from repro.graphs.model import LabeledGraph
from repro.oracle import assert_equivalent
from repro.partitioners.hash_part import hash_vertex
from repro.workloads.queries import _path, _star, workload

DATASETS = ("dblp", "provgen", "musicbrainz", "lubm")


def duckdb_ipt(graph, assignment, wl) -> list[tuple[int, int]]:
    """Per-query (n_matches, n_ipt) from ``ipt_sql`` on DuckDB."""
    _, dedges = partition_tables(graph, assignment)
    with duckdb.connect() as con:
        con.register(DEDGES, dedges)
        return [
            tuple(int(x) for x in con.execute(ipt_sql(p)).fetchone()) for p, _ in wl
        ]


def per_query(result: WorkloadIpt) -> list[tuple[int, int]]:
    return [(q.n_matches, q.n_ipt) for q in result.per_query]


@pytest.fixture(scope="module")
def graphs():
    return {name: generate(name, scale=2000) for name in DATASETS}


@pytest.fixture(scope="module")
def small_graph():
    return provgen_lite(scale=300)


class TestDataclasses:
    def test_query_ipt_weighting(self):
        q = QueryIpt(n_matches=10, n_ipt=4, frequency=0.5)
        assert q.weighted_ipt == pytest.approx(2.0)

    def test_workload_total(self):
        w = WorkloadIpt(
            (QueryIpt(5, 10, 0.4), QueryIpt(3, 20, 0.6))
        )
        assert w.total == pytest.approx(0.4 * 10 + 0.6 * 20)
        assert w.total_matches == 8


class TestWorkloadIpt:
    def test_single_partition_zero_total(self, spark, small_graph):
        asg = {v: 0 for v in small_graph.labels}
        result = workload_ipt(spark, small_graph, asg, workload("provgen"))
        assert result.total == 0.0
        assert result.total_matches > 0

    def test_hash_partitioning_positive(self, spark, small_graph):
        asg = {v: hash_vertex(v, 4) for v in small_graph.labels}
        result = workload_ipt(spark, small_graph, asg, workload("provgen"))
        assert result.total > 0

    def test_matches_invariant_under_partitioning(self, spark, small_graph):
        """Embedding counts depend only on the graph, not the partitioning."""
        wl = workload("provgen")
        r1 = workload_ipt(spark, small_graph, {v: 0 for v in small_graph.labels}, wl)
        r2 = workload_ipt(
            spark, small_graph, {v: hash_vertex(v, 8) for v in small_graph.labels}, wl
        )
        assert r1.total_matches == r2.total_matches

    def test_more_partitions_more_ipt(self, spark, small_graph):
        """Sec. 5.2: increasing k increases the probability any edge is
        cut, so hash ipt grows with k."""
        wl = workload("provgen")
        totals = []
        for k in (2, 8, 32):
            asg = {v: hash_vertex(v, k) for v in small_graph.labels}
            totals.append(workload_ipt(spark, small_graph, asg, wl).total)
        assert totals[0] < totals[1] < totals[2]

    def test_spark_agrees_with_duckdb(self, spark, small_graph):
        """The full Spark accounting equals DuckDB running the same SQL."""
        wl = workload("provgen")
        asg = {v: hash_vertex(v, 4) for v in small_graph.labels}
        spark_result = workload_ipt(spark, small_graph, asg, wl)
        _, dedges = partition_tables(small_graph, asg)
        con = duckdb.connect()
        con.register("dedges", dedges)
        for q, (pat, freq) in zip(spark_result.per_query, wl):
            n, c = con.execute(ipt_sql(pat)).fetchone()
            assert q.n_matches == n
            assert q.n_ipt == c
            assert q.frequency == freq
        con.close()

    def test_handmade_graph_exact_value(self, spark):
        g = LabeledGraph({0: "a", 1: "b", 2: "c"}, [(0, 1), (1, 2)])
        wl = [(_path(["a", "b", "c"]), 1.0)]
        cut_asg = {0: 0, 1: 0, 2: 1}
        result = workload_ipt(spark, g, cut_asg, wl)
        assert result.total == pytest.approx(1.0)
        assert result.total_matches == 1


class TestWeightedCutOracle:
    """The weighted edge cut equals DuckDB's embedding join, per query."""

    @staticmethod
    def assignments(graph):
        vids = sorted(graph.labels)
        return {
            "hash": {v: hash_vertex(v, 8) for v in vids},
            "one": {v: 0 for v in vids},
            "own": {v: i for i, v in enumerate(vids)},
            # every third vertex left out: part -1 on both engines
            "partial": {v: hash_vertex(v, 4) for v in vids if v % 3},
        }

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_equals_duckdb_ipt_sql(self, spark, graphs, dataset):
        graph, wl = graphs[dataset], workload(dataset)
        for name, asg in self.assignments(graph).items():
            got = per_query(workload_ipt(spark, graph, asg, wl))
            assert got == duckdb_ipt(graph, asg, wl), name

    @pytest.mark.parametrize("dataset", DATASETS)
    def test_weights_equal_duckdb_weights_sql(self, spark, graphs, dataset):
        graph, wl = graphs[dataset], workload(dataset)
        w = edge_weights(spark, graph, wl)
        src, dst = w.vids[w.src].tolist(), w.vids[w.dst].tolist()
        _, dedges = partition_tables(graph, {})
        with duckdb.connect() as con:
            con.register(DEDGES, dedges)
            for q, (pattern, _) in enumerate(wl):
                rows = con.execute(weights_sql(pattern)).fetchall()
                want = {(s, d): n for s, d, n in rows}
                got = {
                    (s, d): n for s, d, n in zip(src, dst, w.w[:, q].tolist()) if n
                }
                assert got == want
                assert sum(want.values()) == w.n_matches[q] * pattern.n_edges

    @pytest.mark.parametrize("dataset", ["dblp", "lubm"])
    def test_weights_sql_spark_equals_duckdb(self, spark, graphs, dataset):
        _, dedges = partition_tables(graphs[dataset], {})
        register_views(spark, dedges)
        patterns = [p for p, _ in workload(dataset)]
        for pattern in patterns:
            got = spark.sql(weights_sql(pattern))
            assert_equivalent(got, weights_sql(pattern), dedges=dedges)
        sql = workload_weights_sql(patterns)
        assert_equivalent(spark.sql(sql), sql, dedges=dedges)

    def test_cut_sql_spark_equals_duckdb(self, spark, graphs):
        graph, wl = graphs["musicbrainz"], workload("musicbrainz")
        w = edge_weights(spark, graph, wl)
        asg = {v: hash_vertex(v, 8) for v in graph.labels}
        rows = cut_table(w, asg)
        spark.createDataFrame(rows).createOrReplaceTempView(WEIGHTS)
        sql = cut_sql(len(wl))
        assert_equivalent(spark.sql(sql), sql, **{WEIGHTS: rows})

    def test_zero_match_pattern_is_zero_not_null(self, spark, small_graph):
        wl = [(_path(["Entity", "Nowhere"]), 0.5), (_path(["Entity", "Activity"]), 0.5)]
        asg = {v: hash_vertex(v, 4) for v in small_graph.labels}
        result = workload_ipt(spark, small_graph, asg, wl)
        assert per_query(result)[0] == (0, 0)
        assert per_query(result) == duckdb_ipt(small_graph, asg, wl)

    def test_workload_without_matches(self, spark, small_graph):
        wl = [(_path(["Nowhere", "Nowhere"]), 1.0)]
        result = workload_ipt(spark, small_graph, {v: 0 for v in small_graph.labels}, wl)
        assert per_query(result) == [(0, 0)]
        assert result.total == 0.0

    def test_automorphic_images_count_separately(self, spark):
        """a0-b-a1 holds one a-b-a sub-graph but two embeddings (swap the
        a's); cutting b-a1 charges each embedding once."""
        g = LabeledGraph({0: "a", 1: "b", 2: "a"}, [(0, 1), (1, 2)])
        wl = [(_path(["a", "b", "a"]), 0.5), (_star("b", ["a", "a"]), 0.5)]
        asg = {0: 0, 1: 0, 2: 1}
        assert per_query(workload_ipt(spark, g, asg, wl)) == [(2, 2), (2, 2)]
        assert duckdb_ipt(g, asg, wl) == [(2, 2), (2, 2)]


class TestWeightsCache:
    def count_computations(self, monkeypatch) -> list:
        calls = []
        real = ipt.workload_weights_sql
        monkeypatch.setattr(
            ipt, "workload_weights_sql", lambda ps: calls.append(ps) or real(ps)
        )
        return calls

    def test_computed_once_per_graph_and_patterns(self, spark, monkeypatch):
        calls = self.count_computations(monkeypatch)
        g = provgen_lite(scale=300)
        wl = workload("provgen")
        for k in (1, 2, 4):
            asg = {v: hash_vertex(v, k) for v in g.labels}
            assert per_query(workload_ipt(spark, g, asg, wl)) == duckdb_ipt(g, asg, wl)
        assert len(calls) == 1

    def test_equal_but_distinct_graph_gets_its_own(self, spark):
        g1, g2 = provgen_lite(scale=300), provgen_lite(scale=300)
        assert g1 == g2 and g1 is not g2
        wl = workload("provgen")
        assert edge_weights(spark, g1, wl) is not edge_weights(spark, g2, wl)

    def test_changed_edge_is_not_served_stale_weights(self, spark):
        labels = {0: "a", 1: "b", 2: "c", 3: "c"}
        g1 = LabeledGraph(labels, [(0, 1), (1, 2)])
        g2 = LabeledGraph(labels, [(0, 1), (0, 3)])
        wl = [(_path(["a", "b", "c"]), 1.0)]
        asg = {0: 0, 1: 0, 2: 1, 3: 1}
        assert per_query(workload_ipt(spark, g1, asg, wl)) == [(1, 1)]
        assert per_query(workload_ipt(spark, g2, asg, wl)) == [(0, 0)]
        assert per_query(workload_ipt(spark, g1, asg, wl)) == [(1, 1)]

    def test_other_workload_is_recomputed(self, spark, monkeypatch):
        calls = self.count_computations(monkeypatch)
        g = provgen_lite(scale=300)
        asg = {v: hash_vertex(v, 4) for v in g.labels}
        wl1 = workload("provgen")
        wl2 = [(_path(["Entity", "Activity"]), 1.0)]
        # pattern 0 rewired: the same labels, Entity in the middle
        (p0, f0), *rest = wl1
        wl3 = [(LabeledGraph(p0.labels, [(0, 1), (0, 2)]), f0), *rest]
        for wl in (wl1, wl2, wl1, wl3):
            assert per_query(workload_ipt(spark, g, asg, wl)) == duckdb_ipt(g, asg, wl)
        assert len(calls) == 4

    def test_frequencies_are_reread(self, spark, monkeypatch):
        calls = self.count_computations(monkeypatch)
        g = provgen_lite(scale=300)
        asg = {v: hash_vertex(v, 4) for v in g.labels}
        wl = workload("provgen")
        flipped = [(p, f) for (p, _), f in zip(wl, reversed([f for _, f in wl]))]
        a, b = workload_ipt(spark, g, asg, wl), workload_ipt(spark, g, asg, flipped)
        assert [q.frequency for q in b.per_query] == [f for _, f in flipped]
        assert per_query(a) == per_query(b)
        assert len(calls) == 1

    def test_entry_leaves_with_its_graph(self, spark):
        g = provgen_lite(scale=300)
        edge_weights(spark, g, workload("provgen"))
        gid, ref = id(g), weakref.ref(g)
        assert gid in ipt._WEIGHTS
        del g
        gc.collect()
        assert ref() is None
        assert gid not in ipt._WEIGHTS

    def test_cold_call_registers_only_dedges(self, spark):
        """The SQL reads ``dedges`` alone, so a cold ``edge_weights`` leaves
        no ``vertices`` view behind."""
        spark.catalog.dropTempView("vertices")
        edge_weights(spark, provgen_lite(scale=300), workload("provgen"))
        assert spark.catalog.tableExists(DEDGES)
        assert not spark.catalog.tableExists("vertices")
