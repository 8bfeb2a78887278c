"""Smoke tests for the spark-submit job entrypoints at tiny scale.

Each job's ``run(spark, ...)`` must produce a well-formed table; these
run the full pipelines end-to-end (generation -> ordering -> partition ->
Spark SQL ipt) on graphs small enough for CI.
"""
from collections import Counter

import pytest

from jobs import fig7_relative_ipt, fig8_k_sweep, fig9_window_sweep
from jobs import table1_datasets, table2_throughput
from repro.eval.harness import run_system

SCALE = 400


class TestTable1:
    def test_renders_all_datasets(self, spark):
        out = table1_datasets.run(spark, scale=SCALE)
        for name in ("dblp", "provgen", "musicbrainz", "lubm", "lubm4000"):
            assert name in out
        assert "paper |V|" in out

    def test_row_count(self, spark):
        out = table1_datasets.run(spark, scale=SCALE)
        assert len(out.splitlines()) == 2 + 5


class TestTable2:
    def test_all_cells_positive(self, spark):
        out = table2_throughput.run(spark, scale=SCALE, window=200)
        lines = out.splitlines()
        assert len(lines) == 2 + 5
        for line in lines[2:]:
            assert "(" in line  # paper reference values present


    def test_each_cell_warmed_then_timed_three_times(self, spark, monkeypatch):
        """One untimed warm-up pass, then the median of TIMED_PASSES."""
        seen = []

        def counting(name, graph, *args, **kwargs):
            seen.append((name, graph))
            return run_system(name, graph, *args, **kwargs)

        monkeypatch.setattr(table2_throughput, "run_system", counting)
        table2_throughput.run(spark, scale=SCALE, window=200)
        counts = Counter((name, id(graph)) for name, graph in seen)
        n_datasets = len(table2_throughput.DATASET_ORDER)
        assert len(counts) == n_datasets * len(table2_throughput.SYSTEM_ORDER)
        assert set(counts.values()) == {1 + table2_throughput.TIMED_PASSES}
        assert table2_throughput.TIMED_PASSES == 3


class TestFig7:
    def test_one_dataset_one_order(self, spark):
        out = fig7_relative_ipt.run(
            spark, scale=SCALE, k=4, window=200,
            datasets=("provgen",), orders=("bfs",),
        )
        lines = out.splitlines()
        assert len(lines) == 2 + 4  # header + rule + 4 systems
        assert "100.0%" in lines[2]  # hash row is the baseline


class TestFig8:
    def test_k_values_appear(self, spark):
        out = fig8_k_sweep.run(
            spark, scale=SCALE, window=200, datasets=("provgen",), ks=(2, 4)
        )
        assert len(out.splitlines()) == 2 + 2 * 4


class TestFig9:
    def test_window_columns(self, spark):
        out = fig9_window_sweep.run(
            spark, scale=SCALE, k=4, datasets=("provgen",), windows=(50, 200)
        )
        lines = out.splitlines()
        assert "t=" in lines[0]
        assert len(lines) == 2 + 1
