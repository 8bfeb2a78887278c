"""The program names the benchmark in ``loombench/`` patches or calls.

Its traced runs replace these functions by name (``setattr`` on the class
or module where they are looked up) and its untraced runs call them, so
deleting or renaming one breaks the benchmark without failing any other
test here.
"""
import inspect

import pytest

from repro.core import loom, motifs, tpstry
from repro.eval import harness, ipt, matcher
from repro.graphs import generators, streams
from repro.partitioners import base
from repro.workloads import queries
from tests.test_forced_evictions import AuctionLoom

PATCHED = [
    (base.PartitionState, "neighbours_in"),
    (tpstry.MotifIndex, "motif_child"),
    (tpstry.MotifIndex, "single_edge_motif"),
    (motifs.WindowMatcher, "offer"),
    (motifs.WindowMatcher, "matches_containing"),
    (motifs.WindowMatcher, "remove_edges"),
    (loom.LoomPartitioner, "add_edge"),
    (loom.LoomPartitioner, "finalize"),
    (loom, "ldg_choose"),
    (harness, "run_system"),
    (harness, "build_partitioner"),
    (harness, "workload_ipt"),
    (ipt, "partition_tables"),
    (ipt, "register_views"),
]

CALLED = [
    (harness, "run_experiment"),
    (base, "stream_of"),
    (generators, "generate"),
    (streams, "ordered_stream"),
    (queries, "workload"),
    (tpstry.TPSTry, "from_workload"),
    (tpstry.TPSTry, "motifs"),
    (matcher, "ipt_sql"),
]


def _id(case):
    owner, name = case
    return f"{getattr(owner, '__name__', owner)}.{name}"


NAMES = PATCHED + CALLED


@pytest.mark.parametrize("owner, name", NAMES, ids=[_id(c) for c in NAMES])
def test_name_exists_and_is_callable(owner, name):
    assert callable(getattr(owner, name, None)), f"{_id((owner, name))} is gone"


def test_loom_looks_ldg_choose_up_in_its_own_module():
    """The LDG fallback is patched as ``repro.core.loom.ldg_choose``, which
    only takes effect if Loom calls it through that module global."""
    assert "ldg_choose" in loom.LoomPartitioner.choose.__code__.co_names


def test_run_system_takes_the_system_name_first():
    """Traced spans are named ``harness.run_system.<args[0]>``."""
    first = next(iter(inspect.signature(harness.run_system).parameters))
    assert first == "name"


# The call shapes the benchmark uses with the names above.


def test_loom_constructs_from_a_prebuilt_motif_index():
    wl = queries.workload("provgen")
    m = tpstry.TPSTry.from_workload(wl).motifs(loom.DEFAULT_THRESHOLD)
    p = loom.LoomPartitioner(8, 100, motifs=m, window=50)
    assert (p.motifs, p.t) == (m, 50)


def test_partition_tables_returns_vertices_and_dedges():
    g = generators.generate("provgen", scale=300)
    tables = ipt.partition_tables(g, {v: 0 for v in g.labels})
    assert isinstance(tables, tuple) and len(tables) == 2
    assert list(tables[1].columns) == [
        "src", "dst", "src_label", "dst_label", "src_part", "dst_part"
    ]


def test_cold_workload_ipt_registers_views_through_the_module_global(
    spark, monkeypatch
):
    """``eval.register_views_s`` is traced by patching ``ipt.register_views``:
    a cold graph must call it once, a warm one not at all."""
    calls = []
    real = ipt.register_views
    monkeypatch.setattr(
        ipt, "register_views", lambda *a: calls.append(a) or real(*a)
    )
    wl = queries.workload("provgen")
    g1, g2 = (generators.generate("provgen", scale=300) for _ in range(2))
    for g in (g1, g1, g2, g2):
        harness.workload_ipt(spark, g, {v: v % 4 for v in g.labels}, wl)
    assert len(calls) == 2


# Traced counters that assume one call per eviction.


def count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` by name, as the benchmark does, to count calls."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def traced_provgen_run(monkeypatch, cls):
    """ProvGen BFS at scale 2,000, t = 100, k = 8: per eviction, whether it
    ran an auction and how often it called the two traced matcher methods;
    and the total of ``ldg_choose`` calls."""
    found = count_calls(monkeypatch, motifs.WindowMatcher, "matches_containing")
    removed = count_calls(monkeypatch, motifs.WindowMatcher, "remove_edges")
    auctions = count_calls(monkeypatch, loom.LoomPartitioner, "_equal_opportunism")
    fallbacks = count_calls(monkeypatch, loom, "ldg_choose")
    evictions = []
    evict = cls._evict

    def traced_evict(self, e_old):
        before = len(found), len(removed), len(auctions)
        evict(self, e_old)
        after = len(found), len(removed), len(auctions)
        evictions.append(tuple(b - a for a, b in zip(before, after)))

    monkeypatch.setattr(cls, "_evict", traced_evict)
    g = generators.generate("provgen", scale=2_000)
    m = tpstry.TPSTry.from_workload(queries.workload("provgen")).motifs(loom.DEFAULT_THRESHOLD)
    cls(8, g.n_vertices, motifs=m, window=100).partition(
        base.stream_of(g, streams.ordered_stream(g, "bfs", seed=0))
    )
    return evictions, len(fallbacks)


def test_forced_evictions_keep_the_traced_counts(monkeypatch):
    """``motifs.matches_containing.calls`` counts evictions and
    ``motifs.cluster_size.mean`` divides by it, so forced evictions and
    auctions alike call ``matches_containing`` and ``remove_edges`` once;
    and ``partitioners.ldg_choose.calls`` reads as without forced
    evictions, which place no vertex by the LDG fallback."""
    fallbacks = []
    for cls in (loom.LoomPartitioner, AuctionLoom):
        with monkeypatch.context() as mp:
            evictions, n = traced_provgen_run(mp, cls)
        fallbacks.append(n)
        paths = {auction for _, _, auction in evictions}
        assert paths == ({0, 1} if cls is loom.LoomPartitioner else {1})
        assert {(f, r) for f, r, _ in evictions} == {(1, 1)}
    assert fallbacks[0] == fallbacks[1] > 0
