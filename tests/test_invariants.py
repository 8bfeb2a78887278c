"""End-of-stream invariants of every partitioner (DESIGN.md §3b).

After ``finalize`` on a whole stream, for Hash, LDG, Fennel and Loom on
every dataset and stream order at generator scale 2,000 (k = 8, the
harness's default window):

* every stream vertex is assigned exactly once, to a partition in [0, k);
* the partition sizes add up to the number of assigned vertices;
* no partition is above capacity while another is below it (a spill is
  only allowed once every partition is full);
* Loom's window and matchList are empty.

Vertex ids far beyond the declared vertex count are placed like any other
(§3b.10).
"""
import random

import pytest

from repro.core.loom import LoomPartitioner
from repro.eval import harness
from repro.graphs import generators, streams
from repro.partitioners.base import StreamEdge, stream_of
from repro.partitioners.fennel import FennelPartitioner
from repro.partitioners.hash_part import HashPartitioner, hash_vertex
from repro.partitioners.ldg import LDGPartitioner
from repro.workloads import queries
from repro.workloads.queries import _path

SCALE = 2_000
K = 8
DATASETS = ("dblp", "provgen", "musicbrainz", "lubm")
ORDERS = ("bfs", "dfs", "random")


@pytest.fixture(scope="module")
def graphs():
    return {name: generators.generate(name, scale=SCALE) for name in DATASETS}


@pytest.mark.parametrize("system", harness.SYSTEMS)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("dataset", DATASETS)
def test_end_of_stream_invariants(graphs, dataset, order, system):
    graph = graphs[dataset]
    edges = streams.ordered_stream(graph, order, seed=0)
    p = harness.build_partitioner(system, K, graph, queries.workload(dataset))
    p.partition(stream_of(graph, edges))
    st = p.state

    assert st.assignment.keys() == {v for edge in edges for v in edge}
    assert all(0 <= pid < K for pid in st.assignment.values())
    assert sum(st.sizes) == len(st.assignment)
    assert st.sizes == [
        sum(1 for pid in st.assignment.values() if pid == i) for i in range(K)
    ]
    assert not (max(st.sizes) > st.capacity and min(st.sizes) < st.capacity)
    if system == "loom":
        assert len(p.matcher) == 0
        assert not p.matcher.window
        assert not p.matcher.match_list


# Vertex ids beyond the declared vertex count (DESIGN.md §3b.10): ids are
# dictionary keys, and n only sizes the balance caps.
FAR_IDS = random.Random(0).sample(range(10**6, 10**7), 60)


def far_partitioner(system: str, k: int, n: int, m: int):
    if system == "hash":
        return HashPartitioner(k, n)
    if system == "ldg":
        return LDGPartitioner(k, n)
    if system == "fennel":
        return FennelPartitioner(k, n, m)
    wl = [(_path(["a", "b", "c"]), 0.6), (_path(["a", "b"]), 0.4)]
    return LoomPartitioner(k, n, wl, window=10)


@pytest.mark.parametrize("system", harness.SYSTEMS)
def test_vertex_ids_beyond_n(system):
    """60 distinct ids in [10^6, 10^7) on a path, declared as n = 10 with
    k = 4: every id is placed. LDG, Fennel and Loom fill each partition to
    the cap of 3 before any spill, then spill to the least loaded, ending
    at 15 each; Hash ignores the cap."""
    k = 4
    stream = [
        StreamEdge(i, u, v, "abc"[i % 3], "abc"[(i + 1) % 3])
        for i, (u, v) in enumerate(zip(FAR_IDS, FAR_IDS[1:]))
    ]
    p = far_partitioner(system, k, 10, len(stream))
    asg = p.partition(stream)
    assert asg.keys() == set(FAR_IDS)
    if system == "hash":
        assert all(pid == hash_vertex(v, k) for v, pid in asg.items())
        return
    cap = p.state.capacity
    assert cap == 3
    sizes = [0] * k
    for pid in asg.values():  # in placement order
        if min(sizes) < cap:
            assert sizes[pid] < cap
        else:
            assert sizes[pid] == min(sizes)
        sizes[pid] += 1
    assert sizes == p.state.sizes == [15] * k
