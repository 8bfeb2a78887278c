"""End-of-stream invariants of every partitioner (DESIGN.md §3b).

After ``finalize`` on a whole stream, for Hash, LDG, Fennel and Loom on
every dataset and stream order at generator scale 2,000 (k = 8, the
harness's default window):

* every stream vertex is assigned exactly once, to a partition in [0, k);
* the partition sizes add up to the number of assigned vertices;
* no partition is above capacity while another is below it (a spill is
  only allowed once every partition is full);
* Loom's window and matchList are empty.
"""
import pytest

from repro.eval import harness
from repro.graphs import generators, streams
from repro.partitioners.base import stream_of
from repro.workloads import queries

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
