"""Unit tests for graph stream orderings (paper Sec. 5.1)."""
import pytest

from repro.graphs.generators import provgen_lite
from repro.graphs.model import LabeledGraph, norm_edge
from repro.graphs.streams import (
    ORDERS,
    bfs_order,
    dfs_order,
    ordered_stream,
    random_order,
)


@pytest.fixture(scope="module")
def graph():
    return provgen_lite(scale=400)


def assert_is_permutation(order, graph):
    assert sorted(order) == graph.canonical_edges()


class TestCoverage:
    @pytest.mark.parametrize("order_name", ORDERS)
    def test_each_order_is_edge_permutation(self, order_name, graph):
        """Every ordering streams each edge exactly once."""
        assert_is_permutation(ordered_stream(graph, order_name, seed=0), graph)

    @pytest.mark.parametrize("order_name", ORDERS)
    def test_deterministic_in_seed(self, order_name, graph):
        o1 = ordered_stream(graph, order_name, seed=5)
        o2 = ordered_stream(graph, order_name, seed=5)
        assert o1 == o2

    @pytest.mark.parametrize("order_name", ORDERS)
    def test_seed_changes_order(self, order_name, graph):
        o1 = ordered_stream(graph, order_name, seed=1)
        o2 = ordered_stream(graph, order_name, seed=2)
        assert o1 != o2

    def test_unknown_order_raises(self, graph):
        with pytest.raises(ValueError):
            ordered_stream(graph, "priority", seed=0)

    def test_disconnected_components_covered(self):
        g = LabeledGraph(
            {0: "a", 1: "a", 2: "b", 3: "b"}, [(0, 1), (2, 3)]
        )
        for order_name in ORDERS:
            assert_is_permutation(ordered_stream(g, order_name, seed=0), g)


class TestTraversalStructure:
    def test_bfs_prefix_is_connected(self, graph):
        """Within one component, every BFS prefix forms a connected
        sub-graph plus possibly fresh component starts."""
        order = bfs_order(graph, seed=0)
        comp = {}  # vertex -> component representative via union-find
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        n_components_started = 0
        seen = set()
        for u, v in order:
            fresh = u not in seen and v not in seen
            if fresh:
                n_components_started += 1
            seen.add(u)
            seen.add(v)
            parent[find(u)] = find(v)
        # a traversal order starts each component exactly once: the number
        # of fresh-start edges equals the number of connected components
        roots = {find(v) for v in seen}
        assert n_components_started == len(roots)

    def test_dfs_prefix_is_connected(self, graph):
        order = dfs_order(graph, seed=0)
        seen = set()
        fresh_starts = 0
        for u, v in order:
            if u not in seen and v not in seen:
                fresh_starts += 1
            seen.add(u)
            seen.add(v)
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in order:
            parent[find(u)] = find(v)
        assert fresh_starts == len({find(v) for v in seen})

    def test_random_is_shuffle(self, graph):
        order = random_order(graph, seed=0)
        assert order != graph.canonical_edges()  # astronomically unlikely
        assert_is_permutation(order, graph)

    def test_bfs_path_graph_is_sequential(self):
        """On a path graph a BFS from any start emits edges in two runs of
        adjacent edges — adjacent stream edges share a vertex."""
        n = 30
        g = LabeledGraph({i: "a" for i in range(n)}, [(i, i + 1) for i in range(n - 1)])
        order = bfs_order(g, seed=0)
        share = sum(
            1
            for e1, e2 in zip(order, order[1:])
            if set(e1) & set(e2) or True  # placeholder to compute below
        )
        # locality metric: mean stream distance between edges sharing a vertex
        pos = {e: i for i, e in enumerate(order)}
        dists = []
        for i in range(n - 2):
            dists.append(abs(pos[(i, i + 1)] - pos[(i + 1, i + 2)]))
        assert sum(dists) / len(dists) < n / 2

    def test_bfs_locality_better_than_random(self, graph):
        """The defining property (Sec. 5.3): edges close in the graph are
        closer in a BFS stream than in a random stream."""

        def mean_incident_distance(order):
            pos = {norm_edge(*e): i for i, e in enumerate(order)}
            total, count = 0, 0
            adj = graph.adjacency()
            for v, nbrs in adj.items():
                incident = sorted(pos[norm_edge(v, w)] for w in nbrs)
                for a, b in zip(incident, incident[1:]):
                    total += b - a
                    count += 1
            return total / max(1, count)

        bfs_d = mean_incident_distance(bfs_order(graph, seed=0))
        rnd_d = mean_incident_distance(random_order(graph, seed=0))
        assert bfs_d < 0.8 * rnd_d

