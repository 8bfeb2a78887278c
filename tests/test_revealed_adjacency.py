"""Revealed adjacency: Hash, LDG and Fennel place a vertex from its arriving
edge, and Loom keeps adjacency only for vertices not yet placed.

Hash, LDG and Fennel place every vertex at its first edge, so the only
neighbour it has revealed when its rule runs is the other endpoint, and
they keep no adjacency. Loom reveals an edge only to the endpoints it has
not placed, because adjacency is read only for unplaced vertices
(DESIGN.md §3b.11). The oracles are the partitioners as they were when
every edge was revealed to both endpoints: ``Observing*`` reveal the edge
and then place each unassigned endpoint by ``neighbour_counts`` over all
it has revealed, and the oracle Loom reveals every edge to both
endpoints, placed or not. After every edge each pair must hold the same
assignment in the same order and the same sizes; the Loom pair also the
same window, matchList and ``_by_eid`` orders, and every unplaced vertex
the same adjacency in the same iteration order (the order the tie-break
sums its floats in).
"""
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loom import LoomPartitioner
from repro.graphs import streams
from repro.partitioners.base import PartitionState, StreamEdge, stream_of
from repro.partitioners.fennel import FennelPartitioner
from repro.partitioners.hash_part import HashPartitioner
from repro.partitioners.ldg import LDGPartitioner
from tests.test_forced_evictions import DATASETS, MOTIFS, dataset_case, messy_stream
from tests.test_motifs import assert_same_order


class ObservingState(PartitionState):
    """Reveals every edge to both endpoints, placed or not."""

    def observe_edge(self, u, v):
        adj = self.adj
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)


def observing(p):
    """``p`` with its state revealing every edge to both endpoints (the
    same fields; only ``observe_edge`` differs)."""
    p.state.__class__ = ObservingState
    return p


class Observing:
    """``add_edge`` that reveals the edge, then places each unassigned
    endpoint, in endpoint order, by its counts over all it has revealed."""

    def add_edge(self, e):
        st_ = self.state
        st_.observe_edge(e.u, e.v)
        for w in (e.u, e.v):
            if not st_.is_assigned(w):
                st_.assign(w, self.choose(w, st_.neighbour_counts(w)))


class ObservingHash(Observing, HashPartitioner):
    pass


class ObservingLDG(Observing, LDGPartitioner):
    pass


class ObservingFennel(Observing, FennelPartitioner):
    pass


def baseline_pairs(k, n, m):
    """(partitioner, oracle) for Hash, LDG and Fennel."""
    return [
        (HashPartitioner(k, n), observing(ObservingHash(k, n))),
        (LDGPartitioner(k, n), observing(ObservingLDG(k, n))),
        (FennelPartitioner(k, n, m), observing(ObservingFennel(k, n, m))),
    ]


def placed_since(assignment, n_before):
    """The entries added since ``assignment`` held ``n_before``, in order
    (entries are only ever appended)."""
    return list(islice(reversed(assignment.items()), len(assignment) - n_before))[::-1]


def step(got, want, e):
    """Feed ``e`` to both and compare what they placed and their sizes."""
    n_before = len(want.state.assignment)
    got.add_edge(e)
    want.add_edge(e)
    assert got.state.sizes == want.state.sizes
    assert placed_since(got.state.assignment, n_before) == placed_since(
        want.state.assignment, n_before
    )


def run_baselines(stream, k, n, m):
    for got, want in baseline_pairs(k, n, m):
        for e in stream:
            step(got, want, e)
        got.finalize()
        want.finalize()
        assert list(got.state.assignment.items()) == list(want.state.assignment.items())
        assert got.state.adj == {}


def run_loom(motifs, stream, k, n, window):
    """Loom and the oracle Loom over ``stream``, compared after every edge
    and after the final drain."""
    got = LoomPartitioner(k, n, motifs=motifs, window=window)
    want = observing(LoomPartitioner(k, n, motifs=motifs, window=window))
    pending: set[int] = set()

    def compare():
        assert_same_order(got.matcher, want.matcher)  # window keys included
        assignment = want.state.assignment
        pending.difference_update([x for x in pending if x in assignment])
        for v in pending:
            assert list(got.state.adj.get(v, ())) == list(want.state.adj[v]), v

    for e in stream:
        step(got, want, e)
        pending.update((e.u, e.v))
        compare()
    got.finalize()
    want.finalize()
    compare()
    assert not pending
    assert list(got.state.assignment.items()) == list(want.state.assignment.items())
    return got, want


@pytest.mark.parametrize("messy", [False, True], ids=["plain", "repeats-loops"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("order", ["bfs", "dfs", "random"])
@pytest.mark.parametrize("dataset", DATASETS)
def test_baselines_equal_the_observing_rule(dataset, order, seed, messy):
    """Scale-2,000 streams, k in {1, 2, 8, 32}; the messy ones repeat
    every 5th edge and add a self-loop at every 7th."""
    g, _ = dataset_case(dataset)
    if messy:
        stream = messy_stream(g, order, seed)
    else:
        stream = list(stream_of(g, streams.ordered_stream(g, order, seed=seed)))
    for k in (1, 2, 8, 32):
        run_baselines(stream, k, g.n_vertices, g.n_edges)


@pytest.mark.parametrize("window", [50, 500])
@pytest.mark.parametrize("order", ["bfs", "dfs", "random"])
@pytest.mark.parametrize("dataset", DATASETS)
def test_loom_equals_the_observing_loom(dataset, order, window):
    """Scale-2,000 streams with repeats and self-loops, k in {2, 8, 32}."""
    g, motifs = dataset_case(dataset)
    stream = messy_stream(g, order)
    for k in (2, 8, 32):
        got, want = run_loom(motifs, stream, k, g.n_vertices, window)
        # Placed vertices keep the sets they had when placed.
        assert sum(map(len, got.state.adj.values())) < sum(
            map(len, want.state.adj.values())
        )


@st.composite
def small_streams(draw):
    """Arbitrary edges over vertex ids 0..15, repeats and self-loops
    included; a vertex's label is fixed by its id."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=60))
    return [StreamEdge(i, u, v, "abc"[u % 3], "abc"[v % 3]) for i, (u, v) in enumerate(pairs)]


@settings(max_examples=300, deadline=None)
@given(
    small_streams(),
    st.integers(1, 4),
    st.integers(1, 20),
    st.integers(1, 8),
)
def test_small_streams(stream, k, n, window):
    """``n`` may be below the number of distinct ids (DESIGN.md §3b.10)."""
    run_baselines(stream, k, n, len(stream))
    run_loom(MOTIFS, stream, k, n, window)

