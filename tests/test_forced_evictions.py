"""Forced evictions: Loom decides a one-match cluster without an auction.

When ``matches_containing`` returns one match, it is the evicted edge's
own single-edge match, and equal opportunism has one possible result
(DESIGN.md §3c, *Forced evictions*). ``AuctionLoom`` evicts as Loom did
before that short-circuit, sending every cluster through
``_equal_opportunism``; it is the oracle here. After every edge, the two
must hold the same assignment, sizes, window and matchList/``_by_eid``
orders.
"""
import functools
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.loom import DEFAULT_ALPHA, LoomPartitioner
from repro.core.tpstry import TPSTry
from repro.eval import harness
from repro.graphs import generators, streams
from repro.partitioners.base import StreamEdge, stream_of
from repro.workloads.queries import _path, workload
from tests.test_motifs import assert_same_order


class AuctionLoom(LoomPartitioner):
    """Loom whose every eviction runs the full auction."""

    def _evict(self, e_old):
        m_e = self.matcher.matches_containing(e_old.eid)
        if not m_e:
            raise RuntimeError(f"window edge {e_old.eid} has no motif match")
        self._equal_opportunism(m_e)


class CountingLoom(LoomPartitioner):
    """Loom that counts its evictions and the auctions among them."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.evictions = self.auctions = 0

    def _evict(self, e_old):
        self.evictions += 1
        super()._evict(e_old)

    def _equal_opportunism(self, m_e):
        self.auctions += 1
        super()._equal_opportunism(m_e)


def assert_same_state(got, want):
    assert got.state.sizes == want.state.sizes
    assert list(got.state.assignment.items()) == list(want.state.assignment.items())
    assert_same_order(got.matcher, want.matcher)  # window keys included


def run_pair(motifs, stream, k, window, n):
    """Loom and ``AuctionLoom`` over ``stream``, compared after every edge
    and after the final drain; returns Loom's forced-eviction count."""
    got = CountingLoom(k, n, motifs=motifs, window=window)
    want = AuctionLoom(k, n, motifs=motifs, window=window)
    for e in stream:
        got.add_edge(e)
        want.add_edge(e)
        assert_same_state(got, want)
    got.finalize()
    want.finalize()
    assert_same_state(got, want)
    assert not got.matcher.window and not got.matcher.match_list
    return got.evictions - got.auctions


DATASETS = ["dblp", "provgen", "musicbrainz", "lubm"]


@functools.cache
def dataset_case(dataset):
    """The scale-2,000 graph of ``dataset`` and its motif index, built once."""
    g = generators.generate(dataset, scale=2_000)
    return g, TPSTry.from_workload(workload(dataset)).motifs(0.4)


class TestAuctionOracle:
    @pytest.mark.parametrize("k", [2, 8, 32])
    @pytest.mark.parametrize("window", [50, 500])
    @pytest.mark.parametrize("order", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("dataset", DATASETS)
    def test_dataset_streams(self, dataset, order, window, k):
        g, motifs = dataset_case(dataset)
        stream = list(stream_of(g, streams.ordered_stream(g, order, seed=0)))
        assert run_pair(motifs, stream, k, window, g.n_vertices) > 0


# --------------------------------------------------------------- one edge
# A cluster of one match, built directly: the edge enters an empty window,
# so its own match is the only one, and the state around it is set by hand.

MOTIFS = TPSTry.from_workload(
    [(_path(["a", "b", "c"]), 0.6), (_path(["a", "b"]), 0.4), (_path(["a", "a"]), 0.3)]
).motifs(0.2)
U, V = 100, 101


class Case(NamedTuple):
    k: int
    cap: int
    sizes: tuple[int, ...]
    loop: bool  # the edge is a self-loop on U
    pu: int | None  # U's partition, or None while unassigned
    pv: int | None  # V's partition (ignored for a self-loop)
    alpha: float
    nbrs: tuple[tuple[int, int], ...] = ()  # (endpoint index, partition) of neighbours


def build(cls, case: Case) -> LoomPartitioner:
    p = cls(case.k, case.k * case.cap, motifs=MOTIFS, window=1, alpha=case.alpha)
    s = p.state
    s.capacity = case.cap
    s.sizes = list(case.sizes)
    ends = (U,) if case.loop else (U, V)
    lv = "a" if case.loop else "b"
    p.labels.update({U: "a", V: lv})
    for i, (end, pid) in enumerate(case.nbrs):
        w = 1000 + i
        p.labels[w] = "c"
        s.observe_edge(ends[end % len(ends)], w)
        s.assignment[w] = pid
    for x, pid in zip(ends, (case.pu, case.pv)):
        if pid is not None:
            s.assignment[x] = pid
    e = StreamEdge(0, U, ends[-1], "a", lv)
    s.observe_edge(e.u, e.v)
    assert p.matcher.offer(e) and len(p.matcher.matches_containing(0)) == 1
    return p


def forced(case: Case) -> bool:
    """The states the short-circuit decides: nothing to place, or a lone
    anchor below the cap that the ration lets bid."""
    pu, pv = case.pu, (case.pu if case.loop else case.pv)
    if pu is not None and pv is not None:
        return True
    if pu is None and pv is None:
        return False
    s_a, s_min = case.sizes[pu if pv is None else pv], min(case.sizes)
    return s_a < case.cap and (s_a <= s_min or (s_min > 0 and case.alpha > 0))


def check(case: Case) -> None:
    got, want = build(CountingLoom, case), build(AuctionLoom, case)
    got._evict(got.matcher.oldest())
    want._evict(want.matcher.oldest())
    assert_same_state(got, want)
    assert not got.matcher.window and not got.matcher.match_list
    assert got.auctions == (0 if forced(case) else 1)


A = DEFAULT_ALPHA
NAMED = {
    "none_assigned": Case(3, 4, (1, 2, 0), False, None, None, A, ((0, 1), (1, 1))),
    "both_same_partition": Case(3, 4, (2, 2, 1), False, 0, 0, A),
    "both_split": Case(3, 4, (2, 2, 1), False, 0, 1, A),
    "both_over_cap": Case(2, 4, (5, 5), False, 0, 1, A),
    "loop_unassigned": Case(2, 4, (1, 0), True, None, None, A, ((0, 0),)),
    "loop_assigned": Case(2, 4, (1, 0), True, 1, None, A),
    "anchor_below_cap": Case(3, 4, (2, 1, 3), False, 2, None, A),
    "anchor_smallest": Case(3, 4, (2, 1, 3), False, None, 1, A),
    "anchor_at_cap": Case(3, 4, (4, 1, 2), False, 0, None, A, ((1, 2),)),
    "anchor_over_cap": Case(3, 4, (5, 1, 2), False, 0, None, A),
    "anchor_s_min_zero": Case(3, 4, (2, 0, 1), False, 0, None, A, ((1, 0),)),
    "all_at_cap": Case(3, 4, (4, 4, 4), False, 2, None, A),
    "all_over_cap": Case(2, 4, (5, 5), False, None, 1, A),
    "anchor_alpha_zero": Case(3, 4, (2, 1, 3), False, 0, None, 0.0, ((1, 1),)),
    "anchor_alpha_zero_smallest": Case(3, 4, (2, 1, 3), False, 1, None, 0.0),
    "anchor_alpha_one": Case(3, 4, (3, 1, 2), False, 0, None, 1.0),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_states(name):
    check(NAMED[name])


@st.composite
def cases(draw):
    k = draw(st.integers(1, 4))
    cap = draw(st.integers(1, 6))
    if draw(st.booleans()):
        sizes = (cap,) * k  # every partition at the cap
    else:
        sizes = tuple(draw(st.lists(st.integers(0, cap + 1), min_size=k, max_size=k)))
    part = st.none() | st.integers(0, k - 1)
    nbrs = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, k - 1)), max_size=4))
    return Case(
        k, cap, sizes, draw(st.booleans()), draw(part), draw(part),
        draw(st.sampled_from([0.0, DEFAULT_ALPHA, 1.0])), tuple(nbrs),
    )


@settings(max_examples=400, deadline=None)
@given(cases())
@example(Case(2, 3, (3, 3), False, 0, None, A))  # anchor at the cap, smallest
@example(Case(2, 3, (2, 1), False, 0, None, 0.0, ((1, 1),)))  # ration 0 below the cap
def test_one_edge_clusters(case):
    check(case)


# ------------------------------------------------- malformed-looking input
# Duplicate stream edges and self-loops: a stream that repeats every 5th
# edge of a BFS order and adds a self-loop at every 7th (DESIGN.md §3b.9).


def messy_stream(g, order="bfs", seed=0):
    pairs = []
    for i, (u, v) in enumerate(streams.ordered_stream(g, order, seed=seed)):
        pairs.append((u, v))
        if i % 5 == 0:
            pairs.append((u, v))
        if i % 7 == 0:
            pairs.append((u, u))
    return [StreamEdge(i, u, v, g.label_of(u), g.label_of(v)) for i, (u, v) in enumerate(pairs)]


@pytest.mark.parametrize("dataset", ["dblp", "provgen"])
class TestDuplicatesAndSelfLoops:
    """DBLP has no same-label motif edge, so its self-loops never enter the
    window; ProvGen's Entity-Entity type lets them in."""

    @pytest.mark.parametrize("system", harness.SYSTEMS)
    def test_assigns_exactly_the_streamed_vertices(self, dataset, system):
        g, _ = dataset_case(dataset)
        stream = messy_stream(g)
        run = harness.run_system(system, g, stream, 8, workload(dataset))
        assert set(run.assignment) == {x for e in stream for x in (e.u, e.v)}

    def test_loom_drains_and_equals_the_auction(self, dataset):
        g, motifs = dataset_case(dataset)
        stream = messy_stream(g)
        window = harness.default_window(len(stream))
        assert run_pair(motifs, stream, 8, window, g.n_vertices) > 0

    def test_repeats_and_loops_stay_one_edge_matches(self, dataset):
        """With no eviction, every match forms: a repeated edge enters the
        window with a single-edge match of its own beside the first copy's,
        ProvGen's Entity self-loops enter as one-vertex matches, and no
        larger match holds a repeated vertex pair or a self-loop (no query
        has parallel edges or loops), so each is evicted as a cluster of
        one match."""
        g, motifs = dataset_case(dataset)
        p = LoomPartitioner(8, g.n_vertices, motifs=motifs, window=10**9)
        for e in messy_stream(g):
            p.add_edge(e)
        window = p.matcher.window
        pairs = [frozenset((e.u, e.v)) for e in window.values()]
        assert len(pairs) > len(set(pairs))
        loops = [e for e in window.values() if e.u == e.v]
        assert bool(loops) == (dataset == "provgen")
        for e in loops:
            m = p.matcher.matches_containing(e.eid)[0]
            assert (m.eids, m.vertices) == ({e.eid}, {e.u})
        for ms in p.matcher._by_eid.values():
            for m in ms:
                if len(m.eids) > 1:
                    edges = [window[i] for i in m.eids]
                    assert all(e.u != e.v for e in edges)
                    assert len({frozenset((e.u, e.v)) for e in edges}) == len(edges)
        p.finalize()
        assert not p.matcher.window and not p.matcher.match_list
