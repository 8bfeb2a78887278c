"""Oracle tests: LDG, Fennel and equal opportunism score only the partitions
a vertex or cluster touches, and must pick exactly what a scan of all k
partitions picks.

The reference functions below are the O(k) loops the partitioners used
before; Hypothesis draws random states for both to agree on. The states
cover k in {1, 2, 3, 8, 32}, few distinct sizes (so equal sizes are
common), sizes above LDG's soft capacity (negative and -0.0 scores),
partitions at the hard cap, and a touched least-loaded partition.
"""
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loom import DEFAULT_ALPHA, LoomPartitioner
from repro.core.motifs import Match
from repro.partitioners.base import PartitionState
from repro.partitioners.fennel import FennelPartitioner
from repro.partitioners.ldg import ldg_choose
from repro.workloads.queries import _path

KS = [1, 2, 3, 8, 32]
LABELS = ("a", "b", "c")


# ------------------------------------------------------------ references
def dense_counts(state, vertices):
    counts = [0] * state.k
    for w in vertices:
        pid = state.assignment.get(w, -1)
        if pid >= 0:
            counts[pid] += 1
    return counts


def least_loaded_reference(state):
    return min(range(state.k), key=lambda i: (state.sizes[i], i))


def ldg_reference(state, v):
    counts = dense_counts(state, state.adj.get(v, ()))
    cap, soft = state.capacity, state.soft_capacity
    best_pid, best_key = -1, None
    for pid, size in enumerate(state.sizes):
        if size >= cap:
            continue
        score = counts[pid] * (1.0 - size / soft)
        key = (score, -size, -pid)
        if best_key is None or key > best_key:
            best_pid, best_key = pid, key
    if best_pid < 0:
        best_pid = least_loaded_reference(state)
    return best_pid


def fennel_reference(p, v):
    st_ = p.state
    counts = dense_counts(st_, st_.adj.get(v, ()))
    penalty = p.alpha * p.gamma
    exponent = p.gamma - 1.0
    best_pid, best_key = -1, None
    for pid, size in enumerate(st_.sizes):
        if size >= st_.capacity:
            continue
        score = counts[pid] - penalty * size**exponent
        key = (score, -size, -pid)
        if best_key is None or key > best_key:
            best_pid, best_key = pid, key
    if best_pid < 0:
        best_pid = least_loaded_reference(st_)
    return best_pid


def rations_reference(sizes, capacity, alpha):
    s_min = min(sizes)
    out = []
    for s_i in sizes:
        if s_i <= s_min:
            out.append(1.0)
        elif s_i >= capacity:
            out.append(0.0)
        else:
            out.append((s_min / s_i) * alpha)
    return out


def equal_opportunism_reference(p, m_e, type_supp=None):
    """(winner, prefix length) of the full comparison over all k.
    ``type_supp`` maps each label pair ``(la, lb)``, ``la <= lb``, to the
    edge type's tie-break weight (needed only when the cluster has an
    unassigned vertex with assigned neighbours)."""
    st_ = p.state
    supports = [p.motifs.support(m.node) for m in m_e]
    cluster = {v for m in m_e for v in m.vertices}
    nbr_counts = [0.0] * st_.k
    for v in cluster:
        if not st_.is_assigned(v):
            for w in st_.adj.get(v, ()):
                pid = st_.assignment.get(w, -1)
                if pid >= 0:
                    lv, lw = sorted((p.labels[v], p.labels[w]))
                    nbr_counts[pid] += 0.1 + type_supp[(lv, lw)]
    in_part = [dense_counts(st_, m.vertices) for m in m_e]
    sizes, cap, n_m = st_.sizes, st_.capacity, len(m_e)
    best_pid, best_key, best_n = 0, None, 1
    for pid, l_i in enumerate(rations_reference(sizes, cap, p.alpha)):
        if l_i <= 0.0:
            continue
        n_i = max(1, math.ceil(l_i * n_m))
        resid = 1.0 - sizes[pid] / cap
        total = 0.0
        for counts, supp in zip(in_part[:n_i], supports[:n_i]):
            total += counts[pid] * resid * supp
        key = (total, nbr_counts[pid] * max(resid, 0.0), -sizes[pid], -pid)
        if best_key is None or key > best_key:
            best_pid, best_key, best_n = pid, key, n_i
    if best_key is None:
        best_pid, best_n = least_loaded_reference(st_), 1
    return best_pid, best_n


# ---------------------------------------------------------------- states
def draw_sizes(draw, state):
    """k sizes from a pool of at most four values in [0, capacity + 1],
    or in [capacity, capacity + 3] (every partition full)."""
    lo, hi = 0, state.capacity + 1
    if draw(st.booleans()):
        lo, hi = state.capacity, state.capacity + 3
    pool = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=4))
    state.sizes = [draw(st.sampled_from(pool)) for _ in range(state.k)]


def draw_neighbourhood(draw, state, v, first):
    """Give ``v`` neighbours ``first, first + 1, ...``, each unassigned or
    in a random partition; maybe one in the least-loaded partition."""
    pids = draw(st.lists(st.integers(-1, state.k - 1), max_size=12))
    if draw(st.booleans()):
        pids.append(state.sizes.index(min(state.sizes)))
    for i, pid in enumerate(pids):
        w = first + i
        state.observe_edge(v, w)
        if pid >= 0:
            state.assignment[w] = pid
    return first + len(pids)


@st.composite
def ldg_states(draw):
    k = draw(st.sampled_from(KS))
    n = draw(st.integers(1, 40 * k))
    state = PartitionState(k, n, slack=draw(st.sampled_from([1.0, 1.1, 1.5])))
    draw_sizes(draw, state)
    draw_neighbourhood(draw, state, 0, 1)
    return state


@st.composite
def fennel_partitioners(draw):
    k = draw(st.sampled_from(KS))
    n = draw(st.integers(1, 40 * k))
    p = FennelPartitioner(
        k,
        n,
        draw(st.integers(1, 4 * n)),
        gamma=draw(st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0])),
        nu=draw(st.sampled_from([1.0, 1.1, 1.5])),
    )
    draw_sizes(draw, p.state)
    draw_neighbourhood(draw, p.state, 0, 1)
    return p


def loom(k, n, alpha=DEFAULT_ALPHA):
    return LoomPartitioner(
        k, n, [(_path(["a", "b", "c"]), 0.6), (_path(["a", "b"]), 0.4)], alpha=alpha
    )


@st.composite
def clusters(draw):
    """A Loom partitioner in a random state, a support-ordered M_e over
    cluster vertices 0..11, some assigned, the unassigned ones with
    assigned neighbours for the tie-break scan, and the edge-type weights
    drawn into the motif index's step tables."""
    k = draw(st.sampled_from(KS))
    n = draw(st.integers(1, 40 * k))
    p = loom(k, n, alpha=draw(st.sampled_from([DEFAULT_ALPHA, 0.0, 0.5, 1.0])))
    state = p.state
    draw_sizes(draw, state)
    n_cluster = 12
    for v in range(n_cluster):
        p.labels[v] = draw(st.sampled_from(LABELS))
        pid = draw(st.integers(-1, k - 1))
        if pid >= 0:
            state.assignment[v] = pid
    first = n_cluster
    for v in range(n_cluster):
        if v not in state.assignment and draw(st.booleans()):
            nxt = draw_neighbourhood(draw, state, v, first)
            for w in range(first, nxt):
                p.labels[w] = draw(st.sampled_from(LABELS))
            first = nxt
    # Supports from a small pool, so equal bids are common.
    supp_pool = [0.4, 0.5, 0.75, 1.0]
    supports = sorted(
        draw(st.lists(st.sampled_from(supp_pool), min_size=1, max_size=6)), reverse=True
    )
    m_e = []
    for j, supp in enumerate(supports):
        vs = draw(st.frozensets(st.integers(0, n_cluster - 1), min_size=2, max_size=4))
        m_e.append(Match(frozenset({100 + j}), supp_pool.index(supp), vs))
    p.motifs.support = lambda node: supp_pool[node]
    type_supp = {
        (la, lb): draw(st.sampled_from([0.0, 0.4, 1.0]))
        for la in LABELS for lb in LABELS if la <= lb
    }
    tables = p.motifs._tables
    for la in LABELS:
        for lb in LABELS:
            supp = type_supp[(min(la, lb), max(la, lb))]
            tables[(la, lb)] = p.motifs.table(la, lb)._replace(support=supp)
    return p, m_e, type_supp


# ----------------------------------------------------------------- tests
@settings(max_examples=400, deadline=None)
@given(ldg_states())
def test_ldg_choose_matches_full_scan(state):
    assert ldg_choose(state, state.neighbour_counts(0)) == ldg_reference(state, 0)


@settings(max_examples=400, deadline=None)
@given(fennel_partitioners())
def test_fennel_choose_matches_full_scan(p):
    assert p.choose(0, p.state.neighbour_counts(0)) == fennel_reference(p, 0)


@settings(max_examples=400, deadline=None)
@given(clusters())
def test_equal_opportunism_matches_full_comparison(case):
    p, m_e, type_supp = case
    assert p._bid(m_e) == equal_opportunism_reference(p, m_e, type_supp)


def cluster_case(k, sizes, assigned, m_vertices, supports, alpha=DEFAULT_ALPHA):
    """A fixed equal-opportunism case: ``assigned`` maps vertices to
    partitions, match j has vertices ``m_vertices[j]`` and support
    ``supports[j]``."""
    p = loom(k, 100, alpha=alpha)
    p.state.sizes = list(sizes)
    p.state.assignment.update(assigned)
    m_e = [
        Match(frozenset({100 + j}), j, frozenset(vs)) for j, vs in enumerate(m_vertices)
    ]
    p.motifs.support = lambda node: supports[node]
    return p, m_e


@pytest.mark.parametrize(
    "sizes, assigned, m_vertices, supports",
    [
        # one partition holds a vertex: it wins outright
        ([5, 5, 5, 5], {1: 2}, [(1, 2)], [1.0]),
        # two partitions bid the same: the tie-break decides
        ([5, 5, 5, 5], {1: 0, 2: 3}, [(1, 2)], [1.0]),
        # nothing assigned: no positive bid
        ([3, 1, 4, 1], {}, [(1, 2), (2, 3)], [1.0, 0.5]),
        # every partition over the hard cap (28 for n = 100, k = 4): the
        # smallest ones bid, the holder negatively
        ([30, 29, 31, 29], {1: 1}, [(1, 2)], [1.0]),
        # the holder's only match lies beyond its rationed prefix
        ([2, 8, 8, 8], {5: 1}, [(1, 2), (3, 4), (5, 6)], [1.0, 0.75, 0.5]),
    ],
)
def test_equal_opportunism_branches(sizes, assigned, m_vertices, supports):
    p, m_e = cluster_case(len(sizes), sizes, assigned, m_vertices, supports)
    assert p._bid(m_e) == equal_opportunism_reference(p, m_e)


def test_equal_opportunism_alpha_zero_bars_a_partition_below_the_cap():
    """α = 0: partition 1 (size 10) lies strictly between the smallest
    partition (5) and the hard cap (28), so its ration is 0 and it may not
    bid although it holds a vertex of every match. No partition bids, and
    the comparison over all k falls to the smallest partition."""
    p, m_e = cluster_case(
        4, [5, 10, 10, 10], {1: 1}, [(1, 2), (1, 3)], [1.0, 0.5], alpha=0.0
    )
    assert 5 < 10 < p.state.capacity
    assert p._bid(m_e) == (0, 2)
    assert p._bid(m_e) == equal_opportunism_reference(p, m_e)
