"""Completeness of the window matcher against brute force (Alg. 2).

With a window at least as long as the stream nothing is evicted, so every
motif match the window's edges hold must have been recorded. The oracle
enumerates every connected set of window edges up to the largest motif's
size, recomputes each set's signature from scratch
(:func:`repro.core.signature.graph_factors`) and keeps those that are a
motif node; the matcher's recorded matches must be exactly these.
"""
import pytest

from repro.core.motifs import WindowMatcher
from repro.core.signature import factor_key, graph_factors
from repro.core.tpstry import TPSTry
from repro.graphs import generators, streams
from repro.graphs.model import LabeledGraph
from repro.partitioners.base import stream_of
from repro.workloads.queries import workload
from tests.test_forced_evictions import DATASETS


def connected_edge_sets(window, max_edges):
    """Every connected set of at most ``max_edges`` window edges."""
    incident: dict[int, list[int]] = {}
    for e in window.values():
        for x in {e.u, e.v}:
            incident.setdefault(x, []).append(e.eid)
    level = {frozenset([eid]) for eid in window}
    found = set(level)
    for _ in range(max_edges - 1):
        level = {
            s | {j}
            for s in level
            for x in {x for i in s for x in (window[i].u, window[i].v)}
            for j in incident[x]
            if j not in s
        }
        found |= level
    return found


def brute_force_matches(window, motifs):
    """(eids, motif node) for every connected edge set whose recomputed
    signature is a motif node."""
    out = set()
    for eids in connected_edge_sets(window, motifs.max_motif_edges()):
        labels = {}
        for i in eids:
            e = window[i]
            labels[e.u], labels[e.v] = e.lu, e.lv
        g = LabeledGraph(labels, [(window[i].u, window[i].v) for i in eids])
        node = factor_key(graph_factors(g, motifs.trie.h))
        if node in motifs.keep:
            out.add((eids, node))
    return out


CASES = [(dataset, 2_000, 0.4) for dataset in DATASETS] + [("dblp", 500, 0.1)]


@pytest.mark.parametrize("order", ["bfs", "dfs", "random"])
@pytest.mark.parametrize("dataset, scale, threshold", CASES)
def test_window_holds_every_match(dataset, scale, threshold, order):
    """At T = 0.4 only LUBM has a 3-edge motif; at T = 0.1 DBLP has one
    too (at scale 500: its 3-edge sets at scale 2,000 number about a
    million). A 3-edge path whose middle edge arrives last is recorded by
    a pair join."""
    g = generators.generate(dataset, scale=scale)
    motifs = TPSTry.from_workload(workload(dataset)).motifs(threshold)
    matcher = WindowMatcher(motifs)
    for e in stream_of(g, streams.ordered_stream(g, order, seed=0)):
        matcher.offer(e)
    recorded = {(m.eids, m.node) for ms in matcher._by_eid.values() for m in ms}
    want = brute_force_matches(matcher.window, motifs)
    assert recorded == want
    largest = max(len(eids) for eids, _ in want)
    assert largest == motifs.max_motif_edges()
