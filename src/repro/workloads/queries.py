"""Pattern-matching query workloads for each dataset (paper Sec. 5.1.2).

A workload is a multiset ``Q = [(pattern_graph, relative_frequency), ...]``
(Sec. 1.3). The paper's exact patterns live in a dead external repository;
following its description we define, per dataset, a small set of
common-sense 2-4-edge patterns "which focus on discovering implicit
relationships" (collaboration paths, provenance chains, catalogue lookups
— the shapes shown in Fig. 6), plus LUBM-style enrolment/advisor queries.
Frequencies are fixed and known a priori, as in the paper's evaluation.

Patterns use only label pairs that the corresponding generator actually
produces, so every pattern has matches. Frequencies sum to 1 per workload.
"""
from __future__ import annotations

from repro.graphs.model import LabeledGraph

Workload = list[tuple[LabeledGraph, float]]


def _path(labels: list[str]) -> LabeledGraph:
    """A simple path pattern v0 - v1 - ... - vn with the given labels."""
    return LabeledGraph(
        dict(enumerate(labels)), [(i, i + 1) for i in range(len(labels) - 1)]
    )


def _star(center: str, leaves: list[str]) -> LabeledGraph:
    """A star pattern: ``center`` joined to each leaf."""
    labels = {0: center} | {i + 1: l for i, l in enumerate(leaves)}
    return LabeledGraph(labels, [(0, i + 1) for i in range(len(leaves))])


def dblp_workload() -> Workload:
    """Co-authorship / venue lookups (Fig. 6 left shows an a-b-a shape)."""
    return [
        (_path(["Author", "Paper", "Author"]), 0.40),     # co-authors
        (_path(["Author", "Paper", "Venue"]), 0.30),      # where they publish
        (_path(["Author", "Paper", "Paper"]), 0.20),      # authors cited by
        (_path(["Author", "Paper", "Venue", "Publisher"]), 0.10),
    ]


def provgen_workload() -> Workload:
    """Common PROV queries: derivation chains and responsibility [5]."""
    return [
        (_path(["Entity", "Activity", "Agent"]), 0.40),   # who generated it
        (_path(["Entity", "Entity", "Activity"]), 0.30),  # derivation source
        (_path(["Entity", "Activity", "Entity"]), 0.20),  # used/generated
        (_path(["Entity", "Entity", "Entity"]), 0.10),    # derivation chain
    ]


def musicbrainz_workload() -> Workload:
    """Catalogue traversals and artist collaboration."""
    return [
        (_path(["Track", "Album", "Artist"]), 0.40),
        (_path(["Artist", "Album", "Artist"]), 0.25),     # collaboration
        (_path(["Album", "Release", "Label"]), 0.15),
        (_star("Artist", ["Country", "Genre"]), 0.20),    # artist profile
    ]


def lubm_workload() -> Workload:
    """LUBM-style enrolment / advisor / co-authorship queries."""
    return [
        (_path(["UndergraduateStudent", "Course", "FullProfessor"]), 0.25),
        (_path(["GraduateStudent", "FullProfessor", "Department", "University"]), 0.40),
        (_star("Publication", ["GraduateStudent", "FullProfessor"]), 0.15),
        (_path(["Course", "FullProfessor", "Department"]), 0.20),
    ]


WORKLOADS = {
    "dblp": dblp_workload,
    "provgen": provgen_workload,
    "musicbrainz": musicbrainz_workload,
    "lubm": lubm_workload,
    "lubm4000": lubm_workload,
}


def workload(name: str) -> Workload:
    """The workload for a dataset name; frequencies sum to 1."""
    w = WORKLOADS[name]()
    total = sum(f for _, f in w)
    if abs(total - 1.0) >= 1e-9:
        raise ValueError(f"frequencies of {name} sum to {total}")
    return w
