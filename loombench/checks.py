"""Output checks applied to every partitioning pass, and the ipt oracle.

A pass fails when any end-of-stream invariant fails or when its assignment
digest differs from the first pass of the same system over the same stream.
Partition quality is scored with DuckDB running the program's own
``ipt_sql`` over its ``partition_tables``, so the stream workloads start no
JVM; the cell workload compares Spark's per-query results with it.
"""
from __future__ import annotations

import hashlib

import duckdb

from repro.eval.ipt import partition_tables
from repro.eval.matcher import DEDGES, ipt_sql

# results/fig7.txt at generator scale 20,000, stream-order seed 0 and
# window t = 10,000: ipt as % of Hash, rounded to one decimal.
COMMITTED_PCT = {
    ("dblp", "bfs", 8): {"loom": 65.5, "fennel": 68.2, "ldg": 74.5},
    ("provgen", "bfs", 8): {"loom": 50.7, "fennel": 52.1, "ldg": 76.9},
}


def digest(assignment: dict[int, int]) -> str:
    """Order-independent fingerprint of a vertex assignment."""
    h = hashlib.sha256()
    for v, p in sorted(assignment.items()):
        h.update(b"%d:%d;" % (v, p))
    return h.hexdigest()[:16]


def invariant_errors(partitioner, stream_vertices: set[int]) -> list[str]:
    """End-of-stream invariants of a finalized partitioner (empty if sound)."""
    st = partitioner.state
    errors = []
    if st.assignment.keys() != stream_vertices:
        errors.append(
            f"{len(stream_vertices ^ st.assignment.keys())} stream vertices "
            "unassigned or unknown vertices assigned"
        )
    if any(not 0 <= p < st.k for p in st.assignment.values()):
        errors.append("partition id out of range")
    if sum(st.sizes) != len(st.assignment):
        errors.append(f"sum(sizes)={sum(st.sizes)} != {len(st.assignment)} assigned")
    if max(st.sizes) > st.capacity and min(st.sizes) < st.capacity:
        errors.append(f"partition above capacity {st.capacity}: {max(st.sizes)}")
    matcher = getattr(partitioner, "matcher", None)
    if matcher is not None and (matcher.window or matcher.match_list):
        errors.append(
            f"window ({len(matcher.window)}) or matchList "
            f"({len(matcher.match_list)}) not empty after finalize"
        )
    return errors


def duckdb_ipt(graph, assignment: dict[int, int], workload) -> list[tuple[int, int]]:
    """Per-query (n_matches, n_ipt) of ``workload`` over a partitioning."""
    _, dedges = partition_tables(graph, assignment)
    con = duckdb.connect()
    try:
        con.register(DEDGES, dedges)
        return [
            tuple(int(x) for x in con.execute(ipt_sql(pattern)).fetchone())
            for pattern, _ in workload
        ]
    finally:
        con.close()


def weighted_ipt(per_query: list[tuple[int, int]], workload) -> float:
    """Frequency-weighted ipt, summed as ``WorkloadIpt.total`` sums it."""
    return sum(freq * n_ipt for (_, n_ipt), (_, freq) in zip(per_query, workload))
