"""Linear Deterministic Greedy (LDG) partitioner [Stanton & Kliot, KDD'12].

The paper (Sec. 4) uses LDG both as an evaluation baseline and as Loom's
fallback for edges that cannot form part of any motif match. A vertex is
assigned to the partition maximising

    N(S_i, v) * (1 - |V(S_i)| / C)

where ``N(S_i, v)`` counts v's already-assigned neighbours in ``S_i`` and
``C`` is the per-partition capacity constraint. Ties (including the cold
start where every product is 0) go to the least-loaded partition, which is
what keeps LDG's imbalance at the 1-3% the paper reports.

LDG is defined for vertex streams; following the paper's footnote 7 ("LDG
may partition either vertex or edge streams") we apply the rule to each
not-yet-assigned endpoint as its edge arrives, in endpoint order
(:meth:`StreamingPartitioner.add_edge`). A vertex is placed at its first
edge, so ``N(S_i, v)`` counts one neighbour at most, the other endpoint,
and the rule takes those counts rather than reading an adjacency index.
Loom's fallback calls the same rule with the counts over everything its
window has revealed (:meth:`PartitionState.neighbour_counts`).

Only the partitions ``v`` touches and the least-loaded other one are
scored (:meth:`PartitionState.candidates`). This is exact: a partition
holding no neighbour of ``v`` scores 0 (or -0.0 above ``C``, which compares
equal), so among those the least loaded, lowest index, wins the tie-break.
"""
from __future__ import annotations

from repro.partitioners.base import PartitionState, StreamingPartitioner


def ldg_choose(state: PartitionState, counts: dict[int, int]) -> int:
    """Partition index maximising LDG's weighted neighbour count for a
    vertex with ``counts`` assigned neighbours per partition."""
    sizes, soft = state.sizes, state.soft_capacity
    best_pid, best_key = -1, None
    for pid in state.candidates(counts, state.capacity):
        size = sizes[pid]
        score = counts.get(pid, 0) * (1.0 - size / soft)
        # Deterministic tie-break: least loaded, then lowest index.
        key = (score, -size, -pid)
        if best_key is None or key > best_key:
            best_pid, best_key = pid, key
    if best_pid < 0:  # every partition at capacity: spill to least loaded
        best_pid = state.least_loaded()
    return best_pid


class LDGPartitioner(StreamingPartitioner):
    """Edge-stream LDG."""

    name = "ldg"

    def choose(self, v: int, counts: dict[int, int]) -> int:
        return ldg_choose(self.state, counts)
