"""Fennel streaming partitioner [Tsourakakis et al., WSDM'14].

The paper's primary point of comparison (Sec. 5.1), run with the authors'
suggested γ = 1.5. Fennel assigns vertex ``v`` to the partition maximising
the marginal interpolated objective

    |N(v) ∩ S_i| − α · γ · |S_i|^(γ−1),   α = √k · m / n^(3/2)

subject to the hard balance constraint |S_i| < ν · n / k (ν = 1.1, the
same maximum imbalance Loom adopts for b). Sizes are integers, so this is
|S_i| < ⌈ν · n / k⌉, the shared ``PartitionState.capacity``. As with LDG
we apply the vertex rule to each unassigned endpoint of the arriving
edge. That edge is the vertex's first, so ``|N(v) ∩ S_i|`` is 1 for the
other endpoint's partition, if it is placed, and 0 elsewhere; ``choose``
scores the counts :meth:`StreamingPartitioner.add_edge` hands it.

γ must be at least 1. Then the penalty never falls as a partition grows,
so of the partitions holding no neighbour of ``v`` the least loaded,
lowest index, scores highest and wins the tie-break; only it and the
partitions ``v`` touches are scored (:meth:`PartitionState.candidates`),
which picks exactly the partition a scan of all k would. (γ < 1 would
also reward size and divide by zero at an empty partition: 0 ** (γ − 1).)
"""
from __future__ import annotations

import math

from repro.partitioners.base import StreamingPartitioner


class FennelPartitioner(StreamingPartitioner):
    name = "fennel"

    def __init__(
        self,
        k: int,
        n_vertices: int,
        n_edges: int,
        *,
        gamma: float = 1.5,
        nu: float = 1.1,
    ):
        if not gamma >= 1.0:
            raise ValueError(f"Fennel needs gamma >= 1, got {gamma}")
        super().__init__(k, n_vertices, slack=nu)
        self.gamma = gamma
        self.alpha = math.sqrt(k) * max(1, n_edges) / max(1, n_vertices) ** 1.5

    def choose(self, v: int, counts: dict[int, int]) -> int:
        st = self.state
        sizes = st.sizes
        penalty = self.alpha * self.gamma
        exponent = self.gamma - 1.0
        best_pid, best_key = -1, None
        for pid in st.candidates(counts, st.capacity):
            size = sizes[pid]
            score = counts.get(pid, 0) - penalty * size**exponent
            key = (score, -size, -pid)
            if best_key is None or key > best_key:
                best_pid, best_key = pid, key
        if best_pid < 0:  # all at the ν·n/k cap: spill to least loaded
            best_pid = st.least_loaded()
        return best_pid
