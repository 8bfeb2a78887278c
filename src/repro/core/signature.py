"""Number-theoretic graph signatures (paper Sec. 2.1, 2.3).

A graph's signature is the multiset of its *factors*:

* one **edge factor** per edge ``e = (u, v)``:
  ``|r(l(u)) - r(l(v))| mod p`` — the paper prints the unsigned difference
  but its worked example ``(3 - 10) mod 11 = 7`` shows the absolute
  difference is intended (and it must be symmetric for undirected edges);
* one **degree factor** per unit of degree: a vertex with label ``l`` and
  degree ``n`` contributes ``(r(l) + 1) mod p, ..., (r(l) + n) mod p``.

Zero is not a valid factor and is replaced by ``p`` (paper footnote 3).
``r`` maps each label to a random value in ``[1, p)``; Loom fixes
``p = 251`` (Sec. 2.3).

Storing the signature as a *multiset* of factors rather than their integer
product removes one collision source ({6,2} vs {4,3} vs {12}, Sec. 2.3);
:func:`product` recovers the paper's integer signature for the worked
examples. Isomorphic graphs always receive equal factor multisets, so there
are no false negatives; non-isomorphic collisions occur with the binomial
probability analysed in :func:`collision_probability` (Fig. 4).
"""
from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import Iterable

from repro.graphs.model import LabeledGraph, subgraph_degrees

DEFAULT_P = 251

# A multiset of factors, hashable: sorted tuple of ints.
FactorKey = tuple[int, ...]


class LabelHash:
    """The seeded random map ``r : L_V -> [1, p)`` plus factor arithmetic.

    The paper draws ``r(l)`` for "each possible label l from our data graph
    G"; the data graph may carry labels never mentioned in the workload, so
    values are derived on demand from a stable digest of ``(seed, label)``
    — deterministic across runs and independent of lookup order.
    """

    def __init__(self, labels: Iterable[str] = (), *, p: int = DEFAULT_P, seed: int = 7):
        if p < 3:
            raise ValueError("p must be >= 3")
        self.p = p
        self.seed = seed
        self.r: dict[str, int] = {}
        for l in sorted(set(labels)):
            self.value(l)

    def value(self, label: str) -> int:
        """``r(label)``: a pseudo-random value in [1, p)."""
        v = self.r.get(label)
        if v is None:
            digest = hashlib.sha256(f"{self.seed}:{label}".encode()).digest()
            v = 1 + int.from_bytes(digest[:8], "big") % (self.p - 1)
            self.r[label] = v
        return v

    def _nonzero(self, x: int) -> int:
        # 0 is not a valid factor; replace with p (footnote 3).
        return self.p if x == 0 else x

    def edge_factor(self, la: str, lb: str) -> int:
        """Factor for an edge between labels ``la`` and ``lb``."""
        return self._nonzero(abs(self.value(la) - self.value(lb)) % self.p)

    def degree_factor(self, label: str, n: int) -> int:
        """Factor contributed by the ``n``-th unit of degree of ``label``."""
        if n < 1:
            raise ValueError("degree units start at 1")
        return self._nonzero((self.value(label) + n) % self.p)

    def with_r(self, r: dict[str, int]) -> "LabelHash":
        """Copy with explicit ``r`` values (used for the paper's examples)."""
        out = LabelHash(r.keys(), p=self.p)
        out.r = dict(r)
        return out


def graph_factors(graph: LabeledGraph, h: LabelHash) -> Counter[int]:
    """Full factor multiset of a labelled graph."""
    c: Counter[int] = Counter()
    edges = graph.canonical_edges()
    for u, v in edges:
        c[h.edge_factor(graph.label_of(u), graph.label_of(v))] += 1
    for v, d in subgraph_degrees(edges).items():
        for n in range(1, d + 1):
            c[h.degree_factor(graph.label_of(v), n)] += 1
    return c


def fac(h: LabelHash, lu: str, lv: str, du: int = 0, dv: int = 0) -> FactorKey:
    """``fac(e, g)`` for an edge between labels ``lu`` and ``lv`` whose
    endpoints have degrees ``du`` and ``dv`` in ``g`` (0 when outside it).

    The canonical multiset key of one edge factor plus one new degree
    factor per endpoint (the endpoint's degree in ``g + e``). Symmetric:
    ``fac(h, lu, lv, du, dv) == fac(h, lv, lu, dv, du)``.
    """
    return tuple(
        sorted(
            (
                h.edge_factor(lu, lv),
                h.degree_factor(lu, du + 1),
                h.degree_factor(lv, dv + 1),
            )
        )
    )


def incremental_factors(
    edge: tuple[int, int],
    sub_edges: Iterable[tuple[int, int]],
    labels: dict[int, str],
    h: LabelHash,
) -> FactorKey:
    """``fac(e, g)``: the factors that multiply sub-graph ``g``'s signature
    when ``edge`` is added (paper Alg. 1/2 line 1).

    ``sub_edges`` is the edge set of ``g`` (NOT including ``edge``);
    ``labels`` must cover all endpoints. See :func:`fac`.
    """
    u, v = edge
    if u == v:
        raise ValueError("self-loops unsupported")
    deg = subgraph_degrees(sub_edges)
    return fac(h, labels[u], labels[v], deg.get(u, 0), deg.get(v, 0))


def factor_key(c: Counter[int]) -> FactorKey:
    """Hashable canonical form of a factor multiset."""
    return tuple(sorted(c.elements()))


def product(c: Counter[int]) -> int:
    """The paper's integer signature: the product of all factors."""
    out = 1
    for f, n in c.items():
        out *= f**n
    return out


def signature(graph: LabeledGraph, h: LabelHash) -> int:
    """Integer signature of a graph (Sec. 2.1 three-step procedure)."""
    return product(graph_factors(graph, h))


def collision_probability(n_edges: int, p: int, c_max_frac: float = 0.05) -> float:
    """P(no more than ``c_max_frac`` of a signature's factors collide).

    Paper Sec. 2.3 / Fig. 4: a graph with ``|E|`` edges has ``3|E|`` factors
    (handshaking lemma), each colliding with probability ``2/p``; the count
    of collisions is Binomial(3|E|, 2/p) and we sum P(X = x) for
    x <= C% * 3|E|.
    """
    n = 3 * n_edges
    q = 2.0 / p
    c_max = int(c_max_frac * n)
    total = 0.0
    for x in range(c_max + 1):
        total += math.comb(n, x) * q**x * (1 - q) ** (n - x)
    return total
