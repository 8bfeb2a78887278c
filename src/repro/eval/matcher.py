"""Sub-graph pattern matching as Spark SQL (paper Sec. 1.3 semantics).

A pattern query returns every sub-graph of ``G`` isomorphic to the pattern
(bijective vertex map, edge preservation, label equality). We compile a
pattern to a single SQL n-way self-join over a **denormalised edge table**

    dedges(src, dst, src_label, dst_label, src_part, dst_part)

holding both orientations of every undirected edge with each endpoint's
label and partition. One ``dedges`` alias is emitted per pattern edge; a
shared pattern vertex is expressed by equating the corresponding vid
columns, labels by literal predicates, and isomorphism by ``<>``
constraints between pattern vertices of equal label (different labels can
never collide, so those predicates are omitted).

``dedges`` is the only table the SQL reads. Joining edge aliases
directly — instead of a vertex table once per pattern vertex — keeps
every join keyed on vids; the vertex-table formulation degenerates to a
near cross-product on same-label patterns in both DuckDB and Catalyst.

The same SQL text runs unchanged on DuckDB, which is how
``repro.oracle.assert_equivalent`` validates the Catalyst plans in tests.
Embeddings are counted per bijection (automorphic images count
separately); this is uniform across partitioners so relative ipt is
unaffected.

``ipt_sql`` charges every embedding its cut pattern edges directly, so it
needs the partitions in ``dedges`` and runs once per partitioning.
``repro.eval.ipt`` instead scores with two queries that split the work:
``weights_sql`` (and ``workload_weights_sql``, every pattern side by side)
runs the same join once per graph and spreads each embedding over the
``dedges`` rows its pattern edges map onto, and ``cut_sql`` sums the
weights of cut rows per partitioning. ``ipt_sql`` is the reference they
are checked against.
"""
from __future__ import annotations

from repro.graphs.model import LabeledGraph

DEDGES = "dedges"  # (src, dst, src_label, dst_label, src_part, dst_part)
WEIGHTS = "edge_weights"  # (src_part, dst_part, w0, ..., w{n-1})


def _plan(pattern: LabeledGraph) -> tuple[list[str], list[str], dict[int, tuple[str, str]]]:
    """FROM aliases, WHERE predicates, and a representative (vid, part)
    column pair for every pattern vertex."""
    edges = pattern.canonical_edges()
    if not edges:
        raise ValueError("pattern must have at least one edge")
    froms = [f"{DEDGES} e{j}" for j in range(len(edges))]
    wheres: list[str] = []
    rep: dict[int, tuple[str, str]] = {}  # pattern vertex -> (vid col, part col)
    for j, (a, b) in enumerate(edges):
        for v, side in ((a, "src"), (b, "dst")):
            col = (f"e{j}.{side}", f"e{j}.{side}_part")
            if v in rep:
                wheres.append(f"{rep[v][0]} = {col[0]}")
            else:
                rep[v] = col
                wheres.append(f"e{j}.{side}_label = '{pattern.label_of(v)}'")
    vids = sorted(pattern.labels)
    for i, u in enumerate(vids):
        for w in vids[i + 1 :]:
            if pattern.label_of(u) == pattern.label_of(w):
                wheres.append(f"{rep[u][0]} <> {rep[w][0]}")
    return froms, wheres, rep


def embeddings_sql(pattern: LabeledGraph) -> str:
    """SELECT one row per embedding: matched vertex ids m0..m{n-1} in
    pattern-vertex order."""
    froms, wheres, rep = _plan(pattern)
    cols = ", ".join(
        f"{rep[v][0]} AS m{i}" for i, v in enumerate(sorted(pattern.labels))
    )
    return f"SELECT {cols} FROM {', '.join(froms)} WHERE {' AND '.join(wheres)}"


def ipt_sql(pattern: LabeledGraph) -> str:
    """SELECT the embedding count and the total inter-partition traversals:
    per embedding, one ipt for every pattern edge whose matched endpoints
    live in different partitions (Sec. 1.3's quality measure)."""
    froms, wheres, _ = _plan(pattern)
    cut = " + ".join(
        f"(CASE WHEN e{j}.src_part <> e{j}.dst_part THEN 1 ELSE 0 END)"
        for j in range(pattern.n_edges)
    )
    return (
        f"SELECT COUNT(*) AS n_matches, "
        f"COALESCE(SUM({cut}), 0) AS n_ipt "
        f"FROM {', '.join(froms)} WHERE {' AND '.join(wheres)}"
    )


def weights_sql(pattern: LabeledGraph) -> str:
    """SELECT (src, dst, w): for every directed ``dedges`` row, the number
    w of (embedding, pattern edge j) pairs that map edge j onto the row.
    Rows of weight 0 are absent.

    The join and predicates are ``ipt_sql``'s; a j table spreads every
    embedding over its pattern edges (``explode`` is Spark-only).
    """
    froms, wheres, _ = _plan(pattern)
    js = range(pattern.n_edges)
    spread = " UNION ALL ".join(f"SELECT {j} AS j" for j in js)

    def pick(col: str) -> str:
        return f"CASE pe.j {' '.join(f'WHEN {j} THEN e{j}.{col}' for j in js)} END"

    return (
        f"SELECT src, dst, COUNT(*) AS w FROM ("
        f"SELECT {pick('src')} AS src, {pick('dst')} AS dst "
        f"FROM {', '.join(froms)}, ({spread}) pe "
        f"WHERE {' AND '.join(wheres)}) spread GROUP BY src, dst"
    )


def workload_weights_sql(patterns: list[LabeledGraph]) -> str:
    """SELECT (src, dst, w0, ..., w{n-1}): every pattern's ``weights_sql``
    side by side, 0 where pattern q does not touch the row."""
    per_query = " UNION ALL ".join(
        f"SELECT {q} AS q, src, dst, w FROM ({weights_sql(p)}) w{q}"
        for q, p in enumerate(patterns)
    )
    cols = ", ".join(
        f"SUM(CASE WHEN q = {q} THEN w ELSE 0 END) AS w{q}"
        for q in range(len(patterns))
    )
    return f"SELECT src, dst, {cols} FROM ({per_query}) per_query GROUP BY src, dst"


def cut_sql(n_queries: int) -> str:
    """SELECT n_ipt0, ..., n_ipt{n-1}: per query, the weighted edge cut of
    the ``WEIGHTS`` rows — the summed weight of rows whose endpoints live in
    different partitions. Equals ``ipt_sql``'s ``n_ipt`` per pattern."""
    cols = ", ".join(
        f"COALESCE(SUM(CASE WHEN src_part <> dst_part THEN w{q} ELSE 0 END), 0)"
        f" AS n_ipt{q}"
        for q in range(n_queries)
    )
    return f"SELECT {cols} FROM {WEIGHTS}"
