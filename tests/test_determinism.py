"""Pinned assignment digests for all four systems (a determinism guard).

Each digest fingerprints the vertex assignment of one system on one
(dataset, stream order) pair at generator scale 2,000 with k = 8 and the
harness's default window. The values were recorded before the matcher's
extension filter and the one-pass partition counts went in, so any change
to what the partitioners decide fails here, not only in ``results/``.
The k = 32 digests were recorded before LDG, Fennel and equal opportunism
scored only the partitions a vertex or cluster touches; at k = 32 most
partitions are untouched, so they guard that shortcut.

Loom is deterministic but fragile in one known way.
``WindowMatcher.matches_containing`` sorts a cluster by (support, size,
first edge), and equal keys are common (3,694 of 14,362 evictions on DBLP
BFS at scale 20,000). Their order is the iteration order of a Python set
of matches, which follows the order the matches were recorded in. A total
tie-break, or recording the same matches in another order (for instance by
bucketing the matchList by trie node), changes which tied matches equal
opportunism rations and so the assignment: DBLP BFS Loom moves from 65.45%
to 65.83% of Hash. Match hashes are built from integers only, so the order
does not depend on ``PYTHONHASHSEED``; the subprocess test checks that.
"""
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.eval import harness
from repro.graphs import generators, streams
from repro.partitioners.base import stream_of
from repro.workloads import queries

SCALE = 2_000
K = 8

PINNED = {
    ("dblp", "bfs"): {
        "hash": "adf2dd871136a82d", "ldg": "ab953011a16e841c",
        "fennel": "fbb52021c6b4ff97", "loom": "6bfa3388bccdeb33",
    },
    ("dblp", "dfs"): {
        "hash": "adf2dd871136a82d", "ldg": "3a4e21d1a03be8de",
        "fennel": "c88cf09aabdbfd7d", "loom": "8fcd442479cb22de",
    },
    ("dblp", "random"): {
        "hash": "adf2dd871136a82d", "ldg": "75033fb2714fa7c0",
        "fennel": "75033fb2714fa7c0", "loom": "7ea62d510dc93be3",
    },
    ("provgen", "bfs"): {
        "hash": "d6416484603cb096", "ldg": "57fd0d202611a635",
        "fennel": "387bb8ca2de19579", "loom": "39f803c7502f54e9",
    },
    ("provgen", "dfs"): {
        "hash": "d6416484603cb096", "ldg": "5f8076b317449af5",
        "fennel": "499bb72396443330", "loom": "7a58d5d772ab59c6",
    },
    ("provgen", "random"): {
        "hash": "d6416484603cb096", "ldg": "976dd8cb5813379c",
        "fennel": "976dd8cb5813379c", "loom": "02900c7c006f1307",
    },
    ("musicbrainz", "bfs"): {
        "hash": "45340554a7ad4bf2", "ldg": "cc727d1b9d341af5",
        "fennel": "620ccd790db392d4", "loom": "3a3b27d8adf02a46",
    },
    ("musicbrainz", "dfs"): {
        "hash": "45340554a7ad4bf2", "ldg": "84a8bbfa0147c825",
        "fennel": "ed5a5b857c14ce65", "loom": "9cde9278ea291240",
    },
    ("musicbrainz", "random"): {
        "hash": "45340554a7ad4bf2", "ldg": "407bb09dae664f3d",
        "fennel": "407bb09dae664f3d", "loom": "81df43cdb5a07efb",
    },
    ("lubm", "bfs"): {
        "hash": "3343d9a28db2b900", "ldg": "e0edb0ffb798309d",
        "fennel": "8143db59e721a918", "loom": "b93a283c20715255",
    },
    ("lubm", "dfs"): {
        "hash": "3343d9a28db2b900", "ldg": "d11d07519209ffe0",
        "fennel": "4fe1452b642ba122", "loom": "9ee081f943bdac29",
    },
    ("lubm", "random"): {
        "hash": "3343d9a28db2b900", "ldg": "f8ab38e8db2a71a3",
        "fennel": "ec9bf3e94777d91e", "loom": "46f37b32f34a3a64",
    },
}


PINNED_K32 = {
    ("dblp", "bfs"): {
        "hash": "ebda810ed962dcbc", "ldg": "2ddcbc9829fafaa0",
        "fennel": "75f47a676c813c5d", "loom": "ebfd08f77ca75887",
    },
    ("dblp", "dfs"): {
        "hash": "ebda810ed962dcbc", "ldg": "4ad0a048a7369b07",
        "fennel": "94e73a7a2a75425f", "loom": "9075130fbea12f66",
    },
    ("dblp", "random"): {
        "hash": "ebda810ed962dcbc", "ldg": "a89de24db21a205e",
        "fennel": "22073184fdb30995", "loom": "dc2fdbbcd6b509e4",
    },
    ("provgen", "bfs"): {
        "hash": "d07eeb8931e0985f", "ldg": "86151e8e1dc5bdd6",
        "fennel": "3612aee9d875c94e", "loom": "1abecee969604b54",
    },
    ("provgen", "dfs"): {
        "hash": "d07eeb8931e0985f", "ldg": "3c1d1516c2f9d74b",
        "fennel": "f098fefa5c92fd06", "loom": "af639979cfa1bd7c",
    },
    ("provgen", "random"): {
        "hash": "d07eeb8931e0985f", "ldg": "d001fad051f8a94f",
        "fennel": "72d17c4f2d927f07", "loom": "54ffb683c10333d7",
    },
    ("musicbrainz", "bfs"): {
        "hash": "1d29cf979ecbfa63", "ldg": "80ccb3853de25bf7",
        "fennel": "89f06fd8c39729b8", "loom": "ca9d72023051edf0",
    },
    ("musicbrainz", "dfs"): {
        "hash": "1d29cf979ecbfa63", "ldg": "8fe0e2cc768f1313",
        "fennel": "c33c83042fd497e5", "loom": "afb2add671495072",
    },
    ("musicbrainz", "random"): {
        "hash": "1d29cf979ecbfa63", "ldg": "cfd5e753919b7967",
        "fennel": "549e64994194bf91", "loom": "06aae196b40b0387",
    },
    ("lubm", "bfs"): {
        "hash": "a90fe04c085d6e71", "ldg": "95ebea8ad0fd5618",
        "fennel": "6aa4090e06f64c48", "loom": "c6331a986cde838a",
    },
    ("lubm", "dfs"): {
        "hash": "a90fe04c085d6e71", "ldg": "2df02279c78477f2",
        "fennel": "d01417034ffe50fd", "loom": "f1900d991357562b",
    },
    ("lubm", "random"): {
        "hash": "a90fe04c085d6e71", "ldg": "afeff4db6df3938b",
        "fennel": "cc85085b5e29cded", "loom": "952bcfea9ff0e5dd",
    },
}


def digest(assignment: dict[int, int]) -> str:
    """Order-independent fingerprint of a vertex assignment."""
    h = hashlib.sha256()
    for v, p in sorted(assignment.items()):
        h.update(b"%d:%d;" % (v, p))
    return h.hexdigest()[:16]


def case_digests(
    dataset: str, order: str, systems=harness.SYSTEMS, k: int = K
) -> dict[str, str]:
    """Digest of every system's assignment for one (dataset, order)."""
    graph = generators.generate(dataset, scale=SCALE)
    stream = list(stream_of(graph, streams.ordered_stream(graph, order, seed=0)))
    wl = queries.workload(dataset)
    return {
        s: digest(harness.run_system(s, graph, stream, k, wl).assignment)
        for s in systems
    }


@pytest.mark.parametrize("dataset", ["dblp", "provgen", "musicbrainz", "lubm"])
@pytest.mark.parametrize("order", ["bfs", "dfs", "random"])
def test_assignments_pinned(dataset, order):
    assert case_digests(dataset, order) == PINNED[dataset, order]


@pytest.mark.parametrize("dataset", ["dblp", "provgen", "musicbrainz", "lubm"])
@pytest.mark.parametrize("order", ["bfs", "dfs", "random"])
def test_assignments_pinned_k32(dataset, order):
    assert case_digests(dataset, order, k=32) == PINNED_K32[dataset, order]


# Loom at the benchmark's scale 20,000 and window t = 10,000, on the cases
# where recording matches in another order (see the module docstring) was
# seen to change the assignment; the scale-2,000 cases do not show it.
# ProvGen BFS k = 8 is also the benchmark's Loom throughput stream.
TIE_SENSITIVE = {
    ("dblp", "bfs", 8): "53889c6f7c5315fd",
    ("dblp", "dfs", 8): "4fecc1d75e34c83e",
    ("dblp", "dfs", 32): "261da13352d55a37",
    ("lubm", "bfs", 32): "dd939cc7bf269538",
    ("provgen", "bfs", 8): "961dc5e3ea4eac60",
}


@pytest.mark.parametrize("case", sorted(TIE_SENSITIVE))
def test_loom_tie_order_pinned(case):
    dataset, order, k = case
    graph = generators.generate(dataset, scale=20_000)
    stream = list(stream_of(graph, streams.ordered_stream(graph, order, seed=0)))
    wl = queries.workload(dataset)
    run = harness.run_system("loom", graph, stream, k, wl, window=10_000)
    assert digest(run.assignment) == TIE_SENSITIVE[case]


@pytest.mark.parametrize("hash_seed", ["0", "4242"])
def test_loom_independent_of_hash_seed(hash_seed):
    """Labels are strings, whose hashes change with PYTHONHASHSEED; Loom's
    assignment must not."""
    src = Path(__file__).resolve().parents[1] / "src"
    tests = Path(__file__).resolve().parent
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "from test_determinism import case_digests\n"
        "print(case_digests('dblp', 'bfs', ('loom',))['loom'])\n" % (str(src), str(tests))
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert out.stdout.strip() == PINNED["dblp", "bfs"]["loom"]
