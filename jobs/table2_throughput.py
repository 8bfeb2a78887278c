"""Table 2 — time (ms) to partition 10k edges, per system per dataset.

Streams the whole BFS-ordered stream of each dataset through each
partitioner (``harness.run_system``) once untimed, to warm up, then
``TIMED_PASSES`` times, and reports the median time per 10k edges next to
the paper's numbers. The paper's Loom figure is a steady-state
rate (42-72k edges/s); a 10k-edge prefix with t = 10k would never slide
the window and would defer all matching to one end-of-stream drain. The
paper's shape to check: Hash fastest, LDG and Fennel close, Loom slower
by a small factor (paper: 1.5x-7.1x Fennel).

    spark-submit jobs/table2_throughput.py [--scale N]
"""
from __future__ import annotations

import statistics

from pyspark.sql import SparkSession

from repro.core.loom import DEFAULT_WINDOW
from repro.eval.harness import run_system
from repro.graphs.generators import generate
from repro.graphs.streams import ordered_stream
from repro.partitioners.base import stream_of
from repro.workloads.queries import workload

DATASET_ORDER = ["dblp", "provgen", "musicbrainz", "lubm", "lubm4000"]
SYSTEM_ORDER = ["ldg", "fennel", "loom", "hash"]
TIMED_PASSES = 3

# Paper Table 2 (ms per 10k edges) for side-by-side reporting.
PAPER_TABLE2 = {
    "dblp": {"ldg": 91, "fennel": 96, "loom": 235, "hash": 28},
    "provgen": {"ldg": 144, "fennel": 146, "loom": 240, "hash": 33},
    "musicbrainz": {"ldg": 48, "fennel": 52, "loom": 129, "hash": 18},
    "lubm": {"ldg": 47, "fennel": 51, "loom": 147, "hash": 22},
    "lubm4000": {"ldg": 45, "fennel": 49, "loom": 138, "hash": 16},
}


def run(spark: SparkSession, *, scale: int = 20_000, k: int = 8,
        window: int = DEFAULT_WINDOW, seed: int = 0) -> str:
    hdr = f"{'Dataset':<12} " + " ".join(
        f"{s + ' (paper)':>18}" for s in SYSTEM_ORDER
    )
    lines = [hdr, "-" * len(hdr)]
    for name in DATASET_ORDER:
        g = generate(name, scale=scale)
        wl = workload(name)
        stream = list(stream_of(g, ordered_stream(g, "bfs", seed=seed)))
        cells = []
        for s in SYSTEM_ORDER:
            run_system(s, g, stream, k, wl, window=window)  # warm-up
            ms = statistics.median(
                run_system(s, g, stream, k, wl, window=window).ms_per_10k
                for _ in range(TIMED_PASSES)
            )
            cells.append(f"{ms:>7.0f} ({PAPER_TABLE2[name][s]:>4d}ms)")
        lines.append(f"{name:<12} " + " ".join(f"{c:>18}" for c in cells))
    return "\n".join(lines)


def main() -> None:
    try:
        from jobs.common import job_parser, job_session
    except ImportError:  # invoked as `spark-submit jobs/<name>.py`
        from common import job_parser, job_session

    args = job_parser(__doc__).parse_args()
    print(run(job_session("table2"), scale=args.scale, k=args.k,
              window=args.window, seed=args.seed))


if __name__ == "__main__":
    main()
