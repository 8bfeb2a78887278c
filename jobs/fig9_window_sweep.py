"""Fig. 9 (as a table) — Loom ipt across window sizes t.

Sweeps Loom's window over a BFS stream of each dataset and prints the
absolute frequency-weighted ipt per window size (the y-axis of Fig. 9).
Expected shape: ipt falls as t grows from ~100 and flattens once the
window covers the neighbourhoods motif matches form in (the paper sees a
plateau by t = 10k on ordered streams).

    spark-submit jobs/fig9_window_sweep.py [--scale N]
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.eval.harness import run_system
from repro.eval.ipt import workload_ipt
from repro.graphs.generators import generate
from repro.graphs.streams import ordered_stream
from repro.partitioners.base import stream_of
from repro.workloads.queries import workload

WINDOWS = (100, 1_000, 5_000, 10_000, 20_000)
DATASETS = ("dblp", "provgen", "musicbrainz", "lubm")


def run(spark: SparkSession, *, scale: int = 20_000, k: int = 8, seed: int = 0,
        datasets=DATASETS, windows=WINDOWS) -> str:
    hdr = f"{'Dataset':<12} " + " ".join(f"t={t:>6}" for t in windows)
    lines = [hdr, "-" * len(hdr)]
    for name in datasets:
        g = generate(name, scale=scale)
        wl = workload(name)
        stream = list(stream_of(g, ordered_stream(g, "bfs", seed=seed)))
        cells = []
        for t in windows:
            r = run_system("loom", g, stream, k, wl, window=t)
            cells.append(f"{workload_ipt(spark, g, r.assignment, wl).total:>8.0f}")
        lines.append(f"{name:<12} " + " ".join(cells))
    return "\n".join(lines)


def main() -> None:
    try:
        from jobs.common import job_parser, job_session
    except ImportError:  # invoked as `spark-submit jobs/<name>.py`
        from common import job_parser, job_session

    args = job_parser(__doc__).parse_args()
    print(run(job_session("fig9"), scale=args.scale, k=args.k, seed=args.seed))


if __name__ == "__main__":
    main()
