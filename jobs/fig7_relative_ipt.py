"""Fig. 7 (as a table) — ipt relative to Hash, 8-way partitionings.

For each dataset and stream order (BFS / random / DFS), partitions the
stream with Hash, LDG, Fennel and Loom, executes the dataset's workload
over each partitioning with Spark SQL, and prints ipt as a percentage of
Hash — the quantity plotted in the paper's Fig. 7. Expected shape:
LDG < 100%, Fennel < LDG, Loom lowest on most cells.

    spark-submit jobs/fig7_relative_ipt.py [--scale N] [--k K]
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.loom import DEFAULT_WINDOW
from repro.eval.harness import format_rows, run_experiment
from repro.graphs.generators import generate
from repro.graphs.streams import ORDERS

DATASET_ORDER = ["dblp", "provgen", "musicbrainz", "lubm"]


def run(spark: SparkSession, *, scale: int = 20_000, k: int = 8,
        window: int = DEFAULT_WINDOW, seed: int = 0,
        datasets=tuple(DATASET_ORDER), orders=ORDERS) -> str:
    rows = []
    for name in datasets:
        graph = generate(name, scale=scale)
        for order in orders:
            rows.extend(
                run_experiment(
                    spark, name, order, k, graph=graph, seed=seed, window=window
                )
            )
    return format_rows(rows)


def main() -> None:
    try:
        from jobs.common import job_parser, job_session
    except ImportError:  # invoked as `spark-submit jobs/<name>.py`
        from common import job_parser, job_session

    args = job_parser(__doc__).parse_args()
    print(run(job_session("fig7"), scale=args.scale, k=args.k,
              window=args.window, seed=args.seed))


if __name__ == "__main__":
    main()
