"""Fig. 8 (as a table) — ipt relative to Hash across k ∈ {2,4,8,16,32}.

Breadth-first streams, as in the paper. Expected shape: absolute ipt
grows with k for every system, but the *relative* standings (Loom best,
then Fennel, then LDG) stay roughly constant (Sec. 5.2).

    spark-submit jobs/fig8_k_sweep.py [--scale N]
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.loom import DEFAULT_WINDOW
from repro.eval.harness import format_rows, run_experiment
from repro.graphs.generators import generate

K_VALUES = (2, 4, 8, 16, 32)
DATASETS = ("dblp", "musicbrainz")


def run(spark: SparkSession, *, scale: int = 20_000, window: int = DEFAULT_WINDOW,
        seed: int = 0, datasets=DATASETS, ks=K_VALUES) -> str:
    rows = []
    for name in datasets:
        graph = generate(name, scale=scale)
        for k in ks:
            rows.extend(
                run_experiment(
                    spark, name, "bfs", k, graph=graph, seed=seed, window=window
                )
            )
    return format_rows(rows)


def main() -> None:
    try:
        from jobs.common import job_parser, job_session
    except ImportError:  # invoked as `spark-submit jobs/<name>.py`
        from common import job_parser, job_session

    args = job_parser(__doc__).parse_args()
    print(run(job_session("fig8"), scale=args.scale, window=args.window,
              seed=args.seed))


if __name__ == "__main__":
    main()
