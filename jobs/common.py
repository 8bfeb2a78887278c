"""Shared plumbing for spark-submit job entrypoints.

Each job exposes ``run(spark, ...) -> str`` returning the formatted table
(so tests and benchmarks can call it) and a ``main()`` that builds its
session with :func:`job_session`, the one session builder (conftest.py's
``spark`` fixture uses it too).
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from repro.core.loom import DEFAULT_WINDOW


def job_session(app: str) -> SparkSession:
    """A SparkSession with the configs honoured after JVM launch.

    Broadcast joins are disabled so the workload matcher's n-way joins
    exercise the shuffle path at test scale.
    """
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def job_parser(desc: str) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=desc)
    ap.add_argument("--scale", type=int, default=20_000, help="approx vertex count")
    ap.add_argument("--k", type=int, default=8, help="number of partitions")
    ap.add_argument("--window", type=int, default=DEFAULT_WINDOW, help="Loom window t")
    ap.add_argument("--seed", type=int, default=0, help="stream-order seed")
    return ap
