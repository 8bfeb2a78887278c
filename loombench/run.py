"""Loom benchmark: throughput, partition quality and Fig. 7 turnaround.

    python3 loombench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory. The last line of standard output is one JSON object:
``correct``, ``attempted`` and ``failed`` (partitioning passes, each checked
for the end-of-stream invariants and a stable assignment digest) and
``metrics`` - the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Timings are scaled to a nominal host speed that
``yardstick.py`` measures during the run. The line before the result
records the environment, every sample and, for a traced run, the span file
written under ``.bench_build/loombench/``. ``--scale`` shrinks the
generated graphs for smoke tests; the committed-results check applies at
the default only.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {
    "setup_s": "s",
    "loom_ms_per_10k": "ms/10k",
    "ldg_ms_per_10k": "ms/10k",
    "fennel_ms_per_10k": "ms/10k",
    "cell_s": "s",
    "loom_ipt_pct": "%",
    "fennel_ipt_pct": "%",
    "ldg_ipt_pct": "%",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if name.endswith("_pct"):
        return "%"
    if name.endswith("ms_per_10k"):
        return "ms/10k"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=int, default=None)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no program sources at {src}/repro", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    workdir = os.path.join(ROOT, ".bench_build", "loombench")
    os.makedirs(os.path.join(workdir, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(workdir, "tmp")

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    metrics, run, record = workloads.execute(
        args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=args.scale or workloads.SCALE,
        workdir=workdir,
    )
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    record["problems"] = run.problems
    print(json.dumps({"record": record}))
    unit = layer_unit if args.trace else END_TO_END.__getitem__
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
