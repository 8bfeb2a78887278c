"""The three workloads and the run that measures one of them.

Every workload is a closed loop with one client: a pass offers the next
stream edge only after ``add_edge`` returns. A pass partitions the
materialised stream with one system; the benchmark times its ``add_edge``
calls and the ``finalize`` drain, the same unit on every workload. A
*round* is one pass of each of Hash, LDG, Fennel and Loom; on the cell
workload it also runs one Fig. 7 cell, the program's own
``run_experiment``, which partitions with the four systems and scores them
with Spark SQL. The stream workloads start no JVM.

A run sets up (several times, reporting the median), warms up with one
untimed pass per system over the canonical stream, times rounds over the
stream of ``--seed``, and finally scores the warm-up partitionings with
DuckDB. Quality (ipt as % of Hash) is taken on the canonical stream,
stream-order seed 0, which is the stream ``results/fig7.txt`` reports: at
generator scale 20,000 ipt swings with the order seed (ProvGen BFS: Loom
50-94%, Fennel 41-79% of Hash over seeds 0-5), so a quality number from
the seeded stream would spread far beyond any useful bound.
"""
from __future__ import annotations

import gzip
import json
import math
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import pyspark
from pyspark import SparkContext
from pyspark.sql import SparkSession

from repro.core import loom as loom_mod
from repro.core import motifs as motifs_mod
from repro.core import tpstry as tpstry_mod
from repro.eval import harness
from repro.eval import ipt as ipt_mod
from repro.graphs import generators, streams
from repro.partitioners import base as base_mod
from repro.workloads import queries

from checks import (
    COMMITTED_PCT,
    digest,
    duckdb_ipt,
    invariant_errors,
    weighted_ipt,
)
from tracing import Tracer, percentile, self_times
import yardstick

SCALE = 20_000
WINDOW = 10_000  # the paper's t; passed explicitly (run_system would cap it)
THRESHOLD = 0.4
SYSTEMS = ("hash", "ldg", "fennel", "loom")
SETUP_REPEATS = 3
# Each system is passed again between the timed rounds until its samples
# add up to this many seconds (at most MAX_SAMPLES passes), so that a
# 0.2-0.3 s LDG pass is reported over about eight passes and a 1.5-4 s Loom
# pass over two to four. Hash is reported per layer only.
SAMPLE_S = {"ldg": 2.0, "fennel": 2.0, "loom": 6.0}
MAX_SAMPLES = 40
# A Fig. 7 cell takes 13-19 s on a shared 4-vCPU host; one cell per run
# spread by 0.4 of the median over five runs.
MIN_ROUNDS = 2
SPARK_MASTER = "local[*]"
SPARK_DRIVER_MEMORY = "2g"
TRACED_JOB_GROUP = "loombench-traced-cell"


@dataclass(frozen=True)
class Spec:
    dataset: str
    order: str
    k: int
    cell: bool  # scored with Spark by run_experiment


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "stream-provgen-bfs": Spec("provgen", "bfs", 8, False),
    "stream-lubm-random-k32": Spec("lubm", "random", 32, False),
    "fig7-dblp-bfs": Spec("dblp", "bfs", 8, True),
}


@dataclass
class Inputs:
    graph: object
    workload: list
    motifs: object
    order: list
    stream: list
    order_seed: int


def set_up(spec: Spec, scale: int, seed: int, tracer: Tracer | None = None) -> Inputs:
    """Generate, order, materialise the stream and build the motif index."""
    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    with span("graphs.generate"):
        graph = generators.generate(spec.dataset, scale=scale)
    with span("graphs.ordered_stream"):
        order = streams.ordered_stream(graph, spec.order, seed=seed)
    with span("graphs.stream_of"):
        stream = list(base_mod.stream_of(graph, order))
    wl = queries.workload(spec.dataset)
    with span("tpstry.build"):
        motifs = tpstry_mod.TPSTry.from_workload(wl).motifs(THRESHOLD)
    return Inputs(graph, wl, motifs, order, stream, seed)


def reorder(inp: Inputs, spec: Spec, seed: int) -> Inputs:
    """The same graph and motif index streamed in another order (a new
    stream even for the same seed, so every run holds two streams)."""
    order = streams.ordered_stream(inp.graph, spec.order, seed=seed)
    stream = list(base_mod.stream_of(inp.graph, order))
    return Inputs(inp.graph, inp.workload, inp.motifs, order, stream, seed)


def ms_per_10k(seconds: float, n_edges: int) -> float:
    return seconds / n_edges * 10_000 * 1000


@dataclass
class Run:
    """The operations, samples and checks of one benchmark run."""

    spec: Spec
    seconds: float
    spark: object = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(
        default_factory=lambda: {s: [] for s in SYSTEMS}
    )
    cells: list[float] = field(default_factory=list)
    # One yardstick time after every pass: the host's speed during the run.
    yardsticks: list[float] = field(default_factory=list)
    # The first timed cell's partitionings and Spark results, per system.
    spark_cell: tuple[dict, dict] | None = None
    digests: dict[tuple[int, str], str] = field(default_factory=dict)
    _vertices: dict[int, set[int]] = field(default_factory=dict)

    # ------------------------------------------------------------ checks
    def check(self, system: str, partitioner, inp: Inputs) -> None:
        """Count one operation; fail it on a broken invariant, or when its
        digest differs from the first pass of ``system`` on this stream."""
        vertices = self._vertices.get(inp.order_seed)
        if vertices is None:
            vertices = {x for e in inp.order for x in e}
            self._vertices[inp.order_seed] = vertices
        self.attempted += 1
        errors = invariant_errors(partitioner, vertices)
        d = digest(partitioner.state.assignment)
        ref = self.digests.setdefault((inp.order_seed, system), d)
        if d != ref:
            errors.append(f"assignment digest {d} != first pass {ref}")
        if errors:
            self.failed += 1
            self.problems.append(
                f"{system}, order seed {inp.order_seed}: {'; '.join(errors)}"
            )

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems

    # ------------------------------------------------------------ passes
    def stream_pass(self, system: str, inp: Inputs):
        """Partition the materialised stream once: (partitioner, seconds)."""
        if system == "loom":
            p = loom_mod.LoomPartitioner(
                self.spec.k, inp.graph.n_vertices, motifs=inp.motifs, window=WINDOW
            )
        else:
            p = harness.build_partitioner(system, self.spec.k, inp.graph, inp.workload)
        t0 = time.perf_counter()
        for e in inp.stream:
            p.add_edge(e)
        p.finalize()
        elapsed = time.perf_counter() - t0
        self.check(system, p, inp)
        self.yardsticks.append(yardstick.measure())
        return p, elapsed

    def cell(self, inp: Inputs):
        """One Fig. 7 cell over ``inp``, timed as a user waits for it:
        (seconds, partitionings per system, Spark results per system)."""
        made, scored = [], []
        keep = Tracer()
        keep.patch(harness, "build_partitioner", "cell.build", kind="count",
                   observe=lambda _args, p: made.append(p))
        keep.patch(harness, "workload_ipt", "cell.score", kind="count",
                   observe=lambda _args, w: scored.append(w))
        try:
            t0 = time.perf_counter()
            rows = harness.run_experiment(
                self.spark, self.spec.dataset, self.spec.order, self.spec.k,
                graph=inp.graph, seed=inp.order_seed, window=WINDOW,
            )
            elapsed = time.perf_counter() - t0
        finally:
            keep.restore()
        systems = [row.system for row in rows]
        self.require(systems == list(SYSTEMS), f"cell ran systems {systems}")
        for system, p in zip(systems, made):
            self.check(system, p, inp)
        assignments = {s: p.state.assignment for s, p in zip(systems, made)}
        return elapsed, assignments, dict(zip(systems, scored))

    def timed_phase(self, inp: Inputs) -> None:
        """Rounds for ``seconds`` (at least MIN_ROUNDS). A round is one stream
        pass of each system and, on the cell workload, one Fig. 7 cell.
        After each round, LDG, Fennel and Loom are passed again until their
        samples reach their share of SAMPLE_S, so that those samples
        spread over the whole phase; after the last round, until they reach
        all of it. These extra passes do not count towards ``seconds``."""
        rounds_s, n_rounds, first_s = 0.0, 0, 0.0
        while n_rounds < MIN_ROUNDS or rounds_s < self.seconds:
            t0 = time.perf_counter()
            for system in SYSTEMS:
                self.samples[system].append(self.stream_pass(system, inp)[1])
            if self.spec.cell:
                cell_s, assignments, scored = self.cell(inp)
                self.cells.append(cell_s)
                self.spark_cell = self.spark_cell or (assignments, scored)
            round_s = time.perf_counter() - t0
            rounds_s += round_s
            n_rounds += 1
            first_s = first_s or round_s
            rounds = max(MIN_ROUNDS, math.ceil(self.seconds / first_s))
            self.top_up(inp, min(1.0, n_rounds / rounds))
        self.top_up(inp, 1.0)

    def top_up(self, inp: Inputs, share: float) -> None:
        """Pass LDG, Fennel and Loom in turn until each one's samples add
        up to ``share`` of its SAMPLE_S."""
        short = list(SAMPLE_S)
        while short:
            for system in list(short):
                samples = self.samples[system]
                if sum(samples) >= share * SAMPLE_S[system] or len(samples) >= MAX_SAMPLES:
                    short.remove(system)
                else:
                    samples.append(self.stream_pass(system, inp)[1])

    def speed(self) -> float:
        """Factor that scales this run's single-threaded Python timings to
        the yardstick's nominal host speed (see yardstick.py). Spark's JVM
        runs on every core and does not follow the yardstick, so its
        timings are reported as measured."""
        return yardstick.NOMINAL_S / statistics.fmean(self.yardsticks)

    def cell_s(self) -> float:
        """Mean cell time, most of it Spark's. A stream workload's cell is
        one pass of each system, so it is the sum of their mean passes,
        scaled."""
        if self.spec.cell:
            return statistics.fmean(self.cells)
        return sum(statistics.fmean(self.samples[s]) for s in SYSTEMS) * self.speed()

    def warm_up(self, canon: Inputs) -> dict[str, dict[int, int]]:
        """One untimed pass per system over the canonical stream; returns
        the assignments that quality is scored on. The cell workload also
        scores one of them with Spark, so the timed cells run warm."""
        assignments = {
            system: self.stream_pass(system, canon)[0].state.assignment
            for system in SYSTEMS
        }
        if self.spec.cell:
            harness.workload_ipt(
                self.spark, canon.graph, assignments["hash"], canon.workload
            )
        return assignments

    def ms(self, system: str, n_edges: int) -> float:
        """Throughput over every timed pass of ``system``, scaled: their
        mean time per 10,000 edges. On a shared host back-to-back passes
        differ by up to 2x, so the mean of all passes is steadier than any
        single one."""
        return ms_per_10k(statistics.fmean(self.samples[system]), n_edges) * self.speed()


# ------------------------------------------------------------------ Spark
def start_spark(workdir: str):
    """A local SparkSession whose scratch files stay under ``workdir``."""
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # -XX:-UsePerfData keeps both JVMs (the launcher's and the driver's)
    # from writing hsperfdata files outside the checkout.
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        shlex.quote(a)
        for a in (
            "--master", SPARK_MASTER,
            "--driver-memory", SPARK_DRIVER_MEMORY,
            "--conf", "spark.driver.host=127.0.0.1",
            "--conf", "spark.ui.enabled=false",
            "--conf", f"spark.local.dir={tmp}",
            "--conf", f"spark.sql.warehouse.dir={os.path.join(workdir, 'warehouse')}",
            "--driver-java-options",
            f"-Djava.io.tmpdir={tmp} -Dderby.system.home={workdir} -XX:-UsePerfData",
            "pyspark-shell",
        )
    )
    return (
        SparkSession.builder.appName("loombench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM process to exit."""
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        proc = getattr(gateway, "proc", None)
        if proc is not None:
            proc.stdin.close()
            proc.wait(timeout=60)
        SparkContext._gateway = None
        SparkContext._jvm = None

# ---------------------------------------------------------------- scoring
def score(run: Run, canon: Inputs, assignments: dict, scale: int):
    """ipt % of Hash per system on the canonical stream, scored by DuckDB,
    and the number of embeddings. On the cell workload, DuckDB must also
    agree query by query with Spark on the first timed cell."""
    duck = {s: duckdb_ipt(canon.graph, a, canon.workload) for s, a in assignments.items()}
    totals = {s: weighted_ipt(d, canon.workload) for s, d in duck.items()}
    pct = {s: 100.0 * totals[s] / totals["hash"] for s in SYSTEMS}
    spec = run.spec
    committed = COMMITTED_PCT.get((spec.dataset, spec.order, spec.k))
    if scale == SCALE and committed is not None:
        for system, want in committed.items():
            run.require(
                abs(round(pct[system], 1) - want) < 1e-9,
                f"{system} ipt {pct[system]:.2f}% of Hash, results/fig7.txt has {want}%",
            )
    if run.spark_cell is not None:
        cell_assignments, scored = run.spark_cell
        for system, w in scored.items():
            got = [(q.n_matches, q.n_ipt) for q in w.per_query]
            want = duckdb_ipt(canon.graph, cell_assignments[system], canon.workload)
            run.require(
                got == want,
                f"{system}: Spark per-query (matches, ipt) {got} != DuckDB {want}",
            )
    return pct, sum(n for n, _ in duck["hash"])


# ---------------------------------------------------------------- tracing
def patch_loom(tracer: Tracer) -> None:
    """Spans and counters inside Loom, its matcher and its LDG fallback."""
    wm, mi = motifs_mod.WindowMatcher, tpstry_mod.MotifIndex

    def offered(args, entered):
        matcher = args[0]
        tracer.hits["motifs.offer"] += bool(entered)
        tracer.peak("motifs.window", len(matcher.window))
        tracer.peak("motifs.match_list", len(matcher.match_list))

    def child(_args, node):
        tracer.hits["tpstry.motif_child"] += node is not None

    def cluster(_args, matches):
        tracer.samples["motifs.cluster_size"].append(len(matches))

    tracer.patch(loom_mod.LoomPartitioner, "add_edge", "loom.add_edge")
    tracer.patch(loom_mod.LoomPartitioner, "finalize", "loom.finalize")
    tracer.patch(wm, "offer", "motifs.offer", observe=offered)
    tracer.patch(wm, "matches_containing", "motifs.matches_containing", observe=cluster)
    tracer.patch(wm, "remove_edges", "motifs.remove_edges")
    tracer.patch(loom_mod, "ldg_choose", "partitioners.ldg_choose")
    tracer.patch(
        base_mod.PartitionState, "neighbours_in", "partitioners.neighbours_in",
        kind="timed",
    )
    tracer.patch(mi, "motif_child", "tpstry.motif_child", kind="count", observe=child)
    tracer.patch(mi, "single_edge_motif", "tpstry.single_edge_motif", kind="count")


def patch_cell(tracer: Tracer) -> None:
    """Spans around the harness and the Spark scoring layer."""
    tracer.patch(
        harness, "run_system", lambda args: f"harness.run_system.{args[0]}"
    )
    tracer.patch(harness, "workload_ipt", "eval.workload_ipt")
    tracer.patch(ipt_mod, "partition_tables", "eval.partition_tables")
    tracer.patch(ipt_mod, "register_views", "eval.register_views")


def traced_layers(run: Run, inp: Inputs, tracer: Tracer, matches: int) -> dict:
    """One traced Loom pass (and, on the cell workload, one traced cell)
    after the untraced ones; returns the per-layer metrics."""
    patch_loom(tracer)
    try:
        _, traced_s = run.stream_pass("loom", inp)
    finally:
        tracer.restore()
    jobs = 0
    if run.spec.cell:
        sc = run.spark.sparkContext
        sc.setJobGroup(TRACED_JOB_GROUP, "traced Fig. 7 cell")
        patch_cell(tracer)
        try:
            run.cell(inp)
        finally:
            tracer.restore()
        jobs = len(sc.statusTracker().getJobIdsForGroup(TRACED_JOB_GROUP))

    own = self_times(tracer.spans)
    calls, hits = tracer.calls, tracer.hits

    def median_span(name):
        d = tracer.durations(name)
        return statistics.median(d) if d else 0.0

    def ratio(name):
        return hits[name] / calls[name] if calls[name] else 0.0

    clusters = tracer.samples["motifs.cluster_size"]
    n = len(inp.stream)
    out = {
        "graphs.generate_s": median_span("graphs.generate"),
        "graphs.ordered_stream_s": median_span("graphs.ordered_stream"),
        "graphs.stream_of_s": median_span("graphs.stream_of"),
        "tpstry.build_s": median_span("tpstry.build"),
        "spark.start_s": tracer.total("spark.start"),
        "tpstry.motif_nodes": len(inp.motifs),
        "tpstry.single_edge_motif.calls": calls["tpstry.single_edge_motif"],
        "tpstry.motif_child.calls": calls["tpstry.motif_child"],
        "tpstry.motif_child.hit_ratio": ratio("tpstry.motif_child"),
        "motifs.offer.calls": calls["motifs.offer"],
        "motifs.offer.entered_ratio": ratio("motifs.offer"),
        "motifs.offer.s": tracer.total("motifs.offer"),
        "motifs.matches_containing.calls": calls["motifs.matches_containing"],
        "motifs.cluster_size.mean": statistics.mean(clusters) if clusters else 0.0,
        "motifs.matches_containing.s": tracer.total("motifs.matches_containing"),
        "motifs.remove_edges.s": tracer.total("motifs.remove_edges"),
        "motifs.window.peak": tracer.peaks["motifs.window"],
        "motifs.match_list.peak": tracer.peaks["motifs.match_list"],
        "loom.add_edge.self_s": own.get("loom.add_edge", 0.0),
        "loom.finalize.s": tracer.total("loom.finalize"),
        "loom.add_edge.p99_us": 1e6 * percentile(tracer.durations("loom.add_edge"), 99),
        "partitioners.ldg_choose.calls": calls["partitioners.ldg_choose"],
        "partitioners.ldg_choose.s": tracer.total("partitioners.ldg_choose"),
        "partitioners.neighbours_in.calls": calls["partitioners.neighbours_in"],
        "partitioners.neighbours_in.s": tracer.busy["partitioners.neighbours_in"],
        "partitioners.hash.ms_per_10k": run.ms("hash", n),
        "partitioners.ldg.ms_per_10k": run.ms("ldg", n),
        "partitioners.fennel.ms_per_10k": run.ms("fennel", n),
        "eval.partition_tables_s": tracer.total("eval.partition_tables"),
        "eval.register_views_s": tracer.total("eval.register_views"),
        "eval.query_s": own.get("eval.workload_ipt", 0.0),
        "eval.workload_ipt.calls": calls["eval.workload_ipt"],
        "spark.jobs": jobs,
        "eval.matches": matches,
        "trace.overhead_pct": 100.0 * (traced_s / statistics.fmean(run.samples["loom"]) - 1.0),
    }
    for system in SYSTEMS:
        out[f"harness.run_system.{system}_s"] = tracer.total(f"harness.run_system.{system}")
    return out


def write_spans(tracer: Tracer, path: str, meta: dict) -> None:
    """Spans, call counts and busy times of a traced run, gzipped JSON."""
    with gzip.open(path, "wt") as f:
        json.dump(
            {
                **meta,
                "span_fields": ["id", "name", "start_s", "end_s", "parent"],
                "spans": tracer.spans,
                "calls": tracer.calls,
                "busy_s": tracer.busy,
            },
            f,
        )


# -------------------------------------------------------------------- run
def execute(name: str, *, seed: int, seconds: float, trace: bool, scale: int,
            workdir: str):
    """Run one workload; returns (metrics, run, record).

    Untraced runs report the end-to-end metrics, traced runs the per-layer
    ones; both make the same untraced passes and checks."""
    spec = WORKLOADS[name]
    run = Run(spec, seconds)
    tracer = Tracer() if trace else None
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inp = set_up(spec, scale, seed, tracer)
        setups.append(time.perf_counter() - t0)
    spark_s = 0.0
    try:
        if spec.cell:
            t0 = time.perf_counter()
            with tracer.span("spark.start") if trace else nullcontext():
                run.spark = start_spark(workdir)
            spark_s = time.perf_counter() - t0
        canon = reorder(inp, spec, 0)
        assignments = run.warm_up(canon)
        # Read here, after a fixed amount of work: later passes only add
        # allocator churn that varies with the number of timed rounds.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.timed_phase(inp)
        pct, matches = score(run, canon, assignments, scale)
        record = environment(spec, scale, inp, run.spark)
        if trace:
            metrics = traced_layers(run, inp, tracer, matches)
            span_file = os.path.join(workdir, f"spans-{name}-seed{seed}.json.gz")
            write_spans(tracer, span_file, {"workload": name, "seed": seed, **record})
            record["span_file"] = os.path.relpath(span_file, os.path.dirname(
                os.path.dirname(workdir)))
            record["trace.overhead_pct"] = metrics["trace.overhead_pct"]
    finally:
        if run.spark is not None:
            stop_spark(run.spark)
    if not trace:
        n = len(inp.stream)
        metrics = {
            "setup_s": statistics.median(setups) * run.speed() + spark_s,
            "loom_ms_per_10k": run.ms("loom", n),
            "ldg_ms_per_10k": run.ms("ldg", n),
            "fennel_ms_per_10k": run.ms("fennel", n),
            "cell_s": run.cell_s(),
            "loom_ipt_pct": pct["loom"],
            "fennel_ipt_pct": pct["fennel"],
            "ldg_ipt_pct": pct["ldg"],
            "peak_rss_mb": peak_rss_mb,
        }
    record["samples"] = {
        "setup_s": setups,
        "spark_start_s": spark_s,
        "yardstick_s": run.yardsticks,
        "speed": run.speed(),
        "cell_s": run.cells,
        **{f"{s}_pass_s": v for s, v in run.samples.items()},
    }
    record["digests"] = {f"{s}@order{o}": d for (o, s), d in run.digests.items()}
    return metrics, run, record


def environment(spec: Spec, scale: int, inp: Inputs, spark) -> dict:
    """What the numbers were measured on."""
    if spark is not None:
        java = spark.sparkContext._jvm.System.getProperty("java.version")
    else:
        java = java_version()
    return {
        "dataset": spec.dataset,
        "order": spec.order,
        "scale": scale,
        "k": spec.k,
        "window": WINDOW,
        "threshold": THRESHOLD,
        "edges": len(inp.stream),
        "vertices": inp.graph.n_vertices,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "spark": pyspark.__version__,
        "java": java,
        "spark_master": SPARK_MASTER if spark is not None else None,
        "spark_driver_memory": SPARK_DRIVER_MEMORY if spark is not None else None,
    }


def java_version() -> str | None:
    """``java -version`` of the JVM a Spark run would launch."""
    java = shutil.which("java")
    if java is None:
        return None
    out = subprocess.run(
        [java, "-XX:-UsePerfData", "-version"], capture_output=True, text=True, timeout=60
    ).stderr
    first = out.splitlines()[0] if out else ""
    return first.split('"')[1] if '"' in first else first
