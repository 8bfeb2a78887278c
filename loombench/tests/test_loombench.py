"""Tests of the benchmark itself.

    python3 -m pytest loombench/tests -q

The smoke tests run every workload at generator scale 2,000 through
``run.py``, the same code path the full benchmark takes, and check that
every metric named in BENCHMARK.json is emitted with its unit.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

from checks import invariant_errors  # noqa: E402
from tracing import Tracer, percentile, self_times  # noqa: E402


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# ------------------------------------------------------------- self time
def test_self_times_of_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping: they
    # cover [1, 6] once) and c [9, 12], clipped to [9, 10]; a has a child
    # d [2, 3]. Two spans share the name "leaf", so their self times add.
    spans = [
        (0, "root", 0.0, 10.0, -1),
        (1, "a", 1.0, 4.0, 0),
        (2, "b", 3.0, 6.0, 0),
        (3, "leaf", 9.0, 12.0, 0),
        (4, "leaf", 2.0, 3.0, 1),
    ]
    got = self_times(spans)
    assert got["root"] == pytest.approx(10 - 5 - 1)
    assert got["a"] == pytest.approx(3 - 1)
    assert got["b"] == pytest.approx(3)
    assert got["leaf"] == pytest.approx(3 + 1)


def test_self_times_without_children_is_duration():
    assert self_times([(0, "x", 1.0, 3.5, -1)]) == {"x": 2.5}


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([5.0], 99) == 5.0
    assert percentile([], 99) == 0.0


# -------------------------------------------------------------- patching
class _Target:
    def work(self, x):
        return x * 2

    def miss(self, x):
        return None


def test_patch_records_and_restores():
    tracer = Tracer()
    orig_work, orig_miss = _Target.work, _Target.miss
    tracer.patch(_Target, "work", "t.work")
    tracer.patch(
        _Target, "miss", "t.miss", kind="count",
        observe=lambda _a, r: tracer.hits.update(["t.miss"] if r is not None else []),
    )
    t = _Target()
    with tracer.span("outer"):
        assert t.work(3) == 6
        assert t.miss(1) is None
    tracer.restore()
    assert _Target.work is orig_work and _Target.miss is orig_miss
    assert tracer.calls["t.work"] == 1 and tracer.calls["t.miss"] == 1
    assert tracer.hits["t.miss"] == 0
    (outer,) = [s for s in tracer.spans if s[1] == "outer"]
    (work,) = [s for s in tracer.spans if s[1] == "t.work"]
    assert work[4] == outer[0]
    assert outer[2] <= work[2] <= work[3] <= outer[3]


# ------------------------------------------------------------ invariants
def _partitioner(assignment, sizes, capacity, window=()):
    state = SimpleNamespace(
        k=len(sizes), assignment=assignment, sizes=sizes, capacity=capacity
    )
    matcher = SimpleNamespace(window=dict.fromkeys(window), match_list={})
    return SimpleNamespace(state=state, matcher=matcher)


def test_invariants_accept_a_sound_partitioning():
    p = _partitioner({1: 0, 2: 1, 3: 1}, [1, 2], capacity=2)
    assert invariant_errors(p, {1, 2, 3}) == []


@pytest.mark.parametrize(
    "assignment, sizes, vertices, window",
    [
        ({1: 0, 2: 1}, [1, 1], {1, 2, 3}, ()),        # vertex 3 unassigned
        ({1: 0, 2: 1, 3: 1}, [1, 1], {1, 2, 3}, ()),  # sizes do not add up
        ({1: 0, 2: 0, 3: 0}, [3, 0], {1, 2, 3}, ()),  # over capacity alone
        ({1: 0, 2: 1, 3: 1}, [1, 2], {1, 2, 3}, (7,)),  # window not drained
    ],
)
def test_invariants_reject(assignment, sizes, vertices, window):
    p = _partitioner(assignment, sizes, capacity=2, window=window)
    assert invariant_errors(p, vertices)


def test_a_changed_digest_fails_the_pass():
    from workloads import WORKLOADS, Inputs, Run

    run = Run(WORKLOADS["stream-provgen-bfs"], seconds=1.0)
    inp = Inputs(None, [], None, [(1, 2), (2, 3)], [], order_seed=5)
    run.check("ldg", _partitioner({1: 0, 2: 1, 3: 1}, [1, 2], capacity=2), inp)
    run.check("ldg", _partitioner({1: 1, 2: 0, 3: 0}, [2, 1], capacity=2), inp)
    # Another stream or another system keeps its own first digest.
    run.check("fennel", _partitioner({1: 1, 2: 0, 3: 0}, [2, 1], capacity=2), inp)
    assert (run.attempted, run.failed) == (3, 1)
    assert not run.correct
    assert "digest" in run.problems[0] and "ldg" in run.problems[0]


# ----------------------------------------------------------------- smoke
def _bench_env() -> dict:
    env = dict(os.environ)
    env.pop("PYSPARK_SUBMIT_ARGS", None)
    return env


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("loombench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=_bench_env(),
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in spec()["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "0", "--seconds", "1",
        "--trace", trace, "--scale", "2000",
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr[-2000:]
    assert result["attempted"] >= 1 and result["failed"] == 0
    key = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec()[key]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "loombench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        str(tmp_path), "--workload", spec()["workloads"][0]["name"],
        "--seed", "0", "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
