"""Self-test of the benchmark (not part of the repository's test suite).

    python3 -m pytest perfbench/test_perfbench.py -q

Runs every workload at a tiny size in both modes and checks the result
line, checks that a corrupted output counts as failed, and that the
benchmark refuses to run without the program beside it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [ROOT, HERE]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {"extract_shards": 200, "recrawl_warc": 200, "curate_chain": 400}


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_spec_matches_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_tiny_run_emits_every_metric(workload, trace):
    spec = _spec()
    p = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--size", str(TINY[workload]))
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        k: v["unit"] for k, v in res["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_dropped_row_counts_as_failed(tmp_path):
    import pyarrow.parquet as pq
    import ray

    w = workloads.WORKLOADS["extract_shards"]
    inp = w.generate(str(tmp_path), TINY[w.name], 5)
    runner = run.Runner(w, str(tmp_path), workloads.twin_facts(w, inp)["digest"])

    def drop_one_row(inp, out):
        w.job(inp, out)
        path = sorted(
            os.path.join(d, f) for d, _, fs in os.walk(out) for f in fs
            if f.endswith(".parquet")
        )[0]
        t = pq.read_table(path)
        pq.write_table(t.slice(1), path)

    run.start_ray(ray)
    try:
        assert runner.timed(inp)[0] is not None
        assert runner.timed(inp, job=drop_one_row) == (None, None)
    finally:
        ray.shutdown()
    assert (runner.attempted, runner.failed) == (2, 1)


def test_refuses_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract_shards",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
