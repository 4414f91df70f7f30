#!/usr/bin/env python3
"""Benchmark of the extraction and curation jobs, one workload per run.

    python3 perfbench/run.py --workload extract_shards --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One process, one Ray session with
``num_cpus=1``, one job at a time (closed loop).  The run:

1. generates the workload's input from ``--seed`` and computes the
   sequential twin's output digest (cached per seed and size; neither
   is timed);
2. sets up several times (Ray session start plus one warm-up job on a
   small input; package import is paid once and added to each) and
   reports the median as ``setup_s``;
3. with ``--trace 0`` repeats the job until ``--seconds`` have passed,
   checks every output against the twin and reports the median
   ``wall_s`` and ``pages_per_s``; with ``--trace 1`` runs the job once
   untraced and once traced (see trace.py) and reports the per-layer
   metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

SETUPS = 3  # set-ups per --trace 0 run; setup_s is their median
MIN_JOBS = 3  # timed jobs per run even when --seconds is short

END_TO_END = {
    "wall_s": "s",
    "pages_per_s": "1/s",
    "setup_s": "s",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def start_ray(ray) -> None:
    # Keep Ray's session files inside the checkout when the path is
    # short enough for its unix sockets (~107 bytes incl. the session
    # name); otherwise Ray's default temp dir is used.
    temp = os.path.join(WORK, "ray")
    kwargs = {"_temp_dir": temp} if len(temp) <= 40 else {}
    ray.init(
        address="local",
        num_cpus=1,
        object_store_memory=512 * 1024 * 1024,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        **kwargs,
    )
    ray.data.DataContext.get_current().enable_progress_bars = False


def twin_facts_cached(w, workloads, inp, seed: int) -> dict:
    """Twin digest and twin-side input facts, cached on disk keyed on
    everything that determines them."""
    from document_extractor_ray.fixtures import CORPUS_VERSION
    from document_extractor_ray.pipelines.curation import CURATION_CHAIN_VERSION

    key = (
        f"{w.name}-seed{seed}-n{w.size}-corpus{CORPUS_VERSION}"
        f"-chain{CURATION_CHAIN_VERSION}-gen{workloads.GENERATOR_VERSION}"
    )
    path = os.path.join(WORK, "twin_cache", key + ".json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    facts = workloads.twin_facts(w, inp)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(facts, f)
    os.replace(tmp, path)
    return facts


class Runner:
    """Runs one workload's jobs into fresh output directories and checks
    each output against the twin digest."""

    def __init__(self, w, run_dir: str, expected: str):
        self.w = w
        self.run_dir = run_dir
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self._n = 0

    def fresh_out(self) -> str:
        self._n += 1
        out = os.path.join(self.run_dir, f"out-{self._n}")
        shutil.rmtree(out, ignore_errors=True)
        return out

    def check(self, out: str, result) -> bool:
        ok = self.w.output_digest(out, result) == self.expected
        if not ok:
            log(f"output mismatch in {out}")
        return ok

    def timed(self, inp, job=None):
        """One job: (wall seconds, result) or (None, None) on failure."""
        out = self.fresh_out()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = (job or self.w.job)(inp, out)
            wall = time.perf_counter() - t0
            ok = self.check(out, result)
        except Exception as e:  # a failed job is counted, not fatal
            log(f"job failed: {type(e).__name__}: {e}")
            ok, wall, result = False, None, None
        shutil.rmtree(out, ignore_errors=True)
        if not ok:
            self.failed += 1
            return None, None
        return wall, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", type=int, default=None, help="override base pages")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "document_extractor_ray")):
        log(f"document_extractor_ray not found under {ROOT}")
        return 2

    # Workers inherit the environment: make the package importable there.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, HERE, os.environ.get("PYTHONPATH")) if p
    )
    sys.path[:0] = [ROOT, HERE]
    t0 = time.perf_counter()
    import ray
    import ray.data

    import workloads
    import layers

    import_s = time.perf_counter() - t0

    if args.workload not in workloads.WORKLOADS:
        log(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.size:
        w = dataclasses.replace(w, size=args.size)

    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(os.path.join(run_dir, "in"))
    os.makedirs(os.path.join(run_dir, "warm"))
    try:
        return _run(args, w, workloads, layers, ray, import_s, run_dir)
    finally:
        if ray.is_initialized():
            ray.shutdown()
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, w, workloads, layers, ray, import_s, run_dir) -> int:
    # --- inputs and twin (the benchmark's own cost; untimed) -------------
    t = time.perf_counter()
    inp = w.generate(os.path.join(run_dir, "in"), w.size, args.seed)
    warm = w.generate(os.path.join(run_dir, "warm"), w.warmup, args.seed + 10_000)
    facts = twin_facts_cached(w, workloads, inp, args.seed)
    props = dict(inp.props, records=inp.n_records, fallback_share=facts["fallback_share"],
                 dedup_rows_dropped=facts["rows_dropped"], tie_rows=facts["tie_rows"])
    log(f"inputs + twin: {time.perf_counter() - t:.2f} s")
    print("input " + json.dumps({"workload": w.name, "seed": args.seed, **props}))

    runner = Runner(w, run_dir, facts["digest"])

    # --- set-up: session start + warm-up job, median of several ----------
    setups = []
    n_setups = 1 if args.trace else SETUPS
    for k in range(n_setups):
        if ray.is_initialized():
            ray.shutdown()
        t = time.perf_counter()
        start_ray(ray)
        try:
            w.job(warm, runner.fresh_out())
        except Exception as e:
            log(f"warm-up job failed: {type(e).__name__}: {e}")
            return 1
        setups.append(import_s + time.perf_counter() - t)
    setup_s = statistics.median(setups)
    log("setups: " + " ".join(f"{s:.3f}" for s in setups))

    if args.trace:
        metrics = _traced(args, w, workloads, layers, runner, inp, facts)
    else:
        metrics = _timed(args, w, runner, inp, setup_s)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(
        f"summary workload={w.name} seed={args.seed} "
        f"failed_share={runner.failed / runner.attempted:.4f} (share) "
        + " ".join(f"{k}={v['value']:.6g} ({v['unit']})" for k, v in metrics.items()
                   if k in END_TO_END)
    )
    print(json.dumps(result), flush=True)
    return 0


def _timed(args, w, runner, inp, setup_s) -> dict:
    walls = []
    t_end = time.perf_counter() + args.seconds
    while len(walls) < MIN_JOBS or time.perf_counter() < t_end:
        wall, _ = runner.timed(inp)
        if wall is not None:
            walls.append(wall)
        if runner.attempted >= 4 * MIN_JOBS and not walls:
            break
    if not walls:
        raise SystemExit("every job failed")
    half = len(walls) // 2
    trend = statistics.median(walls[half:]) / statistics.median(walls[:half])
    log("walls: " + " ".join(f"{x:.3f}" for x in walls)
        + f"  second-half/first-half median: {trend:.3f}")
    wall_s = statistics.median(walls)
    return {
        "wall_s": {"value": wall_s, "unit": "s"},
        "pages_per_s": {"value": inp.n_records / wall_s, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def _traced(args, w, workloads, layers, runner, inp, facts) -> dict:
    untraced, _ = runner.timed(inp)
    run_id = f"{w.name}-seed{args.seed}-{os.getpid()}"
    job = layers.Tracer(run_id)
    out = runner.fresh_out()
    runner.attempted += 1
    try:
        packed = layers.traced_job(w, inp, out, job)
        ok = runner.check(out, packed)
    except Exception as e:
        log(f"traced job failed: {type(e).__name__}: {e}")
        ok, packed = False, None
    if not ok:
        runner.failed += 1
    if untraced is None or not ok:
        raise SystemExit("traced run needs one good untraced and one good traced job")

    side = layers.Tracer(run_id + "-noray")
    pages = inp.pages
    rows_in_dedup = 0
    if w.cfg.dedup:
        rows_in_dedup = pages.num_rows
        pages = pages.take(workloads.dedup_keep(pages))
    fb = layers.kernel_replay(pages, w.cfg, side, wrap_kernels=False)
    kern = layers.Tracer(run_id + "-kernels")
    layers.kernel_replay(pages, w.cfg, kern, wrap_kernels=True)
    warc_records, peak_rss = 0, 0.0
    if w.name == "recrawl_warc":
        warc_records = layers.warc_parse_replay(inp.files, side)
        peak_rss = layers.warc_read_peak_rss_mb(inp.files[0], dict(os.environ))
    else:
        layers.parquet_read_replay(inp.files, side)
    if w.name == "curate_chain":
        layers.curation_kernel_replay(os.path.join(out, "docs"), side)

    metrics = layers.layer_metrics(
        job, side, kern, untraced, fb, facts, rows_in_dedup, warc_records, peak_rss,
        packed if w.name == "curate_chain" else None,
    )
    for tr in (job, side, kern):
        tr.dump(os.path.join(WORK, "traces", tr.run_id + ".jsonl"))
        log(f"self times ({tr.run_id}):")
        for name, s, calls in layers.self_time_table(tr)[:25]:
            log(f"  {name:48s} {s:9.4f} s  {calls:7d} calls")
    return {
        k: {"value": v, "unit": layers.PER_LAYER[k][0]} for k, v in metrics.items()
    }


if __name__ == "__main__":
    sys.exit(main())
