"""Per-layer numbers for the benchmark's traced run.

Spans are recorded from the benchmark's own files: ``Tracer.patch``
replaces a public function of the program (a module attribute) with a
wrapper that opens a span around the call and, for functions that
return a lazy Ray Dataset, materializes the result inside the span so
the work lands in the layer that planned it.  The program itself is
not changed and records nothing.

Two replays feed the metrics:

- ``traced_job`` runs the workload's job once on Ray with every layer
  boundary wrapped; a layer's self time is its span time minus the
  time of the wrapped spans inside it.  Ray Data's own per-operator
  stats are read from every Dataset a wrapper materializes.
- ``kernel_replay`` runs the extraction stages over the same rows in
  this process with no Ray: once plain, for the stage times, and once
  with the ``core`` kernels wrapped, for the per-kernel split.  That is
  the single-threaded baseline; Ray overhead is the extraction
  operators' busy time minus the two stage times.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from document_extractor_ray.core import cascade, htmlx, records, sniff
from document_extractor_ray.functions import dedup as fdedup
from document_extractor_ray.functions import training
from document_extractor_ray.pipelines import curation, extract, outputs, resume
from document_extractor_ray import sources
from document_extractor_ray.sources import PAGE_COLUMNS, warc
from document_extractor_ray.stages import extract as stage_extract
from document_extractor_ray.stages import fallback as stage_fallback

# Kernel metric name -> the functions its spans wrap.
KERNELS = {
    "core.sniff.sniff_kind": [(sniff, "sniff_kind")],
    "core.htmlx.decode_split": [(htmlx, "decode_payload"), (htmlx, "split_pages")],
    "core.cascade.html_pass1": [(cascade, "html_pass1")],
    "core.cascade.html_fallback": [(cascade, "html_fallback")],
    "core.cascade.process_any": [(cascade, "process_any")],
    "core.records.assemble_record": [(records, "assemble_record")],
    "core.records.records_to_table": [(records, "records_to_table")],
}

# Metric name -> (unit, better).  BENCHMARK.json's per_layer list is this
# table; every traced run emits every name (0 where a workload does not
# exercise the layer).
PER_LAYER: Dict[str, tuple] = {}
for _k in KERNELS:
    PER_LAYER[f"{_k}_s"] = ("s", "lower")
    PER_LAYER[f"{_k}.calls"] = ("count", "lower")
PER_LAYER.update(
    {
        "stages.route_primary.kernel_s": ("s", "lower"),
        "stages.fallback.kernel_s": ("s", "lower"),
        "stages.fallback.pending_rows": ("count", "lower"),
        "stages.fallback.recovered_ratio": ("ratio", "higher"),
    }
)
RAY_GROUPS = ("read", "dedup", "extract", "other")
for _g in RAY_GROUPS:
    PER_LAYER.update(
        {
            f"ray.{_g}.wall_s": ("s", "lower"),
            f"ray.{_g}.cpu_s": ("s", "lower"),
            f"ray.{_g}.rows_out": ("count", "lower"),
            f"ray.{_g}.bytes_out": ("bytes", "lower"),
        }
    )
PER_LAYER.update(
    {
        "ray.overhead_s": ("s", "lower"),
        "ray.consume_s": ("s", "lower"),
        "pipelines.extract.run_extraction_s": ("s", "lower"),
        "pipelines.extract.dedup_first_s": ("s", "lower"),
        "dedup.rows_in": ("count", "lower"),
        "dedup.rows_dropped": ("count", "higher"),
        "dedup.drop_ratio": ("ratio", "higher"),
        "dedup.tie_rows": ("count", "lower"),
        "sources.parquet.read_s": ("s", "lower"),
        "sources.warc.read_pages_warc_s": ("s", "lower"),
        "sources.warc.parse_s": ("s", "lower"),
        "sources.warc.records": ("count", "higher"),
        "sources.warc.read_task_peak_rss_mb": ("MB", "lower"),
        "pipelines.outputs.write_outputs_s": ("s", "lower"),
        "sink.write_parquet_s": ("s", "lower"),
        "sink.bytes_written": ("bytes", "lower"),
        "pipelines.resume.run_resumable_s": ("s", "lower"),
        "pipelines.resume.run_shard_s": ("s", "lower"),
        "pipelines.resume.status_reread_s": ("s", "lower"),
        "pipelines.resume.shards": ("count", "lower"),
        "pipelines.curation.run_curation_s": ("s", "lower"),
        "pipelines.curation.t_extract_clean_s": ("s", "lower"),
        "pipelines.curation.t_exact_losers_s": ("s", "lower"),
        "pipelines.curation.t_near_losers_s": ("s", "lower"),
        "pipelines.curation.t_assemble_setup_s": ("s", "lower"),
        "curation.checkpoint_read_s": ("s", "lower"),
        "curation.checkpoint_reads": ("count", "lower"),
        "curation.pack_consume_s": ("s", "lower"),
        "curation.exact_losers": ("count", "higher"),
        "curation.near_losers": ("count", "higher"),
        "curation.decontam_dropped": ("count", "higher"),
        "curation.pack_fill_ratio": ("ratio", "higher"),
        "functions.dedup.exact_dup_losers_s": ("s", "lower"),
        "functions.dedup.near_dup_losers_s": ("s", "lower"),
        "functions.dedup.shingles_s": ("s", "lower"),
        "functions.dedup.minhash_signature_s": ("s", "lower"),
        "functions.training.pack_sequences_s": ("s", "lower"),
        "trace.wall_s": ("s", "lower"),
        "trace.attributed_share": ("ratio", "higher"),
        "trace_overhead_s": ("s", "lower"),
    }
)

# Job spans with a metric of their own (``<name>_s``), and helper spans
# whose time is charged to the span that called them.
_NAMED_SPANS = frozenset(
    {
        "pipelines.extract.run_extraction",
        "pipelines.extract.dedup_first",
        "sources.warc.read_pages_warc",
        "pipelines.outputs.write_outputs",
        "sink.write_parquet",
        "pipelines.resume.run_resumable",
        "pipelines.resume.run_shard",
        "pipelines.curation.run_curation",
        "curation.pack_consume",
        "functions.dedup.exact_dup_losers",
        "functions.dedup.near_dup_losers",
        "functions.training.pack_sequences",
    }
)
_HELPER_SPANS = frozenset(
    {"sources.parquet.read_parquet_clean", "ray.take_all", "ray.iter_batches"}
)

# Span name -> Ray operator group for the Datasets materialized inside it.
_SPAN_GROUP = {
    "sources.parquet.read_parquet_clean": "read",
    "sources.warc.read_pages_warc": "read",
    "pipelines.extract.dedup_first": "dedup",
    "pipelines.extract.run_extraction": "extract",
}


class Tracer:
    """In-memory span recorder: one span per wrapped call, all sharing
    the tracer's run id; ``dump`` writes them out."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[dict] = []
        self.ops: List[dict] = []
        self.results: Dict[str, object] = {}
        self.bytes_written = 0
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._seen_stats: List[object] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "run_id": self.run_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, name: str, materialize: bool = False,
              keep_result: bool = False) -> None:
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as rec:
                out = orig(*args, **kwargs)
                if materialize and isinstance(out, ray.data.Dataset):
                    out = out.materialize()
                    tracer._record_ops(out, name)
                    rec["rows_out"] = out.count()
                if keep_result:
                    tracer.results[name] = out
                return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _record_ops(self, ds, span_name: str) -> None:
        """Ray Data's per-operator stats of one materialization.  Its
        stats tree also holds the executions it was built on; those were
        recorded when they ran, so each stats node counts once."""
        group = _SPAN_GROUP.get(span_name, "other")
        todo = [ds._plan.stats()]
        while todo:
            node = todo.pop()
            todo.extend(node.parents or [])
            if any(node is seen for seen in self._seen_stats):
                continue
            self._seen_stats.append(node)
            for op in node.to_summary().operators_stats:
                self.ops.append(
                    {
                        "group": group,
                        "operator": op.operator_name,
                        "wall_s": (op.wall_time or {}).get("sum", 0.0),
                        "cpu_s": (op.cpu_time or {}).get("sum", 0.0),
                        "rows_out": (op.output_num_rows or {}).get("sum", 0),
                        "bytes_out": (op.output_size_bytes or {}).get("sum", 0),
                    }
                )

    def self_times(self) -> Dict[int, float]:
        """Span id -> its duration minus its direct children's."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        return {s["id"]: s["end"] - s["start"] - child[s["id"]] for s in self.spans}

    def by_name(self) -> Dict[str, dict]:
        """Name -> {self_s, total_s, calls}."""
        st = self.self_times()
        out: Dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        for s in self.spans:
            agg = out[s["name"]]
            agg["self_s"] += st[s["id"]]
            agg["total_s"] += s["end"] - s["start"]
            agg["calls"] += 1
        return out

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
            for op in self.ops:
                f.write(json.dumps({"run_id": self.run_id, "ray_op": op}) + "\n")


# ---------------------------------------------------------------------------
# Traced Ray job
# ---------------------------------------------------------------------------

def _patch_job_layers(tr: Tracer) -> None:
    orig_write = ray.data.Dataset.write_parquet

    def write_parquet(ds, path, *args, **kwargs):
        with tr.span("sink.write_parquet"):
            orig_write(ds, path, *args, **kwargs)
        tr.bytes_written += sum(
            os.path.getsize(os.path.join(d, f))
            for d, _, fs in os.walk(path)
            for f in fs
        )

    ray.data.Dataset.write_parquet = write_parquet
    tr._patches.append((ray.data.Dataset, "write_parquet", orig_write))
    tr.patch(ray.data.Dataset, "take_all", "ray.take_all")
    orig_iter = ray.data.Dataset.iter_batches

    def iter_batches(ds, *args, **kwargs):
        with tr.span("ray.iter_batches"):
            batches = list(orig_iter(ds, *args, **kwargs))
        return iter(batches)

    ray.data.Dataset.iter_batches = iter_batches
    tr._patches.append((ray.data.Dataset, "iter_batches", orig_iter))

    tr.patch(resume, "run_resumable", "pipelines.resume.run_resumable")
    tr.patch(resume, "run_shard", "pipelines.resume.run_shard")
    for owner in (extract, resume):
        tr.patch(owner, "run_extraction", "pipelines.extract.run_extraction",
                 materialize=True)
    tr.patch(extract, "dedup_first", "pipelines.extract.dedup_first", materialize=True)
    # the fused plan's dedup scan (dedup_first's winner pass, run eagerly
    # while the fused plan is built)
    tr.patch(extract, "_dup_winners", "pipelines.extract.dedup_first")
    tr.patch(sources, "read_parquet_clean", "sources.parquet.read_parquet_clean",
             materialize=True)
    tr.patch(warc, "read_pages_warc", "sources.warc.read_pages_warc", materialize=True)
    tr.patch(outputs, "write_outputs", "pipelines.outputs.write_outputs")
    tr.patch(curation, "run_curation", "pipelines.curation.run_curation",
             keep_result=True)
    tr.patch(curation, "packed_to_table", "curation.pack_consume", keep_result=True)
    tr.patch(fdedup, "exact_dup_losers", "functions.dedup.exact_dup_losers",
             materialize=True)
    tr.patch(fdedup, "near_dup_losers", "functions.dedup.near_dup_losers",
             materialize=True)
    tr.patch(training, "pack_sequences", "functions.training.pack_sequences",
             materialize=True)


def traced_job(w, inp, out: str, tr: Tracer):
    """Run the workload's job once with every layer boundary wrapped;
    returns the job's result (for the output check)."""
    _patch_job_layers(tr)
    try:
        with tr.span("job"):
            return w.job(inp, out)
    finally:
        tr.restore()


# ---------------------------------------------------------------------------
# No-Ray replays
# ---------------------------------------------------------------------------

def kernel_replay(pages: pa.Table, cfg, tr: Tracer, wrap_kernels: bool) -> Dict[str, int]:
    """Run route_primary and the fallback stage over ``pages`` in this
    process, batch by batch, optionally with the core kernels wrapped.
    Returns the fallback stage's row counts."""
    if wrap_kernels:
        for name, targets in KERNELS.items():
            for owner, attr in targets:
                tr.patch(owner, attr, name)
    fallback = stage_fallback.make_fallback_fn(cfg)
    pending = recovered = 0
    try:
        with tr.span("kernels"):
            for start in range(0, pages.num_rows, cfg.small_batch_size):
                batch = pages.slice(start, cfg.small_batch_size)
                with tr.span("stages.route_primary"):
                    routed = stage_extract.route_primary(batch, cfg)
                with tr.span("stages.fallback"):
                    done = fallback(routed)
                pend_urls = routed.filter(
                    pc.equal(routed["status"], cascade.STATUS_PENDING)
                )["url"]
                pending += len(pend_urls)
                ok = pc.and_(
                    pc.is_in(done["url"], value_set=pend_urls),
                    pc.equal(done["status"], "OK"),
                )
                recovered += pc.sum(pc.cast(ok, pa.int64())).as_py() or 0
    finally:
        tr.restore()
    return {"pending_rows": pending, "recovered_rows": recovered}


def parquet_read_replay(files: List[str], tr: Tracer) -> None:
    """The fused plan's in-task read: every row group, PAGE_COLUMNS."""
    with tr.span("sources.parquet.read_row_groups"):
        for f in files:
            pf = pq.ParquetFile(f)
            for i in range(pf.num_row_groups):
                pf.read_row_group(i, columns=PAGE_COLUMNS)


def warc_parse_replay(files: List[str], tr: Tracer) -> int:
    with tr.span("sources.warc.parse"):
        return sum(1 for f in files for _ in warc.parse_warc_file(f))


_RSS_PROBE = """
import sys
import pyarrow as pa
from document_extractor_ray.sources import warc
rows = list(warc.parse_warc_file(sys.argv[1]))
t = pa.table({"url": pa.array([r[0] for r in rows], pa.string()),
              "warc_ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
              "html": pa.array([r[2] for r in rows], pa.binary()),
              "text": pa.nulls(len(rows), pa.string())})
for line in open("/proc/self/status"):
    if line.startswith("VmHWM:"):
        print(int(line.split()[1]) / 1024.0)
"""


def warc_read_peak_rss_mb(path: str, env: dict) -> float:
    """VmHWM of a fresh process running one file's read path."""
    out = subprocess.run(
        [sys.executable, "-c", _RSS_PROBE, path],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def curation_kernel_replay(docs_dir: str, tr: Tracer) -> None:
    """Shingling and MinHash signatures over the chain's checkpointed
    docs, in this process."""
    files = sorted(
        os.path.join(docs_dir, f) for f in os.listdir(docs_dir) if f.endswith(".parquet")
    )
    texts = [x for f in files for x in pq.read_table(f, columns=["text"])["text"].to_pylist()]
    mh = fdedup.MinHasher(seed=42)
    with tr.span("functions.dedup.shingles"):
        shs = [fdedup.shingles(t, mh.k) for t in texts]
    with tr.span("functions.dedup.minhash_signature"):
        for sh in shs:
            fdedup.minhash_signature(sh, mh.a, mh.b)


# ---------------------------------------------------------------------------
# Metric assembly
# ---------------------------------------------------------------------------

def layer_metrics(
    job: Tracer,
    side: Tracer,
    kern: Tracer,
    untraced_wall: float,
    fb_counts: Dict[str, float],
    facts: Dict[str, object],
    rows_in_dedup: int,
    warc_records: int,
    peak_rss_mb: float,
    packed: Optional[pa.Table],
) -> Dict[str, float]:
    m = {name: 0.0 for name in PER_LAYER}
    sn = side.by_name()
    kn = kern.by_name()

    def self_s(agg, name):
        return agg[name]["self_s"] if name in agg else 0.0

    for k in KERNELS:
        m[f"{k}_s"] = self_s(kn, k)
        m[f"{k}.calls"] = kn[k]["calls"] if k in kn else 0
    # decode and split are one row's two calls: count rows, not calls
    m["core.htmlx.decode_split.calls"] /= 2
    m["stages.route_primary.kernel_s"] = sn["stages.route_primary"]["total_s"] if "stages.route_primary" in sn else 0.0
    m["stages.fallback.kernel_s"] = sn["stages.fallback"]["total_s"] if "stages.fallback" in sn else 0.0
    m["stages.fallback.pending_rows"] = fb_counts["pending_rows"]
    if fb_counts["pending_rows"]:
        m["stages.fallback.recovered_ratio"] = (
            fb_counts["recovered_rows"] / fb_counts["pending_rows"]
        )

    for op in job.ops:
        g = op["group"]
        for key in ("wall_s", "cpu_s", "rows_out", "bytes_out"):
            m[f"ray.{g}.{key}"] += op[key]
    m["ray.overhead_s"] = m["ray.extract.wall_s"] - (
        m["stages.route_primary.kernel_s"] + m["stages.fallback.kernel_s"]
    )

    # Self time of every job span lands in exactly one metric, so the
    # job's metrics add up to its wall minus the root's own time.  A
    # re-read or a driver-side consume is charged to the layer that
    # called it: under run_shard it is the status re-read, under
    # run_curation a checkpoint scan.
    st = job.self_times()
    name_of = {s["id"]: s["name"] for s in job.spans}
    for s in job.spans:
        name = s["name"]
        if name == "job":
            continue
        if name in _HELPER_SPANS:
            parent = name_of.get(s["parent"])
            if parent == "pipelines.resume.run_shard":
                key = "pipelines.resume.status_reread_s"
            elif parent == "pipelines.curation.run_curation":
                key = "curation.checkpoint_read_s"
                m["curation.checkpoint_reads"] += name.startswith("sources.")
            elif parent in _NAMED_SPANS:
                key = f"{parent}_s"
            else:
                key = "ray.consume_s"
        else:
            key = f"{name}_s"
        m[key] += st[s["id"]]
    m["sink.bytes_written"] = job.bytes_written
    m["pipelines.resume.shards"] = sum(
        s["name"] == "pipelines.resume.run_shard" for s in job.spans
    )

    m["dedup.rows_in"] = rows_in_dedup
    m["dedup.rows_dropped"] = facts["rows_dropped"]
    m["dedup.tie_rows"] = facts["tie_rows"]
    if rows_in_dedup:
        m["dedup.drop_ratio"] = facts["rows_dropped"] / rows_in_dedup

    m["sources.parquet.read_s"] = self_s(sn, "sources.parquet.read_row_groups")
    m["sources.warc.parse_s"] = self_s(sn, "sources.warc.parse")
    m["sources.warc.records"] = warc_records
    m["sources.warc.read_task_peak_rss_mb"] = peak_rss_mb

    run = job.results.get("pipelines.curation.run_curation")
    if run is not None:
        cm = run["metrics"]
        for k in ("t_extract_clean", "t_exact_losers", "t_near_losers", "t_assemble_setup"):
            m[f"pipelines.curation.{k}_s"] = cm[k]
        m["curation.exact_losers"] = cm["exact_losers"]
        m["curation.near_losers"] = cm["near_losers"]
        if packed is not None and packed.num_rows:
            kept = pc.sum(packed["n_docs"]).as_py()
            m["curation.decontam_dropped"] = (
                cm["docs_after_clean"] - cm["dup_losers_union"] - kept
            )
            # windows filled, over the examples that fit one window
            fit = packed.filter(pc.invert(packed["oversize"]))
            if fit.num_rows:
                m["curation.pack_fill_ratio"] = pc.sum(fit["n_tokens"]).as_py() / (
                    fit.num_rows * cm["window"]
                )
    m["functions.dedup.shingles_s"] = self_s(sn, "functions.dedup.shingles")
    m["functions.dedup.minhash_signature_s"] = self_s(sn, "functions.dedup.minhash_signature")

    root = next(s for s in job.spans if s["name"] == "job")
    wall = root["end"] - root["start"]
    m["trace.wall_s"] = wall
    m["trace.attributed_share"] = 1.0 - st[root["id"]] / wall
    m["trace_overhead_s"] = wall - untraced_wall
    return m


def self_time_table(tr: Tracer) -> List[tuple]:
    """(name, self_s, calls) sorted by self time, for the run log."""
    return sorted(
        ((k, v["self_s"], v["calls"]) for k, v in tr.by_name().items()),
        key=lambda r: -r[1],
    )
