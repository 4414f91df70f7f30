"""Resumable sharded execution with per-shard lineage.

The reference's resume story is delete-on-success: processed inputs are
removed, so a restart only sees unprocessed files
(``process_run.py:194-197``).  A pure engine never mutates inputs, so
resume is re-expressed as **shard-level commit**:

- the input file list is split into shards (groups of parquet files /
  row ranges);
- each shard runs the full extraction pipeline and writes its outputs
  under ``out/shard=K/`` via ``outputs.commit_dir`` (tmp dir + rename);
- a lineage record (input files, row counts, per-status counts read
  from the written files by ``outputs.status_counts``, extractor
  version, wall time) is committed as ``lineage/shard=K.json``
  (tmp + rename) only after the shard's data is fully on disk;
- on restart, shards with a committed lineage record are skipped — the
  Ray analogue of delete-on-success.

A killed run can lose at most the in-flight shard's partial tmp output,
which the next run overwrites.  At 100 TB the shard is the unit of both
resume and operational parallelism (several shards can be dispatched as
separate ``ray job submit`` invocations against disjoint file groups).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence

import ray.data

from document_extractor_ray import __version__
from document_extractor_ray.config import DEFAULT_CONFIG, PipelineConfig
from document_extractor_ray.pipelines.extract import run_extraction


def plan_shards(input_files: Sequence[str], shard_size: int = 4) -> List[List[str]]:
    """Group input files into shards of at most shard_size files, in
    sorted order so the plan is deterministic across runs."""
    files = sorted(input_files)
    return [list(files[i : i + shard_size]) for i in range(0, len(files), shard_size)]


def _lineage_path(out_dir: str, shard_id: int) -> str:
    return os.path.join(out_dir, "lineage", f"shard={shard_id}.json")


def committed_shards(out_dir: str) -> Dict[int, dict]:
    """Read all committed lineage records."""
    lineage_dir = os.path.join(out_dir, "lineage")
    out: Dict[int, dict] = {}
    if not os.path.isdir(lineage_dir):
        return out
    for name in os.listdir(lineage_dir):
        if name.startswith("shard=") and name.endswith(".json"):
            sid = int(name[len("shard=") : -len(".json")])
            try:
                with open(os.path.join(lineage_dir, name)) as f:
                    out[sid] = json.load(f)
            except Exception:
                continue  # torn write (no rename) -> treated as uncommitted
    return out


def run_shard(
    shard_id: int,
    files: List[str],
    out_dir: str,
    cfg: PipelineConfig = DEFAULT_CONFIG,
) -> dict:
    """Process one shard end-to-end and commit atomically."""
    from document_extractor_ray.pipelines import outputs

    def write(tmp_dir: str) -> Dict[str, int]:
        # run_extraction on file paths reads row groups inside the
        # extraction tasks (payloads never enter the object store;
        # PERF.md step 18).
        final_dir = os.path.join(tmp_dir, "final")
        run_extraction(files, cfg).write_parquet(final_dir)
        # Per-status counters from what was just written (A6 run counters).
        return outputs.status_counts(final_dir)

    t0 = time.perf_counter()
    counts = outputs.commit_dir(os.path.join(out_dir, f"shard={shard_id}"), write)
    n_rows = int(sum(counts.values()))
    wall = time.perf_counter() - t0

    # Input row range covered by this shard (FIXTURES.md §3 lineage
    # schema): cumulative row offsets over the deterministic shard plan.
    import pyarrow.parquet as pq

    n_input_rows = sum(pq.read_metadata(f).num_rows for f in files)

    record = {
        "shard_id": shard_id,
        "input_files": files,
        "n_input_rows": n_input_rows,
        "extractor_version": __version__,
        "n_rows": n_rows,
        "status_counts": counts,
        "n_ok": counts.get("OK", 0),
        "n_error": counts.get("ERROR", 0),
        "n_quarantined": counts.get("MANDATORY_REVIEW", 0)
        + counts.get("ERROR", 0)
        + counts.get("LOW_DISK", 0)
        + counts.get("TIMEOUT", 0),
        "n_noise": counts.get("NOISE", 0),
        "wall_s": round(wall, 3),
    }
    lpath = _lineage_path(out_dir, shard_id)
    os.makedirs(os.path.dirname(lpath), exist_ok=True)
    tmp = lpath + f".tmp{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(record, f)
    os.replace(tmp, lpath)  # the commit point
    return record


def run_resumable(
    input_files: Sequence[str],
    out_dir: str,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    shard_size: int = 4,
    max_shards: Optional[int] = None,
) -> dict:
    """Run all shards, skipping committed ones.  ``max_shards`` bounds
    how many uncommitted shards this invocation processes (used by the
    kill/resume test and by operators batching long backfills)."""
    os.makedirs(out_dir, exist_ok=True)
    shards = plan_shards(input_files, shard_size)
    done = committed_shards(out_dir)
    ran, skipped = [], []
    for sid, files in enumerate(shards):
        if sid in done:
            skipped.append(sid)
            continue
        if max_shards is not None and len(ran) >= max_shards:
            break
        run_shard(sid, files, out_dir, cfg)
        ran.append(sid)
    return {
        "n_shards": len(shards),
        "ran": ran,
        "skipped": skipped,
        "complete": len(committed_shards(out_dir)) == len(shards),
    }


def read_all_results(out_dir: str) -> "ray.data.Dataset":
    """Read every committed shard's final table as one Dataset."""
    import glob

    files: List[str] = []
    for sid in sorted(committed_shards(out_dir)):
        files.extend(
            sorted(glob.glob(os.path.join(out_dir, f"shard={sid}", "final", "*.parquet")))
        )
    from document_extractor_ray.sources import read_parquet_clean

    return read_parquet_clean(files)
