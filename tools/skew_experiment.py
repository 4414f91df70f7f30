#!/usr/bin/env python3
"""Hot-key skew experiment (PERF.md step 30, reproducible).

Builds two 2M-page corpora — uniform urls vs 25% of rows sharing ONE
url with distinct warc_ts (a re-crawl storm) — and times the
dedup-first flagship on both, A/B/A/B in one process.  Writes both
files with the fixture default 512-row groups so the measurement is
not confounded by the fragment plan's fragment-count parallelism bound
(the step-30 discovery; run_extraction switches parquet inputs to the
Dataset plan below 2 fragments/CPU).

Usage: python tools/skew_experiment.py [n_rows]
"""
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import ray

ray.init(
    address="local",
    num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
    include_dashboard=False,
    logging_level="ERROR",
    log_to_driver=False,
)
import ray.data

ray.data.DataContext.get_current().enable_progress_bars = False

from document_extractor_ray import fixtures
from document_extractor_ray.config import DEFAULT_CONFIG
from document_extractor_ray.pipelines.extract import run_extraction

N = int(sys.argv[1]) if len(sys.argv) > 1 else 2_000_000
HOT_URL = "https://hot.example.com/storm"
uni_path = f"/tmp/skew_uniform_n{N}.parquet"
hot_path = f"/tmp/skew_hot_n{N}.parquet"

if not os.path.exists(uni_path):
    fixtures.write_pages_parquet_parallel(uni_path, N, seed=43)
if not os.path.exists(hot_path):
    f = pq.ParquetFile(uni_path)
    w = pq.ParquetWriter(hot_path, f.schema_arrow)
    seen = 0
    for b in f.iter_batches(batch_size=131072):
        t = pa.Table.from_batches([b])
        n = t.num_rows
        rng = np.random.RandomState(7 + seen)
        mask = rng.random(n) < 0.25
        urls = np.asarray(t["url"].to_pylist(), dtype=object)
        urls[mask] = HOT_URL
        ts = t["warc_ts"].to_numpy(zero_copy_only=False).copy()
        ts[mask] = ts[mask] + (seen + np.arange(int(mask.sum()))).astype(
            "timedelta64[us]"
        )
        t = t.set_column(
            t.schema.get_field_index("url"), "url", pa.array(urls.tolist(), pa.string())
        ).set_column(
            t.schema.get_field_index("warc_ts"), "warc_ts", pa.array(ts)
        )
        w.write_table(t, row_group_size=512)
        seen += n
    w.close()

cfg = DEFAULT_CONFIG.with_(deterministic_order=False, dedup=True)
for tag, path in (
    ("hot25", hot_path),
    ("uniform", uni_path),
    ("hot25_b", hot_path),
    ("uniform_b", uni_path),
):
    t0 = time.perf_counter()
    nrows = run_extraction(path, cfg).count()
    print(tag, round(time.perf_counter() - t0, 1), "rows", nrows, flush=True)
ray.shutdown()
