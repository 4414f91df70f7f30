"""Output projections and sinks over the FINAL_SCHEMA dataset.

Side outputs are *data*, not file moves (SURVEY.md §1.4): quarantine is
a filtered table, the portfolio manifest is derived from child urls,
unit rows are an explode — all streaming map_batches projections.

Sinks — one implementation of each, shared by every caller:
- ``write_outputs``: partitioned Parquet (results + side tables)
- ``write_chunks``: the ``<run>_all_text_###.txt`` chunked concatenation
  (output_writer.py:62-116, S7) over ``core.chunking.assign_chunks`` —
  an ordered prefix-sum, streamed on the driver; ``write_combined_text``
  adds rerun continuation, ``reference_layout`` a fresh start.
- ``RUN_CSV_HEADER`` / ``run_csv_row``: the 12-column run index
  (process_run.py:21-34), written by ``write_index_csv`` and
  ``reference_layout``; ``write_legacy_csv``: the legacy 6-column page
  schema (common.py:150-153).
- ``status_counts``: the run's status counters (process_run.py:197-203)
  from the ``status`` column of the parquet files just written.
- ``commit_dir``: tmp dir + atomic rename (resume shards, the curation
  docs checkpoint).
"""

from __future__ import annotations

import csv
import os
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import pyarrow as pa
import pyarrow.compute as pc

from document_extractor_ray.config import DEFAULT_CONFIG, PipelineConfig
from document_extractor_ray.core import records
from document_extractor_ray.core.chunking import (
    DOCUMENT_BREAK,
    assign_chunks,
    chunk_file_name,
)


def results_dataset(final_ds):
    return final_ds.map_batches(records.project_results, batch_format="pyarrow")


def quarantine_dataset(final_ds):
    return final_ds.map_batches(records.project_quarantine, batch_format="pyarrow")


def unit_rows_dataset(final_ds):
    return final_ds.map_batches(records.explode_unit_rows, batch_format="pyarrow")


def _manifest_from_final(t: pa.Table) -> pa.Table:
    """Portfolio manifest recovered from child urls (parent::child)."""
    mask = pc.match_substring(t["url"], "::")
    sub = t.filter(mask)
    parents, names = [], []
    for u in sub["url"].to_pylist():
        parent, _, name = u.rpartition("::")
        parents.append(parent)
        names.append(name)
    return pa.table(
        {
            "parent_url": pa.array(parents, pa.string()),
            "child_name": pa.array(names, pa.string()),
            "child_url": sub["url"],
            "size_bytes": sub["size_bytes"],
        },
        schema=records.MANIFEST_SCHEMA,
    )


def manifest_dataset(final_ds):
    return final_ds.map_batches(_manifest_from_final, batch_format="pyarrow")


def status_counts(final_dir: str) -> Dict[str, int]:
    """Rows per status (A6: the process_run.py:197-203 counter log as
    data) in the parquet files under ``final_dir``, keyed in status
    order.  Reads only the ``status`` column, with pyarrow on the
    driver: no Ray job, no second pass over the written rows."""
    import pyarrow.dataset as pads

    if not os.path.isdir(final_dir):
        return {}
    ds = pads.dataset(final_dir, format="parquet")
    if "status" not in ds.schema.names:
        return {}  # nothing written
    vc = pc.value_counts(ds.to_table(columns=["status"])["status"]).to_pylist()
    return dict(sorted((v["values"], v["counts"]) for v in vc))


def commit_dir(final_dir: str, write: Callable[[str], object]):
    """Write a directory all-or-nothing and return ``write``'s result:
    ``write(tmp)`` fills a fresh ``<final_dir>.tmp`` (clearing a killed
    run's), then one rename publishes it.  Readers see no ``final_dir``
    or a complete one, and a rerun never adds to a killed run's files
    (Ray's write_parquet appends to an existing directory)."""
    import shutil

    tmp = final_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    out = write(tmp)
    shutil.rmtree(final_dir, ignore_errors=True)
    os.replace(tmp, final_dir)
    return out


def write_outputs(
    final_ds, out_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG
) -> Dict[str, str]:
    """Partitioned parquet layout: results/ partitioned by partition_id
    (hash(url) % P) so a rerun can skip committed partitions; side
    tables alongside."""
    paths = {
        "final": os.path.join(out_dir, "final"),
        "results": os.path.join(out_dir, "results"),
        "quarantine": os.path.join(out_dir, "quarantine"),
        "units": os.path.join(out_dir, "units"),
        "manifest": os.path.join(out_dir, "manifest"),
    }
    final_ds = final_ds.materialize()
    final_ds.write_parquet(paths["final"], partition_cols=["partition_id"])
    results_dataset(final_ds).write_parquet(paths["results"])
    quarantine_dataset(final_ds).write_parquet(paths["quarantine"])
    unit_rows_dataset(final_ds).write_parquet(paths["units"])
    manifest_dataset(final_ds).write_parquet(paths["manifest"])
    return paths


# ---------------------------------------------------------------------------
# Sequential driver-side sinks (ordered semantics, small outputs)
# ---------------------------------------------------------------------------

def iter_tables(final_ds_or_table) -> Iterator[pa.Table]:
    """A final table as-is, or a Dataset's batches in order."""
    if isinstance(final_ds_or_table, pa.Table):
        yield final_ds_or_table
    else:
        yield from final_ds_or_table.iter_batches(
            batch_size=1024, batch_format="pyarrow"
        )


def write_chunks(
    texts: Iterable[str],
    out_dir: str,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    resume: Optional[Tuple[str, int, int]] = None,
) -> List[str]:
    """Append each non-empty text block plus DOCUMENT_BREAK, in order,
    to the ``<run>_all_text_###.txt`` chunk ``assign_chunks`` gives it
    (output_writer.py:213-228).  ``resume`` is (path, chunk id, size)
    of an existing last chunk to continue; None starts at chunk 1.
    Returns the chunk files written, in order."""
    import itertools

    brk = DOCUMENT_BREAK.encode("utf-8")
    sized, blocks = itertools.tee(t.encode("utf-8") for t in texts if t)
    start = (1, 0, True) if resume is None else (resume[1], resume[2], False)
    ids = assign_chunks((len(b) for b in sized), cfg.max_combined_bytes, start)
    written: List[str] = []
    fh, open_id = None, None
    try:
        for cid, data in zip(ids, blocks):
            if cid != open_id:
                if fh:
                    fh.close()
                if resume is not None and cid == resume[1]:
                    path, mode = resume[0], "ab"
                else:
                    path = os.path.join(out_dir, chunk_file_name(cfg.run_id, cid))
                    mode = "wb"
                fh = open(path, mode)
                written.append(path)
                open_id = cid
            fh.write(data)
            fh.write(brk)
    finally:
        if fh:
            fh.close()
    return written


def write_combined_text(
    final_ds_or_table, out_dir: str, cfg: PipelineConfig = DEFAULT_CONFIG
) -> list:
    """Combined chunked text files (``write_chunks``) over the
    ``extracted_text`` column in row order; no-text docs never reach
    the combined file.

    Rerun continuation (output_writer.py:86-100): when the output dir
    already holds chunk files for this run, numbering and the size
    budget resume from the highest-numbered one (its current on-disk
    size counts against the budget, exactly like the reference's
    stat-based fit check) — two sequential runs into one dir produce
    the same chunk set as one combined run."""
    import glob

    os.makedirs(out_dir, exist_ok=True)
    resume = None
    pattern = f"{glob.escape(cfg.run_id)}_all_text_*.txt"
    existing = sorted(glob.glob(os.path.join(glob.escape(out_dir), pattern)))
    if existing:
        last = existing[-1]
        stem = os.path.splitext(os.path.basename(last))[0]
        try:
            cid = int(stem.rsplit("_", 1)[-1])
        except ValueError:
            cid = len(existing)  # reference fallback: count-based
        resume = (last, cid, os.path.getsize(last))
    texts = (
        text
        for t in iter_tables(final_ds_or_table)
        for text in t["extracted_text"].to_pylist()
    )
    return write_chunks(texts, out_dir, cfg, resume)


RUN_CSV_HEADER = [
    "original_file", "original_name", "relative_path", "txt_relative_path",
    "pages", "processed_at", "pass_used", "score", "status", "used_ocr",
    "run_id", "notes",
]


def run_csv_writer(f):
    """Write the run-CSV header to ``f`` with a plain writer and return
    the QUOTE_ALL writer for its rows (process_run._write_header_if_needed
    + output_writer row quoting)."""
    csv.writer(f).writerow(RUN_CSV_HEADER)
    return csv.writer(f, quoting=csv.QUOTE_ALL)


def run_csv_row(row: dict, cfg: PipelineConfig = DEFAULT_CONFIG) -> list:
    """One run-CSV row from a final/results row (output_writer.py:230-257
    formatting: score '%.2f', used_ocr lowered bool)."""
    from document_extractor_ray.core.blocks import url_name, url_relative_path

    return [
        row["url"],
        url_name(row["url"]),
        url_relative_path(row["url"], cfg.input_root),
        row["txt_relative_path"],
        row["n_units"],
        row["processed_at"],
        row["pass_used"],
        f"{float(row['score']):.2f}" if row["score"] is not None else "",
        row["status"],
        str(bool(row["used_ocr"])).lower(),
        row["run_id"],
        row["notes"] or "",
    ]


def write_index_csv(
    final_table: pa.Table, csv_path: str, cfg: PipelineConfig = DEFAULT_CONFIG
) -> None:
    """Byte-compatible 12-column run CSV: one ``run_csv_row`` per
    document whose status gets an index row."""
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        w = run_csv_writer(f)
        for row in records.project_results(final_table).to_pylist():
            w.writerow(run_csv_row(row, cfg))


LEGACY_CSV_HEADER = ["filename", "page", "text", "method", "used_ocr", "reliability"]


class LegacyCsvWriter:
    """Legacy CSV sink, behavior-faithful to the reference CsvWriter
    (common.py:136-190, S8):

    - APPEND mode; the 6-column header is written only when the file
      is missing or empty;
    - an existing file's header column count is detected; a 5-column
      legacy file triggers the reference's warning (``cols`` stays 5
      for callers that branch on it) — and, exactly like the
      reference, rows are still written with 6 normalized fields
      (the reference's documented '|rel=' folding was never
      implemented in its row(); parity keeps the real behavior);
    - rows normalize defaults the same way: method falls back to
      'unknown', used_ocr is a lowered bool string, reliability
      formats '%.2f' with None/'' -> 0.0.
    """

    def __init__(self, path: str, logger=None):
        self.log = logger
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        first_open = not os.path.exists(path) or os.path.getsize(path) == 0
        self._fh = open(path, "a", newline="", encoding="utf-8")
        self._writer = csv.writer(self._fh, quoting=csv.QUOTE_ALL)

        self.cols = 6
        if first_open:
            self._writer.writerow(LEGACY_CSV_HEADER)
            self._fh.flush()
        else:
            try:
                with open(path, "r", encoding="utf-8", newline="") as rfh:
                    first = rfh.readline().strip()
                self.cols = len(next(csv.reader([first]))) if first else 6
            except Exception:
                self.cols = 6
            if self.cols == 5 and self.log:
                self.log.warning(
                    "CSV in legacy 5-column mode; reliability will be appended "
                    "to 'method' (e.g., method|rel=0.72)."
                )

    def row(self, filename, page, text, method, used_ocr, reliability=None) -> None:
        filename = str(filename or "")
        page = str(page if page is not None else "")
        text = text if isinstance(text, str) else ("" if text is None else str(text))
        method = str(method or "unknown")
        used_ocr = str(used_ocr).lower() if isinstance(used_ocr, str) else str(bool(used_ocr)).lower()
        reliability = (
            0.0 if (reliability is None or reliability == "") else float(reliability)
        )
        self._writer.writerow(
            [filename, page, text, method, used_ocr, f"{reliability:.2f}"]
        )

    # Back-compat alias mirroring the reference surface.
    def write_row(self, *args, **kwargs) -> None:
        return self.row(*args, **kwargs)

    def close(self) -> None:
        try:
            self._fh.flush()
            self._fh.close()
        except Exception:
            pass


def write_legacy_csv(units_table: pa.Table, csv_path: str, logger=None) -> None:
    """Legacy 6-column CSV with QUOTE_ALL (common.py:136-190 S8).
    Appends when the file already has rows (autodetecting a 5-column
    legacy header, see LegacyCsvWriter)."""
    w = LegacyCsvWriter(csv_path, logger=logger)
    try:
        for row in units_table.to_pylist():
            w.row(
                row["url"],
                row["page"],
                row["text"],
                row["method"],
                row["used_ocr"],
                row["reliability"],
            )
    finally:
        w.close()


def write_training_jsonl(final_ds, out_dir: str) -> str:
    """Export the OK extraction results as JSONL shards (one JSON
    object per line: url, text, score, n_units) — the interchange
    format LLM training pipelines consume.  Distributed write: each
    block writes its own shard, so the export streams and a rerun can
    resume at the shard level like the parquet layout; reading back is
    ``sources.read_pages_jsonl`` or any JSON reader."""
    path = os.path.join(out_dir, "training_jsonl")

    def ok_rows(t: pa.Table) -> pa.Table:
        ok = t.filter(pc.equal(t["status"], "OK"))
        return pa.table(
            {
                "url": ok["url"],
                "text": ok["extracted_text"],
                "score": ok["score"],
                "n_units": pc.cast(ok["n_units"], pa.int64()),
            }
        )

    results_dataset(final_ds).map_batches(
        ok_rows, batch_format="pyarrow"
    ).write_json(path)
    return path


# ---------------------------------------------------------------------------
# Generic resumable partitioned sink for ANY query result
# ---------------------------------------------------------------------------

def write_query_partitioned(
    ds,
    out_dir: str,
    key_col: str,
    n_partitions: int = 32,
    overwrite: bool = False,
) -> Dict[str, int]:
    """Resumable hive-partitioned sink for an arbitrary query result:
    rows land in part_id = hash(key) % N directories, each committed
    ATOMICALLY with a `_SUCCESS.<part>` marker carrying row count and
    write time, and a rerun SKIPS committed partitions — the
    extraction layout's lineage discipline (resume.py) generalized to
    every operator's output.  The key hash is the shuffle layer's
    vectorized `_key_u64` (no per-row Python); partitions write
    independently so a killed run loses at most the uncommitted
    partitions.  Returns {written, skipped}.

    Scale note: one partition = one write task writing one directory;
    at 100 TB pick n_partitions ~ input shards so the sink never
    funnels through few writers."""
    import json
    import time

    import pyarrow.compute as pc

    from document_extractor_ray.functions.bucketing import key_part_column

    os.makedirs(out_dir, exist_ok=True)
    done = set()
    if not overwrite:
        for name in os.listdir(out_dir):
            if name.startswith("_SUCCESS."):
                done.add(int(name.split(".", 1)[1]))
    # a crashed run can leave files in an UNCOMMITTED partition dir;
    # drop those dirs so the rewrite cannot double-count rows
    import shutil

    for name in list(os.listdir(out_dir)):
        if name.startswith("part_id="):
            pid = int(name.split("=", 1)[1])
            if pid not in done or overwrite:
                shutil.rmtree(os.path.join(out_dir, name))
    if overwrite:
        for name in list(os.listdir(out_dir)):
            if name.startswith("_SUCCESS."):
                os.remove(os.path.join(out_dir, name))
        done = set()
    if len(done) == n_partitions:
        # everything committed: skip without touching the input at all
        # (measured: the filter-everything path still paid a full scan)
        return {"written": 0, "skipped": n_partitions}

    def add_part(t: pa.Table) -> pa.Table:
        return t.append_column(
            "part_id", pc.cast(key_part_column(t, [key_col], n_partitions), pa.int64())
        )

    parted = ds.map_batches(add_part, batch_format="pyarrow")
    if done:
        todo_mask = pa.array(sorted(set(range(n_partitions)) - done), pa.int64())
        parted = parted.map_batches(
            lambda t: t.filter(pc.is_in(t["part_id"], value_set=todo_mask)),
            batch_format="pyarrow",
        )
    parted = parted.materialize()
    written = 0
    counts: Dict[int, int] = {}

    if parted.count() > 0:
        parted.write_parquet(out_dir, partition_cols=["part_id"])
    # commit markers: per-partition row counts read back from the
    # written layout (cheap metadata scan), then atomic marker files
    import pyarrow.parquet as pq

    for pid in range(n_partitions):
        if pid in done:
            continue
        # hash-empty partitions commit too (rows=0): "no rows" is a
        # result, and the marker is what lets the rerun skip the scan
        n = 0
        pdir = os.path.join(out_dir, f"part_id={pid}")
        if os.path.isdir(pdir):
            for f in os.listdir(pdir):
                if f.endswith(".parquet"):
                    n += pq.read_metadata(os.path.join(pdir, f)).num_rows
        marker = os.path.join(out_dir, f"_SUCCESS.{pid}")
        tmp = marker + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"part_id": pid, "rows": n, "ts": time.time()}, fh)
        os.replace(tmp, marker)
        counts[pid] = n
        written += 1
    return {"written": written, "skipped": len(done)}
