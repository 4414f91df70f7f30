"""Input sources.

The engine reads Parquet pages tables (BASELINE.json input_hint shape:
url, warc_ts, html, text, lang); this package owns the readers, which
are column-pruned and block-count tuned.  ``read_pages`` is the
canonical source (the S3 mapping — the reference's directory walker,
process_run.py:150-156) and accepts a path or a list of shard paths
(the sharded resumable runner passes file lists, pipelines/resume.py).
"""

from __future__ import annotations

from typing import List, Union

import ray
import ray.data

# Columns the extraction pipeline consumes; `lang` is intentionally
# excluded (never read by any stage — prune at the read).
PAGE_COLUMNS = ["url", "warc_ts", "html", "text"]


def _to_page_columns(t: "pa.Table") -> "pa.Table":
    """Normalize an interchange-format pages table to PAGE_COLUMNS with
    the parquet source's dtypes: missing columns become typed nulls,
    warc_ts given as epoch microseconds becomes timestamp[us], html
    given as UTF-8 text becomes binary, and an all-empty url/text
    column (parsed as null-typed) gets its string type back.  All casts
    are vectorized Arrow kernels, no per-row Python."""
    import pyarrow as pa
    import pyarrow.compute as pc

    canonical = {
        "url": pa.string(),
        "warc_ts": pa.timestamp("us"),
        "html": pa.binary(),
        "text": pa.string(),
    }
    cols = {}
    for c, typ in canonical.items():
        col = t[c] if c in t.schema.names else pa.nulls(t.num_rows, typ)
        if pa.types.is_null(col.type):
            col = pa.nulls(t.num_rows, typ)
        elif c == "warc_ts" and pa.types.is_integer(col.type):
            col = pc.cast(col, typ)
        elif c == "html" and pa.types.is_string(col.type):
            col = pc.cast(col, typ)
        cols[c] = col
    return pa.table(cols)


def read_parquet_clean(
    path: Union[str, List[str]], columns=None, **kw
) -> "ray.data.Dataset":
    """ray.data.read_parquet with the file-level metadata stripped
    from the block schema.  Pandas-written parquet carries a
    ``pandas`` JSON blob in the schema metadata that makes pa.Schema
    unhashable in Ray 2.49's schema-dedup cache — every bundling step
    then logs 'Failed to hash the schemas (for deduplication)' and
    re-unifies schemas the slow way.  Passing the (projected,
    metadata-free) schema explicitly keeps blocks clean end to end."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    try:
        p = path[0] if isinstance(path, list) else path
        sch = pq.read_schema(p).remove_metadata()
        if columns is not None:
            sch = pa.schema([sch.field(c) for c in columns])
        return ray.data.read_parquet(path, columns=columns, schema=sch, **kw)
    except Exception:
        # directory inputs / odd layouts: fall back to the stock read
        return ray.data.read_parquet(path, columns=columns, **kw)


def read_pages(path: Union[str, List[str]]) -> "ray.data.Dataset":
    """Read a pages table, pruning to the columns the pipeline uses.

    Blocks ~ 2x cluster CPUs: enough slack for pipelining without the
    tiny-block task/shuffle overhead the default splitter produces."""
    n = 32
    if ray.is_initialized():
        n = max(8, 2 * int(ray.cluster_resources().get("CPU", 16)))
    return read_parquet_clean(
        path, columns=PAGE_COLUMNS, override_num_blocks=n
    )


def read_pages_jsonl(path: Union[str, List[str]]) -> "ray.data.Dataset":
    """Read a pages table from JSONL shards (one JSON object per line,
    the interchange format crawl dumps and training sets ship in) and
    normalize to the canonical PAGE_COLUMNS schema.  JSON has no
    column pushdown, so pruning happens in the first map_batches —
    still before anything wide ships across stages."""
    return ray.data.read_json(path).map_batches(
        _to_page_columns, batch_format="pyarrow"
    )


def read_pages_csv(path: Union[str, List[str]]) -> "ray.data.Dataset":
    """Read a pages table from CSV shards (the legacy interchange
    format; quoted fields may span lines — Arrow's parser handles
    embedded newlines) and normalize to the canonical PAGE_COLUMNS
    schema.  Conventions match the JSONL source: warc_ts as epoch
    microseconds, html as UTF-8 text (CSV cannot carry raw binary);
    both casts are vectorized Arrow kernels, no per-row Python.
    Parquet remains the production source — CSV has no projection or
    row-group pushdown, so the whole row always leaves storage."""
    from pyarrow import csv as pacsv

    # html payloads span lines; Arrow's default parser rejects quoted
    # newlines unless told otherwise
    ds = ray.data.read_csv(
        path, parse_options=pacsv.ParseOptions(newlines_in_values=True)
    )
    return ds.map_batches(_to_page_columns, batch_format="pyarrow")


def read_pages_ipc(path):
    """Read a pages table from Arrow IPC / Feather V2 files (the
    zero-parse interchange format for intra-pipeline handoffs — a
    stage that checkpoints blocks with `pa.ipc` reloads them here
    without the Parquet encode/decode cost) and normalize to the
    canonical PAGE_COLUMNS schema.  Same conventions as the JSONL/CSV
    sources: warc_ts accepted as epoch microseconds, html as UTF-8
    text when the writer could not carry binary; casts are Arrow
    kernels.  Parquet remains the production source — IPC has no
    row-group pruning or column projection pushdown at the reader."""
    import pyarrow as pa

    def decode(t: "pa.Table") -> "pa.Table":
        import pyarrow.ipc as ipc

        return pa.concat_tables(
            [
                _to_page_columns(ipc.open_file(pa.BufferReader(blob)).read_all())
                for blob in t["bytes"].to_pylist()  # one IPC file per row
            ]
            or [_to_page_columns(pa.table({}))]
        )

    return ray.data.read_binary_files(path).map_batches(
        decode, batch_format="pyarrow"
    )


def read_partitioned(out_dir: str) -> "ray.data.Dataset":
    """Read back a ``write_query_partitioned`` layout, honoring the
    commit markers: only partitions with a `_SUCCESS.<part>` marker
    are read (a torn partition from a crashed writer is invisible),
    and per-marker row counts are verified against parquet metadata so
    silent truncation cannot pass.  Each committed partition reads as
    its own fragment set — the resume contract end to end."""
    import json
    import os

    import pyarrow.parquet as pq

    import ray.data

    files = []
    expect = 0
    for name in sorted(os.listdir(out_dir)):
        if not name.startswith("_SUCCESS."):
            continue
        with open(os.path.join(out_dir, name)) as fh:
            meta = json.load(fh)
        expect += int(meta["rows"])
        pdir = os.path.join(out_dir, f"part_id={meta['part_id']}")
        got = 0
        if os.path.isdir(pdir):
            for f in sorted(os.listdir(pdir)):
                if f.endswith(".parquet"):
                    p = os.path.join(pdir, f)
                    got += pq.read_metadata(p).num_rows
                    files.append(p)
        if got != int(meta["rows"]):
            raise IOError(
                f"partition {meta['part_id']} is torn: marker says "
                f"{meta['rows']} rows, files hold {got}"
            )
    if not files:
        raise FileNotFoundError(f"no committed partitions under {out_dir}")
    return ray.data.read_parquet(files)


def read_pages_warc(paths):
    """Pages Dataset from Common-Crawl-style WARC file(s) — see
    sources/warc.py (file-per-task parallelism, gzip transparent)."""
    from document_extractor_ray.sources.warc import read_pages_warc as _f

    return _f(paths)


__all__ = [
    "read_pages",
    "read_pages_warc",
    "read_pages_ipc",
    "read_pages_csv",
    "read_pages_jsonl",
    "read_parquet_clean",
    "read_partitioned",
    "PAGE_COLUMNS",
]
