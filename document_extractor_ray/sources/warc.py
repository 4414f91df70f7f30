"""WARC source — read Common-Crawl-style web archives directly.

Common Crawl ships crawls as WARC files (ISO 28500): a sequence of
records, each a ``WARC/1.0`` header block (CRLF-terminated key: value
lines, blank-line terminated) followed by exactly ``Content-Length``
payload bytes and a CRLF CRLF separator.  ``response`` records carry
the HTTP response (status line + headers + body) for a
``WARC-Target-URI`` at ``WARC-Date``.

This module parses that format with no third-party dependency and
normalizes to the canonical PAGE_COLUMNS schema (url, warc_ts,
html:binary, text:null, lang absent) so the extraction pipeline runs
unchanged on raw archives:

    ds = read_pages_warc(["crawl/seg-0.warc", ...])
    final = run_extraction(ds, cfg)

Parallelism model (the Common-Crawl reality): WARC has no row-group
index — a FILE is the smallest parallel unit, and a crawl ships tens
of thousands of ~1 GB files, so one read task per file saturates any
cluster.  Inside a task the file streams: a table is emitted each time
the buffered payload reaches ``WARC_BLOCK_BYTES``, so a task's heap is
bounded by that budget, not by the file size.  gzip members (.warc.gz)
are handled transparently per file.

``write_warc_fixture`` serializes a pages table into a valid WARC so
tests can pin parquet-source/WARC-source pipeline equality without any
external data.
"""

from __future__ import annotations

import gzip
import io
from datetime import datetime, timezone
from typing import Iterator, List, Tuple, Union

import ray
import ray.data

_CRLF = b"\r\n"


def _parse_warc_ts(value: str) -> int:
    """WARC-Date (ISO 8601 Zulu) -> epoch microseconds."""
    v = value.strip()
    if v.endswith("Z"):
        v = v[:-1] + "+00:00"
    dt = datetime.fromisoformat(v)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp() * 1_000_000)


def iter_warc_records(stream) -> Iterator[Tuple[dict, bytes]]:
    """Yield (headers, payload) per WARC record from a binary stream.

    Tolerant of leading blank lines between records; raises on a
    malformed header block (a truncated archive should fail loudly,
    not silently drop the tail)."""
    while True:
        line = stream.readline()
        if not line:
            return
        if line in (_CRLF, b"\n"):
            continue
        if not line.startswith(b"WARC/"):
            raise ValueError(f"expected WARC version line, got {line[:40]!r}")
        headers: dict = {}
        while True:
            h = stream.readline()
            if not h or h in (_CRLF, b"\n"):
                break
            key, _, val = h.decode("utf-8", "replace").partition(":")
            headers[key.strip().lower()] = val.strip()
        length = int(headers.get("content-length", "0"))
        payload = stream.read(length)
        if len(payload) != length:
            raise ValueError("truncated WARC record payload")
        yield headers, payload


def _http_body(payload: bytes) -> bytes:
    """Strip the HTTP response envelope from a response-record payload
    (Common Crawl stores the full HTTP message)."""
    if payload[:5] in (b"HTTP/",):
        head, sep, body = payload.partition(b"\r\n\r\n")
        if sep:
            return body
    return payload


def parse_warc_file(path: str) -> Iterator[Tuple[str, int, bytes]]:
    """(url, warc_ts_us, html) for every response record in one file."""
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as f:
        for headers, payload in iter_warc_records(f):
            if headers.get("warc-type") != "response":
                continue
            url = headers.get("warc-target-uri")
            if not url:
                continue
            ts = _parse_warc_ts(headers.get("warc-date", "1970-01-01T00:00:00Z"))
            yield url, ts, _http_body(payload)


# Payload bytes a WARC read task buffers before it emits a table.
WARC_BLOCK_BYTES = 64 * 1024 * 1024


def warc_page_tables(path: str) -> Iterator["pa.Table"]:
    """PAGE_COLUMNS tables of one WARC file's response records, one per
    ``WARC_BLOCK_BYTES`` of buffered payload (text is null — a raw
    crawl has no pre-extracted text column)."""
    import pyarrow as pa

    def table(urls, tss, htmls):
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(tss, pa.timestamp("us")),
                "html": pa.array(htmls, pa.binary()),
                "text": pa.nulls(len(urls), pa.string()),
            }
        )

    urls, tss, htmls, buffered, emitted = [], [], [], 0, False
    for url, ts, html in parse_warc_file(path):
        urls.append(url)
        tss.append(ts)
        htmls.append(html)
        buffered += len(html)
        if buffered >= WARC_BLOCK_BYTES:
            yield table(urls, tss, htmls)
            urls, tss, htmls, buffered, emitted = [], [], [], 0, True
    if urls or not emitted:  # a file without responses still has a schema
        yield table(urls, tss, htmls)


def read_pages_warc(paths: Union[str, List[str]]) -> "ray.data.Dataset":
    """Pages Dataset from WARC file(s), PAGE_COLUMNS-normalized; one
    read task per file, streamed in bounded blocks."""
    if isinstance(paths, str):
        paths = [paths]

    def load(batch):
        for path in batch["path"]:
            yield from warc_page_tables(str(path))

    return ray.data.from_items([{"path": p} for p in paths]).map_batches(
        load, batch_format="numpy", batch_size=1
    )


def write_warc_fixture(pages, path: str) -> int:
    """Serialize a pages table into a valid WARC file (one response
    record per row; the fixture twin of read_pages_warc).  Returns the
    record count.  ``.gz`` paths are gzip-compressed whole-file."""
    rows = zip(
        pages["url"].to_pylist(),
        pages["warc_ts"].to_pylist(),
        pages["html"].to_pylist(),
    )
    buf = io.BytesIO()
    n = 0
    for url, ts, html in rows:
        html = html or b""
        if hasattr(ts, "timestamp"):
            ts_us = int(
                ts.replace(tzinfo=timezone.utc).timestamp() * 1_000_000
                if ts.tzinfo is None
                else ts.timestamp() * 1_000_000
            )
        else:
            ts_us = int(ts)
        iso = (
            datetime.fromtimestamp(ts_us / 1_000_000, tz=timezone.utc)
            .strftime("%Y-%m-%dT%H:%M:%SZ")
        )
        http = (
            b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
            + b"Content-Length: " + str(len(html)).encode() + b"\r\n\r\n"
            + html
        )
        head = (
            b"WARC/1.0\r\n"
            b"WARC-Type: response\r\n"
            + f"WARC-Target-URI: {url}\r\n".encode()
            + f"WARC-Date: {iso}\r\n".encode()
            + b"Content-Type: application/http; msgtype=response\r\n"
            + f"Content-Length: {len(http)}\r\n".encode()
            + b"\r\n"
        )
        buf.write(head)
        buf.write(http)
        buf.write(b"\r\n\r\n")
        n += 1
    data = buf.getvalue()
    if path.endswith(".gz"):
        with gzip.open(path, "wb") as f:
            f.write(data)
    else:
        with open(path, "wb") as f:
            f.write(data)
    return n
