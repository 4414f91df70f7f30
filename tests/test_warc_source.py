"""WARC source tests: parse/serialize round-trip and pipeline parity
with the parquet source (the Common-Crawl-native input path)."""

from __future__ import annotations

import io

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from document_extractor_ray.config import DEFAULT_CONFIG


def _null_text(pages: pa.Table) -> pa.Table:
    """Parquet twin of a raw crawl: WARC carries no pre-extracted text
    column, so the parity corpus nulls it on both paths."""
    cols = {c: pages[c] for c in pages.schema.names}
    cols["text"] = pa.nulls(pages.num_rows, pa.string())
    return pa.table(cols)


def test_warc_roundtrip_preserves_rows(tmp_path):
    from document_extractor_ray import fixtures
    from document_extractor_ray.sources import warc

    pages = fixtures.make_pages_table(80, seed=5)
    path = str(tmp_path / "fx.warc")
    n = warc.write_warc_fixture(pages, path)
    assert n == pages.num_rows
    got = list(warc.parse_warc_file(path))
    assert len(got) == pages.num_rows
    want_urls = pages["url"].to_pylist()
    want_html = [h or b"" for h in pages["html"].to_pylist()]
    assert [u for u, _, _ in got] == want_urls
    assert [h for _, _, h in got] == want_html
    # timestamps survive at second resolution (WARC-Date granularity;
    # the fixture corpus uses whole seconds so this is lossless)
    want_ts = [
        int(t.timestamp() * 1_000_000) if hasattr(t, "timestamp") else int(t)
        for t in pages["warc_ts"].to_pylist()
    ]
    assert [t for _, t, _ in got] == want_ts


def test_warc_gz_roundtrip(tmp_path):
    from document_extractor_ray import fixtures
    from document_extractor_ray.sources import warc

    pages = fixtures.make_pages_table(25, seed=6)
    path = str(tmp_path / "fx.warc.gz")
    warc.write_warc_fixture(pages, path)
    got = list(warc.parse_warc_file(path))
    assert len(got) == pages.num_rows


def test_warc_truncated_fails_loudly():
    from document_extractor_ray.sources import warc

    blob = (
        b"WARC/1.0\r\nWARC-Type: response\r\n"
        b"WARC-Target-URI: http://x/\r\nContent-Length: 100\r\n\r\nshort"
    )
    with pytest.raises(ValueError, match="truncated"):
        list(warc.iter_warc_records(io.BytesIO(blob)))


def test_warc_read_streams_bounded_blocks(tmp_path, monkeypatch):
    """One WARC file yields a table per WARC_BLOCK_BYTES of payload, and
    the blocks together hold exactly the whole-file rows."""
    from document_extractor_ray import fixtures
    from document_extractor_ray.sources import warc

    pages = fixtures.make_pages_table(80, seed=5)
    path = str(tmp_path / "fx.warc.gz")
    warc.write_warc_fixture(pages, path)
    whole = list(warc.warc_page_tables(path))
    assert len(whole) == 1

    budget = 4096
    monkeypatch.setattr(warc, "WARC_BLOCK_BYTES", budget)
    blocks = list(warc.warc_page_tables(path))
    assert len(blocks) > 1
    assert pa.concat_tables(blocks).equals(whole[0])
    biggest = max(len(h) for h in whole[0]["html"].to_pylist())
    for b in blocks:
        assert sum(len(h) for h in b["html"].to_pylist()) < budget + biggest


def test_warc_pipeline_parity_with_parquet(ray_session, tmp_path):
    """Extraction over read_pages_warc must be row-identical to the
    parquet source and to the sequential oracle over the same corpus
    (with text nulled on both — a raw crawl has no text column).  The
    corpus carries day-later re-crawls and same-timestamp tie captures,
    so the WARC Dataset runs dedup_first's tie pass."""
    from document_extractor_ray import fixtures, oracle
    from document_extractor_ray.pipelines.extract import run_extraction
    from document_extractor_ray.sources import warc

    base = _null_text(fixtures.make_pages_table(120, seed=9))
    html_rows = [
        i
        for i, h in enumerate(base["html"].to_pylist())
        if h and h.startswith(b"<!DOCTYPE")
    ]
    ts_i = base.schema.get_field_index("warc_ts")
    html_i = base.schema.get_field_index("html")
    # re-crawls a day later with other pages' html: dedup must drop them
    recrawl = base.take(html_rows[0:8])
    recrawl = recrawl.set_column(
        ts_i, "warc_ts",
        pc.add(recrawl["warc_ts"], pa.scalar(86_400_000_000, pa.duration("us"))),
    ).set_column(html_i, "html", base.take(html_rows[8:16])["html"])
    # same url, same timestamp, different html: the content hash decides
    ties = base.take(html_rows[16:20]).set_column(
        html_i, "html", base.take(html_rows[20:24])["html"]
    )
    pages = pa.concat_tables([base, recrawl, ties])
    pq_path = str(tmp_path / "pages.parquet")
    pq.write_table(pages, pq_path)
    w1 = str(tmp_path / "a.warc")
    w2 = str(tmp_path / "b.warc.gz")
    half = pages.num_rows // 2
    warc.write_warc_fixture(pages.slice(0, half), w1)
    warc.write_warc_fixture(pages.slice(half), w2)

    def canon(rows):
        return sorted(rows, key=lambda r: repr(sorted(r.items())))

    a = canon(run_extraction(pq_path, DEFAULT_CONFIG).take_all())
    b = canon(
        run_extraction(warc.read_pages_warc([w1, w2]), DEFAULT_CONFIG).take_all()
    )
    want = canon(oracle.run_oracle(pages, DEFAULT_CONFIG)["final"].to_pylist())
    assert a == b == want
    assert len(a) > 100
    # one capture per re-crawled or tied url survives
    for u in recrawl["url"].to_pylist() + ties["url"].to_pylist():
        assert sum(r["url"] == u for r in a) == 1
