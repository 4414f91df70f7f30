"""Tests for the reference-compatible on-disk run layout."""

import csv
import os

import pytest

from document_extractor_ray.config import DEFAULT_CONFIG
from document_extractor_ray.core.chunking import DOCUMENT_BREAK
from document_extractor_ray.pipelines.reference_layout import write_reference_layout


@pytest.fixture(scope="module")
def layout(small_corpus, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("ref_layout"))
    info = write_reference_layout(small_corpus["oracle"]["final"], out, DEFAULT_CONFIG)
    return out, info, small_corpus["oracle"]["final"]


def test_index_csv_matches_results(layout):
    out, info, final = layout
    with open(info["csv"], newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], rows[1:]
    assert header == [
        "original_file", "original_name", "relative_path", "txt_relative_path",
        "pages", "processed_at", "pass_used", "score", "status", "used_ocr",
        "run_id", "notes",
    ]
    from document_extractor_ray.core.records import project_results

    results = project_results(final)
    assert len(body) == results.num_rows
    by_url = {r[0]: r for r in body}
    for rec in results.to_pylist():
        row = by_url[rec["url"]]
        assert row[7] == f"{rec['score']:.2f}"
        assert row[9] == str(bool(rec["used_ocr"])).lower()
        assert row[8] == rec["status"]


def test_txt_files_byte_identical(layout):
    out, info, final = layout
    checked = 0
    for rec in final.to_pylist():
        if rec["extracted_text"] and rec["txt_relative_path"]:
            path = os.path.join(out, "txt", rec["txt_relative_path"])
            assert os.path.exists(path), path
            assert open(path, encoding="utf-8", newline="").read() == rec["extracted_text"]
            checked += 1
            if checked >= 25:
                break
    assert checked > 0


def test_combined_chunks_and_manifest(layout):
    out, info, final = layout
    assert info["combined_files"]
    data = open(info["combined_files"][0], encoding="utf-8").read()
    assert DOCUMENT_BREAK in data
    # review manifest covers every quarantined doc
    with open(info["review_manifest"], newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["filename", "reason"]
    n_quar = sum(1 for r in final.to_pylist() if r["quarantine"])
    assert len(rows) - 1 == n_quar
    # Mandatory Review marker dir exists
    assert os.path.isdir(os.path.join(out, "Mandatory Review"))


def test_noise_and_review_have_no_index_rows(layout):
    out, info, final = layout
    with open(info["csv"], newline="", encoding="utf-8") as f:
        urls = {r[0] for r in list(csv.reader(f))[1:]}
    for rec in final.to_pylist():
        if rec["status"] in ("NOISE", "MANDATORY_REVIEW", "LOW_DISK"):
            assert rec["url"] not in urls


def test_layout_matches_standalone_sinks(small_corpus, tmp_path):
    """The reference layout's chunk files and run CSV are byte-identical
    to write_combined_text + write_index_csv over the same final table
    (one chunker, one run-CSV formatter)."""
    from document_extractor_ray.pipelines.outputs import (
        write_combined_text,
        write_index_csv,
    )

    final = small_corpus["oracle"]["final"]
    cfg = DEFAULT_CONFIG.with_(max_combined_bytes=200_000)
    info = write_reference_layout(final, str(tmp_path / "layout"), cfg)
    sinks = tmp_path / "sinks"
    chunks = write_combined_text(final, str(sinks), cfg)
    write_index_csv(final, str(sinks / f"{cfg.run_id}.csv"), cfg)

    assert len(chunks) > 1
    assert [os.path.basename(p) for p in info["combined_files"]] == [
        os.path.basename(p) for p in chunks
    ]
    for a, b in zip(info["combined_files"], chunks):
        assert open(a, "rb").read() == open(b, "rb").read()
    assert open(info["csv"], "rb").read() == (sinks / f"{cfg.run_id}.csv").read_bytes()


def test_legacy_six_col_csv(tmp_path, small_corpus):
    from document_extractor_ray.pipelines.outputs import write_legacy_csv
    from document_extractor_ray.core.records import explode_unit_rows

    units = explode_unit_rows(small_corpus["oracle"]["final"])
    path = str(tmp_path / "legacy.csv")
    write_legacy_csv(units, path)
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["filename", "page", "text", "method", "used_ocr", "reliability"]
    assert len(rows) - 1 == units.num_rows
    # QUOTE_ALL: every field of the raw line is quoted
    raw = open(path, encoding="utf-8").read().splitlines()[1]
    assert raw.startswith('"')
    for r in rows[1:3]:
        assert r[4] == "true" and len(r) == 6


def test_legacy_csv_append_and_5col_autodetect(tmp_path, small_corpus):
    """S8 parity (common.py:136-190): append mode, header only when
    empty, 5-column header detection with the reference's warning —
    and rows still written with 6 normalized fields, exactly like the
    reference's row() implementation."""
    import logging

    from document_extractor_ray.core.records import explode_unit_rows
    from document_extractor_ray.pipelines.outputs import (
        LEGACY_CSV_HEADER,
        LegacyCsvWriter,
        write_legacy_csv,
    )

    units = explode_unit_rows(small_corpus["oracle"]["final"])

    # append: writing twice to the same file yields one header, 2N rows
    path = str(tmp_path / "append.csv")
    write_legacy_csv(units, path)
    write_legacy_csv(units, path)
    rows = list(csv.reader(open(path, newline="", encoding="utf-8")))
    assert rows[0] == LEGACY_CSV_HEADER
    assert sum(1 for r in rows if r == LEGACY_CSV_HEADER) == 1
    assert len(rows) - 1 == 2 * units.num_rows

    # 5-col legacy file: detected, warned, rows still 6 normalized cols
    legacy = tmp_path / "legacy5.csv"
    legacy.write_text('"filename","page","text","method","used_ocr"\n')
    log = logging.getLogger("legacy-test")
    records_ = []

    class Capture(logging.Handler):
        def emit(self, record):
            records_.append(record.getMessage())

    log.addHandler(Capture())
    w = LegacyCsvWriter(str(legacy), logger=log)
    assert w.cols == 5
    assert any("5-column" in m for m in records_)
    w.row("f.pdf", 1, "hello", None, False, None)
    w.close()
    rows = list(csv.reader(open(legacy, newline="", encoding="utf-8")))
    assert rows[-1] == ["f.pdf", "1", "hello", "unknown", "false", "0.00"]


def test_review_manifest_collision_disambiguated(tmp_path):
    """move_to_manual.sh:29-37 analogue: two DIFFERENT quarantined docs
    deriving the same relative_path stay distinguishable."""
    import pyarrow as pa

    from document_extractor_ray.config import DEFAULT_CONFIG
    from document_extractor_ray.core import records
    from document_extractor_ray.pipelines.reference_layout import write_reference_layout

    rows = []
    for i in range(3):
        # urls that collapse to the same relative path derivation
        rows.append(
            {
                "url": f"https://h{i}.example/same/name.bin",
                "status": "MANDATORY_REVIEW",
                "quarantine": True,
                "reason": "unsupported",
                "extracted_text": "",
                "txt_relative_path": "",
                "n_units": 0,
                "processed_at": "2025-01-01T00:00:00Z",
                "pass_used": "",
                "score": None,
                "used_ocr": False,
                "notes": "",
            }
        )
    cols = {k: [r[k] for r in rows] for k in rows[0]}
    table = pa.table(cols)
    info = write_reference_layout(table, str(tmp_path / "out"), DEFAULT_CONFIG)
    lines = open(info["review_manifest"], newline="", encoding="utf-8").read().splitlines()
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert len(names) == 3
    assert len(set(names)) == 3, names
