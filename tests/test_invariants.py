"""Property/invariant tests (SURVEY.md §5.3): conservation law, schema
exactness, reliability bounds, per-page mode implications, combined
chunk budget, span correctness."""

import pyarrow as pa
import pyarrow.compute as pc

from document_extractor_ray.config import DEFAULT_CONFIG
from document_extractor_ray.core import records
from document_extractor_ray.core.chunking import DOCUMENT_BREAK


def test_conservation_every_url_exactly_once(small_corpus):
    """Every deduped input url appears exactly once in the final table
    (results ∪ quarantine-only ∪ noise), mirroring delete-on-success
    accounting (process_run.py:192-203)."""
    from document_extractor_ray.oracle import dedup_first_indices

    pages = small_corpus["pages"]
    urls = pages["url"].to_pylist()
    ts = [t.value for t in pages["warc_ts"]]
    keep = dedup_first_indices(urls, ts)
    input_urls = {urls[i] for i in keep}

    final = small_corpus["oracle"]["final"]
    final_urls = final["url"].to_pylist()
    assert len(final_urls) == len(set(final_urls)), "duplicate output urls"
    top_level = {u for u in final_urls if "::" not in u}
    assert top_level == input_urls


def test_result_statuses_partition(small_corpus):
    final = small_corpus["oracle"]["final"]
    for row in final.to_pylist():
        s = row["status"]
        if s == "NOISE":
            assert not row["quarantine"]
            assert row["extracted_text"] == ""
        elif s == "MANDATORY_REVIEW":
            assert row["quarantine"] and row["reason"] == "unsupported"
        elif s == "ERROR":
            # pdf-cascade ERRORs quarantine; txt-route ERRORs don't
            if row["doc_kind"] == "html":
                assert row["quarantine"] and row["reason"] == "pass rc=1"
            elif row["doc_kind"] == "txt":
                assert not row["quarantine"]
        elif s == "OK":
            assert not row["quarantine"]


def test_score_bounds_and_ocr_flag(small_corpus):
    final = small_corpus["oracle"]["final"]
    for row in final.to_pylist():
        assert 0.0 <= row["score"] <= 1.0
        if row["pass_used"] in ("html_ocr_a", "html_ocr_b", "img_ocr"):
            assert row["used_ocr"]
        if row["pass_used"] in ("html_text", "txt", "portfolio"):
            assert not row["used_ocr"]


def test_per_page_mode_implications(small_corpus):
    """per-page mode <=> (big doc) OR (fallback used) — G2/G3."""
    cfg = small_corpus["cfg"]
    final = small_corpus["oracle"]["final"]
    for row in final.to_pylist():
        if row["doc_kind"] != "html":
            continue
        big = (
            row["size_bytes"] >= cfg.big_size_bytes
            or row["n_units"] >= cfg.big_page_limit
        )
        if row["mode"] == "per-page":
            assert big or row["used_ocr"] or row["status"] in (
                "ERROR",
                "LOW_DISK",
                "TIMEOUT",
            ), row["url"]
        else:
            assert row["pass_used"] == "html_text" and not big


def test_spans_exact(small_corpus):
    final = small_corpus["oracle"]["final"]
    for row in final.to_pylist():
        text = row["extracted_text"]
        for span, page_text in zip(row["spans"], row["pages_text"]):
            assert text[span["start"] : span["end"]] == page_text


def test_schemas_exact(small_corpus):
    o = small_corpus["oracle"]
    assert o["final"].schema.equals(records.FINAL_SCHEMA)
    assert o["results"].schema.equals(records.RESULTS_SCHEMA)
    assert o["quarantine"].schema.equals(records.QUARANTINE_SCHEMA)
    assert o["units"].schema.equals(records.UNIT_ROWS_SCHEMA)
    assert o["manifest"].schema.equals(records.MANIFEST_SCHEMA)


def test_unit_rows_formatting(small_corpus):
    units = small_corpus["oracle"]["units"].to_pylist()
    assert units, "no unit rows generated"
    for row in units:
        assert row["used_ocr"] == "true"
        # '%.2f' formatting (common.py:177-179)
        assert row["reliability"] == f"{float(row['reliability']):.2f}"
        assert row["page"] == "-" or row["page"].isdigit()


def test_combined_chunks_budget(tmp_path, small_corpus):
    from document_extractor_ray.pipelines.outputs import write_combined_text

    cfg = DEFAULT_CONFIG.with_(max_combined_bytes=20_000)
    final = small_corpus["oracle"]["final"]
    files = write_combined_text(final, str(tmp_path), cfg)
    assert len(files) > 1
    brk = DOCUMENT_BREAK.encode()
    sizes = []
    for f in files:
        data = open(f, "rb").read()
        # every doc block present exactly once, ends with break marker
        assert data.endswith(brk)
        sizes.append(len(data))
    # no chunk exceeds budget by more than one doc + markers (a doc is
    # never split; only an oversized single doc may overflow)
    blocks = [t for t in final["extracted_text"].to_pylist() if t]
    max_doc = max(len(t.encode()) for t in blocks)
    for s in sizes:
        assert s <= 20_000 + max_doc + len(brk)
    # concatenation preserves every document in url order
    all_data = b"".join(open(f, "rb").read() for f in files)
    assert all_data.count(brk) == len(blocks)


def test_manifest_links_children(small_corpus):
    o = small_corpus["oracle"]
    manifest = o["manifest"].to_pylist()
    assert manifest
    final_urls = set(o["final"]["url"].to_pylist())
    for m in manifest:
        assert m["child_url"] == f"{m['parent_url']}::{m['child_name']}"
        assert m["child_url"] in final_urls
        assert m["parent_url"] in final_urls


def test_dedup_join_path_matches_broadcast_path(ray_session):
    """A 50%-duplicated corpus through the partitioned-join dedup path
    (broadcast budget forced to 0) must keep exactly the same winner
    rows as the broadcast path (VERDICT r1 #6: budget guard)."""
    import ray.data

    from document_extractor_ray import fixtures
    from document_extractor_ray.pipelines.extract import dedup_first

    base = fixtures.make_pages_table(200, seed=7)
    # duplicate every row with a later warc_ts: the later copy must lose
    later = base.set_column(
        base.schema.get_field_index("warc_ts"),
        "warc_ts",
        pc.add(base["warc_ts"], pa.scalar(1_000_000, pa.duration("us"))),
    )
    corpus = pa.concat_tables([base, later])

    def urls_ts(ds):
        out = ds.select_columns(["url", "warc_ts"]).take_all()
        return sorted((r["url"], r["warc_ts"]) for r in out)

    broadcast = urls_ts(dedup_first(ray.data.from_arrow(corpus)))
    joined = urls_ts(dedup_first(ray.data.from_arrow(corpus), broadcast_limit=0))
    assert broadcast == joined
    # every url survives exactly once, with its EARLIEST timestamp
    # (the fixture corpus itself plants an edge_dup url, so compute the
    # winner set from the corpus, not from `base`)
    df = corpus.select(["url", "warc_ts"]).to_pandas()
    want = sorted(df.groupby("url")["warc_ts"].min().items())
    assert broadcast == want


def test_dedup_join_path_breaks_same_ts_ties_like_oracle(ray_session):
    """Same-timestamp captures of one url with DIFFERENT content must
    resolve to the minimal capture_hash on BOTH budget paths — the
    round-2 VERDICT divergence (join path kept the ts-only rule and
    let both tie copies survive) is closed."""
    import ray.data

    from document_extractor_ray import fixtures, oracle
    from document_extractor_ray.pipelines.extract import dedup_first

    base = fixtures.make_pages_table(120, seed=3)
    # same url, same warc_ts, different payload: a forced content tie
    twin = base.slice(0, 30).set_column(
        base.schema.get_field_index("html"),
        "html",
        pa.array(
            [
                (h or b"") + b"<p>tie twin</p>"
                for h in base.slice(0, 30)["html"].to_pylist()
            ],
            pa.binary(),
        ),
    )
    corpus = pa.concat_tables([base, twin])

    keep = oracle.dedup_first_indices(
        corpus["url"].to_pylist(),
        [t.value for t in corpus["warc_ts"]],
        corpus["html"].to_pylist(),
        corpus["text"].to_pylist(),
    )
    want = sorted(
        (r["url"], r["warc_ts"], r["html"])
        for r in corpus.take(pa.array(keep)).to_pylist()
    )

    def rows(ds):
        return sorted(
            (r["url"], r["warc_ts"], r["html"])
            for r in ds.select_columns(["url", "warc_ts", "html"]).take_all()
        )

    got_b = rows(dedup_first(ray.data.from_arrow(corpus)))
    got_j = rows(dedup_first(ray.data.from_arrow(corpus), broadcast_limit=0))
    assert got_b == want
    assert got_j == want
    # and the above-budget-TIE regime (second partitioned join) too
    got_j0 = rows(
        dedup_first(ray.data.from_arrow(corpus), broadcast_limit=-1)
    )
    assert got_j0 == want


def test_fragment_plan_matches_dataset_plan_and_oracle(ray_session, tmp_path):
    """run_extraction(path) reads row groups inside the extraction
    tasks; run_extraction(pa.Table) runs extract_pages over the
    Dataset's blocks.  Both must be row-identical to the sequential
    oracle, including the dedup winner filter and deterministic
    ordering."""
    import pyarrow.parquet as pq

    from document_extractor_ray import fixtures, oracle
    from document_extractor_ray.config import DEFAULT_CONFIG
    from document_extractor_ray.pipelines.extract import run_extraction

    base = fixtures.make_pages_table(250, seed=13)
    # plant extra duplicated urls with later timestamps (losers)
    later = base.slice(0, 40).set_column(
        base.schema.get_field_index("warc_ts"),
        "warc_ts",
        pc.add(base.slice(0, 40)["warc_ts"], pa.scalar(5_000_000, pa.duration("us"))),
    )
    corpus = pa.concat_tables([base, later])
    path = str(tmp_path / "pages.parquet")
    pq.write_table(corpus, path, row_group_size=64)

    cfg = DEFAULT_CONFIG  # dedup=True, deterministic_order=True
    from_path = run_extraction(path, cfg).take_all()
    from_table = run_extraction(corpus, cfg).take_all()
    want = oracle.run_oracle(corpus, cfg)["final"].to_pylist()

    assert len(from_path) == len(from_table) == len(want)
    key = lambda r: (r["url"], r.get("page", 0))
    for f, t, w in zip(
        sorted(from_path, key=key), sorted(from_table, key=key), sorted(want, key=key)
    ):
        assert f == t == w


def test_above_budget_dedup_scans_once(ray_session, tmp_path, monkeypatch):
    """A parquet input above the dedup broadcast budget switches to the
    Dataset plan; dedup_first reuses run_extraction's winner scan
    instead of running it again, and the join path still matches the
    oracle."""
    import pyarrow.parquet as pq

    from document_extractor_ray import fixtures, oracle
    from document_extractor_ray.pipelines import extract

    base = fixtures.make_pages_table(200, seed=17)
    later = base.slice(0, 30).set_column(
        base.schema.get_field_index("warc_ts"),
        "warc_ts",
        pc.add(base.slice(0, 30)["warc_ts"], pa.scalar(5_000_000, pa.duration("us"))),
    )
    corpus = pa.concat_tables([base, later])
    path = str(tmp_path / "pages.parquet")
    pq.write_table(corpus, path, row_group_size=64)

    calls = []
    scan = extract._dup_winners

    def counted(slim_ds):
        calls.append(1)
        return scan(slim_ds)

    monkeypatch.setattr(extract, "DEDUP_BROADCAST_LIMIT", 0)
    monkeypatch.setattr(extract, "_dup_winners", counted)
    got = extract.run_extraction(path, DEFAULT_CONFIG).take_all()
    want = oracle.run_oracle(corpus, DEFAULT_CONFIG)["final"].to_pylist()
    assert len(calls) == 1
    assert got == want


def test_fused_plan_quarantines_corrupt_fragment(ray_session, tmp_path):
    """A corrupt row group mid-file must not kill the run: the fused
    plan emits one quarantined row identifying the fragment and keeps
    extracting the healthy fragments."""
    import pyarrow.parquet as pq

    from document_extractor_ray import fixtures
    from document_extractor_ray.config import DEFAULT_CONFIG
    from document_extractor_ray.pipelines.extract import run_extraction

    pages = fixtures.make_pages_table(300, seed=3)
    path = str(tmp_path / "pages.parquet")
    pq.write_table(pages, path, row_group_size=64)

    # Corrupt bytes in the middle of the file (data pages), keeping
    # the footer/metadata intact so planning succeeds.
    size = (tmp_path / "pages.parquet").stat().st_size
    with open(path, "r+b") as f:
        f.seek(size // 2)
        f.write(b"\xde\xad\xbe\xef" * 256)

    out = run_extraction(path, DEFAULT_CONFIG).take_all()
    frag_errors = [r for r in out if r["url"].startswith("fragment://")]
    healthy = [r for r in out if not r["url"].startswith("fragment://")]
    assert frag_errors, "corruption not detected"
    for r in frag_errors:
        assert r["status"] == "ERROR" and r["quarantine"]
        assert r["reason"] == "fragment unreadable"
    # the healthy fragments still extracted
    assert len(healthy) > 100


def test_jsonl_source_matches_parquet_source(ray_session, tmp_path):
    """The JSONL pages source must drive the extraction pipeline to
    output row-identical to the parquet source on the same corpus, and
    the JSONL training export must round-trip through an independent
    JSON reader (duckdb) value-exact."""
    import duckdb
    import pyarrow.parquet as pq

    from document_extractor_ray import fixtures
    from document_extractor_ray.pipelines import outputs
    from document_extractor_ray.pipelines.extract import run_extraction
    from document_extractor_ray.sources import read_pages_jsonl

    pages = fixtures.make_pages_table(150, seed=7)

    # JSONL can only carry valid UTF-8: restrict BOTH paths to the
    # JSON-representable rows (the noise classes plant lone-surrogate
    # strings on purpose; a real crawl JSONL is valid UTF-8 by
    # construction)
    def representable(row) -> bool:
        for v in row.values():
            try:
                if isinstance(v, str):
                    v.encode("utf-8")
                elif isinstance(v, bytes):
                    v.decode("utf-8")  # html ships as text in JSONL
            except (UnicodeEncodeError, UnicodeDecodeError):
                return False
        return True

    rows = [r for r in pages.to_pylist() if representable(r)]
    assert len(rows) > 100  # most of the corpus stays in play
    pages = pa.Table.from_pylist(rows, schema=pages.schema)
    pq_path = str(tmp_path / "pages.parquet")
    jl_path = str(tmp_path / "pages.jsonl")
    pq.write_table(pages, pq_path)
    import json

    with open(jl_path, "w", encoding="utf-8") as fh:
        for r in rows:
            r = dict(r)
            ts = r.get("warc_ts")
            if ts is not None and not isinstance(ts, (int, float)):
                # epoch microseconds, the integer JSONL convention
                r["warc_ts"] = int(ts.timestamp() * 1_000_000)
            if isinstance(r.get("html"), bytes):
                r["html"] = r["html"].decode("utf-8")
            fh.write(json.dumps(r, ensure_ascii=False) + "\n")

    def canon(rows):
        return sorted(
            ({k: r[k] for k in sorted(r)} for r in rows),
            key=lambda r: str(r["url"]),
        )

    a = run_extraction(pq_path, DEFAULT_CONFIG)
    b = run_extraction(read_pages_jsonl(jl_path), DEFAULT_CONFIG)
    rows_a = canon(a.take_all())
    assert rows_a == canon(b.take_all())

    # sink: export OK results as JSONL shards, read back independently
    out = outputs.write_training_jsonl(a, str(tmp_path / "out"))
    n_ok = sum(1 for r in rows_a if r.get("status") == "OK")
    got = duckdb.sql(
        f"SELECT count(*), count(DISTINCT url) FROM read_json_auto('{out}/*.json')"
    ).fetchone()
    assert got[0] == n_ok and got[1] == n_ok
    one = duckdb.sql(
        f"SELECT url, text FROM read_json_auto('{out}/*.json') ORDER BY url LIMIT 1"
    ).fetchone()
    want = next(r for r in rows_a if r.get("status") == "OK" and str(r["url"]) == one[0])
    assert one[1] == want["extracted_text"]


def test_dedup_first_tolerates_null_urls(ray_session):
    """A null url (e.g. a JSONL shard missing the field) must not kill
    the dedup count pass; null urls group as one ordinary key."""
    import datetime

    import ray.data

    from document_extractor_ray.pipelines.extract import _dup_winners

    ts = datetime.datetime(2024, 1, 1)
    t = pa.table(
        {
            "url": pa.array(["a", None, None, "a"], pa.string()),
            "warc_ts": pa.array([ts, ts, ts, ts], pa.timestamp("us")),
        }
    )
    n, dups = _dup_winners(ray.data.from_arrow(t))
    assert n == 2  # "a" and the null group are both duplicated


def test_combined_chunks_resume_across_runs(tmp_path):
    """Rerun continuation (output_writer.py:86-100): two sequential
    write_combined_text runs into one dir must produce the same chunk
    files, byte for byte, as one combined run."""
    from document_extractor_ray.config import DEFAULT_CONFIG
    from document_extractor_ray.pipelines.outputs import write_combined_text

    cfg = DEFAULT_CONFIG.with_(max_combined_bytes=300)
    texts = [f"doc {i} " + "x" * (40 + 7 * i) for i in range(12)]
    t = pa.table({"extracted_text": pa.array(texts, pa.string())})

    one = tmp_path / "one"
    write_combined_text(t, str(one), cfg)

    two = tmp_path / "two"
    write_combined_text(t.slice(0, 5), str(two), cfg)
    write_combined_text(t.slice(5), str(two), cfg)

    fa = sorted(p.name for p in one.iterdir())
    fb = sorted(p.name for p in two.iterdir())
    assert fa == fb and len(fa) > 1
    for n in fa:
        assert (one / n).read_bytes() == (two / n).read_bytes()


def test_csv_source_row_identity(ray_session, tmp_path):
    """The CSV pages source (JSONL conventions: epoch-us warc_ts, html
    as UTF-8 text) must drive the pipeline to output row-identical to
    the parquet source on the same UTF-8-representable corpus."""
    import csv

    import pyarrow.parquet as pq

    from document_extractor_ray import fixtures
    from document_extractor_ray.pipelines.extract import run_extraction
    from document_extractor_ray.sources import read_pages_csv

    pages = fixtures.make_pages_table(150, seed=7)

    def representable(row) -> bool:
        for v in row.values():
            try:
                if isinstance(v, str):
                    v.encode("utf-8")
                elif isinstance(v, bytes):
                    v.decode("utf-8")
            except (UnicodeEncodeError, UnicodeDecodeError):
                return False
        return True

    rows = [r for r in pages.to_pylist() if representable(r)]
    assert len(rows) > 100
    pages = pa.Table.from_pylist(rows, schema=pages.schema)
    pq_path = str(tmp_path / "pages.parquet")
    csv_path = str(tmp_path / "pages.csv")
    pq.write_table(pages, pq_path)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_ALL)
        w.writerow(["url", "warc_ts", "html", "text", "lang"])
        for r in rows:
            ts = r["warc_ts"]
            w.writerow(
                [
                    r["url"],
                    int(ts.timestamp() * 1_000_000),
                    r["html"].decode("utf-8") if isinstance(r["html"], bytes) else r["html"],
                    r["text"],
                    r.get("lang", ""),
                ]
            )

    def canon(rows):
        return sorted(
            ({k: r[k] for k in sorted(r)} for r in rows),
            key=lambda r: str(r["url"]),
        )

    a = run_extraction(pq_path, DEFAULT_CONFIG)
    b = run_extraction(read_pages_csv(csv_path), DEFAULT_CONFIG)
    assert canon(a.take_all()) == canon(b.take_all())


def test_ipc_source_row_identity(ray_session, tmp_path):
    """The Arrow-IPC pages source must drive the pipeline to output
    row-identical to the parquet source on the same corpus."""
    import pyarrow.ipc as ipc
    import pyarrow.parquet as pq

    from document_extractor_ray import fixtures
    from document_extractor_ray.pipelines.extract import run_extraction
    from document_extractor_ray.sources import read_pages_ipc

    pages = fixtures.make_pages_table(150, seed=11)
    pq_path = str(tmp_path / "pages.parquet")
    ipc_path = str(tmp_path / "pages.arrow")
    pq.write_table(pages, pq_path)
    with ipc.new_file(ipc_path, pages.schema) as w:
        w.write_table(pages)

    def canon(rows):
        return sorted(
            ({k: r[k] for k in sorted(r)} for r in rows),
            key=lambda r: str(r["url"]),
        )

    a = run_extraction(pq_path, DEFAULT_CONFIG)
    b = run_extraction(read_pages_ipc(ipc_path), DEFAULT_CONFIG)
    assert canon(a.take_all()) == canon(b.take_all())


def test_fragment_plan_rejects_coarse_row_groups(ray_session, tmp_path, monkeypatch):
    """A big file with huge row groups must run on the Dataset plan
    (the fragment plan's parallelism is bounded by fragment count — a
    16-group 2M-page file capped the pipeline at 16 tasks); tiny inputs
    stay on fragments regardless of grouping."""
    import pyarrow.parquet as pq

    from document_extractor_ray import fixtures
    from document_extractor_ray.pipelines import extract
    from document_extractor_ray.pipelines.extract import (
        FUSED_ROWS_PER_TASK,
        _needs_dataset_plan,
        page_fragments,
        run_extraction,
    )

    pages = fixtures.make_pages_table(300, seed=5)
    coarse = str(tmp_path / "coarse.parquet")
    # one giant row group; fake its scale by row count > FUSED_ROWS_PER_TASK
    big = pa.concat_tables([pages] * (FUSED_ROWS_PER_TASK // 300 + 2))
    pq.write_table(big, coarse, row_group_size=big.num_rows)
    assert _needs_dataset_plan(*page_fragments(coarse))

    fine = str(tmp_path / "fine.parquet")
    pq.write_table(pages, fine, row_group_size=64)  # tiny input: fragments
    assert not _needs_dataset_plan(*page_fragments(fine))

    # and the Dataset plan still produces identical rows
    def canon(rows):
        return sorted(
            ({k: r[k] for k in sorted(r)} for r in rows),
            key=lambda r: str(r["url"]),
        )

    b = run_extraction(fine, DEFAULT_CONFIG).take_all()
    # a one-group file counts as coarse once the per-task row budget
    # is below its size (the check runs on the driver)
    monkeypatch.setattr(extract, "FUSED_ROWS_PER_TASK", 100)
    coarse_small = str(tmp_path / "coarse_small.parquet")
    pq.write_table(pages, coarse_small, row_group_size=pages.num_rows)
    assert _needs_dataset_plan(*page_fragments(coarse_small))
    a = run_extraction(coarse_small, DEFAULT_CONFIG).take_all()
    assert canon(a) == canon(b)


def test_status_counts_match_histogram(small_corpus, tmp_path):
    """status_counts (A6 run counters) reads the status column of the
    written parquet files — counts must equal a direct status
    histogram, keyed in status order."""
    import collections

    import pyarrow.parquet as pq

    from document_extractor_ray.pipelines.outputs import status_counts

    final = small_corpus["oracle"]["final"]
    pq.write_to_dataset(final, str(tmp_path / "final"), partition_cols=["partition_id"])
    got = status_counts(str(tmp_path / "final"))
    assert got == dict(collections.Counter(final["status"].to_pylist()))
    assert list(got) == sorted(got)
    assert status_counts(str(tmp_path / "missing")) == {}
