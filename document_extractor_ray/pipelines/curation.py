"""End-to-end training-data curation chain — the composition a user of
this engine actually runs over a crawl (VERDICT r4 item 5):

    extract -> quality gate (C4) -> PII scrub -> exact dedup
            -> MinHash near-dedup -> decontaminate -> pack_sequences

Every stage is proven alone elsewhere (pipelines/extract.py,
functions/textstats.py, functions/dedup.py, functions/training.py);
this module is the glue that makes the COMPOSITION scale:

- **Checkpoint between phases.** The cleaned/scrubbed doc table is
  written once as partitioned parquet and re-read by each downstream
  consumer (dup scan, near-dup scan, final assembly).  Without the
  checkpoint each consumer would re-execute extraction (Ray Datasets
  re-run their plan per consumption); with it, a killed run resumes
  from the checkpoint — the 100 TB lineage story, same design as
  pipelines/resume.py.
- **Broadcast the LOSERS, not the keepers.**  Exact and near dedup
  both drop a small fraction of a crawl, so the chain anti-filters on
  the loser-id set (exact_dup_losers / near_dup_losers), broadcast
  once via ray.put.  The keep-set — nearly the whole corpus — never
  moves.  Above ``loser_budget`` the chain falls back to a partitioned
  hash anti-join (the DEDUP_BROADCAST_LIMIT convention of
  pipelines/extract.py).
- **Decontamination is inline.**  The benchmark shingle set is tiny;
  it broadcasts and the contamination test runs inside the same final
  map_batches that applies the anti-filter — zero extra passes.

``sequential_curation`` is the independent single-process twin (same
per-doc kernels — shingles / MinHasher / content_hash_batch / the C4
constants — same decisions, no Ray), used by tools/make_goldens.py to
write the golden parquet that ``oracle_sql()['curation_chain']`` reads
back, so the driver hash-checks the whole composition end to end.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List, Optional

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from document_extractor_ray.config import DEFAULT_CONFIG, PipelineConfig
from document_extractor_ray.functions.textstats import (
    MAX_PUNCT_PERMILLE,
    MIN_ALNUM_PERMILLE,
    MIN_TOKENS,
    PII_EMAIL_RE,
    PII_IPV4_RE,
    PII_PHONE_RE,
    _PUNCT_RE,
    _TOKEN_RE,
)

# Bump whenever chain semantics change (work-dir checkpoints and the
# committed golden parquet key off it; regen via tools/make_goldens.py).
CURATION_CHAIN_VERSION = 1

# docs per packing range when ranges are derived from hashed doc ids
# (ids are uniform in [0, 2^63), so equal-width id ranges hold ~equal
# doc counts; 64 docs comfortably overfills a 512-token window)
DOCS_PER_RANGE = 64
NEAR_DUP_THRESHOLD = 0.7
N_BENCHMARK = 3
LOSER_BUDGET = 50_000_000  # ids; 50M * 8B = 400 MB broadcast ceiling


PLANT_EXACT_EVERY = 37
PLANT_NEAR_EVERY = 41


def plant_dup_pages(
    pages: pa.Table, start_index: int = 0, plants_only: bool = False
) -> pa.Table:
    """Append deterministic duplicate pages so the chain's dedup stages
    are provably non-vacuous (the plant_near_duplicates convention of
    functions/dedup.py, applied at the PAGES level so the dups flow
    through extraction first):

    - every ``PLANT_EXACT_EVERY``-th page gains an exact copy under
      ``url?copy`` (same html bytes -> same extracted text -> exact
      dup);
    - every ``PLANT_NEAR_EVERY``-th page with a ``</p>`` gains a copy
      under ``url?near`` whose first paragraph grows three extra words
      — a handful of changed shingles, MinHash-near at 0.7 but not
      byte-equal, so it survives exact dedup and must be caught by the
      LSH stage.

    ``start_index``/``plants_only`` make planting chunk-streamable for
    huge corpora: pass the chunk's global row offset and collect only
    the extra rows (the phase i % K is global-index-stable, so chunked
    planting is bit-identical to one-shot planting)."""
    urls = pages["url"].to_pylist()
    tss = pages["warc_ts"].to_pylist()
    htmls = pages["html"].to_pylist()
    texts = pages["text"].to_pylist()
    langs = pages["lang"].to_pylist()
    a_url, a_ts, a_html, a_text, a_lang = [], [], [], [], []
    for j in range(len(urls)):
        i = start_index + j
        h = htmls[j] or b""
        if i % PLANT_EXACT_EVERY == 0:
            a_url.append(urls[j] + "?copy")
            a_ts.append(tss[j])
            a_html.append(h)
            a_text.append(texts[j])
            a_lang.append(langs[j])
        if i % PLANT_NEAR_EVERY == 0 and b"</p>" in h:
            a_url.append(urls[j] + "?near")
            a_ts.append(tss[j])
            a_html.append(h.replace(b"</p>", b" qq zx nearprobe.</p>", 1))
            a_text.append(texts[j])
            a_lang.append(langs[j])
    if not a_url and plants_only:
        return pages.slice(0, 0)
    if not a_url:
        return pages
    extra = pa.table(
        {
            "url": pa.array(a_url, pa.string()),
            "warc_ts": pa.array(a_ts, pages["warc_ts"].type),
            "html": pa.array(a_html, pa.binary()),
            "text": pa.array(a_text, pa.string()),
            "lang": pa.array(a_lang, pa.string()),
        }
    )
    extra = extra.cast(pages.schema)
    if plants_only:
        return extra
    return pa.concat_tables([pages, extra])


def doc_id_of_url(url: str) -> int:
    """Stable int63 doc id: first 8 bytes of blake2b(url), top bit
    cleared.  Collision odds at 10^7 docs ~ 3e-6 (birthday, 2^63);
    at 10^12 docs switch to the full 16-byte digest as a binary key."""
    d = hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(d, "big") >> 1


def _clean_scrub_kernel(
    urls: List[str], texts: List[str]
) -> Dict[str, list]:
    """Shared per-batch kernel (Ray stage AND sequential twin run this
    exact function): C4 quality gate then PII scrub, returning only
    surviving rows.  Pure-python ids + Arrow regex kernels."""
    t = pa.table({"text": pa.array(texts, pa.string())})
    text = t["text"]
    n = pc.cast(pc.utf8_length(text), pa.int64())
    n_safe = pc.max_element_wise(n, 1)
    toks = pc.cast(pc.count_substring_regex(text, _TOKEN_RE), pa.int64())
    alnum = pc.cast(pc.count_substring_regex(text, r"[A-Za-z0-9]"), pa.int64())
    punct = pc.cast(pc.count_substring_regex(text, _PUNCT_RE), pa.int64())
    alnum_pm = pc.divide(pc.multiply(alnum, 1000), n_safe)
    punct_pm = pc.divide(pc.multiply(punct, 1000), n_safe)
    mask = pc.and_(
        pc.and_(
            pc.greater_equal(toks, MIN_TOKENS),
            pc.greater_equal(alnum_pm, MIN_ALNUM_PERMILLE),
        ),
        pc.less_equal(punct_pm, MAX_PUNCT_PERMILLE),
    ).to_numpy(zero_copy_only=False)
    kept_urls = [u for u, m in zip(urls, mask) if m]
    kept_text = pa.array([x for x, m in zip(texts, mask) if m], pa.string())
    out = pc.replace_substring_regex(kept_text, PII_EMAIL_RE, "<EMAIL>")
    out = pc.replace_substring_regex(out, PII_PHONE_RE, "<PHONE>")
    out = pc.replace_substring_regex(out, PII_IPV4_RE, "<IP>")
    return {
        "doc_id": [doc_id_of_url(u) for u in kept_urls],
        "url": kept_urls,
        "text": out.to_pylist(),
    }


def _content_text(pages_text_cell) -> str:
    """Curation text = page texts joined — NOT extracted_text, whose
    header embeds the url (core/blocks.py), which would make cross-url
    exact dedup structurally impossible."""
    return "\n\n".join(x or "" for x in (pages_text_cell or []))


def _clean_scrub(t: pa.Table) -> pa.Table:
    ok = t.filter(pc.equal(t["status"], "OK"))
    cols = _clean_scrub_kernel(
        ok["url"].to_pylist(),
        [_content_text(p) for p in ok["pages_text"].to_pylist()],
    )
    return pa.table(
        {
            "doc_id": pa.array(cols["doc_id"], pa.int64()),
            "url": pa.array(cols["url"], pa.string()),
            "text": pa.array(cols["text"], pa.string()),
        }
    )


def _loser_ids(losers: "ray.data.Dataset") -> np.ndarray:
    """The ``doc_id`` column of a loser Dataset as one int64 array
    (empty blocks of a shuffle output may carry no schema)."""
    batches = losers.iter_batches(batch_format="pyarrow")
    return np.concatenate(
        [np.empty(0, np.int64)]
        + [b["doc_id"].to_numpy() for b in batches if b.num_rows]
    )


def _range_size(n_docs: int, docs_per_range: int = DOCS_PER_RANGE) -> int:
    n_ranges = max(1, n_docs // docs_per_range)
    # one range (< 2 * docs_per_range docs) would be 2^63, past int64
    return max(1, min((1 << 63) // n_ranges, (1 << 63) - 1))


def run_curation(
    pages_source,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    work_dir: str = "/tmp/curation_chain",
    threshold: float = NEAR_DUP_THRESHOLD,
    n_benchmark: int = N_BENCHMARK,
    window: Optional[int] = None,
    docs_per_range: int = DOCS_PER_RANGE,
) -> dict:
    """Run the full curation chain; returns
    {packed: Dataset, metrics: dict}.  ``pages_source`` is anything
    run_extraction accepts (path(s) or a pages Table)."""
    from document_extractor_ray.functions.dedup import (
        exact_dup_losers,
        near_dup_losers,
        shingles,
        DECONTAM_SHINGLE_K,
    )
    from document_extractor_ray.functions.training import (
        PACK_WINDOW,
        pack_sequences,
    )
    from document_extractor_ray.pipelines import outputs
    from document_extractor_ray.pipelines.extract import run_extraction
    from document_extractor_ray.sources import read_parquet_clean
    from document_extractor_ray import state

    window = PACK_WINDOW if window is None else window
    metrics: dict = {}
    docs_dir = os.path.join(work_dir, "docs")

    # --- phase 1: extract + clean + scrub, checkpointed once -------------
    # deterministic_order would globally sort the WIDE final rows by
    # url — an all-to-all shuffle of the whole extracted corpus that
    # spilled ~200 GB at 10M docs.  The chain never needs it: every
    # stage keys on doc_id, loser sets are order-free, and the packed
    # output is example_id-sorted at the end.  commit_dir: a run killed
    # mid-write leaves no partial docs/ for the rerun to append to.
    t0 = time.monotonic()
    if not os.path.exists(os.path.join(docs_dir, "_DONE")):

        def write_docs(tmp_dir: str) -> None:
            final = run_extraction(
                pages_source, cfg.with_(deterministic_order=False)
            )
            docs = final.map_batches(_clean_scrub, batch_format="pyarrow")
            docs.write_parquet(tmp_dir)
            open(os.path.join(tmp_dir, "_DONE"), "w").write("ok")

        outputs.commit_dir(docs_dir, write_docs)
    metrics["t_extract_clean"] = time.monotonic() - t0

    import pyarrow.parquet as pq

    files = sorted(
        os.path.join(docs_dir, f)
        for f in os.listdir(docs_dir)
        if f.endswith(".parquet")
    )
    n_docs = sum(pq.read_metadata(f).num_rows for f in files)
    metrics["docs_after_clean"] = n_docs

    def docs_ds():
        return read_parquet_clean(files, columns=["doc_id", "text"])

    # --- phase 2: loser sets (exact + near dup) --------------------------
    t0 = time.monotonic()
    exact = _loser_ids(exact_dup_losers(docs_ds()))
    metrics["t_exact_losers"] = time.monotonic() - t0
    t0 = time.monotonic()
    near = _loser_ids(near_dup_losers(docs_ds(), threshold=threshold))
    metrics["t_near_losers"] = time.monotonic() - t0
    drop = np.union1d(exact, near)
    metrics["exact_losers"] = int(exact.size)
    metrics["near_losers"] = int(near.size)
    metrics["dup_losers_union"] = int(drop.size)
    if drop.size > LOSER_BUDGET:  # pragma: no cover - 100 TB path
        raise NotImplementedError(
            "loser set exceeds broadcast budget; switch to the "
            "partitioned hash anti-join (DEDUP_BROADCAST_LIMIT path of "
            "pipelines/extract.py)"
        )

    # --- benchmark set: n lowest cleaned doc ids (dup losers included) --
    # NOT sort().limit(): a global sort of the full doc table to pick
    # 3 rows spilled 35 GB at 10M docs.  Per-batch top-n partials
    # (n rows per block) merge on the driver instead — zero shuffle.
    def low_n(t: pa.Table) -> pa.Table:
        return t.sort_by("doc_id").slice(0, n_benchmark)

    low_rows: list = []
    for b in (
        docs_ds()
        .map_batches(low_n, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        low_rows.extend(
            (r["doc_id"], r["text"]) for r in b.to_pylist()
        )
    low_rows.sort()
    bench_texts = [text for _, text in low_rows[:n_benchmark]]
    bench = set()
    for text in bench_texts:
        bench |= shingles(text, DECONTAM_SHINGLE_K)
    bench_arr = np.fromiter(bench, dtype=np.uint64, count=len(bench))
    bench_arr.sort()

    # --- phase 3: anti-filter + decontaminate + pack ---------------------
    t0 = time.monotonic()
    ref = state.broadcast({"drop": drop, "bench": bench_arr})

    def keep(t: pa.Table) -> pa.Table:
        st = state.cached_get(ref)
        ids = t["doc_id"].to_numpy()
        mask = ~np.isin(ids, st["drop"], assume_unique=False)
        t = t.filter(pa.array(mask))
        if st["bench"].size:
            # contaminated iff >= half the doc's shingles appear in the
            # benchmark set (overlap-fraction rule: an any-hit rule is
            # useless on template-built corpora where every doc shares
            # SOME k-gram with everything)
            keep_rows = []
            for text in t["text"].to_pylist():
                sh = shingles(text or "", DECONTAM_SHINGLE_K)
                if not sh:
                    keep_rows.append(True)
                    continue
                arr = np.fromiter(sh, dtype=np.uint64, count=len(sh))
                hits = int(np.isin(arr, st["bench"], assume_unique=True).sum())
                keep_rows.append(2 * hits < len(sh))
            t = t.filter(pa.array(keep_rows))
        return t

    kept = docs_ds().map_batches(keep, batch_format="pyarrow")
    packed = pack_sequences(
        kept, window=window, range_size=_range_size(n_docs, docs_per_range)
    )
    metrics["t_assemble_setup"] = time.monotonic() - t0
    metrics["n_benchmark"] = len(bench_texts)
    metrics["window"] = window
    return {"packed": packed, "metrics": metrics}


def packed_to_table(packed) -> pa.Table:
    """Driver-hashable flat form of the packed-example output:
    doc_ids list -> canonical JSON (the spans_json convention)."""
    tabs = [b for b in packed.iter_batches(batch_format="pyarrow")]
    t = (
        pa.concat_tables([x for x in tabs if x.num_rows])
        if any(x.num_rows for x in tabs)
        else None
    )
    if t is None:
        return pa.table(
            {
                "example_id": pa.array([], pa.int64()),
                "doc_ids_json": pa.array([], pa.string()),
                "n_docs": pa.array([], pa.int64()),
                "n_tokens": pa.array([], pa.int64()),
                "oversize": pa.array([], pa.bool_()),
            }
        )
    t = t.sort_by("example_id")
    return pa.table(
        {
            "example_id": pc.cast(t["example_id"], pa.int64()),
            "doc_ids_json": pa.array(
                [
                    json.dumps([int(x) for x in ids], separators=(",", ":"))
                    for ids in t["doc_ids"].to_pylist()
                ],
                pa.string(),
            ),
            "n_docs": pc.cast(t["n_docs"], pa.int64()),
            "n_tokens": pc.cast(t["n_tokens"], pa.int64()),
            "oversize": pc.cast(t["oversize"], pa.bool_()),
        }
    )


# ---------------------------------------------------------------------------
# Sequential twin (golden generator; no Ray)
# ---------------------------------------------------------------------------

def sequential_curation(
    pages_table: pa.Table,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    threshold: float = NEAR_DUP_THRESHOLD,
    n_benchmark: int = N_BENCHMARK,
    window: Optional[int] = None,
    docs_per_range: int = DOCS_PER_RANGE,
) -> pa.Table:
    """Single-process reference for the whole chain, reusing the same
    per-doc kernels; returns the flat packed-example table
    (packed_to_table layout).  Independent execution path: sequential
    oracle extraction, driver-side numpy MinHash banding, plain greedy
    packing loop."""
    from document_extractor_ray import oracle
    from document_extractor_ray.functions.dedup import (
        DECONTAM_SHINGLE_K,
        MAX_BUCKET,
        MinHasher,
        N_BANDS,
        N_HASHES,
        _BAND_P,
        cluster_pairs,
        content_hash_batch,
        shingles,
    )
    from document_extractor_ray.functions.training import PACK_WINDOW

    window = PACK_WINDOW if window is None else window
    ora = oracle.run_oracle(pages_table, cfg)
    fin = ora["final"]
    ok = fin.filter(pc.equal(fin["status"], "OK"))
    cols = _clean_scrub_kernel(
        ok["url"].to_pylist(),
        [_content_text(p) for p in ok["pages_text"].to_pylist()],
    )
    ids = cols["doc_id"]
    texts = cols["text"]
    n_docs = len(ids)
    order = np.argsort(np.array(ids, dtype=np.int64), kind="stable")
    ids = [ids[i] for i in order]
    texts = [texts[i] for i in order]

    # exact dedup: min id per content hash
    first: dict = {}
    drop = set()
    for i, h in zip(ids, content_hash_batch(texts)):
        if h in first:
            drop.add(i if i > first[h] else first[h])
            first[h] = min(first[h], i)
        else:
            first[h] = i

    # near dedup: same banded LSH candidate structure as
    # minhash_dup_pairs (band hash collision -> full-sig agreement)
    mh = MinHasher(seed=42)
    sigs = np.empty((n_docs, N_HASHES), dtype=np.uint64)
    for i, text in enumerate(texts):
        sigs[i] = mh.signature(text)
    with np.errstate(over="ignore"):
        bh = (
            sigs.reshape(n_docs, N_BANDS, -1) * _BAND_P
        ).sum(axis=2, dtype=np.uint64)
    bh = (bh >> np.uint64(1)).astype(np.int64)
    buckets: dict = {}
    for i in range(n_docs):
        for b in range(N_BANDS):
            buckets.setdefault((b, int(bh[i, b])), []).append(i)
    edges = set()
    id_arr = np.array(ids, dtype=np.int64)
    for members in buckets.values():
        if len(members) < 2:
            continue
        members = sorted(members, key=lambda i: ids[i])[:MAX_BUCKET]
        m = np.array(members)
        est = (sigs[m][:, None, :] == sigs[m][None, :, :]).mean(axis=2)
        ii, jj = np.nonzero(est >= threshold)
        for a, b in zip(ii, jj):
            if a < b and ids[m[a]] != ids[m[b]]:
                lo, hi = sorted((ids[m[a]], ids[m[b]]))
                edges.add((lo, hi))
    roots = cluster_pairs(sorted(edges))
    drop |= {n for n, r in roots.items() if r != n}

    # decontaminate against the n lowest cleaned doc ids
    bench_texts = texts[:n_benchmark]
    bench = set()
    for text in bench_texts:
        bench |= shingles(text, DECONTAM_SHINGLE_K)
    survivors = []
    for i, text in zip(ids, texts):
        if i in drop:
            continue
        sh = shingles(text or "", DECONTAM_SHINGLE_K)
        if bench and sh and 2 * len(sh & bench) >= len(sh):
            continue
        survivors.append((i, text))

    # pack: greedy first-fit per id range, in id order
    rng_size = _range_size(n_docs, docs_per_range)
    rows = []
    cur_docs: list = []
    cur_tok = 0
    cur_rng = None

    def flush():
        if cur_docs:
            rows.append((cur_docs[0], list(cur_docs), cur_tok, False))

    for i, text in survivors:
        ntok = len((text or "").split())
        rng = i // rng_size
        if rng != cur_rng:
            flush()
            cur_docs, cur_tok, cur_rng = [], 0, rng
        if ntok > window:
            flush()
            cur_docs, cur_tok = [], 0
            rows.append((i, [i], ntok, True))
            continue
        if cur_tok + ntok > window and cur_docs:
            flush()
            cur_docs, cur_tok = [], 0
        cur_docs.append(i)
        cur_tok += ntok
    flush()
    rows.sort(key=lambda r: r[0])
    return pa.table(
        {
            "example_id": pa.array([r[0] for r in rows], pa.int64()),
            "doc_ids_json": pa.array(
                [
                    json.dumps([int(x) for x in r[1]], separators=(",", ":"))
                    for r in rows
                ],
                pa.string(),
            ),
            "n_docs": pa.array([len(r[1]) for r in rows], pa.int64()),
            "n_tokens": pa.array([r[2] for r in rows], pa.int64()),
            "oversize": pa.array([r[3] for r in rows], pa.bool_()),
        }
    )
