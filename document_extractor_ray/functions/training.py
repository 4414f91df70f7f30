"""Training-data assembly operators over the ``documents`` table:
sequence packing, stratified (domain-mix) sampling, per-group top-k.

These are the ops that turn a cleaned corpus into model-ready data:
pack documents into fixed token windows, downsample over-represented
strata to a target mix, select the best-k documents per group.

Scale notes (100 TB thinking):
- packing is local to deterministic doc_id RANGES (not Ray blocks), so
  output is independent of block layout and every range packs in
  parallel with no shuffle beyond the range groupby;
- stratified sampling is a pure vectorized filter (modulus systematic
  sampling — deterministic, SQL-oracle-exact, no RNG state to ship);
- per-group top-k pre-reduces inside map_batches (each batch emits at
  most k rows per group) before the tiny per-group merge.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from document_extractor_ray.functions.bucketing import n_shuffle_parts


def _read_docs(sf_dir: str, columns):
    from document_extractor_ray.sources import read_parquet_clean

    return read_parquet_clean(
        f"{sf_dir}/documents.parquet", columns=columns, override_num_blocks=n_shuffle_parts()
    )


# ---------------------------------------------------------------------------
# Sequence packing
# ---------------------------------------------------------------------------

PACK_WINDOW = 512          # tokens per packed example
PACK_RANGE = 256           # docs per deterministic packing range


def pack_sequences(
    ds: "ray.data.Dataset",
    window: int = PACK_WINDOW,
    range_size: int = PACK_RANGE,
):
    """Pack documents into fixed token windows (greedy first-fit in
    doc_id order) — the LLM-training sequence-packing step.

    Documents are bucketed into deterministic doc_id ranges
    (``doc_id // range_size``); each range packs independently, so the
    result is reproducible for any block layout and the only shuffle
    is the range groupby over slim (doc_id, n_tokens) rows.  A doc
    longer than the window becomes its own example (flagged
    oversize=True, never split — the common packing policy for
    document-boundary-preserving training).  Token counts are
    whitespace tokens (the token_counts kernel).

    Output: one row per packed example —
      (example_id, doc_ids: list<int64>, n_docs, n_tokens, oversize).
    example_id = first doc_id in the example (unique: doc ranges are
    disjoint and packing is in-order)."""

    from document_extractor_ray.functions import bucketing

    n_parts = bucketing.n_shuffle_parts()

    def count_tokens(t: pa.Table) -> pa.Table:
        toks = pc.cast(pc.count_substring_regex(t["text"], r"\S+"), pa.int64())
        rng = pc.divide(t["doc_id"], range_size)
        out = pa.table({"doc_id": t["doc_id"], "n_tokens": toks, "rng": rng})
        # co-locate whole RANGES per partition (hash of rng), so the
        # packing pass is ONE call per ~CPU-count partition, not one
        # pandas call per range — 12k ranges at 1M docs paid the
        # per-GROUP map_groups cost this repo's bucketed family exists
        # to avoid (PERF.md steps 20-24; measured 10x at 8 cpus)
        return out.append_column(
            "part", bucketing.key_part_column(out, ["rng"], n_parts)
        )

    def pack_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["rng", "doc_id"])
        ids = g["doc_id"].to_numpy()
        toks = g["n_tokens"].to_numpy()
        rngs = g["rng"].to_numpy()
        ex_ids, ex_docs, ex_ntok, ex_over = [], [], [], []
        cur_docs: list = []
        cur_tok = 0
        cur_rng = None

        def flush():
            if cur_docs:
                ex_ids.append(cur_docs[0])
                ex_docs.append(list(cur_docs))
                ex_ntok.append(cur_tok)
                ex_over.append(False)

        for d, n, r in zip(ids, toks, rngs):
            if r != cur_rng:
                flush()
                cur_docs, cur_tok, cur_rng = [], 0, r
            if n > window:
                flush()
                cur_docs, cur_tok = [], 0
                ex_ids.append(int(d))
                ex_docs.append([int(d)])
                ex_ntok.append(int(n))
                ex_over.append(True)
                continue
            if cur_tok + n > window and cur_docs:
                flush()
                cur_docs, cur_tok = [], 0
            cur_docs.append(int(d))
            cur_tok += int(n)
        flush()
        return pd.DataFrame(
            {
                "example_id": pd.Series(ex_ids, dtype="int64"),
                "doc_ids": ex_docs,
                "n_docs": pd.Series([len(x) for x in ex_docs], dtype="int64"),
                "n_tokens": pd.Series(ex_ntok, dtype="int64"),
                "oversize": pd.Series(ex_over, dtype="bool"),
            }
        )

    # Materialize the SLIM token table (text dropped — 32 B/row) before
    # the exchange: the groupby's all-to-all pulling from the live
    # upstream map thrashes at low CPU counts (first seen at the MinHash
    # band explode, PERF step 43; in-chain pack on 765k docs @8 cpus was
    # 252 s lazily vs ~40 s with the boundary).  At 10M docs this is
    # ~320 MB — the bytes the sort would buffer anyway.
    slim = ds.map_batches(count_tokens, batch_format="pyarrow").materialize()
    return (
        slim.groupby("part")
        .map_groups(pack_partition, batch_format="pandas")
        .sort("example_id")
    )


def pack_sequences_docs(sf_dir: str):
    return pack_sequences(_read_docs(sf_dir, ["doc_id", "text"]))


# ---------------------------------------------------------------------------
# Stratified (domain-mix) sampling
# ---------------------------------------------------------------------------

# Keep-percentage per stratum: downsample over-represented English,
# keep the rest.  Values are integer percents so the modulus filter is
# integer-exact and the SQL oracle matches bit-for-bit.
DEFAULT_MIX: Dict[str, int] = {"en": 40, "zh": 80, "es": 80, "de": 80, "fr": 80}
DEFAULT_KEEP_PCT = 60


def stratified_sample(
    ds: "ray.data.Dataset",
    mix: Optional[Dict[str, int]] = None,
    default_pct: int = DEFAULT_KEEP_PCT,
):
    """Deterministic stratified sampling for domain mixing: keep a doc
    iff ``doc_id % 100 < pct(lang)`` — systematic sampling, no RNG, so
    the result is reproducible, mergeable across shards, and exactly
    expressible in SQL.  Per-batch it is one index_in + take against
    the tiny mix table and one vectorized modulus compare."""
    mix = DEFAULT_MIX if mix is None else mix
    langs = sorted(mix)
    mix_tbl = pa.table(
        {
            "lang": pa.array(langs, pa.string()),
            "pct": pa.array([mix[l] for l in langs], pa.int64()),
        }
    )
    ref = ray.put(mix_tbl)

    from document_extractor_ray import state

    def keep(t: pa.Table) -> pa.Table:
        d = state.cached_get(ref)
        idx = pc.index_in(t["lang"], value_set=d["lang"].combine_chunks())
        pct = pc.fill_null(pc.take(d["pct"].combine_chunks(), idx), default_pct)
        m = pc.subtract(
            t["doc_id"], pc.multiply(pc.divide(t["doc_id"], 100), 100)
        )
        return t.filter(pc.less(m, pct))

    return ds.map_batches(keep, batch_format="pyarrow").sort("doc_id")


def stratified_sample_docs(sf_dir: str):
    return stratified_sample(_read_docs(sf_dir, ["doc_id", "lang", "n_chars"]))


def _mix_case_sql(mix: Dict[str, int], default_pct: int) -> str:
    whens = " ".join(
        f"WHEN '{lang}' THEN {pct}" for lang, pct in sorted(mix.items())
    )
    return f"CASE lang {whens} ELSE {default_pct} END"


STRATIFIED_SAMPLE_SQL = f"""
SELECT doc_id, lang, n_chars
FROM documents
WHERE doc_id % 100 < {_mix_case_sql(DEFAULT_MIX, DEFAULT_KEEP_PCT)}
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Per-group top-k (window-function analogue)
# ---------------------------------------------------------------------------

TOP_PER_LANG_K = 5


def top_docs_per_lang(sf_dir: str, k: int = TOP_PER_LANG_K):
    """Top-k docs per language by n_chars (ties -> lower doc_id): the
    ROW_NUMBER()-over-partition analogue.  Each batch pre-reduces to
    at most k rows per lang (vectorized pandas sort + groupby head) so
    the per-group merge sees k * n_blocks rows per lang, never the
    corpus."""
    ds = _read_docs(sf_dir, ["doc_id", "lang", "n_chars"])

    def partial_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["lang", "n_chars", "doc_id"], ascending=[True, False, True]
        )
        return df.groupby("lang", sort=False).head(k)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_chars", "doc_id"], ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = pd.Series(range(1, len(g) + 1), dtype="int64")
        return g[["lang", "rank", "doc_id", "n_chars"]]

    return (
        ds.map_batches(partial_topk, batch_format="pandas")
        .groupby("lang")
        .map_groups(final_topk, batch_format="pandas")
        .sort(["lang", "rank"])
    )


TOP_DOCS_PER_LANG_SQL = f"""
SELECT lang, rank, doc_id, n_chars FROM (
  SELECT lang, doc_id, n_chars,
         CAST(row_number() OVER (
             PARTITION BY lang ORDER BY n_chars DESC, doc_id ASC
         ) AS BIGINT) AS rank
  FROM documents
)
WHERE rank <= {TOP_PER_LANG_K}
ORDER BY lang, rank
"""


# ---------------------------------------------------------------------------
# Packing assignments (per-doc view of pack_sequences, SQL-oracled)
# ---------------------------------------------------------------------------

def pack_assignments(
    ds: "ray.data.Dataset",
    window: int = PACK_WINDOW,
    range_size: int = PACK_RANGE,
):
    """Per-doc packing assignment: (doc_id, example_id, n_tokens,
    oversize) — the flat relational view of ``pack_sequences`` (one
    row per input doc instead of one row per packed example, no list
    column), which makes the greedy first-fit state machine exactly
    SQL-expressible as a recursive CTE walking each doc_id range in
    order.  Same shuffle shape as pack_sequences: only slim
    (doc_id, n_tokens) rows move through the range groupby."""

    def count_tokens(t: pa.Table) -> pa.Table:
        toks = pc.cast(pc.count_substring_regex(t["text"], r"\S+"), pa.int64())
        rng = pc.divide(t["doc_id"], range_size)
        return pa.table({"doc_id": t["doc_id"], "n_tokens": toks, "rng": rng})

    def assign_range(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id")
        ids = g["doc_id"].to_numpy()
        toks = g["n_tokens"].to_numpy()
        ex, over = [], []
        cur_start, cur_tok = None, 0
        for d, n in zip(ids, toks):
            if n > window:
                ex.append(int(d))
                over.append(True)
                cur_start, cur_tok = None, 0
                continue
            if cur_start is not None and cur_tok + n > window:
                cur_start, cur_tok = None, 0
            if cur_start is None:
                cur_start, cur_tok = int(d), 0
            ex.append(cur_start)
            over.append(False)
            cur_tok += int(n)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "example_id": pd.Series(ex, dtype="int64"),
                "n_tokens": pd.Series(toks, dtype="int64"),
                "oversize": pd.Series(over, dtype="bool"),
            }
        )

    return (
        ds.map_batches(count_tokens, batch_format="pyarrow")
        .groupby("rng")
        .map_groups(assign_range, batch_format="pandas")
        .sort("doc_id")
    )


def pack_assignments_docs(sf_dir: str):
    return pack_assignments(_read_docs(sf_dir, ["doc_id", "text"]))


def _pack_walk_ctes(window: int, range_size: int) -> str:
    """The shared recursive first-fit walk (tok -> docs_r -> walk),
    used by both the pack_assignments oracle and the boundary-bigram
    audit so the state machine can never diverge between them."""
    return f"""tok AS (
  SELECT doc_id,
         CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens,
         doc_id // {range_size} AS rng
  FROM documents
),
docs_r AS (
  SELECT doc_id, n_tokens, rng,
         row_number() OVER (PARTITION BY rng ORDER BY doc_id) AS i
  FROM tok
),
walk(rng, i, doc_id, n_tokens, example_id, oversize, ex, fill) AS (
  SELECT rng, i, doc_id, n_tokens,
         doc_id AS example_id,
         n_tokens > {window} AS oversize,
         CASE WHEN n_tokens > {window} THEN NULL ELSE doc_id END AS ex,
         CASE WHEN n_tokens > {window} THEN 0 ELSE n_tokens END AS fill
  FROM docs_r WHERE i = 1
  UNION ALL
  SELECT d.rng, d.i, d.doc_id, d.n_tokens,
         CASE WHEN d.n_tokens > {window} THEN d.doc_id
              WHEN w.ex IS NOT NULL AND w.fill + d.n_tokens <= {window} THEN w.ex
              ELSE d.doc_id END,
         d.n_tokens > {window},
         CASE WHEN d.n_tokens > {window} THEN NULL
              WHEN w.ex IS NOT NULL AND w.fill + d.n_tokens <= {window} THEN w.ex
              ELSE d.doc_id END,
         CASE WHEN d.n_tokens > {window} THEN 0
              WHEN w.ex IS NOT NULL AND w.fill + d.n_tokens <= {window}
                THEN w.fill + d.n_tokens
              ELSE d.n_tokens END
  FROM walk w JOIN docs_r d ON d.rng = w.rng AND d.i = w.i + 1
)"""


def pack_assignments_sql(
    window: int = PACK_WINDOW, range_size: int = PACK_RANGE
) -> str:
    """Oracle for ``pack_assignments``: a recursive CTE carries the
    greedy first-fit state (open-example id, fill) doc by doc within
    each doc_id range; every range walks in parallel rows of the same
    iteration depth."""
    return f"""
WITH RECURSIVE {_pack_walk_ctes(window, range_size)}
SELECT doc_id, example_id, n_tokens, oversize FROM walk ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Source/domain mix report (the input to mixture reweighting)
# ---------------------------------------------------------------------------

def source_mix(sf_dir: str):
    """Per (source, lang) corpus composition: doc count, char volume,
    and integer-permille share of all docs — the statistic a domain
    reweighting step consumes.  One hash aggregate over slim columns;
    the grouped result is tiny (|sources| x |langs|), so the permille
    normalization runs on the collected table."""
    ds = _read_docs(sf_dir, ["doc_id", "source", "lang", "n_chars"])

    from ray.data.aggregate import Count, Sum

    grouped = (
        ds.groupby(["source", "lang"])
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="total_chars"),
        )
        .take_all()
    )
    total = sum(r["n_docs"] for r in grouped)
    rows = sorted(grouped, key=lambda r: (r["source"], r["lang"]))
    return pa.table(
        {
            "source": pa.array([r["source"] for r in rows], pa.string()),
            "lang": pa.array([r["lang"] for r in rows], pa.string()),
            "n_docs": pa.array([r["n_docs"] for r in rows], pa.int64()),
            "total_chars": pa.array(
                [int(r["total_chars"]) for r in rows], pa.int64()
            ),
            "share_permille": pa.array(
                [r["n_docs"] * 1000 // total for r in rows], pa.int64()
            ),
        }
    )


SOURCE_MIX_SQL = """
WITH g AS (
  SELECT source, lang, CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(n_chars) AS BIGINT) AS total_chars
  FROM documents GROUP BY source, lang
)
SELECT source, lang, n_docs, total_chars,
       n_docs * 1000 // CAST(sum(n_docs) OVER () AS BIGINT) AS share_permille
FROM g ORDER BY source, lang
"""


# ---------------------------------------------------------------------------
# Per-domain document cap (host extraction + bounded keep per host)
# ---------------------------------------------------------------------------

DOMAIN_CAP_K = 10       # keep at most this many docs per host
DOMAIN_CAP_MOD = 23     # synthetic host id: doc_id % MOD (demo corpus has no url)

def domain_cap(sf_dir: str, cap: int = DOMAIN_CAP_K):
    """Cap documents per web host — the Common-Crawl curation step
    that stops one boilerplate-heavy domain from dominating the
    corpus: keep the first ``cap`` docs per host in doc_id
    (crawl) order, with their 1-based rank.

    The demo corpus carries no url column, so a deterministic url is
    synthesized per row and the host is then recovered from it with a
    vectorized regex (``pc.extract_regex``) — the extraction half is
    exactly what a real pages table needs; the SQL oracle replicates
    the same host expression.

    Scale shape (the HIGH-cardinality per-key head-N, vs
    ``top_docs_per_lang``'s tiny-key-domain per-group merge): each
    batch first pre-reduces to at most ``cap`` rows per host
    (vectorized sort + grouped cumcount), then ONE hash-bucket
    shuffle co-locates each host in a balanced partition — never a
    per-host map_groups call, so 10^8 hosts cost |buckets| Python
    calls, not 10^8.  The wire carries <= cap rows per (host, block).
    Bucketing here reuses the host's defining integer; a real url
    column would hash the host bytes (content_hash_batch) to the same
    bucket space."""
    ds = _read_docs(sf_dir, ["doc_id"])
    n_parts = n_shuffle_parts()

    def prep(t: pa.Table) -> pa.Table:
        did = t["doc_id"].to_numpy(zero_copy_only=False)
        m = did % DOMAIN_CAP_MOD
        url = np.char.add(
            np.char.add("https://d", m.astype("U2")),
            np.char.add(".example.com/p/", did.astype("U20")),
        )
        host = pc.struct_field(
            pc.extract_regex(
                pa.array(url, pa.string()), pattern=r"^https?://(?P<host>[^/]+)/"
            ),
            "host",
        )
        out = pa.table({"host": host, "doc_id": t["doc_id"]})
        # per-batch partial cap: at most `cap` rows per host leave the block
        df = out.to_pandas().sort_values(["host", "doc_id"], kind="mergesort")
        df = df[df.groupby("host", sort=False).cumcount() < cap]
        h = (
            df["doc_id"].to_numpy().astype(np.uint64) % np.uint64(DOMAIN_CAP_MOD)
        ) * np.uint64(2654435761) & np.uint64(0x7FFFFFFF)
        df["part"] = (h % np.uint64(n_parts)).astype(np.int32)
        return pa.Table.from_pandas(
            df, preserve_index=False
        ).replace_schema_metadata(None)

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["host", "doc_id"], kind="mergesort")
        rank = g.groupby("host", sort=False).cumcount() + 1
        g = g.assign(rank_in_domain=rank.astype(np.int64))
        g = g[g["rank_in_domain"] <= cap]
        return g[["host", "doc_id", "rank_in_domain"]]

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .sort(["host", "rank_in_domain"])
    )


DOMAIN_CAP_SQL = f"""
SELECT host, doc_id, rank_in_domain FROM (
  SELECT 'd' || CAST(doc_id % {DOMAIN_CAP_MOD} AS VARCHAR) || '.example.com' AS host,
         doc_id,
         CAST(row_number() OVER (
           PARTITION BY doc_id % {DOMAIN_CAP_MOD} ORDER BY doc_id
         ) AS BIGINT) AS rank_in_domain
  FROM documents
)
WHERE rank_in_domain <= {DOMAIN_CAP_K}
ORDER BY host, rank_in_domain
"""


# ---------------------------------------------------------------------------
# Curriculum sharding: global difficulty order -> round-robin shards
# ---------------------------------------------------------------------------

CURRICULUM_SHARDS = 16


def curriculum_shards(sf_dir: str, n_shards: int = CURRICULUM_SHARDS):
    """Curriculum-ordered round-robin shard assignment: documents in
    global (n_chars DESC, doc_id) order, shard s = (rank-1) % S — so
    every shard sees the same difficulty curve (the curriculum-training
    data layout).  Rides doc_global_rank's histogram-offset global
    rank (no total-order sort; the driver holds only the key
    histogram), then one vectorized modulo."""
    import pyarrow.compute as pc

    from document_extractor_ray.functions.analytics import doc_global_rank

    ranked = doc_global_rank(sf_dir)

    def assign(t: pa.Table) -> pa.Table:
        # (rnk-1) % S via exact integer ops: rnk >= 1 so floor == trunc
        rnk1 = pc.subtract(t["rnk"], 1)
        shard = pc.cast(
            pc.subtract(rnk1, pc.multiply(pc.divide(rnk1, n_shards), n_shards)),
            pa.int64(),
        )
        return pa.table(
            {"doc_id": t["doc_id"], "rnk": t["rnk"], "shard": shard}
        )

    return ranked.map_batches(assign, batch_format="pyarrow").sort("doc_id")


CURRICULUM_SHARDS_SQL = f"""
SELECT doc_id, rnk, CAST((rnk - 1) % {CURRICULUM_SHARDS} AS BIGINT) AS shard
FROM (
  SELECT doc_id,
         row_number() OVER (ORDER BY n_chars DESC, doc_id) AS rnk
  FROM documents
)
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Shard-balance audit over the curriculum layout
# ---------------------------------------------------------------------------

def shard_balance_audit(sf_dir: str, n_shards: int = CURRICULUM_SHARDS):
    """Per-shard balance proof for the curriculum layout: doc count,
    total chars and the min/max global rank landing in each shard —
    the audit that catches a skewed shard BEFORE a training job eats
    it.  Rides curriculum_shards (histogram-offset rank + modulo) and
    folds per batch to <= S partial rows; chars attach in the same
    pass via the rank→doc mapping already in the stream."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Max, Min, Sum

    from document_extractor_ray.functions.analytics import _read

    ranked = curriculum_shards(sf_dir, n_shards=n_shards)

    # n_chars rejoins by doc_id-order equivalence: curriculum_shards
    # ends sorted by doc_id, and documents.parquet is doc_id-ordered —
    # but block boundaries differ, so attach via a broadcast dict of
    # the slim (doc_id, n_chars) column pair instead.
    import pyarrow.parquet as pq

    from document_extractor_ray import state

    chars = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    chars_ref = state.broadcast(chars)

    def partial(t: pa.Table) -> pa.Table:
        t = state.lookup_join(
            t, "doc_id", state.cached_get(chars_ref), "doc_id", ["n_chars"]
        )
        g = pa.TableGroupBy(
            pa.table(
                {
                    "shard": t["shard"],
                    "n_chars": pc.cast(t["n_chars"], pa.int64()),
                    "rnk": t["rnk"],
                }
            ),
            ["shard"],
        ).aggregate(
            [([], "count_all"), ("n_chars", "sum"), ("rnk", "min"), ("rnk", "max")]
        )
        return pa.table(
            {
                "shard": g["shard"],
                "n_docs": pc.cast(g["count_all"], pa.int64()),
                "sum_chars": g["n_chars_sum"],
                "min_rnk": g["rnk_min"],
                "max_rnk": g["rnk_max"],
            }
        )

    return (
        ranked.map_batches(partial, batch_format="pyarrow")
        .groupby("shard")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_chars", alias_name="sum_chars"),
            Min("min_rnk", alias_name="min_rnk"),
            Max("max_rnk", alias_name="max_rnk"),
        )
        .sort("shard")
    )


SHARD_BALANCE_AUDIT_SQL = f"""
WITH ranked AS (
  SELECT doc_id, n_chars,
         row_number() OVER (ORDER BY n_chars DESC, doc_id) AS rnk
  FROM documents
)
SELECT CAST((rnk - 1) % {CURRICULUM_SHARDS} AS BIGINT) AS shard,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars,
       CAST(min(rnk) AS BIGINT) AS min_rnk,
       CAST(max(rnk) AS BIGINT) AS max_rnk
FROM ranked
GROUP BY 1
ORDER BY shard
"""


# ---------------------------------------------------------------------------
# Packing efficiency audit (bin-fill histogram over pack_assignments)
# ---------------------------------------------------------------------------


def pack_efficiency_stats(sf_dir: str, window: int = PACK_WINDOW):
    """Fill-rate histogram of the greedy packer's output: examples
    bucketed by fill permille band (band = tokens·1000//window//100,
    0..10; oversize singletons report band −1), with docs, token and
    wasted-token totals per band — the number a training-data team
    watches to decide whether the packing window or the doc length
    distribution needs work.

    Scale shape: per-example rollup is key-per-row (``bucketed_agg``
    on example_id); each resolved block collapses to band partials
    (≤ 12 rows), folded on the driver (PERF 32)."""
    from document_extractor_ray.functions.bucketing import bucketed_agg

    pa_ds = pack_assignments(_read_docs(sf_dir, ["doc_id", "text"]))

    def slim(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "example_id": t["example_id"],
                "n_tokens": t["n_tokens"],
                "ovs": pc.cast(t["oversize"], pa.int64()),
            }
        )

    per_ex = bucketed_agg(
        pa_ds.map_batches(slim, batch_format="pyarrow"),
        ["example_id"],
        [(None, "count", "n_docs"), ("n_tokens", "sum", "tokens"), ("ovs", "max", "ovs")],
    )

    def band_partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "band": pa.array([], pa.int64()),
                    "n_examples": pa.array([], pa.int64()),
                    "n_docs": pa.array([], pa.int64()),
                    "tokens": pa.array([], pa.int64()),
                    "waste_tokens": pa.array([], pa.int64()),
                }
            )
        tok = t["tokens"].to_numpy(zero_copy_only=False)
        ovs = t["ovs"].to_numpy(zero_copy_only=False) > 0
        band = np.where(ovs, -1, tok * 1000 // window // 100).astype(np.int64)
        waste = np.where(ovs, 0, window - tok).astype(np.int64)
        g = pa.TableGroupBy(
            pa.table(
                {
                    "band": pa.array(band),
                    "n_docs": t["n_docs"],
                    "tokens": t["tokens"],
                    "waste": pa.array(waste),
                }
            ),
            ["band"],
        ).aggregate([([], "count_all"), ("n_docs", "sum"), ("tokens", "sum"), ("waste", "sum")])
        return pa.table(
            {
                "band": g["band"],
                "n_examples": pc.cast(g["count_all"], pa.int64()),
                "n_docs": g["n_docs_sum"],
                "tokens": g["tokens_sum"],
                "waste_tokens": g["waste_sum"],
            }
        )

    parts = per_ex.map_batches(band_partial, batch_format="pyarrow").take_all()
    acc: dict[int, list[int]] = {}
    for r in parts:
        a = acc.setdefault(int(r["band"]), [0, 0, 0, 0])
        a[0] += int(r["n_examples"])
        a[1] += int(r["n_docs"])
        a[2] += int(r["tokens"])
        a[3] += int(r["waste_tokens"])
    bands = sorted(acc)
    return pa.table(
        {
            "band": pa.array(bands, pa.int64()),
            "n_examples": pa.array([acc[b][0] for b in bands], pa.int64()),
            "n_docs": pa.array([acc[b][1] for b in bands], pa.int64()),
            "tokens": pa.array([acc[b][2] for b in bands], pa.int64()),
            "waste_tokens": pa.array([acc[b][3] for b in bands], pa.int64()),
        }
    )


def pack_efficiency_stats_sql(
    window: int = PACK_WINDOW, range_size: int = PACK_RANGE
) -> str:
    return f"""
WITH pa_ AS ({pack_assignments_sql(window, range_size)}),
ex AS (
  SELECT example_id,
         CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(n_tokens) AS BIGINT) AS tokens,
         bool_or(oversize) AS ovs
  FROM pa_ GROUP BY 1
), banded AS (
  SELECT CASE WHEN ovs THEN CAST(-1 AS BIGINT)
              ELSE tokens * 1000 // {window} // 100 END AS band,
         n_docs, tokens,
         CASE WHEN ovs THEN 0 ELSE {window} - tokens END AS waste
  FROM ex
)
SELECT band,
       CAST(count(*) AS BIGINT) AS n_examples,
       CAST(sum(n_docs) AS BIGINT) AS n_docs,
       CAST(sum(tokens) AS BIGINT) AS tokens,
       CAST(sum(waste) AS BIGINT) AS waste_tokens
FROM banded GROUP BY 1 ORDER BY 1
"""


PACK_EFFICIENCY_STATS_SQL = pack_efficiency_stats_sql()


# ---------------------------------------------------------------------------
# Group-aware fold assignment (GroupKFold without leakage)
# ---------------------------------------------------------------------------

GROUP_FOLDS = 5


def group_shuffle_split(sf_dir: str, n_folds: int = GROUP_FOLDS):
    """Group-aware split: every doc of a SOURCE lands in the same fold
    (fold = crc32(source) % n_folds) — the leakage-free alternative to
    per-doc hashing when near-duplicate documents cluster within a
    source (train/val contamination through shared boilerplate;
    GroupKFold semantics, but hash-stable across runs and engines).

    Scale shape: the distinct-source table is tiny next to the corpus
    (per-batch distinct partial -> driver fold), the source->fold map
    broadcasts in the closure, and assignment is one dictionary-encode
    + take per batch — no shuffle, the same doc always lands in the
    same fold regardless of sharding."""
    import zlib

    from document_extractor_ray.functions.textstats import _read_docs

    ds = _read_docs(sf_dir, ["doc_id", "source"])

    def srcs(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(pa.table({"source": t["source"]}), ["source"]).aggregate([])
        return g

    seen: set = set()
    for tb in map(
        ray.get, ds.map_batches(srcs, batch_format="pyarrow").to_arrow_refs()
    ):
        if tb.num_rows:
            seen.update(tb["source"].to_pylist())
    fold_of = {
        s: zlib.crc32(s.encode("utf-8")) % n_folds for s in seen
    }

    def assign(t: pa.Table) -> pa.Table:
        enc = t["source"].combine_chunks().dictionary_encode()
        dfold = pa.array(
            [fold_of[s] for s in enc.dictionary.to_pylist()], pa.int64()
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "source": t["source"],
                "fold": dfold.take(enc.indices),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow").sort("doc_id")


# ---------------------------------------------------------------------------
# Temperature-scaled source mixture (multinomial alpha-sampling)
# ---------------------------------------------------------------------------

MIX_TEMPERATURE = 0.7  # alpha, as in multilingual T5 / data-mixing practice


def source_temperature_mix(sf_dir: str, alpha: float = MIX_TEMPERATURE):
    """Temperature-scaled source sampling weights: w_s = n_s^alpha in
    integer micro units (exp(alpha*ln n), the proven libm identity)
    and the resulting integer-permille sampling share — the knob that
    upsamples small sources relative to proportional sampling (mT5's
    alpha-mixing).  share_permille = w*1000 // sum(w) over integer
    weights, so both engines agree bit-exactly.

    Scale shape: per-source counts are a tiny grouped aggregate; the
    pow and normalization run on the collected |sources|-row table —
    the output IS the broadcast mixture spec a sampler consumes."""
    import math

    from document_extractor_ray.functions.textstats import _read_docs
    from ray.data.aggregate import Count

    ds = _read_docs(sf_dir, ["doc_id", "source"])
    rows = ds.groupby("source").aggregate(Count(alias_name="n_docs")).take_all()
    rows.sort(key=lambda r: r["source"])
    ws = [
        int(math.floor(math.exp(alpha * math.log(r["n_docs"])) * 1_000_000 + 0.5))
        for r in rows
    ]
    tot = sum(ws)
    return pa.table(
        {
            "source": pa.array([r["source"] for r in rows], pa.string()),
            "n_docs": pa.array([int(r["n_docs"]) for r in rows], pa.int64()),
            "w_micro": pa.array(ws, pa.int64()),
            "share_permille": pa.array(
                [w * 1000 // tot for w in ws], pa.int64()
            ),
        }
    )


SOURCE_TEMPERATURE_MIX_SQL = f"""
WITH cnt AS (
  SELECT source, CAST(count(*) AS BIGINT) AS n_docs
  FROM documents GROUP BY source
),
w AS (
  SELECT source, n_docs,
         CAST(round(exp({MIX_TEMPERATURE} * ln(n_docs)) * 1000000) AS BIGINT)
           AS w_micro
  FROM cnt
)
SELECT source, n_docs, w_micro,
       CAST(w_micro * 1000 // (SELECT sum(w_micro) FROM w) AS BIGINT)
         AS share_permille
FROM w ORDER BY source
"""


# ---------------------------------------------------------------------------
# Padding-waste audit for length-bucketed batching
# ---------------------------------------------------------------------------

PAD_MIN_BUCKET = 16  # smallest batch length bucket (power of two)


def padding_waste_plan(sf_dir: str, min_bucket: int = PAD_MIN_BUCKET):
    """Length-bucketed batching audit: assign every document to the
    next power-of-two token-length bucket (floored at ``min_bucket``)
    and report, per bucket, the document count, real token volume and
    padding waste (bucket_len − n_tokens summed) — the number a
    dynamic-batching scheduler uses to pick bucket boundaries before a
    training run.

    Scale shape: one vectorized pass (regex token count + branchless
    bit-smear next-pow2, no log/float) emits per-batch partials already
    grouped by bucket, so the shuffle moves O(#buckets) rows per block
    — bucket cardinality is ~log2(max_len), never corpus-sized."""
    from document_extractor_ray.functions.textstats import (
        _TOKEN_RE,
        _read_docs,
    )
    from document_extractor_ray.functions.bucketing import bucketed_agg

    ds = _read_docs(sf_dir, ["doc_id", "text"])
    mb = int(min_bucket)

    def partial(t: pa.Table) -> pa.Table:
        n = pc.cast(
            pc.count_substring_regex(t["text"], _TOKEN_RE), pa.int64()
        ).to_numpy(zero_copy_only=False)
        y = np.maximum(n, mb) - 1  # branchless next-pow2 (exact, no log2)
        for s in (1, 2, 4, 8, 16, 32):
            y = y | (y >> s)
        bucket = y + 1
        g = pa.TableGroupBy(
            pa.table(
                {
                    "bucket_len": pa.array(bucket, pa.int64()),
                    "n_tok": pa.array(n, pa.int64()),
                    "waste": pa.array(bucket - n, pa.int64()),
                }
            ),
            ["bucket_len"],
        ).aggregate([("n_tok", "sum"), ("waste", "sum"), ([], "count_all")])
        return pa.table(
            {
                "bucket_len": g["bucket_len"],
                "n_docs_p": pc.cast(g["count_all"], pa.int64()),
                "sum_tokens_p": pc.cast(g["n_tok_sum"], pa.int64()),
                "sum_waste_p": pc.cast(g["waste_sum"], pa.int64()),
            }
        )

    out = bucketed_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["bucket_len"],
        [
            ("n_docs_p", "sum", "n_docs"),
            ("sum_tokens_p", "sum", "sum_tokens"),
            ("sum_waste_p", "sum", "sum_waste"),
        ],
    )
    return out.sort("bucket_len")


PADDING_WASTE_PLAN_SQL = f"""
WITH n AS (
  SELECT greatest(CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT),
                  {PAD_MIN_BUCKET}) AS eff,
         CAST(length(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tok
  FROM documents
),
b AS (
  SELECT CAST(1 << length(bin(eff - 1)) AS BIGINT) AS bucket_len, n_tok
  FROM n
)
SELECT bucket_len,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_tok) AS BIGINT) AS sum_tokens,
       CAST(sum(bucket_len - n_tok) AS BIGINT) AS sum_waste
FROM b GROUP BY bucket_len ORDER BY bucket_len
"""


# ---------------------------------------------------------------------------
# Shard-rebalance audit: mod-N vs rendezvous hashing
# ---------------------------------------------------------------------------

REBALANCE_FROM = 8
REBALANCE_TO = 9


def shard_rebalance_audit(
    sf_dir: str, n_from: int = REBALANCE_FROM, n_to: int = REBALANCE_TO
):
    """How many documents MOVE when the shard count grows n_from →
    n_to, under (a) naive mod-N assignment and (b) rendezvous
    (highest-random-weight) hashing — the audit that justifies
    consistent placement before resharding a corpus cache (mod-N
    moves ~(1−1/n_to) of all keys; rendezvous moves ~1/n_to).

    Both engines replay the identical integer hash
    h(k, s) = ((k + s·40503)·2654435761) mod 2³¹ with argmax ties to the
    lowest shard.  Scale shape: one vectorized pass, per-block
    (method × moved) partials, driver fold — assignment never
    materializes."""
    from document_extractor_ray.functions.textstats import (
        _read_docs as _read_doc_cols,
    )

    ds = _read_doc_cols(sf_dir, ["doc_id"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)

        def rendezvous(n: int) -> np.ndarray:
            s = np.arange(n, dtype=np.int64)
            h = ((k[:, None] + s[None, :] * 40503) * 2654435761) % 2147483648
            return np.argmax(h, axis=1)  # first max == lowest shard

        mod_moved = int((k % n_from != k % n_to).sum())
        rdv_moved = int((rendezvous(n_from) != rendezvous(n_to)).sum())
        return pa.table(
            {
                "method": pa.array(["mod", "rendezvous"], pa.string()),
                "n_keys_p": pa.array([len(k)] * 2, pa.int64()),
                "n_moved_p": pa.array([mod_moved, rdv_moved], pa.int64()),
            }
        )

    fold: dict[str, list] = {}
    for tb in map(
        ray.get, ds.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
    ):
        if not tb.num_rows:
            continue
        for m, nk, nm in zip(
            tb["method"].to_pylist(),
            tb["n_keys_p"].to_pylist(),
            tb["n_moved_p"].to_pylist(),
        ):
            cur = fold.setdefault(m, [0, 0])
            cur[0] += int(nk)
            cur[1] += int(nm)
    methods = sorted(fold)
    return pa.table(
        {
            "method": pa.array(methods, pa.string()),
            "n_keys": pa.array([fold[m][0] for m in methods], pa.int64()),
            "n_moved": pa.array([fold[m][1] for m in methods], pa.int64()),
            "moved_permille": pa.array(
                [fold[m][1] * 1000 // fold[m][0] for m in methods], pa.int64()
            ),
        }
    )


def shard_rebalance_audit_sql(
    n_from: int = REBALANCE_FROM, n_to: int = REBALANCE_TO
) -> str:
    return f"""
WITH rdv AS (
  SELECT d.doc_id, n.n, s.s,
         ((d.doc_id + s.s * 40503) * 2654435761) % 2147483648 AS h
  FROM documents d
  CROSS JOIN (SELECT unnest([{n_from}, {n_to}]) AS n) n
  CROSS JOIN range(0, {n_to}) s(s)
  WHERE s.s < n.n
),
asg AS (
  SELECT doc_id, n, s FROM (
    SELECT doc_id, n, s,
           row_number() OVER (PARTITION BY doc_id, n
                              ORDER BY h DESC, s) AS rn
    FROM rdv) WHERE rn = 1
),
rdv_moves AS (
  SELECT a.doc_id, (a.s != b.s)::INTEGER AS moved
  FROM asg a JOIN asg b ON b.doc_id = a.doc_id
  WHERE a.n = {n_from} AND b.n = {n_to}
),
mod_moves AS (
  SELECT doc_id,
         (doc_id % {n_from} != doc_id % {n_to})::INTEGER AS moved
  FROM documents
),
u AS (
  SELECT 'mod' AS method, moved FROM mod_moves
  UNION ALL
  SELECT 'rendezvous', moved FROM rdv_moves
)
SELECT method,
       CAST(count(*) AS BIGINT) AS n_keys,
       CAST(sum(moved) AS BIGINT) AS n_moved,
       CAST(sum(moved) * 1000 // count(*) AS BIGINT) AS moved_permille
FROM u GROUP BY method ORDER BY method
"""


SHARD_REBALANCE_AUDIT_SQL = shard_rebalance_audit_sql()


# ---------------------------------------------------------------------------
# Multi-epoch token budget planner (data-constrained scaling)
# ---------------------------------------------------------------------------

EPOCH_TOKEN_BUDGET = 1_000_000  # training-run token budget


def epoch_plan(
    sf_dir: str,
    budget: int = EPOCH_TOKEN_BUDGET,
    alpha: float = MIX_TEMPERATURE,
):
    """Per-source epoch plan for a fixed training token budget:
    temperature-mixed target share (the source_temperature_mix
    weights), target tokens = budget·w/Σw, and epochs_milli =
    target·1000 // actual tokens — the data-constrained-scaling
    table that says which sources repeat (>1000) and which are
    subsampled (<1000).  All integer floor arithmetic on the shared
    ln/exp micro identities.

    Scale shape: ONE grouped fold of (source → n_docs, n_tokens)
    (source-bounded), driver arithmetic on the bounded table."""
    import math

    from document_extractor_ray.functions.textstats import _TOKEN_RE

    ds = _read_docs(sf_dir, ["doc_id", "source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.cast(pc.count_substring_regex(t["text"], _TOKEN_RE), pa.int64())
        g = pa.TableGroupBy(
            pa.table({"source": t["source"], "tok": toks}), ["source"]
        ).aggregate([("tok", "sum"), ([], "count_all")])
        return pa.table(
            {
                "source": g["source"],
                "tok_p": pc.cast(g["tok_sum"], pa.int64()),
                "n_p": pc.cast(g["count_all"], pa.int64()),
            }
        )

    fold: dict[str, list] = {}
    for tb in map(
        ray.get, ds.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
    ):
        if not tb.num_rows:
            continue
        for s, tk, n in zip(
            tb["source"].to_pylist(), tb["tok_p"].to_pylist(), tb["n_p"].to_pylist()
        ):
            cur = fold.setdefault(s, [0, 0])
            cur[0] += int(tk)
            cur[1] += int(n)
    sources = sorted(fold)
    w = {
        s: int(math.floor(math.exp(alpha * math.log(fold[s][1])) * 1_000_000 + 0.5))
        for s in sources
    }
    tot_w = sum(w.values())
    out = {k: [] for k in (
        "source", "n_docs", "n_tokens", "w_micro", "target_tokens",
        "epochs_milli",
    )}
    for s in sources:
        target = budget * w[s] // tot_w
        out["source"].append(s)
        out["n_docs"].append(fold[s][1])
        out["n_tokens"].append(fold[s][0])
        out["w_micro"].append(w[s])
        out["target_tokens"].append(target)
        out["epochs_milli"].append(target * 1000 // fold[s][0])
    return pa.table(
        {
            "source": pa.array(out["source"], pa.string()),
            **{k: pa.array(out[k], pa.int64()) for k in list(out)[1:]},
        }
    )


def epoch_plan_sql(
    budget: int = EPOCH_TOKEN_BUDGET, alpha: float = MIX_TEMPERATURE
) -> str:
    return f"""
WITH cnt AS (
  SELECT source,
         CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(length(regexp_extract_all(text, '\\S+'))) AS BIGINT)
           AS n_tokens
  FROM documents GROUP BY source
),
w AS (
  SELECT source, n_docs, n_tokens,
         CAST(round(exp({alpha} * ln(n_docs)) * 1000000) AS BIGINT) AS w_micro
  FROM cnt
),
t AS (
  SELECT *, CAST({budget} * w_micro // (SELECT sum(w_micro) FROM w) AS BIGINT)
              AS target_tokens
  FROM w
)
SELECT source, n_docs, n_tokens, w_micro, target_tokens,
       CAST(target_tokens * 1000 // n_tokens AS BIGINT) AS epochs_milli
FROM t ORDER BY source
"""


EPOCH_PLAN_SQL = epoch_plan_sql()


# ---------------------------------------------------------------------------
# Small-file compaction plan (streaming concat split per source)
# ---------------------------------------------------------------------------

COMPACT_TARGET_CHARS = 4096


def compaction_plan(sf_dir: str, target: int = COMPACT_TARGET_CHARS):
    """Plan compacting per-source document streams into ~``target``-byte
    output files: doc → file ``cum_before // target`` where cum_before
    is the running byte total of earlier (doc_id-ordered) docs in the
    same source — the deterministic streaming-concat split every
    small-file compactor runs before a training export.

    Output: one row per (source, file_idx) with doc count, byte total
    and the doc_id range — the resumable unit a writer would commit.

    Scale plan: sources are few and the split is a per-source prefix
    sum → ``groupby(source).map_groups`` with an Arrow-native kernel
    (PERF-37: per-row-consumable output returns Arrow).  A single
    giant source splits by doc_id ranges with per-range offsets from a
    first bounded sum pass (the two-pass prefix pattern used by
    ``encoding_size_audit``)."""

    def plan(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(t["doc_id"])
        ids = pc.take(t["doc_id"], order).to_numpy(zero_copy_only=False)
        nch = pc.take(t["n_chars"], order).to_numpy(zero_copy_only=False).astype(np.int64)
        cum_before = np.cumsum(nch) - nch
        fidx = cum_before // target
        # per-file aggregation: files are contiguous runs in doc_id order
        starts = np.flatnonzero(np.r_[True, fidx[1:] != fidx[:-1]])
        ends = np.r_[starts[1:], len(fidx)]
        return pa.table(
            {
                "source": pa.array(
                    [t["source"][0].as_py()] * len(starts), pa.string()
                ),
                "file_idx": pa.array(fidx[starts], pa.int64()),
                "n_docs": pa.array(ends - starts, pa.int64()),
                "n_bytes": pa.array(
                    np.add.reduceat(nch, starts), pa.int64()
                ),
                "first_doc": pa.array(ids[starts], pa.int64()),
                "last_doc": pa.array(ids[ends - 1], pa.int64()),
            }
        )

    ds = _read_docs(sf_dir, ["doc_id", "source", "n_chars"])
    return (
        ds.groupby("source")
        .map_groups(plan, batch_format="pyarrow")
        .sort(["source", "file_idx"])
    )


COMPACTION_PLAN_SQL = f"""
WITH c AS (
  SELECT source, doc_id, n_chars,
         CAST(COALESCE(sum(n_chars) OVER (
             PARTITION BY source ORDER BY doc_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT)
           AS cum_before
  FROM documents
)
SELECT source,
       CAST(cum_before // {COMPACT_TARGET_CHARS} AS BIGINT) AS file_idx,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS n_bytes,
       CAST(min(doc_id) AS BIGINT) AS first_doc,
       CAST(max(doc_id) AS BIGINT) AS last_doc
FROM c GROUP BY 1, 2 ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Quality-ordered token budget allocation (epochs-capped waterfilling)
# ---------------------------------------------------------------------------

BUDGET_MAX_EPOCHS = 2  # no source repeats more than this many times


def token_budget_allocation(sf_dir: str, max_epochs: int = BUDGET_MAX_EPOCHS):
    """Allocate a global training-token budget (half the corpus's
    tokens) across sources by quality-ordered waterfilling: sources
    ranked by gopher-rules pass rate get filled first, each capped at
    ``max_epochs`` repeats of its own tokens — the "how many epochs of
    which source" table a data-mixture plan starts from (the
    source_temperature_mix sibling with a hard budget instead of a
    temperature).  Per source: available tokens, doc count, quality
    permille, allocated tokens, allocated milli-epochs.

    Scale shape: two scans, both folding source-bounded partials
    (token totals from the documents pass, gopher pass counts from
    doc_quality_composite's single vectorized pass); the greedy fill
    runs on the |sources|-row table on the driver."""
    from document_extractor_ray.functions.bucketing import fold_partials
    from document_extractor_ray.functions.textstats import (
        FAIL_GOPHER,
        _TOKEN_RE,
        doc_quality_composite,
    )

    docs = _read_docs(sf_dir, ["source", "text"])

    def tok_partial(t: pa.Table) -> pa.Table:
        toks = pc.cast(pc.count_substring_regex(t["text"], _TOKEN_RE), pa.int64())
        g = pa.TableGroupBy(
            pa.table({"source": t["source"], "toks": toks}), ["source"]
        ).aggregate([("toks", "sum"), ([], "count_all")])
        return pa.table(
            {
                "source": g["source"],
                "tokens": g["toks_sum"],
                "n_docs": pc.cast(g["count_all"], pa.int64()),
            }
        )

    stats = fold_partials(
        docs.map_batches(tok_partial, batch_format="pyarrow"),
        "source",
        ["tokens", "n_docs"],
    )

    comp = doc_quality_composite(sf_dir, extra_cols=("source",))

    def pass_partial(t: pa.Table) -> pa.Table:
        ok = pc.cast(
            pc.equal(
                pc.bit_wise_and(t["fail_mask"], pa.scalar(FAIL_GOPHER, pa.int64())),
                pa.scalar(0, pa.int64()),
            ),
            pa.int64(),
        )
        g = pa.TableGroupBy(
            pa.table({"source": t["source"], "ok": ok}), ["source"]
        ).aggregate([("ok", "sum")])
        return pa.table({"source": g["source"], "n_pass": g["ok_sum"]})

    n_pass = fold_partials(
        comp.map_batches(pass_partial, batch_format="pyarrow"), "source", "n_pass"
    )

    srcs = sorted(stats)
    quality = {s: 1000 * n_pass.get(s, 0) // stats[s][1] for s in srcs}
    total = sum(stats[s][0] for s in srcs)
    budget = total // 2
    order = sorted(srcs, key=lambda s: (-quality[s], s))
    cols = {
        k: []
        for k in (
            "source",
            "tokens",
            "n_docs",
            "quality_permille",
            "tokens_alloc",
            "epochs_milli",
        )
    }
    cum_before = 0
    for s in order:
        tokens, n_docs = stats[s]
        cap = max_epochs * tokens
        alloc = min(cap, max(0, budget - cum_before))
        cum_before += cap
        cols["source"].append(s)
        cols["tokens"].append(tokens)
        cols["n_docs"].append(n_docs)
        cols["quality_permille"].append(quality[s])
        cols["tokens_alloc"].append(alloc)
        cols["epochs_milli"].append(1000 * alloc // max(tokens, 1))
    return pa.table(
        {
            "source": pa.array(cols["source"], pa.string()),
            "tokens": pa.array(cols["tokens"], pa.int64()),
            "n_docs": pa.array(cols["n_docs"], pa.int64()),
            "quality_permille": pa.array(cols["quality_permille"], pa.int64()),
            "tokens_alloc": pa.array(cols["tokens_alloc"], pa.int64()),
            "epochs_milli": pa.array(cols["epochs_milli"], pa.int64()),
        }
    )


def _token_budget_sql(max_epochs: int = BUDGET_MAX_EPOCHS) -> str:
    from document_extractor_ray.functions.textstats import GOPHER_RULES_SQL

    return f"""
WITH g AS MATERIALIZED (SELECT doc_id, keep FROM ({GOPHER_RULES_SQL})),
t AS (
  SELECT source,
         CAST(sum(length(regexp_extract_all(text, '\\S+'))) AS BIGINT) AS tokens,
         CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(g.keep) AS BIGINT) AS n_pass
  FROM documents d JOIN g USING (doc_id) GROUP BY 1
),
q AS (SELECT source, tokens, n_docs,
             CAST((1000 * n_pass) // n_docs AS BIGINT) AS quality_permille
      FROM t),
w AS (
  SELECT q.*, {max_epochs} * tokens AS cap,
         coalesce(sum({max_epochs} * tokens) OVER (
             ORDER BY quality_permille DESC, source
             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cum_before,
         (SELECT sum(tokens) // 2 FROM q) AS budget
  FROM q
)
SELECT source, tokens, n_docs, quality_permille,
       CAST(least(cap, greatest(0, budget - cum_before)) AS BIGINT)
         AS tokens_alloc,
       CAST((1000 * least(cap, greatest(0, budget - cum_before)))
            // greatest(tokens, 1) AS BIGINT) AS epochs_milli
FROM w ORDER BY quality_permille DESC, source
"""


TOKEN_BUDGET_ALLOCATION_SQL = _token_budget_sql()


# ---------------------------------------------------------------------------
# Pack-boundary bigram audit (cross-document token adjacency)
# ---------------------------------------------------------------------------

def pack_boundary_bigrams(
    sf_dir: str, window: int = PACK_WINDOW, range_size: int = PACK_RANGE
):
    """Cross-document contamination audit of the greedy packer: every
    boundary where two docs sit adjacent inside one packed example
    creates a synthetic bigram (last token of the earlier doc, first
    token of the next) the model will see during training.  Emits the
    count per boundary bigram — the direct measure of what token
    adjacencies packing fabricates (why packers insert EOS/BOS).

    Scale shape: identical to pack_assignments (slim per-doc rows
    through the doc_id-range groupby, block-layout independent); the
    folded output is bounded by vocab^2."""
    from document_extractor_ray.functions.bucketing import fold_partials

    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def per_doc(t: pa.Table) -> pa.Table:
        toks = pc.cast(pc.count_substring_regex(t["text"], r"\S+"), pa.int64())
        first = pc.struct_field(
            pc.extract_regex(t["text"], r"^(?P<f>\S+)"), "f"
        )
        last = pc.struct_field(
            pc.extract_regex(t["text"], r"(?P<l>\S+)\s*$"), "l"
        )
        rng = pc.divide(t["doc_id"], range_size)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": toks,
                "first_tok": first,
                "last_tok": last,
                "rng": rng,
            }
        )

    def per_range(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("doc_id")
        toks = g["n_tokens"].to_numpy()
        ex = np.empty(len(g), np.int64)
        ids = g["doc_id"].to_numpy()
        cur_start, cur_tok = None, 0
        for k, (d, n) in enumerate(zip(ids, toks)):
            if n > window:
                ex[k] = d
                cur_start, cur_tok = None, 0
                continue
            if cur_start is not None and cur_tok + n > window:
                cur_start, cur_tok = None, 0
            if cur_start is None:
                cur_start, cur_tok = int(d), 0
            ex[k] = cur_start
            cur_tok += int(n)
        if len(g) < 2:
            return pa.table(
                {
                    "tok_a": pa.array([], pa.string()),
                    "tok_b": pa.array([], pa.string()),
                    "n": pa.array([], pa.int64()),
                }
            )
        m = ex[1:] == ex[:-1]
        la = g["last_tok"].to_numpy()[:-1][m]
        fb = g["first_tok"].to_numpy()[1:][m]
        ok = pd.notna(la) & pd.notna(fb)
        pairs = pd.DataFrame({"tok_a": la[ok], "tok_b": fb[ok]})
        cnt = pairs.groupby(["tok_a", "tok_b"], sort=True).size()
        return pa.table(
            {
                "tok_a": pa.array([k[0] for k in cnt.index], pa.string()),
                "tok_b": pa.array([k[1] for k in cnt.index], pa.string()),
                "n": pa.array(cnt.to_numpy().astype(np.int64), pa.int64()),
            }
        )

    cells = fold_partials(
        ds.map_batches(per_doc, batch_format="pyarrow")
        .groupby("rng")
        .map_groups(per_range, batch_format="pandas"),
        ["tok_a", "tok_b"],
        "n",
    )
    keys = sorted(cells)
    return pa.table(
        {
            "tok_a": pa.array([k[0] for k in keys], pa.string()),
            "tok_b": pa.array([k[1] for k in keys], pa.string()),
            "n_boundaries": pa.array([cells[k] for k in keys], pa.int64()),
        }
    )


def pack_boundary_bigrams_sql(
    window: int = PACK_WINDOW, range_size: int = PACK_RANGE
) -> str:
    """Oracle: the shared first-fit walk, self-joined on consecutive
    in-range positions with equal example_id (an oversize doc's
    example_id is its own doc_id, so it never pairs)."""
    return f"""
WITH RECURSIVE {_pack_walk_ctes(window, range_size)},
w AS MATERIALIZED (SELECT rng, i, doc_id, example_id FROM walk),
b AS (
  SELECT regexp_extract(t1.text, '(\\S+)\\s*$', 1) AS tok_a,
         regexp_extract(t2.text, '(\\S+)', 1) AS tok_b
  FROM w w1
  JOIN w w2 ON w2.rng = w1.rng AND w2.i = w1.i + 1
            AND w2.example_id = w1.example_id
  JOIN documents t1 ON t1.doc_id = w1.doc_id
  JOIN documents t2 ON t2.doc_id = w2.doc_id
)
SELECT tok_a, tok_b, CAST(count(*) AS BIGINT) AS n_boundaries
FROM b WHERE tok_a IS NOT NULL AND tok_b IS NOT NULL
GROUP BY 1, 2 ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Bin-packing optimality audit (greedy vs per-range lower bound)
# ---------------------------------------------------------------------------

def pack_optimality_audit(
    sf_dir: str, window: int = PACK_WINDOW, range_size: int = PACK_RANGE
):
    """How far is the greedy first-fit packer from the bin-packing
    lower bound?  Per doc_id range: LB = n_oversize +
    ceil(sum(fitting tokens)/window) vs the examples actually emitted;
    the one-row rollup (ranges, actual, LB, ranges already optimal) is
    the go/no-go for investing in a smarter (offline best-fit) packer
    — complements pack_efficiency_stats' fill histogram with the
    optimality gap.

    Scale shape: the pack_assignments range groupby; each range
    collapses to ONE stat row inside its partition and a constant-key
    fold sums them, so the driver sees O(blocks), never O(ranges)."""
    from document_extractor_ray.functions.bucketing import fold_partials

    ds = _read_docs(sf_dir, ["doc_id", "text"])

    def count_tokens(t: pa.Table) -> pa.Table:
        toks = pc.cast(pc.count_substring_regex(t["text"], r"\S+"), pa.int64())
        rng = pc.divide(t["doc_id"], range_size)
        return pa.table({"doc_id": t["doc_id"], "n_tokens": toks, "rng": rng})

    def per_range(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("doc_id")
        toks = g["n_tokens"].to_numpy()
        over = toks > window
        fit_toks = int(toks[~over].sum())
        lb = int(over.sum()) + (fit_toks + window - 1) // window
        # replay the greedy packer to count emitted examples
        n_ex = 0
        cur_tok = -1  # -1 = no open example
        for n in toks:
            if n > window:
                n_ex += 1
                cur_tok = -1
                continue
            if cur_tok < 0 or cur_tok + n > window:
                n_ex += 1
                cur_tok = 0
            cur_tok += int(n)
        return pa.table(
            {
                "k": pa.array([1], pa.int64()),
                "n_ranges": pa.array([1], pa.int64()),
                "n_examples": pa.array([n_ex], pa.int64()),
                "lb_examples": pa.array([lb], pa.int64()),
                "optimal_ranges": pa.array([int(n_ex == lb)], pa.int64()),
            }
        )

    tot = fold_partials(
        ds.map_batches(count_tokens, batch_format="pyarrow")
        .groupby("rng")
        .map_groups(per_range, batch_format="pandas"),
        "k",
        ["n_ranges", "n_examples", "lb_examples", "optimal_ranges"],
    )[1]
    return pa.table(
        {
            "n_ranges": pa.array([int(tot[0])], pa.int64()),
            "n_examples": pa.array([int(tot[1])], pa.int64()),
            "lb_examples": pa.array([int(tot[2])], pa.int64()),
            "optimal_ranges": pa.array([int(tot[3])], pa.int64()),
        }
    )


def pack_optimality_audit_sql(
    window: int = PACK_WINDOW, range_size: int = PACK_RANGE
) -> str:
    """Oracle: the shared walk, rolled up per range against the
    ceil-sum lower bound."""
    return f"""
WITH RECURSIVE {_pack_walk_ctes(window, range_size)},
per_rng AS (
  SELECT rng,
         CAST(count(DISTINCT example_id) AS BIGINT) AS actual,
         CAST(sum(CASE WHEN oversize THEN 1 ELSE 0 END) AS BIGINT) AS n_over,
         CAST(sum(CASE WHEN oversize THEN 0 ELSE n_tokens END) AS BIGINT)
           AS toks
  FROM walk GROUP BY rng
),
x AS (
  SELECT rng, actual,
         n_over + (toks + {window} - 1) // {window} AS lb
  FROM per_rng
)
SELECT CAST(count(*) AS BIGINT) AS n_ranges,
       CAST(sum(actual) AS BIGINT) AS n_examples,
       CAST(sum(lb) AS BIGINT) AS lb_examples,
       CAST(sum(CASE WHEN actual = lb THEN 1 ELSE 0 END) AS BIGINT)
         AS optimal_ranges
FROM x
"""


# ---------------------------------------------------------------------------
# Consistent-hash ring rebalance audit (vnode ring vs rendezvous)
# ---------------------------------------------------------------------------

RING_VNODES = 8


def hashring_moved_keys(
    sf_dir: str,
    n_from: int = REBALANCE_FROM,
    n_to: int = REBALANCE_TO,
    vnodes: int = RING_VNODES,
):
    """Consistent-hash RING placement audit: with ``vnodes`` virtual
    nodes per shard on a 2^31 ring, how many documents move when the
    shard count grows n_from -> n_to?  Completes the placement family
    (shard_balance = load, shard_rebalance = mod vs rendezvous, this =
    the ring actual caches use) with the same integer avalanche hash.
    Clockwise successor = argmin over vnodes of (pos - keypos) mod
    2^31, ties resolved by the packed (delta, shard, vnode) scalar —
    one deterministic argmin both engines replay.

    Scale shape: one vectorized pass (keys x n_to*vnodes delta
    matrix per block), per-block moved-count partials, driver fold."""
    from document_extractor_ray.functions.bucketing import fold_partials
    from document_extractor_ray.functions.textstats import (
        _read_docs as _read_doc_cols,
    )

    M31 = 2147483648

    def ring_positions(n: int) -> tuple:
        s = np.repeat(np.arange(n, dtype=np.int64), vnodes)
        v = np.tile(np.arange(vnodes, dtype=np.int64), n)
        pos = ((s * 64 + v + 7) * 2654435761) % M31
        return pos, s, v

    ds = _read_doc_cols(sf_dir, ["doc_id"])

    def partial(t: pa.Table) -> pa.Table:
        k = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        kp = (k * 2654435761) % M31

        def assign(n: int) -> np.ndarray:
            pos, s, v = ring_positions(n)
            delta = (pos[None, :] - kp[:, None]) % M31
            packed = delta * 65536 + s[None, :] * vnodes + v[None, :]
            return s[np.argmin(packed, axis=1)]

        moved = int((assign(n_from) != assign(n_to)).sum())
        return pa.table(
            {
                "k": pa.array([1], pa.int64()),
                "n_keys": pa.array([len(k)], pa.int64()),
                "n_moved": pa.array([moved], pa.int64()),
            }
        )

    tot = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        "k",
        ["n_keys", "n_moved"],
    )[1]
    n_keys, n_moved = (int(v) for v in tot)
    return pa.table(
        {
            "n_keys": pa.array([n_keys], pa.int64()),
            "n_moved": pa.array([n_moved], pa.int64()),
            "moved_permille": pa.array(
                [1000 * n_moved // n_keys if n_keys else 0], pa.int64()
            ),
            "ideal_permille": pa.array([1000 // n_to], pa.int64()),
        }
    )


def hashring_moved_keys_sql(
    n_from: int = REBALANCE_FROM,
    n_to: int = REBALANCE_TO,
    vnodes: int = RING_VNODES,
) -> str:
    return f"""
WITH ring AS (
  SELECT n.n, s.s, v.v,
         ((s.s * 64 + v.v + 7) * 2654435761) % 2147483648 AS pos
  FROM (SELECT unnest([{n_from}, {n_to}]) AS n) n
  CROSS JOIN range(0, {n_to}) s(s)
  CROSS JOIN range(0, {vnodes}) v(v)
  WHERE s.s < n.n
),
kp AS (
  SELECT doc_id, (doc_id * 2654435761) % 2147483648 AS kpos
  FROM documents
),
asg AS (
  SELECT doc_id, n, s FROM (
    SELECT kp.doc_id, r.n, r.s,
           row_number() OVER (
             PARTITION BY kp.doc_id, r.n
             ORDER BY ((r.pos - kp.kpos + 2147483648) % 2147483648) * 65536
                      + r.s * {vnodes} + r.v) AS rn
    FROM kp CROSS JOIN ring r) WHERE rn = 1
),
mv AS (
  SELECT a.doc_id, (a.s != b.s)::INTEGER AS moved
  FROM asg a JOIN asg b ON b.doc_id = a.doc_id
  WHERE a.n = {n_from} AND b.n = {n_to}
)
SELECT CAST(count(*) AS BIGINT) AS n_keys,
       CAST(sum(moved) AS BIGINT) AS n_moved,
       CAST(1000 * sum(moved) // count(*) AS BIGINT) AS moved_permille,
       CAST(1000 // {n_to} AS BIGINT) AS ideal_permille
FROM mv
"""


# ---------------------------------------------------------------------------
# Packing position bias by source (who gets the window starts)
# ---------------------------------------------------------------------------

def pack_position_source_mix(
    sf_dir: str, window: int = PACK_WINDOW, range_size: int = PACK_RANGE
):
    """Packing position bias: per source, how many docs START a
    packed example (example_id == doc_id — full attention context)
    vs the source's overall doc share.  A source whose
    start_share_permille diverges from doc_share_permille is
    systematically advantaged/penalized by the packer — the bias
    audit before anyone trains on position-sensitive objectives.

    Scale shape: pack_assignments' range groupby with source carried
    through; |sources|-bounded partials fold on the driver."""
    from document_extractor_ray.functions.bucketing import fold_partials

    ds = _read_docs(sf_dir, ["doc_id", "text", "source"])

    def count_tokens(t: pa.Table) -> pa.Table:
        toks = pc.cast(pc.count_substring_regex(t["text"], r"\S+"), pa.int64())
        rng = pc.divide(t["doc_id"], range_size)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_tokens": toks,
                "source": t["source"],
                "rng": rng,
            }
        )

    def per_range(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values("doc_id")
        toks = g["n_tokens"].to_numpy()
        ids = g["doc_id"].to_numpy()
        ex = np.empty(len(g), np.int64)
        cur_start, cur_tok = None, 0
        for i, (d, n) in enumerate(zip(ids, toks)):
            if n > window:
                ex[i] = d
                cur_start, cur_tok = None, 0
                continue
            if cur_start is not None and cur_tok + n > window:
                cur_start, cur_tok = None, 0
            if cur_start is None:
                cur_start, cur_tok = int(d), 0
            ex[i] = cur_start
            cur_tok += int(n)
        df = pd.DataFrame(
            {
                "source": g["source"].to_numpy(),
                "n_docs": np.int64(1),
                "n_starts": (ex == ids).astype(np.int64),
            }
        )
        out = df.groupby("source", sort=True).sum().reset_index()
        return pa.table(
            {
                "source": pa.array(out["source"], pa.string()),
                "n_docs": pa.array(out["n_docs"], pa.int64()),
                "n_starts": pa.array(out["n_starts"], pa.int64()),
            }
        )

    cells = fold_partials(
        ds.map_batches(count_tokens, batch_format="pyarrow")
        .groupby("rng")
        .map_groups(per_range, batch_format="pandas"),
        "source",
        ["n_docs", "n_starts"],
    )
    total_docs = sum(v[0] for v in cells.values())
    total_starts = sum(v[1] for v in cells.values())
    keys = sorted(cells)
    return pa.table(
        {
            "source": pa.array(keys, pa.string()),
            "n_docs": pa.array([cells[k][0] for k in keys], pa.int64()),
            "n_starts": pa.array([cells[k][1] for k in keys], pa.int64()),
            "doc_share_permille": pa.array(
                [1000 * cells[k][0] // total_docs for k in keys], pa.int64()
            ),
            "start_share_permille": pa.array(
                [1000 * cells[k][1] // total_starts for k in keys], pa.int64()
            ),
        }
    )


def pack_position_source_mix_sql(
    window: int = PACK_WINDOW, range_size: int = PACK_RANGE
) -> str:
    return f"""
WITH RECURSIVE {_pack_walk_ctes(window, range_size)},
s AS (
  SELECT d.source,
         CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(CASE WHEN w.example_id = w.doc_id THEN 1 ELSE 0 END)
              AS BIGINT) AS n_starts
  FROM walk w JOIN documents d ON d.doc_id = w.doc_id
  GROUP BY 1
)
SELECT source, n_docs, n_starts,
       CAST(1000 * n_docs // (SELECT sum(n_docs) FROM s) AS BIGINT)
         AS doc_share_permille,
       CAST(1000 * n_starts // (SELECT sum(n_starts) FROM s) AS BIGINT)
         AS start_share_permille
FROM s ORDER BY source
"""


# ---------------------------------------------------------------------------
# T5-style span-corruption planning table (per source)
# ---------------------------------------------------------------------------

SPAN_NOISE_PERMILLE = 150
SPAN_MEAN_LEN = 3


def span_corruption_plan(sf_dir: str):
    """Span-corruption (T5 denoising) budget per source: per doc the
    corrupted-token budget masked = (tokens·150) // 1000 and the span
    count spans = ceil(masked / 3) (mean span length 3), rolled up to
    source totals plus the post-corruption input length
    net_tokens = tokens − masked + spans (each span collapses to one
    sentinel) — the planning table that sizes encoder/decoder lengths
    and sentinel-vocab needs BEFORE a corruption job runs at corpus
    scale.  Pure integer floor/ceil arithmetic per doc.

    Scale shape: per-block token counting via the regex run-count
    kernel, (source -> 5 counters) driver fold; no shuffle."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from document_extractor_ray.functions.bucketing import fold_partials
    from document_extractor_ray.functions.textstats import _read_docs

    ds = _read_docs(sf_dir, ["source", "text"])

    def partial(t: pa.Table) -> pa.Table:
        toks = pc.cast(pc.count_substring_regex(t["text"], r"\S+"), pa.int64())
        tk = toks.to_numpy(zero_copy_only=False)
        masked = (tk * SPAN_NOISE_PERMILLE) // 1000
        spans = (masked + SPAN_MEAN_LEN - 1) // SPAN_MEAN_LEN
        g = pa.TableGroupBy(
            pa.table(
                {
                    "source": t["source"],
                    "tk": pa.array(tk, pa.int64()),
                    "mk": pa.array(masked, pa.int64()),
                    "sp": pa.array(spans, pa.int64()),
                }
            ),
            ["source"],
        ).aggregate([("tk", "sum"), ("mk", "sum"), ("sp", "sum"), ([], "count_all")])
        return pa.table(
            {
                "source": g["source"],
                "tk": g["tk_sum"],
                "mk": g["mk_sum"],
                "sp": g["sp_sum"],
                "n": pc.cast(g["count_all"], pa.int64()),
            }
        )

    acc = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"),
        "source",
        ["tk", "mk", "sp", "n"],
    )
    srcs = sorted(acc)
    return pa.table(
        {
            "source": pa.array(srcs, pa.string()),
            "n_docs": pa.array([acc[s][3] for s in srcs], pa.int64()),
            "sum_tokens": pa.array([acc[s][0] for s in srcs], pa.int64()),
            "sum_masked": pa.array([acc[s][1] for s in srcs], pa.int64()),
            "sum_spans": pa.array([acc[s][2] for s in srcs], pa.int64()),
            "net_tokens": pa.array(
                [acc[s][0] - acc[s][1] + acc[s][2] for s in srcs], pa.int64()
            ),
        }
    )


SPAN_CORRUPTION_SQL = f"""
WITH c AS (
  SELECT source,
         CAST(length(regexp_replace(text, '\\S+', '#', 'g'))
              - length(regexp_replace(text, '\\S+', '', 'g')) AS BIGINT) AS tk
  FROM documents
),
p AS (
  SELECT source, tk,
         (tk * {SPAN_NOISE_PERMILLE}) // 1000 AS mk
  FROM c
),
q AS (SELECT source, tk, mk, (mk + {SPAN_MEAN_LEN - 1}) // {SPAN_MEAN_LEN} AS sp FROM p)
SELECT source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(tk) AS BIGINT) AS sum_tokens,
       CAST(sum(mk) AS BIGINT) AS sum_masked,
       CAST(sum(sp) AS BIGINT) AS sum_spans,
       CAST(sum(tk) - sum(mk) + sum(sp) AS BIGINT) AS net_tokens
FROM q GROUP BY source ORDER BY source
"""


# ---------------------------------------------------------------------------
# Walker/Vose alias-table construction for source-mixture sampling
# ---------------------------------------------------------------------------


def alias_table_plan(sf_dir: str):
    """Walker alias table (Vose's O(k) construction) over the corpus
    source distribution — the O(1)-per-draw sampler a mixture/
    temperature data loader actually uses to draw sources at training
    time (source_temperature_mix computes the target weights; this op
    compiles a distribution into the (threshold, alias) table).  All
    integer: scaled weight u_s = k·c_s against total T, FIFO
    small/large queues seeded in lexicographic source order, one merge
    emitted per step; per-cell invariant Σ mass(s) = u_s exactly (no
    float probabilities anywhere).  SQL twin: a small-step
    recursive-CTE machine over two struct-list queues.

    Scale shape: one (source → count) fold (source-bounded); the O(k)
    construction runs on the driver over the bounded source domain —
    the alias table itself is what gets broadcast to data-loader
    workers at training time."""
    from document_extractor_ray.functions.bucketing import fold_partials

    ds = _read_docs(sf_dir, ["source"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(pa.table({"source": t["source"]}), ["source"]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {"source": g["source"], "n": pc.cast(g["count_all"], pa.int64())}
        )

    cnts = fold_partials(
        ds.map_batches(partial, batch_format="pyarrow"), "source", "n"
    )
    order = sorted(cnts)
    k = len(order)
    total = sum(int(cnts[s]) for s in order)
    u = {s: k * int(cnts[s]) for s in order}
    small = [s for s in order if u[s] < total]
    large = [s for s in order if u[s] >= total]
    em: dict = {}
    while small and large:
        s = small.pop(0)
        l = large[0]
        em[s] = (u[s], l)
        u[l] -= total - u[s]
        if u[l] < total:
            large.pop(0)
            small.append(l)
    for s in large + small:
        em[s] = (total, s)
    return pa.table(
        {
            "source": pa.array(order, pa.string()),
            "n_docs": pa.array([int(cnts[s]) for s in order], pa.int64()),
            "weight_k": pa.array([k * int(cnts[s]) for s in order], pa.int64()),
            "threshold_num": pa.array([em[s][0] for s in order], pa.int64()),
            "alias_source": pa.array([em[s][1] for s in order], pa.string()),
        }
    )


ALIAS_TABLE_PLAN_SQL = """
WITH RECURSIVE cnt AS (
  SELECT source AS s, CAST(count(*) AS BIGINT) AS c FROM documents GROUP BY 1
),
tot AS (
  SELECT CAST(sum(c) AS BIGINT) AS t, CAST(count(*) AS BIGINT) AS k FROM cnt
),
w0 AS (SELECT s, CAST((SELECT k FROM tot) * c AS BIGINT) AS u FROM cnt),
init AS (
  SELECT
    coalesce(list({'s': s, 'u': u} ORDER BY s)
               FILTER (WHERE u < (SELECT t FROM tot)),
             CAST([] AS STRUCT(s VARCHAR, u BIGINT)[])) AS small,
    coalesce(list({'s': s, 'u': u} ORDER BY s)
               FILTER (WHERE u >= (SELECT t FROM tot)),
             CAST([] AS STRUCT(s VARCHAR, u BIGINT)[])) AS large
  FROM w0
),
walk AS (
  SELECT small, large,
         CAST([] AS STRUCT(s VARCHAR, thr BIGINT, al VARCHAR)[]) AS em
  FROM init
  UNION ALL
  SELECT CASE WHEN nl < t THEN small[2:len(small)] || [{'s': lhead.s, 'u': nl}]
              ELSE small[2:len(small)] END,
         CASE WHEN nl < t THEN large[2:len(large)]
              ELSE [{'s': lhead.s, 'u': nl}] || large[2:len(large)] END,
         em || [{'s': shead.s, 'thr': shead.u, 'al': lhead.s}]
  FROM (
    SELECT small, large, em,
           small[1] AS shead, large[1] AS lhead,
           large[1].u - ((SELECT t FROM tot) - small[1].u) AS nl,
           (SELECT t FROM tot) AS t
    FROM walk
    WHERE len(small) > 0 AND len(large) > 0
  ) w
),
fin AS (SELECT * FROM walk ORDER BY len(em) DESC LIMIT 1),
emitted AS (
  SELECT e.s AS s, e.thr AS thr, e.al AS al
  FROM (SELECT unnest(em) AS e FROM fin)
  UNION ALL
  SELECT l.s, (SELECT t FROM tot), l.s
  FROM (SELECT unnest(large) AS l FROM fin)
  UNION ALL
  SELECT l.s, (SELECT t FROM tot), l.s
  FROM (SELECT unnest(small) AS l FROM fin)
)
SELECT c.s AS source, c.c AS n_docs,
       CAST((SELECT k FROM tot) * c.c AS BIGINT) AS weight_k,
       e.thr AS threshold_num, e.al AS alias_source
FROM cnt c JOIN emitted e ON e.s = c.s
ORDER BY source
"""
