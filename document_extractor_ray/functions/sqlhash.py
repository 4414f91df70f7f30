"""DuckDB-SQL oracle builders for the content-hash operator family.

The dedup/fingerprint operators (SimHash, MinHash-LSH, n-gram Jaccard,
winnowing fingerprints, decontamination) are deterministic given their
seeded constants, so they ARE SQL-expressible — the only non-trivial
primitive is the per-word ``zlib.crc32``, which this module computes in
pure SQL with a recursive CTE: generate the 256-entry CRC-32 table
(polynomial 0xEDB88320, the zlib/PKZIP reflected form), then fold the
word's UTF-8 bytes (via ``hex(encode(w))`` + a 256-row hex lookup).

Every numeric constant (shingle mix primes, MinHash ``(a_i, b_i)``
params, band multipliers) is imported from the live kernels in
``dedup.py``/``textstats.py`` and inlined into the generated SQL, so
the oracle can never drift from the engine.

uint64 wraparound arithmetic maps to ``HUGEINT`` (int128) with explicit
``% 2^64``; the one place a 64x64-bit product can overflow int128 (the
band hash, where both factors are full 64-bit values) uses a split
multiply (``_mulmod64``).

These strings run over the driver's registered parquet views
(``documents`` et al.) at sf0.01 — the cross products (words x 64
hashes) are a few million rows there, well inside DuckDB's comfort
zone.  They are oracles, not engines: the Ray pipelines remain the
scale path.
"""

from __future__ import annotations

import numpy as np

from document_extractor_ray.functions import dedup as _dd

P64 = 1 << 64
GOLD = int(_dd._SIMHASH_MIX)  # 0x9E3779B97F4A7C15

# ---------------------------------------------------------------------------
# Shared CTE fragments
# ---------------------------------------------------------------------------

# crc_gen/crc_table: the 256-entry zlib CRC-32 table, 8 shift-xor folds
# per entry (0xEDB88320 = 3988292384).
_CRC_TABLE = """crc_gen(n, step, c) AS (
  SELECT i, 0, i::BIGINT FROM range(256) t(i)
  UNION ALL
  SELECT n, step + 1,
         CASE WHEN c % 2 = 1 THEN xor(c // 2, 3988292384) ELSE c // 2 END
  FROM crc_gen WHERE step < 8
),
crc_table AS (SELECT n, c AS v FROM crc_gen WHERE step = 8),
hexmap AS (SELECT printf('%02x', i) AS h, i::BIGINT AS v FROM range(256) t(i))"""


def _words(lower: bool) -> str:
    """CTEs ``words(doc_id, w, pos)``: whitespace-split tokens of
    ``documents.text`` with 1-based consecutive positions (empty
    fragments from edge whitespace dropped, mirroring str.split())."""
    text = "lower(text)" if lower else "text"
    return f"""split AS (SELECT doc_id, string_split_regex({text}, '\\s+') AS ws FROM documents),
raww AS (SELECT doc_id, unnest(ws) AS w, generate_subscripts(ws, 1) AS p FROM split),
words AS (
  SELECT doc_id, w, row_number() OVER (PARTITION BY doc_id ORDER BY p) AS pos
  FROM raww WHERE w <> ''
)"""


# fold: per distinct word, iterate crc over the word's UTF-8 bytes.
_WORD_CRC = """vhex AS (
  SELECT w, lower(hex(encode(w))) AS hx, octet_length(encode(w)) AS nb
  FROM (SELECT DISTINCT w FROM words)
),
fold(w, j, nb, c) AS (
  SELECT w, 0, nb, 4294967295::BIGINT FROM vhex
  UNION ALL
  SELECT f.w, f.j + 1, f.nb, xor(ct.v, f.c // 256)
  FROM fold f
  JOIN vhex vb ON vb.w = f.w
  JOIN hexmap hm ON hm.h = substr(vb.hx, 2 * f.j + 1, 2)
  JOIN crc_table ct ON ct.n = xor(f.c % 256, hm.v)
  WHERE f.j < f.nb
),
wcrc0 AS (SELECT w, xor(c, 4294967295) AS crc FROM fold WHERE j = nb),
wcrc AS (SELECT words.doc_id, words.pos, wcrc0.crc FROM words JOIN wcrc0 USING (w))"""


def _mulmod64(a: str, b: int) -> str:
    """(a * b) % 2^64 where ``a`` may be a full 64-bit SQL expression
    and ``b`` a python constant < 2^64 — split ``a`` into 32-bit halves
    so no intermediate exceeds HUGEINT."""
    hi = f"((({a}) // 4294967296) * {b}::HUGEINT) % 4294967296"
    lo = f"(({a}) % 4294967296) * {b}::HUGEINT"
    return f"((({hi}) * 4294967296 + ({lo})) % {P64}::HUGEINT)"


def _shingle_cte(k: int) -> str:
    """CTE ``shingle(doc_id, x)``: DISTINCT word-k-gram hashes, the
    exact mirror of ``dedup.shingles`` — h = sum_i crc[pos+i]*P[i%3]
    mod 2^64 for full windows; the short-doc (< k words) branch is the
    sequential fold acc = acc*P[i%3] + crc."""
    P = [int(p) for p in _dd._SHINGLE_P]
    terms = " + ".join(
        f"(c{i}::HUGEINT * {P[i % 3]}::HUGEINT)" for i in range(k)
    )
    leads = ",\n         ".join(
        f"lead(crc, {i}) OVER (PARTITION BY doc_id ORDER BY pos) AS c{i}"
        for i in range(1, k)
    )
    # short-doc fold: acc_j = acc_{j-1} * P[(j-1)%3] + crc_j  (1-based pos)
    return f"""nw AS (SELECT doc_id, count(*) AS n FROM words GROUP BY doc_id),
winh AS (
  SELECT doc_id, crc AS c0,
         {leads}
  FROM wcrc
),
longsh AS (
  SELECT winh.doc_id, ({terms}) % {P64}::HUGEINT AS x
  FROM winh JOIN nw USING (doc_id)
  WHERE nw.n >= {k} AND c{k - 1} IS NOT NULL
),
shortfold(doc_id, j, n, acc) AS (
  SELECT nw.doc_id, 0, nw.n, 0::HUGEINT FROM nw WHERE nw.n < {k} AND nw.n > 0
  UNION ALL
  SELECT f.doc_id, f.j + 1, f.n,
         (CASE f.j % 3
              WHEN 0 THEN {_mulmod64('f.acc', P[0])}
              WHEN 1 THEN {_mulmod64('f.acc', P[1])}
              ELSE {_mulmod64('f.acc', P[2])} END + w.crc) % {P64}::HUGEINT
  FROM shortfold f JOIN wcrc w ON w.doc_id = f.doc_id AND w.pos = f.j + 1
  WHERE f.j < f.n
),
shortsh AS (SELECT doc_id, acc AS x FROM shortfold WHERE j = n),
shingle AS (
  SELECT DISTINCT doc_id, x FROM (
    SELECT doc_id, x FROM longsh UNION ALL SELECT doc_id, x FROM shortsh
  )
)"""


# ---------------------------------------------------------------------------
# SimHash oracle
# ---------------------------------------------------------------------------

def simhash_sql() -> str:
    """Oracle for ``simhash_table``: per-word crc32 mixed by the
    golden-ratio multiply, per-bit majority vote, emitted >> 1 as
    int64 (mirrors ``dedup.simhash64``)."""
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
wh AS (
  SELECT doc_id, pos,
         (crc::HUGEINT * {GOLD}::HUGEINT) % {P64}::HUGEINT AS h
  FROM wcrc
),
nw AS (SELECT doc_id, count(*) AS n FROM wh GROUP BY doc_id),
pow2(b, p) AS (
  SELECT 0, 1::HUGEINT UNION ALL SELECT b + 1, p * 2 FROM pow2 WHERE b < 63
),
votes AS (
  SELECT wh.doc_id, pow2.p, sum((wh.h // pow2.p) % 2) AS v
  FROM wh CROSS JOIN pow2 GROUP BY wh.doc_id, pow2.p
),
sh AS (
  SELECT votes.doc_id,
         sum(CASE WHEN 2 * votes.v - nw.n > 0 THEN votes.p ELSE 0::HUGEINT END) AS val
  FROM votes JOIN nw USING (doc_id) GROUP BY votes.doc_id
)
SELECT d.doc_id, CAST(coalesce(sh.val, 0::HUGEINT) // 2 AS BIGINT) AS simhash
FROM documents d LEFT JOIN sh ON sh.doc_id = d.doc_id
ORDER BY d.doc_id"""


# ---------------------------------------------------------------------------
# MinHash-LSH near-dup pairs oracle
# ---------------------------------------------------------------------------

def _sig_ctes(k: int = 3) -> str:
    """CTEs ``sigs(doc_id, i, sig)``: the 64 MinHash signature values
    per doc — min over shingles of the multiply-shift hash
    (a_i*x + b_i) mod 2^64, constants inlined from ``_hash_params``."""
    a, b = _dd._hash_params()
    hp_rows = ",\n    ".join(
        f"({i}, {int(a[i])}::HUGEINT, {int(b[i])}::HUGEINT)" for i in range(len(a))
    )
    return f"""{_shingle_cte(k)},
hp(i, a, b) AS (VALUES
    {hp_rows}
),
sigs AS (
  SELECT shingle.doc_id, hp.i,
         min((hp.a * shingle.x + hp.b) % {P64}::HUGEINT) AS sig
  FROM shingle CROSS JOIN hp
  GROUP BY shingle.doc_id, hp.i
)"""


def _band_ctes() -> str:
    """CTEs ``bandh(doc_id, band_id, band_hash)``: the 16-band LSH
    bucket keys — sum of sig * band-multiplier mod 2^64, >> 1
    (mirrors the dedup._explode_slim band explode)."""
    bp = [int(v) for v in _dd._BAND_P]
    cases = "\n           ".join(
        f"WHEN {r} THEN {_mulmod64('sigs.sig', bp[r])}" for r in range(len(bp))
    )
    return f"""bandterm AS (
  SELECT doc_id, i // {len(bp)} AS band_id,
         CASE i % {len(bp)}
           {cases}
         END AS term
  FROM sigs
),
bandh AS (
  SELECT doc_id, band_id,
         (sum(term) % {P64}::HUGEINT) // 2 AS band_hash
  FROM bandterm GROUP BY doc_id, band_id
)"""


def minhash_pairs_sql(threshold: float = 0.7) -> str:
    """Oracle for ``minhash_dup_pairs``: band-bucket candidates,
    full-signature agreement >= threshold, distinct (doc_a < doc_b).

    Caveat (documented, not hit by the sf corpora): docs with zero
    shingles get all-max signatures in the engine and would pair with
    est 1.0; they have no shingle rows here.  The engine's
    MAX_BUCKET=1024 skew cap likewise never triggers at sf scale."""
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
{_sig_ctes(k=3)},
{_band_ctes()},
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM bandh a
  JOIN bandh b ON a.band_id = b.band_id AND a.band_hash = b.band_hash
              AND a.doc_id < b.doc_id
),
est AS (
  SELECT c.doc_a, c.doc_b,
         sum(CASE WHEN sa.sig = sb.sig THEN 1 ELSE 0 END)::DOUBLE / 64 AS est_jaccard
  FROM cand c
  JOIN sigs sa ON sa.doc_id = c.doc_a
  JOIN sigs sb ON sb.doc_id = c.doc_b AND sb.i = sa.i
  GROUP BY c.doc_a, c.doc_b
)
SELECT doc_a, doc_b, est_jaccard FROM est
WHERE est_jaccard >= {threshold}
ORDER BY doc_a, doc_b"""


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard (MinHash candidates -> exact verify) oracle
# ---------------------------------------------------------------------------

def ngram_jaccard_sql(
    candidate_threshold: float = 0.5, verify_threshold: float = 0.6
) -> str:
    """Oracle for ``ngram_jaccard_dups``: MinHash-LSH candidates at
    ``candidate_threshold`` verified by exact Jaccard over the DISTINCT
    shingle-hash sets.  The jaccard column is the raw IEEE double
    quotient inter/union — bit-identical to the engine's Python float
    division (no rounding on either side)."""
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
{_sig_ctes(k=3)},
{_band_ctes()},
cand0 AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM bandh a
  JOIN bandh b ON a.band_id = b.band_id AND a.band_hash = b.band_hash
              AND a.doc_id < b.doc_id
),
cand AS (
  SELECT c.doc_a, c.doc_b
  FROM cand0 c
  JOIN sigs sa ON sa.doc_id = c.doc_a
  JOIN sigs sb ON sb.doc_id = c.doc_b AND sb.i = sa.i
  GROUP BY c.doc_a, c.doc_b
  HAVING sum(CASE WHEN sa.sig = sb.sig THEN 1 ELSE 0 END)::DOUBLE / 64
         >= {candidate_threshold}
),
sizes AS (SELECT doc_id, count(*) AS sz FROM shingle GROUP BY doc_id),
inter AS (
  SELECT c.doc_a, c.doc_b, count(*) AS n_inter
  FROM cand c
  JOIN shingle s1 ON s1.doc_id = c.doc_a
  JOIN shingle s2 ON s2.doc_id = c.doc_b AND s2.x = s1.x
  GROUP BY c.doc_a, c.doc_b
),
jacc AS (
  SELECT c.doc_a, c.doc_b,
         coalesce(i.n_inter, 0)::DOUBLE
           / (sa.sz + sb.sz - coalesce(i.n_inter, 0)) AS jaccard
  FROM cand c
  LEFT JOIN inter i ON i.doc_a = c.doc_a AND i.doc_b = c.doc_b
  JOIN sizes sa ON sa.doc_id = c.doc_a
  JOIN sizes sb ON sb.doc_id = c.doc_b
)
SELECT doc_a, doc_b, jaccard FROM jacc
WHERE jaccard >= {verify_threshold}
ORDER BY doc_a, doc_b"""


# ---------------------------------------------------------------------------
# Winnowing fingerprint oracle
# ---------------------------------------------------------------------------

def fingerprints_sql(window: int = 8) -> str:
    """Oracle for ``textstats.fingerprints``: min of Rabin-Karp rolling
    hashes (base 1000003, mod 2^63) over word ``window``-grams; docs
    shorter than the window hash as one whole-doc window (the exact
    branch structure of ``rolling_fingerprint``).  Words are NOT
    lowercased there (text.split())."""
    m63 = 1 << 63
    pw_rows = ",\n    ".join(
        f"({t}, {pow(1000003, t, m63)}::HUGEINT)" for t in range(window)
    )
    return f"""WITH RECURSIVE
{_words(lower=False)},
{_CRC_TABLE},
{_WORD_CRC},
nw AS (SELECT doc_id, count(*) AS n FROM words GROUP BY doc_id),
wlen AS (
  SELECT doc_id, n, CASE WHEN n >= {window} THEN {window} ELSE n END AS l FROM nw
),
pw(t, p) AS (VALUES
    {pw_rows}
),
terms AS (
  SELECT wcrc.doc_id, wcrc.pos - off.j AS s, wcrc.crc::HUGEINT * pw.p AS term
  FROM wcrc
  JOIN wlen USING (doc_id)
  JOIN range({window}) off(j) ON off.j < wlen.l
  JOIN pw ON pw.t = wlen.l - 1 - off.j
  WHERE wcrc.pos - off.j >= 1 AND wcrc.pos - off.j <= wlen.n - wlen.l + 1
),
winhash AS (
  SELECT doc_id, s, sum(term) % {m63}::HUGEINT AS h FROM terms GROUP BY doc_id, s
),
fp AS (SELECT doc_id, min(h) AS v FROM winhash GROUP BY doc_id)
SELECT d.doc_id, CAST(coalesce(fp.v, 0::HUGEINT) AS BIGINT) AS fingerprint
FROM documents d LEFT JOIN fp ON fp.doc_id = d.doc_id
ORDER BY d.doc_id"""


# ---------------------------------------------------------------------------
# Benchmark decontamination oracle
# ---------------------------------------------------------------------------

def decontaminate_sql(k: int = 8, n_benchmark: int = 3, min_hits: int = 1) -> str:
    """Oracle for ``decontaminate_docs``: the benchmark set is the
    ``n_benchmark`` lowest-doc_id documents' distinct word-k-gram
    shingles; every doc counts its distinct-shingle overlap with that
    set (so the benchmark docs provably self-flag)."""
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
{_shingle_cte(k)},
bench AS (
  SELECT DISTINCT x FROM shingle
  WHERE doc_id IN (SELECT doc_id FROM documents ORDER BY doc_id LIMIT {n_benchmark})
),
hits AS (
  SELECT s.doc_id, count(*) AS h
  FROM shingle s JOIN bench b ON b.x = s.x
  GROUP BY s.doc_id
)
SELECT d.doc_id,
       CAST(coalesce(hits.h, 0) AS BIGINT) AS n_benchmark_hits,
       coalesce(hits.h, 0) >= {min_hits} AS contaminated
FROM documents d LEFT JOIN hits ON hits.doc_id = d.doc_id
ORDER BY d.doc_id"""


# ---------------------------------------------------------------------------
# Near-dup clustering oracles (connected components over MinHash pairs)
# ---------------------------------------------------------------------------

def _cluster_ctes(threshold: float) -> str:
    """CTEs ``comp(doc_id, cluster_id)``: connected components of the
    MinHash near-dup pair graph by recursive min-label propagation
    (labels(v, l) grows the set of component members reachable from v;
    min over l is the component id).  Docs in no pair label
    themselves."""
    return f"""pairs AS (
  SELECT c.doc_a, c.doc_b
  FROM (
    SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
    FROM bandh a
    JOIN bandh b ON a.band_id = b.band_id AND a.band_hash = b.band_hash
                AND a.doc_id < b.doc_id
  ) c
  JOIN sigs sa ON sa.doc_id = c.doc_a
  JOIN sigs sb ON sb.doc_id = c.doc_b AND sb.i = sa.i
  GROUP BY c.doc_a, c.doc_b
  HAVING sum(CASE WHEN sa.sig = sb.sig THEN 1 ELSE 0 END)::DOUBLE / 64
         >= {threshold}
),
edges AS (
  SELECT doc_a AS u, doc_b AS v FROM pairs
  UNION ALL SELECT doc_b, doc_a FROM pairs
),
labels(v, l) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT e.u, labels.l FROM edges e JOIN labels ON labels.v = e.v
),
comp AS (SELECT v AS doc_id, min(l) AS cluster_id FROM labels GROUP BY v)"""


def near_dup_clusters_sql(threshold: float = 0.7) -> str:
    """Oracle for ``near_dup_clusters``: (doc_id, cluster_id = min
    doc_id of the component; singletons label themselves)."""
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
{_sig_ctes(k=3)},
{_band_ctes()},
{_cluster_ctes(threshold)}
SELECT doc_id, cluster_id FROM comp ORDER BY doc_id"""


def near_dedup_keep_sql(threshold: float = 0.7) -> str:
    """Oracle for ``near_dedup_keep``: the min-doc_id representative of
    every near-dup cluster."""
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
{_sig_ctes(k=3)},
{_band_ctes()},
{_cluster_ctes(threshold)}
SELECT doc_id FROM comp WHERE doc_id = cluster_id ORDER BY doc_id"""


def token_cms_sql() -> str:
    """Oracle for ``textstats.token_cms_registers``: corpus-wide word
    occurrence counts (same lower+whitespace tokenizer as the shingle
    family's ``_words`` CTE) folded into the d x w count-min matrix —
    per distinct word, crc32 via the shared CTE kernel, bucket =
    ((crc*a_j + b_j) mod 2^64) >> 56 per hash row (constants inlined
    from the live ``textstats.CMS_A``/``CMS_B``), cell value = sum of
    the words' counts.  crc < 2^32 and a_j < 2^64, so the product
    fits HUGEINT without the split multiply."""
    from document_extractor_ray.functions import textstats as _ts

    hp_rows = ",\n    ".join(
        f"({j}, {int(_ts.CMS_A[j])}::HUGEINT, {int(_ts.CMS_B[j])}::HUGEINT)"
        for j in range(_ts.CMS_D)
    )
    shift = 1 << 56
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
wc AS (SELECT w, count(*) AS n FROM words GROUP BY w),
wcc AS (SELECT wc.w, wc.n, wcrc0.crc FROM wc JOIN wcrc0 USING (w)),
hp(j, a, b) AS (VALUES
    {hp_rows}
),
cells AS (
  SELECT hp.j AS row_j,
         ((wcc.crc::HUGEINT * hp.a + hp.b) % {P64}::HUGEINT) // {shift}::HUGEINT AS bucket,
         sum(wcc.n) AS n
  FROM wcc CROSS JOIN hp
  GROUP BY 1, 2
)
SELECT CAST(row_j AS BIGINT) AS row_j, CAST(bucket AS BIGINT) AS bucket,
       CAST(n AS BIGINT) AS n
FROM cells ORDER BY row_j, bucket"""


def dup_shingle_stats_sql(k: int = 3) -> str:
    """Oracle for ``dedup.dup_shingle_stats``: per doc, its distinct
    word-k-gram shingle count and how many of those shingles occur in
    >= 2 documents corpus-wide (exact integer permille).  The shingle
    CTE is the same CRC-32 kernel mirror the minhash/jaccard oracles
    use; hash values stay internal so the engine's uint64->int64 bit
    reinterpretation (a bijection) cannot affect the comparison."""
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
{_shingle_cte(k)},
dfx AS (SELECT x, count(*) AS df FROM shingle GROUP BY x),
dups AS (SELECT x FROM dfx WHERE df >= 2),
per AS (
  SELECT s.doc_id, count(*) AS n_shingles,
         sum(CASE WHEN d.x IS NOT NULL THEN 1 ELSE 0 END) AS n_shared
  FROM shingle s LEFT JOIN dups d ON d.x = s.x
  GROUP BY s.doc_id
)
SELECT dd.doc_id,
       CAST(coalesce(per.n_shingles, 0) AS BIGINT) AS n_shingles,
       CAST(coalesce(per.n_shared, 0) AS BIGINT) AS n_shared,
       CAST(coalesce(per.n_shared, 0) * 1000
            // greatest(coalesce(per.n_shingles, 0), 1) AS BIGINT) AS shared_permille
FROM documents dd LEFT JOIN per ON per.doc_id = dd.doc_id
ORDER BY dd.doc_id"""


def dup_ngram_scrub_sql(k: int = 5) -> str:
    """Oracle for ``dedup.dup_ngram_scrub``: positional word-k-gram
    hashes (same CRC-32 + _SHINGLE_P window kernel as the shingle
    family, but keeping the window START position instead of deduping),
    duplicated window = hash present in >= 2 distinct docs, covered
    word = any position inside a duplicated window, output = the
    lowercased space-joined text of the UNcovered words.  Docs with
    < k words have no full window and pass through intact; zero-word
    docs emit ''."""
    P = [int(p) for p in _dd._SHINGLE_P]
    terms = " + ".join(
        f"(c{i}::HUGEINT * {P[i % 3]}::HUGEINT)" for i in range(k)
    )
    leads = ",\n         ".join(
        f"lead(crc, {i}) OVER (PARTITION BY doc_id ORDER BY pos) AS c{i}"
        for i in range(1, k)
    )
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
nw AS (SELECT doc_id, count(*) AS n FROM words GROUP BY doc_id),
winh AS (
  SELECT doc_id, pos, crc AS c0,
         {leads}
  FROM wcrc
),
poswin AS (
  SELECT doc_id, pos AS s, ({terms}) % {P64}::HUGEINT AS x
  FROM winh WHERE c{k - 1} IS NOT NULL
),
dupx AS (
  SELECT x FROM (SELECT x, count(DISTINCT doc_id) AS df FROM poswin GROUP BY x)
  WHERE df >= 2
),
cov AS (
  SELECT DISTINCT p.doc_id, w.pos
  FROM poswin p JOIN dupx USING (x)
  JOIN words w ON w.doc_id = p.doc_id AND w.pos BETWEEN p.s AND p.s + {k - 1}
),
kept AS (
  SELECT words.doc_id, words.w, words.pos
  FROM words LEFT JOIN cov
    ON cov.doc_id = words.doc_id AND cov.pos = words.pos
  WHERE cov.pos IS NULL
),
agg AS (
  SELECT doc_id, count(*) AS n_kept,
         string_agg(w, ' ' ORDER BY pos) AS scrubbed_text
  FROM kept GROUP BY doc_id
)
SELECT d.doc_id,
       CAST(coalesce(nw.n, 0) AS BIGINT) AS n_words,
       CAST(coalesce(nw.n, 0) - coalesce(a.n_kept, 0) AS BIGINT) AS n_removed,
       coalesce(a.scrubbed_text, '') AS scrubbed_text
FROM documents d
LEFT JOIN nw USING (doc_id)
LEFT JOIN agg a ON a.doc_id = d.doc_id
ORDER BY d.doc_id"""


def kgram_novelty_sql(k: int = 3) -> str:
    """Oracle for ``dedup.kgram_novelty``: per doc, distinct word-
    k-gram shingle count and how many have their global FIRST
    occurrence (min doc_id) in this doc.  Same CRC-32 + _SHINGLE_P
    shingle kernel mirror as the minhash/jaccard/dup-stats oracles."""
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
{_shingle_cte(k)},
firsts AS (SELECT x, min(doc_id) AS fd FROM shingle GROUP BY x),
novel AS (SELECT fd AS doc_id, count(*) AS n_novel FROM firsts GROUP BY fd),
dist AS (SELECT doc_id, count(*) AS n_distinct FROM shingle GROUP BY doc_id)
SELECT d.doc_id,
       CAST(coalesce(dist.n_distinct, 0) AS BIGINT) AS n_distinct,
       CAST(coalesce(novel.n_novel, 0) AS BIGINT) AS n_novel,
       CAST(coalesce(novel.n_novel, 0) * 1000
            // greatest(coalesce(dist.n_distinct, 0), 1) AS BIGINT)
         AS novelty_permille
FROM documents d
LEFT JOIN dist ON dist.doc_id = d.doc_id
LEFT JOIN novel ON novel.doc_id = d.doc_id
ORDER BY d.doc_id"""


def minhash_calibration_sql(
    threshold: float = 0.35, pair_limit: int = 10_000, k: int = 3
) -> str:
    """Oracle for ``dedup.minhash_calibration``: band candidates,
    64-component signature agreement, exact shingle Jaccard — all
    integer columns (permille, floor division), deterministic
    (doc_a, doc_b) sample order with the same explicit LIMIT."""
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
{_sig_ctes(k=k)},
{_band_ctes()},
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM bandh a
  JOIN bandh b ON a.band_id = b.band_id AND a.band_hash = b.band_hash
              AND a.doc_id < b.doc_id
),
est AS (
  SELECT c.doc_a, c.doc_b,
         CAST(sum(CASE WHEN sa.sig = sb.sig THEN 1 ELSE 0 END) AS BIGINT)
           AS sig_match
  FROM cand c
  JOIN sigs sa ON sa.doc_id = c.doc_a
  JOIN sigs sb ON sb.doc_id = c.doc_b AND sb.i = sa.i
  GROUP BY c.doc_a, c.doc_b
),
sel AS (
  SELECT doc_a, doc_b, sig_match FROM est
  WHERE sig_match::DOUBLE / 64 >= {threshold}
  ORDER BY doc_a, doc_b
  LIMIT {pair_limit}
),
sizes AS (SELECT doc_id, count(*) AS sz FROM shingle GROUP BY doc_id),
inter AS (
  SELECT s.doc_a, s.doc_b, count(*) AS n_inter
  FROM sel s
  JOIN shingle s1 ON s1.doc_id = s.doc_a
  JOIN shingle s2 ON s2.doc_id = s.doc_b AND s2.x = s1.x
  GROUP BY s.doc_a, s.doc_b
)
SELECT s.doc_a, s.doc_b, s.sig_match,
       CAST(1000 * s.sig_match // 64 AS BIGINT) AS est_permille,
       CAST(coalesce(i.n_inter, 0) AS BIGINT) AS jac_num,
       CAST(sa.sz + sb.sz - coalesce(i.n_inter, 0) AS BIGINT) AS jac_den,
       CAST(CASE WHEN sa.sz + sb.sz - coalesce(i.n_inter, 0) > 0
                 THEN 1000 * coalesce(i.n_inter, 0)
                      // (sa.sz + sb.sz - coalesce(i.n_inter, 0))
                 ELSE 0 END AS BIGINT) AS jac_permille,
       CAST(1000 * s.sig_match // 64
            - CASE WHEN sa.sz + sb.sz - coalesce(i.n_inter, 0) > 0
                   THEN 1000 * coalesce(i.n_inter, 0)
                        // (sa.sz + sb.sz - coalesce(i.n_inter, 0))
                   ELSE 0 END AS BIGINT) AS err_permille
FROM sel s
LEFT JOIN inter i ON i.doc_a = s.doc_a AND i.doc_b = s.doc_b
JOIN sizes sa ON sa.doc_id = s.doc_a
JOIN sizes sb ON sb.doc_id = s.doc_b
ORDER BY s.doc_a, s.doc_b"""


def source_overlap_sql(k: int = 3) -> str:
    """Oracle for ``source_overlap_matrix``: distinct word-k-gram
    shingles per source, pair intersection counts via an x-equijoin —
    the quadratic shape the engine's bitmask fold exists to avoid, fine
    at oracle scale."""
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
{_shingle_cte(k)},
sh AS (
  SELECT DISTINCT d.source, s.x
  FROM shingle s JOIN documents d USING (doc_id)
)
SELECT a.source AS source_a, b.source AS source_b,
       CAST(count(*) AS BIGINT) AS n_shared
FROM sh a JOIN sh b ON a.x = b.x AND a.source < b.source
GROUP BY 1, 2
ORDER BY source_a, source_b"""


def dedup_survivor_stats_sql(threshold: float = 0.7) -> str:
    """Per-source survival through near_dedup_keep (composition of the
    keep oracle with a LEFT-JOIN rollup; kept_permille floor-exact)."""
    return f"""
SELECT d.source,
       CAST(count(*) AS BIGINT) AS n_docs,
       CAST(sum(CASE WHEN k.doc_id IS NOT NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_kept,
       CAST(sum(CASE WHEN k.doc_id IS NOT NULL THEN 1 ELSE 0 END) * 1000
            // count(*) AS BIGINT) AS kept_permille
FROM documents d
LEFT JOIN ({near_dedup_keep_sql(threshold)}) k ON k.doc_id = d.doc_id
GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Asymmetric shingle containment (MinHash candidates -> exact set sizes)
# ---------------------------------------------------------------------------

def shingle_containment_sql(candidate_threshold: float = 0.5) -> str:
    """Oracle for ``shingle_containment_pairs``: the same MinHash-LSH
    candidate CTE as ngram_jaccard_sql, then exact DISTINCT-shingle
    intersection and both directional containments as integer
    permille."""
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
{_sig_ctes(k=3)},
{_band_ctes()},
cand0 AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM bandh a
  JOIN bandh b ON a.band_id = b.band_id AND a.band_hash = b.band_hash
              AND a.doc_id < b.doc_id
),
cand AS (
  SELECT c.doc_a, c.doc_b
  FROM cand0 c
  JOIN sigs sa ON sa.doc_id = c.doc_a
  JOIN sigs sb ON sb.doc_id = c.doc_b AND sb.i = sa.i
  GROUP BY c.doc_a, c.doc_b
  HAVING sum(CASE WHEN sa.sig = sb.sig THEN 1 ELSE 0 END)::DOUBLE / 64
         >= {candidate_threshold}
),
sizes AS (SELECT doc_id, count(*) AS sz FROM shingle GROUP BY doc_id),
inter AS (
  SELECT c.doc_a, c.doc_b, count(*) AS n_inter
  FROM cand c
  JOIN shingle s1 ON s1.doc_id = c.doc_a
  JOIN shingle s2 ON s2.doc_id = c.doc_b AND s2.x = s1.x
  GROUP BY c.doc_a, c.doc_b
)
SELECT c.doc_a, c.doc_b,
       CAST(coalesce(i.n_inter, 0) AS BIGINT) AS n_inter,
       CAST(sa.sz AS BIGINT) AS n_a,
       CAST(sb.sz AS BIGINT) AS n_b,
       CAST(coalesce(i.n_inter, 0) * 1000 // greatest(sa.sz, 1) AS BIGINT)
         AS cont_a_permille,
       CAST(coalesce(i.n_inter, 0) * 1000 // greatest(sb.sz, 1) AS BIGINT)
         AS cont_b_permille
FROM cand c
LEFT JOIN inter i ON i.doc_a = c.doc_a AND i.doc_b = c.doc_b
JOIN sizes sa ON sa.doc_id = c.doc_a
JOIN sizes sb ON sb.doc_id = c.doc_b
ORDER BY c.doc_a, c.doc_b"""


def simhash_bit_balance_sql() -> str:
    """Oracle for ``simhash_bit_balance``: the simhash oracle CTE,
    then one row per bit 0..62 with set counts and permille share."""
    return f"""WITH sims AS ({simhash_sql()}),
bits AS (SELECT unnest(range(0, 63)) AS bit),
tot AS (SELECT CAST(count(*) AS BIGINT) AS n FROM sims)
SELECT CAST(b.bit AS BIGINT) AS bit,
       CAST(sum((s.simhash >> b.bit) & 1) AS BIGINT) AS n_set,
       CAST(sum((s.simhash >> b.bit) & 1) * 1000 // greatest(t.n, 1) AS BIGINT)
         AS share_permille
FROM bits b CROSS JOIN sims s CROSS JOIN tot t
GROUP BY b.bit, t.n
ORDER BY bit"""


def winnowing_sql(window: int = 8, guard: int = 4) -> str:
    """Oracle for ``textstats.winnowing_fingerprints``: full winnowing
    selection (Schleimer/Wilkerson/Aiken 2003, rightmost-minimum tie
    rule) over the SAME Rabin-Karp word-window hashes as
    ``fingerprints_sql`` — every guarantee window of ``guard``
    consecutive window-hashes contributes its minimal hash (ties ->
    rightmost position), and the selected (pos, hash) pairs are
    DISTINCT per doc.  Docs with fewer than ``guard`` window-hashes
    select from one window spanning all of them."""
    m63 = 1 << 63
    pw_rows = ",\n    ".join(
        f"({t}, {pow(1000003, t, m63)}::HUGEINT)" for t in range(window)
    )
    return f"""WITH RECURSIVE
{_words(lower=False)},
{_CRC_TABLE},
{_WORD_CRC},
nw AS (SELECT doc_id, count(*) AS n FROM words GROUP BY doc_id),
wlen AS (
  SELECT doc_id, n, CASE WHEN n >= {window} THEN {window} ELSE n END AS l FROM nw
),
pw(t, p) AS (VALUES
    {pw_rows}
),
terms AS (
  SELECT wcrc.doc_id, wcrc.pos - off.j AS s, wcrc.crc::HUGEINT * pw.p AS term
  FROM wcrc
  JOIN wlen USING (doc_id)
  JOIN range({window}) off(j) ON off.j < wlen.l
  JOIN pw ON pw.t = wlen.l - 1 - off.j
  WHERE wcrc.pos - off.j >= 1 AND wcrc.pos - off.j <= wlen.n - wlen.l + 1
),
winhash AS (
  SELECT doc_id, s, sum(term) % {m63}::HUGEINT AS h FROM terms GROUP BY doc_id, s
),
cnt AS (SELECT doc_id, count(*) AS nwin FROM winhash GROUP BY doc_id),
cand AS (
  SELECT w.doc_id, w.s - r.j AS win, w.s AS pos, w.h
  FROM winhash w
  JOIN cnt USING (doc_id)
  JOIN range({guard}) r(j)
    ON w.s - r.j >= 1
   AND w.s - r.j <= CASE WHEN cnt.nwin >= {guard}
                         THEN cnt.nwin - {guard} + 1 ELSE 1 END
),
pick AS (
  SELECT doc_id, win, pos, h,
         row_number() OVER (PARTITION BY doc_id, win ORDER BY h ASC, pos DESC)
           AS rn
  FROM cand
)
SELECT DISTINCT doc_id, CAST(pos AS BIGINT) AS pos, CAST(h AS BIGINT) AS fp
FROM pick WHERE rn = 1
ORDER BY doc_id, pos"""


def lsh_band_histogram_sql() -> str:
    """Oracle for ``lsh_band_histogram``: the sig/band CTEs, bucket
    sizes per (band_id, band_hash), then the size histogram per band."""
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
{_sig_ctes(k=3)},
{_band_ctes()},
bsz AS (
  SELECT band_id, band_hash, CAST(count(*) AS BIGINT) AS sz
  FROM bandh GROUP BY band_id, band_hash
)
SELECT CAST(band_id AS BIGINT) AS band_id,
       sz AS bucket_size,
       CAST(count(*) AS BIGINT) AS n_buckets
FROM bsz GROUP BY band_id, sz
ORDER BY band_id, bucket_size"""


def bloom_decontaminate_sql(
    k: int = 8, n_benchmark: int = 3, m: int = 4096, n_probes: int = 3
) -> str:
    """Oracle for ``bloom_decontaminate``: replicates the Bloom filter
    bit-exactly — set bits from the benchmark shingles via the same
    double-hash (h1 = x mod m, h2 = 2*(x >> 32) + 1), probe every doc
    shingle's probes, count all-bits-set — so even the false positives
    match the engine."""
    probe = f"((s.x % {m}) + j.j * ((s.x // 4294967296) * 2 + 1)) % {m}"
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
{_shingle_cte(k)},
bsh AS (
  SELECT DISTINCT x FROM shingle
  WHERE doc_id IN (SELECT doc_id FROM documents ORDER BY doc_id LIMIT {n_benchmark})
),
bloombits AS (
  SELECT DISTINCT ((s.x % {m}) + j.j * ((s.x // 4294967296) * 2 + 1)) % {m} AS bit
  FROM bsh s CROSS JOIN range({n_probes}) j(j)
),
probe AS (
  SELECT s.doc_id, s.x,
         count(*) FILTER (bb.bit IS NOT NULL) AS set_bits
  FROM shingle s
  CROSS JOIN range({n_probes}) j(j)
  LEFT JOIN bloombits bb ON bb.bit = {probe}
  GROUP BY s.doc_id, s.x
),
bh AS (
  SELECT doc_id,
         CAST(count(*) AS BIGINT) AS n_shingles,
         CAST(count(*) FILTER (set_bits = {n_probes}) AS BIGINT) AS bloom_hits
  FROM probe GROUP BY doc_id
),
eh AS (
  SELECT s.doc_id, CAST(count(*) AS BIGINT) AS exact_hits
  FROM shingle s JOIN bsh b ON b.x = s.x
  GROUP BY s.doc_id
)
SELECT d.doc_id,
       CAST(coalesce(bh.n_shingles, 0) AS BIGINT) AS n_shingles,
       CAST(coalesce(eh.exact_hits, 0) AS BIGINT) AS exact_hits,
       CAST(coalesce(bh.bloom_hits, 0) AS BIGINT) AS bloom_hits,
       CAST(coalesce(bh.bloom_hits, 0) - coalesce(eh.exact_hits, 0) AS BIGINT)
         AS bloom_fp,
       CAST(coalesce(bh.bloom_hits, 0) >= 1 AS BIGINT) AS contaminated_bloom
FROM documents d
LEFT JOIN bh ON bh.doc_id = d.doc_id
LEFT JOIN eh ON eh.doc_id = d.doc_id
ORDER BY d.doc_id"""


def winnowing_overlap_sql(window: int = 8, guard: int = 4) -> str:
    """Oracle for ``textstats.winnowing_overlap_pairs``: the full
    winnowing selection as a subquery, DISTINCT (doc_id, fp), fp-equal
    self-join with doc_a < doc_b, shared-fingerprint count per pair."""
    return f"""WITH d AS (
  SELECT DISTINCT doc_id, fp FROM ({winnowing_sql(window, guard)})
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(count(*) AS BIGINT) AS n_shared
FROM d a JOIN d b ON a.fp = b.fp AND a.doc_id < b.doc_id
GROUP BY 1, 2
ORDER BY doc_a, doc_b"""


def group_fold_sql(n_folds: int = 5) -> str:
    """Oracle for ``training.group_shuffle_split``: zlib crc32 of each
    DISTINCT source string (the same recursive byte-fold as the word
    CRC), fold = crc % n_folds, joined back per doc."""
    return f"""WITH RECURSIVE
{_CRC_TABLE},
src AS (SELECT DISTINCT source AS w FROM documents),
vhex AS (
  SELECT w, lower(hex(encode(w))) AS hx, octet_length(encode(w)) AS nb
  FROM src
),
fold(w, j, nb, c) AS (
  SELECT w, 0, nb, 4294967295::BIGINT FROM vhex
  UNION ALL
  SELECT f.w, f.j + 1, f.nb, xor(ct.v, f.c // 256)
  FROM fold f
  JOIN vhex vb ON vb.w = f.w
  JOIN hexmap hm ON hm.h = substr(vb.hx, 2 * f.j + 1, 2)
  JOIN crc_table ct ON ct.n = xor(f.c % 256, hm.v)
  WHERE f.j < f.nb
),
wcrc0 AS (SELECT w, xor(c, 4294967295) AS crc FROM fold WHERE j = nb)
SELECT d.doc_id, d.source, CAST(w.crc % {n_folds} AS BIGINT) AS fold
FROM documents d JOIN wcrc0 w ON w.w = d.source
ORDER BY d.doc_id"""


def bbit_minhash_sql(thresh_permille: int = 700) -> str:
    """Oracle for ``dedup.bbit_minhash_agreement``: the minhash sig/
    band CTEs, candidate pairs, full and lowest-bit agreement counts,
    integer-permille Li-Koenig estimate."""
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
{_sig_ctes(k=3)},
{_band_ctes()},
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM bandh a
  JOIN bandh b ON a.band_id = b.band_id AND a.band_hash = b.band_hash
              AND a.doc_id < b.doc_id
),
ag AS (
  SELECT c.doc_a, c.doc_b,
         CAST(sum(CASE WHEN sa.sig = sb.sig THEN 1 ELSE 0 END) AS BIGINT)
           AS agree_full,
         CAST(sum(CASE WHEN sa.sig % 2 = sb.sig % 2 THEN 1 ELSE 0 END)
              AS BIGINT) AS agree_1bit
  FROM cand c
  JOIN sigs sa ON sa.doc_id = c.doc_a
  JOIN sigs sb ON sb.doc_id = c.doc_b AND sb.i = sa.i
  GROUP BY c.doc_a, c.doc_b
)
SELECT doc_a, doc_b, agree_full, agree_1bit,
       CAST(2 * agree_1bit * 1000 // 64 - 1000 AS BIGINT) AS est_b1_permille
FROM ag
WHERE agree_full * 1000 >= {thresh_permille} * 64
ORDER BY doc_a, doc_b"""


def dup_degree_hist_sql(threshold: float = 0.7) -> str:
    """Oracle for ``dedup.dup_graph_degree_hist``: the minhash pairs
    query as a subquery, endpoint explode, degree per doc, histogram."""
    return f"""WITH deg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS degree
  FROM (
    SELECT doc_a AS doc_id FROM ({minhash_pairs_sql(threshold)})
    UNION ALL
    SELECT doc_b AS doc_id FROM ({minhash_pairs_sql(threshold)})
  )
  GROUP BY doc_id
)
SELECT degree, CAST(count(*) AS BIGINT) AS n_docs
FROM deg GROUP BY degree ORDER BY degree"""


def dup_triangles_sql(threshold: float = 0.7) -> str:
    """Oracle for ``dedup.dup_graph_triangles``: oriented a<b<c
    triangle join over the minhash pair edges, degree-based triads,
    integer-permille global clustering."""
    return f"""WITH e AS (
  SELECT doc_a AS a, doc_b AS b FROM ({minhash_pairs_sql(threshold)})
),
tri AS (
  SELECT CAST(count(*) AS BIGINT) AS t
  FROM e e1
  JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b
  JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b
),
deg AS (
  SELECT v, CAST(count(*) AS BIGINT) AS d
  FROM (SELECT a AS v FROM e UNION ALL SELECT b FROM e)
  GROUP BY v
),
tr AS (SELECT CAST(sum(d * (d - 1) // 2) AS BIGINT) AS triads FROM deg),
ne AS (SELECT CAST(count(*) AS BIGINT) AS n FROM e)
SELECT (SELECT n FROM ne) AS n_edges,
       (SELECT t FROM tri) AS n_triangles,
       (SELECT triads FROM tr) AS n_triads,
       CAST(CASE WHEN (SELECT triads FROM tr) > 0
                 THEN 3 * (SELECT t FROM tri) * 1000 // (SELECT triads FROM tr)
                 ELSE 0 END AS BIGINT) AS clustering_permille"""


def cluster_size_hist_sql(threshold: float = 0.7) -> str:
    """Oracle for ``dedup.dedup_cluster_size_hist``: component labels
    -> per-label size -> size histogram."""
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
{_sig_ctes(k=3)},
{_band_ctes()},
{_cluster_ctes(threshold)},
sz AS (
  SELECT cluster_id, CAST(count(*) AS BIGINT) AS s
  FROM comp GROUP BY cluster_id
)
SELECT s AS cluster_size, CAST(count(*) AS BIGINT) AS n_clusters
FROM sz GROUP BY s ORDER BY s"""


def simhash_hamming_hist_sql() -> str:
    """Oracle for ``dedup.simhash_hamming_hist``: the simhash table,
    4x 16-bit chunk-bucket candidates, per-pair 63-bit Hamming
    distance via the bit-count of xor, distance histogram."""
    return f"""WITH RECURSIVE
{_words(lower=True)},
{_CRC_TABLE},
{_WORD_CRC},
wh AS (
  SELECT doc_id, pos,
         (crc::HUGEINT * {GOLD}::HUGEINT) % {P64}::HUGEINT AS h
  FROM wcrc
),
nw AS (SELECT doc_id, count(*) AS n FROM wh GROUP BY doc_id),
pow2(b, p) AS (
  SELECT 0, 1::HUGEINT UNION ALL SELECT b + 1, p * 2 FROM pow2 WHERE b < 63
),
votes AS (
  SELECT wh.doc_id, pow2.p, sum((wh.h // pow2.p) % 2) AS v
  FROM wh CROSS JOIN pow2 GROUP BY wh.doc_id, pow2.p
),
sh0 AS (
  SELECT votes.doc_id,
         sum(CASE WHEN 2 * votes.v - nw.n > 0 THEN votes.p ELSE 0::HUGEINT END)
           AS val
  FROM votes JOIN nw USING (doc_id) GROUP BY votes.doc_id
),
sh AS (
  SELECT d.doc_id, CAST(coalesce(sh0.val, 0::HUGEINT) // 2 AS BIGINT) AS fp
  FROM documents d LEFT JOIN sh0 ON sh0.doc_id = d.doc_id
),
hv AS (
  SELECT d.doc_id, coalesce(sh0.val, 0::HUGEINT) AS v
  FROM documents d LEFT JOIN sh0 ON sh0.doc_id = d.doc_id
),
chunkdiv(c, p) AS (VALUES
  (0, 1::HUGEINT), (1, 65536::HUGEINT),
  (2, 4294967296::HUGEINT), (3, 281474976710656::HUGEINT)
),
ch AS (
  -- chunks of the FULL 64-bit hash (the engine buckets before >>1)
  SELECT hv.doc_id, chunkdiv.c AS chunk_id,
         CAST((hv.v // chunkdiv.p) % 65536 AS BIGINT) AS chunk_val
  FROM hv CROSS JOIN chunkdiv
),
cand AS (
  SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
  FROM ch a JOIN ch b
    ON a.chunk_id = b.chunk_id AND a.chunk_val = b.chunk_val
   AND a.doc_id < b.doc_id
),
dist AS (
  SELECT c.doc_a, c.doc_b,
         CAST(bit_count(CAST(xor(sa.fp, sb.fp) AS BIGINT)) AS BIGINT) AS d
  FROM cand c
  JOIN sh sa ON sa.doc_id = c.doc_a
  JOIN sh sb ON sb.doc_id = c.doc_b
)
SELECT d AS distance, CAST(count(*) AS BIGINT) AS n_pairs
FROM dist GROUP BY d ORDER BY d"""


def dup_cross_source_sql(threshold: float = 0.7) -> str:
    """Oracle for ``dedup.dup_cross_source_stats``: the minhash pair
    set joined to documents' source on both endpoints, folded to the
    unordered per-source-pair count matrix."""
    return f"""WITH p AS ({minhash_pairs_sql(threshold)})
SELECT least(da.source, db.source) AS source_a,
       greatest(da.source, db.source) AS source_b,
       CAST(count(*) AS BIGINT) AS n_pairs
FROM p
JOIN documents da ON da.doc_id = p.doc_a
JOIN documents db ON db.doc_id = p.doc_b
GROUP BY 1, 2
ORDER BY 1, 2"""


def curation_decisions_sql(
    threshold: float = 0.7, n_benchmark: int = 3
) -> str:
    """Oracle for ``dedup.curation_decisions``: the quality composite
    extended with the near-dup-loser bit (NOT in the keep set) and the
    contamination bit, keep = fail_mask == 0."""
    from document_extractor_ray.functions.textstats import (
        DOC_QUALITY_COMPOSITE_SQL,
    )

    return f"""WITH base AS ({DOC_QUALITY_COMPOSITE_SQL}),
nk AS (SELECT doc_id FROM ({near_dedup_keep_sql(threshold)})),
ct AS (SELECT doc_id FROM ({decontaminate_sql(n_benchmark=n_benchmark)})
       WHERE contaminated)
SELECT b.doc_id,
       CAST(b.fail_mask
            + (CASE WHEN nk.doc_id IS NULL THEN 8 ELSE 0 END)
            + (CASE WHEN ct.doc_id IS NOT NULL THEN 16 ELSE 0 END)
         AS BIGINT) AS fail_mask,
       CAST(CASE WHEN b.fail_mask = 0 AND nk.doc_id IS NOT NULL
                  AND ct.doc_id IS NULL THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM base b
LEFT JOIN nk USING (doc_id)
LEFT JOIN ct USING (doc_id)
ORDER BY b.doc_id"""


def curation_report_by_source_sql(
    threshold: float = 0.7, n_benchmark: int = 3
) -> str:
    """Oracle for ``dedup.curation_report_by_source``: the
    curation_decisions verdict joined back to the source column and
    folded to (source, fail_mask) counts."""
    return f"""WITH cd AS ({curation_decisions_sql(threshold, n_benchmark)})
SELECT d.source, cd.fail_mask, CAST(count(*) AS BIGINT) AS n_docs
FROM cd JOIN documents d USING (doc_id)
GROUP BY 1, 2
ORDER BY 1, 2"""


def simhash_sort_locality_sql() -> str:
    """Oracle for ``dedup.simhash_sort_locality``: adjacent-pair
    Hamming sums via lag() over the two orderings (lag of the first
    row is NULL and drops out of the sum)."""
    return f"""WITH sh AS MATERIALIZED ({simhash_sql()}),
a AS (SELECT CAST(bit_count(xor(simhash,
        lag(simhash) OVER (ORDER BY simhash, doc_id))) AS BIGINT) AS d FROM sh),
b AS (SELECT CAST(bit_count(xor(simhash,
        lag(simhash) OVER (ORDER BY doc_id))) AS BIGINT) AS d FROM sh)
SELECT CAST((SELECT count(*) - 1 FROM sh) AS BIGINT) AS n_pairs,
       CAST((SELECT sum(d) FROM a) AS BIGINT) AS sum_hamming_fp_order,
       CAST((SELECT sum(d) FROM b) AS BIGINT) AS sum_hamming_id_order"""


def filter_agreement_matrix_sql(
    threshold: float = 0.7, n_benchmark: int = 3
) -> str:
    """Oracle for ``dedup.filter_agreement_matrix``: the
    curation_decisions fail_mask histogram crossed with the 10 layer
    pairs; Jaccard is integer floor permille (DuckDB // truncates,
    operands non-negative)."""
    return f"""WITH cd AS MATERIALIZED ({curation_decisions_sql(threshold, n_benchmark)}),
m AS (SELECT fail_mask, count(*) AS n FROM cd GROUP BY 1),
L(bit, layer) AS (VALUES (0, 'c4'), (1, 'repetition'), (2, 'gopher'),
                         (3, 'neardup'), (4, 'decontam')),
p AS (SELECT a.bit AS bit_a, a.layer AS layer_a,
             b.bit AS bit_b, b.layer AS layer_b
      FROM L a JOIN L b ON a.bit < b.bit),
agg AS (
  SELECT p.bit_a, p.layer_a, p.bit_b, p.layer_b,
    CAST(coalesce(sum(CASE WHEN (m.fail_mask >> p.bit_a) & 1 = 1
                           THEN m.n END), 0) AS BIGINT) AS n_fail_a,
    CAST(coalesce(sum(CASE WHEN (m.fail_mask >> p.bit_b) & 1 = 1
                           THEN m.n END), 0) AS BIGINT) AS n_fail_b,
    CAST(coalesce(sum(CASE WHEN (m.fail_mask >> p.bit_a) & 1 = 1
                            AND (m.fail_mask >> p.bit_b) & 1 = 1
                           THEN m.n END), 0) AS BIGINT) AS n_both
  FROM p CROSS JOIN m
  GROUP BY 1, 2, 3, 4)
SELECT layer_a, layer_b, n_fail_a, n_fail_b, n_both,
  CAST(CASE WHEN n_fail_a + n_fail_b - n_both > 0
            THEN (1000 * n_both) // (n_fail_a + n_fail_b - n_both)
            ELSE 0 END AS BIGINT) AS jaccard_permille
FROM agg
ORDER BY bit_a, bit_b"""


def dup_kcore_sql(threshold: float = 0.7, k: int = 2, rounds: int = 30) -> str:
    """Oracle for ``dedup.dup_graph_kcore``: the minhash pair edges,
    then a capped recursive peel — each iteration re-emits the full
    removed set plus the nodes whose degree among survivors drops
    below k, so the working table always carries the complete state
    (the recursive term only sees the previous iteration)."""
    return f"""WITH RECURSIVE e AS MATERIALIZED (
  SELECT doc_a AS a, doc_b AS b FROM ({minhash_pairs_sql(threshold)})
),
adj AS MATERIALIZED (SELECT a AS u, b AS v FROM e UNION ALL SELECT b, a FROM e),
nodes AS MATERIALIZED (SELECT DISTINCT u AS v FROM adj),
peel(iter, v) AS (
  SELECT 1, n.v FROM nodes n
  WHERE (SELECT count(*) FROM adj a WHERE a.u = n.v) < {k}
  UNION ALL
  SELECT * FROM (
    SELECT p.iter + 1, p.v FROM peel p WHERE p.iter < {rounds}
    UNION
    SELECT (SELECT max(iter) + 1 FROM peel), n.v
    FROM nodes n
    WHERE (SELECT max(iter) FROM peel) < {rounds}
      AND n.v NOT IN (SELECT v FROM peel)
      AND (SELECT count(*) FROM adj a
           WHERE a.u = n.v AND a.v NOT IN (SELECT v FROM peel)) < {k}
  )
),
removed AS (SELECT DISTINCT v FROM peel),
core AS (SELECT v FROM nodes WHERE v NOT IN (SELECT v FROM removed))
SELECT CAST((SELECT count(*) FROM nodes) AS BIGINT) AS n_nodes,
       CAST((SELECT count(*) FROM e) AS BIGINT) AS n_edges,
       CAST({k} AS BIGINT) AS k,
       CAST((SELECT count(*) FROM core) AS BIGINT) AS core_nodes,
       CAST((SELECT count(*) FROM e
             WHERE a IN (SELECT v FROM core)
               AND b IN (SELECT v FROM core)) AS BIGINT) AS core_edges,
       CAST((SELECT count(*) FROM removed) AS BIGINT) AS n_peeled
"""


def dup_assortativity_sql(threshold: float = 0.7) -> str:
    """Oracle for ``dedup.dup_graph_assortativity``: minhash pair
    edges, endpoint degrees, the four sums, and the floor-division
    integer rational (convention-proof for the negative numerator)."""
    return f"""WITH e AS (
  SELECT doc_a AS a, doc_b AS b FROM ({minhash_pairs_sql(threshold)})
),
deg AS (
  SELECT v, CAST(count(*) AS BIGINT) AS d
  FROM (SELECT a AS v FROM e UNION ALL SELECT b FROM e)
  GROUP BY v
),
s AS (
  SELECT CAST(count(*) AS HUGEINT) AS m,
         CAST(sum(da.d * db.d) AS HUGEINT) AS s_jk,
         CAST(sum(da.d + db.d) AS HUGEINT) AS s_sum,
         CAST(sum(da.d * da.d + db.d * db.d) AS HUGEINT) AS s_sq
  FROM e JOIN deg da ON da.v = e.a JOIN deg db ON db.v = e.b
),
r AS (
  SELECT m, s_jk, s_sum, s_sq,
         4 * m * s_jk - s_sum * s_sum AS num,
         2 * m * s_sq - s_sum * s_sum AS den
  FROM s
)
SELECT CAST(m AS BIGINT) AS n_edges,
       CAST(s_jk AS BIGINT) AS sum_prod,
       CAST(s_sum AS BIGINT) AS sum_deg,
       CAST(s_sq AS BIGINT) AS sum_sq,
       CAST(CASE WHEN den = 0 THEN 0
                 ELSE (1000000::HUGEINT * num
                       - ((((1000000::HUGEINT * num) % den) + den) % den)
                      ) // den
            END AS BIGINT) AS r_micro
FROM r"""


def incremental_dedup_sql(threshold: float = 0.7) -> str:
    """Oracle for ``dedup.incremental_dedup_audit``: minhash pairs
    filtered to cross-parity (even = existing corpus, odd = new
    crawl), rolled up per rejected new doc."""
    return f"""WITH e AS (
  SELECT doc_a AS a, doc_b AS b FROM ({minhash_pairs_sql(threshold)})
)
SELECT CASE WHEN a % 2 = 1 THEN a ELSE b END AS doc_id,
       CAST(count(*) AS BIGINT) AS n_existing_matches
FROM e WHERE (a % 2) <> (b % 2)
GROUP BY 1 ORDER BY 1"""


def powerlaw_degree_fit_sql(threshold: float = 0.7) -> str:
    """Oracle for ``dedup.powerlaw_degree_fit``: the degree histogram
    as a subquery, micro-log points, the exact rational slope (the
    heaps_law_fit floor-division formula), alpha = −slope."""
    return f"""WITH hist AS ({dup_degree_hist_sql(threshold)}),
xy AS (
  SELECT CAST(round(ln(degree) * 1000000) AS BIGINT) AS x,
         CAST(round(ln(n_docs) * 1000000) AS BIGINT) AS y
  FROM hist WHERE degree >= 1 AND n_docs >= 1
),
st AS (
  SELECT CAST(count(*) AS BIGINT) AS m, CAST(sum(x) AS BIGINT) AS sx,
         CAST(sum(y) AS BIGINT) AS sy
  FROM xy
),
fit AS (
  SELECT sum(CAST((SELECT m FROM st) * x - (SELECT sx FROM st) AS HUGEINT)
             * ((SELECT m FROM st) * y - (SELECT sy FROM st))) AS num,
         sum(CAST((SELECT m FROM st) * x - (SELECT sx FROM st) AS HUGEINT)
             * ((SELECT m FROM st) * x - (SELECT sx FROM st))) AS den
  FROM xy
)
SELECT (SELECT m FROM st) AS n_points,
       CAST(CASE WHEN (SELECT m FROM st) >= 2 AND den > 0 THEN
              -((1000000 * num
                 - ((1000000 * num % den + den) % den)) // den)
            ELSE 0 END AS BIGINT) AS alpha_micro,
       CAST(CASE WHEN (SELECT m FROM st) >= 2 THEN
              ((SELECT sx FROM st)
               - (((SELECT sx FROM st) % (SELECT m FROM st)
                   + (SELECT m FROM st)) % (SELECT m FROM st)))
              // (SELECT m FROM st)
            ELSE 0 END AS BIGINT) AS xbar_micro,
       CAST(CASE WHEN (SELECT m FROM st) >= 2 THEN
              ((SELECT sy FROM st)
               - (((SELECT sy FROM st) % (SELECT m FROM st)
                   + (SELECT m FROM st)) % (SELECT m FROM st)))
              // (SELECT m FROM st)
            ELSE 0 END AS BIGINT) AS ybar_micro
FROM fit"""
