"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram
Jaccard verification.

Scale shapes (100 TB thinking):
- exact dedup hashes content in a vectorized map_batches, then shuffles
  only on the 16-byte digest (never the text) and keeps the min-id row
  per group;
- MinHash-LSH emits (band_id, band_hash, doc_id) rows — the only data
  crossing the shuffle is 3 small integers per band per doc — then
  groups by band bucket to find candidate pairs, recomputes signatures
  for candidate docs only and verifies each candidate by full-signature
  agreement (estimated Jaccard);
- SimHash buckets on 16-bit chunks (4 tables) so near pairs within
  Hamming distance <= 3 of a 64-bit hash collide in at least one
  bucket (pigeonhole).
"""

from __future__ import annotations

import hashlib
import logging
import zlib
from typing import List, Set, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

logger = logging.getLogger(__name__)

_WORKER_CACHE: dict = {}  # per-worker-process stage instances

# Skew guard for every bucket pair-finder: a bucket larger than this is
# sorted by id and truncated (dropped rows logged).  A bucket this hot
# is near-certainly a mass of identical content — the intended pipeline
# runs exact dedup FIRST so identical texts collapse to one row before
# any near-dup pass; the cap bounds worst-case work at O(MAX_BUCKET^2)
# vectorized comparisons per bucket instead of O(n^2) on a
# boilerplate-heavy corpus putting 10^5 docs in one band bucket.
MAX_BUCKET = 1024


def _cap_bucket(g: pa.Table, id_col: str, what: str, cap: int = None) -> pa.Table:
    cap = MAX_BUCKET if cap is None else cap
    g = g.sort_by(id_col)
    if g.num_rows > cap:
        logger.warning(
            "%s bucket truncated %d -> %d rows (%d dropped); run exact "
            "dedup upstream to collapse identical content",
            what, g.num_rows, cap, g.num_rows - cap,
        )
        g = g.slice(0, cap)
    return g


_POP8 = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1)


def _pairwise_hamming64(f: np.ndarray) -> np.ndarray:
    """(n, n) Hamming distance matrix of 64-bit fingerprints via a
    byte-popcount table (numpy<2 has no bitwise_count)."""
    x = f[:, None] ^ f[None, :]
    return _POP8[x.view(np.uint8)].reshape(len(f), len(f), 8).sum(axis=2)

# ---------------------------------------------------------------------------
# Exact dedup
# ---------------------------------------------------------------------------

def content_hash_batch(texts: List[str]) -> List[bytes]:
    return [hashlib.sha1((t or "").encode("utf-8")).digest() for t in texts]


def dedup_exact(ds: "ray.data.Dataset", id_col: str = "doc_id", text_col: str = "text"):
    """Keep the minimum-id row per distinct text (hash-partition +
    per-group first — ST6, the reference's unimplemented checksum
    cache, TODO.md:20).

    Shape: content hashes are near-unique (one group per doc), so a
    native ``groupby(hash).aggregate(Min)`` pays Ray's per-GROUP
    aggregate cost — the key-per-row collapse PERF step 20 measured
    at 301 s/4M on urls.  Instead each batch takes a per-batch Min
    partial (Arrow group_by combiner), rows hash-bucket into
    ~CPU-count partitions on the digest, and one vectorized Arrow
    group_by per PARTITION resolves the global Min (4M docs, same
    input, same kept-count: 55.4 s -> 4.6 s measured)."""
    from document_extractor_ray.functions import bucketing

    n_parts = bucketing.n_shuffle_parts()

    def add_hash(t: pa.Table) -> pa.Table:
        hashes = content_hash_batch(t[text_col].to_pylist())
        g = pa.TableGroupBy(
            pa.table(
                {
                    "content_hash": pa.array(hashes, pa.binary()),
                    id_col: t[id_col],
                }
            ),
            ["content_hash"],
        ).aggregate([(id_col, "min")])
        return pa.table(
            {
                "content_hash": g["content_hash"],
                id_col: g[f"{id_col}_min"],
                "part": bucketing.part_of_binary(g["content_hash"], n_parts),
            }
        )

    def resolve(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, ["content_hash"]).aggregate([(id_col, "min")])
        return pa.table({id_col: g[f"{id_col}_min"]})

    return (
        ds.map_batches(add_hash, batch_format="pyarrow")
        .groupby("part")
        .map_groups(resolve, batch_format="pyarrow")
        .sort(id_col)
    )


def exact_dup_losers(ds: "ray.data.Dataset", id_col: str = "doc_id", text_col: str = "text"):
    """Ids DROPPED by exact dedup (every non-min member of a content-
    hash group) — the inverse of ``dedup_exact``, sized for the
    curation chain's broadcast-the-losers anti-filter: at web scale
    the loser set is the duplicate mass (a few % of the corpus),
    orders of magnitude smaller than the keep set, so it broadcasts
    where the keep set cannot.

    Same exchange shape as dedup_exact (one slim (hash, id) row per
    doc, hash-bucketed partitions): a per-batch combiner CANNOT shrink
    the exchange here because any non-min id is itself output — so the
    batch stage tags its local non-mins as definite losers (global min
    <= batch min) and forwards one min candidate per (hash, batch).
    The loser ids come unordered: every caller uses them as a set."""
    from document_extractor_ray.functions import bucketing

    n_parts = bucketing.n_shuffle_parts()

    def add_hash(t: pa.Table) -> pa.Table:
        hashes = pa.array(content_hash_batch(t[text_col].to_pylist()), pa.binary())
        slim = pa.table({"content_hash": hashes, id_col: t[id_col]})
        g = pa.TableGroupBy(slim, ["content_hash"]).aggregate([(id_col, "min")])
        mins = pa.table(
            {"content_hash": g["content_hash"], id_col: g[f"{id_col}_min"]}
        )
        # batch-local non-mins are global losers already
        idx = pc.index_in(slim["content_hash"], value_set=mins["content_hash"])
        batch_min = pc.take(mins[id_col], idx)
        loser_mask = pc.not_equal(slim[id_col], batch_min)
        losers = slim.filter(loser_mask)
        out = pa.concat_tables(
            [
                mins.append_column(
                    "is_min", pa.array([True] * mins.num_rows, pa.bool_())
                ),
                losers.append_column(
                    "is_min", pa.array([False] * losers.num_rows, pa.bool_())
                ),
            ]
        )
        return out.append_column(
            "part", bucketing.part_of_binary(out["content_hash"], n_parts)
        )

    def resolve(t: pa.Table) -> pa.Table:
        mins = t.filter(t["is_min"])
        g = pa.TableGroupBy(mins, ["content_hash"]).aggregate([(id_col, "min")])
        idx = pc.index_in(mins["content_hash"], value_set=g["content_hash"])
        global_min = pc.take(g[f"{id_col}_min"], idx)
        late_losers = mins.filter(pc.not_equal(mins[id_col], global_min))
        early_losers = t.filter(pc.invert(t["is_min"]))
        return pa.concat_tables(
            [late_losers.select([id_col]), early_losers.select([id_col])]
        )

    return (
        ds.map_batches(add_hash, batch_format="pyarrow")
        .groupby("part")
        .map_groups(resolve, batch_format="pyarrow")
    )


def near_dup_losers(ds: "ray.data.Dataset", threshold: float = 0.7):
    """Ids DROPPED by MinHash near-dedup: every member of a near-dup
    component except its min id.  Loser-set companion of
    ``near_dedup_keep`` — only nodes that appear in a dup pair can
    lose, so the output is bounded by the pair list, never the corpus.

    Scale shape: the pair graph is the tiny part (minhash_dup_pairs'
    banded LSH emits a vanishing fraction of the corpus, and its
    candidates already reach the driver); one driver union-find
    resolves the components."""
    pairs = minhash_dup_pairs(ds, threshold=threshold)
    roots = cluster_pairs(
        e
        for b in pairs.iter_batches(batch_format="pyarrow")
        for e in zip(b["doc_a"].to_pylist(), b["doc_b"].to_pylist())
    )
    losers = sorted(n for n, r in roots.items() if r != n)
    return ray.data.from_arrow(pa.table({"doc_id": pa.array(losers, pa.int64())}))


def _read_docs(sf_dir: str):
    from document_extractor_ray.functions.bucketing import n_shuffle_parts
    from document_extractor_ray.sources import read_parquet_clean

    return read_parquet_clean(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        override_num_blocks=n_shuffle_parts(),
    )


def dedup_exact_docs(sf_dir: str):
    return dedup_exact(_read_docs(sf_dir))


DEDUP_EXACT_SQL = """
SELECT min(doc_id) AS doc_id FROM documents GROUP BY text ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# MinHash + LSH near-dedup
# ---------------------------------------------------------------------------

N_HASHES = 64
N_BANDS = 16          # 16 bands x 4 rows: catches Jaccard >~ 0.5 pairs
ROWS_PER_BAND = N_HASHES // N_BANDS
_MERSENNE = (1 << 61) - 1


def _hash_params(seed: int = 42) -> Tuple[np.ndarray, np.ndarray]:
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=N_HASHES, dtype=np.int64).astype(np.uint64)
    a |= np.uint64(1)  # multiply-shift needs odd multipliers
    b = rng.randint(0, _MERSENNE, size=N_HASHES, dtype=np.int64).astype(np.uint64)
    return a, b


_SHINGLE_P = (
    np.uint64(0x9E3779B97F4A7C15),
    np.uint64(0xC2B2AE3D27D4EB4F),
    np.uint64(0x165667B19E3779F9),
)


def shingles(text: str, k: int = 3) -> Set[int]:
    """Word k-gram shingles hashed to 64-bit ints — vectorized: one
    crc32 per word, then the k-window combination is a numpy
    expression (an earlier blake2b-per-shingle variant dominated the
    MinHash stage)."""
    words = (text or "").lower().split()
    if not words:
        return set()
    crc = np.fromiter(
        (zlib.crc32(w.encode("utf-8")) for w in words), dtype=np.uint64, count=len(words)
    )
    if len(words) < k:
        acc = np.uint64(0)
        with np.errstate(over="ignore"):
            for i, c in enumerate(crc):
                acc = acc * _SHINGLE_P[i % 3] + c
        return {int(acc)}
    n_win = len(crc) - k + 1
    with np.errstate(over="ignore"):
        h = np.zeros(n_win, dtype=np.uint64)
        for i in range(k):
            h += crc[i : n_win + i] * _SHINGLE_P[i % 3]
    return set(np.unique(h).tolist())


def minhash_signature(sh: Set[int], a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sig[i] = min over shingles of h_i(x) with h_i a multiply-shift
    universal hash: (a_i * x + b_i) mod 2^64 (native uint64 wraparound
    — an earlier mod-Mersenne variant needed Python big-int object
    arrays and was ~30x slower; any universal family preserves the
    MinHash Jaccard estimate)."""
    if not sh:
        return np.full(N_HASHES, np.iinfo(np.uint64).max, dtype=np.uint64)
    x = np.fromiter(sh, dtype=np.uint64, count=len(sh))
    with np.errstate(over="ignore"):
        prod = a[:, None] * x[None, :] + b[:, None]  # uint64 wraparound
    return np.min(prod, axis=1)


# Odd multipliers for the vectorized band hash (multiply-shift family,
# same as the signature hashes): equal band signatures collide by
# construction, unequal ones collide with ~2^-63 probability — the
# same candidate structure an earlier blake2b-per-band variant gave at
# 16 digest calls per doc.
_BAND_P = (
    np.arange(1, ROWS_PER_BAND + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
) | np.uint64(1)


class MinHasher:
    """Seeded hash params, built once per worker process (``_minhasher``)."""

    def __init__(self, seed: int = 42, k: int = 3):
        self.a, self.b = _hash_params(seed)
        self.k = k

    def signature(self, text: str) -> np.ndarray:
        return minhash_signature(shingles(text, self.k), self.a, self.b)


def _minhasher(seed: int) -> MinHasher:
    """The per-worker-process MinHasher for ``seed``.  Task pool, not an
    actor pool: the only state is the 64 seeded hash params
    (microseconds to build), so a module-cached instance gives the same
    amortization without the pool's spin-up/teardown (PERF.md steps
    19/25)."""
    key = ("minhasher", seed)
    if key not in _WORKER_CACHE:
        _WORKER_CACHE[key] = MinHasher(seed=seed)
    return _WORKER_CACHE[key]


def _explode_slim(t: pa.Table, seed: int) -> pa.Table:
    """doc rows -> (band_id, band_hash, doc_id) rows, N_BANDS per doc.
    The per-doc work is the shingle/signature kernel; the band hash is
    pure numpy over the (n_docs, N_HASHES) signature matrix.  The
    signature itself is not shipped: 24 B per row cross the shuffle."""
    mh = _minhasher(seed)
    ids = t["doc_id"].to_numpy()
    texts = t["text"].to_pylist()
    n = len(texts)
    sigs = np.empty((n, N_HASHES), dtype=np.uint64)
    for i, text in enumerate(texts):
        sigs[i] = mh.signature(text)
    with np.errstate(over="ignore"):
        bh = (sigs.reshape(n, N_BANDS, ROWS_PER_BAND) * _BAND_P).sum(
            axis=2, dtype=np.uint64
        )
    bh = (bh >> np.uint64(1)).astype(np.int64).reshape(-1)
    return pa.table(
        {
            "band_id": pa.array(
                np.tile(np.arange(N_BANDS, dtype=np.int32), n), pa.int32()
            ),
            "band_hash": pa.array(bh, pa.int64()),
            "doc_id": pa.array(np.repeat(ids, N_BANDS), pa.int64()),
        }
    )


def estimated_jaccard(sig_a: bytes, sig_b: bytes) -> float:
    a = np.frombuffer(sig_a, dtype=np.uint64)
    b = np.frombuffer(sig_b, dtype=np.uint64)
    return float(np.mean(a == b))


def _lsh_candidates(
    ds: "ray.data.Dataset", seed: int = 42, max_bucket: int = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """LSH candidate pairs and their signatures: ``(a_ids, b_ids, sa,
    sb)`` with the pairs sorted by (a, b), a < b, each once, and sa / sb
    the (n_pairs, N_HASHES) signature matrices of the two ends.  Every
    MinHash operator verifies candidates from these matrices.

    - **Candidates**: ``_explode_slim`` rows — no signatures — are
      hash-partitioned on the band bucket; every a < b sharing a bucket
      (capped at ``max_bucket`` ids, default MAX_BUCKET) is a candidate,
      deduped across bands.
    - **Signatures** are recomputed ONLY for candidate docs (one
      broadcast id-set filter pass over the corpus) instead of riding
      the 16 band rows of every doc through the shuffle (~8 KB/doc, 80
      GB at 10M docs).

    Driver memory is bounded by the CANDIDATE set (dup mass + capped
    pathological buckets), not the corpus; at 10^12 docs the signature
    collect becomes a hash-partitioned sig join instead (documented
    boundary: ~50M candidates)."""
    from document_extractor_ray import state
    from document_extractor_ray.functions import bucketing

    empty = pa.table(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "one": pa.array([], pa.int64()),
        }
    )
    cap = MAX_BUCKET if max_bucket is None else max_bucket
    n_parts = bucketing.n_shuffle_parts()

    def partition_candidates(g: pa.Table) -> pa.Table:
        """ALL buckets of one hash partition in ONE call: sorted-run
        boundary detection + a vectorized emit for the dominant size-2
        buckets (a python call per >=2-row bucket cost 85 s of the 8-cpu
        1M near-dedup wall; this pass does the same work in ~1 s)."""
        if g.num_rows < 2:
            return empty
        g = g.sort_by(
            [
                ("band_id", "ascending"),
                ("band_hash", "ascending"),
                ("doc_id", "ascending"),
            ]
        )
        bid = g["band_id"].to_numpy()
        bh = g["band_hash"].to_numpy()
        ids = g["doc_id"].to_numpy()
        change = np.empty(len(ids), dtype=bool)
        change[0] = True
        change[1:] = (bid[1:] != bid[:-1]) | (bh[1:] != bh[:-1])
        starts = np.nonzero(change)[0]
        ends = np.append(starts[1:], len(ids))
        sizes = ends - starts
        out_a, out_b = [], []
        m2 = sizes == 2
        if m2.any():
            s2 = starts[m2]
            a, b = ids[s2], ids[s2 + 1]
            keep = a != b
            out_a.append(np.minimum(a, b)[keep])
            out_b.append(np.maximum(a, b)[keep])
        for s, e in zip(starts[sizes > 2], ends[sizes > 2]):
            u = np.unique(ids[s:e])
            if u.size > cap:
                logger.warning(
                    "minhash-cand bucket truncated %d -> %d ids",
                    u.size,
                    cap,
                )
                u = u[:cap]
            if u.size < 2:
                continue
            ii, jj = np.triu_indices(u.size, k=1)
            out_a.append(u[ii])
            out_b.append(u[jj])
        if not out_a:
            return empty
        aa = np.concatenate(out_a)
        bb = np.concatenate(out_b)
        return pa.table(
            {
                "doc_a": pa.array(aa, pa.int64()),
                "doc_b": pa.array(bb, pa.int64()),
                "one": pa.array(np.ones(aa.size, dtype=np.int64), pa.int64()),
            }
        )

    def add_part(t: pa.Table) -> pa.Table:
        t = _explode_slim(t, seed)
        return t.append_column(
            "part",
            bucketing.key_part_column(t, ["band_id", "band_hash"], n_parts),
        )

    # Materialize the SLIM exploded table before the exchange: chained
    # lazily, the groupby's all-to-all pulls from the live explode
    # operator and thrashes at low CPU counts (measured 204 s vs 37 s
    # at 8 cpus on 1M docs).  The table is 24 B/row — the same bytes
    # the sort would buffer internally anyway, so this costs nothing
    # at scale and pins the fast plan at every parallelism.
    exploded = ds.map_batches(
        add_part, batch_format="pyarrow", batch_size=512
    ).materialize()
    cand = (
        exploded.groupby("part")
        .map_groups(partition_candidates, batch_format="pyarrow")
        .materialize()  # candidate-bounded; isolates the minmax exchange
    )
    # dedup candidate pairs (a pair collides in several bands)
    cand = bucketing.bucketed_minmax(cand, ["doc_a", "doc_b"], "one", "max")
    a_ids, b_ids = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for b in cand.iter_batches(batch_format="pyarrow"):
        if not b.num_rows:  # the aggregate's empty blocks carry no schema
            continue
        a_ids.append(b["doc_a"].to_numpy())
        b_ids.append(b["doc_b"].to_numpy())
    a_ids, b_ids = np.concatenate(a_ids), np.concatenate(b_ids)
    order = np.lexsort((b_ids, a_ids))
    a_ids, b_ids = a_ids[order], b_ids[order]
    if not a_ids.size:
        no_sigs = np.empty((0, N_HASHES), dtype=np.uint64)
        return a_ids, b_ids, no_sigs, no_sigs
    ref = state.broadcast(np.unique(np.concatenate([a_ids, b_ids])))

    def sig_of_candidates(t: pa.Table) -> pa.Table:
        mh = _minhasher(seed)
        ids = t["doc_id"].to_numpy()
        mask = np.isin(ids, state.cached_get(ref))
        texts = [x for x, m in zip(t["text"].to_pylist(), mask) if m]
        return pa.table(
            {
                "doc_id": pa.array(ids[mask], pa.int64()),
                "sig": pa.array(
                    [mh.signature(x).tobytes() for x in texts], pa.binary()
                ),
            }
        )

    sig_by_id: dict = {}
    for b in ds.map_batches(
        sig_of_candidates, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow"):
        sig_by_id.update(zip(b["doc_id"].to_pylist(), b["sig"].to_pylist()))

    def sigs(ids: np.ndarray) -> np.ndarray:
        return np.frombuffer(
            b"".join(sig_by_id[int(x)] for x in ids), dtype=np.uint64
        ).reshape(len(ids), N_HASHES)

    return a_ids, b_ids, sigs(a_ids), sigs(b_ids)


def minhash_dup_pairs(
    ds: "ray.data.Dataset",
    threshold: float = 0.7,
    seed: int = 42,
    max_bucket: int = None,
):
    """Near-duplicate pairs (doc_a < doc_b, est_jaccard >= threshold),
    sorted by (doc_a, doc_b): the ``_lsh_candidates`` pairs whose
    full-signature agreement (estimated Jaccard) reaches the
    threshold."""
    a_ids, b_ids, sa, sb = _lsh_candidates(ds, seed, max_bucket)
    est = (sa == sb).mean(axis=1)
    keep = est >= threshold
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array(a_ids[keep], pa.int64()),
                "doc_b": pa.array(b_ids[keep], pa.int64()),
                "est_jaccard": pa.array(est[keep], pa.float64()),
            }
        )
    )


def minhash_dup_pairs_docs(sf_dir: str, threshold: float = 0.7):
    return minhash_dup_pairs(_read_docs(sf_dir), threshold=threshold)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

_SIMHASH_MIX = np.uint64(0x9E3779B97F4A7C15)


def simhash64(text: str) -> int:
    """64-bit SimHash over word features (Charikar, STOC 2002).

    Vectorized: one crc32 per word mixed to 64 bits by a golden-ratio
    multiply (uint64 wraparound — a universal-family word hash, like
    the MinHash signature stage), then the per-bit +/-1 vote is one
    unpackbits sum over the (n_words, 64) bit matrix.  An earlier
    blake2b-per-word variant was ~10x slower with identical
    statistical behavior; fingerprint VALUES changed at the swap
    (goldens regenerated — the semantic is the estimator, not the
    word hash)."""
    words = (text or "").lower().split()
    if not words:
        return 0
    crc = np.fromiter(
        (zlib.crc32(w.encode("utf-8")) for w in words),
        dtype=np.uint64,
        count=len(words),
    )
    with np.errstate(over="ignore"):
        h = crc * _SIMHASH_MIX  # mix 32-bit crc across all 64 bits
    bits = np.unpackbits(
        h[:, None].astype(">u8").view(np.uint8), axis=1
    )  # (n_words, 64), big-endian bit order
    votes = bits.sum(axis=0, dtype=np.int64) * 2 - len(words)
    out_bits = (votes > 0).astype(np.uint8)
    return int.from_bytes(np.packbits(out_bits).tobytes(), "big")


def simhash_table(sf_dir: str):
    ds = _read_docs(sf_dir)

    def fp(t: pa.Table) -> pa.Table:
        vals = [simhash64(x) >> 1 for x in t["text"].to_pylist()]  # keep in int64
        return pa.table({"doc_id": t["doc_id"], "simhash": pa.array(vals, pa.int64())})

    return ds.map_batches(fp, batch_format="pyarrow").sort("doc_id")


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def simhash_dup_pairs(
    ds: "ray.data.Dataset", max_distance: int = 3, max_bucket: int = None
):
    """Near pairs by SimHash: bucket on each of 4 16-bit chunks (a pair
    within Hamming distance 3 of 64 bits shares at least one exact
    chunk), verify Hamming distance within buckets."""

    def explode(t: pa.Table) -> pa.Table:
        ids, chunk_ids, chunk_vals, fps = [], [], [], []
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            h = simhash64(text)
            for c in range(4):
                ids.append(doc_id)
                chunk_ids.append(c)
                chunk_vals.append((h >> (16 * c)) & 0xFFFF)
                fps.append(h >> 1)
        return pa.table(
            {
                "chunk_id": pa.array(chunk_ids, pa.int32()),
                "chunk_val": pa.array(chunk_vals, pa.int32()),
                "doc_id": pa.array(ids, pa.int64()),
                "simhash": pa.array(fps, pa.int64()),
            }
        )

    empty = pa.table(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "distance": pa.array([], pa.int64()),
        }
    )

    def bucket_pairs(g: pa.Table) -> pa.Table:
        if g.num_rows < 2:
            return empty
        g = _cap_bucket(g, "doc_id", "simhash", max_bucket)
        ids = g["doc_id"].to_numpy()
        # fps were shifted right 1 bit to fit int64; compare on 63 bits
        fps = g["simhash"].to_numpy().astype(np.uint64)
        dist = _pairwise_hamming64(fps)
        iu = np.arange(len(ids))
        mask = (dist <= max_distance) & (iu[None, :] > iu[:, None]) & (
            ids[None, :] != ids[:, None]
        )
        ii, jj = np.nonzero(mask)
        if not ii.size:
            return empty
        a_, b_ = ids[ii], ids[jj]
        return pa.table(
            {
                "doc_a": pa.array(np.minimum(a_, b_), pa.int64()),
                "doc_b": pa.array(np.maximum(a_, b_), pa.int64()),
                "distance": pa.array(dist[ii, jj], pa.int64()),
            }
        )

    # Chunk buckets are mostly singletons — same bucketed shape as the
    # MinHash band stage (PERF.md step 22).
    from document_extractor_ray.functions import bucketing

    pairs = bucketing.bucketed_bucket_pairs(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["chunk_id", "chunk_val"],
        bucket_pairs,
        empty,
    )
    # Distance is identical whichever chunk collides: bucketed min
    # dedups across the 4 chunk tables, no per-pair Python.
    return bucketing.bucketed_minmax(
        pairs, ["doc_a", "doc_b"], "distance", "min"
    ).sort(["doc_a", "doc_b"])


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard (verification primitive + verified-pairs operator)
# ---------------------------------------------------------------------------

def ngram_jaccard(a: str, b: str, k: int = 3) -> float:
    sa, sb = shingles(a, k), shingles(b, k)
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


VERIFY_PAIR_BUDGET = 100_000


def ngram_jaccard_dups(
    ds: "ray.data.Dataset",
    candidate_threshold: float = 0.5,
    verify_threshold: float = 0.6,
    pair_budget: int = VERIFY_PAIR_BUDGET,
):
    """LSH candidates verified by EXACT n-gram Jaccard.

    Candidates come from the MinHash-LSH pass (cheap, mergeable); the
    exact verification needs the two texts side by side.

    - Below ``pair_budget`` candidate pairs: ids collected, matching
      texts broadcast, verification on the driver (the small-side
      special case — candidates are a vanishing fraction of a real
      corpus).
    - Above the budget: hash-partitioned joins attach each pair's two
      texts (pairs ⋈ candidate texts on doc_a then doc_b) and the
      exact Jaccard runs inside map_batches — no driver-side
      collection of texts or pairs at any point."""
    empty = pa.table(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
        }
    )
    pairs_ds = (
        minhash_dup_pairs(ds, threshold=candidate_threshold)
        .select_columns(["doc_a", "doc_b"])
        .materialize()
    )
    n_pairs = pairs_ds.count()
    if n_pairs == 0:
        return empty
    # settle: the bucketed pair stage's map_groups can emit zero-row
    # blocks whose empty schema kills the escalation joins below
    # ("No match for FieldRef.Name(doc_b)" — Ray 2.49 trap, CLAUDE.md)
    live = [r for r in pairs_ds.to_arrow_refs() if ray.get(r).num_rows > 0]
    pairs_ds = ray.data.from_arrow_refs(live)

    if n_pairs <= pair_budget:
        pairs, texts = _pair_texts_driver(ds, pairs_ds)
        out_a, out_b, out_j = [], [], []
        for r in pairs:
            j = ngram_jaccard(texts.get(r["doc_a"], ""), texts.get(r["doc_b"], ""))
            if j >= verify_threshold:
                out_a.append(r["doc_a"])
                out_b.append(r["doc_b"])
                out_j.append(j)
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "jaccard": pa.array(out_j, pa.float64()),
            }
        )

    j2 = _pair_texts_ds(ds, pairs_ds)

    def verify(t: pa.Table) -> pa.Table:
        out_a, out_b, out_j = [], [], []
        for a_, b_, ta, tb in zip(
            t["doc_a"].to_pylist(),
            t["doc_b"].to_pylist(),
            t["text_a"].to_pylist(),
            t["text_b"].to_pylist(),
        ):
            j = ngram_jaccard(ta or "", tb or "")
            if j >= verify_threshold:
                out_a.append(a_)
                out_b.append(b_)
                out_j.append(j)
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "jaccard": pa.array(out_j, pa.float64()),
            }
        )

    return j2.map_batches(verify, batch_format="pyarrow").sort(["doc_a", "doc_b"])


def _pair_texts_driver(ds: "ray.data.Dataset", pairs_ds: "ray.data.Dataset"):
    """Below-budget side of the pair-verify stages: collect the pair
    list (sorted) and broadcast-fetch ONLY the candidate texts."""
    pairs = pairs_ds.take_all()
    wanted = sorted({r["doc_a"] for r in pairs} | {r["doc_b"] for r in pairs})
    wanted_arr = pa.array(wanted, pa.int64())

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["doc_id"], value_set=wanted_arr))

    texts = {
        r["doc_id"]: r["text"]
        for r in ds.map_batches(pick, batch_format="pyarrow").take_all()
    }
    return sorted(pairs, key=lambda x: (x["doc_a"], x["doc_b"])), texts


def _pair_texts_ds(ds: "ray.data.Dataset", pairs_ds: "ray.data.Dataset"):
    """Above-budget side: hang text_a/text_b on each pair row with
    partitioned hash joins, returning a Dataset of
    (doc_a, doc_b, text_a, text_b).  Candidate texts come via a semi
    join; each join stage is materialized before the next: three
    concurrent Join operators in one DAG spawn 3x num_partitions
    aggregator actors and starve a small CPU budget (observed deadlock
    at 4 cpus); the intermediates are bounded (candidate texts only),
    so materializing serializes the actor demand instead."""
    n_parts = 8
    if ray.is_initialized():
        n_parts = max(4, min(32, int(ray.cluster_resources().get("CPU", 8))))

    def both_ends(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [t["doc_a"].combine_chunks(), t["doc_b"].combine_chunks()]
        )
        return pa.table({"doc_id": pc.unique(ids)})

    from document_extractor_ray.functions.bucketing import bucketed_agg

    cand_ids = bucketed_agg(
        pairs_ds.map_batches(both_ends, batch_format="pyarrow"),
        ["doc_id"],
        [(None, "count", "_n")],
    ).map_batches(lambda t: t.select(["doc_id"]), batch_format="pyarrow")
    cand_texts = ds.select_columns(["doc_id", "text"]).join(
        cand_ids, join_type="inner", num_partitions=n_parts, on=("doc_id",)
    ).materialize()
    j1 = pairs_ds.join(
        cand_texts.map_batches(
            lambda t: t.rename_columns(["doc_a", "text_a"]), batch_format="pyarrow"
        ),
        join_type="inner",
        num_partitions=n_parts,
        on=("doc_a",),
    ).materialize()
    # settle j1 before the second join: a join output partition with 0
    # rows carries an EMPTY schema and kills the next join's FieldRef
    j1refs = [r for r in j1.to_arrow_refs() if ray.get(r).num_rows > 0]
    if j1refs:
        j1 = ray.data.from_arrow_refs(j1refs)
    j2 = j1.join(
        cand_texts.map_batches(
            lambda t: t.rename_columns(["doc_b", "text_b"]), batch_format="pyarrow"
        ),
        join_type="inner",
        num_partitions=n_parts,
        on=("doc_b",),
    )
    return j2


def ngram_jaccard_dups_docs(sf_dir: str):
    return ngram_jaccard_dups(_read_docs(sf_dir))


def shingle_containment_pairs(
    ds: "ray.data.Dataset",
    candidate_threshold: float = 0.5,
    pair_budget: int = VERIFY_PAIR_BUDGET,
):
    """ASYMMETRIC shingle containment for MinHash candidate pairs:
    cont_a = |A∩B|/|A| and cont_b = |A∩B|/|B| as integer permille —
    the subset-duplicate detector Jaccard misses (a short doc quoted
    whole inside a long one has high containment but low Jaccard;
    Broder's resemblance-vs-containment distinction).  Emits EVERY
    candidate with exact integer set sizes; thresholding is the
    caller's mask.

    Scale shape: identical two-regime plan as ngram_jaccard_dups
    (shared helpers): below ``pair_budget`` the pair list folds on the
    driver with broadcast candidate texts; above it, two partitioned
    hash joins hang both texts on each pair row and the exact set
    intersection runs inside map_batches."""

    def _contain(ta: str, tb: str):
        sa, sb = shingles(ta or ""), shingles(tb or "")
        inter = len(sa & sb)
        na, nb = len(sa), len(sb)
        return (
            inter,
            na,
            nb,
            inter * 1000 // max(na, 1),
            inter * 1000 // max(nb, 1),
        )

    cols = ("n_inter", "n_a", "n_b", "cont_a_permille", "cont_b_permille")
    empty = pa.table(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            **{c: pa.array([], pa.int64()) for c in cols},
        }
    )
    pairs_ds = (
        minhash_dup_pairs(ds, threshold=candidate_threshold)
        .select_columns(["doc_a", "doc_b"])
        .materialize()
    )
    n_pairs = pairs_ds.count()
    if n_pairs == 0:
        return empty
    live = [r for r in pairs_ds.to_arrow_refs() if ray.get(r).num_rows > 0]
    pairs_ds = ray.data.from_arrow_refs(live)

    if n_pairs <= pair_budget:
        pairs, texts = _pair_texts_driver(ds, pairs_ds)
        rows = [
            (r["doc_a"], r["doc_b"])
            + _contain(texts.get(r["doc_a"], ""), texts.get(r["doc_b"], ""))
            for r in pairs
        ]
        return pa.table(
            {
                "doc_a": pa.array([x[0] for x in rows], pa.int64()),
                "doc_b": pa.array([x[1] for x in rows], pa.int64()),
                **{
                    c: pa.array([x[i + 2] for x in rows], pa.int64())
                    for i, c in enumerate(cols)
                },
            }
        )

    j2 = _pair_texts_ds(ds, pairs_ds)

    def score(t: pa.Table) -> pa.Table:
        rows = [
            _contain(ta, tb)
            for ta, tb in zip(t["text_a"].to_pylist(), t["text_b"].to_pylist())
        ]
        return pa.table(
            {
                "doc_a": t["doc_a"],
                "doc_b": t["doc_b"],
                **{
                    c: pa.array([x[i] for x in rows], pa.int64())
                    for i, c in enumerate(cols)
                },
            }
        )

    return j2.map_batches(score, batch_format="pyarrow").sort(["doc_a", "doc_b"])


def shingle_containment_pairs_docs(sf_dir: str):
    return shingle_containment_pairs(_read_docs(sf_dir))


# ---------------------------------------------------------------------------
# Embedding-cosine near-dup
# ---------------------------------------------------------------------------

def embedding_dup_pairs(
    ds: "ray.data.Dataset", threshold: float = 0.9, max_bucket: int = None
):
    """Near-duplicate pairs by embedding cosine similarity.

    Scale shape: random-hyperplane LSH buckets (12 planes) shuffle only
    (bucket, vec_id, embedding) rows; near-identical vectors share a
    bucket with high probability, and each bucket's pairwise cosine is
    a small local matmul.  Like SimHash for text, recall for pairs just
    above the threshold is probabilistic; pairs at cosine ~1.0 (true
    duplicates) are caught with near-certainty."""
    from document_extractor_ray.functions.similarity import (
        _bucket_of,
        _normalize_rows,
        _planes,
        embedding_matrix,
    )

    def explode(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy()
        mat = embedding_matrix(t["embedding"])
        if mat.size == 0:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "vec_id": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float32())),
                }
            )
        planes = _planes(mat.shape[1])
        buckets = _bucket_of(_normalize_rows(mat), planes)
        return pa.table(
            {
                "bucket": pa.array(buckets, pa.int64()),
                "vec_id": pa.array(ids, pa.int64()),
                "embedding": _float_lists(mat),
            }
        )

    empty = pa.table(
        {
            "vec_a": pa.array([], pa.int64()),
            "vec_b": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )

    def bucket_pairs(g: pa.Table) -> pa.Table:
        if g.num_rows < 2:
            return empty
        g = _cap_bucket(g, "vec_id", "embedding", max_bucket)
        ids = g["vec_id"].to_numpy()
        mat = _normalize_rows(embedding_matrix(g["embedding"]))
        sims = mat @ mat.T
        iu = np.arange(len(ids))
        mask = (sims >= threshold) & (iu[None, :] > iu[:, None]) & (
            ids[None, :] != ids[:, None]
        )
        ii, jj = np.nonzero(mask)
        if not ii.size:
            return empty
        a_, b_ = ids[ii], ids[jj]
        return pa.table(
            {
                "vec_a": pa.array(np.minimum(a_, b_), pa.int64()),
                "vec_b": pa.array(np.maximum(a_, b_), pa.int64()),
                "cosine": pa.array(
                    np.round(sims[ii, jj].astype(np.float64), 6), pa.float64()
                ),
            }
        )

    from document_extractor_ray.functions import bucketing

    # LSH buckets are mostly singletons (key per vec): bucketed pair
    # stage, pair_fn only on >= 2-row buckets (PERF.md step 22)
    return bucketing.bucketed_bucket_pairs(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["bucket"],
        bucket_pairs,
        empty,
    ).sort(["vec_a", "vec_b"])


def _float_lists(mat: np.ndarray) -> pa.ListArray:
    """(n, dim) float32 -> list<float32> column without tolist()."""
    n, dim = mat.shape
    values = pa.array(np.ascontiguousarray(mat).reshape(-1), type=pa.float32())
    offsets = pa.array(np.arange(0, (n + 1) * dim, dim, dtype=np.int32))
    return pa.ListArray.from_arrays(offsets, values)


PLANT_OFFSET = 10_000_000


def plant_near_duplicates(
    sf_dir: str, n_planted: int = 25, noise: float = 1e-3, seed: int = 7
) -> pa.Table:
    """Deterministic near-duplicates of the first ``n_planted``
    embeddings (by vec_id): tiny seeded Gaussian noise, vec_id offset
    by PLANT_OFFSET.  Cosine(original, planted) ~ 0.9999."""
    from document_extractor_ray.functions.similarity import embedding_matrix

    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    t = t.sort_by("vec_id").slice(0, n_planted)
    mat = embedding_matrix(t["embedding"])
    rng = np.random.RandomState(seed)
    scale = noise * float(np.abs(mat).mean() or 1.0)
    perturbed = mat + rng.normal(scale=scale, size=mat.shape).astype(np.float32)
    return pa.table(
        {
            "vec_id": pc.add(t["vec_id"], PLANT_OFFSET),
            "embedding": _float_lists(perturbed),
        }
    )


# ---------------------------------------------------------------------------
# Near-duplicate clustering (connected components over dup pairs)
# ---------------------------------------------------------------------------
#
# Pair finding alone does not dedup a corpus: A~B and B~C must collapse
# into ONE cluster even when A~C was never emitted (the standard
# MinHash-dedup pipeline shape: pairs -> connected components -> keep
# one representative per component).

CLUSTER_EDGE_BUDGET = 500_000


def cluster_pairs(edges) -> dict:
    """Union-find over an edge list; every node maps to the MIN doc_id
    of its connected component (deterministic representative)."""
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in parent}


def _propagate_labels(edges_ds: "ray.data.Dataset", max_rounds: int = 16):
    """Distributed min-label propagation: the above-budget path for
    connected components when the dup-pair edge list no longer fits a
    driver pass.  Each round hash-joins edges with current labels and
    takes a grouped min; LSH dup components are near-cliques (diameter
    2-3), so convergence is a handful of rounds.  Labels are
    re-materialized per round to truncate lineage."""
    from document_extractor_ray.functions.bucketing import (
        bucketed_agg,
        n_shuffle_parts,
    )

    n_parts = n_shuffle_parts()

    # settle the edge list first: the bucketed pair stages can emit
    # zero-row blocks whose empty schema kills the per-round joins
    emat = edges_ds.materialize()
    erefs = [r for r in emat.to_arrow_refs() if ray.get(r).num_rows > 0]
    if erefs:
        edges_ds = ray.data.from_arrow_refs(erefs)

    def ends(t: pa.Table) -> pa.Table:
        node = pa.concat_arrays(
            [t["doc_a"].combine_chunks(), t["doc_b"].combine_chunks()]
        )
        return pa.table({"node": node, "label": node})

    def settle(ds: "ray.data.Dataset") -> "ray.data.Dataset":
        # Ray 2.49's hash aggregate emits EMPTY blocks with an EMPTY
        # schema; a later Dataset.join fails with 'no match for
        # FieldRef' when such a block reaches the pyarrow join — and
        # map_batches never sees zero-row blocks, so a normalizing UDF
        # cannot fix them.  Materialize and rebuild from the non-empty
        # block refs (zero-copy object-store reads of slim label
        # tables).
        mat = ds.materialize()
        refs = [r for r in mat.to_arrow_refs() if ray.get(r).num_rows > 0]
        if not refs:
            return ray.data.from_arrow(
                pa.table(
                    {"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())}
                )
            )
        return ray.data.from_arrow_refs(refs)

    labels = settle(
        bucketed_agg(
            edges_ds.map_batches(ends, batch_format="pyarrow"),
            ["node"],
            [("label", "min", "label")],
        )
    )

    for _ in range(max_rounds):
        # Two INDEPENDENT single joins against edges_ds, not a chained
        # join: Ray 2.49's hash-join output can itself contain
        # empty-schema blocks, and feeding one join's output into a
        # second join dies with "No match ... FieldRef.Name(doc_b) on
        # left side" when such a block reaches the aggregator (and >2
        # chained joins in one DAG deadlock small CPU budgets anyway).
        # Each edge (a,b) sends label(a) to b and label(b) to a; the
        # two directions are separable, so two edges x labels joins
        # produce the same message multiset as the old edges x labels
        # x labels chain.  Both joins materialize before the union and
        # the aggregate: left lazy, the two joins plus the aggregate's
        # exchange form one DAG that deadlocks at small CPU budgets.
        la = edges_ds.join(
            labels.map_batches(
                lambda t: t.rename_columns(["doc_a", "label_a"]),
                batch_format="pyarrow",
            ),
            join_type="inner",
            num_partitions=n_parts,
            on=("doc_a",),
        ).materialize()
        lb = edges_ds.join(
            labels.map_batches(
                lambda t: t.rename_columns(["doc_b", "label_b"]),
                batch_format="pyarrow",
            ),
            join_type="inner",
            num_partitions=n_parts,
            on=("doc_b",),
        ).materialize()

        def msgs_to_b(t: pa.Table) -> pa.Table:
            return pa.table({"node": t["doc_b"], "label": t["label_a"]})

        def msgs_to_a(t: pa.Table) -> pa.Table:
            return pa.table({"node": t["doc_a"], "label": t["label_b"]})

        proposed = settle(
            bucketed_agg(
                la.map_batches(msgs_to_b, batch_format="pyarrow")
                .union(lb.map_batches(msgs_to_a, batch_format="pyarrow"))
                .union(labels),
                ["node"],
                [("label", "min", "label")],
            )
        )
        # Converged when no node's label shrank: labels only decrease,
        # so per-node min == max over (old union new) iff unchanged —
        # one grouped aggregate, no join.
        from ray.data.aggregate import Max

        changed = (
            bucketed_agg(
                proposed.union(labels),
                ["node"],
                [("label", "min", "lo"), ("label", "max", "hi")],
            )
            .map_batches(
                lambda t: t.filter(pc.not_equal(t["lo"], t["hi"]))
                if "lo" in t.schema.names
                else t,
                batch_format="pyarrow",
            )
            .count()
        )
        labels = proposed
        if changed == 0:
            break
    return labels


def near_dup_clusters(
    ds: "ray.data.Dataset",
    threshold: float = 0.7,
    edge_budget: int = CLUSTER_EDGE_BUDGET,
    pairs_ds: "ray.data.Dataset" = None,
):
    """(doc_id, cluster_id) for every doc: connected components over
    the MinHash near-dup pair graph, cluster_id = min doc_id of the
    component (docs in no pair are their own cluster).

    Scale shape: the edge list is the near-dup pairs — a vanishing
    fraction of the corpus — so below ``edge_budget`` the components
    are computed with one driver union-find pass and broadcast; above
    it the distributed min-label propagation path (_propagate_labels,
    one grouped-min + two hash joins per round) produces the same
    labels without any driver-side collection."""
    pairs = pairs_ds if pairs_ds is not None else minhash_dup_pairs(ds, threshold=threshold)
    pairs = pairs.select_columns(["doc_a", "doc_b"]).materialize()
    n_edges = pairs.count()

    if n_edges <= edge_budget:
        edges = [
            (r["doc_a"], r["doc_b"])
            for b in pairs.iter_batches(batch_format="pyarrow")
            for r in b.to_pylist()
        ]
        roots = cluster_pairs(edges)
        if roots:
            dim = pa.table(
                {
                    "node": pa.array(list(roots.keys()), pa.int64()),
                    "label": pa.array(list(roots.values()), pa.int64()),
                }
            )
        else:
            dim = pa.table(
                {"node": pa.array([], pa.int64()), "label": pa.array([], pa.int64())}
            )
        from document_extractor_ray import state

        ref = state.broadcast(dim)

        def attach(t: pa.Table) -> pa.Table:
            d = state.cached_get(ref)
            idx = pc.index_in(t["doc_id"], value_set=d["node"])
            label = pc.take(d["label"], idx)
            return pa.table(
                {
                    "doc_id": t["doc_id"],
                    "cluster_id": pc.coalesce(label, t["doc_id"]),
                }
            )

        return ds.select_columns(["doc_id"]).map_batches(
            attach, batch_format="pyarrow"
        ).sort("doc_id")

    from document_extractor_ray.functions.bucketing import n_shuffle_parts

    labels = _propagate_labels(pairs)
    n_parts = n_shuffle_parts()
    joined = ds.select_columns(["doc_id"]).join(
        labels.map_batches(
            lambda t: t.rename_columns(["doc_id", "cluster_id"]),
            batch_format="pyarrow",
        ),
        join_type="left_outer",
        num_partitions=n_parts,
        on=("doc_id",),
    )

    def fill(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "cluster_id": pc.coalesce(t["cluster_id"], t["doc_id"]),
            }
        )

    return joined.map_batches(fill, batch_format="pyarrow").sort("doc_id")


def near_dedup_keep(
    ds: "ray.data.Dataset", threshold: float = 0.7, **kwargs
):
    """Doc ids surviving near-dedup: one representative (min doc_id)
    per near-dup cluster — the operator an LLM training-data pipeline
    actually applies after pair finding."""
    clusters = near_dup_clusters(ds, threshold=threshold, **kwargs)
    return clusters.map_batches(
        lambda t: t.filter(pc.equal(t["doc_id"], t["cluster_id"])).select(["doc_id"]),
        batch_format="pyarrow",
    ).sort("doc_id")


def near_dup_clusters_docs(sf_dir: str, threshold: float = 0.7):
    return near_dup_clusters(_read_docs(sf_dir), threshold=threshold)


def near_dedup_keep_docs(sf_dir: str, threshold: float = 0.7):
    return near_dedup_keep(_read_docs(sf_dir), threshold=threshold)


def embedding_dup_clusters_embeddings(sf_dir: str, threshold: float = 0.9):
    """Connected components over the embedding-cosine dup-pair graph
    (same planted parameterization as embedding_dup_pairs so the
    check is never vacuous): (vec_id, cluster_id) for every vector
    incl. the planted near-duplicates, cluster_id = min member id."""
    from document_extractor_ray.functions.similarity import _read_embeddings

    pairs = embedding_dup_pairs_embeddings(sf_dir, threshold=threshold)
    pairs = pairs.map_batches(
        lambda t: pa.table({"doc_a": t["vec_a"], "doc_b": t["vec_b"]}),
        batch_format="pyarrow",
    )
    planted = ray.data.from_arrow(plant_near_duplicates(sf_dir))
    vecs = _read_embeddings(sf_dir).union(planted).map_batches(
        lambda t: pa.table({"doc_id": t["vec_id"]}), batch_format="pyarrow"
    )
    out = near_dup_clusters(vecs, pairs_ds=pairs)
    return out.map_batches(
        lambda t: pa.table({"vec_id": t["doc_id"], "cluster_id": t["cluster_id"]}),
        batch_format="pyarrow",
    )


def embedding_dup_pairs_embeddings(
    sf_dir: str, threshold: float = 0.9, n_planted: int = 25
):
    """Registered driver query.  The sf corpora's random embeddings
    have max off-diagonal cosine ~0.51 (measured), so a bare >=0.9
    scan provably returns 0 rows — a vacuous check.  This
    parameterization unions deterministic planted near-duplicates
    (see plant_near_duplicates) with the corpus, so the full LSH
    explode -> bucket -> pairwise path is exercised and must recover
    the ~n_planted (orig, orig+PLANT_OFFSET) pairs."""
    from document_extractor_ray.functions.similarity import _read_embeddings

    planted = ray.data.from_arrow(plant_near_duplicates(sf_dir, n_planted))
    ds = _read_embeddings(sf_dir).union(planted)
    return embedding_dup_pairs(ds, threshold=threshold)


# ---------------------------------------------------------------------------
# Benchmark decontamination (eval-leakage guard)
# ---------------------------------------------------------------------------

DECONTAM_SHINGLE_K = 8


def decontaminate(
    ds: "ray.data.Dataset",
    benchmark_texts,
    k: int = DECONTAM_SHINGLE_K,
    min_hits: int = 1,
):
    """Flag documents sharing word k-gram shingles with a benchmark
    set — the decontamination pass run before training to keep eval
    data out of the corpus.

    Scale shape: the benchmark shingle set (benchmarks are ~10^5
    examples — tiny next to the corpus) is hashed once, broadcast as a
    sorted uint64 array (zero-copy through the object store), and each
    batch counts overlaps with one vectorized np.isin per doc's
    shingle array.  No shuffle; output is (doc_id, n_benchmark_hits,
    contaminated)."""
    bench = set()
    for text in benchmark_texts:
        bench |= shingles(text, k)
    bench_arr = np.fromiter(bench, dtype=np.uint64, count=len(bench))
    bench_arr.sort()
    ref = ray.put(bench_arr)

    from document_extractor_ray import state

    def flag(t: pa.Table) -> pa.Table:
        b = state.cached_get(ref)
        hits = []
        for text in t["text"].to_pylist():
            sh = shingles(text or "", k)
            if not sh:
                hits.append(0)
                continue
            arr = np.fromiter(sh, dtype=np.uint64, count=len(sh))
            hits.append(int(np.isin(arr, b, assume_unique=True).sum()))
        hits_arr = pa.array(hits, pa.int64())
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_benchmark_hits": hits_arr,
                "contaminated": pc.greater_equal(hits_arr, min_hits),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow").sort("doc_id")


def decontaminate_docs(sf_dir: str, n_benchmark: int = 3):
    """Registered driver query: the benchmark set is the n lowest-id
    documents themselves, so those docs provably self-flag (the check
    can never be vacuously green) and any true near-copies surface."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    t = t.sort_by("doc_id").slice(0, n_benchmark)
    return decontaminate(_read_docs(sf_dir), t["text"].to_pylist())


# ---------------------------------------------------------------------------
# Duplicated-substring signal (exact shingle-level dup statistics)
# ---------------------------------------------------------------------------

DUP_SHINGLE_BROADCAST_LIMIT = 2_000_000



def _dups_from_partials(partials: "ray.data.Dataset") -> "ray.data.Dataset":
    """(x, df_part) partial counts -> materialized Dataset of the
    duplicated-hash set {x : sum(df_part) >= 2}.

    Bucketed, not ``groupby("x").aggregate(Sum)``: shingle hashes are
    key-per-row (a web corpus has ~1 distinct shingle per token), the
    exact cardinality regime where Ray 2.49's per-group aggregate
    collapses (PERF.md step 20).  One int64-mix bucket column, one
    Python call per PARTITION, one vectorized Arrow group_by inside."""
    from document_extractor_ray.functions import bucketing

    n_parts = bucketing.n_shuffle_parts()

    def add_part(t: pa.Table) -> pa.Table:
        xs = t["x"].to_numpy(zero_copy_only=False)
        return t.append_column("part", bucketing.part_of_int64(xs, n_parts))

    def resolve(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, ["x"]).aggregate([("df_part", "sum")])
        out = pa.table({"x": g["x"], "df": g["df_part_sum"]})
        return out.filter(pc.greater_equal(out["df"], 2)).select(["x"])

    return (
        partials.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(resolve, batch_format="pyarrow")
        .materialize()
    )


def dup_shingle_stats(
    ds: "ray.data.Dataset",
    k: int = 3,
    broadcast_limit: int = DUP_SHINGLE_BROADCAST_LIMIT,
):
    """Per-doc duplicated-substring statistics (the signal behind
    substring-level dedup a la Lee et al. 2021, "Deduplicating
    Training Data Makes Language Models Better"): for every document,
    how many of its DISTINCT word-k-gram shingles also occur in at
    least one other document, as an exact integer permille.

    Two phases, both shuffle-bounded by the distinct-shingle count:
    1. global shingle document frequency — per-batch np.unique partial
       counts (a doc's shingles are already distinct via `shingles`),
       one grouped Sum, filter df >= 2;
    2. membership: below `broadcast_limit` dup shingles, the sorted
       hash array broadcasts once (ray.put) and each doc's overlap is
       a vectorized searchsorted; above it, the (doc_id, x) stream
       inner-joins the dup set on x and the per-doc totals arrive via
       a UNION of count partials into ONE grouped Sum — never an
       aggregate-output-into-join DAG (the Ray 2.49 empty-schema-block
       trap, see _propagate_labels).

    Hash domain note: shingle hashes are uint64; both phases
    reinterpret the same bits as int64 for Arrow transport (bijective,
    so df counts and equality joins are unaffected)."""
    from ray.data.aggregate import Sum

    from document_extractor_ray import state

    def df_partial(t: pa.Table) -> pa.Table:
        xs = []
        for txt in t["text"].to_pylist():
            s = shingles(txt, k)
            if s:
                xs.append(np.fromiter(s, dtype=np.uint64, count=len(s)))
        if xs:
            ux, cnt = np.unique(np.concatenate(xs), return_counts=True)
        else:
            ux = np.array([], dtype=np.uint64)
            cnt = np.array([], dtype=np.int64)
        return pa.table(
            {
                "x": pa.array(ux.view(np.int64), pa.int64()),
                "df_part": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    dups = _dups_from_partials(ds.map_batches(df_partial, batch_format="pyarrow"))
    n_dups = dups.count()

    if n_dups <= broadcast_limit:
        arrs = [
            tb["x"].combine_chunks().to_numpy(zero_copy_only=False)
            for tb in map(ray.get, dups.to_arrow_refs())
            if tb.num_rows
        ]
        dup_sorted = (
            np.sort(np.concatenate(arrs)) if arrs else np.array([], np.int64)
        )
        ref = state.broadcast(dup_sorted)

        def stats(t: pa.Table) -> pa.Table:
            dup_arr = state.cached_get(ref)
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            n_sh = np.zeros(len(ids), np.int64)
            n_shared = np.zeros(len(ids), np.int64)
            for i, txt in enumerate(t["text"].to_pylist()):
                s = shingles(txt, k)
                if not s:
                    continue
                arr = np.fromiter(s, dtype=np.uint64, count=len(s)).view(np.int64)
                n_sh[i] = len(arr)
                if len(dup_arr):
                    pos = np.searchsorted(dup_arr, arr)
                    pos = np.clip(pos, 0, len(dup_arr) - 1)
                    n_shared[i] = int(np.count_nonzero(dup_arr[pos] == arr))
            pm = n_shared * 1000 // np.maximum(n_sh, 1)
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "n_shingles": pa.array(n_sh, pa.int64()),
                    "n_shared": pa.array(n_shared, pa.int64()),
                    "shared_permille": pa.array(pm, pa.int64()),
                }
            )

        return ds.map_batches(stats, batch_format="pyarrow").sort("doc_id")

    # --- scale path: partitioned join, totals via UNION of partials ---
    def doc_rows(t: pa.Table) -> pa.Table:
        ids, n_sh = [], []
        doc_x_ids, doc_x = [], []
        for did, txt in zip(
            t["doc_id"].to_numpy(zero_copy_only=False), t["text"].to_pylist()
        ):
            s = shingles(txt, k)
            ids.append(int(did))
            n_sh.append(len(s))
            if s:
                doc_x_ids.append(np.full(len(s), did, np.int64))
                doc_x.append(np.fromiter(s, np.uint64, len(s)).view(np.int64))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_shingles": pa.array(n_sh, pa.int64()),
            }
        ), pa.table(
            {
                "doc_id": pa.array(
                    np.concatenate(doc_x_ids) if doc_x_ids else np.array([], np.int64),
                    pa.int64(),
                ),
                "x": pa.array(
                    np.concatenate(doc_x) if doc_x else np.array([], np.int64),
                    pa.int64(),
                ),
            }
        )

    def totals_part(t: pa.Table) -> pa.Table:
        tbl, _ = doc_rows(t)
        return tbl.append_column(
            "n_shared", pa.array(np.zeros(tbl.num_rows, np.int64), pa.int64())
        )

    def stream_part(t: pa.Table) -> pa.Table:
        _, tbl = doc_rows(t)
        return tbl

    from document_extractor_ray.functions.bucketing import (
        bucketed_agg,
        n_shuffle_parts,
    )

    n_parts = n_shuffle_parts()
    # settle: the materialized aggregate may carry empty blocks with an
    # EMPTY schema that break the pyarrow join (see _propagate_labels)
    live = [r for r in dups.to_arrow_refs() if ray.get(r).num_rows > 0]
    dups_clean = (
        ray.data.from_arrow_refs(live)
        if live
        else ray.data.from_arrow(pa.table({"x": pa.array([], pa.int64())}))
    )
    hits = (
        ds.map_batches(stream_part, batch_format="pyarrow")
        .join(dups_clean, join_type="inner", num_partitions=n_parts, on=("x",))
        .map_batches(
            lambda t: pa.table(
                {
                    "doc_id": t["doc_id"],
                    "n_shingles": pa.array(np.zeros(t.num_rows, np.int64), pa.int64()),
                    "n_shared": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )
    agg = bucketed_agg(
        ds.map_batches(totals_part, batch_format="pyarrow").union(hits),
        ["doc_id"],
        [("n_shingles", "sum", "n_shingles"), ("n_shared", "sum", "n_shared")],
    )

    def finish(t: pa.Table) -> pa.Table:
        pm = pc.divide(
            pc.multiply(t["n_shared"], 1000),
            pc.max_element_wise(t["n_shingles"], 1),
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_shingles": t["n_shingles"],
                "n_shared": t["n_shared"],
                "shared_permille": pc.cast(pm, pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow").sort("doc_id")


def dup_shingle_stats_docs(sf_dir: str):
    return dup_shingle_stats(_read_docs(sf_dir))


# ---------------------------------------------------------------------------
# Cross-document duplicated-n-gram removal (exact substring dedup,
# word-level — Lee et al. 2022, "Deduplicating Training Data Makes
# Language Models Better": remove the REPEATED SPANS, keep the docs)
# ---------------------------------------------------------------------------

DUP_SCRUB_K = 5


def _window_hashes(words, k: int) -> np.ndarray:
    """Positional word-k-gram hashes, the exact positional counterpart
    of ``shingles``' full-window path: h[i] = sum_j crc(w[i+j]) *
    _SHINGLE_P[j % 3] mod 2^64 for every window start i (0-based).
    Empty array when the doc has < k words."""
    if len(words) < k:
        return np.array([], dtype=np.uint64)
    crc = np.fromiter(
        (zlib.crc32(w.encode("utf-8")) for w in words),
        dtype=np.uint64,
        count=len(words),
    )
    n_win = len(crc) - k + 1
    with np.errstate(over="ignore"):
        h = np.zeros(n_win, dtype=np.uint64)
        for j in range(k):
            h += crc[j : n_win + j] * _SHINGLE_P[j % 3]
    return h


def _scrub_rows(ids, texts, covered_starts, k: int) -> pa.Table:
    """Rebuild each doc from the words NOT covered by any duplicated
    window start in ``covered_starts`` (0-based starts per row)."""
    n_words = np.zeros(len(ids), np.int64)
    n_removed = np.zeros(len(ids), np.int64)
    out_text = []
    for i, txt in enumerate(texts):
        words = (txt or "").lower().split()
        m = len(words)
        n_words[i] = m
        starts = covered_starts[i]
        if m == 0 or starts is None or len(starts) == 0:
            out_text.append(" ".join(words))
            continue
        cov = np.zeros(m, dtype=bool)
        s = np.asarray(starts, dtype=np.int64)
        for j in range(k):
            cov[s + j] = True
        n_removed[i] = int(np.count_nonzero(cov))
        out_text.append(" ".join(w for w, c in zip(words, cov) if not c))
    return pa.table(
        {
            "doc_id": pa.array(np.asarray(ids, np.int64), pa.int64()),
            "n_words": pa.array(n_words, pa.int64()),
            "n_removed": pa.array(n_removed, pa.int64()),
            "scrubbed_text": pa.array(out_text, pa.string()),
        }
    )


def dup_ngram_scrub(
    ds: "ray.data.Dataset",
    k: int = DUP_SCRUB_K,
    broadcast_limit: int = DUP_SHINGLE_BROADCAST_LIMIT,
):
    """Remove every word covered by a word-k-gram that occurs in more
    than one document; docs shorter than k words pass through intact
    (no full window exists).  Output per doc: word count, removed-word
    count, and the scrubbed (lowercased, space-joined) text.

    Same two-phase shape as ``dup_shingle_stats``:
    1. duplicated-window set = positional hashes deduped per doc,
       partial-counted per batch, one grouped Sum, df >= 2;
    2. coverage: under ``broadcast_limit`` the sorted dup array
       broadcasts once and membership is a per-doc searchsorted; above
       it, the (doc_id, start, x) stream inner-joins the dup set, the
       hit starts pack into one list row per doc (map_groups), and a
       single left_outer join hands each doc its covered starts —
       the shuffle carries only ints, never the text twice."""
    from ray.data.aggregate import Sum

    from document_extractor_ray import state

    def df_partial(t: pa.Table) -> pa.Table:
        xs = []
        for txt in t["text"].to_pylist():
            h = _window_hashes((txt or "").lower().split(), k)
            if len(h):
                xs.append(np.unique(h))
        if xs:
            ux, cnt = np.unique(np.concatenate(xs), return_counts=True)
        else:
            ux = np.array([], dtype=np.uint64)
            cnt = np.array([], dtype=np.int64)
        return pa.table(
            {
                "x": pa.array(ux.view(np.int64), pa.int64()),
                "df_part": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    dups = _dups_from_partials(ds.map_batches(df_partial, batch_format="pyarrow"))
    n_dups = dups.count()

    if n_dups <= broadcast_limit:
        arrs = [
            tb["x"].combine_chunks().to_numpy(zero_copy_only=False)
            for tb in map(ray.get, dups.to_arrow_refs())
            if tb.num_rows
        ]
        dup_sorted = (
            np.sort(np.concatenate(arrs)) if arrs else np.array([], np.int64)
        )
        ref = state.broadcast(dup_sorted)

        def scrub(t: pa.Table) -> pa.Table:
            dup_arr = state.cached_get(ref)
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            texts = t["text"].to_pylist()
            starts = []
            for txt in texts:
                h = _window_hashes((txt or "").lower().split(), k)
                if len(h) == 0 or len(dup_arr) == 0:
                    starts.append(None)
                    continue
                hx = h.view(np.int64)
                pos = np.searchsorted(dup_arr, hx)
                pos = np.clip(pos, 0, len(dup_arr) - 1)
                starts.append(np.nonzero(dup_arr[pos] == hx)[0])
            return _scrub_rows(ids, texts, starts, k)

        return ds.map_batches(scrub, batch_format="pyarrow").sort("doc_id")

    # --- scale path: partitioned join, hit starts packed per doc ---
    def stream_part(t: pa.Table) -> pa.Table:
        doc_ids, ss, xs = [], [], []
        for did, txt in zip(
            t["doc_id"].to_numpy(zero_copy_only=False), t["text"].to_pylist()
        ):
            h = _window_hashes((txt or "").lower().split(), k)
            if len(h):
                doc_ids.append(np.full(len(h), did, np.int64))
                ss.append(np.arange(len(h), dtype=np.int64))
                xs.append(h.view(np.int64))
        z = np.array([], np.int64)
        return pa.table(
            {
                "doc_id": pa.array(
                    np.concatenate(doc_ids) if doc_ids else z, pa.int64()
                ),
                "s": pa.array(np.concatenate(ss) if ss else z, pa.int64()),
                "x": pa.array(np.concatenate(xs) if xs else z, pa.int64()),
            }
        )

    from document_extractor_ray.functions import bucketing

    n_parts = bucketing.n_shuffle_parts()
    # settle: drop empty-schema blocks the aggregate may emit (Ray 2.49
    # trap, see _propagate_labels) before feeding a join
    live = [r for r in dups.to_arrow_refs() if ray.get(r).num_rows > 0]
    dups_clean = (
        ray.data.from_arrow_refs(live)
        if live
        else ray.data.from_arrow(pa.table({"x": pa.array([], pa.int64())}))
    )

    def pack_starts(t: pa.Table) -> pa.Table:
        # int64-LE blob, not list<int64>: Acero hash joins reject list
        # payload columns ("not supported in join non-key field")
        ss = np.sort(t["s"].to_numpy(zero_copy_only=False)).astype("<i8")
        return pa.table(
            {
                "doc_id": pa.array([t["doc_id"][0].as_py()], pa.int64()),
                "starts_blob": pa.array([ss.tobytes()], pa.binary()),
            }
        )

    # per-doc packing without a Python call per doc: bucketed groups
    # (min_rows=1 — every doc with >= 1 hit start needs its blob)
    packed = bucketing.bucketed_bucket_pairs(
        ds.map_batches(stream_part, batch_format="pyarrow").join(
            dups_clean, join_type="inner", num_partitions=n_parts, on=("x",)
        ),
        ["doc_id"],
        pack_starts,
        pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "starts_blob": pa.array([], pa.binary()),
            }
        ),
        min_rows=1,
    )
    # settle before joining: the join->groupby chain can emit
    # empty-schema blocks that kill the next join (see _propagate_labels)
    mat = packed.materialize()
    prefs = [r for r in mat.to_arrow_refs() if ray.get(r).num_rows > 0]
    packed = (
        ray.data.from_arrow_refs(prefs)
        if prefs
        else ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "starts_blob": pa.array([], pa.binary()),
                }
            )
        )
    )
    joined = ds.join(
        packed, join_type="left_outer", num_partitions=n_parts, on=("doc_id",)
    )

    def scrub_joined(t: pa.Table) -> pa.Table:
        starts = [
            None if b is None else np.frombuffer(b, dtype="<i8")
            for b in t["starts_blob"].to_pylist()
        ]
        return _scrub_rows(
            t["doc_id"].to_numpy(zero_copy_only=False),
            t["text"].to_pylist(),
            starts,
            k,
        )

    return joined.map_batches(scrub_joined, batch_format="pyarrow").sort("doc_id")


def dup_ngram_scrub_docs(sf_dir: str):
    return dup_ngram_scrub(_read_docs(sf_dir))


# ---------------------------------------------------------------------------
# Exact edit-distance verification of MinHash candidates
# ---------------------------------------------------------------------------

def _levenshtein(a: str, b: str) -> int:
    """Unit-cost Levenshtein distance, numpy row-DP: one vectorized
    pass per unit of ``a``; the deletion recurrence (a prefix min
    along the row) vectorizes as min.accumulate(row - j) + j.
    Operates on UTF-8 BYTES — DuckDB's ``levenshtein`` does too
    (measured: ('ü','x') = 2), and the oracle must match exactly."""
    if a == b:
        return 0
    aa = np.frombuffer(a.encode("utf-8"), dtype=np.uint8)
    bb = np.frombuffer(b.encode("utf-8"), dtype=np.uint8)
    la, lb = len(aa), len(bb)
    if la == 0:
        return lb
    if lb == 0:
        return la
    ar = np.arange(lb + 1, dtype=np.int64)
    prev = ar.copy()
    row = np.empty(lb + 1, np.int64)
    for i in range(la):
        row[0] = i + 1
        np.minimum(prev[:-1] + (bb != aa[i]), prev[1:] + 1, out=row[1:])
        np.minimum(row, np.minimum.accumulate(row - ar) + ar, out=row)
        prev, row = row, prev
    return int(prev[lb])


def edit_distance_verify(
    ds: "ray.data.Dataset", threshold: float = 0.7, seed: int = 42
):
    """Exact unit-cost edit distance for every MinHash candidate pair —
    the string-level verification stage of the near-dup family
    (ngram_jaccard_dups verifies set overlap; this verifies the
    character sequence).  Output (doc_a, doc_b, edit_dist) ordered.

    Scale shape: the candidate set is already budget-capped by the
    MinHash band machinery (MAX_BUCKET); member texts are fetched with
    one broadcast id-set filter over the corpus (bounded by 2x pairs)
    and the O(len_a*len_b) DP runs distributed over the pair stream,
    one vectorized numpy row-sweep per pair."""
    from document_extractor_ray import state

    pairs = minhash_dup_pairs(ds, threshold=threshold, seed=seed).materialize()
    prefs = [r for r in pairs.to_arrow_refs() if ray.get(r).num_rows > 0]
    empty = pa.table(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "edit_dist": pa.array([], pa.int64()),
        }
    )
    if not prefs:
        return empty
    ptab = pa.concat_tables(map(ray.get, prefs)).combine_chunks()

    id_set = pc.unique(
        pa.concat_arrays(
            [ptab["doc_a"].combine_chunks(), ptab["doc_b"].combine_chunks()]
        )
    )
    members = pa.concat_tables(
        tb
        for tb in map(
            ray.get,
            ds.map_batches(
                lambda t, _s=id_set: t.filter(pc.is_in(t["doc_id"], value_set=_s)),
                batch_format="pyarrow",
            ).to_arrow_refs(),
        )
        if tb.num_rows
    ).combine_chunks()
    ref = state.broadcast(members)

    pairs_ds = ray.data.from_arrow(ptab.select(["doc_a", "doc_b"]))

    def verify(t: pa.Table) -> pa.Table:
        m = state.cached_get(ref)
        ia = pc.index_in(t["doc_a"], value_set=m["doc_id"]).to_numpy(
            zero_copy_only=False
        )
        ib = pc.index_in(t["doc_b"], value_set=m["doc_id"]).to_numpy(
            zero_copy_only=False
        )
        texts = m["text"].to_pylist()
        d = [
            _levenshtein(texts[x] or "", texts[y] or "")
            for x, y in zip(ia, ib)
        ]
        return pa.table(
            {
                "doc_a": t["doc_a"],
                "doc_b": t["doc_b"],
                "edit_dist": pa.array(d, pa.int64()),
            }
        )

    return pairs_ds.map_batches(verify, batch_format="pyarrow").sort(
        ["doc_a", "doc_b"]
    )


def edit_distance_verify_docs(sf_dir: str, threshold: float = 0.7):
    return edit_distance_verify(_read_docs(sf_dir), threshold=threshold)


def edit_distance_verify_sql(threshold: float = 0.7) -> str:
    """Oracle: the minhash candidate CTE (sqlhash) joined back to the
    texts, distances via DuckDB's levenshtein."""
    from document_extractor_ray.functions.sqlhash import minhash_pairs_sql

    return f"""WITH pairs AS ({minhash_pairs_sql(threshold)})
SELECT p.doc_a, p.doc_b,
       CAST(levenshtein(da.text, db.text) AS BIGINT) AS edit_dist
FROM pairs p
JOIN documents da ON da.doc_id = p.doc_a
JOIN documents db ON db.doc_id = p.doc_b
ORDER BY p.doc_a, p.doc_b"""


# ---------------------------------------------------------------------------
# Per-doc k-gram novelty vs everything before it (first-occurrence fold)
# ---------------------------------------------------------------------------

def kgram_novelty(ds: "ray.data.Dataset", k: int = 3):
    """Per document: how many of its distinct word-k-gram shingles
    occur for the FIRST time in this doc (global first occurrence =
    min doc_id) — the snapshot-novelty / incremental-crawl-value
    signal (what fraction of a doc is new text vs already-crawled
    text).  Complements dup_shingle_stats (which counts cross-doc
    SHARING, orderless).

    Distributed shape, all folds shingle- or doc-bounded:
    1. (x, doc_id) stream -> bucketed min(doc_id) per shingle hash
       (the vocabulary-fold shape, never key-per-row groupby);
    2. novel counts = that table re-grouped BY ITS VALUE (min doc_id)
       — a count per doc, NO join back to the corpus;
    3. per-doc distinct totals are computed in-row (a doc's text
       lives whole in its row) and merged with (2) via a UNION into
       ONE bucketed doc_id fold — the join-free two-metric merge.
    Hash domain: uint64 shingles reinterpreted as int64 (bijective).
    """
    from document_extractor_ray.functions.bucketing import bucketed_agg

    def pair_part(t: pa.Table) -> pa.Table:
        xs, ids = [], []
        for did, txt in zip(
            t["doc_id"].to_numpy(zero_copy_only=False), t["text"].to_pylist()
        ):
            s = shingles(txt, k)
            if s:
                xs.append(np.fromiter(s, np.uint64, len(s)).view(np.int64))
                ids.append(np.full(len(s), did, np.int64))
        return pa.table(
            {
                "x": pa.array(
                    np.concatenate(xs) if xs else np.array([], np.int64),
                    pa.int64(),
                ),
                "doc_id": pa.array(
                    np.concatenate(ids) if ids else np.array([], np.int64),
                    pa.int64(),
                ),
            }
        )

    firsts = bucketed_agg(
        ds.map_batches(pair_part, batch_format="pyarrow"),
        ["x"],
        [("doc_id", "min", "fd")],
    )

    def novel_part(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t.select(["fd"]), ["fd"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "doc_id": g["fd"],
                "n_distinct": pa.array(np.zeros(len(g), np.int64), pa.int64()),
                "n_novel": pc.cast(g["count_all"], pa.int64()),
            }
        )

    def totals_part(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        n_sh = np.fromiter(
            (len(shingles(txt, k)) for txt in t["text"].to_pylist()),
            np.int64,
            count=len(ids),
        )
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_distinct": pa.array(n_sh, pa.int64()),
                "n_novel": pa.array(np.zeros(len(ids), np.int64), pa.int64()),
            }
        )

    merged = bucketed_agg(
        ds.map_batches(totals_part, batch_format="pyarrow").union(
            firsts.map_batches(novel_part, batch_format="pyarrow")
        ),
        ["doc_id"],
        [("n_distinct", "sum", "n_distinct"), ("n_novel", "sum", "n_novel")],
    )

    def finish(t: pa.Table) -> pa.Table:
        nd = t["n_distinct"].to_numpy(zero_copy_only=False)
        nv = t["n_novel"].to_numpy(zero_copy_only=False)
        return t.append_column(
            "novelty_permille",
            pa.array(nv * 1000 // np.maximum(nd, 1), pa.int64()),
        )

    return merged.map_batches(finish, batch_format="pyarrow").sort("doc_id")


def kgram_novelty_docs(sf_dir: str, k: int = 3):
    from document_extractor_ray.functions.textstats import _read_docs

    return kgram_novelty(_read_docs(sf_dir, ["doc_id", "text"]), k)


# ---------------------------------------------------------------------------
# MinHash sketch calibration: signature estimate vs exact Jaccard
# ---------------------------------------------------------------------------

CALIB_THRESHOLD = 0.35
CALIB_PAIR_LIMIT = 10_000


def minhash_calibration(
    ds: "ray.data.Dataset",
    threshold: float = CALIB_THRESHOLD,
    pair_limit: int = CALIB_PAIR_LIMIT,
    k: int = 3,
):
    """Sketch-accuracy audit: for LSH candidate pairs, the 64-component
    signature agreement NEXT TO the exact shingle Jaccard, as integers
    (est_permille, jac_num/jac_den/jac_permille, signed err_permille).
    This is how a dedup threshold is tuned before a 100 TB run — it
    quantifies the estimator's bias/variance on THIS corpus rather
    than trusting the binomial bound.

    Audit semantics: pairs are a deterministic sample — sorted
    (doc_a, doc_b), first `pair_limit` (the cap is explicit and in the
    oracle, not silent); candidates at `threshold` 0.35 span the
    interesting range instead of only near-dups.  Texts for the
    sampled pairs attach via a broadcast id filter (<= 2*limit ids);
    the full-corpus escalation is the ngram_jaccard_dups partitioned
    two-join path, verbatim.  Zero-shingle docs carry the documented
    all-max-signature caveat (minhash_pairs_sql docstring); none exist
    in the sf corpora."""
    pairs = (
        minhash_dup_pairs(ds, threshold=threshold)
        .sort(["doc_a", "doc_b"])
        .limit(pair_limit)
        .take_all()
    )
    empty = pa.table(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "sig_match": pa.array([], pa.int64()),
            "est_permille": pa.array([], pa.int64()),
            "jac_num": pa.array([], pa.int64()),
            "jac_den": pa.array([], pa.int64()),
            "jac_permille": pa.array([], pa.int64()),
            "err_permille": pa.array([], pa.int64()),
        }
    )
    if not pairs:
        return empty
    wanted = sorted({r["doc_a"] for r in pairs} | {r["doc_b"] for r in pairs})
    wanted_arr = pa.array(wanted, pa.int64())

    def pick(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["doc_id"], value_set=wanted_arr))
        return t.select(["doc_id", "text"])

    texts = {
        r["doc_id"]: r["text"]
        for r in ds.map_batches(pick, batch_format="pyarrow").take_all()
    }
    sh_cache: dict = {}

    def sh(doc_id: int):
        if doc_id not in sh_cache:
            s = shingles(texts.get(doc_id, ""), k)
            sh_cache[doc_id] = np.sort(
                np.fromiter(s, np.uint64, len(s)).view(np.int64)
            )
        return sh_cache[doc_id]

    rows = {"doc_a": [], "doc_b": [], "sig_match": [], "est_permille": [],
            "jac_num": [], "jac_den": [], "jac_permille": [], "err_permille": []}
    for r in pairs:
        a, b = int(r["doc_a"]), int(r["doc_b"])
        sa, sb = sh(a), sh(b)
        inter = int(len(np.intersect1d(sa, sb, assume_unique=True)))
        den = int(len(sa) + len(sb) - inter)
        sig = int(round(r["est_jaccard"] * N_HASHES))
        est_pm = 1000 * sig // N_HASHES
        jac_pm = 1000 * inter // den if den else 0
        rows["doc_a"].append(a)
        rows["doc_b"].append(b)
        rows["sig_match"].append(sig)
        rows["est_permille"].append(est_pm)
        rows["jac_num"].append(inter)
        rows["jac_den"].append(den)
        rows["jac_permille"].append(jac_pm)
        rows["err_permille"].append(est_pm - jac_pm)
    return pa.table(
        {c: pa.array(v, pa.int64() if c != "doc_a" and c != "doc_b" else pa.int64())
         for c, v in rows.items()}
    )


def minhash_calibration_docs(sf_dir: str):
    from document_extractor_ray.functions.textstats import _read_docs

    return minhash_calibration(_read_docs(sf_dir, ["doc_id", "text"]))


# ---------------------------------------------------------------------------
# Cross-source contamination matrix (shared-shingle counts per pair)
# ---------------------------------------------------------------------------

def source_overlap_matrix(ds: "ray.data.Dataset", k: int = 3):
    """Shared distinct-shingle counts for every source pair — the
    cross-corpus contamination matrix a data curator reads before
    mixing sources.  n_shared(a, b) = |shingles(a) ∩ shingles(b)|
    over DISTINCT word-k-gram hashes (the dedup family's shingles).

    Scale shape — the source catalog is a bounded constant (≤ 63
    here), which turns an all-pairs shingle self-join into a BITMASK
    fold: distinct (hash, source) rows collapse per hash to one int64
    OR-mask (disjoint bits sum exactly), the mask HISTOGRAM is the
    only thing that leaves the shuffle (bounded by observed mask
    combinations, never hash count), and the driver expands 190 pair
    counts from it with one vectorized popcount pass.  No self-join,
    no per-hash Python, nothing pair-shaped ever shuffles."""
    from document_extractor_ray.functions.bucketing import bucketed_agg

    src_rows = (
        bucketed_agg(
            ds.select_columns(["source"]),
            ["source"],
            [(None, "count", "n")],
        )
        .select_columns(["source"])
        .take_all()
    )
    sources = sorted(r["source"] for r in src_rows)
    if len(sources) > 63:
        raise ValueError(
            "source_overlap_matrix packs sources into an int64 bitmask; "
            f"got {len(sources)} sources — shard the catalog first"
        )
    code_of = {s: i for i, s in enumerate(sources)}

    def explode(t: pa.Table) -> pa.Table:
        srcs = t["source"].to_pylist()
        xs, cs = [], []
        for txt, src in zip(t["text"].to_pylist(), srcs):
            sh = shingles(txt, k)
            if sh:
                xs.append(np.fromiter(sh, dtype=np.uint64, count=len(sh)))
                cs.append(np.full(len(sh), code_of[src], np.int64))
        if not xs:
            return pa.table(
                {"x": pa.array([], pa.int64()), "code": pa.array([], pa.int64())}
            )
        x = np.concatenate(xs).view(np.int64)
        c = np.concatenate(cs)
        # local distinct (hash, code) so the exchange ships unique rows
        pairs = np.unique(np.stack([x, c], axis=1), axis=0)
        return pa.table(
            {
                "x": pa.array(pairs[:, 0], pa.int64()),
                "code": pa.array(pairs[:, 1], pa.int64()),
            }
        )

    from document_extractor_ray.functions.bucketing import bitmask_pair_counts

    pair_counts, _ = bitmask_pair_counts(
        ds.map_batches(explode, batch_format="pyarrow"), ["x"], "code", len(sources)
    )
    out_a, out_b, out_n = [], [], []
    for (i, j), n_shared in sorted(pair_counts.items()):
        if n_shared:
            out_a.append(sources[i])
            out_b.append(sources[j])
            out_n.append(n_shared)
    return pa.table(
        {
            "source_a": pa.array(out_a, pa.string()),
            "source_b": pa.array(out_b, pa.string()),
            "n_shared": pa.array(out_n, pa.int64()),
        }
    )


def source_overlap_matrix_docs(sf_dir: str):
    from document_extractor_ray.functions.textstats import _read_docs

    return source_overlap_matrix(_read_docs(sf_dir, ["text", "source"]))


# ---------------------------------------------------------------------------
# Per-source survival stats after near-dedup (pipeline composition audit)
# ---------------------------------------------------------------------------

SURVIVOR_BROADCAST_LIMIT = 5_000_000


def dedup_survivor_stats_docs(
    sf_dir: str, threshold: float = 0.7, broadcast_limit: int = SURVIVOR_BROADCAST_LIMIT
):
    """Per-source survival rate through the near-dedup keep pass —
    the composition audit a training-data curator reads before
    trusting a mixture (a source whose survival craters is a mirror
    farm).  Runs the REAL near_dedup_keep pipeline, then folds the
    survivor id set against the documents table: survivors broadcast
    as an id array below ``broadcast_limit`` (slim int64 column;
    above budget this becomes one partitioned semi-join — same
    discipline as the dedup family it audits).  kept_permille is
    floor-exact integer arithmetic."""
    from ray.data.aggregate import Sum

    from document_extractor_ray import state
    from document_extractor_ray.functions.textstats import _read_docs as _read_doc_cols

    keep = near_dedup_keep(_read_docs(sf_dir), threshold=threshold).materialize()
    n_keep = keep.count()

    docs = _read_doc_cols(sf_dir, ["doc_id", "source"])

    if n_keep <= broadcast_limit:
        keep_tab = pa.concat_tables(
            [ray.get(r) for r in keep.to_arrow_refs() if ray.get(r).num_rows > 0]
            or [pa.table({"doc_id": pa.array([], pa.int64())})]
        ).combine_chunks()
        keep_ref = state.broadcast(keep_tab)

        def tag(t: pa.Table) -> pa.Table:
            ids = state.cached_get(keep_ref)["doc_id"].combine_chunks()
            kept = pc.cast(
                pc.is_in(t["doc_id"], value_set=ids), pa.int64()
            )
            return pa.table({"source": t["source"], "kept": kept})

        tagged = docs.map_batches(tag, batch_format="pyarrow")
    else:
        def mark(t: pa.Table) -> pa.Table:
            return t.append_column("kept_flag", pa.array(np.ones(t.num_rows, np.int64)))

        j = docs.join(
            keep.map_batches(mark, batch_format="pyarrow"),
            join_type="left_outer",
            num_partitions=8,
            on=("doc_id",),
            right_on=("doc_id",),
        )

        def tag_j(t: pa.Table) -> pa.Table:
            if t.num_rows == 0 or "source" not in set(t.column_names):
                return pa.table(
                    {
                        "source": pa.array([], pa.string()),
                        "kept": pa.array([], pa.int64()),
                    }
                )
            kept = pc.cast(pc.is_valid(t["kept_flag"]), pa.int64())
            return pa.table({"source": t["source"], "kept": kept})

        tagged = j.map_batches(tag_j, batch_format="pyarrow")

    def partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, ["source"]).aggregate(
            [([], "count_all"), ("kept", "sum")]
        )
        return pa.table(
            {
                "source": g["source"],
                "n_docs": pc.cast(g["count_all"], pa.int64()),
                "n_kept": g["kept_sum"],
            }
        )

    def finish(t: pa.Table) -> pa.Table:
        permille = pc.cast(
            pc.divide(pc.multiply(t["n_kept"], 1000), t["n_docs"]), pa.int64()
        )
        return t.append_column("kept_permille", permille)

    return (
        tagged.map_batches(partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(Sum("n_docs", alias_name="n_docs"), Sum("n_kept", alias_name="n_kept"))
        .map_batches(finish, batch_format="pyarrow")
        .sort("source")
    )


# ---------------------------------------------------------------------------
# Entity-name similarity join via SymSpell deletion-neighborhood blocking
# ---------------------------------------------------------------------------


def _is_edit1(a: str, b: str) -> bool:
    """Exact Levenshtein-distance-==1 check (two-pointer, O(len))."""
    la, lb = len(a), len(b)
    if a == b or abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(1 for x, y in zip(a, b) if x != y) == 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = j = 0
    skipped = False
    while i < la:
        if a[i] == b[j]:
            i += 1
            j += 1
        elif skipped:
            return False
        else:
            skipped = True
            j += 1
    return True


def name_typo_pairs(sf_dir: str):
    """All pairs of customer names at Levenshtein distance exactly 1 —
    the entity-resolution blocking join (SymSpell / FastSS deletion
    neighborhoods): two strings within edit distance 1 always share a
    member of {s} ∪ {s minus one char}, so candidates come from an
    equality join on deletion variants, never an all-pairs scan.
    Sharing a variant only bounds the distance by 2, so candidates are
    verified with an exact two-pointer check.

    Scale shape: the explode is ~len(s)+1 short rows per name;
    ``bucketed_bucket_pairs`` turns variant groups into candidate
    pairs with one sort per hash partition (no per-group Python
    dispatch); duplicate candidates (one pair can share several
    variants) collapse in a bucketed pair-key aggregate; the verify is
    O(len) per surviving candidate.  The oracle is the brute-force
    quadratic levenshtein join — this plan replaces it with work
    linear in names × alphabet."""
    from document_extractor_ray.functions.analytics import _read
    from document_extractor_ray.functions.bucketing import (
        bucketed_agg,
        bucketed_bucket_pairs,
    )

    ds = _read(sf_dir, "customer", columns=["c_name"])

    def explode(t: pa.Table) -> pa.Table:
        variants, names = [], []
        for s in t["c_name"].to_pylist():
            vs = {s}
            for i in range(len(s)):
                vs.add(s[:i] + s[i + 1 :])
            for v in vs:
                variants.append(v)
                names.append(s)
        return pa.table(
            {
                "variant": pa.array(variants, pa.string()),
                "name": pa.array(names, pa.string()),
            }
        )

    empty = pa.table(
        {
            "name_a": pa.array([], pa.string()),
            "name_b": pa.array([], pa.string()),
        }
    )

    def pair_fn(g: pa.Table) -> pa.Table:
        names = sorted(set(g["name"].to_pylist()))
        if len(names) < 2:
            return empty
        a_l, b_l = [], []
        for i in range(len(names) - 1):
            for j in range(i + 1, len(names)):
                a_l.append(names[i])
                b_l.append(names[j])
        return pa.table(
            {
                "name_a": pa.array(a_l, pa.string()),
                "name_b": pa.array(b_l, pa.string()),
            }
        )

    cand = bucketed_bucket_pairs(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["variant"],
        pair_fn,
        empty,
    )

    def verify(t: pa.Table) -> pa.Table:
        keep = [
            _is_edit1(a, b)
            for a, b in zip(t["name_a"].to_pylist(), t["name_b"].to_pylist())
        ]
        return t.filter(pa.array(keep, pa.bool_()))

    distinct = bucketed_agg(
        cand, ["name_a", "name_b"], [(None, "count", "n_variants")]
    )
    return (
        distinct.map_batches(verify, batch_format="pyarrow")
        .drop_columns(["n_variants"])
        .sort(["name_a", "name_b"])
    )


NAME_TYPO_PAIRS_SQL = """
WITH n AS (SELECT c_name AS name FROM customer)
SELECT a.name AS name_a, b.name AS name_b
FROM n a JOIN n b ON a.name < b.name AND levenshtein(a.name, b.name) = 1
ORDER BY name_a, name_b
"""


def simhash_bit_balance(sf_dir: str):
    """Per-bit balance of the 63-bit simhash over the corpus — a
    skewed bit (share far from ~500 permille) weakens Hamming-distance
    discrimination and inflates bucket collisions; this is the hash-
    quality audit run before trusting simhash bucketing.  Scale shape:
    each block folds its fingerprints into ONE 63-long bit-count
    vector (numpy shift-and-mask), the driver sums the per-block
    vectors."""
    tbl = simhash_table(sf_dir)

    def bitcount(t: pa.Table) -> pa.Table:
        h = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bits = np.arange(63, dtype=np.uint64)
        cnt = ((h[:, None] >> bits[None, :]) & np.uint64(1)).sum(axis=0)
        return pa.table(
            {
                "bit": pa.array(bits.astype(np.int64)),
                "n_set": pa.array(cnt.astype(np.int64)),
                "n_docs": pa.array(np.full(63, len(h), np.int64)),
            }
        )

    parts = tbl.map_batches(bitcount, batch_format="pyarrow").take_all()
    n_set = np.zeros(63, np.int64)
    n_docs = 0
    seen_bits = False
    for r in parts:
        n_set[int(r["bit"])] += int(r["n_set"])
        if int(r["bit"]) == 0:
            n_docs += int(r["n_docs"])
        seen_bits = True
    if not seen_bits:
        n_docs = 0
    return pa.table(
        {
            "bit": pa.array(np.arange(63, dtype=np.int64)),
            "n_set": pa.array(n_set),
            "share_permille": pa.array(
                (n_set * 1000 // max(n_docs, 1)).astype(np.int64)
            ),
        }
    )


# ---------------------------------------------------------------------------
# LSH band-bucket size histogram (index health audit)
# ---------------------------------------------------------------------------

def lsh_band_histogram(ds: "ray.data.Dataset", seed: int = 42):
    """LSH index health audit: the distribution of band-bucket sizes —
    one row per (band_id, bucket_size) with how many buckets have that
    size.  This is the measurement behind the MAX_BUCKET skew cap: a
    healthy index is dominated by size-1 buckets; a fat tail here
    predicts quadratic pair blowups before any pair is emitted.

    Scale shape: the minhash_dup_pairs band explode (``_explode_slim``
    with doc_id dropped — only (band, hash) int rows), bucket sizes
    via ONE pair-keyed ``bucketed_agg`` count, then the (bands ×
    sizes)-bounded histogram folds on the driver (PERF 32)."""
    from document_extractor_ray.functions.bucketing import bucketed_agg

    def band_rows(t: pa.Table) -> pa.Table:
        return _explode_slim(t, seed).drop_columns(["doc_id"])

    sizes = bucketed_agg(
        ds.map_batches(band_rows, batch_format="pyarrow", batch_size=512),
        ["band_id", "band_hash"],
        [(None, "count", "sz")],
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(
            pa.table({"band_id": t["band_id"], "sz": t["sz"]}),
            ["band_id", "sz"],
        ).aggregate([([], "count_all")])
        return pa.table(
            {
                "band_id": g["band_id"],
                "sz": g["sz"],
                "n": g["count_all"].cast(pa.int64()),
            }
        )

    parts = sizes.map_batches(hist_partial, batch_format="pyarrow").take_all()
    agg: dict = {}
    for r in parts:
        k = (int(r["band_id"]), int(r["sz"]))
        agg[k] = agg.get(k, 0) + int(r["n"])
    keys = sorted(agg)
    return pa.table(
        {
            "band_id": pa.array([k[0] for k in keys], pa.int64()),
            "bucket_size": pa.array([k[1] for k in keys], pa.int64()),
            "n_buckets": pa.array([agg[k] for k in keys], pa.int64()),
        }
    )


def lsh_band_histogram_docs(sf_dir: str):
    from document_extractor_ray.functions.textstats import _read_docs

    return lsh_band_histogram(_read_docs(sf_dir, ["doc_id", "text"]))


# ---------------------------------------------------------------------------
# Bloom-filter decontamination + sketch-accuracy audit
# ---------------------------------------------------------------------------

BLOOM_M = 4096          # filter bits
BLOOM_K = 3             # probes per shingle (double hashing)


def _bloom_bits(x: np.ndarray) -> np.ndarray:
    """(n, BLOOM_K) bit indices per shingle hash: double hashing
    h1 + j*h2 mod m with h1 = x mod m, h2 = 2*(x >> 32) + 1 (odd) —
    Kirsch & Mitzenmacher 2006: two derived hashes suffice."""
    h1 = x % np.uint64(BLOOM_M)
    h2 = (x >> np.uint64(32)) * np.uint64(2) + np.uint64(1)
    j = np.arange(BLOOM_K, dtype=np.uint64)
    return ((h1[:, None] + j[None, :] * h2[:, None]) % np.uint64(BLOOM_M)).astype(
        np.int64
    )


def bloom_decontaminate(
    ds: "ray.data.Dataset",
    benchmark_texts,
    k: int = DECONTAM_SHINGLE_K,
):
    """Decontamination via a BLOOM FILTER of the benchmark shingles,
    audited against the exact broadcast-set pass in the same output:
    per doc, distinct-shingle count, exact benchmark hits, Bloom hits,
    and the false-positive surplus bloom_fp = bloom − exact (exact ⊆
    Bloom by construction, so the surplus IS the FP count).  This is
    the scale path decontamination takes when the benchmark set
    outgrows a broadcastable sorted array: m bits ship instead of the
    set, at a measured (not modeled) FP cost.

    Scale shape: the m-bit filter builds once on the driver from the
    (tiny) benchmark and broadcasts as a bool array; each batch probes
    with one vectorized double-hash gather per doc — no shuffle.  The
    oracle replicates filter construction AND probes bit-exactly in
    SQL, so even the false positives match."""
    from document_extractor_ray import state

    bench = set()
    for text in benchmark_texts:
        bench |= shingles(text, k)
    bench_arr = np.fromiter(bench, dtype=np.uint64, count=len(bench))
    bench_arr.sort()
    bits = np.zeros(BLOOM_M, dtype=bool)
    if len(bench_arr):
        bits[_bloom_bits(bench_arr).reshape(-1)] = True
    ref = state.broadcast({"bits": bits, "exact": bench_arr})

    def flag(t: pa.Table) -> pa.Table:
        st = state.cached_get(ref)
        bits_l, exact_l = st["bits"], st["exact"]
        n_sh, ex, bl = [], [], []
        for text in t["text"].to_pylist():
            sh = shingles(text or "", k)
            if not sh:
                n_sh.append(0)
                ex.append(0)
                bl.append(0)
                continue
            arr = np.fromiter(sh, dtype=np.uint64, count=len(sh))
            n_sh.append(len(arr))
            ex.append(int(np.isin(arr, exact_l, assume_unique=True).sum()))
            bl.append(int(bits_l[_bloom_bits(arr)].all(axis=1).sum()))
        bl_arr = pa.array(bl, pa.int64())
        ex_arr = pa.array(ex, pa.int64())
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_shingles": pa.array(n_sh, pa.int64()),
                "exact_hits": ex_arr,
                "bloom_hits": bl_arr,
                "bloom_fp": pc.subtract(bl_arr, ex_arr),
                "contaminated_bloom": pc.cast(
                    pc.greater_equal(bl_arr, 1), pa.int64()
                ),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow").sort("doc_id")


def bloom_decontaminate_docs(sf_dir: str, n_benchmark: int = 3):
    import pyarrow.parquet as pq

    from document_extractor_ray.functions.textstats import _read_docs

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    t = t.sort_by("doc_id").slice(0, n_benchmark)
    return bloom_decontaminate(
        _read_docs(sf_dir, ["doc_id", "text"]), t["text"].to_pylist()
    )


# ---------------------------------------------------------------------------
# b-bit MinHash compression audit (Li & Koenig, 2010)
# ---------------------------------------------------------------------------

BBIT_THRESH_PERMILLE = 700


def bbit_minhash_agreement(
    ds: "ray.data.Dataset", seed: int = 42, max_bucket: int = None
):
    """b-bit MinHash audit over the LSH candidate pairs: per pair the
    FULL 64-value signature agreement next to the 1-BIT agreement
    (only the lowest bit of each component kept — a 64x storage cut)
    and the Li-Koenig unbiased estimate est_b1 = 2*A1/64 - 1 in
    integer permille.  What the audit shows is the compression
    trade: full agreement is the Jaccard estimate, 1-bit agreement
    concentrates around (1+J)/2 — the surplus over that is the price
    of the dropped 63 bits, measured on real pairs (the same
    sketch-vs-exact shape as bloom_decontaminate / hdr_quantile_error).

    Scale shape: identical to minhash_dup_pairs — both counts come
    from the ``_lsh_candidates`` signature matrices, so no signature
    crosses a shuffle.  Threshold compares as agree*1000 >= 700*64 —
    no float anywhere."""
    a_ids, b_ids, sa, sb = _lsh_candidates(ds, seed, max_bucket)
    agree = (sa == sb).sum(axis=1).astype(np.int64)
    a1 = ((sa & np.uint64(1)) == (sb & np.uint64(1))).sum(axis=1).astype(np.int64)
    keep = agree * 1000 >= BBIT_THRESH_PERMILLE * N_HASHES
    agree, a1 = agree[keep], a1[keep]
    return ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array(a_ids[keep], pa.int64()),
                "doc_b": pa.array(b_ids[keep], pa.int64()),
                "agree_full": pa.array(agree, pa.int64()),
                "agree_1bit": pa.array(a1, pa.int64()),
                "est_b1_permille": pa.array(
                    2 * a1 * 1000 // N_HASHES - 1000, pa.int64()
                ),
            }
        )
    )


def bbit_minhash_agreement_docs(sf_dir: str):
    from document_extractor_ray.functions.textstats import _read_docs

    return bbit_minhash_agreement(_read_docs(sf_dir, ["doc_id", "text"]))


# ---------------------------------------------------------------------------
# Near-dup graph degree distribution (cluster sizing before scrub)
# ---------------------------------------------------------------------------

def dup_graph_degree_hist(ds: "ray.data.Dataset", threshold: float = 0.7):
    """Degree distribution of the MinHash near-dup pair graph: per
    degree d, how many docs have exactly d near-dup partners — the
    pre-scrub audit that sizes connected components (a fat degree
    tail predicts giant clusters and union-find cost; the histogram
    is what CLUSTER_EDGE_BUDGET should be checked against).

    Scale shape: pairs -> endpoint explode (2 rows per pair) ->
    doc-keyed bucketed count (key-per-row rule) -> degree-bounded
    driver histogram fold.  Nothing doc-cardinality ever sorts."""
    from document_extractor_ray.functions import bucketing

    pairs = minhash_dup_pairs(ds, threshold=threshold)

    def explode(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays(
            [t["doc_a"].combine_chunks(), t["doc_b"].combine_chunks()]
        )
        return pa.table(
            {
                "doc_id": ids,
                "n": pa.array(np.ones(len(ids), np.int64), pa.int64()),
            }
        )

    deg = bucketing.bucketed_agg(
        pairs.map_batches(explode, batch_format="pyarrow"),
        ["doc_id"],
        [("n", "sum", "degree")],
    )
    hist: dict[int, int] = {}
    for tb in map(ray.get, deg.to_arrow_refs()):
        if not tb.num_rows:
            continue
        for d in tb["degree"].to_pylist():
            hist[int(d)] = hist.get(int(d), 0) + 1
    ks = sorted(hist)
    return pa.table(
        {
            "degree": pa.array(ks, pa.int64()),
            "n_docs": pa.array([hist[k] for k in ks], pa.int64()),
        }
    )


def dup_graph_degree_hist_docs(sf_dir: str):
    from document_extractor_ray.functions.textstats import _read_docs

    return dup_graph_degree_hist(_read_docs(sf_dir, ["doc_id", "text"]))


# ---------------------------------------------------------------------------
# Near-dup graph triangle census (transitivity audit)
# ---------------------------------------------------------------------------

def dup_graph_triangles(ds: "ray.data.Dataset", threshold: float = 0.7):
    """Triangle census of the MinHash near-dup graph: edge count,
    triangle count, open-triad count (sum deg*(deg-1)/2) and global
    clustering = 3*triangles/triads in integer permille — the
    TRANSITIVITY audit behind near_dup_clusters (high clustering means
    the pair graph is already union-closed and cluster propagation
    converges in few rounds; low clustering means chains, the
    worst case for label propagation).

    Scale shape: the edge list is the budget-guarded pair output (far
    smaller than the corpus); triangles enumerate via the standard
    a<b<c oriented join on the driver below CLUSTER_EDGE_BUDGET —
    above it, the same oriented join runs as two partitioned hash
    joins (the dup_ngram_scrub two-regime pattern, named not built)."""
    rows = minhash_dup_pairs(ds, threshold=threshold).take_all()
    edges = {(r["doc_a"], r["doc_b"]) for r in rows}
    nbrs: dict[int, set] = {}
    deg: dict[int, int] = {}
    for a, b in edges:
        nbrs.setdefault(a, set()).add(b)
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    tri = 0
    for a, b in edges:
        # oriented: count c > b adjacent to both a and b
        tri += sum(1 for c in nbrs.get(a, ()) if c > b and c in nbrs.get(b, set()))
    triads = sum(d * (d - 1) // 2 for d in deg.values())
    return pa.table(
        {
            "n_edges": pa.array([len(edges)], pa.int64()),
            "n_triangles": pa.array([tri], pa.int64()),
            "n_triads": pa.array([triads], pa.int64()),
            "clustering_permille": pa.array(
                [3 * tri * 1000 // triads if triads else 0], pa.int64()
            ),
        }
    )


def dup_graph_triangles_docs(sf_dir: str):
    from document_extractor_ray.functions.textstats import _read_docs

    return dup_graph_triangles(_read_docs(sf_dir, ["doc_id", "text"]))


# ---------------------------------------------------------------------------
# Near-dup cluster size distribution (scrub planning)
# ---------------------------------------------------------------------------

def dedup_cluster_size_hist(ds: "ray.data.Dataset", threshold: float = 0.7):
    """Cluster-size histogram of the near-dup connected components:
    per size s, how many clusters have exactly s members — THE scrub
    planning statistic (total removable docs = sum (s-1)*n_clusters
    over s >= 2; a giant component predicts boilerplate, not true
    duplication).  Complements dup_graph_degree_hist (edges) and
    dup_graph_triangles (transitivity) as the component-level view.

    Scale shape: rides near_dup_clusters' distributed label
    propagation; label counts go through the doc-keyed bucketed
    aggregate and only the size-bounded histogram folds on the
    driver."""
    from document_extractor_ray.functions import bucketing

    labels = near_dup_clusters(ds, threshold=threshold)

    def one(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cluster_id": t["cluster_id"],
                "n": pa.array(np.ones(t.num_rows, np.int64), pa.int64()),
            }
        )

    sizes = bucketing.bucketed_agg(
        labels.map_batches(one, batch_format="pyarrow"),
        ["cluster_id"],
        [("n", "sum", "size")],
    )
    hist: dict[int, int] = {}
    for tb in map(ray.get, sizes.to_arrow_refs()):
        if not tb.num_rows:
            continue
        for s in tb["size"].to_pylist():
            hist[int(s)] = hist.get(int(s), 0) + 1
    ks = sorted(hist)
    return pa.table(
        {
            "cluster_size": pa.array(ks, pa.int64()),
            "n_clusters": pa.array([hist[k] for k in ks], pa.int64()),
        }
    )


def dedup_cluster_size_hist_docs(sf_dir: str):
    from document_extractor_ray.functions.textstats import _read_docs

    return dedup_cluster_size_hist(_read_docs(sf_dir, ["doc_id", "text"]))


# ---------------------------------------------------------------------------
# SimHash Hamming-distance histogram (threshold-calibration audit)
# ---------------------------------------------------------------------------

def simhash_hamming_hist(ds: "ray.data.Dataset"):
    """Histogram of Hamming distances over ALL SimHash chunk-bucket
    candidate pairs (distance cap lifted to 63) — the calibration plot
    behind simhash_dup_pairs' max_distance=3 cutoff: a healthy corpus
    shows a near-dup mode at small distance, a background mode near 32
    (random 63-bit fingerprints), and the valley between them is where
    the threshold belongs.  Same audit role as lsh_band_histogram for
    the MinHash side.

    Scale shape: identical exchange to simhash_dup_pairs (chunk-bucket
    pair kernel, pair-deduped min distance via bucketed minmax); only
    the 64-bin histogram folds on the driver."""
    pairs = simhash_dup_pairs(ds, max_distance=63)
    hist: dict[int, int] = {}
    for tb in map(ray.get, pairs.to_arrow_refs()):
        if not tb.num_rows:
            continue
        for d in tb["distance"].to_pylist():
            hist[int(d)] = hist.get(int(d), 0) + 1
    ks = sorted(hist)
    return pa.table(
        {
            "distance": pa.array(ks, pa.int64()),
            "n_pairs": pa.array([hist[k] for k in ks], pa.int64()),
        }
    )


def simhash_hamming_hist_docs(sf_dir: str):
    from document_extractor_ray.functions.textstats import _read_docs

    return simhash_hamming_hist(_read_docs(sf_dir, ["doc_id", "text"]))


def simhash_sort_locality(sf_dir: str):
    """Fingerprint-sort locality audit: the summed adjacent-pair
    Hamming distance when docs are laid out in SimHash order vs plain
    doc_id order — the number that says how much a fingerprint-
    clustered layout co-locates near-duplicate text (small adjacent
    distance = delta-encoding-friendly shards, cheap windowed
    near-dup verify).  One row: pair count and both adjacency sums.

    Scale shape: one distributed sort per ordering; each block
    contributes its internal adjacency sum plus (first, last)
    fingerprints, and the driver links the #blocks-bounded boundary
    list (the zonemap/encoding audits' key-range decomposition —
    adjacency never leaves the block except at block edges)."""
    sh = simhash_table(sf_dir)  # (doc_id, simhash), sorted by doc_id

    def adjacency(ds, order_key) -> tuple[int, int]:
        def partial(t: pa.Table) -> pa.Table:
            fp = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
            x = fp[:-1] ^ fp[1:]
            inner = int(_POP8[x.view(np.uint8)].sum()) if len(x) else 0
            return pa.table(
                {
                    "first_fp": pa.array([int(fp[0])], pa.int64()),
                    "first_id": pa.array(
                        [int(t["doc_id"][0].as_py())], pa.int64()
                    ),
                    "last_fp": pa.array([int(fp[-1])], pa.int64()),
                    "inner": pa.array([inner], pa.int64()),
                    "n": pa.array([len(fp)], pa.int64()),
                }
            )

        rows: list[dict] = []
        for tb in map(
            ray.get,
            ds.map_batches(
                partial, batch_format="pyarrow", batch_size=None
            ).to_arrow_refs(),
        ):
            if tb.num_rows:
                rows.extend(tb.to_pylist())
        rows.sort(key=order_key)
        total = sum(r["n"] for r in rows)
        s = sum(r["inner"] for r in rows)
        for a, b in zip(rows, rows[1:]):
            s += hamming64(a["last_fp"], b["first_fp"])
        return s, total

    s_fp, n_docs = adjacency(
        sh.sort(["simhash", "doc_id"]),
        lambda r: (r["first_fp"], r["first_id"]),
    )
    s_id, _ = adjacency(sh, lambda r: r["first_id"])
    return pa.table(
        {
            "n_pairs": pa.array([n_docs - 1], pa.int64()),
            "sum_hamming_fp_order": pa.array([s_fp], pa.int64()),
            "sum_hamming_id_order": pa.array([s_id], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# Cross-source duplication audit over the near-dup pair graph
# ---------------------------------------------------------------------------

def dup_cross_source_stats(sf_dir: str, threshold: float = 0.7):
    """Where do near-duplicates come from: fold the MinHash dup-pair
    graph into a per-(source_a, source_b) pair-count matrix
    (unordered source pair, least/greatest) — within-source cells are
    re-posts, off-diagonal cells are cross-source syndication, the
    number that decides whether dedup must run globally or can shard
    by source.

    Scale shape: rides ``minhash_dup_pairs`` (capped buckets, bucketed
    pair dedup); the source attach never ships a corpus-sized dim —
    the pair endpoints (bounded by the dup-pair count) become a
    broadcast id set, one filtered column-pruned scan folds only the
    matching (doc_id, source) rows back to the driver, and the matrix
    itself is |sources|²-bounded."""
    from document_extractor_ray import state
    from document_extractor_ray.functions.textstats import (
        _read_docs as _read_doc_cols,
    )

    pairs_tables = [
        tb
        for tb in map(
            ray.get,
            minhash_dup_pairs(_read_docs(sf_dir), threshold=threshold)
            .to_arrow_refs(),
        )
        if tb.num_rows
    ]
    if not pairs_tables:
        return pa.table(
            {
                "source_a": pa.array([], pa.string()),
                "source_b": pa.array([], pa.string()),
                "n_pairs": pa.array([], pa.int64()),
            }
        )
    pairs = pa.concat_tables(pairs_tables).combine_chunks()
    a = pairs["doc_a"].to_numpy(zero_copy_only=False)
    b = pairs["doc_b"].to_numpy(zero_copy_only=False)
    id_set = np.unique(np.concatenate([a, b]))
    ref = state.broadcast(id_set)

    docs = _read_doc_cols(sf_dir, ["doc_id", "source"])

    def lookup_partial(t: pa.Table) -> pa.Table:
        ids = state.cached_get(ref)
        keep = np.isin(t["doc_id"].to_numpy(zero_copy_only=False), ids)
        return t.filter(pa.array(keep))

    src_of: dict[int, str] = {}
    for tb in map(
        ray.get,
        docs.map_batches(lookup_partial, batch_format="pyarrow").to_arrow_refs(),
    ):
        if not tb.num_rows:
            continue
        for d, s in zip(tb["doc_id"].to_pylist(), tb["source"].to_pylist()):
            src_of[int(d)] = s

    matrix: dict[tuple, int] = {}
    for da, db in zip(a, b):
        sa, sb = src_of[int(da)], src_of[int(db)]
        key = (sa, sb) if sa <= sb else (sb, sa)
        matrix[key] = matrix.get(key, 0) + 1
    keys = sorted(matrix)
    return pa.table(
        {
            "source_a": pa.array([k[0] for k in keys], pa.string()),
            "source_b": pa.array([k[1] for k in keys], pa.string()),
            "n_pairs": pa.array([matrix[k] for k in keys], pa.int64()),
        }
    )


def dup_cross_source_stats_docs(sf_dir: str, threshold: float = 0.7):
    return dup_cross_source_stats(sf_dir, threshold=threshold)


# ---------------------------------------------------------------------------
# End-to-end curation decision table (the whole pipeline, one row per doc)
# ---------------------------------------------------------------------------

FAIL_NEARDUP = 8    # near-dup cluster loser (not the min-id representative)
FAIL_DECONTAM = 16  # shares >= min_hits k-gram shingles with the benchmark


def curation_decisions(sf_dir: str, threshold: float = 0.7, n_benchmark: int = 3):
    """One row per document with the FULL curation verdict: the
    C4/repetition/gopher quality bitmask (doc_quality_composite's
    layers), a near-dup-loser bit (kept representative = min cluster
    id, the near_dedup_keep rule) and a benchmark-contamination bit —
    keep = fail_mask == 0.  This is the end-to-end corpus-curation
    pipeline a training run executes, folded into one auditable table
    (per-reason loss accounting instead of a silent filtered corpus).

    Scale shape: the quality layers are one vectorized pure pass; the
    near-dup loser and contaminated id sets are BOUNDED (dup-cluster
    members and benchmark hits, vanishing fractions of the corpus) so
    they fold to the driver and broadcast as sorted arrays — two
    np.isin probes per batch, no corpus-sized join anywhere."""
    from document_extractor_ray import state
    from document_extractor_ray.functions.textstats import (
        doc_quality_composite,
    )

    # bounded loser set: docs whose cluster representative is not them
    losers: list[int] = []
    for tb in map(
        ray.get,
        near_dup_clusters(_read_docs(sf_dir), threshold=threshold).to_arrow_refs(),
    ):
        if not tb.num_rows:
            continue
        m = pc.not_equal(tb["doc_id"], tb["cluster_id"])
        losers.extend(tb.filter(m)["doc_id"].to_pylist())
    # bounded contaminated set
    cont: list[int] = []
    for tb in map(ray.get, decontaminate_docs(sf_dir, n_benchmark).to_arrow_refs()):
        if not tb.num_rows:
            continue
        cont.extend(tb.filter(tb["contaminated"])["doc_id"].to_pylist())
    loser_arr = np.array(sorted(losers), dtype=np.int64)
    cont_arr = np.array(sorted(cont), dtype=np.int64)
    ref = state.broadcast((loser_arr, cont_arr))

    comp = doc_quality_composite(sf_dir)

    def extend(t: pa.Table) -> pa.Table:
        lo, co = state.cached_get(ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        mask = t["fail_mask"].to_numpy(zero_copy_only=False).copy()
        mask += np.isin(ids, lo) * FAIL_NEARDUP
        mask += np.isin(ids, co) * FAIL_DECONTAM
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "fail_mask": pa.array(mask, pa.int64()),
                "keep": pa.array((mask == 0).astype(np.int64), pa.int64()),
            }
        )

    return comp.map_batches(extend, batch_format="pyarrow").sort("doc_id")


def curation_report_by_source(
    sf_dir: str, threshold: float = 0.7, n_benchmark: int = 3
):
    """Per-source curation loss accounting: for every (source,
    fail_mask) cell, the doc count — the report that says WHERE the
    corpus is losing mass and WHY (which source ships boilerplate,
    which one duplicates, which one leaks benchmark text) before
    anyone signs off on a filter chain.

    Scale shape: same layers as curation_decisions (one pure pass
    with source riding along via doc_quality_composite's extra_cols —
    no second scan; bounded loser/contaminated broadcast sets), then
    per-batch (source × mask) count partials folded on the driver —
    the output is |sources|·|masks|-bounded."""
    from document_extractor_ray import state
    from document_extractor_ray.functions.textstats import (
        doc_quality_composite,
    )

    losers: list[int] = []
    for tb in map(
        ray.get,
        near_dup_clusters(_read_docs(sf_dir), threshold=threshold).to_arrow_refs(),
    ):
        if not tb.num_rows:
            continue
        m = pc.not_equal(tb["doc_id"], tb["cluster_id"])
        losers.extend(tb.filter(m)["doc_id"].to_pylist())
    cont: list[int] = []
    for tb in map(ray.get, decontaminate_docs(sf_dir, n_benchmark).to_arrow_refs()):
        if not tb.num_rows:
            continue
        cont.extend(tb.filter(tb["contaminated"])["doc_id"].to_pylist())
    ref = state.broadcast(
        (np.array(sorted(losers), np.int64), np.array(sorted(cont), np.int64))
    )

    comp = doc_quality_composite(sf_dir, extra_cols=("source",))

    def partial(t: pa.Table) -> pa.Table:
        lo, co = state.cached_get(ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        mask = t["fail_mask"].to_numpy(zero_copy_only=False).copy()
        mask += np.isin(ids, lo) * FAIL_NEARDUP
        mask += np.isin(ids, co) * FAIL_DECONTAM
        g = pa.TableGroupBy(
            pa.table(
                {"source": t["source"], "fail_mask": pa.array(mask, pa.int64())}
            ),
            ["source", "fail_mask"],
        ).aggregate([([], "count_all")])
        return pa.table(
            {
                "source": g["source"],
                "fail_mask": g["fail_mask"],
                "n_p": pc.cast(g["count_all"], pa.int64()),
            }
        )

    fold: dict[tuple, int] = {}
    for tb in map(
        ray.get, comp.map_batches(partial, batch_format="pyarrow").to_arrow_refs()
    ):
        if not tb.num_rows:
            continue
        for s, m, n in zip(
            tb["source"].to_pylist(),
            tb["fail_mask"].to_pylist(),
            tb["n_p"].to_pylist(),
        ):
            fold[(s, int(m))] = fold.get((s, int(m)), 0) + int(n)
    keys = sorted(fold)
    return pa.table(
        {
            "source": pa.array([k[0] for k in keys], pa.string()),
            "fail_mask": pa.array([k[1] for k in keys], pa.int64()),
            "n_docs": pa.array([fold[k] for k in keys], pa.int64()),
        }
    )


CURATION_LAYERS = (
    (0, "c4"),
    (1, "repetition"),
    (2, "gopher"),
    (3, "neardup"),
    (4, "decontam"),
)


def filter_agreement_matrix(
    sf_dir: str, threshold: float = 0.7, n_benchmark: int = 3
):
    """Pairwise agreement between the five curation layers (C4
    quality, repetition, gopher, near-dup loser, benchmark
    contamination): per layer pair the fail counts, the overlap, and
    the Jaccard of the two fail sets (permille, floor) — the audit
    that says whether two filters are redundant (high Jaccard: drop
    one) or orthogonal (each earns its runtime) before anyone tunes
    the chain.

    Scale shape: the per-doc verdict is curation_decisions' single
    vectorized pass; only the <=32-row fail_mask HISTOGRAM leaves the
    cluster (fold_partials), and the driver expands the 10 layer
    pairs from mask bit tests — nothing pair-shaped ever shuffles
    (the bitmask_pair_counts plan applied to an already-packed
    mask)."""
    from document_extractor_ray.functions.bucketing import fold_partials

    cd = curation_decisions(sf_dir, threshold=threshold, n_benchmark=n_benchmark)

    def hist(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(
            pa.table({"fail_mask": t["fail_mask"]}), ["fail_mask"]
        ).aggregate([([], "count_all")])
        return pa.table(
            {"fail_mask": g["fail_mask"], "n": pc.cast(g["count_all"], pa.int64())}
        )

    masks = fold_partials(
        cd.map_batches(hist, batch_format="pyarrow"), "fail_mask", "n"
    )
    m = np.array(list(masks), np.int64)
    c = np.array([masks[k] for k in masks], np.int64)
    cols: dict = {
        k: []
        for k in (
            "layer_a",
            "layer_b",
            "n_fail_a",
            "n_fail_b",
            "n_both",
            "jaccard_permille",
        )
    }
    for i, (bit_a, name_a) in enumerate(CURATION_LAYERS):
        for bit_b, name_b in CURATION_LAYERS[i + 1 :]:
            fa = ((m >> np.int64(bit_a)) & np.int64(1)).astype(bool)
            fb = ((m >> np.int64(bit_b)) & np.int64(1)).astype(bool)
            na = int(c[fa].sum())
            nb = int(c[fb].sum())
            nboth = int(c[fa & fb].sum())
            union = na + nb - nboth
            cols["layer_a"].append(name_a)
            cols["layer_b"].append(name_b)
            cols["n_fail_a"].append(na)
            cols["n_fail_b"].append(nb)
            cols["n_both"].append(nboth)
            cols["jaccard_permille"].append(
                1000 * nboth // union if union else 0
            )
    return pa.table(
        {
            "layer_a": pa.array(cols["layer_a"], pa.string()),
            "layer_b": pa.array(cols["layer_b"], pa.string()),
            "n_fail_a": pa.array(cols["n_fail_a"], pa.int64()),
            "n_fail_b": pa.array(cols["n_fail_b"], pa.int64()),
            "n_both": pa.array(cols["n_both"], pa.int64()),
            "jaccard_permille": pa.array(cols["jaccard_permille"], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# k-core peel of the near-dup graph (iterative fixpoint)
# ---------------------------------------------------------------------------

KCORE_K = 2
KCORE_ROUNDS = 30


def dup_graph_kcore(ds: "ray.data.Dataset", k: int = KCORE_K,
                    rounds: int = KCORE_ROUNDS):
    """The 2-core of the MinHash near-dup graph: iteratively peel
    nodes with degree < k and report what survives — chains and
    pendant docs peel away, leaving the densely-duplicated cores that
    deserve cluster-level review (the graph-theoretic refinement of
    dedup_cluster_size_hist).  The peel is DEFINED as ``rounds``
    fixed iterations (it converges far earlier on real graphs), so
    the oracle replays it as a capped recursive CTE — the fixed-point
    convention the repo's power-iteration oracles established.

    Scale shape: the edge list is the budget-guarded pair output;
    peeling runs on the driver over that bounded graph (above budget
    the same rounds run as bucketed degree aggregates + anti-joins,
    the near_dup_clusters escalation)."""
    rows = minhash_dup_pairs(ds).take_all()
    edges = {(r["doc_a"], r["doc_b"]) for r in rows}
    nodes = {v for e in edges for v in e}
    removed: set = set()
    for _ in range(rounds):
        deg: dict = {}
        for a, b in edges:
            if a in removed or b in removed:
                continue
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        new = {v for v in nodes - removed if deg.get(v, 0) < k}
        if not new:
            break
        removed |= new
    core_nodes = nodes - removed
    core_edges = sum(1 for a, b in edges if a in core_nodes and b in core_nodes)
    return pa.table(
        {
            "n_nodes": pa.array([len(nodes)], pa.int64()),
            "n_edges": pa.array([len(edges)], pa.int64()),
            "k": pa.array([k], pa.int64()),
            "core_nodes": pa.array([len(core_nodes)], pa.int64()),
            "core_edges": pa.array([core_edges], pa.int64()),
            "n_peeled": pa.array([len(removed)], pa.int64()),
        }
    )


def dup_graph_kcore_docs(sf_dir: str):
    from document_extractor_ray.functions.textstats import _read_docs

    return dup_graph_kcore(_read_docs(sf_dir, ["doc_id", "text"]))


# ---------------------------------------------------------------------------
# Near-dup graph degree assortativity (mixing audit)
# ---------------------------------------------------------------------------

def dup_graph_assortativity(ds: "ray.data.Dataset", threshold: float = 0.7):
    """Degree assortativity of the MinHash near-dup graph: the Pearson
    correlation of endpoint degrees over edges, as the exact integer
    rational r_micro = 1e6*(4M*S_jk - S_j+k^2) // (2M*S_jj+kk - S_j+k^2)
    (floor; 0 when the denominator vanishes, i.e. a degree-regular
    graph).  Positive r means dup clusters are dense cliques (hub docs
    pair with hub docs — boilerplate families); negative means
    star/chain shapes (one template spawning many one-off near-copies)
    — with dup_graph_triangles this pins the component GEOMETRY before
    any scrub runs.

    Scale shape: edge list is the budget-guarded pair output; the
    degree join and the four sums run on the driver below
    CLUSTER_EDGE_BUDGET (the dup_graph_triangles regime), bounded by
    the pair budget, never the corpus."""
    rows = minhash_dup_pairs(ds, threshold=threshold).take_all()
    deg: dict[int, int] = {}
    for r in rows:
        deg[r["doc_a"]] = deg.get(r["doc_a"], 0) + 1
        deg[r["doc_b"]] = deg.get(r["doc_b"], 0) + 1
    m = len(rows)
    s_jk = sum(deg[r["doc_a"]] * deg[r["doc_b"]] for r in rows)
    s_sum = sum(deg[r["doc_a"]] + deg[r["doc_b"]] for r in rows)
    s_sq = sum(
        deg[r["doc_a"]] ** 2 + deg[r["doc_b"]] ** 2 for r in rows
    )
    num = 4 * m * s_jk - s_sum * s_sum
    den = 2 * m * s_sq - s_sum * s_sum
    r_micro = (1_000_000 * num) // den if den else 0
    return pa.table(
        {
            "n_edges": pa.array([m], pa.int64()),
            "sum_prod": pa.array([s_jk], pa.int64()),
            "sum_deg": pa.array([s_sum], pa.int64()),
            "sum_sq": pa.array([s_sq], pa.int64()),
            "r_micro": pa.array([r_micro], pa.int64()),
        }
    )


def dup_graph_assortativity_docs(sf_dir: str):
    from document_extractor_ray.functions.textstats import _read_docs

    return dup_graph_assortativity(_read_docs(sf_dir, ["doc_id", "text"]))


# ---------------------------------------------------------------------------
# Incremental-crawl dedup audit (new snapshot vs existing corpus)
# ---------------------------------------------------------------------------

def incremental_dedup_audit(ds: "ray.data.Dataset", threshold: float = 0.7):
    """Incremental re-crawl dedup: treating even doc_ids as the
    EXISTING corpus and odd doc_ids as the NEW crawl, reject every new
    doc that is a MinHash near-duplicate of some existing doc — the
    snapshot-over-snapshot dedup a continuously crawling pipeline runs
    (new data only gets checked AGAINST the index, never re-clustered
    with itself).  Emits one row per rejected new doc: its id and how
    many existing docs it collided with (new-vs-new pairs do NOT
    reject — both stay until a future compaction).

    Scale shape: rides minhash_dup_pairs' banded plan end to end; the
    parity split is a filter on the pair output, and the per-rejected
    rollup is one bucketed aggregate on the (tiny) cross-parity pair
    set."""
    pairs = minhash_dup_pairs(ds, threshold=threshold)

    def cross_parity(t: pa.Table) -> pa.Table:
        a = t["doc_a"].to_numpy(zero_copy_only=False)
        b = t["doc_b"].to_numpy(zero_copy_only=False)
        a_odd, b_odd = (a % 2).astype(bool), (b % 2).astype(bool)
        cross = a_odd != b_odd
        new_doc = np.where(a_odd, a, b)[cross]
        return pa.table(
            {
                "doc_id": pa.array(new_doc, pa.int64()),
                "n": pa.array(np.ones(len(new_doc), np.int64), pa.int64()),
            }
        )

    from document_extractor_ray.functions import bucketing

    return bucketing.bucketed_agg(
        pairs.map_batches(cross_parity, batch_format="pyarrow"),
        ["doc_id"],
        [("n", "sum", "n_existing_matches")],
    ).sort("doc_id")


def incremental_dedup_audit_docs(sf_dir: str):
    from document_extractor_ray.functions.textstats import _read_docs

    return incremental_dedup_audit(_read_docs(sf_dir, ["doc_id", "text"]))


# ---------------------------------------------------------------------------
# Curation-cascade ordering cost plan
# ---------------------------------------------------------------------------

# Relative per-doc evaluation cost of each curation layer (fixed unit
# constants — part of the op definition): heuristics are cheap, the
# near-dup index probe and the benchmark-contamination scan are not.
CURATION_COSTS = {
    "c4": 1,
    "repetition": 2,
    "gopher": 1,
    "neardup": 5,
    "decontam": 3,
}


def filter_order_plan(sf_dir: str, threshold: float = 0.7, n_benchmark: int = 3):
    """Expected per-doc cost of the curation cascade under five
    candidate orderings (each layer promoted to run FIRST, remaining
    layers in canonical order), with short-circuit on first failure:
    cost(ordering) = sum_k cost_k * P(doc passed all earlier layers),
    every probability an exact count from the 32-cell fail_mask
    histogram — the filter-ordering decision (run the cheap
    high-rejection layer first) computed from measured rejection
    JOINTS, not an independence assumption.

    Scale shape: curation_decisions' single vectorized pass; only the
    <= 32-row mask histogram leaves the cluster, and the 5-ordering
    cost table is driver arithmetic over it."""
    from document_extractor_ray.functions.bucketing import fold_partials

    cd = curation_decisions(sf_dir, threshold=threshold, n_benchmark=n_benchmark)

    def hist(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(
            pa.table({"fail_mask": t["fail_mask"]}), ["fail_mask"]
        ).aggregate([([], "count_all")])
        return pa.table(
            {"fail_mask": g["fail_mask"], "n": pc.cast(g["count_all"], pa.int64())}
        )

    masks = fold_partials(
        cd.map_batches(hist, batch_format="pyarrow"), "fail_mask", "n"
    )
    total = sum(masks.values())
    rows = []
    for first_bit, first_name in CURATION_LAYERS:
        order = [(first_bit, first_name)] + [
            (b, nm) for b, nm in CURATION_LAYERS if b != first_bit
        ]
        cost_milli = 0
        seen_bits = 0
        for bit, name in order:
            surv = sum(
                n for m, n in masks.items() if (int(m) & seen_bits) == 0
            )
            cost_milli += CURATION_COSTS[name] * 1000 * surv
            seen_bits |= 1 << bit
        rows.append((first_name, cost_milli // total))
    rows.sort()
    return pa.table(
        {
            "first_layer": pa.array([r[0] for r in rows], pa.string()),
            "expected_cost_milli": pa.array([r[1] for r in rows], pa.int64()),
        }
    )


def filter_order_plan_sql(threshold: float = 0.7, n_benchmark: int = 3) -> str:
    """Oracle: the fail_mask histogram crossed with the five promoted
    orderings; survivor masses via bitwise tests, floor-divided once
    at the end exactly like the Python fold."""
    from document_extractor_ray.functions.sqlhash import curation_decisions_sql

    parts = []
    for first_bit, first_name in CURATION_LAYERS:
        order = [(first_bit, first_name)] + [
            (b, nm) for b, nm in CURATION_LAYERS if b != first_bit
        ]
        terms = []
        seen_bits = 0
        for bit, name in order:
            terms.append(
                f"{CURATION_COSTS[name]} * 1000 * "
                f"coalesce(sum(CASE WHEN (fail_mask & {seen_bits}) = 0 "
                f"THEN n END), 0)"
            )
            seen_bits |= 1 << bit
        expr = " + ".join(terms)
        parts.append(
            f"""  SELECT '{first_name}' AS first_layer,
         CAST(({expr}) // (SELECT sum(n) FROM m) AS BIGINT)
           AS expected_cost_milli
  FROM m"""
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""WITH cd AS MATERIALIZED ({curation_decisions_sql(threshold, n_benchmark)}),
m AS MATERIALIZED (SELECT fail_mask, CAST(count(*) AS BIGINT) AS n FROM cd GROUP BY 1)
{union}
ORDER BY first_layer"""


# ---------------------------------------------------------------------------
# Power-law exponent fit of the near-dup graph degree distribution
# ---------------------------------------------------------------------------


def powerlaw_degree_fit(sf_dir: str):
    """Power-law exponent of the near-dup graph's degree distribution:
    least-squares slope of (ln degree, ln count) over the
    dup_graph_degree_hist points in exact micro-log integers (the
    heaps_law_fit rational-slope machinery) — is the duplication graph
    scale-free (a few hub documents duplicated everywhere) or flat
    (pairwise near-dups)?  alpha_micro = −slope; 0 when fewer than two
    distinct degrees exist.

    Scale shape: the degree histogram is the existing banded-minhash
    plan (bucketed, skew-capped); the fit is driver arithmetic over
    the degree-bounded histogram."""
    import math

    from document_extractor_ray.functions.textstats import _read_docs

    hist = dup_graph_degree_hist(_read_docs(sf_dir, ["doc_id", "text"]))

    def L(v: int) -> int:
        return int(math.floor(math.log(v) * 1_000_000 + 0.5))

    pts = [
        (L(int(d)), L(int(c)))
        for d, c in zip(
            hist["degree"].to_pylist(), hist["n_docs"].to_pylist()
        )
        if int(d) >= 1 and int(c) >= 1
    ]
    m = len(pts)
    if m < 2:
        return pa.table(
            {
                "n_points": pa.array([m], pa.int64()),
                "alpha_micro": pa.array([0], pa.int64()),
                "xbar_micro": pa.array([0], pa.int64()),
                "ybar_micro": pa.array([0], pa.int64()),
            }
        )
    sx = sum(x for x, _ in pts)
    sy = sum(y for _, y in pts)
    num = sum((m * x - sx) * (m * y - sy) for x, y in pts)
    den = sum((m * x - sx) ** 2 for x, _ in pts)

    def fdiv(a: int, n: int) -> int:
        return (a - ((a % n + n) % n)) // n

    slope = fdiv(1_000_000 * num, den) if den else 0
    return pa.table(
        {
            "n_points": pa.array([m], pa.int64()),
            "alpha_micro": pa.array([-slope], pa.int64()),
            "xbar_micro": pa.array([fdiv(sx, m)], pa.int64()),
            "ybar_micro": pa.array([fdiv(sy, m)], pa.int64()),
        }
    )
