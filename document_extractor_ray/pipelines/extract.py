"""The extraction pipeline — Ray Data assembly.

Replaces the reference's three entry points (watcher loop, pass_pdf
orchestrator, pass_any ad-hoc; SURVEY.md §3) with one plan, built by
``run_extraction``:

    source
      -> [optional] exact dedup-first by url        (slim (url, ts) scan)
      -> extract_pages per batch                    (stateless tasks:
           sniff + container explode + pass 1, then the OCR-A/B
           analogue fallback on the rows pass 1 rejects)
      -> [optional] sort by url                     (determinism)

Parquet paths drive the plan with row-group FRAGMENTS: each task reads
its row groups and applies the dedup winner filter inside the
extraction task, so payload bytes never enter the object store.  Every
other input (a ``pa.Table``, a JSONL/CSV/IPC/WARC Dataset, a file with
too few row groups to feed the cluster, or a dedup above the broadcast
budget) runs ``dedup_first`` and then the same ``extract_pages`` as one
``map_batches`` over the Dataset.

Wide operations and their keys (SURVEY.md §7.4): dedup shuffles the
slim (url, warc_ts) projection on ``url``; the final sort orders by
``url``.  Pages of one document never leave the row (list columns), so
there is NO per-document groupby on the hot path — the reference's
per-doc median/concat (A1/A3) are per-row reduces inside the kernel.
"""

from __future__ import annotations

from typing import Optional, Union

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from document_extractor_ray.config import DEFAULT_CONFIG, PipelineConfig
from document_extractor_ray.sources import PAGE_COLUMNS, read_pages
from document_extractor_ray.stages.extract import extract_pages


# Max number of duplicated urls whose winner timestamps are broadcast
# to every worker.  Above this the duplicated-winner table no longer
# belongs in worker heaps (a re-crawl-heavy corpus at 10^12 pages can
# have billions of duplicated urls) and dedup switches to a
# partitioned hash join on url — payloads shuffle once, but nothing
# accumulates on the driver or in per-worker copies.
DEDUP_BROADCAST_LIMIT = 200_000


def dedup_first(
    ds: "ray.data.Dataset",
    broadcast_limit: Optional[int] = None,
    winners: Optional[tuple] = None,
) -> "ray.data.Dataset":
    """Exact dedup by url keeping the earliest warc_ts row (ST6 —
    the reference's unimplemented checksum cache, TODO.md:20).

    Scale shape: a naive ``groupby(url).map_groups(first)`` shuffles
    every payload byte AND pays a Python call per group (measured: it
    capped the whole pipeline at ~3.7k docs/s).  Instead:

    1. count pass over (url, warc_ts) only (projection pushed into the
       parquet read) — a slim vectorized aggregate shuffle; the
       duplicated-url winner table (url, min_ts) is materialized slim
       (object-store blocks, spillable — never a driver dict);
    2. BELOW the broadcast budget: winners broadcast once as Arrow,
       each batch filtered with pc.index_in + take (vectorized, no
       per-row Python) — payload bytes never shuffle;
    3. ABOVE the budget: partitioned left hash join of the full stream
       against the winner table on url, then the same vectorized
       filter — payloads shuffle once, but no component (driver,
       worker heap) ever holds the dup set whole.

    warc_ts ties break on the minimal content hash — the same rule the
    oracle uses (see _broadcast_winner_dim; sequential 'first
    occurrence' is not reproducible distributed) — in BOTH budget
    regimes (the join path's tie pass closes round-2 VERDICT item 2).
    Skip with cfg.dedup=False when inputs are known unique.
    ``winners`` is a ``_dup_winners`` result the caller already holds
    for ``ds``'s rows, so the pass-1 scan is not run twice."""
    from document_extractor_ray.functions.bucketing import n_shuffle_parts

    limit = DEDUP_BROADCAST_LIMIT if broadcast_limit is None else broadcast_limit

    if winners is None:
        winners = _dup_winners(ds.select_columns(["url", "warc_ts"]))
    n_dups, dups = winners
    if n_dups == 0:
        return ds

    if n_dups <= limit:
        ref = _broadcast_winner_dim(dups, full_ds=ds)

        def keep_winners(t: pa.Table) -> pa.Table:
            return _filter_to_winners(t, ref)

        return ds.map_batches(keep_winners, batch_format="pyarrow")

    # Join path: every row pairs with its url's winner (ts + tie
    # count; both null when the url is not duplicated).
    n_parts = n_shuffle_parts()
    n_ties = dups.map_batches(
        lambda t: t.filter(pc.greater(t["n_min"], 1)).select(["url"]),
        batch_format="pyarrow",
    ).count()
    joined = ds.join(
        dups, join_type="left_outer", num_partitions=n_parts, on=("url",)
    )

    if n_ties == 0:
        def keep_joined(t: pa.Table) -> pa.Table:
            return _keep_winner_mask(t, t["min_ts"]).drop_columns(
                ["min_ts", "n_min"]
            )

        return joined.map_batches(keep_joined, batch_format="pyarrow")

    return _join_path_tie_break(joined, n_ties, limit, n_parts)


def _join_path_tie_break(
    joined: "ray.data.Dataset", n_ties: int, limit: int, n_parts: int
):
    """Apply the content-hash tie rule on the partitioned-join dedup
    path: among rows AT a tied (url, min_ts), keep only those whose
    capture_hash equals the per-url minimum — identical to the
    broadcast path and oracle.dedup_first_indices.

    Shape: the ts filter and candidate hashing happen in ONE
    map_batches over the joined stream (hashes computed only for rows
    at a tied min — n_min > 1); the per-url minimum is a bucketed
    min over the slim (url, cap_h) projection; the final filter is a
    broadcast lookup below the budget, a second partitioned join
    above it.  The stream materializes once so the win-hash scan and
    the final filter don't re-execute the upstream join (and a
    join-after-join needs the settle anyway — Ray 2.49 trap)."""
    import numpy as np

    from document_extractor_ray import state
    from document_extractor_ray.core import records as _records
    from document_extractor_ray.functions.bucketing import bucketed_minmax

    def keep_and_hash(t: pa.Table) -> pa.Table:
        t2 = _keep_winner_mask(t, t["min_ts"])
        cand = pc.fill_null(
            pc.and_kleene(
                pc.greater(t2["n_min"], 1),
                pc.equal(t2["warc_ts"], t2["min_ts"]),
            ),
            False,
        ).to_numpy(zero_copy_only=False)
        cap = np.full(t2.num_rows, None, object)
        idxs = np.nonzero(cand)[0]
        if len(idxs):
            sub = t2.take(pa.array(idxs))
            for j, (h, x) in enumerate(
                zip(sub["html"].to_pylist(), sub["text"].to_pylist())
            ):
                cap[idxs[j]] = _records.capture_hash(h, x)
        return t2.drop_columns(["min_ts", "n_min"]).append_column(
            "cap_h", pa.array(cap, pa.binary())
        )

    survivors = joined.map_batches(
        keep_and_hash, batch_format="pyarrow"
    ).materialize()

    wins = bucketed_minmax(
        survivors.select_columns(["url", "cap_h"]).map_batches(
            lambda t: t.filter(pc.is_valid(t["cap_h"])),
            batch_format="pyarrow",
        ),
        ["url"],
        "cap_h",
        "min",
        n_parts=n_parts,
    )

    if n_ties <= limit:
        wtab = pa.concat_tables(
            wins.iter_batches(batch_format="pyarrow")
        ).combine_chunks()
        ref = state.broadcast(wtab)

        def final_filter(t: pa.Table) -> pa.Table:
            w = state.cached_get(ref)
            idx = pc.index_in(t["url"], value_set=w["url"])
            win = pc.take(w["cap_h"], idx)
            keep = pc.fill_null(
                pc.or_kleene(pc.is_null(t["cap_h"]), pc.equal(t["cap_h"], win)),
                False,
            )
            return t.filter(keep).drop_columns(["cap_h"])

        return survivors.map_batches(final_filter, batch_format="pyarrow")

    # Above-budget tie set: second partitioned join.  Settle BOTH
    # sides to non-empty block refs — the first join's output
    # partitions and the hash-bucketed map_groups output can each
    # carry empty-schema blocks that break a downstream Acero join
    # (Ray 2.49 trap, CLAUDE.md).
    slive = [r for r in survivors.to_arrow_refs() if ray.get(r).num_rows > 0]
    survivors = ray.data.from_arrow_refs(slive)
    wins = wins.materialize()
    live = [r for r in wins.to_arrow_refs() if ray.get(r).num_rows > 0]
    wins = ray.data.from_arrow_refs(live)
    wins = wins.map_batches(
        lambda t: t.rename_columns(["url", "win_h"]), batch_format="pyarrow"
    )
    j2 = survivors.join(
        wins, join_type="left_outer", num_partitions=n_parts, on=("url",)
    )

    def final_filter_joined(t: pa.Table) -> pa.Table:
        keep = pc.fill_null(
            pc.or_kleene(
                pc.is_null(t["cap_h"]), pc.equal(t["cap_h"], t["win_h"])
            ),
            False,
        )
        return t.filter(keep).drop_columns(["cap_h", "win_h"])

    return j2.map_batches(final_filter_joined, batch_format="pyarrow")


def _url_min_stats(t: pa.Table, ts_col: str, partial: bool) -> pa.Table:
    """Per-url (min_ts, n_min, n) over one in-memory table, null-url
    safe, fully vectorized: sort by (url, ts), find group boundaries
    with a neighbor-compare (nulls group together — Arrow's group_by
    does the same but can't count rows AT the min), then segment-sum.

    partial=True treats each row as one observation; partial=False
    merges partial rows (columns n_min/n already present): n_min only
    sums where the partial's min_ts equals the group's global min."""
    import numpy as np

    n = t.num_rows
    if n == 0:
        return pa.table(
            {
                "url": pa.array([], t.schema.field("url").type),
                "min_ts": pa.array([], t.schema.field(ts_col).type),
                "n_min": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
            }
        )
    st = t.sort_by([("url", "ascending"), (ts_col, "ascending")])
    u = st["url"].combine_chunks()
    eq = pc.equal(u.slice(1), u.slice(0, n - 1))
    both_null = pc.and_(pc.is_null(u.slice(1)), pc.is_null(u.slice(0, n - 1)))
    same = pc.fill_null(pc.or_kleene(eq, both_null), False).to_numpy(
        zero_copy_only=False
    )
    first = np.concatenate(([True], ~same))
    starts = np.flatnonzero(first)
    gid = np.cumsum(first) - 1
    ts = st[ts_col].combine_chunks().to_numpy(zero_copy_only=False)
    at_min = ts == ts[starts][gid]
    if partial:
        nm_w = at_min.astype(np.int64)
        n_w = np.ones(n, np.int64)
    else:
        nm = st["n_min"].to_numpy(zero_copy_only=False)
        nm_w = np.where(at_min, nm, 0)
        n_w = st["n"].to_numpy(zero_copy_only=False)
    n_min = np.bincount(gid, weights=nm_w).astype(np.int64)
    n_tot = np.bincount(gid, weights=n_w).astype(np.int64)
    return pa.table(
        {
            "url": pc.take(u, pa.array(starts)),
            "min_ts": pa.array(ts[starts]),
            "n_min": pa.array(n_min),
            "n": pa.array(n_tot),
        }
    )


def _dup_winners(slim_ds: "ray.data.Dataset"):
    """(url, warc_ts) Dataset -> (n_dups, materialized slim winner
    table Dataset of (url, min_ts, n_min) for duplicated urls only —
    n_min counts captures AT the winning timestamp, so n_min > 1 marks
    a warc_ts TIE needing the content-hash tie-break).
    Materialized so count() and the consumer reuse the same blocks (a
    Dataset with two consumers re-executes its upstream — PERF.md).

    Shape: NOT ``groupby(url).aggregate(...)`` — Ray 2.49's hash
    aggregate pays per-GROUP cost, and a crawl's urls are nearly all
    distinct (4M rows -> 4M groups measured 301 s at 32 cpus, ~13k
    rows/s).  Instead each batch pre-aggregates (url, min_ts, n_min, n)
    partials with one vectorized sorted-boundary pass, rows hash-bucket
    on url into ~CPU-count partitions (the user_lag_gaps pattern), and
    each partition resolves its urls with a second vectorized pass —
    identical all-to-all bytes, per-partition work instead of
    per-group work (measured 301 s -> 9.5 s on the same input)."""
    from document_extractor_ray.functions import bucketing

    n_parts = bucketing.n_shuffle_parts()

    def partial(t: pa.Table) -> pa.Table:
        out = _url_min_stats(t, "warc_ts", partial=True)
        return out.append_column(
            "part", bucketing.part_of_strings(out["url"], n_parts)
        )

    def resolve(t: pa.Table) -> pa.Table:
        out = _url_min_stats(
            t.drop_columns(["part"]), "min_ts", partial=False
        )
        return out.filter(pc.greater(out["n"], 1)).select(
            ["url", "min_ts", "n_min"]
        )

    dups = (
        slim_ds.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(resolve, batch_format="pyarrow")
        .materialize()
    )
    # settle: keep only non-empty blocks so the above-budget join path
    # never sees a zero-row block (Ray 2.49 trap, CLAUDE.md)
    live = [r for r in dups.to_arrow_refs() if ray.get(r).num_rows > 0]
    if not live:
        return 0, dups
    dups = ray.data.from_arrow_refs(live).materialize()
    return dups.count(), dups


def _broadcast_winner_dim(
    dups: "ray.data.Dataset",
    full_ds: "ray.data.Dataset" = None,
):
    """Broadcast the (url, min_ts[, win_hash]) winner table.

    warc_ts TIES (two captures of one url with the same timestamp)
    break on the minimal content hash — the same rule the oracle uses
    (records.capture_hash; input order is not reproducible
    distributed).  Layered so the common case stays slim:

    1. tie DETECTION is free — n_min came out of the winner scan;
    2. the payload-reading hash pass runs ONLY when a tie exists, and
       hashes ONLY rows at (tie url, min_ts).
    Bitwise-identical tie captures all survive (indistinguishable),
    identically in both engines."""
    from ray.data.aggregate import Min

    from document_extractor_ray import state

    dim = pa.concat_tables(dups.iter_batches(batch_format="pyarrow")).combine_chunks()

    # warc_ts ties fall straight out of the winner scan (n_min counts
    # captures AT the min) — no extra counting pass over the corpus.
    tie_urls = None
    if dim.num_rows and "n_min" in dim.schema.names:
        tie_urls = pc.cast(
            dim.filter(pc.greater(dim["n_min"], 1))["url"], pa.string()
        ).combine_chunks()

    if tie_urls is not None and len(tie_urls) and full_ds is not None:
        from document_extractor_ray.core import records as _records

        dref = ray.put(dim)

        def hash_candidates(t: pa.Table) -> pa.Table:
            d = ray.get(dref)
            idx = pc.index_in(t["url"], value_set=d["url"])
            cand = pc.and_(
                pc.is_in(t["url"], value_set=tie_urls),
                pc.fill_null(
                    pc.equal(t["warc_ts"], pc.take(d["min_ts"], idx)), False
                ),
            )
            sub = t.filter(cand)
            hs = [
                _records.capture_hash(h, x)
                for h, x in zip(sub["html"].to_pylist(), sub["text"].to_pylist())
            ]
            return pa.table(
                {"url": sub["url"], "h": pa.array(hs, pa.binary())}
            )

        winners = (
            full_ds.map_batches(hash_candidates, batch_format="pyarrow")
            .groupby("url")
            .aggregate(Min("h", alias_name="win_hash"))
        ).take_all()
        wmap = {r["url"]: r["win_hash"] for r in winners}
        win_col = pa.array(
            [wmap.get(u) for u in dim["url"].to_pylist()], pa.binary()
        )
    else:
        win_col = pa.array([None] * dim.num_rows, pa.binary())

    if "n_min" in dim.schema.names:
        dim = dim.drop_columns(["n_min"])
    dim = dim.append_column("win_hash", win_col)
    return state.broadcast(dim)


def _keep_winner_mask(t: pa.Table, min_ts) -> pa.Table:
    # or_kleene: equal(ts, null-min_ts) is null for non-duplicated
    # rows and plain or_ would propagate it (filter drops nulls).
    mask = pc.or_kleene(pc.is_null(min_ts), pc.equal(t["warc_ts"], min_ts))
    return t.filter(mask)


def _filter_to_winners(t: pa.Table, ref) -> pa.Table:
    import numpy as np

    from document_extractor_ray import state
    from document_extractor_ray.core import records as _records

    d = state.cached_get(ref)
    idx = pc.index_in(t["url"], value_set=d["url"])
    min_ts = pc.take(d["min_ts"], idx)
    keep = pc.fill_null(
        pc.or_kleene(pc.is_null(min_ts), pc.equal(t["warc_ts"], min_ts)), False
    )
    if "win_hash" in d.schema.names and d["win_hash"].null_count < d.num_rows:
        win_hash = pc.take(d["win_hash"], idx)
        cand = pc.fill_null(
            pc.and_kleene(
                pc.is_valid(win_hash), pc.equal(t["warc_ts"], min_ts)
            ),
            False,
        )
        cand_np = cand.to_numpy(zero_copy_only=False)
        if cand_np.any():
            keep_np = keep.to_numpy(zero_copy_only=False).copy()
            idxs = np.nonzero(cand_np)[0]
            sub = t.take(pa.array(idxs))
            wh = pc.take(win_hash, pa.array(idxs)).to_pylist()
            for j, (h, x) in enumerate(
                zip(sub["html"].to_pylist(), sub["text"].to_pylist())
            ):
                keep_np[idxs[j]] = _records.capture_hash(h, x) == wh[j]
            keep = pa.array(keep_np, pa.bool_())
    return t.filter(keep)


# ---------------------------------------------------------------------------
# Row-group fragments: how parquet paths feed extract_pages
# ---------------------------------------------------------------------------
#
# Ray's ReadParquet is a separate operator from the extraction
# map_batches (block splitting prevents operator fusion), so every
# payload byte crosses the object store once between read and extract.
# Measured on the 300k-page bench corpus that handoff is ~35% of wall
# time at 16 cpus (19.8 s -> 13.0 s fused).  Parquet paths drive the
# pipeline with row-group FRAGMENTS instead: each task reads its row
# groups inside the extraction UDF, so payload bytes live only in the
# task's heap and only the small result rows enter the object store.
# This is also the natural 100 TB shape — fragments are the unit of
# locality, retry and resume, and a row group is the parquet reader's
# native granule.

FUSED_FRAGS_PER_TASK = 8

# Per-worker-process ParquetFile handle cache, LRU-capped: a corpus
# has ~10^5 files and an open handle costs a file descriptor.
_PQ_FILES: dict = {}
_PQ_FILES_MAX = 64


def _pq_handle(path: str):
    pf = _PQ_FILES.pop(path, None)
    if pf is None:
        import pyarrow.parquet as pq

        if len(_PQ_FILES) >= _PQ_FILES_MAX:
            _PQ_FILES.pop(next(iter(_PQ_FILES)))  # evict oldest
        pf = pq.ParquetFile(path)
    _PQ_FILES[path] = pf  # re-insert = most recent
    return pf


# Target pages per fragment task: bounds the payload bytes a task holds
# (a batch of fragments is read into one heap).  Row-group sizes are
# writer-controlled, so the fragment batch size adapts to them.
FUSED_ROWS_PER_TASK = 8192


def page_fragments(paths: Union[str, list]):
    """Enumerate (path, row_group) fragments of parquet path(s).
    Returns (fragments, rows_per_group_max)."""
    import pyarrow.parquet as pq

    if isinstance(paths, str):
        paths = [paths]
    frags = []
    max_rows = 1
    for p in paths:
        md = pq.read_metadata(p)
        for i in range(md.num_row_groups):
            frags.append({"path": p, "rg": i})
            max_rows = max(max_rows, md.row_group(i).num_rows)
    return frags, max_rows


def _fused_read_extract(b, cfg: PipelineConfig, winner_ref=None) -> pa.Table:
    """Fragment batch -> extracted rows: read each row group in-task,
    apply the dedup winner filter (when broadcast), then extract_pages
    — all without the payload column ever entering the object store."""
    outs = []
    for p, rg in zip(b["path"], b["rg"]):
        p = str(p)
        try:
            t = _pq_handle(p).read_row_group(int(rg), columns=PAGE_COLUMNS)
        except Exception as e:
            # A corrupt row group must not kill a corpus-scale run:
            # quarantine the fragment as data (the delete-on-success
            # ledger still accounts for it) and keep streaming.  The
            # lineage record's row counts expose the shortfall.
            outs.append(_fragment_error_table(p, int(rg), e, cfg))
            continue
        if winner_ref is not None:
            t = _filter_to_winners(t, winner_ref)
        outs.append(extract_pages(t, cfg))
    return pa.concat_tables(outs)


def _fragment_error_table(path: str, rg: int, err: Exception, cfg) -> pa.Table:
    """One quarantined FINAL_SCHEMA row standing in for an unreadable
    fragment (url identifies the exact fragment for operators)."""
    from document_extractor_ray.core import records
    from document_extractor_ray.core.cascade import DocResult, STATUS_ERROR

    res = DocResult(
        status=STATUS_ERROR,
        pass_used="",
        mode="per-doc",
        quarantine=True,
        reason="fragment unreadable",
        notes=f"{type(err).__name__}: {err}"[:200],
    )
    url = f"fragment://{path}#rg={rg}"
    return records.records_to_table(
        [records.assemble_record(url, "unknown", 0, res, cfg)]
    )




def _needs_dataset_plan(frags: list, max_rg_rows: int) -> bool:
    """True when a parquet input's row groups (``page_fragments``
    output) are too coarse for the fragment plan.  Its parallelism is
    BOUNDED by fragment count (one row group is the smallest unit a
    task can read): a writer that chose huge row groups (measured: a
    2M-page file with 16 groups capped the pipeline at 16 tasks — 129 s
    vs 33 s on the Dataset plan, whose post-read blocks split by size
    and re-balance across the cluster).  Threshold: at least ~2 fragments per CPU keep every
    core fed through the tail; tiny inputs (under one task of rows)
    stay on fragments regardless of grouping."""
    n_cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return len(frags) < 2 * n_cpus and len(frags) * max_rg_rows > FUSED_ROWS_PER_TASK


def run_extraction(
    source: Union[str, list, "ray.data.Dataset", pa.Table],
    cfg: PipelineConfig = DEFAULT_CONFIG,
) -> "ray.data.Dataset":
    """Pages source -> FINAL_SCHEMA Dataset (lazy; caller consumes).

    ``source`` is a parquet path or list of paths, a pages ``pa.Table``
    or a pages Dataset (any ``sources`` reader).  Parquet paths run on
    row-group fragments unless ``_needs_dataset_plan`` says otherwise or
    the dedup winner set exceeds the broadcast budget (its filter must
    then be a partitioned join over the full stream); everything else
    runs extract_pages over the Dataset's own blocks."""
    ds = winners = None
    if isinstance(source, (str, list)):
        frags, max_rg_rows = page_fragments(source)
        winner_ref = None
        if _needs_dataset_plan(frags, max_rg_rows):
            ds = read_pages(source)
        elif cfg.dedup:
            # The slim pre-scan requires the url/warc_ts column chunks
            # to be readable; corruption in PAYLOAD pages is tolerated
            # (the fragment task quarantines those fragments),
            # corruption in the key columns fails the dedup scan loudly
            # — preferable to silently mis-deduplicating.
            from document_extractor_ray.sources import read_parquet_clean

            winners = _dup_winners(
                read_parquet_clean(source, columns=["url", "warc_ts"])
            )
            n_dups, dups = winners
            if n_dups > DEDUP_BROADCAST_LIMIT:
                ds = read_pages(source)
            elif n_dups > 0:
                winner_ref = _broadcast_winner_dim(
                    dups, full_ds=read_parquet_clean(source, columns=PAGE_COLUMNS)
                )
        if ds is None:
            # Scale fragments-per-task so a task never holds more than
            # ~FUSED_ROWS_PER_TASK pages of payload, whatever row-group
            # size the writer chose (a one-group 10^6-row file gets
            # batch_size=1).
            per_task = max(
                1, min(FUSED_FRAGS_PER_TASK, FUSED_ROWS_PER_TASK // max_rg_rows)
            )
            final = ray.data.from_items(frags).map_batches(
                _fused_read_extract,
                fn_kwargs={"cfg": cfg, "winner_ref": winner_ref},
                batch_format="numpy",
                batch_size=per_task,
            )
    else:
        ds = ray.data.from_arrow(source) if isinstance(source, pa.Table) else source
    if ds is not None:
        if cfg.dedup:
            ds = dedup_first(ds, winners=winners)
        # modest batches bound how long one giant document stalls the
        # rows batched with it
        final = ds.map_batches(
            extract_pages,
            batch_format="pyarrow",
            fn_kwargs={"cfg": cfg},
            batch_size=cfg.small_batch_size,
        )
    if cfg.deterministic_order:
        final = final.sort("url")
    return final
