"""analytics submodule part00 (mechanical split of the former functions/analytics.py — see __init__.py)."""

from __future__ import annotations
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Sum
from document_extractor_ray.functions.bucketing import fold_partials, n_shuffle_parts



def _read(sf_dir: str, name: str, columns=None):
    from document_extractor_ray.sources import read_parquet_clean

    return read_parquet_clean(
        f"{sf_dir}/{name}.parquet", columns=columns, override_num_blocks=_n_blocks()
    )


def _n_blocks() -> int:
    """Block count ~ cluster CPUs: the default splitter makes far more,
    and every extra block is a task + a shuffle partition (measured 4x
    on the sf0.1 Q1 aggregate: 3.8s default vs 0.9s at 32 blocks)."""
    return n_shuffle_parts()


# DuckDB round() is half-away-from-zero; pyarrow defaults to half-even.
# Money values hit exact .5 ties (e.g. 1230 cents * 0.95), so the oracle
# comparison needs the same tie-break.  (round_mode passed as a kwarg:
# a module-level RoundOptions instance is not cloudpickle-able.)


def _ts_us(col: str):
    """Batch fn casting a timestamp column back to microsecond unit."""

    def cast(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index(col)
        return t.set_column(i, col, pc.cast(t[col], pa.timestamp("us")))

    return cast


def _join_partitions(*paths: str) -> int:
    """Hash-join partition count scaled to DATA SIZE (~64 MB of input
    per partition), clamped to [4, 4x cluster CPUs].  Measured on the
    sf0.1 join: 32 partitions cost 3.7 s where 4-8 cost 2.2 s — every
    partition is aggregator-actor work, so small inputs want few; at
    corpus scale the byte-based count rises until the CPU cap."""
    import os

    total = 0
    for p in paths:
        try:
            total += os.path.getsize(p)
        except OSError:
            pass
    by_size = max(4, total // (64 << 20) + 1)
    cap = 4 * (int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8)
    return int(min(by_size, cap))


def _to_cents(arr) -> pa.Array:
    return pc.cast(
        pc.round(pc.multiply(arr, 100.0), round_mode="half_towards_infinity"),
        pa.int64(),
    )


# ---------------------------------------------------------------------------
# Q1-style grouped aggregate over lineitem
# ---------------------------------------------------------------------------

def q1_lineitem(sf_dir: str):
    """Pricing summary: filter on ship date, aggregate per
    (returnflag, linestatus).  Money in integer cents for exactness."""
    ds = _read(
        sf_dir,
        "lineitem",
        columns=[
            "l_returnflag",
            "l_linestatus",
            "l_quantity",
            "l_extendedprice",
            "l_discount",
            "l_shipdate",
        ],
    )

    cutoff = pa.scalar(pd.Timestamp("1998-09-02"), type=pa.timestamp("us"))

    def prep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["l_shipdate"], cutoff))
        qty = pc.cast(pc.round(t["l_quantity"], round_mode="half_towards_infinity"), pa.int64())
        price_c = _to_cents(t["l_extendedprice"])
        disc_c = _to_cents(
            pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"]))
        )
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "qty": qty,
                "price_cents": price_c,
                "disc_cents": disc_c,
            }
        )

    out = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("qty", alias_name="sum_qty"),
            Sum("price_cents", alias_name="sum_base_price_cents"),
            Sum("disc_cents", alias_name="sum_disc_price_cents"),
            Count(alias_name="count_order"),
        )
        .sort(["l_returnflag", "l_linestatus"])
    )
    return out


Q1_SQL = """
SELECT l_returnflag, l_linestatus,
       CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(sum(CAST(round(l_extendedprice * 100.0) AS BIGINT)) AS BIGINT) AS sum_base_price_cents,
       CAST(sum(CAST(round(l_extendedprice * (1.0 - l_discount) * 100.0) AS BIGINT)) AS BIGINT) AS sum_disc_price_cents,
       count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


# ---------------------------------------------------------------------------
# Broadcast join: top customers by order spend, with nation name
# ---------------------------------------------------------------------------

def top_customers(sf_dir: str, k: int = 10):
    """Sum order value per customer, broadcast-join customer+nation
    dims (ray.put once, dict lookup per batch — never a shuffle join),
    top-k by spend."""
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": t["o_custkey"],
                "cents": _to_cents(t["o_totalprice"]),
            }
        )

    from document_extractor_ray.functions.bucketing import bucketed_agg

    # customer keys are key-per-row at crawl scale: bucketed aggregate,
    # not Ray's per-group hash aggregate (PERF.md steps 20-23)
    per_cust = bucketed_agg(
        orders.map_batches(to_cents, batch_format="pyarrow"),
        ["o_custkey"],
        [("cents", "sum", "total_spend_cents"), (None, "count", "n_orders")],
    )

    # Broadcast the pre-joined dim table once (Arrow: zero-copy through
    # the object store); per batch the attach is pc.index_in + take —
    # no dict, no per-row Python (state.lookup_join).
    import pyarrow.parquet as pq

    from document_extractor_ray import state

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_nationkey"]
    )
    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    dim = state.lookup_join(
        cust, "c_nationkey", nation, "n_nationkey", ["n_name"], fill=""
    ).select(["c_custkey", "c_name", "n_name"])
    ref = state.broadcast(dim)

    def attach(t: pa.Table) -> pa.Table:
        return state.lookup_join(
            t, "o_custkey", state.cached_get(ref), "c_custkey",
            ["c_name", "n_name"], fill="",
        )

    out = (
        per_cust.map_batches(attach, batch_format="pyarrow")
        .sort(["total_spend_cents", "o_custkey"], descending=[True, False])
        .limit(k)
    )
    return out


TOP_CUSTOMERS_SQL = """
SELECT o.o_custkey,
       CAST(sum(CAST(round(o.o_totalprice * 100.0) AS BIGINT)) AS BIGINT) AS total_spend_cents,
       count(*) AS n_orders,
       any_value(c.c_name) AS c_name,
       any_value(n.n_name) AS n_name
FROM orders o
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY o.o_custkey
ORDER BY total_spend_cents DESC, o_custkey ASC
LIMIT 10
"""


# ---------------------------------------------------------------------------
# Tumbling-window aggregate over the events stream
# ---------------------------------------------------------------------------

def events_daily(sf_dir: str):
    """Events per (event_type, day): tumbling 1-day window as a
    grouped aggregate (streaming-window analogue, SURVEY.md §2.11)."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def prep(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        cents = _to_cents(t["value"])
        return pa.table(
            {"event_type": t["event_type"], "day": day, "value_cents": cents}
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(Count(alias_name="n"), Sum("value_cents", alias_name="sum_value_cents"))
        .sort(["event_type", "day"])
        # Ray's aggregate shuffle downcasts timestamp keys to [s]; restore
        # [us] so the dtype matches DuckDB date_trunc exactly.
        .map_batches(_ts_us("day"), batch_format="pyarrow")
    )


EVENTS_DAILY_SQL = """
SELECT event_type, date_trunc('day', ts) AS day,
       count(*) AS n,
       CAST(sum(CAST(round(value * 100.0) AS BIGINT)) AS BIGINT) AS sum_value_cents
FROM events
GROUP BY 1, 2
ORDER BY 1, 2
"""


def events_sliding_7d(sf_dir: str):
    """Sliding 7-day window counts per event type: each event
    contributes to the 7 window-end days it falls into (explode inside
    map_batches — 7x small rows, no self-join), then one grouped
    count.  The window explode is the standard shuffle-free sliding
    aggregation shape at scale."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    from datetime import timedelta

    def explode(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        parts = []
        for k in range(7):
            parts.append(
                pa.table(
                    {
                        "event_type": t["event_type"],
                        "window_end": pc.add(day, pa.scalar(timedelta(days=k))),
                    }
                )
            )
        return pa.concat_tables(parts)

    return (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby(["event_type", "window_end"])
        .aggregate(Count(alias_name="n"))
        .sort(["event_type", "window_end"])
        .map_batches(_ts_us("window_end"), batch_format="pyarrow")
    )


EVENTS_SLIDING_SQL = """
SELECT event_type,
       date_trunc('day', ts) + to_days(CAST(t.k AS INTEGER)) AS window_end,
       count(*) AS n
FROM events, range(0, 7) AS t(k)
GROUP BY 1, 2
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Sessionization (per-key ordered gap detection)
# ---------------------------------------------------------------------------

SESSION_GAP_S = 1800


def sessionize(sf_dir: str):
    """Session count per user with a 30-minute inactivity gap.

    Shuffles once — but on a HASH BUCKET of user_id, not user_id
    itself: map_groups pays one Python call + frame construction per
    group (measured ~3.7k rows/s with unique keys, PERF.md), so the
    group is a balanced partition of many users and the whole
    partition's gap count is one vectorized pandas groupby-diff.  The
    ordering assumption (events sorted by ts within a user) is
    established inside the partition — input order never matters."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    n_parts = _n_blocks()

    def add_bucket(t: pa.Table) -> pa.Table:
        # Cheap deterministic spreader; multiply-shift mixes the low
        # bits so sequential user_ids don't all land in order.
        h = pc.bit_wise_and(
            pc.multiply(
                pc.cast(t["user_id"], pa.int64()), pa.scalar(2654435761, pa.int64())
            ),
            pa.scalar(0x7FFFFFFF, pa.int64()),
        )
        part = pc.cast(pc.subtract(h, pc.multiply(pc.divide(h, n_parts), n_parts)), pa.int32())
        return t.append_column("part", part)

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        gaps = g.groupby("user_id", sort=True)["ts"].diff().dt.total_seconds() > SESSION_GAP_S
        n_sessions = gaps.groupby(g["user_id"], sort=True).sum().astype(np.int64) + 1
        return pd.DataFrame(
            {
                "user_id": n_sessions.index.to_numpy(),
                "n_sessions": n_sessions.to_numpy(),
            }
        )

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .sort("user_id")
    )


SESSIONIZE_SQL = f"""
SELECT user_id, CAST(1 + sum(CASE WHEN diff_s > {SESSION_GAP_S} THEN 1 ELSE 0 END) AS BIGINT) AS n_sessions
FROM (
    SELECT user_id,
           epoch(ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)) AS diff_s
    FROM events
)
GROUP BY user_id
ORDER BY user_id
"""


def session_entry_exit(sf_dir: str):
    """Session entry/exit event-type matrix: per 30-minute-gap session
    the type of its first and last event, counted over all sessions —
    the bounce/landing profile (which flows START a visit vs which
    ones users leave on) that sits one level above sessionize's raw
    counts.

    Scale shape: sessionize's hash-bucketed map_groups plan (balanced
    partitions of many users, one vectorized pandas pass each); only
    the |types|^2-bounded (entry, exit) count cells leave each
    partition, folded on the driver via fold_partials.  Ties within a
    timestamp order by event_id on both sides (events ts is monotone
    in event_id, so this is belt-and-suspenders determinism)."""
    from document_extractor_ray.functions.bucketing import fold_partials

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_id", "event_type"])
    n_parts = _n_blocks()

    def add_bucket(t: pa.Table) -> pa.Table:
        h = pc.bit_wise_and(
            pc.multiply(
                pc.cast(t["user_id"], pa.int64()), pa.scalar(2654435761, pa.int64())
            ),
            pa.scalar(0x7FFFFFFF, pa.int64()),
        )
        part = pc.cast(
            pc.subtract(h, pc.multiply(pc.divide(h, n_parts), n_parts)), pa.int32()
        )
        return t.append_column("part", part)

    def per_partition(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        prev = g.groupby("user_id", sort=False)["ts"].diff()
        new_s = prev.isna() | (prev.dt.total_seconds() > SESSION_GAP_S)
        sess = new_s.cumsum()  # first row per user is always True
        agg = g.groupby(sess.to_numpy(), sort=False)["event_type"].agg(
            ["first", "last"]
        )
        cells = (
            agg.groupby(["first", "last"], sort=True).size().astype(np.int64)
        )
        idx = cells.index
        return pa.table(
            {
                "entry_type": pa.array([k[0] for k in idx], pa.string()),
                "exit_type": pa.array([k[1] for k in idx], pa.string()),
                "n": pa.array(cells.to_numpy(), pa.int64()),
            }
        )

    cells = fold_partials(
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas"),
        ["entry_type", "exit_type"],
        "n",
    )
    keys = sorted(cells)
    return pa.table(
        {
            "entry_type": pa.array([k[0] for k in keys], pa.string()),
            "exit_type": pa.array([k[1] for k in keys], pa.string()),
            "n_sessions": pa.array([cells[k] for k in keys], pa.int64()),
        }
    )


SESSION_ENTRY_EXIT_SQL = f"""
WITH e AS (
  SELECT user_id, ts, event_id, event_type,
         CASE WHEN lag(ts) OVER w IS NULL
                OR epoch(ts - lag(ts) OVER w) > {SESSION_GAP_S}
              THEN 1 ELSE 0 END AS new_s
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
s AS (
  SELECT *, sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                             ROWS UNBOUNDED PRECEDING) AS sess
  FROM e
),
fl AS (
  SELECT user_id, sess,
         first_value(event_type) OVER ws AS entry_type,
         last_value(event_type) OVER ws AS exit_type,
         row_number() OVER (PARTITION BY user_id, sess
                            ORDER BY ts, event_id) AS rn
  FROM s
  WINDOW ws AS (PARTITION BY user_id, sess ORDER BY ts, event_id
                ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING)
)
SELECT entry_type, exit_type, CAST(count(*) AS BIGINT) AS n_sessions
FROM fl WHERE rn = 1
GROUP BY 1, 2
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Dimension rollup: nations per region (broadcast join of two dims)
# ---------------------------------------------------------------------------

def nations_per_region(sf_dir: str):
    nation = _read(sf_dir, "nation", columns=["n_nationkey", "n_regionkey"])
    import pyarrow.parquet as pq

    from document_extractor_ray import state

    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    ref = state.broadcast(region)

    def attach(t: pa.Table) -> pa.Table:
        t = state.lookup_join(
            t, "n_regionkey", state.cached_get(ref), "r_regionkey",
            ["r_name"], fill="",
        )
        return t.select(["r_name", "n_nationkey"])

    return (
        nation.map_batches(attach, batch_format="pyarrow")
        .groupby("r_name")
        .aggregate(Count(alias_name="n_nations"))
        .sort("r_name")
    )


NATIONS_PER_REGION_SQL = """
SELECT r.r_name, count(*) AS n_nations
FROM nation n JOIN region r ON r.r_regionkey = n.n_regionkey
GROUP BY r.r_name
ORDER BY r.r_name
"""


# ---------------------------------------------------------------------------
# Sort / top-k over documents
# ---------------------------------------------------------------------------

def top_k_longest_docs(sf_dir: str, k: int = 20):
    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars", "lang"])
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(k)


TOP_K_LONGEST_SQL = """
SELECT doc_id, n_chars, lang FROM documents
ORDER BY n_chars DESC, doc_id ASC
LIMIT 20
"""


def parts_by_brand(sf_dir: str):
    """Filter + grouped aggregate over part (row filter pushed to the
    batch, money in cents)."""
    ds = _read(sf_dir, "part", columns=["p_brand", "p_size", "p_retailprice"])

    def prep(t: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.greater_equal(t["p_size"], 10), pc.less_equal(t["p_size"], 30)
        )
        t = t.filter(mask)
        return pa.table(
            {"p_brand": t["p_brand"], "retail_cents": _to_cents(t["p_retailprice"])}
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("p_brand")
        .aggregate(Count(alias_name="n_parts"), Sum("retail_cents", alias_name="sum_retail_cents"))
        .sort("p_brand")
    )


PARTS_BY_BRAND_SQL = """
SELECT p_brand, count(*) AS n_parts,
       CAST(sum(CAST(round(p_retailprice * 100.0) AS BIGINT)) AS BIGINT) AS sum_retail_cents
FROM part
WHERE p_size BETWEEN 10 AND 30
GROUP BY p_brand
ORDER BY p_brand
"""


def supplier_balance_topk(sf_dir: str, k: int = 15):
    """Top-k suppliers by account balance with the nation dim broadcast."""
    sup = _read(sf_dir, "supplier", columns=["s_suppkey", "s_acctbal", "s_nationkey"])
    import pyarrow.parquet as pq

    from document_extractor_ray import state

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    ref = state.broadcast(nation)

    def prep(t: pa.Table) -> pa.Table:
        t = state.lookup_join(
            t, "s_nationkey", state.cached_get(ref), "n_nationkey",
            ["n_name"], fill="",
        )
        return pa.table(
            {
                "s_suppkey": t["s_suppkey"],
                "acctbal_cents": _to_cents(t["s_acctbal"]),
                "n_name": t["n_name"],
            }
        )

    return (
        sup.map_batches(prep, batch_format="pyarrow")
        .sort(["acctbal_cents", "s_suppkey"], descending=[True, False])
        .limit(k)
    )


SUPPLIER_BALANCE_SQL = """
SELECT s.s_suppkey,
       CAST(round(s.s_acctbal * 100.0) AS BIGINT) AS acctbal_cents,
       n.n_name
FROM supplier s JOIN nation n ON n.n_nationkey = s.s_nationkey
ORDER BY acctbal_cents DESC, s_suppkey ASC
LIMIT 15
"""


def customers_without_orders(sf_dir: str):
    """Anti join via broadcast key set (the semi/anti-join pattern:
    broadcast the filtered order-customer key set once, filter inside
    map_batches — no shuffle; at larger-than-broadcast scale the same
    filter runs per hash-partition with a partitioned key set).
    Customers with no URGENT-priority order (the unfiltered anti join
    is empty on the test data)."""
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_orderpriority"])

    # Distributed distinct: per-batch unique first (slims the shuffle
    # to unique keys per block), then a grouped count whose OUTPUT is
    # the distinct key set — the driver receives only distinct keys,
    # never iterates order batches.
    def urgent_keys(t: pa.Table) -> pa.Table:
        f = t.filter(pc.equal(t["o_orderpriority"], "1-URGENT"))
        return pa.table({"o_custkey": pc.unique(f["o_custkey"])})

    from document_extractor_ray.functions.bucketing import bucketed_agg

    distinct = bucketed_agg(
        orders.map_batches(urgent_keys, batch_format="pyarrow"),
        ["o_custkey"],
        [(None, "count", "_n")],
    )
    key_arr = pa.array(distinct.to_pandas()["o_custkey"].to_numpy(), pa.int64())
    ref = ray.put(key_arr)

    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_name"])

    def anti(t: pa.Table) -> pa.Table:
        have = ray.get(ref)
        mask = pc.invert(pc.is_in(t["c_custkey"], value_set=have))
        return t.filter(mask)

    return cust.map_batches(anti, batch_format="pyarrow").sort("c_custkey")


CUSTOMERS_WITHOUT_ORDERS_SQL = """
SELECT c_custkey, c_name FROM customer
WHERE c_custkey NOT IN (SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT')
ORDER BY c_custkey
"""


def order_revenue_by_nation(sf_dir: str):
    """Revenue per nation: a TRUE partitioned hash join (Dataset.join)
    of two fact-sized sides — orders ⋈ customer on custkey — then a
    grouped sum.  The broadcast-lookup queries above cover the
    small-dim case; this one proves the shuffle-join path the engine
    needs when neither side fits a broadcast (both sides hash-shuffle
    once on the join key; the nation dim is then a broadcast attach).
    Money in integer cents for exactness."""
    from document_extractor_ray import state

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def to_cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {"o_custkey": t["o_custkey"], "cents": _to_cents(t["o_totalprice"])}
        )

    n_parts = _join_partitions(
        f"{sf_dir}/orders.parquet", f"{sf_dir}/customer.parquet"
    )
    joined = orders.map_batches(to_cents, batch_format="pyarrow").join(
        cust,
        join_type="inner",
        num_partitions=n_parts,
        on=("o_custkey",),
        right_on=("c_custkey",),
    )

    per_nation = (
        joined.groupby("c_nationkey")
        .aggregate(
            Sum("cents", alias_name="revenue_cents"), Count(alias_name="n_orders")
        )
    )

    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    ref = state.broadcast(nation)

    def attach(t: pa.Table) -> pa.Table:
        t = state.lookup_join(
            t, "c_nationkey", state.cached_get(ref), "n_nationkey",
            ["n_name"], fill="",
        )
        return t.select(["n_name", "revenue_cents", "n_orders"])

    return per_nation.map_batches(attach, batch_format="pyarrow").sort("n_name")


ORDER_REVENUE_BY_NATION_SQL = """
SELECT n.n_name,
       CAST(sum(CAST(round(o.o_totalprice * 100.0) AS BIGINT)) AS BIGINT) AS revenue_cents,
       count(*) AS n_orders
FROM orders o
JOIN customer c ON c.c_custkey = o.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
GROUP BY n.n_name
ORDER BY n.n_name
"""


def doc_stats(sf_dir: str):
    ds = _read(sf_dir, "documents", columns=["lang", "source", "n_chars"])
    return (
        ds.groupby(["lang", "source"])
        .aggregate(Count(alias_name="n_docs"), Sum("n_chars", alias_name="sum_chars"))
        .sort(["lang", "source"])
    )


DOC_STATS_SQL = """
SELECT lang, source, count(*) AS n_docs, CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents
GROUP BY lang, source
ORDER BY lang, source
"""


def doc_stats_rollup(sf_dir: str):
    """ROLLUP(lang, source): per-(lang, source), per-lang and grand
    totals in ONE shuffle.  Each batch pre-aggregates its own counts
    at the finest level and replicates those partial rows to the
    coarser levels with an 'ALL' sentinel (3x a tiny combiner output,
    not 3x the data), so one grouped Sum produces every level — the
    standard multi-level-aggregate shape at scale vs running three
    separate jobs over the corpus."""
    ds = _read(sf_dir, "documents", columns=["lang", "source", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, ["lang", "source"]).aggregate(
            [([], "count_all"), ("n_chars", "sum")]
        )
        fine = pa.table(
            {
                "lang": g["lang"],
                "source": g["source"],
                "n": pc.cast(g["count_all"], pa.int64()),
                "chars": pc.cast(g["n_chars_sum"], pa.int64()),
            }
        )
        n_rows = fine.num_rows
        per_lang = fine.set_column(
            1, "source", pa.array(["ALL"] * n_rows, pa.string())
        )
        grand = per_lang.set_column(0, "lang", pa.array(["ALL"] * n_rows, pa.string()))
        return pa.concat_tables([fine, per_lang, grand])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["lang", "source"])
        .aggregate(Sum("n", alias_name="n_docs"), Sum("chars", alias_name="sum_chars"))
        .sort(["lang", "source"])
    )


# NOT "GROUP BY ROLLUP + coalesce": the engine merges a GENUINE
# lang/source value 'ALL' into the sentinel rollup groups (one groupby
# over sentinel-replicated partials), so the oracle must too — the
# outer re-aggregation over the three explicit levels reproduces that
# merge exactly, where ROLLUP would keep the genuine fine-level 'ALL'
# group as its own row and silently diverge.
DOC_STATS_ROLLUP_SQL = """
SELECT lang, source,
       CAST(sum(n) AS BIGINT) AS n_docs, CAST(sum(ch) AS BIGINT) AS sum_chars
FROM (
  SELECT lang, source, count(*) AS n, sum(n_chars) AS ch
  FROM documents GROUP BY 1, 2
  UNION ALL
  SELECT lang, 'ALL', count(*), sum(n_chars) FROM documents GROUP BY 1
  UNION ALL
  SELECT 'ALL', 'ALL', count(*), sum(n_chars) FROM documents
)
GROUP BY 1, 2
ORDER BY lang, source
"""


# ---------------------------------------------------------------------------
# As-of join (per-key temporal "latest row at or before t")
# ---------------------------------------------------------------------------

def events_asof_orders(sf_dir: str):
    """As-of join: for every event, the latest order of the same
    customer placed at or before the event time (ties on o_orderdate
    break to the highest o_orderkey).  Events whose user placed no
    order by then are dropped (inner as-of).

    Ray Data has no inequality join, so this is the distributed as-of
    shape: both sides slimmed to join columns, tagged, unioned, and
    shuffled ONCE on a hash bucket of the key (the sessionize
    pattern — map_groups pays one Python call per balanced partition,
    not per user); inside a partition one pandas merge_asof
    (vectorized C backward search) joins every user at once.  At
    10^12 rows the same plan holds: the bucket count scales with the
    cluster and no side is ever collected."""
    events = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    orders = _read(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]
    )
    n_parts = _n_blocks()

    def _bucket(key_col):
        def add(t: pa.Table) -> pa.Table:
            h = pc.bit_wise_and(
                pc.multiply(
                    pc.cast(t[key_col], pa.int64()), pa.scalar(2654435761, pa.int64())
                ),
                pa.scalar(0x7FFFFFFF, pa.int64()),
            )
            return t.append_column(
                "part",
                pc.cast(pc.subtract(h, pc.multiply(pc.divide(h, n_parts), n_parts)), pa.int32()),
            )
        return add

    def tag_events(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": t["part"],
                "kind": pa.array(np.ones(t.num_rows, dtype=np.int8), pa.int8()),
                "user_id": pc.cast(t["user_id"], pa.int64()),
                "t": t["ts"],
                "event_id": pc.cast(t["event_id"], pa.int64()),
                "o_orderkey": pa.nulls(t.num_rows, pa.int64()),
                "total_cents": pa.nulls(t.num_rows, pa.int64()),
            }
        )

    def tag_orders(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": t["part"],
                "kind": pa.array(np.zeros(t.num_rows, dtype=np.int8), pa.int8()),
                "user_id": pc.cast(t["o_custkey"], pa.int64()),
                "t": t["o_orderdate"],
                "event_id": pa.nulls(t.num_rows, pa.int64()),
                "o_orderkey": pc.cast(t["o_orderkey"], pa.int64()),
                "total_cents": _to_cents(t["o_totalprice"]),
            }
        )

    tagged = events.map_batches(_bucket("user_id"), batch_format="pyarrow").map_batches(
        tag_events, batch_format="pyarrow"
    ).union(
        orders.map_batches(_bucket("o_custkey"), batch_format="pyarrow").map_batches(
            tag_orders, batch_format="pyarrow"
        )
    )

    def asof_partition(g: pd.DataFrame) -> pd.DataFrame:
        right = g[g["kind"] == 0].sort_values(["t", "o_orderkey"], kind="mergesort")
        left = g[g["kind"] == 1].sort_values("t", kind="mergesort")
        if not len(left):
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                    "ts": pd.Series([], dtype="datetime64[us]"),
                    "o_orderkey": pd.Series([], dtype="int64"),
                    "o_orderdate": pd.Series([], dtype="datetime64[us]"),
                    "total_cents": pd.Series([], dtype="int64"),
                }
            )
        right = right.assign(o_orderdate=right["t"])
        m = pd.merge_asof(
            left[["t", "user_id", "event_id"]],
            right[["t", "user_id", "o_orderkey", "o_orderdate", "total_cents"]],
            on="t",
            by="user_id",
            direction="backward",
            allow_exact_matches=True,
        )
        m = m[m["o_orderkey"].notna()]
        return pd.DataFrame(
            {
                "event_id": m["event_id"].astype("int64"),
                "user_id": m["user_id"].astype("int64"),
                "ts": m["t"],
                "o_orderkey": m["o_orderkey"].astype("int64"),
                "o_orderdate": m["o_orderdate"],
                "total_cents": m["total_cents"].astype("int64"),
            }
        )

    return (
        tagged.groupby("part")
        .map_groups(asof_partition, batch_format="pandas")
        .sort("event_id")
        .map_batches(_ts_us("ts"), batch_format="pyarrow")
        .map_batches(_ts_us("o_orderdate"), batch_format="pyarrow")
    )


EVENTS_ASOF_ORDERS_SQL = """
WITH j AS (
  SELECT e.event_id, e.user_id, e.ts, o.o_orderkey, o.o_orderdate,
         CAST(round(o.o_totalprice * 100.0) AS BIGINT) AS total_cents,
         row_number() OVER (
           PARTITION BY e.event_id
           ORDER BY o.o_orderdate DESC, o.o_orderkey DESC
         ) AS rn
  FROM events e
  JOIN orders o ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
)
SELECT event_id, user_id, ts, o_orderkey, o_orderdate, total_cents
FROM j WHERE rn = 1
ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# Range (interval) self-join: same-user events in the preceding hour
# ---------------------------------------------------------------------------

PRIOR_WINDOW_US = 3_600_000_000  # 1 hour in microseconds


def events_prior_hour(sf_dir: str):
    """Range join: for every event, how many events of the SAME user
    fall in the preceding hour [ts-1h, ts) — the burst-detection /
    rate-limit window.

    Ray Data has no inequality join; this is the distributed range-
    join shape: shuffle ONCE on a hash bucket of user_id (the
    sessionize plan — a user's events co-locate, partitions stay
    balanced), then the whole partition's window counts come from two
    vectorized np.searchsorted calls over a composite (user, ts) key
    — no per-user Python, no self-join blowup.  The composite key
    encodes user as a segment offset, so one sorted array answers
    every user's range queries at once."""
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    n_parts = _n_blocks()

    def add_bucket(t: pa.Table) -> pa.Table:
        h = pc.bit_wise_and(
            pc.multiply(
                pc.cast(t["user_id"], pa.int64()), pa.scalar(2654435761, pa.int64())
            ),
            pa.scalar(0x7FFFFFFF, pa.int64()),
        )
        part = pc.cast(
            pc.subtract(h, pc.multiply(pc.divide(h, n_parts), n_parts)), pa.int32()
        )
        return t.append_column("part", part)

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        ts_us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        uidx = pd.factorize(g["user_id"], sort=False)[0].astype(np.int64)
        lo = ts_us.min() if len(ts_us) else 0
        span = (ts_us.max() - lo if len(ts_us) else 0) + 2 * PRIOR_WINDOW_US
        key = uidx * span + (ts_us - lo)
        # window [ts-1h, ts): both bounds stay inside the user's
        # segment because span > ts-range + 1h.
        hi_rank = np.searchsorted(key, key, side="left")
        lo_rank = np.searchsorted(key, key - PRIOR_WINDOW_US, side="left")
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy().astype("int64"),
                "n_prior_1h": (hi_rank - lo_rank).astype("int64"),
            }
        )

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .sort("event_id")
    )


EVENTS_PRIOR_HOUR_SQL = """
SELECT e.event_id, CAST(count(e2.event_id) AS BIGINT) AS n_prior_1h
FROM events e
LEFT JOIN events e2 ON e2.user_id = e.user_id
 AND e2.ts >= e.ts - INTERVAL 1 HOUR AND e2.ts < e.ts
GROUP BY e.event_id
ORDER BY e.event_id
"""


# ---------------------------------------------------------------------------
# TPC-H Q3-style shipping-priority pipeline (semi-join + hash join + top-k)
# ---------------------------------------------------------------------------

Q3_SEGMENT = "BUILDING"
Q3_CUTOFF = "1998-06-01"
Q3_TOP_K = 10


def q3_shipping(sf_dir: str, k: int = Q3_TOP_K):
    """Shipping-priority top-k (TPC-H Q3 shape): unshipped revenue per
    order for one market segment.

    Scale plan, in join-size order:
    - customer is filtered to one segment and reduced to its KEY SET,
      broadcast once (ray.put) — a broadcast semi-join via pc.is_in,
      never a shuffle of the customer table;
    - orders and lineitem are filtered and column-slimmed inside
      map_batches BEFORE the one partitioned hash join (both sides
      shuffle only join key + payload ints);
    - revenue aggregates AFTER the join (groupby on the join output),
      because Ray 2.49's hash-aggregate output feeding a join trips
      the empty-schema-block bug (see dedup._propagate_labels) — and
      grouping by (orderkey, orderdate, priority) is equivalent since
      the extra keys are functionally dependent on the orderkey.
    """
    import pyarrow.parquet as pq

    from document_extractor_ray import state

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    keys = cust.filter(pc.equal(cust["c_mktsegment"], Q3_SEGMENT))[
        "c_custkey"
    ].combine_chunks()
    kref = state.broadcast(keys)
    cutoff = pa.scalar(pd.Timestamp(Q3_CUTOFF), type=pa.timestamp("us"))

    orders = _read(
        sf_dir,
        "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    )

    def filt_orders(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.less(t["o_orderdate"], cutoff),
            pc.is_in(t["o_custkey"], value_set=state.cached_get(kref)),
        )
        return t.filter(m).select(["o_orderkey", "o_orderdate", "o_orderpriority"])

    li = _read(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def filt_li(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_shipdate"], cutoff))
        return pa.table(
            {
                "l_orderkey": t["l_orderkey"],
                "disc_cents": _to_cents(
                    pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"]))
                ),
            }
        )

    n_parts = _join_partitions(
        f"{sf_dir}/lineitem.parquet", f"{sf_dir}/orders.parquet"
    )
    joined = li.map_batches(filt_li, batch_format="pyarrow").join(
        orders.map_batches(filt_orders, batch_format="pyarrow"),
        join_type="inner",
        num_partitions=n_parts,
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    from document_extractor_ray.functions.bucketing import bucketed_agg

    return (
        bucketed_agg(
            joined,
            ["l_orderkey", "o_orderdate", "o_orderpriority"],
            [("disc_cents", "sum", "revenue_cents")],
        )
        .sort(["revenue_cents", "l_orderkey"], descending=[True, False])
        .limit(k)
        .map_batches(_ts_us("o_orderdate"), batch_format="pyarrow")
    )


Q3_SHIPPING_SQL = f"""
SELECT l.l_orderkey,
       CAST(sum(CAST(round(l.l_extendedprice * (1.0 - l.l_discount) * 100.0) AS BIGINT)) AS BIGINT) AS revenue_cents,
       o.o_orderdate, o.o_orderpriority
FROM lineitem l
JOIN orders o ON o.o_orderkey = l.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
WHERE c.c_mktsegment = '{Q3_SEGMENT}'
  AND o.o_orderdate < TIMESTAMP '{Q3_CUTOFF}'
  AND l.l_shipdate > TIMESTAMP '{Q3_CUTOFF}'
GROUP BY l.l_orderkey, o.o_orderdate, o.o_orderpriority
ORDER BY revenue_cents DESC, l.l_orderkey
LIMIT {Q3_TOP_K}
"""


# ---------------------------------------------------------------------------
# Per-key ordered first/last (argmin/argmax) aggregation
# ---------------------------------------------------------------------------

def user_first_last(sf_dir: str):
    """First and last event per user (ordered by ts, event_id) plus
    the event count — the per-key argmin/argmax pattern.

    One shuffle on a hash BUCKET of user_id (the sessionize shape:
    map_groups pays one Python call per balanced partition, not per
    user), then one vectorized pandas pass picks each user's boundary
    rows.  The per-batch combiner ships only each batch's per-user
    boundary candidates + count partials, so the shuffle carries at
    most 2 rows per (user, batch) — never the event stream."""
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])
    n_parts = _n_blocks()

    def combine(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        head = df.groupby("user_id", sort=False).head(1)
        tail = df.groupby("user_id", sort=False).tail(1)
        cnt = df.groupby("user_id", sort=False).size().rename("n_part").reset_index()
        out = pd.concat([head, tail]).drop_duplicates(subset=["event_id"])
        out = out.merge(cnt, on="user_id")
        # count only on the head row so partial sums stay exact
        is_head = out["event_id"].isin(head["event_id"])
        out["n_part"] = np.where(is_head, out["n_part"], 0)
        h = (out["user_id"].to_numpy().astype(np.uint64) * np.uint64(2654435761)) & np.uint64(
            0x7FFFFFFF
        )
        out["part"] = (h % np.uint64(n_parts)).astype(np.int32)
        return pa.Table.from_pandas(
            out, preserve_index=False
        ).replace_schema_metadata(None)

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        first = g.groupby("user_id", sort=True).head(1).set_index("user_id")
        last = g.groupby("user_id", sort=True).tail(1).set_index("user_id")
        n = g.groupby("user_id", sort=True)["n_part"].sum()
        return pd.DataFrame(
            {
                "user_id": n.index.to_numpy(),
                "first_ts": first["ts"].to_numpy(),
                "first_type": first["event_type"].to_numpy(),
                "last_ts": last["ts"].to_numpy(),
                "last_type": last["event_type"].to_numpy(),
                "n_events": n.to_numpy().astype(np.int64),
            }
        )

    return (
        ds.map_batches(combine, batch_format="pyarrow")
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .sort("user_id")
        .map_batches(_ts_us("first_ts"), batch_format="pyarrow")
        .map_batches(_ts_us("last_ts"), batch_format="pyarrow")
    )


USER_FIRST_LAST_SQL = """
WITH o AS (
  SELECT user_id, ts, event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn_a,
         row_number() OVER (PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn_d,
         count(*) OVER (PARTITION BY user_id) AS n_events
  FROM events
)
SELECT f.user_id,
       f.ts AS first_ts, f.event_type AS first_type,
       l.ts AS last_ts, l.event_type AS last_type,
       CAST(f.n_events AS BIGINT) AS n_events
FROM (SELECT * FROM o WHERE rn_a = 1) f
JOIN (SELECT * FROM o WHERE rn_d = 1) l USING (user_id)
ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# Ordered string aggregation (funnel paths)
# ---------------------------------------------------------------------------

PATH_MAX_STEPS = 8


def user_event_paths(sf_dir: str, max_steps: int = PATH_MAX_STEPS):
    """Each user's chronological event-type path (first ``max_steps``
    events, '>'-joined) — the ordered string_agg / funnel-mining
    primitive.  One hash-bucket shuffle co-locates a user's events
    (the sessionize plan); inside the partition the per-user head and
    join are one sorted pandas pass.  The per-batch combiner ships
    only each batch's first ``max_steps`` events per user, so the
    shuffle is bounded by users x max_steps, not the event stream."""
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])
    n_parts = _n_blocks()

    def combine(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        df = df.groupby("user_id", sort=False).head(max_steps)
        h = (df["user_id"].to_numpy().astype(np.uint64) * np.uint64(2654435761)) & np.uint64(
            0x7FFFFFFF
        )
        df["part"] = (h % np.uint64(n_parts)).astype(np.int32)
        return pa.Table.from_pandas(
            df, preserve_index=False
        ).replace_schema_metadata(None)

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        g = g.groupby("user_id", sort=True).head(max_steps)
        path = g.groupby("user_id", sort=True)["event_type"].agg(">".join)
        n = g.groupby("user_id", sort=True).size()
        return pd.DataFrame(
            {
                "user_id": path.index.to_numpy(),
                "path": path.to_numpy(),
                "n_steps": n.to_numpy().astype(np.int64),
            }
        )

    return (
        ds.map_batches(combine, batch_format="pyarrow")
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .sort("user_id")
    )


USER_EVENT_PATHS_SQL = f"""
WITH o AS (
  SELECT user_id, event_type,
         row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
)
SELECT user_id,
       string_agg(event_type, '>' ORDER BY rn) AS path,
       count(*) AS n_steps
FROM o WHERE rn <= {PATH_MAX_STEPS}
GROUP BY user_id
ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# Running cumulative window (SUM OVER ... ROWS UNBOUNDED PRECEDING)
# ---------------------------------------------------------------------------

def user_cumulative_value(sf_dir: str):
    """Per-event running totals per user — the cumulative
    SUM/COUNT window (``ROWS UNBOUNDED PRECEDING``).  One hash-bucket
    shuffle co-locates each user's events (the sessionize plan: the
    per-key ordered scan is the irreducible shuffle); inside a
    partition the whole bucket is ONE sorted pandas pass — grouped
    cumsum/cumcount are segment kernels, never per-user Python.
    Money cumulates in cents (int64) so the running sum is
    association-order-exact against the SQL window."""
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])
    n_parts = _n_blocks()

    def prep(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (u * np.uint64(2654435761)) & np.uint64(0x7FFFFFFF)
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts": t["ts"],
                "cents": _to_cents(t["value"]),
                "part": pa.array((h % np.uint64(n_parts)).astype(np.int32)),
            }
        )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        by = g.groupby("user_id", sort=False)
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "user_id": g["user_id"].to_numpy(),
                "cum_n": (by.cumcount() + 1).to_numpy().astype(np.int64),
                "cum_value_cents": by["cents"].cumsum().to_numpy().astype(np.int64),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .sort("event_id")
    )


USER_CUMULATIVE_VALUE_SQL = """
SELECT event_id, user_id,
       CAST(count(*) OVER w AS BIGINT) AS cum_n,
       CAST(sum(CAST(round(value * 100) AS BIGINT)) OVER w AS BIGINT)
         AS cum_value_cents
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS UNBOUNDED PRECEDING)
ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# Snapshot delta (CDC): full-outer compare of two corpus snapshots
# ---------------------------------------------------------------------------

def user_day_delta(sf_dir: str):
    """Change-data-capture between two snapshots of the event stream
    (old = event_id <= max/2, new = the rest), keyed on (user, day):
    per key the old/new counts plus an added/removed/changed/same
    classification — the FULL OUTER JOIN snapshot-compare, expressed
    as union+pivot so it costs ONE grouped aggregate instead of two
    aggregates plus an outer shuffle join.  Per-batch Arrow group_by
    pre-combines the indicator sums, so only (key, 2 ints) partials
    cross the wire; at 10^12 events the shuffle is bounded by key
    cardinality.  The id cutoff is a single column-pruned min/max
    pass (metadata-cheap)."""
    cutoff = int(
        _read(sf_dir, "events", columns=["event_id"]).max("event_id") // 2
    )
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def combine(t: pa.Table) -> pa.Table:
        old = pc.cast(pc.less_equal(t["event_id"], cutoff), pa.int64())
        keyed = pa.table(
            {
                "user_id": t["user_id"],
                "day": pc.floor_temporal(t["ts"], unit="day"),
                "o": old,
                "n": pc.subtract(1, old),
            }
        )
        return keyed.group_by(["user_id", "day"]).aggregate([("o", "sum"), ("n", "sum")])

    def classify(t: pa.Table) -> pa.Table:
        n_old = t["o_sum"].to_numpy(zero_copy_only=False)
        n_new = t["n_sum"].to_numpy(zero_copy_only=False)
        change = np.where(
            n_old == 0,
            "added",
            np.where(n_new == 0, "removed", np.where(n_old != n_new, "changed", "same")),
        )
        return pa.table(
            {
                "user_id": t["user_id"],
                "day": t["day"],
                "n_old": pa.array(n_old, pa.int64()),
                "n_new": pa.array(n_new, pa.int64()),
                "change": pa.array(change.astype(object), pa.string()),
            }
        )

    from document_extractor_ray.functions.bucketing import bucketed_agg

    return (
        bucketed_agg(
            ds.map_batches(combine, batch_format="pyarrow"),
            ["user_id", "day"],
            [("o_sum", "sum", "o_sum"), ("n_sum", "sum", "n_sum")],
        )
        .map_batches(classify, batch_format="pyarrow")
        .sort(["user_id", "day"])
        .map_batches(_ts_us("day"), batch_format="pyarrow")
    )


USER_DAY_DELTA_SQL = """
WITH cut AS (SELECT max(event_id) // 2 AS c FROM events),
h AS (
  SELECT user_id, date_trunc('day', ts) AS day,
         sum(CASE WHEN event_id <= (SELECT c FROM cut) THEN 1 ELSE 0 END) AS n_old,
         sum(CASE WHEN event_id >  (SELECT c FROM cut) THEN 1 ELSE 0 END) AS n_new
  FROM events GROUP BY 1, 2
)
SELECT user_id, day,
       CAST(n_old AS BIGINT) AS n_old,
       CAST(n_new AS BIGINT) AS n_new,
       CASE WHEN n_old = 0 THEN 'added'
            WHEN n_new = 0 THEN 'removed'
            WHEN n_old <> n_new THEN 'changed'
            ELSE 'same' END AS change
FROM h
ORDER BY user_id, day
"""


# ---------------------------------------------------------------------------
# Distributed distinct-count aggregate
# ---------------------------------------------------------------------------

def distinct_users_per_type(sf_dir: str):
    """count(DISTINCT user_id) per event type — the distributed
    distinct aggregate.  Each batch first dedups its own (type, user)
    pairs with one Arrow group-by (combiner: a user active in many
    events per block shuffles once, not per event), the grouped Count
    across blocks establishes global distinctness, and per-batch
    partials + a tiny second groupby produce the final counts.  The
    wide shuffle carries distinct pairs — bounded by |users| x
    |types|, never the event count."""
    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])

    def pair_partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, ["event_type", "user_id"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "event_type": g["event_type"],
                "user_id": g["user_id"],
                "n": pc.cast(g["count_all"], pa.int64()),
            }
        )

    from document_extractor_ray.functions.bucketing import bucketed_agg

    pairs = bucketed_agg(
        ds.map_batches(pair_partial, batch_format="pyarrow"),
        ["event_type", "user_id"],
        [("n", "sum", "n_events_pair")],
    )

    def type_partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, ["event_type"]).aggregate(
            [([], "count_all"), ("n_events_pair", "sum")]
        )
        return pa.table(
            {
                "event_type": g["event_type"],
                "u": pc.cast(g["count_all"], pa.int64()),
                "e": pc.cast(g["n_events_pair_sum"], pa.int64()),
            }
        )

    return (
        pairs.map_batches(type_partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("u", alias_name="n_users"), Sum("e", alias_name="n_events"))
        .sort("event_type")
    )


DISTINCT_USERS_SQL = """
SELECT event_type,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
       count(*) AS n_events
FROM events
GROUP BY event_type
ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# HyperLogLog register table (mergeable distinct-count sketch)
# ---------------------------------------------------------------------------

HLL_P = 8                       # 2^8 = 256 registers, ~6.5% std error
HLL_M = 1 << HLL_P
# murmur3 64-bit finalizer: HLL needs an AVALANCHING hash — a bare
# multiply-shift maps sequential ids to a Weyl (low-discrepancy)
# register sequence whose too-even spread breaks the sketch's
# collision statistics (measured: 149/256 registers hit by 150
# sequential ids vs ~114 expected; linear counting then estimated 223).
HLL_SEED = 0x165667B19E3779F9
HLL_C1 = 0xFF51AFD7ED558CCD
HLL_C2 = 0xC4CEB9FE1A85EC53
_HLL_LOW_BITS = 64 - HLL_P
_HLL_POWERS = np.left_shift(
    np.uint64(1), np.arange(_HLL_LOW_BITS + 1, dtype=np.uint64)
)


def _hll_hash(u: np.ndarray) -> np.ndarray:
    """fmix64(u + seed) — all uint64 wraparound, mirrored bit-for-bit
    by the SQL oracle's HUGEINT CTE chain."""
    with np.errstate(over="ignore"):
        h = u + np.uint64(HLL_SEED)
        h = h ^ (h >> np.uint64(33))
        h = h * np.uint64(HLL_C1)
        h = h ^ (h >> np.uint64(33))
        h = h * np.uint64(HLL_C2)
        h = h ^ (h >> np.uint64(33))
    return h


def hll_user_registers(sf_dir: str):
    """HyperLogLog register table over events.user_id — the mergeable
    distinct-count sketch (Flajolet et al. 2007).  The reference has
    no sketches; at 10^12 rows this replaces the exact
    distinct-pair shuffle of distinct_users_per_type with O(256)
    state per stream.

    The query emits the REGISTER TABLE (register, max_rho), not the
    float estimate: registers are integer-exact and SQL-replicable
    (the same multiply-shift hash in HUGEINT arithmetic, exact bit
    length via length(ltrim(bin(x),'0'))), so the driver's hash gate
    verifies the distributed sketch state bit-for-bit;
    ``hll_estimate`` turns it into the cardinality estimate on the
    driver.  Scale shape: each batch folds to <= 256 partial-max
    rows (np.maximum.at), one grouped Max merges them — registers
    are a commutative monoid, so shards/streams merge freely."""
    from ray.data.aggregate import Max

    ds = _read(sf_dir, "events", columns=["user_id"])

    def partial(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = _hll_hash(u)
        reg = (h >> np.uint64(_HLL_LOW_BITS)).astype(np.int64)
        low = h & np.uint64((1 << _HLL_LOW_BITS) - 1)
        # exact bit length: #powers-of-two <= low (no float log2)
        bl = np.searchsorted(_HLL_POWERS, low, side="right")
        rho = (_HLL_LOW_BITS - bl + 1).astype(np.int64)
        maxes = np.zeros(HLL_M, dtype=np.int64)
        np.maximum.at(maxes, reg, rho)
        hit = np.nonzero(maxes)[0]
        return pa.table(
            {
                "register": pa.array(hit.astype(np.int64), pa.int64()),
                "max_rho": pa.array(maxes[hit], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("register")
        .aggregate(Max("max_rho", alias_name="max_rho"))
        .sort("register")
    )


def hll_estimate(registers, m: int = HLL_M) -> float:
    """Standard HLL estimate (with small-range correction) from a
    (register, max_rho) table — rows for unhit registers may be
    absent (rho 0)."""
    rho = np.zeros(m, dtype=np.int64)
    if hasattr(registers, "to_pydict"):
        d = registers.to_pydict()
        rho[np.asarray(d["register"], dtype=np.int64)] = d["max_rho"]
    else:  # Dataset
        for r in registers.take_all():
            rho[r["register"]] = r["max_rho"]
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -rho))
    zeros = int(np.count_nonzero(rho == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)  # linear counting
    return float(est)


def _fmix64_sql(expr: str, group_expr: str = "", group_col: str = "") -> str:
    """CTE chain computing fmix64(expr + seed) as column ``h`` over
    events, optionally carrying ``group_expr AS group_col`` from the
    source through every stage (later stages reference the column by
    name).  h ^ (h >> 33) in HUGEINT: the shifted value is < 2^31, so
    the xor only touches the low 32-bit half -> split, BIGINT xor,
    glue."""
    from document_extractor_ray.functions.sqlhash import _mulmod64

    two32 = 1 << 32

    def xs33(col: str) -> str:
        return (
            f"(({col} // {two32}) * {two32}"
            f" + xor(CAST({col} % {two32} AS BIGINT),"
            f" CAST({col} // {two32} // 2 AS BIGINT))::HUGEINT)"
        )

    c0 = f"{group_expr} AS {group_col}, " if group_col else ""
    c = f"{group_col}, " if group_col else ""
    return f"""h0 AS (
  SELECT {c0}({expr}::HUGEINT + {HLL_SEED}::HUGEINT) % {1 << 64}::HUGEINT AS h
  FROM events
),
h1 AS (SELECT {c}{xs33('h')} AS h FROM h0),
h2 AS (SELECT {c}{_mulmod64('h', HLL_C1)} AS h FROM h1),
h3 AS (SELECT {c}{xs33('h')} AS h FROM h2),
h4 AS (SELECT {c}{_mulmod64('h', HLL_C2)} AS h FROM h3),
h5 AS (SELECT {c}{xs33('h')} AS h FROM h4)"""


def _hll_sql(group_expr: str = "", group_col: str = "") -> str:
    two56 = 1 << _HLL_LOW_BITS
    carry_sel = f"{group_col}, " if group_col else ""
    group_by = f"GROUP BY {group_col}, register" if group_col else "GROUP BY register"
    order_by = f"ORDER BY {group_col}, register" if group_col else "ORDER BY register"
    return f"""
WITH {_fmix64_sql("user_id", group_expr, group_col)},
r AS (
  SELECT {carry_sel}CAST(h // {two56} AS BIGINT) AS register,
         CAST(h % {two56} AS BIGINT) AS low
  FROM h5
)
SELECT {carry_sel}register,
       CAST(max({_HLL_LOW_BITS} - length(ltrim(bin(low), '0')) + 1) AS BIGINT) AS max_rho
FROM r
{group_by}
{order_by}
"""


HLL_USER_REGISTERS_SQL = _hll_sql()


def hll_daily_registers(sf_dir: str):
    """Per-DAY HyperLogLog register tables over events.user_id — the
    grouped-sketch shape (distinct users per day without a distinct
    shuffle).  Each batch folds to at most |days-in-batch| x 256
    partial-max cells via one flattened np.maximum.at; a grouped Max
    merges across batches.  Because max is associative over any row
    partition, merging the daily tables by register reproduces the
    GLOBAL sketch exactly (pytest-asserted) — the property that lets
    per-shard / per-day sketches roll up to any coarser window for
    free at 100 TB."""
    from ray.data.aggregate import Max

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = _hll_hash(u)
        reg = (h >> np.uint64(_HLL_LOW_BITS)).astype(np.int64)
        low = h & np.uint64((1 << _HLL_LOW_BITS) - 1)
        bl = np.searchsorted(_HLL_POWERS, low, side="right")
        rho = (_HLL_LOW_BITS - bl + 1).astype(np.int64)
        day = pc.floor_temporal(t["ts"], unit="day")
        day_us = pc.cast(day, pa.int64()).to_numpy(zero_copy_only=False)
        uniq_days, inv = np.unique(day_us, return_inverse=True)
        maxes = np.zeros(len(uniq_days) * HLL_M, dtype=np.int64)
        np.maximum.at(maxes, inv * HLL_M + reg, rho)
        nz = np.nonzero(maxes)[0]
        return pa.table(
            {
                "day": pa.array(uniq_days[nz // HLL_M], pa.int64()).cast(
                    pa.timestamp("us")
                ),
                "register": pa.array(nz % HLL_M, pa.int64()),
                "max_rho": pa.array(maxes[nz], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["day", "register"])
        .aggregate(Max("max_rho", alias_name="max_rho"))
        .sort(["day", "register"])
        .map_batches(_ts_us("day"), batch_format="pyarrow")
    )


HLL_DAILY_REGISTERS_SQL = _hll_sql("date_trunc('day', ts)", "day")


# ---------------------------------------------------------------------------
# Deterministic hash-based sampling
# ---------------------------------------------------------------------------

HASH_SAMPLE_PCT = 10


def hash_sample_docs(sf_dir: str, pct: int = HASH_SAMPLE_PCT):
    """Deterministic ``pct``% document sample: keep doc_id iff
    fmix64(doc_id) % 100 < pct.  Unlike modulo-on-the-raw-id
    (stratified_sample's systematic variant), the avalanche hash is
    unbiased under ANY id assignment pattern (sequential, sharded,
    gapped), reproducible across runs/engines, and consistent — the
    same doc is in or out of every downstream sample.  Embarrassingly
    parallel: one vectorized filter per batch, no shuffle, no state."""
    from document_extractor_ray.functions.textstats import _read_docs

    ds = _read_docs(sf_dir, ["doc_id", "lang"])

    def keep(t: pa.Table) -> pa.Table:
        u = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        mask = (_hll_hash(u) % np.uint64(100)) < np.uint64(pct)
        return t.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow").sort("doc_id")


def _hash_sample_sql() -> str:
    from document_extractor_ray.functions.sqlhash import _mulmod64

    two32 = 1 << 32

    def xs33(col: str) -> str:
        return (
            f"(({col} // {two32}) * {two32}"
            f" + xor(CAST({col} % {two32} AS BIGINT),"
            f" CAST({col} // {two32} // 2 AS BIGINT))::HUGEINT)"
        )

    return f"""
WITH h0 AS (
  SELECT doc_id, lang,
         (doc_id::HUGEINT + {HLL_SEED}::HUGEINT) % {1 << 64}::HUGEINT AS h
  FROM documents
),
h1 AS (SELECT doc_id, lang, {xs33('h')} AS h FROM h0),
h2 AS (SELECT doc_id, lang, {_mulmod64('h', HLL_C1)} AS h FROM h1),
h3 AS (SELECT doc_id, lang, {xs33('h')} AS h FROM h2),
h4 AS (SELECT doc_id, lang, {_mulmod64('h', HLL_C2)} AS h FROM h3),
h5 AS (SELECT doc_id, lang, {xs33('h')} AS h FROM h4)
SELECT doc_id, lang FROM h5
WHERE h % 100 < {HASH_SAMPLE_PCT}
ORDER BY doc_id
"""


HASH_SAMPLE_SQL = _hash_sample_sql()


# ---------------------------------------------------------------------------
# Weighted mixture sampling (training-data source mixing)
# ---------------------------------------------------------------------------

# per-mille keep rates per source — the "data mixture" a training run
# specifies (e.g. upsample curated sources, downsample crawl).  The
# synthetic corpus has sources src0..src19; a deterministic spread of
# rates exercises every branch of the mixture.
MIXTURE_PERMILLE = {f"src{i}": (i * 97) % 900 + 50 for i in range(20)}


def mixture_sample(sf_dir: str, rates: dict = None):
    """Deterministic weighted source mixing: keep a document iff
    fmix64(doc_id) % 1000 < rate[source] — the mixture-sampling step
    of training-data assembly, with per-source rates instead of
    hash_sample's single global rate.  Same avalanche hash, same
    engine-vs-SQL bit equality; sources absent from the rate map drop
    to 0.  Embarrassingly parallel, no shuffle."""
    from document_extractor_ray.functions.textstats import _read_docs

    rates = MIXTURE_PERMILLE if rates is None else rates
    ds = _read_docs(sf_dir, ["doc_id", "source", "lang"])

    def keep(t: pa.Table) -> pa.Table:
        u = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bucket = (_hll_hash(u) % np.uint64(1000)).astype(np.int64)
        src = t["source"].to_pylist()
        thresh = np.fromiter(
            (rates.get(s, 0) for s in src), dtype=np.int64, count=len(src)
        )
        return t.filter(pa.array(bucket < thresh))

    return ds.map_batches(keep, batch_format="pyarrow").sort("doc_id")


def _mixture_sql() -> str:
    from document_extractor_ray.functions.sqlhash import _mulmod64

    two32 = 1 << 32

    def xs33(col: str) -> str:
        return (
            f"(({col} // {two32}) * {two32}"
            f" + xor(CAST({col} % {two32} AS BIGINT),"
            f" CAST({col} // {two32} // 2 AS BIGINT))::HUGEINT)"
        )

    cases = " ".join(
        f"WHEN source = '{s}' THEN {r}" for s, r in MIXTURE_PERMILLE.items()
    )
    return f"""
WITH h0 AS (
  SELECT doc_id, source, lang,
         (doc_id::HUGEINT + {HLL_SEED}::HUGEINT) % {1 << 64}::HUGEINT AS h
  FROM documents
),
h1 AS (SELECT doc_id, source, lang, {xs33('h')} AS h FROM h0),
h2 AS (SELECT doc_id, source, lang, {_mulmod64('h', HLL_C1)} AS h FROM h1),
h3 AS (SELECT doc_id, source, lang, {xs33('h')} AS h FROM h2),
h4 AS (SELECT doc_id, source, lang, {_mulmod64('h', HLL_C2)} AS h FROM h3),
h5 AS (SELECT doc_id, source, lang, {xs33('h')} AS h FROM h4)
SELECT doc_id, source, lang FROM h5
WHERE h % 1000 < (CASE {cases} ELSE 0 END)
ORDER BY doc_id
"""


MIXTURE_SAMPLE_SQL = _mixture_sql()


# ---------------------------------------------------------------------------
# Exact global percentile rank without a global sort
# ---------------------------------------------------------------------------

def doc_length_percentiles(sf_dir: str):
    """Every document's exact global length-rank in permille:
    rank_permille = (#docs with n_chars < mine) * 1000 // N — the
    window-function PERCENT_RANK analogue, computed WITHOUT a global
    sort: the bounded-domain count table (the token_quantiles plan)
    collects once, its cumulative map broadcasts, and each batch
    looks its ranks up vectorized.  At 10^12 docs the count table is
    |distinct lengths| rows; no shuffle ever carries the corpus."""
    from ray.data.aggregate import Sum

    from document_extractor_ray import state

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def count_partial(t: pa.Table) -> pa.Table:
        v, n = np.unique(t["n_chars"].to_numpy(zero_copy_only=False), return_counts=True)
        return pa.table(
            {"v": pa.array(v, pa.int64()), "n": pa.array(n.astype(np.int64), pa.int64())}
        )

    counts = (
        ds.map_batches(count_partial, batch_format="pyarrow")
        .groupby("v")
        .aggregate(Sum("n", alias_name="n"))
        .sort("v")
        .take_all()
    )
    vs = np.array([r["v"] for r in counts], dtype=np.int64)
    ns = np.array([r["n"] for r in counts], dtype=np.int64)
    below = np.concatenate([[0], np.cumsum(ns)[:-1]]).astype(np.int64)
    total = int(ns.sum())
    ref = state.broadcast((vs, below, total))

    def rank(t: pa.Table) -> pa.Table:
        vs_b, below_b, total_b = state.cached_get(ref)
        x = t["n_chars"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(vs_b, x)
        pm = below_b[idx] * 1000 // max(total_b, 1)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "n_chars": t["n_chars"],
                "rank_permille": pa.array(pm.astype(np.int64), pa.int64()),
            }
        )

    return ds.map_batches(rank, batch_format="pyarrow").sort("doc_id")


# rank() - 1 == count of rows strictly below (ties share min rank)
DOC_LENGTH_PERCENTILES_SQL = """
SELECT doc_id, n_chars,
       CAST((rank() OVER (ORDER BY n_chars) - 1) * 1000
            // greatest(count(*) OVER (), 1) AS BIGINT) AS rank_permille
FROM documents
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# LAG window: day-over-day delta of daily event counts
# ---------------------------------------------------------------------------

def events_daily_delta(sf_dir: str):
    """Day-over-day change in daily event counts per type — the LAG
    window-function analogue.  The raw stream first collapses to
    per-(type, day) counts (partial-combine groupby, the events_daily
    plan), and only the tiny daily table pays the per-key ordered
    window: one map_groups per event_type computes the whole series'
    lagged diff vectorized.  At 10^12 events the daily table is still
    ~types x days rows — windowing after pre-aggregation is the scale
    shape.  Each type's FIRST day is dropped (LAG has no previous row
    there): keeping delta_n int64-exact beats a nullable column the
    cross-engine compare can only see as float."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "event_type": t["event_type"],
                "day": pc.floor_temporal(t["ts"], unit="day"),
            }
        )

    daily = (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby(["event_type", "day"])
        .aggregate(Count(alias_name="n"))
    )

    def lag_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("day", kind="mergesort")
        delta = g["n"].diff().iloc[1:]
        g = g.iloc[1:]
        return pd.DataFrame(
            {
                "event_type": g["event_type"].to_numpy(),
                "day": g["day"].to_numpy(),
                "n": g["n"].to_numpy(),
                "delta_n": delta.to_numpy(dtype="int64")
                if len(g)
                else np.array([], dtype="int64"),
            }
        )

    return (
        daily.groupby("event_type")
        .map_groups(lag_group, batch_format="pandas")
        .sort(["event_type", "day"])
        .map_batches(_ts_us("day"), batch_format="pyarrow")
    )


EVENTS_DAILY_DELTA_SQL = """
WITH d AS (
  SELECT event_type, date_trunc('day', ts) AS day, count(*) AS n
  FROM events GROUP BY 1, 2
),
w AS (
  SELECT event_type, day, n,
         n - lag(n) OVER (PARTITION BY event_type ORDER BY day) AS delta_n
  FROM d
)
SELECT event_type, day, n, CAST(delta_n AS BIGINT) AS delta_n
FROM w WHERE delta_n IS NOT NULL
ORDER BY event_type, day
"""


# ---------------------------------------------------------------------------
# Pivot / wide aggregation (one column per category value)
# ---------------------------------------------------------------------------

# The pivot's column set must be KNOWN up front (a pivot with unknown
# categories is two passes: distinct + pivot); these are the event
# taxonomy, alphabetical.
PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


def event_type_pivot(sf_dir: str):
    """Pivot the event stream wide: one row per user, one count column
    per event type (the feature-matrix shape every behavioural model
    consumes).  Each batch turns the category into integer indicator
    columns and pre-combines them with Arrow ``group_by`` — so the
    shuffle carries one (user, 5 ints) partial per user per block, and
    the global groupby is a pure Sum merge.  At 10^12 events the wire
    cost is bounded by user cardinality x block count, never by event
    count; adding a category adds a column, not a pass."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        cols = {"user_id": t["user_id"]}
        for ty in PIVOT_TYPES:
            cols[f"n_{ty}"] = pc.cast(pc.equal(t["event_type"], ty), pa.int64())
        keyed = pa.table(cols)
        return keyed.group_by("user_id").aggregate(
            [(f"n_{ty}", "sum") for ty in PIVOT_TYPES]
        )

    from document_extractor_ray.functions.bucketing import bucketed_agg

    out = bucketed_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["user_id"],
        [(f"n_{ty}_sum", "sum", f"n_{ty}") for ty in PIVOT_TYPES],
    ).sort("user_id")
    return out


EVENT_TYPE_PIVOT_SQL = """
SELECT user_id,
       {cols}
FROM events
GROUP BY user_id
ORDER BY user_id
""".format(
    cols=",\n       ".join(
        "CAST(sum(CASE WHEN event_type = '{ty}' THEN 1 ELSE 0 END) AS BIGINT)"
        " AS n_{ty}".format(ty=ty)
        for ty in PIVOT_TYPES
    )
)


# ---------------------------------------------------------------------------
# LAG window over the base table (per-key previous-row delta)
# ---------------------------------------------------------------------------

def user_lag_gaps(sf_dir: str):
    """Per-event gap to the SAME user's previous event in microseconds
    (-1 for a user's first event) — the LAG(ts) OVER (PARTITION BY
    user ORDER BY ts) window on the raw stream, the building block of
    bot/burst features.  Same irreducible plan as the other per-key
    ordered windows (user_cumulative_value): ONE hash-bucket shuffle
    co-locates a user's events, then the whole partition is a single
    sorted numpy diff — the per-row lag is `ts[i] - ts[i-1]` masked by
    a same-user boundary vector, no per-user Python ever."""
    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    n_parts = _n_blocks()

    def prep(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (u * np.uint64(2654435761)) & np.uint64(0x7FFFFFFF)
        return t.append_column(
            "part", pa.array((h % np.uint64(n_parts)).astype(np.int32))
        )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        ts_us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        uid = g["user_id"].to_numpy()
        gap = np.empty(len(g), dtype=np.int64)
        gap[:1] = -1
        if len(g) > 1:
            same = uid[1:] == uid[:-1]
            gap[1:] = np.where(same, ts_us[1:] - ts_us[:-1], -1)
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy().astype("int64"),
                "user_id": uid.astype("int64"),
                "gap_us": gap,
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .sort("event_id")
    )


USER_LAG_GAPS_SQL = """
SELECT event_id, user_id,
       CAST(COALESCE(
         date_diff('microsecond',
                   lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id),
                   ts),
         -1) AS BIGINT) AS gap_us
FROM events
ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# Grouped correlation via sufficient statistics (exact integer partials)
# ---------------------------------------------------------------------------

def events_corr_stats(sf_dir: str):
    """Per-event-type sufficient statistics for the Pearson correlation
    between event value (cents) and hour-of-day: n, Σx, Σy, Σx², Σy²,
    Σxy — ALL int64, so the distributed sum is associative and exact
    (the float corr is one driver-side formula away, but floats never
    cross the wire).  This is the canonical 'moment sketch' pattern:
    any per-group variance/covariance/regression reduces to integer
    partials combined inside map_batches, one tiny groupby to merge.
    Per 10^12 rows the shuffle carries (5 types x blocks) rows."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        x = _to_cents(t["value"])
        y = pc.cast(pc.hour(t["ts"]), pa.int64())
        keyed = pa.table(
            {
                "event_type": t["event_type"],
                "n": pa.array(np.ones(len(t), dtype=np.int64)),
                "sum_x": x,
                "sum_y": y,
                "sum_xx": pc.multiply(x, x),
                "sum_yy": pc.multiply(y, y),
                "sum_xy": pc.multiply(x, y),
            }
        )
        return keyed.group_by("event_type").aggregate(
            [(c, "sum") for c in ("n", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy")]
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            *[
                Sum(f"{c}_sum", alias_name=c)
                for c in ("n", "sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy")
            ]
        )
        .sort("event_type")
    )


EVENTS_CORR_STATS_SQL = """
WITH p AS (
  SELECT event_type,
         CAST(round(value * 100) AS BIGINT) AS x,
         CAST(extract(hour FROM ts) AS BIGINT) AS y
  FROM events
)
SELECT event_type,
       CAST(count(*) AS BIGINT) AS n,
       CAST(sum(x) AS BIGINT) AS sum_x,
       CAST(sum(y) AS BIGINT) AS sum_y,
       CAST(sum(x * x) AS BIGINT) AS sum_xx,
       CAST(sum(y * y) AS BIGINT) AS sum_yy,
       CAST(sum(x * y) AS BIGINT) AS sum_xy
FROM p
GROUP BY event_type
ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# Bloom-filter semi-join (compact prefilter + exact partitioned verify)
# ---------------------------------------------------------------------------

BLOOM_PRIORITY = "1-URGENT"
BLOOM_M_WORDS = 1 << 14  # 2^20 bits = 128 KiB — sized for ~50k keys @ ~2% fp
BLOOM_K = 4


def _bloom_positions(keys: np.ndarray, m_words: int = BLOOM_M_WORDS) -> np.ndarray:
    """(k, n) bit positions via double hashing h1 + i*h2 (Kirsch-
    Mitzenmacher); multiply-xorshift mixers, pure uint64 numpy."""
    x = keys.astype(np.uint64)
    h1 = x * np.uint64(0x9E3779B97F4A7C15)
    h1 ^= h1 >> np.uint64(29)
    h2 = (x + np.uint64(0x165667B19E3779F9)) * np.uint64(0xC2B2AE3D27D4EB4F)
    h2 ^= h2 >> np.uint64(31)
    m_bits = np.uint64(m_words * 64)
    return np.stack([(h1 + np.uint64(i) * h2) % m_bits for i in range(BLOOM_K)])


def lineitem_semi_bloom(
    sf_dir: str, priority: str = BLOOM_PRIORITY, m_words: int = BLOOM_M_WORDS
):
    """Semi-join lineitem against urgent orders with a Bloom-filter
    prefilter + exact verify — the large-x-large semi-join pattern for
    when the build-side KEY SET is too big to broadcast but a 128 KiB
    bitmap is not.

    Scale shape, in order:
    - build: each build-side block folds its keys into a partial
      bitmap (one 128 KiB binary row per block); the driver ORs those
      few rows — driver traffic is blocks x 128 KiB, independent of
      key count — and ``ray.put``s the merged filter ONCE.
    - probe: every lineitem batch tests k=4 bits vectorized in numpy;
      non-members (the vast majority in a selective semi-join) never
      leave the scan node.
    - verify: Bloom false positives are removed exactly — survivors
      and build keys hash-partition on the join key, and each
      partition answers membership with one sorted np.isin; only
      survivors (~sel + 2% fp) pay this shuffle.  The per-key
      aggregate (n_items, qty) folds into the same partition pass, so
      no further shuffle follows."""
    from document_extractor_ray import state

    n_parts = _n_blocks()

    keys_ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])

    def build_partial(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderpriority"], priority))
        words = np.zeros(m_words, dtype=np.uint64)
        if len(t):
            k = t["o_orderkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
            pos = _bloom_positions(k, m_words).ravel()
            np.bitwise_or.at(words, pos >> 6, np.uint64(1) << (pos & np.uint64(63)))
        return pa.table({"bits": pa.array([words.tobytes()], pa.large_binary())})

    merged = np.zeros(m_words, dtype=np.uint64)
    for row in keys_ds.map_batches(build_partial, batch_format="pyarrow").take_all():
        merged |= np.frombuffer(row["bits"], dtype=np.uint64)
    bloom_ref = ray.put(merged)

    def probe(t: pa.Table) -> pa.Table:
        words = state.cached_get(bloom_ref)
        k = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.uint64)
        pos = _bloom_positions(k, m_words)
        hit = (words[pos >> 6] >> (pos & np.uint64(63))) & np.uint64(1)
        keep = hit.all(axis=0).astype(bool)
        t = t.filter(pa.array(keep))
        return pa.table(
            {
                "key": t["l_orderkey"],
                "qty": pc.cast(
                    pc.round(t["l_quantity"], round_mode="half_towards_infinity"),
                    pa.int64(),
                ),
                "side": pa.array(np.ones(len(t), dtype=np.int8)),
            }
        )

    def tag_keys(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["o_orderpriority"], priority))
        return pa.table(
            {
                "key": t["o_orderkey"],
                "qty": pa.array(np.zeros(len(t), dtype=np.int64)),
                "side": pa.array(np.zeros(len(t), dtype=np.int8)),
            }
        )

    def add_part(t: pa.Table) -> pa.Table:
        k = t["key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (k * np.uint64(2654435761)) & np.uint64(0x7FFFFFFF)
        return t.append_column(
            "part", pa.array((h % np.uint64(n_parts)).astype(np.int32))
        )

    def verify_agg(g: pd.DataFrame) -> pd.DataFrame:
        keys = np.sort(g.loc[g["side"] == 0, "key"].to_numpy())
        items = g[g["side"] == 1]
        items = items[np.isin(items["key"].to_numpy(), keys)]
        if not len(items):
            return pd.DataFrame(
                {"o_orderkey": pd.Series(dtype="int64"),
                 "n_items": pd.Series(dtype="int64"),
                 "qty": pd.Series(dtype="int64")}
            )
        agg = items.groupby("key", sort=False).agg(
            n_items=("qty", "size"), qty=("qty", "sum")
        )
        return pd.DataFrame(
            {
                "o_orderkey": agg.index.to_numpy().astype("int64"),
                "n_items": agg["n_items"].to_numpy().astype("int64"),
                "qty": agg["qty"].to_numpy().astype("int64"),
            }
        )

    probed = _read(
        sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"]
    ).map_batches(probe, batch_format="pyarrow")
    tagged_keys = keys_ds.map_batches(tag_keys, batch_format="pyarrow")

    return (
        probed.union(tagged_keys)
        .map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(verify_agg, batch_format="pandas")
        .sort("o_orderkey")
    )


LINEITEM_SEMI_BLOOM_SQL = """
SELECT l.l_orderkey AS o_orderkey,
       CAST(count(*) AS BIGINT) AS n_items,
       CAST(sum(CAST(round(l.l_quantity) AS BIGINT)) AS BIGINT) AS qty
FROM lineitem l
WHERE l.l_orderkey IN (
  SELECT o_orderkey FROM orders WHERE o_orderpriority = '1-URGENT'
)
GROUP BY 1
ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Exact global ranking without a total-order sort
# ---------------------------------------------------------------------------

def doc_global_rank(sf_dir: str):
    """Exact global row_number() for every document by
    (n_chars DESC, doc_id) — WITHOUT a total-order sort of the corpus.

    The trick is rank = base(key) + within-tie position:
    - pass 1 builds the exact key histogram (per-batch Arrow group_by
      partials, one tiny grouped Sum) and turns it into cumulative
      base offsets on the driver — the histogram is bounded by the
      KEY DOMAIN (distinct n_chars values), not row count, and is
      broadcast once via ray.put.  (For an unbounded key domain the
      same plan works on range-bucket boundaries instead of exact
      keys.)
    - pass 2 hash-shuffles rows on the key only (ties must co-locate;
      partitions stay balanced unless one key dominates), sorts each
      partition once, and adds the per-tie cumcount to the broadcast
      base — a whole-partition vectorized pass, no per-key Python.
    So the all-to-all moves each row once with NO merge step of a
    global sort, and the driver holds only the histogram."""
    from document_extractor_ray import state

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    n_parts = _n_blocks()

    def hist_partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(pa.table({"k": t["n_chars"]}), ["k"]).aggregate(
            [([], "count_all")]
        )
        return pa.table({"k": g["k"], "n": pc.cast(g["count_all"], pa.int64())})

    hist = (
        ds.map_batches(hist_partial, batch_format="pyarrow")
        .groupby("k")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    # keys ascending; base offset for key k = count of rows with key > k
    hist = hist.sort_values("k").reset_index(drop=True)
    keys = hist["k"].to_numpy().astype(np.int64)
    counts = hist["n"].to_numpy().astype(np.int64)
    above = counts[::-1].cumsum()[::-1] - counts  # rows strictly greater
    base_ref = ray.put((keys, above))

    def add_part(t: pa.Table) -> pa.Table:
        k = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (k * np.uint64(2654435761)) & np.uint64(0x7FFFFFFF)
        return t.append_column(
            "part", pa.array((h % np.uint64(n_parts)).astype(np.int32))
        )

    def rank_partition(g: pd.DataFrame) -> pd.DataFrame:
        keys_b, above_b = state.cached_get(base_ref)
        g = g.sort_values(["n_chars", "doc_id"], kind="mergesort")
        k = g["n_chars"].to_numpy().astype(np.int64)
        tie_pos = np.arange(len(g)) - np.searchsorted(k, k, side="left")
        base = above_b[np.searchsorted(keys_b, k)]
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy().astype("int64"),
                "n_chars": k,
                "rnk": (base + tie_pos + 1).astype("int64"),
            }
        )

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(rank_partition, batch_format="pandas")
        .sort("doc_id")
    )


DOC_GLOBAL_RANK_SQL = """
SELECT doc_id, n_chars,
       CAST(row_number() OVER (ORDER BY n_chars DESC, doc_id) AS BIGINT) AS rnk
FROM documents
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Grouped mode (most frequent value per key, deterministic ties)
# ---------------------------------------------------------------------------

def user_modal_type(sf_dir: str):
    """Per-user modal event type (most frequent; ties break to the
    alphabetically first type) plus its count — the grouped-mode
    aggregate.  Two bounded steps: per-batch Arrow group_by counts
    (user, type) pairs — the shuffle carries at most
    users x |taxonomy| partial rows per block — then a hash aggregate
    merges pair counts and a second exchange groups the MERGED pair
    table (already tiny: one row per (user, type), never per event)
    for a whole-partition vectorized argmax — sort + drop_duplicates,
    no per-user Python."""
    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])

    def pair_partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(
            pa.table({"user_id": t["user_id"], "event_type": t["event_type"]}),
            ["user_id", "event_type"],
        ).aggregate([([], "count_all")])
        return pa.table(
            {
                "user_id": g["user_id"],
                "event_type": g["event_type"],
                "n": pc.cast(g["count_all"], pa.int64()),
            }
        )

    def argmax(g: pd.DataFrame) -> pd.DataFrame:
        # count desc, type asc: first row per user is the mode
        g = g.sort_values(
            ["user_id", "n", "event_type"], ascending=[True, False, True]
        )
        top = g.drop_duplicates("user_id", keep="first")
        return pd.DataFrame(
            {
                "user_id": top["user_id"].to_numpy().astype("int64"),
                "modal_type": top["event_type"].to_numpy(),
                "n": top["n"].to_numpy().astype("int64"),
            }
        )

    return (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(Sum("n", alias_name="n"))
        .groupby("user_id")
        .map_groups(argmax, batch_format="pandas")
        .sort("user_id")
    )


USER_MODAL_TYPE_SQL = """
WITH c AS (
  SELECT user_id, event_type, count(*) AS n
  FROM events GROUP BY 1, 2
),
r AS (
  SELECT user_id, event_type, n,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY n DESC, event_type) AS rn
  FROM c
)
SELECT user_id, event_type AS modal_type, CAST(n AS BIGINT) AS n
FROM r WHERE rn = 1
ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# Global cumulative window (SUM OVER ORDER BY, no partition key)
# ---------------------------------------------------------------------------

def orders_cumulative_revenue(sf_dir: str):
    """Running revenue total over ALL orders ordered by
    (o_orderdate, o_orderkey) — the global cumulative window, which
    naively needs a total-order sort plus a sequential scan.  Same
    decomposition as doc_global_rank: cumulative = prefix(base day) +
    within-day running sum.  Pass 1 aggregates cents per DAY (partial
    per batch, tiny grouped Sum — bounded by the date domain) and the
    driver broadcasts the exclusive prefix sums; pass 2 hash-shuffles
    rows by day only, sorts each partition once, and a grouped numpy
    cumsum within each day adds to the broadcast base.  Money stays
    int64 cents end-to-end so the running total is association-exact."""
    from document_extractor_ray import state

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderdate", "o_totalprice"])
    n_parts = _n_blocks()

    def day_partial(t: pa.Table) -> pa.Table:
        keyed = pa.table(
            {
                "day": pc.cast(pc.floor_temporal(t["o_orderdate"], unit="day"), pa.int64()),
                "c": _to_cents(t["o_totalprice"]),
            }
        )
        return keyed.group_by("day").aggregate([("c", "sum")])

    hist = (
        ds.map_batches(day_partial, batch_format="pyarrow")
        .groupby("day")
        .aggregate(Sum("c_sum", alias_name="c"))
        .to_pandas()
        .sort_values("day")
        .reset_index(drop=True)
    )
    days = hist["day"].to_numpy().astype(np.int64)
    prefix = np.concatenate([[0], hist["c"].to_numpy().astype(np.int64).cumsum()[:-1]])
    base_ref = ray.put((days, prefix))

    def add_part(t: pa.Table) -> pa.Table:
        d = pc.cast(pc.floor_temporal(t["o_orderdate"], unit="day"), pa.int64())
        dn = d.to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (dn * np.uint64(2654435761)) & np.uint64(0x7FFFFFFF)
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "day": d,
                "cents": _to_cents(t["o_totalprice"]),
                "part": pa.array((h % np.uint64(n_parts)).astype(np.int32)),
            }
        )

    def cum_partition(g: pd.DataFrame) -> pd.DataFrame:
        days_b, prefix_b = state.cached_get(base_ref)
        g = g.sort_values(["day", "o_orderkey"], kind="mergesort")
        within = g.groupby("day", sort=False)["cents"].cumsum().to_numpy()
        base = prefix_b[np.searchsorted(days_b, g["day"].to_numpy())]
        return pd.DataFrame(
            {
                "o_orderkey": g["o_orderkey"].to_numpy().astype("int64"),
                "cum_revenue_cents": (base + within).astype("int64"),
            }
        )

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(cum_partition, batch_format="pandas")
        .sort("o_orderkey")
    )


ORDERS_CUMULATIVE_REVENUE_SQL = """
SELECT o_orderkey,
       CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
            OVER (ORDER BY date_trunc('day', o_orderdate), o_orderkey
                  ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_revenue_cents
FROM orders
ORDER BY o_orderkey
"""


# ---------------------------------------------------------------------------
# HDR-histogram quantile sketch (deterministic, mergeable, int-exact)
# ---------------------------------------------------------------------------

# Log2 octaves with 8 linear sub-buckets each: bucket width / lower
# bound <= 1/8, so a midpoint estimate is within ~6.25% relative
# error.  Values 0..15 get exact unit buckets.  Everything is integer
# bit arithmetic — the register table is bit-identical across engines
# and merge order, unlike rank-based sketches (KLL/t-digest) whose
# compactions depend on arrival order.

def _hdr_bucket(v: np.ndarray) -> np.ndarray:
    """Bucket index for positive int64 cents (vectorized, exact).
    frexp's exponent IS bit_length for integers exactly representable
    in float64 (cents here are << 2^53)."""
    v = v.astype(np.int64)
    out = np.where(v < 0, -1, v)  # small/negative default
    big = v > 15
    if big.any():
        bl = np.frexp(v[big].astype(np.float64))[1].astype(np.int64)
        sub = (v[big] >> (bl - 4)) & 7
        out = out.copy()
        out[big] = 16 + (bl - 5) * 8 + sub
    return out.astype(np.int64)


def hdr_bucket_bounds(bucket: int) -> tuple[int, int]:
    """[lo, hi) integer bounds of a bucket (inverse of _hdr_bucket)."""
    if bucket < 16:
        return bucket, bucket + 1
    octave, sub = divmod(bucket - 16, 8)
    bl = octave + 5
    width = 1 << (bl - 4)
    lo = (8 + sub) * width
    return lo, lo + width


def value_hdr_registers(sf_dir: str):
    """Per-event-type HDR-histogram register table over value cents —
    the QUANTILE-sketch counterpart of hll_*_registers: deterministic,
    mergeable (counts add), bounded relative error (<=1/8 bucket
    width), and integer-exact so the register table itself is the
    oracle surface.  Per batch the bucket index is pure bit
    arithmetic + one Arrow group_by partial; the shuffle carries
    (type, bucket, n) rows bounded by taxonomy x ~200 buckets,
    independent of row count.  Quantiles come from hdr_quantile() on
    the tiny register table — at 10^12 events nothing but the sketch
    ever reaches the driver."""
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        cents = _to_cents(t["value"]).to_numpy(zero_copy_only=False)
        keyed = pa.table(
            {
                "event_type": t["event_type"],
                "bucket": pa.array(_hdr_bucket(cents)),
            }
        )
        g = pa.TableGroupBy(keyed, ["event_type", "bucket"]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "event_type": g["event_type"],
                "bucket": g["bucket"],
                "n": pc.cast(g["count_all"], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["event_type", "bucket"])
        .aggregate(Sum("n", alias_name="n"))
        .sort(["event_type", "bucket"])
    )


def hdr_quantile(registers, q_permille: int) -> dict[str, float]:
    """Per-type quantile estimate (bucket midpoint at the ceil-rank
    CDF position) from a value_hdr_registers result."""
    rows = registers.take_all() if hasattr(registers, "take_all") else registers
    by_type: dict[str, list] = {}
    for r in rows:
        by_type.setdefault(r["event_type"], []).append((r["bucket"], r["n"]))
    out = {}
    for ty, bl in by_type.items():
        bl.sort()
        total = sum(n for _, n in bl)
        rank = -(-q_permille * total // 1000)  # ceil
        cum = 0
        for bucket, n in bl:
            cum += n
            if cum >= rank:
                lo, hi = hdr_bucket_bounds(bucket)
                out[ty] = (lo + hi) / 2.0
                break
    return out


VALUE_HDR_REGISTERS_SQL = """
WITH c AS (
  SELECT event_type, CAST(round(value * 100) AS BIGINT) AS v
  FROM events
),
b AS (
  SELECT event_type,
         CASE WHEN v < 0 THEN -1
              WHEN v <= 15 THEN v
              ELSE 16 + (length(printf('%b', v)) - 5) * 8
                      + ((v >> (length(printf('%b', v)) - 4)) & 7)
         END AS bucket
  FROM c
)
SELECT event_type, CAST(bucket AS BIGINT) AS bucket,
       CAST(count(*) AS BIGINT) AS n
FROM b
GROUP BY event_type, bucket
ORDER BY event_type, bucket
"""


# ---------------------------------------------------------------------------
# Deterministic train/val/test split assignment
# ---------------------------------------------------------------------------

# permille thresholds: [0,900) train, [900,950) val, [950,1000) test
SPLIT_TRAIN_PM = 900
SPLIT_VAL_PM = 950


def train_val_test_split(sf_dir: str):
    """Assign every document a train/val/test split label by
    fmix64(doc_id) % 1000 thresholds (90/5/5) — the dataset-split
    step of training-data assembly.  Hash-based assignment is the
    only split that survives scale: it needs no global shuffle or
    count, is stable under re-runs and corpus growth (a doc never
    migrates between splits when new data arrives), and any engine
    reproduces it bit-exactly.  Embarrassingly parallel one-pass
    filter-free map; the label is pure arithmetic per batch."""
    from document_extractor_ray.functions.textstats import _read_docs

    ds = _read_docs(sf_dir, ["doc_id", "lang"])

    def label(t: pa.Table) -> pa.Table:
        u = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bucket = (_hll_hash(u) % np.uint64(1000)).astype(np.int64)
        split = np.where(
            bucket < SPLIT_TRAIN_PM,
            "train",
            np.where(bucket < SPLIT_VAL_PM, "val", "test"),
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "split": pa.array(split.astype(object), pa.string()),
            }
        )

    return ds.map_batches(label, batch_format="pyarrow").sort("doc_id")


def _split_sql() -> str:
    from document_extractor_ray.functions.sqlhash import _mulmod64

    two32 = 1 << 32

    def xs33(col: str) -> str:
        return (
            f"(({col} // {two32}) * {two32}"
            f" + xor(CAST({col} % {two32} AS BIGINT),"
            f" CAST({col} // {two32} // 2 AS BIGINT))::HUGEINT)"
        )

    return f"""
WITH h0 AS (
  SELECT doc_id, lang,
         (doc_id::HUGEINT + {HLL_SEED}::HUGEINT) % {1 << 64}::HUGEINT AS h
  FROM documents
),
h1 AS (SELECT doc_id, lang, {xs33('h')} AS h FROM h0),
h2 AS (SELECT doc_id, lang, {_mulmod64('h', HLL_C1)} AS h FROM h1),
h3 AS (SELECT doc_id, lang, {xs33('h')} AS h FROM h2),
h4 AS (SELECT doc_id, lang, {_mulmod64('h', HLL_C2)} AS h FROM h3),
h5 AS (SELECT doc_id, lang, {xs33('h')} AS h FROM h4)
SELECT doc_id, lang,
       CASE WHEN h % 1000 < {SPLIT_TRAIN_PM} THEN 'train'
            WHEN h % 1000 < {SPLIT_VAL_PM} THEN 'val'
            ELSE 'test' END AS split
FROM h5
ORDER BY doc_id
"""


TRAIN_VAL_TEST_SPLIT_SQL = _split_sql()


# ---------------------------------------------------------------------------
# Cohort retention (first-activity cohort x week offset)
# ---------------------------------------------------------------------------

_WEEK_US = 7 * 86_400_000_000


def user_retention(sf_dir: str):
    """Cohort retention table: users grouped by FIRST-activity day,
    counted per week offset they return in — the product-analytics
    cohort triangle, which naively is distinct + self-join + distinct
    count.  Distributed as one user-hash shuffle of per-batch-deduped
    (user, day) pairs (wire bounded by distinct user-days): a user's
    whole history co-locates, so cohort day (min), week offsets, and
    the per-(cohort, offset) user counts all fall out of a single
    vectorized partition pass — each user lives in exactly one
    partition, so partial counts add with no double counting, and the
    final grouped Sum merges rows bounded by days x offsets."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    n_parts = _n_blocks()

    def pair_partial(t: pa.Table) -> pa.Table:
        day = pc.cast(pc.floor_temporal(t["ts"], unit="day"), pa.int64())
        pairs = pa.TableGroupBy(
            pa.table({"user_id": t["user_id"], "day": day}), ["user_id", "day"]
        ).aggregate([])
        u = pairs["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (u * np.uint64(2654435761)) & np.uint64(0x7FFFFFFF)
        return pairs.append_column(
            "part", pa.array((h % np.uint64(n_parts)).astype(np.int32))
        )

    def cohort_partial(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "day"])
        cohort = g.groupby("user_id")["day"].transform("min").to_numpy()
        offs = (g["day"].to_numpy() - cohort) // _WEEK_US
        tri = (
            pd.DataFrame(
                {"user_id": g["user_id"].to_numpy(), "cohort": cohort, "off": offs}
            )
            .drop_duplicates()
            .groupby(["cohort", "off"], sort=False)
            .size()
        )
        idx = tri.index.to_frame(index=False)
        # return an ARROW block: a pandas return makes Ray's own
        # pandas->arrow conversion attach dict schema metadata that
        # floods "Failed to hash the schemas" warnings downstream
        return pa.table(
            {
                "cohort_day": pa.array(
                    idx["cohort"].to_numpy().astype("int64"), pa.int64()
                ),
                "week_offset": pa.array(
                    idx["off"].to_numpy().astype("int64"), pa.int64()
                ),
                "n_users": pa.array(tri.to_numpy().astype("int64"), pa.int64()),
            }
        )

    def to_ts(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("cohort_day")
        return t.set_column(
            i, "cohort_day", pc.cast(t["cohort_day"], pa.timestamp("us"))
        )

    return (
        ds.map_batches(pair_partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(cohort_partial, batch_format="pandas")
        .groupby(["cohort_day", "week_offset"])
        .aggregate(Sum("n_users", alias_name="n_users"))
        .map_batches(to_ts, batch_format="pyarrow")
        .sort(["cohort_day", "week_offset"])
        .map_batches(_ts_us("cohort_day"), batch_format="pyarrow")
    )


USER_RETENTION_SQL = """
WITH ud AS (
  SELECT DISTINCT user_id, date_trunc('day', ts) AS day FROM events
),
f AS (SELECT user_id, min(day) AS cohort FROM ud GROUP BY 1)
SELECT f.cohort AS cohort_day,
       CAST(date_diff('day', f.cohort, ud.day) // 7 AS BIGINT) AS week_offset,
       CAST(count(DISTINCT ud.user_id) AS BIGINT) AS n_users
FROM ud JOIN f ON ud.user_id = f.user_id
GROUP BY 1, 2
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Semi-structured (JSON) property extraction + grouped stats
# ---------------------------------------------------------------------------

def props_json_stats(sf_dir: str):
    """Parse the JSON ``props`` column and aggregate the extracted
    integer field per event type — the semi-structured-extraction
    primitive (every web-scale event/crawl table carries a JSON blob
    column).

    The extraction is a single vectorized Arrow kernel
    (``pc.extract_regex`` -> ``struct_field`` -> cast), never a
    per-row ``json.loads`` loop: the fixture blobs are flat
    ``{"k": <int>}`` objects, for which the anchored regex IS the
    grammar.  (A general nested-JSON path would swap this kernel for
    a columnar JSON parser — e.g. pyarrow.json block reads — behind
    the same per-batch contract.)  Each batch pre-combines its own
    (type, count, sum, min, max) partials with one Arrow group_by, so
    the shuffle carries |event types| rows per block regardless of
    event count."""
    ds = _read(sf_dir, "events", columns=["event_type", "props"])

    def partial(t: pa.Table) -> pa.Table:
        m = pc.extract_regex(t["props"], pattern=r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        g = pa.TableGroupBy(
            pa.table({"event_type": t["event_type"], "k": k}), ["event_type"]
        ).aggregate([([], "count_all"), ("k", "sum"), ("k", "min"), ("k", "max")])
        return pa.table(
            {
                "event_type": g["event_type"],
                "n": pc.cast(g["count_all"], pa.int64()),
                "sum_k": pc.cast(g["k_sum"], pa.int64()),
                "min_k": pc.cast(g["k_min"], pa.int64()),
                "max_k": pc.cast(g["k_max"], pa.int64()),
            }
        )

    from ray.data.aggregate import Max, Min

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_k", alias_name="sum_k"),
            Min("min_k", alias_name="min_k"),
            Max("max_k", alias_name="max_k"),
        )
        .sort("event_type")
    )


PROPS_JSON_STATS_SQL = """
SELECT event_type,
       count(*) AS n,
       CAST(sum(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k,
       CAST(min(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS min_k,
       CAST(max(CAST(json_extract_string(props, '$.k') AS BIGINT)) AS BIGINT) AS max_k
FROM events
GROUP BY event_type
ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# Customer-360 full outer join (union + groupby, no join operator)
# ---------------------------------------------------------------------------

def user_activity_360(sf_dir: str):
    """Full-outer merge of per-user event activity with per-customer
    order activity (user_id == o_custkey is the shared entity key):
    every entity present on EITHER side gets one row, missing-side
    measures are zero.

    Scale shape — the union+groupby full outer: neither side is ever
    joined.  Each side pre-aggregates per batch (Arrow group_by, so
    the shuffle carries one row per distinct key per block, not per
    event), pads the other side's measures with zeros, and a single
    grouped Sum merges the union.  One key-hash shuffle total,
    skew-tolerant (hot keys just sum), and structurally symmetric —
    the same plan does left/right/full outer by dropping a side."""
    return user_activity_full(
        _read(sf_dir, "events", columns=["user_id", "value"]),
        _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"]),
    )


def user_activity_full(ev: "ray.data.Dataset", orders: "ray.data.Dataset"):
    """Core of ``user_activity_360`` over explicit datasets (events
    with user_id/value, orders with o_custkey/o_totalprice) — split
    out so tests can plant keys on either side only."""

    def ev_part(t: pa.Table) -> pa.Table:
        # count_all, not ("c","count"): Arrow's value count skips
        # nulls while the oracle's count(*) counts rows
        g = (
            pa.table({"user_id": t["user_id"], "c": _to_cents(t["value"])})
            .group_by("user_id")
            .aggregate([("c", "sum"), ([], "count_all")])
        )
        n = g.num_rows
        z = pa.array(np.zeros(n, np.int64), pa.int64())
        return pa.table(
            {
                "user_id": g["user_id"],
                "n_events": pc.cast(g["count_all"], pa.int64()),
                "events_value_cents": pc.cast(
                    pc.fill_null(g["c_sum"], 0), pa.int64()
                ),
                "n_orders": z,
                "orders_total_cents": z,
            }
        )

    def or_part(t: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {"user_id": t["o_custkey"], "c": _to_cents(t["o_totalprice"])}
            )
            .group_by("user_id")
            .aggregate([("c", "sum"), ([], "count_all")])
        )
        n = g.num_rows
        z = pa.array(np.zeros(n, np.int64), pa.int64())
        return pa.table(
            {
                "user_id": g["user_id"],
                "n_events": z,
                "events_value_cents": z,
                "n_orders": pc.cast(g["count_all"], pa.int64()),
                "orders_total_cents": pc.cast(
                    pc.fill_null(g["c_sum"], 0), pa.int64()
                ),
            }
        )

    from document_extractor_ray.functions.bucketing import bucketed_agg

    return bucketed_agg(
        ev.map_batches(ev_part, batch_format="pyarrow").union(
            orders.map_batches(or_part, batch_format="pyarrow")
        ),
        ["user_id"],
        [
            ("n_events", "sum", "n_events"),
            ("events_value_cents", "sum", "events_value_cents"),
            ("n_orders", "sum", "n_orders"),
            ("orders_total_cents", "sum", "orders_total_cents"),
        ],
    ).sort("user_id")


USER_ACTIVITY_360_SQL = """
WITH e AS (
  SELECT user_id, count(*) AS n_events,
         sum(CAST(round(value * 100.0) AS BIGINT)) AS events_value_cents
  FROM events GROUP BY 1
),
o AS (
  SELECT o_custkey, count(*) AS n_orders,
         sum(CAST(round(o_totalprice * 100.0) AS BIGINT)) AS orders_total_cents
  FROM orders GROUP BY 1
)
SELECT coalesce(e.user_id, o.o_custkey) AS user_id,
       CAST(coalesce(e.n_events, 0) AS BIGINT) AS n_events,
       CAST(coalesce(e.events_value_cents, 0) AS BIGINT) AS events_value_cents,
       CAST(coalesce(o.n_orders, 0) AS BIGINT) AS n_orders,
       CAST(coalesce(o.orders_total_cents, 0) AS BIGINT) AS orders_total_cents
FROM e FULL OUTER JOIN o ON e.user_id = o.o_custkey
ORDER BY user_id
"""


# ---------------------------------------------------------------------------
# Exact grouped median + MAD (robust statistics from one count table)
# ---------------------------------------------------------------------------

def value_mad_by_type(sf_dir: str):
    """Exact per-event_type median and median-absolute-deviation of
    the value in integer cents — the robust location/scale pair
    (Hampel 1974) a quality pipeline uses where outliers poison
    mean/stddev.

    Scale shape: ONE corpus pass builds the (type, cents, n) count
    table (per-batch Arrow group_by partials, one grouped Sum); both
    the median (lower-median rank convention: smallest v with
    2*cum >= n, integer cross-multiplied like the quantile family)
    AND the MAD come from that same table — the deviation
    distribution is a re-fold of the value counts around the median,
    so no second corpus pass exists.  The collected table is
    value-DOMAIN-bounded (cents in a fixed range), not corpus-bounded;
    for unbounded domains swap in the HDR-bucket sketch
    (value_hdr_registers)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table({"event_type": t["event_type"], "v": _to_cents(t["value"])})
            .group_by(["event_type", "v"])
            .aggregate([([], "count_all")])
        )
        return pa.table(
            {
                "event_type": g["event_type"],
                "v": g["v"],
                "n": pc.cast(g["count_all"], pa.int64()),
            }
        )

    from document_extractor_ray.functions.bucketing import bucketed_agg

    counts = (
        bucketed_agg(
            ds.map_batches(partial, batch_format="pyarrow"),
            ["event_type", "v"],
            [("n", "sum", "n")],
        )
        .sort(["event_type", "v"])
        .take_all()
    )

    by_type: dict[str, list] = {}
    for r in counts:
        by_type.setdefault(r["event_type"], []).append((r["v"], r["n"]))

    def _lower_median(vs: np.ndarray, ns: np.ndarray, total: int) -> int:
        cum = np.cumsum(ns)
        idx = int(np.searchsorted(cum * 2, total, side="left"))
        return int(vs[min(idx, len(vs) - 1)])

    types, totals, medians, mads = [], [], [], []
    for et in sorted(by_type):
        vs = np.array([v for v, _ in by_type[et]], np.int64)
        ns = np.array([n for _, n in by_type[et]], np.int64)
        total = int(ns.sum())
        med = _lower_median(vs, ns, total)
        dev = np.abs(vs - med)
        # merge equal deviations (two v map to the same |v - med|);
        # np.unique sorts, so no pre-sort is needed
        uniq, inv = np.unique(dev, return_inverse=True)
        dsum = np.zeros(len(uniq), np.int64)
        np.add.at(dsum, inv, ns)
        mad = _lower_median(uniq, dsum, total)
        types.append(et)
        totals.append(total)
        medians.append(med)
        mads.append(mad)
    return pa.table(
        {
            "event_type": pa.array(types, pa.string()),
            "n": pa.array(totals, pa.int64()),
            "median_cents": pa.array(medians, pa.int64()),
            "mad_cents": pa.array(mads, pa.int64()),
        }
    )


VALUE_MAD_BY_TYPE_SQL = """
WITH c AS (
  SELECT event_type, CAST(round(value * 100.0) AS BIGINT) AS v, count(*) AS n
  FROM events GROUP BY 1, 2
),
tot AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1),
cum AS (
  SELECT event_type, v, sum(n) OVER (PARTITION BY event_type ORDER BY v) AS cumn
  FROM c
),
med AS (
  SELECT tot.event_type,
         (SELECT min(v) FROM cum
           WHERE cum.event_type = tot.event_type AND cum.cumn * 2 >= tot.n) AS m
  FROM tot
),
dev AS (
  SELECT c.event_type, abs(c.v - med.m) AS d, sum(c.n) AS n
  FROM c JOIN med USING (event_type) GROUP BY 1, 2
),
dcum AS (
  SELECT event_type, d, sum(n) OVER (PARTITION BY event_type ORDER BY d) AS cumn
  FROM dev
)
SELECT tot.event_type, tot.n,
       CAST(med.m AS BIGINT) AS median_cents,
       (SELECT CAST(min(d) AS BIGINT) FROM dcum
         WHERE dcum.event_type = tot.event_type AND dcum.cumn * 2 >= tot.n) AS mad_cents
FROM tot JOIN med USING (event_type)
ORDER BY event_type
"""


# ---------------------------------------------------------------------------
# Event-type transition matrix (first-order Markov counts)
# ---------------------------------------------------------------------------

def event_transitions(sf_dir: str):
    """Corpus-wide event-type transition counts: for every user's
    ts-ordered event stream (event_id tie-break), count each
    consecutive (prev_type -> next_type) pair — the first-order Markov
    /funnel matrix behind session-flow analytics.

    Same irreducible plan as the other per-key ordered windows
    (user_lag_gaps): ONE user-hash shuffle co-locates a user's events,
    the whole partition sorts once, the pair extraction is a shifted
    numpy compare masked by user boundaries, and each partition emits
    only its LOCAL (prev, next, n) partial counts — |types|^2-bounded,
    so the final grouped Sum is a trivial second shuffle."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"])
    n_parts = _n_blocks()

    def prep(t: pa.Table) -> pa.Table:
        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (u * np.uint64(2654435761)) & np.uint64(0x7FFFFFFF)
        return t.append_column(
            "part", pa.array((h % np.uint64(n_parts)).astype(np.int32))
        )

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        uid = g["user_id"].to_numpy()
        et = g["event_type"].to_numpy()
        if len(g) < 2:
            return pd.DataFrame(
                {"prev_type": pd.Series([], dtype=str),
                 "next_type": pd.Series([], dtype=str),
                 "n": pd.Series([], dtype="int64")}
            )
        same = uid[1:] == uid[:-1]
        pairs = pd.DataFrame(
            {"prev_type": et[:-1][same], "next_type": et[1:][same]}
        )
        out = pairs.groupby(["prev_type", "next_type"], as_index=False).size()
        return out.rename(columns={"size": "n"}).astype({"n": "int64"})

    return (
        ds.map_batches(prep, batch_format="pyarrow")
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .groupby(["prev_type", "next_type"])
        .aggregate(Sum("n", alias_name="n"))
        .sort(["prev_type", "next_type"])
    )


EVENT_TRANSITIONS_SQL = """
WITH s AS (
  SELECT event_type,
         lag(event_type) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev
  FROM events
)
SELECT prev AS prev_type, event_type AS next_type, CAST(count(*) AS BIGINT) AS n
FROM s WHERE prev IS NOT NULL
GROUP BY 1, 2
ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Sliding-window distinct users (sliding + exact distinct composition)
# ---------------------------------------------------------------------------

def sliding_7d_users(sf_dir: str):
    """Exact distinct users per trailing 7-day window — the DAU/WAU
    rollup: for every window-end day, how many distinct users were
    active in [end-6, end].

    Composition of the two established shapes: each batch dedups its
    (day, user) pairs with one Arrow group-by (combiner — a user's
    many events per block shuffle once), the window explode fans each
    pair to its 7 window ends (shuffle-free, like events_sliding_7d),
    global distinctness comes from one groupby(window_end, user_id),
    and per-batch partial counts + a tiny second groupby finish —
    the wide shuffle carries at most 7 x |user-days|, never events."""
    from datetime import timedelta

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def explode_pairs(t: pa.Table) -> pa.Table:
        day = pc.floor_temporal(t["ts"], unit="day")
        g = pa.TableGroupBy(
            pa.table({"day": day, "user_id": t["user_id"]}), ["day", "user_id"]
        ).aggregate([([], "count_all")])
        parts = [
            pa.table(
                {
                    "window_end": pc.add(g["day"], pa.scalar(timedelta(days=k))),
                    "user_id": g["user_id"],
                }
            )
            for k in range(7)
        ]
        return pa.concat_tables(parts)

    from document_extractor_ray.functions.bucketing import bucketed_agg

    pairs = bucketed_agg(
        ds.map_batches(explode_pairs, batch_format="pyarrow"),
        ["window_end", "user_id"],
        [(None, "count", "_dup")],
    )

    def end_partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t.select(["window_end"]), ["window_end"]).aggregate(
            [([], "count_all")]
        )
        return pa.table(
            {
                "window_end": g["window_end"],
                "n_users": pc.cast(g["count_all"], pa.int64()),
            }
        )

    return (
        pairs.map_batches(end_partial, batch_format="pyarrow")
        .groupby("window_end")
        .aggregate(Sum("n_users", alias_name="n_users"))
        .sort("window_end")
        .map_batches(_ts_us("window_end"), batch_format="pyarrow")
    )


SLIDING_7D_USERS_SQL = """
WITH du AS (SELECT DISTINCT date_trunc('day', ts) AS day, user_id FROM events),
wnd AS (
  SELECT day + to_days(CAST(t.k AS INTEGER)) AS window_end, user_id
  FROM du, range(0, 7) AS t(k)
)
SELECT window_end, CAST(count(DISTINCT user_id) AS BIGINT) AS n_users
FROM wnd GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Robust outlier filter: |x - median| > K * MAD, all-integer
# ---------------------------------------------------------------------------

OUTLIER_K = 5


def value_outliers(sf_dir: str, k_mad: int = OUTLIER_K):
    """Events whose value is a robust outlier within its event_type:
    |cents - median| > k * MAD (the Hampel identifier with the
    classic k=5 cut) — the filter stage the robust statistics exist
    for, and unlike z-scores it is ALL-INTEGER, so the oracle is
    bit-exact with no float margin audit.

    Scale shape: the (type, median, mad) table comes from the same
    one-pass count-table fold as value_mad_by_type (value-domain-
    bounded), broadcasts once as a tiny Arrow dim, and the filter is a
    vectorized index_in + take + compare per batch — the corpus
    streams, nothing wide shuffles."""
    from document_extractor_ray import state

    mad_tbl = value_mad_by_type(sf_dir)
    ref = state.broadcast(mad_tbl)

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def flag(t: pa.Table) -> pa.Table:
        dim = state.cached_get(ref)
        cents = _to_cents(t["value"])
        idx = pc.index_in(t["event_type"], value_set=dim["event_type"])
        med = pc.take(dim["median_cents"], idx)
        mad = pc.take(dim["mad_cents"], idx)
        dev = pc.abs(pc.subtract(cents, med))
        keep = pc.greater(dev, pc.multiply(mad, k_mad))
        out = pa.table(
            {
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "cents": cents,
                "abs_dev": dev,
            }
        )
        return out.filter(keep)

    return ds.map_batches(flag, batch_format="pyarrow").sort("event_id")


VALUE_OUTLIERS_SQL = f"""
WITH c AS (
  SELECT event_type, CAST(round(value * 100.0) AS BIGINT) AS v, count(*) AS n
  FROM events GROUP BY 1, 2
),
tot AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n FROM events GROUP BY 1),
cum AS (
  SELECT event_type, v, sum(n) OVER (PARTITION BY event_type ORDER BY v) AS cumn
  FROM c
),
med AS (
  SELECT tot.event_type,
         (SELECT min(v) FROM cum
           WHERE cum.event_type = tot.event_type AND cum.cumn * 2 >= tot.n) AS m
  FROM tot
),
dev AS (
  SELECT c.event_type, abs(c.v - med.m) AS d, sum(c.n) AS n
  FROM c JOIN med USING (event_type) GROUP BY 1, 2
),
dcum AS (
  SELECT event_type, d, sum(n) OVER (PARTITION BY event_type ORDER BY d) AS cumn
  FROM dev
),
madt AS (
  SELECT tot.event_type, med.m,
         (SELECT min(d) FROM dcum
           WHERE dcum.event_type = tot.event_type AND dcum.cumn * 2 >= tot.n) AS mad
  FROM tot JOIN med USING (event_type)
)
SELECT e.event_id, e.event_type,
       CAST(round(e.value * 100.0) AS BIGINT) AS cents,
       CAST(abs(CAST(round(e.value * 100.0) AS BIGINT) - madt.m) AS BIGINT) AS abs_dev
FROM events e JOIN madt USING (event_type)
WHERE abs(CAST(round(e.value * 100.0) AS BIGINT) - madt.m) > {OUTLIER_K} * madt.mad
ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# Ordered-stage funnel conversion (view -> click -> purchase)
# ---------------------------------------------------------------------------

FUNNEL_STAGES = ("view", "click", "purchase")
FUNNEL_WINDOW_US = 86_400_000_000  # stage i+1 must land within 1 day of stage i


def funnel_counts(sf_dir: str):
    """Funnel conversion: how many users reached each stage in ORDER —
    stage i+1 counts a user only if they fired that event type
    STRICTLY AFTER their stage-i entry time and within the 1-day
    conversion window (entry = earliest qualifying event).  The
    product-analytics primitive behind conversion dashboards.

    Sequential semantics per user, so it shuffles once on a hash
    bucket of user_id (the sessionize plan — a user's events
    co-locate, partitions stay balanced); inside a partition the whole
    stage walk is len(FUNNEL_STAGES) vectorized groupby-min passes
    (each stage's threshold Series reindexes onto the next stage's
    candidate rows — NaT thresholds auto-exclude users who never
    reached the prior stage).  The partial per partition is one row
    per stage, so the final aggregate is a 3-key Sum — nothing
    key-per-row ever leaves a partition."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    n_parts = _n_blocks()

    def add_bucket(t: pa.Table) -> pa.Table:
        h = pc.bit_wise_and(
            pc.multiply(
                pc.cast(t["user_id"], pa.int64()), pa.scalar(2654435761, pa.int64())
            ),
            pa.scalar(0x7FFFFFFF, pa.int64()),
        )
        part = pc.cast(
            pc.subtract(h, pc.multiply(pc.divide(h, n_parts), n_parts)), pa.int32()
        )
        return t.append_column("part", part)

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        reached = []
        prev = None  # user_id -> entry ts of the previous stage
        for stage in FUNNEL_STAGES:
            sub = g[g["event_type"] == stage]
            if prev is not None:
                thr = prev.reindex(sub["user_id"]).to_numpy()
                ts = sub["ts"].to_numpy()
                # NaT threshold (user never reached prior stage) or
                # no in-window strictly-later event both compare False.
                sub = sub[
                    (ts > thr)
                    & (ts <= thr + np.timedelta64(FUNNEL_WINDOW_US, "us"))
                ]
            prev = sub.groupby("user_id", sort=False)["ts"].min()
            reached.append(len(prev))
        return pd.DataFrame(
            {
                "stage_idx": np.arange(len(FUNNEL_STAGES), dtype=np.int64),
                "users": np.asarray(reached, dtype=np.int64),
            }
        )

    stage_names = pa.array(list(FUNNEL_STAGES), pa.string())

    def attach_name(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "stage_idx" not in t.column_names:
            # Ray 2.49 hash aggregates can emit empty blocks with an
            # EMPTY schema (CLAUDE.md trap) — normalize them.
            return pa.table(
                {
                    "stage_idx": pa.array([], pa.int64()),
                    "stage": pa.array([], pa.string()),
                    "users": pa.array([], pa.int64()),
                }
            )
        return pa.table(
            {
                "stage_idx": t["stage_idx"],
                "stage": stage_names.take(pc.cast(t["stage_idx"], pa.int32())),
                "users": t["users"],
            }
        )

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .groupby("stage_idx")
        .aggregate(Sum("users", alias_name="users"))
        .map_batches(attach_name, batch_format="pyarrow")
        .sort("stage_idx")
    )


FUNNEL_COUNTS_SQL = f"""
WITH s0 AS (
  SELECT user_id, min(ts) AS t FROM events
  WHERE event_type = '{FUNNEL_STAGES[0]}' GROUP BY user_id
),
s1 AS (
  SELECT e.user_id, min(e.ts) AS t
  FROM events e JOIN s0 ON s0.user_id = e.user_id
  WHERE e.event_type = '{FUNNEL_STAGES[1]}' AND e.ts > s0.t
    AND e.ts <= s0.t + to_microseconds({FUNNEL_WINDOW_US}::BIGINT)
  GROUP BY e.user_id
),
s2 AS (
  SELECT e.user_id, min(e.ts) AS t
  FROM events e JOIN s1 ON s1.user_id = e.user_id
  WHERE e.event_type = '{FUNNEL_STAGES[2]}' AND e.ts > s1.t
    AND e.ts <= s1.t + to_microseconds({FUNNEL_WINDOW_US}::BIGINT)
  GROUP BY e.user_id
)
SELECT * FROM (
  SELECT CAST(0 AS BIGINT) AS stage_idx, '{FUNNEL_STAGES[0]}' AS stage,
         (SELECT CAST(count(*) AS BIGINT) FROM s0) AS users
  UNION ALL
  SELECT CAST(1 AS BIGINT), '{FUNNEL_STAGES[1]}',
         (SELECT CAST(count(*) AS BIGINT) FROM s1)
  UNION ALL
  SELECT CAST(2 AS BIGINT), '{FUNNEL_STAGES[2]}',
         (SELECT CAST(count(*) AS BIGINT) FROM s2)
)
ORDER BY stage_idx
"""


# ---------------------------------------------------------------------------
# Promo revenue ratio per ship month (TPC-H Q14 shape; uses the part dim)
# ---------------------------------------------------------------------------

def promo_revenue_monthly(sf_dir: str):
    """Monthly promo-revenue share: lineitem joined to the part dim,
    revenue split by whether p_type is a PROMO part, ratio in exact
    permille — the TPC-H Q14 shape.

    Money stays integer end to end: revenue per line is
    cents(extendedprice) * (1000 - permille(discount)) — one exact
    int64 "milli-cent" product — so sums and the final ratio are
    bit-reproducible under any association order.  The part dim
    broadcasts once via ray.put (p_partkey -> promo flag; ~9 bytes a
    row, so the documented broadcast ceiling is ~10^8 parts — above
    that, swap the attach for the partitioned hash join used by
    order_revenue_by_nation).  Per batch the attach is index_in +
    take, the partial is an Arrow group_by over ship months, and the
    shuffle carries (month, 2 sums) partials — months are bounded, so
    the final aggregate is a native Sum."""
    from ray.data.aggregate import Sum

    import pyarrow.parquet as pq

    from document_extractor_ray import state

    li = _read(
        sf_dir,
        "lineitem",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    dim = pa.table(
        {
            "p_partkey": part["p_partkey"],
            "is_promo": pc.cast(
                pc.starts_with(part["p_type"], "PROMO"), pa.int64()
            ),
        }
    )
    ref = state.broadcast(dim)

    def partial(t: pa.Table) -> pa.Table:
        t = state.lookup_join(
            t, "l_partkey", state.cached_get(ref), "p_partkey", ["is_promo"], fill=0
        )
        rev_mc = pc.multiply(
            _to_cents(t["l_extendedprice"]),
            pc.subtract(
                pa.scalar(1000, pa.int64()),
                pc.cast(
                    pc.round(
                        pc.multiply(t["l_discount"], 1000.0),
                        round_mode="half_towards_infinity",
                    ),
                    pa.int64(),
                ),
            ),
        )
        month = pc.floor_temporal(t["l_shipdate"], unit="month")
        g = pa.TableGroupBy(
            pa.table(
                {
                    "month": month,
                    "promo_mc": pc.multiply(rev_mc, pc.cast(t["is_promo"], pa.int64())),
                    "total_mc": rev_mc,
                }
            ),
            ["month"],
        ).aggregate([("promo_mc", "sum"), ("total_mc", "sum")])
        return g.rename_columns(["month", "promo_mc", "total_mc"])

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "month": pc.cast(t["month"], pa.timestamp("us")),
                "promo_mc": t["promo_mc"],
                "total_mc": t["total_mc"],
                "promo_permille": pc.divide(
                    pc.multiply(t["promo_mc"], pa.scalar(1000, pa.int64())),
                    t["total_mc"],
                ),
            }
        )

    return (
        li.map_batches(partial, batch_format="pyarrow")
        .groupby("month")
        .aggregate(
            Sum("promo_mc", alias_name="promo_mc"),
            Sum("total_mc", alias_name="total_mc"),
        )
        .map_batches(finish, batch_format="pyarrow")
        .sort("month")
    )


PROMO_REVENUE_MONTHLY_SQL = """
WITH li AS (
  SELECT CAST(date_trunc('month', l.l_shipdate) AS TIMESTAMP) AS month,
         CAST(round(l.l_extendedprice * 100.0) AS BIGINT)
           * (1000 - CAST(round(l.l_discount * 1000.0) AS BIGINT)) AS rev_mc,
         CASE WHEN p.p_type LIKE 'PROMO%' THEN 1 ELSE 0 END AS is_promo
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
)
SELECT month,
       CAST(sum(rev_mc * is_promo) AS BIGINT) AS promo_mc,
       CAST(sum(rev_mc) AS BIGINT) AS total_mc,
       CAST((1000 * sum(rev_mc * is_promo)) // sum(rev_mc) AS BIGINT) AS promo_permille
FROM li
GROUP BY month
ORDER BY month
"""


# ---------------------------------------------------------------------------
# Two-sample Kolmogorov-Smirnov distance between event-type value dists
# ---------------------------------------------------------------------------

KS_TYPE_A = "click"
KS_TYPE_B = "purchase"


def value_ks_types(sf_dir: str, type_a: str = KS_TYPE_A, type_b: str = KS_TYPE_B):
    """Exact two-sample KS statistic between the value distributions
    of two event types — the drift / A-B-sameness test, all integer:
    with per-type counts folded per distinct cents value, D * n_a *
    n_b = max_v |cumsum_a(v) * n_b - cumsum_b(v) * n_a| needs no
    floats, so the oracle is bit-exact (ks_num fits int64 up to ~3e9
    rows per side; the SQL side computes in HUGEINT regardless).

    Distributed shape: one filtered pass pre-counts (cents, side)
    per batch, a bucketed aggregate folds the distinct-value table
    (value-domain-bounded, NOT row-bounded), and the ordered cumsum
    scan runs in ONE task over that small table — the same
    counts-table fold the median/MAD family uses; for an unbounded
    value domain, range-partition the cents axis and prefix-sum the
    per-partition totals (the value_hdr escalation)."""
    from document_extractor_ray.functions.bucketing import bucketed_agg

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.is_in(t["event_type"], value_set=pa.array([type_a, type_b]))
        )
        g = pa.TableGroupBy(
            pa.table(
                {
                    "cents": _to_cents(t["value"]),
                    "isb": pc.cast(pc.equal(t["event_type"], type_b), pa.int64()),
                }
            ),
            ["cents", "isb"],
        ).aggregate([([], "count_all")])
        return pa.table(
            {
                "cents": g["cents"],
                "isb": g["isb"],
                "n": pc.cast(g["count_all"], pa.int64()),
            }
        )

    def resolve(t: pa.Table) -> pa.Table:
        cents = t["cents"].to_numpy(zero_copy_only=False)
        isb = t["isb"].to_numpy(zero_copy_only=False)
        n = t["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((isb, cents))
        cents, isb, n = cents[order], isb[order], n[order]
        na, nb = int(n[isb == 0].sum()), int(n[isb == 1].sum())
        # one row per distinct cents: cumulative counts of each side
        uniq, start = np.unique(cents, return_index=True)
        ca = np.cumsum(np.where(isb == 0, n, 0))
        cb = np.cumsum(np.where(isb == 1, n, 0))
        end = np.append(start[1:], len(cents)) - 1  # last row per value
        dv = np.abs(ca[end] * nb - cb[end] * na)
        best = int(dv.max()) if len(dv) else 0
        at = int(uniq[dv.argmax()]) if len(dv) else 0
        permille = 1000 * best // (na * nb) if na and nb else 0
        return pa.table(
            {
                "n_a": pa.array([na], pa.int64()),
                "n_b": pa.array([nb], pa.int64()),
                "ks_num": pa.array([best], pa.int64()),
                "at_cents": pa.array([at], pa.int64()),
                "ks_permille": pa.array([permille], pa.int64()),
            }
        )

    # the (cents, isb) key is value-domain-bounded -> bucketed partial
    # fold, then ONE ordered scan (groupby on the constant part)
    folded = bucketed_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["cents", "isb"],
        [("n", "sum", "n")],
    )

    def add_part(t: pa.Table) -> pa.Table:
        return t.append_column(
            "part", pa.array(np.zeros(t.num_rows, np.int32), pa.int32())
        )

    def resolve_part(t: pa.Table) -> pa.Table:
        return resolve(t.drop_columns(["part"]))

    return (
        folded.map_batches(add_part, batch_format="pyarrow")
        .groupby("part")
        .map_groups(resolve_part, batch_format="pyarrow")
    )


VALUE_KS_TYPES_SQL = f"""
WITH e AS (
  SELECT event_type, CAST(round(value * 100.0) AS BIGINT) AS cents
  FROM events WHERE event_type IN ('{KS_TYPE_A}', '{KS_TYPE_B}')
),
c AS (
  SELECT cents,
         CAST(sum(CASE WHEN event_type = '{KS_TYPE_A}' THEN 1 ELSE 0 END) AS BIGINT) AS na_v,
         CAST(sum(CASE WHEN event_type = '{KS_TYPE_B}' THEN 1 ELSE 0 END) AS BIGINT) AS nb_v
  FROM e GROUP BY cents
),
t AS (
  SELECT CAST(sum(na_v) AS BIGINT) AS na, CAST(sum(nb_v) AS BIGINT) AS nb FROM c
),
cum AS (
  SELECT cents,
         sum(na_v) OVER (ORDER BY cents) AS ca,
         sum(nb_v) OVER (ORDER BY cents) AS cb
  FROM c
),
d AS (SELECT cents, abs(ca * t.nb - cb * t.na) AS dv FROM cum, t)
SELECT t.na AS n_a, t.nb AS n_b,
       CAST((SELECT max(dv) FROM d) AS BIGINT) AS ks_num,
       CAST((SELECT min(cents) FROM d WHERE dv = (SELECT max(dv) FROM d))
            AS BIGINT) AS at_cents,
       CAST(1000 * (SELECT max(dv) FROM d) // (t.na * t.nb) AS BIGINT)
         AS ks_permille
FROM t
"""


# ---------------------------------------------------------------------------
# Orders-with-returned-lines counts by priority (TPC-H Q4 shape)
# ---------------------------------------------------------------------------

RETURNED_SEMI_BROADCAST_LIMIT = 5_000_000


def returned_orders_by_priority(sf_dir: str):
    """Order counts per priority restricted to orders having >= 1
    returned lineitem — the EXISTS / semi-join aggregate (TPC-H Q4's
    shape; the reference has no joins at all, SURVEY §2.5, so this is
    engine surface beyond it).

    Distributed shape: the inner side reduces to DISTINCT orderkeys
    FIRST (per-batch unique, then a bucketed distinct fold — the
    shuffle carries unique keys, never lineitem rows), and the probe
    is a broadcast `is_in` mask over orders below
    RETURNED_SEMI_BROADCAST_LIMIT keys; above the budget the same
    probe runs as a partitioned inner join on o_orderkey against the
    distinct-key Dataset (the customers_without_orders escalation).
    The final groupby has 5 bounded keys — plain Ray aggregate."""
    from document_extractor_ray import state
    from document_extractor_ray.functions.bucketing import bucketed_agg

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_returnflag"])

    def returned_keys(t: pa.Table) -> pa.Table:
        f = t.filter(pc.equal(t["l_returnflag"], "R"))
        return pa.table({"l_orderkey": pc.unique(f["l_orderkey"])})

    distinct = bucketed_agg(
        li.map_batches(returned_keys, batch_format="pyarrow"),
        ["l_orderkey"],
        [(None, "count", "_n")],
    )

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    n_keys = distinct.count()
    if n_keys <= RETURNED_SEMI_BROADCAST_LIMIT:
        keys = pa.array(distinct.to_pandas()["l_orderkey"].to_numpy(), pa.int64())
        ref = state.broadcast(keys)

        def semi(t: pa.Table) -> pa.Table:
            have = state.cached_get(ref)
            return t.filter(pc.is_in(t["o_orderkey"], value_set=have))

        hits = orders.map_batches(semi, batch_format="pyarrow")
    else:  # pragma: no cover - exercised via broadcast_limit override in tests
        hits = orders.join(
            distinct.select_columns(["l_orderkey"]),
            join_type="inner",
            num_partitions=_join_partitions(
                f"{sf_dir}/orders.parquet", f"{sf_dir}/lineitem.parquet"
            ),
            on=("o_orderkey",),
            right_on=("l_orderkey",),
        )

    return (
        hits.groupby("o_orderpriority")
        .aggregate(Count(alias_name="n_orders"))
        .sort("o_orderpriority")
    )


RETURNED_ORDERS_BY_PRIORITY_SQL = """
SELECT o_orderpriority, count(*) AS n_orders
FROM orders o
WHERE EXISTS (SELECT 1 FROM lineitem l
              WHERE l.l_orderkey = o.o_orderkey AND l.l_returnflag = 'R')
GROUP BY o_orderpriority
ORDER BY o_orderpriority
"""


# ---------------------------------------------------------------------------
# Top customers by returned-item revenue (TPC-H Q10 shape)
# ---------------------------------------------------------------------------

RETURNED_REVENUE_TOP_K = 20


def returned_revenue_topk(sf_dir: str, k: int = RETURNED_REVENUE_TOP_K):
    """Top-k customers by revenue on RETURNED items (TPC-H Q10's
    shape): filtered fact x fact partitioned hash join (lineitem
    filtered to returnflag='R' joined to orders on orderkey), a
    customer-keyed revenue aggregate (key cardinality grows with
    data -> bucketed fold, PERF 20-22), a global top-k, then the
    name/nation dims attach to only the k winners.

    Money: revenue = extendedprice * (1 - discount) rounded
    half-away-from-zero to integer cents per line BEFORE summing, so
    the DuckDB oracle reproduces the total bit for bit.

    Scale notes: the join ships only (orderkey, cents) on the probe
    side and (orderkey, custkey) on the build side; the dim attach
    reads the customer/nation parquet with an `is_in` filter on k=20
    keys (row-group pruned, never a scan of the dim at 100 TB)."""
    from document_extractor_ray.functions.bucketing import bucketed_agg

    li = _read(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_returnflag"],
    )

    def slim(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["l_returnflag"], "R"))
        # aggregate BELOW the join: per-batch per-orderkey partial sums
        # shrink the probe side from lines to orders before any shuffle
        # (at sf0.1 the join's fixed cost dominates either way; at 10^12
        # lines this is the difference between shuffling lines and
        # shuffling orders; exactness unaffected — the per-LINE cents
        # rounding happens first, the sum is associative)
        g = pa.TableGroupBy(
            pa.table(
                {
                    "l_orderkey": t["l_orderkey"],
                    "cents": _to_cents(
                        pc.multiply(
                            t["l_extendedprice"], pc.subtract(1.0, t["l_discount"])
                        )
                    ),
                }
            ),
            ["l_orderkey"],
        ).aggregate([("cents", "sum")])
        return pa.table(
            {"l_orderkey": g["l_orderkey"], "cents": g["cents_sum"]}
        )

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    joined = li.map_batches(slim, batch_format="pyarrow").join(
        orders,
        join_type="inner",
        num_partitions=_join_partitions(
            f"{sf_dir}/lineitem.parquet", f"{sf_dir}/orders.parquet"
        ),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )

    per_cust = bucketed_agg(
        joined.select_columns(["o_custkey", "cents"]),
        ["o_custkey"],
        [("cents", "sum", "revenue_cents")],
    )
    top = (
        per_cust.sort(["revenue_cents", "o_custkey"], descending=[True, False])
        .limit(k)
        .take_all()
    )

    import pyarrow.parquet as pq

    keys = [r["o_custkey"] for r in top]
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
        filters=[("c_custkey", "in", keys)] if keys else None,
    )
    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    cmap = {
        int(ck): (cn, int(nk))
        for ck, cn, nk in zip(
            cust["c_custkey"].to_pylist(),
            cust["c_name"].to_pylist(),
            cust["c_nationkey"].to_pylist(),
        )
    }
    nmap = dict(
        zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
    )
    return pa.table(
        {
            "c_custkey": pa.array([r["o_custkey"] for r in top], pa.int64()),
            "c_name": pa.array(
                [cmap[r["o_custkey"]][0] for r in top], pa.string()
            ),
            "n_name": pa.array(
                [nmap[cmap[r["o_custkey"]][1]] for r in top], pa.string()
            ),
            "revenue_cents": pa.array(
                [r["revenue_cents"] for r in top], pa.int64()
            ),
        }
    )


RETURNED_REVENUE_TOPK_SQL = f"""
WITH rev AS (
  SELECT o.o_custkey,
         CAST(sum(CAST(round(l.l_extendedprice * (1.0 - l.l_discount) * 100.0)
                       AS BIGINT)) AS BIGINT) AS revenue_cents
  FROM lineitem l
  JOIN orders o ON o.o_orderkey = l.l_orderkey
  WHERE l.l_returnflag = 'R'
  GROUP BY o.o_custkey
  ORDER BY revenue_cents DESC, o.o_custkey
  LIMIT {RETURNED_REVENUE_TOP_K}
)
SELECT c.c_custkey, c.c_name, n.n_name, rev.revenue_cents
FROM rev
JOIN customer c ON c.c_custkey = rev.o_custkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
ORDER BY rev.revenue_cents DESC, c.c_custkey
"""


# ---------------------------------------------------------------------------
# Year-over-year revenue per nation (windowed join aggregate)
# ---------------------------------------------------------------------------

def nation_yoy_revenue(sf_dir: str):
    """Revenue per (nation, order year) with the year-over-year delta
    — the lag-window-over-a-join report.  Reuses the
    order_revenue_by_nation partitioned join; the aggregate keys
    (nation x year) are BOUNDED (25 x ~7), so Ray's hash aggregate is
    fine, and the lag pass runs vectorized in ONE task over the tiny
    aggregate (first year per nation gets a NULL delta, matching SQL
    lag())."""
    from document_extractor_ray import state

    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice", "o_orderdate"])
    cust = _read(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])

    def slim(t: pa.Table) -> pa.Table:
        # aggregate BELOW the join: (custkey, yr) partials collapse
        # the order rows of a customer-year before the shuffle
        g = pa.TableGroupBy(
            pa.table(
                {
                    "o_custkey": t["o_custkey"],
                    "yr": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
                    "cents": _to_cents(t["o_totalprice"]),
                }
            ),
            ["o_custkey", "yr"],
        ).aggregate([("cents", "sum")])
        return pa.table(
            {"o_custkey": g["o_custkey"], "yr": g["yr"], "cents": g["cents_sum"]}
        )

    joined = orders.map_batches(slim, batch_format="pyarrow").join(
        cust,
        join_type="inner",
        num_partitions=_join_partitions(
            f"{sf_dir}/orders.parquet", f"{sf_dir}/customer.parquet"
        ),
        on=("o_custkey",),
        right_on=("c_custkey",),
    )
    per = joined.groupby(["c_nationkey", "yr"]).aggregate(
        Sum("cents", alias_name="revenue_cents")
    )

    import pyarrow.parquet as pq

    nation = pq.read_table(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"])
    ref = state.broadcast(nation)

    def attach(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "c_nationkey" not in t.column_names:
            return pa.table(
                {
                    "n_name": pa.array([], pa.string()),
                    "yr": pa.array([], pa.int64()),
                    "revenue_cents": pa.array([], pa.int64()),
                    "part": pa.array([], pa.int32()),
                }
            )
        t = state.lookup_join(
            t, "c_nationkey", state.cached_get(ref), "n_nationkey",
            ["n_name"], fill="",
        )
        t = t.select(["n_name", "yr", "revenue_cents"])
        return t.append_column(
            "part", pa.array(np.zeros(t.num_rows, np.int32), pa.int32())
        )

    def lag_pass(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["part"])
        order = np.lexsort(
            (
                t["yr"].to_numpy(zero_copy_only=False),
                t["n_name"].to_numpy(zero_copy_only=False),
            )
        )
        t = t.take(pa.array(order))
        names = t["n_name"].to_numpy(zero_copy_only=False)
        rev = t["revenue_cents"].to_numpy(zero_copy_only=False)
        same = np.zeros(len(names), bool)
        if len(names) > 1:
            same[1:] = names[1:] == names[:-1]
        delta = np.where(same, rev - np.roll(rev, 1), 0)
        return pa.table(
            {
                "n_name": t["n_name"],
                "yr": t["yr"],
                "revenue_cents": t["revenue_cents"],
                "delta_cents": pa.array(delta, pa.int64(), mask=~same),
            }
        )

    return (
        per.map_batches(attach, batch_format="pyarrow")
        .groupby("part")
        .map_groups(lag_pass, batch_format="pyarrow")
    )


NATION_YOY_REVENUE_SQL = """
WITH per AS (
  SELECT n.n_name, CAST(year(o.o_orderdate) AS BIGINT) AS yr,
         CAST(sum(CAST(round(o.o_totalprice * 100.0) AS BIGINT)) AS BIGINT)
           AS revenue_cents
  FROM orders o
  JOIN customer c ON c.c_custkey = o.o_custkey
  JOIN nation n ON n.n_nationkey = c.c_nationkey
  GROUP BY n.n_name, yr
)
SELECT n_name, yr, revenue_cents,
       CAST(revenue_cents - lag(revenue_cents) OVER (
             PARTITION BY n_name ORDER BY yr) AS BIGINT) AS delta_cents
FROM per
ORDER BY n_name, yr
"""


# ---------------------------------------------------------------------------
# Per-part top supplier by shipped quantity (grouped argmax over a join-free
# fact aggregate)
# ---------------------------------------------------------------------------

def part_top_supplier(sf_dir: str):
    """For every part, the supplier that shipped the most of it
    (ties -> lower suppkey) — the grouped-argmax primitive.  Part keys
    grow with the catalog, so BOTH folds are hash-bucketed by
    l_partkey (PERF 20-22): fold 1 merges per-batch (part, supplier)
    quantity partials; because the bucket key is the PART, every
    supplier row of a part lands in the same partition, and the
    argmax is one vectorized lexsort + first-occurrence pass per
    PARTITION — never per part.  Quantities sum as integer
    centi-units so the oracle is exact."""
    from document_extractor_ray.functions.bucketing import key_part_column, n_shuffle_parts

    ds = _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey", "l_quantity"])
    n_parts = n_shuffle_parts()

    def partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(
            pa.table(
                {
                    "l_partkey": t["l_partkey"],
                    "l_suppkey": t["l_suppkey"],
                    "qc": _to_cents(t["l_quantity"]),
                }
            ),
            ["l_partkey", "l_suppkey"],
        ).aggregate([("qc", "sum")])
        out = pa.table(
            {
                "l_partkey": g["l_partkey"],
                "l_suppkey": g["l_suppkey"],
                "qc": g["qc_sum"],
            }
        )
        return out.append_column(
            "part", key_part_column(out, ["l_partkey"], n_parts)
        )

    def argmax_part(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["part"])
        g = pa.TableGroupBy(t, ["l_partkey", "l_suppkey"]).aggregate([("qc", "sum")])
        pk = g["l_partkey"].to_numpy(zero_copy_only=False)
        sk = g["l_suppkey"].to_numpy(zero_copy_only=False)
        qc = g["qc_sum"].to_numpy(zero_copy_only=False)
        # sort (part asc, qty desc, supp asc); first row per part wins
        order = np.lexsort((sk, -qc, pk))
        pk, sk, qc = pk[order], sk[order], qc[order]
        first = np.ones(len(pk), bool)
        if len(pk) > 1:
            first[1:] = pk[1:] != pk[:-1]
        return pa.table(
            {
                "l_partkey": pa.array(pk[first], pa.int64()),
                "top_suppkey": pa.array(sk[first], pa.int64()),
                "qty_cents": pa.array(qc[first], pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("part")
        .map_groups(argmax_part, batch_format="pyarrow")
        .sort("l_partkey")
    )


PART_TOP_SUPPLIER_SQL = """
WITH per AS (
  SELECT l_partkey, l_suppkey,
         CAST(sum(CAST(round(l_quantity * 100.0) AS BIGINT)) AS BIGINT) AS qty_cents
  FROM lineitem
  GROUP BY l_partkey, l_suppkey
),
r AS (
  SELECT l_partkey, l_suppkey, qty_cents,
         row_number() OVER (PARTITION BY l_partkey
                            ORDER BY qty_cents DESC, l_suppkey) AS rk
  FROM per
)
SELECT l_partkey, l_suppkey AS top_suppkey, qty_cents
FROM r WHERE rk = 1
ORDER BY l_partkey
"""


# ---------------------------------------------------------------------------
# Per-session attribute table (sessionize with boundaries + durations)
# ---------------------------------------------------------------------------

def session_stats(sf_dir: str):
    """One row per (user, session): 1-based session id, event count
    and span in microseconds, with the same 30-minute inactivity gap
    as `sessionize`.  The windowed-session ATTRIBUTE table (sessionize
    only counts sessions) — the thing downstream funnel/engagement
    reports join against.

    Same shuffle shape as sessionize (PERF.md): one hash-bucket
    shuffle of user_id into ~CPU partitions, then per PARTITION a
    single vectorized pandas pass (sort, gap diff, cumsum session
    ids, one groupby agg) — never per-user Python.  Equal-timestamp
    events cannot diverge from the SQL window: a 0-gap never starts
    a session and min/max/count are permutation-invariant."""
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    n_parts = _n_blocks()

    def add_bucket(t: pa.Table) -> pa.Table:
        h = pc.bit_wise_and(
            pc.multiply(
                pc.cast(t["user_id"], pa.int64()), pa.scalar(2654435761, pa.int64())
            ),
            pa.scalar(0x7FFFFFFF, pa.int64()),
        )
        part = pc.cast(
            pc.subtract(h, pc.multiply(pc.divide(h, n_parts), n_parts)), pa.int32()
        )
        return t.append_column("part", part)

    def per_partition(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        prev = g.groupby("user_id", sort=False)["ts"].diff()
        starts = prev.isna() | (prev.dt.total_seconds() > SESSION_GAP_S)
        sid = starts.groupby(g["user_id"], sort=False).cumsum().astype(np.int64)
        grp = g.assign(session_id=sid).groupby(
            ["user_id", "session_id"], sort=True
        )["ts"]
        agg = grp.agg(["size", "min", "max"]).reset_index()
        dur = (
            (agg["max"].to_numpy() - agg["min"].to_numpy())
            // np.timedelta64(1, "us")
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "user_id": agg["user_id"].to_numpy(),
                "session_id": agg["session_id"].to_numpy(),
                "n_events": agg["size"].to_numpy().astype(np.int64),
                "duration_us": dur,
            }
        )

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("part")
        .map_groups(per_partition, batch_format="pandas")
        .sort(["user_id", "session_id"])
    )


SESSION_STATS_SQL = f"""
WITH g AS (
  SELECT user_id, ts,
         CASE WHEN lag(ts) OVER w IS NULL
                   OR epoch(ts - lag(ts) OVER w) > {SESSION_GAP_S}
              THEN 1 ELSE 0 END AS st
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts)
),
s AS (
  SELECT user_id, ts,
         sum(st) OVER (PARTITION BY user_id ORDER BY ts
                       ROWS UNBOUNDED PRECEDING) AS sid
  FROM g
)
SELECT user_id, CAST(sid AS BIGINT) AS session_id,
       count(*) AS n_events,
       CAST(date_diff('microsecond', min(ts), max(ts)) AS BIGINT) AS duration_us
FROM s
GROUP BY user_id, sid
ORDER BY user_id, session_id
"""


# ---------------------------------------------------------------------------
# Brand co-occurrence basket pairs (market-basket primitive)
# ---------------------------------------------------------------------------

BASKET_TOP_K = 25


def brand_basket_pairs(sf_dir: str, k: int = BASKET_TOP_K):
    """Top-k pairs of part BRANDS co-occurring in one order (counted
    once per order) — the market-basket / co-occurrence primitive
    over a fact⋈dim join.

    Shape: partitioned hash join lineitem⋈part ships only (orderkey,
    brand); orders co-locate via the hash-bucket shuffle, and pair
    enumeration inside each partition is FULLY vectorized — distinct
    (order, brand) via one Arrow group_by, then all within-order
    pairs from one np.repeat/offset construction (NO per-order Python:
    unlike LSH buckets, nearly every order is a multi-row bucket, so
    the pair_fn-per-bucket helper would pay a call per order).  The
    pair key domain is brands² (bounded), so the count fold is one
    plain aggregate."""
    ds = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])
    part = _read(sf_dir, "part", columns=["p_partkey", "p_brand"])
    from document_extractor_ray.functions.bucketing import (
        key_part_column,
        n_shuffle_parts,
    )

    joined = ds.join(
        part,
        join_type="inner",
        num_partitions=_join_partitions(
            f"{sf_dir}/lineitem.parquet", f"{sf_dir}/part.parquet"
        ),
        on=("l_partkey",),
        right_on=("p_partkey",),
    )
    n_parts = n_shuffle_parts()

    def slim(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(
            t.select(["l_orderkey", "p_brand"]), ["l_orderkey", "p_brand"]
        ).aggregate([])
        out = pa.table({"l_orderkey": g["l_orderkey"], "p_brand": g["p_brand"]})
        return out.append_column(
            "part", key_part_column(out, ["l_orderkey"], n_parts)
        )

    _EMPTY = pa.table(
        {
            "brand_a": pa.array([], pa.string()),
            "brand_b": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
        }
    )

    def pairs(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["part"])
        # global distinct within the partition (an order is whole here)
        g = pa.TableGroupBy(t, ["l_orderkey", "p_brand"]).aggregate([])
        t = pa.table(
            {"o": g["l_orderkey"], "b": g["p_brand"]}
        ).sort_by([("o", "ascending"), ("b", "ascending")])
        o = t["o"].to_numpy(zero_copy_only=False)
        n = len(o)
        if n < 2:
            return _EMPTY
        # run boundaries -> vectorized upper-triangle pair indices
        starts = np.flatnonzero(np.concatenate(([True], o[1:] != o[:-1])))
        ends = np.append(starts[1:], n)
        run_end = np.repeat(ends, ends - starts)  # end of each row's run
        reps = run_end - np.arange(n) - 1
        total = int(reps.sum())
        if total == 0:
            return _EMPTY
        left = np.repeat(np.arange(n), reps)
        off = np.concatenate(([0], np.cumsum(reps)[:-1]))
        right = left + 1 + (np.arange(total) - off[left])
        b = t["b"].combine_chunks()
        g2 = pa.TableGroupBy(
            pa.table(
                {
                    "brand_a": b.take(pa.array(left)),
                    "brand_b": b.take(pa.array(right)),
                }
            ),
            ["brand_a", "brand_b"],
        ).aggregate([([], "count_all")])
        return pa.table(
            {
                "brand_a": g2["brand_a"],
                "brand_b": g2["brand_b"],
                "n": pc.cast(g2["count_all"], pa.int64()),
            }
        )

    def fold(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, ["brand_a", "brand_b"]).aggregate([("n", "sum")])
        return pa.table(
            {"brand_a": g["brand_a"], "brand_b": g["brand_b"], "n": g["n_sum"]}
        )

    def add_zero(t: pa.Table) -> pa.Table:
        return t.append_column(
            "part", pa.array(np.zeros(t.num_rows, np.int32), pa.int32())
        )

    def fold_part(t: pa.Table) -> pa.Table:
        return fold(t.drop_columns(["part"]))

    return (
        joined.map_batches(slim, batch_format="pyarrow")
        .groupby("part")
        .map_groups(pairs, batch_format="pyarrow")
        .map_batches(fold, batch_format="pyarrow")  # brand² partials
        .map_batches(add_zero, batch_format="pyarrow")
        .groupby("part")
        .map_groups(fold_part, batch_format="pyarrow")
        .sort(["n", "brand_a", "brand_b"], descending=[True, False, False])
        .limit(k)
    )


BRAND_BASKET_PAIRS_SQL = f"""
WITH ob AS (
  SELECT DISTINCT l.l_orderkey, p.p_brand
  FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
),
pairs AS (
  SELECT a.p_brand AS brand_a, b.p_brand AS brand_b,
         CAST(count(*) AS BIGINT) AS n
  FROM ob a JOIN ob b
    ON a.l_orderkey = b.l_orderkey AND a.p_brand < b.p_brand
  GROUP BY 1, 2
)
SELECT brand_a, brand_b, n FROM pairs
ORDER BY n DESC, brand_a, brand_b
LIMIT {BASKET_TOP_K}
"""


# ---------------------------------------------------------------------------
# Lines-per-order histogram (fact-shape profile)
# ---------------------------------------------------------------------------

def order_lines_histogram(sf_dir: str):
    """Distribution of lineitem counts per order — the fact-table
    shape profile (skew planner input).  Fold 1 is a bucketed
    per-order count (orderkeys grow with data); fold 2 groups THAT
    by count value (domain-bounded, ~7 distinct) — the same
    frequency-of-frequencies reduction token_gini uses."""
    from document_extractor_ray.functions.bucketing import bucketed_agg

    ds = _read(sf_dir, "lineitem", columns=["l_orderkey"])

    def cnt_partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(t, ["l_orderkey"]).aggregate([([], "count_all")])
        return pa.table(
            {
                "l_orderkey": g["l_orderkey"],
                "c": pc.cast(g["count_all"], pa.int64()),
            }
        )

    per_order = bucketed_agg(
        ds.map_batches(cnt_partial, batch_format="pyarrow"),
        ["l_orderkey"],
        [("c", "sum", "c")],
    )

    def hist_partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(
            t.select(["c"]).rename_columns(["n_lines"]), ["n_lines"]
        ).aggregate([([], "count_all")])
        return pa.table(
            {
                "n_lines": g["n_lines"],
                "n_orders": pc.cast(g["count_all"], pa.int64()),
            }
        )

    return bucketed_agg(
        per_order.map_batches(hist_partial, batch_format="pyarrow"),
        ["n_lines"],
        [("n_orders", "sum", "n_orders")],
    ).sort("n_lines")


ORDER_LINES_HISTOGRAM_SQL = """
SELECT n_lines, CAST(count(*) AS BIGINT) AS n_orders
FROM (
  SELECT l_orderkey, CAST(count(*) AS BIGINT) AS n_lines
  FROM lineitem GROUP BY l_orderkey
)
GROUP BY n_lines
ORDER BY n_lines
"""


# ---------------------------------------------------------------------------
# Per-type decile assignment (distributed rank via counts-table broadcast)
# ---------------------------------------------------------------------------

def value_decile_assign(sf_dir: str):
    """Every event labeled with the decile of its value WITHIN its
    event type — the feature-bucketization / quantile-binning step,
    tie-stable: decile = ((rank_min − 1) * 10) // n_type where
    rank_min is SQL rank() (equal values share the minimum rank), so
    no row-order nondeterminism (ntile() would be order-dependent on
    ties).

    Distributed rank WITHOUT a global sort: fold 1 is the (type,
    cents) counts table (value-domain-bounded, the median/KS shape);
    the per-type cumulative-below table broadcasts once, and each
    batch assigns ranks by one searchsorted per type present.  For an
    unbounded value domain, range-partition the cents axis and
    prefix-sum partition totals (the value_hdr escalation)."""
    from document_extractor_ray import state
    from document_extractor_ray.functions.bucketing import bucketed_agg

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def cnt_partial(t: pa.Table) -> pa.Table:
        g = pa.TableGroupBy(
            pa.table(
                {"event_type": t["event_type"], "cents": _to_cents(t["value"])}
            ),
            ["event_type", "cents"],
        ).aggregate([([], "count_all")])
        return pa.table(
            {
                "event_type": g["event_type"],
                "cents": g["cents"],
                "n": pc.cast(g["count_all"], pa.int64()),
            }
        )

    counts = bucketed_agg(
        ds.map_batches(cnt_partial, batch_format="pyarrow"),
        ["event_type", "cents"],
        [("n", "sum", "n")],
    ).take_all()  # value-domain-bounded table (see docstring escalation)

    lut: dict = {}
    for r in counts:
        lut.setdefault(r["event_type"], []).append((r["cents"], r["n"]))
    packed = {}
    for et, rows in lut.items():
        rows.sort()
        cents = np.array([c for c, _ in rows], np.int64)
        ns = np.array([n for _, n in rows], np.int64)
        below = np.concatenate(([0], np.cumsum(ns)[:-1]))
        packed[et] = (cents, below, int(ns.sum()))
    ref = state.broadcast(packed)

    def assign(t: pa.Table) -> pa.Table:
        p = state.cached_get(ref)
        et = t["event_type"].to_numpy(zero_copy_only=False)
        cents = _to_cents(t["value"]).to_numpy(zero_copy_only=False)
        dec = np.zeros(len(et), np.int64)
        for typ in np.unique(et):
            m = et == typ
            cs, below, n = p[typ]
            rank0 = below[np.searchsorted(cs, cents[m])]  # rank_min - 1
            dec[m] = rank0 * 10 // n
        return pa.table(
            {
                "event_id": t["event_id"],
                "event_type": t["event_type"],
                "cents": pa.array(cents, pa.int64()),
                "decile": pa.array(dec, pa.int64()),
            }
        )

    return ds.map_batches(assign, batch_format="pyarrow").sort("event_id")


VALUE_DECILE_ASSIGN_SQL = """
SELECT event_id, event_type, cents,
       CAST((rank() OVER (PARTITION BY event_type ORDER BY cents) - 1) * 10
            // (count(*) OVER (PARTITION BY event_type)) AS BIGINT) AS decile
FROM (
  SELECT event_id, event_type,
         CAST(round(value * 100.0) AS BIGINT) AS cents
  FROM events
)
ORDER BY event_id
"""


# ---------------------------------------------------------------------------
# Events per order within a trailing window (interval-count join)
# ---------------------------------------------------------------------------

ORDER_WINDOW_DAYS = 7


def order_window_event_counts(sf_dir: str, days: int = ORDER_WINDOW_DAYS):
    """Per order: how many events its customer produced within
    [orderdate, orderdate + days] — the interval/range-count join Ray
    Data has no operator for (events_asof_orders covers the as-of
    case; this is the window-count case).

    Boundary-marker merge, the scale shape: both sides slim, tag, and
    hash-bucket ONCE on the user key (the as-of/sessionize pattern);
    inside each partition one lexsort of (user, t, kind) with kind
    ordered lo(-1) < event(0) < hi(+1) makes the running event count
    C(t) readable at each marker — inclusive bounds fall out of the
    tie order, no per-order search.  Each order then contributes
    (+C_hi, −C_lo) rows and ONE bucketed sum per orderkey yields the
    counts — orders whose user has no events settle to 0."""
    from document_extractor_ray.functions.bucketing import bucketed_agg

    events = _read(sf_dir, "events", columns=["user_id", "ts"])
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"])
    n_parts = _n_blocks()
    span_us = days * 86_400_000_000

    def _bucket(key_col):
        def add(t: pa.Table) -> pa.Table:
            h = pc.bit_wise_and(
                pc.multiply(
                    pc.cast(t[key_col], pa.int64()), pa.scalar(2654435761, pa.int64())
                ),
                pa.scalar(0x7FFFFFFF, pa.int64()),
            )
            return t.append_column(
                "part",
                pc.cast(
                    pc.subtract(h, pc.multiply(pc.divide(h, n_parts), n_parts)),
                    pa.int32(),
                ),
            )
        return add

    def tag_events(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "part": t["part"],
                "user": pc.cast(t["user_id"], pa.int64()),
                "t": pc.cast(t["ts"], pa.int64()),
                "kind": pa.array(np.zeros(t.num_rows, np.int8), pa.int8()),
                "okey": pa.nulls(t.num_rows, pa.int64()),
            }
        )

    def tag_orders(t: pa.Table) -> pa.Table:
        lo = pc.cast(t["o_orderdate"], pa.int64())
        user = pc.cast(t["o_custkey"], pa.int64())
        n = t.num_rows
        return pa.concat_tables(
            [
                pa.table(
                    {
                        "part": t["part"],
                        "user": user,
                        "t": lo,
                        "kind": pa.array(np.full(n, -1, np.int8), pa.int8()),
                        "okey": pc.cast(t["o_orderkey"], pa.int64()),
                    }
                ),
                pa.table(
                    {
                        "part": t["part"],
                        "user": user,
                        "t": pc.add(lo, pa.scalar(span_us, pa.int64())),
                        "kind": pa.array(np.ones(n, np.int8), pa.int8()),
                        "okey": pc.cast(t["o_orderkey"], pa.int64()),
                    }
                ),
            ]
        )

    tagged = events.map_batches(_bucket("user_id"), batch_format="pyarrow").map_batches(
        tag_events, batch_format="pyarrow"
    ).union(
        orders.map_batches(_bucket("o_custkey"), batch_format="pyarrow").map_batches(
            tag_orders, batch_format="pyarrow"
        )
    )

    _SWEEP_EMPTY = pa.table(
        {"o_orderkey": pa.array([], pa.int64()), "c": pa.array([], pa.int64())}
    )

    def sweep(t: pa.Table) -> pa.Table:
        t = t.drop_columns(["part"])
        if t.num_rows == 0:
            return _SWEEP_EMPTY
        user = t["user"].to_numpy(zero_copy_only=False)
        ts = t["t"].to_numpy(zero_copy_only=False)
        kind = t["kind"].to_numpy(zero_copy_only=False)
        order = np.lexsort((kind, ts, user))
        user, ts, kind = user[order], ts[order], kind[order]
        # events carry a null okey; fill before to_numpy or the array
        # silently goes float64/NaN
        okey = pc.fill_null(t["okey"], 0).to_numpy(zero_copy_only=False)[order]
        cum = np.cumsum(kind == 0)
        # reset per user: subtract the cumulative count at user start
        change = np.concatenate(([True], user[1:] != user[:-1]))
        starts = np.flatnonzero(change)
        base_at_start = np.where(starts > 0, cum[starts - 1], 0)
        base = np.repeat(base_at_start, np.diff(np.append(starts, len(user))))
        c = cum - base
        lo = kind == -1
        hi = kind == 1
        # at a lo marker cumsum excludes same-ts events (markers sort
        # first) -> C(t < lo); at a hi marker it includes them -> C(t <= hi)
        return pa.table(
            {
                "o_orderkey": pa.array(
                    np.concatenate((okey[lo], okey[hi])), pa.int64()
                ),
                "c": pa.array(
                    np.concatenate((-c[lo], c[hi])).astype(np.int64), pa.int64()
                ),
            }
        )

    return (
        bucketed_agg(
            tagged.groupby("part").map_groups(sweep, batch_format="pyarrow"),
            ["o_orderkey"],
            [("c", "sum", "n_events")],
        ).sort("o_orderkey")
    )


ORDER_WINDOW_EVENT_COUNTS_SQL = f"""
SELECT o.o_orderkey, CAST(count(e.ts) AS BIGINT) AS n_events
FROM orders o
LEFT JOIN events e
  ON e.user_id = o.o_custkey
 AND e.ts >= o.o_orderdate
 AND e.ts <= o.o_orderdate + INTERVAL {ORDER_WINDOW_DAYS} DAY
GROUP BY o.o_orderkey
ORDER BY o.o_orderkey
"""
