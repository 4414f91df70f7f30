"""The benchmark's three workloads: input generators, the job each one
times, and the sequential twin each job's output is checked against.

Every input derives from the run's ``--seed``; the program under test
only ever sees the generated files.  A job writes into a fresh output
directory and returns an in-memory result (or None); ``output_digest``
turns that into one order-free digest, and ``twin_digest`` computes the
same digest from the single-process reference logic.
"""

from __future__ import annotations

import glob
import hashlib
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from document_extractor_ray import fixtures, oracle
from document_extractor_ray.config import PipelineConfig
from document_extractor_ray.pipelines import curation, extract, outputs, resume
from document_extractor_ray.sources import PAGE_COLUMNS, warc

# Bump when a generator or a job changes: cached twin digests key off it.
GENERATOR_VERSION = 3

N_FILES = 8
ROW_GROUP_ROWS = 512
SHARD_SIZE = 4
RECRAWL_EVERY = 4
TIE_EVERY = 97
DAY_US = 86_400 * 1_000_000
VARIANTS = 6

THROUGHPUT_CFG = PipelineConfig(dedup=False, deterministic_order=False)
DEFAULT_CFG = PipelineConfig()


@dataclass
class Inputs:
    """Generated files plus what the benchmark knows about them."""

    files: List[str]
    n_records: int  # page rows or WARC captures, re-crawls and plants included
    pages: pa.Table  # the rows the job reads, as the twin sees them
    props: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # base pages per timed input
    warmup: int  # base pages of the warm-up input
    cfg: PipelineConfig
    generate: Callable[[str, int, int], Inputs]
    job: Callable[[Inputs, str], Optional[pa.Table]]
    output_digest: Callable[[str, Optional[pa.Table]], str]
    twin: Callable[[Inputs], pa.Table]


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def _digest_rows(cols: List[list]) -> str:
    """Order-free digest of a row set: sha1 per row, sorted, hashed."""
    per_row = sorted(
        hashlib.sha1(
            "\x00".join("\x01" if v is None else str(v) for v in row).encode()
        ).digest()
        for row in zip(*cols)
    )
    return hashlib.sha256(b"".join(per_row)).hexdigest()


def digest_final(t: pa.Table) -> str:
    """Per-url digest of (url, status, extracted_text)."""
    return _digest_rows(
        [t[c].to_pylist() for c in ("url", "status", "extracted_text")]
    )


def digest_packed(t: pa.Table) -> str:
    """Per-example digest of the packed curation output."""
    return _digest_rows(
        [
            t[c].to_pylist()
            for c in ("example_id", "doc_ids_json", "n_docs", "n_tokens", "oversize")
        ]
    )


def _read_final_files(paths: List[str]) -> pa.Table:
    cols = ["url", "status", "extracted_text"]
    tables = [pq.ParquetFile(p).read(columns=cols) for p in sorted(paths)]
    return pa.concat_tables(tables) if tables else pa.table({c: [] for c in cols})


def fallback_share(final: pa.Table) -> float:
    """Share of output rows that reached the fallback stage: html rows
    pass 1 did not accept."""
    if final.num_rows == 0:
        return 0.0
    mask = pc.and_(
        pc.equal(final["doc_kind"], "html"),
        pc.not_equal(final["pass_used"], "html_text"),
    )
    return pc.sum(pc.cast(mask, pa.int64())).as_py() / final.num_rows


def dedup_keep(pages: pa.Table) -> List[int]:
    """Row indices the url dedup keeps, by the oracle's own rule."""
    return oracle.dedup_first_indices(
        pages["url"].to_pylist(),
        pc.cast(pages["warc_ts"], pa.int64()).to_pylist(),
        pages["html"].to_pylist(),
        pages["text"].to_pylist(),
    )


def dedup_counts(pages: pa.Table) -> Dict[str, int]:
    """Rows the url dedup drops and rows at a tied earliest timestamp."""
    urls = pages["url"].to_pylist()
    tss = pc.cast(pages["warc_ts"], pa.int64()).to_pylist()
    keep = dedup_keep(pages)
    first: Dict[str, int] = {}
    at_min: Dict[str, int] = {}
    for u, ts in zip(urls, tss):
        if u not in first or ts < first[u]:
            first[u], at_min[u] = ts, 1
        elif ts == first[u]:
            at_min[u] += 1
    ties = sum(n for n in at_min.values() if n > 1)
    return {"rows_dropped": len(urls) - len(keep), "tie_rows": ties}


# ---------------------------------------------------------------------------
# Pages
# ---------------------------------------------------------------------------

def make_pages(n: int, seed: int) -> pa.Table:
    """``n`` unique-url corpus pages whose class mix is exactly the
    corpus fractions (fixtures.CLASS_FRACTIONS), split evenly over the
    row index mod 6 (the builders pick a class's variant by index
    parity and mod 3).  The seed picks the pages; fixing the mix keeps
    one seed's job cost close to another's (the giant class alone is
    about half the extraction work)."""
    quota = {
        (tag, v): round(frac * n / VARIANTS)
        for tag, frac in fixtures.CLASS_FRACTIONS
        for v in range(VARIANTS)
    }
    quota["clean", 0] += n - sum(quota.values())
    picked: List[int] = []
    i = 0
    while len(picked) < n:
        key = (fixtures.class_of(seed, i), i % VARIANTS)
        if quota[key] > 0:
            quota[key] -= 1
            picked.append(i)
        i += 1
    parts, start = [], 0
    for k in range(1, n + 1):  # one table per run of consecutive indices
        if k == n or picked[k] != picked[k - 1] + 1:
            parts.append(fixtures.make_pages_range(picked[start], picked[k - 1] + 1, seed))
            start = k
    return pa.concat_tables(parts)


# ---------------------------------------------------------------------------
# extract_shards
# ---------------------------------------------------------------------------

def _write_parquet(t: pa.Table, path: str) -> None:
    pq.write_table(t, path, row_group_size=ROW_GROUP_ROWS)


def gen_extract_shards(out_dir: str, n: int, seed: int) -> Inputs:
    pages = make_pages(n, seed)
    files = []
    bounds = [n * k // N_FILES for k in range(N_FILES + 1)]
    for k in range(N_FILES):
        path = os.path.join(out_dir, f"pages-{k}.parquet")
        _write_parquet(pages.slice(bounds[k], bounds[k + 1] - bounds[k]), path)
        files.append(path)
    pages = pages.select(PAGE_COLUMNS)
    props = {"pages": n, "bytes": sum(os.path.getsize(f) for f in files)}
    return Inputs(files, n, pages, props)


def job_extract_shards(inp: Inputs, out: str) -> None:
    resume.run_resumable(inp.files, out, THROUGHPUT_CFG, shard_size=SHARD_SIZE)


def out_extract_shards(out: str, _result) -> str:
    return digest_final(
        _read_final_files(glob.glob(os.path.join(out, "shard=*", "final", "*.parquet")))
    )


def twin_extract_shards(inp: Inputs) -> pa.Table:
    return oracle.run_oracle(inp.pages, THROUGHPUT_CFG)["final"]


# ---------------------------------------------------------------------------
# recrawl_warc
# ---------------------------------------------------------------------------

def gen_recrawl_warc(out_dir: str, n: int, seed: int) -> Inputs:
    base = make_pages(n, seed)
    urls = base["url"].to_pylist()
    tss = pc.cast(base["warc_ts"], pa.int64()).to_pylist()
    htmls = [h or b"" for h in base["html"].to_pylist()]
    caps = list(zip(urls, tss, htmls))
    n_recrawl = n_tie = 0
    for i, (u, ts, h) in enumerate(zip(urls, tss, htmls)):
        if i % RECRAWL_EVERY == 0:
            # a day-later re-crawl with a changed first paragraph: dedup
            # keeps the earlier capture
            later = (
                h.replace(b"</p>", b" updated on recrawl.</p>", 1)
                if b"</p>" in h
                else h + b"\n"
            )
            caps.append((u, ts + DAY_US, later))
            n_recrawl += 1
        if i % TIE_EVERY == 0 and b"</p>" in h:
            # same-timestamp capture with other bytes: the content-hash
            # tie-break decides which one survives
            caps.append((u, ts, h.replace(b"</p>", b" tie variant.</p>", 1)))
            n_tie += 1
    random.Random(f"{seed}:warc-shuffle").shuffle(caps)
    files = []
    bounds = [len(caps) * k // N_FILES for k in range(N_FILES + 1)]
    for k in range(N_FILES):
        chunk = caps[bounds[k] : bounds[k + 1]]
        path = os.path.join(out_dir, f"crawl-{k}.warc.gz")
        warc.write_warc_fixture(
            pa.table(
                {
                    "url": pa.array([c[0] for c in chunk], pa.string()),
                    "warc_ts": pa.array([c[1] for c in chunk], pa.timestamp("us")),
                    "html": pa.array([c[2] for c in chunk], pa.binary()),
                }
            ),
            path,
        )
        files.append(path)
    pages = read_warc_rows(files)
    props = {
        "pages": n,
        "captures": len(caps),
        "bytes": sum(os.path.getsize(f) for f in files),
        "recrawl_share": n_recrawl / len(caps),
        "tie_captures": n_tie,
    }
    return Inputs(files, len(caps), pages, props)


def read_warc_rows(files: List[str]) -> pa.Table:
    """The rows the WARC reader yields, read without Ray (text null)."""
    rows = [r for f in files for r in warc.parse_warc_file(f)]
    return pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
            "html": pa.array([r[2] for r in rows], pa.binary()),
            "text": pa.nulls(len(rows), pa.string()),
        }
    )


def job_recrawl_warc(inp: Inputs, out: str) -> None:
    final = extract.run_extraction(warc.read_pages_warc(inp.files), DEFAULT_CFG)
    outputs.write_outputs(final, out, DEFAULT_CFG)


def out_recrawl_warc(out: str, _result) -> str:
    return digest_final(
        _read_final_files(
            glob.glob(os.path.join(out, "final", "**", "*.parquet"), recursive=True)
        )
    )


def twin_recrawl_warc(inp: Inputs) -> pa.Table:
    return oracle.run_oracle(inp.pages, DEFAULT_CFG)["final"]


# ---------------------------------------------------------------------------
# curate_chain
# ---------------------------------------------------------------------------

def gen_curate_chain(out_dir: str, n: int, seed: int) -> Inputs:
    pages = curation.plant_dup_pages(make_pages(n, seed))
    path = os.path.join(out_dir, "pages.parquet")
    _write_parquet(pages, path)
    urls = pages["url"].to_pylist()
    props = {
        "pages": n,
        "bytes": os.path.getsize(path),
        "planted_exact": sum(u.endswith("?copy") for u in urls),
        "planted_near": sum(u.endswith("?near") for u in urls),
    }
    return Inputs([path], pages.num_rows, pages.select(PAGE_COLUMNS), props)


def job_curate_chain(inp: Inputs, out: str) -> pa.Table:
    res = curation.run_curation(inp.files[0], DEFAULT_CFG, work_dir=out)
    return curation.packed_to_table(res["packed"])


def out_curate_chain(_out: str, packed: pa.Table) -> str:
    return digest_packed(packed)


def twin_curate_chain(inp: Inputs) -> pa.Table:
    return curation.sequential_curation(inp.pages, DEFAULT_CFG)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "extract_shards", 3000, 96, THROUGHPUT_CFG, gen_extract_shards,
            job_extract_shards, out_extract_shards, twin_extract_shards,
        ),
        Workload(
            "recrawl_warc", 2000, 96, DEFAULT_CFG, gen_recrawl_warc,
            job_recrawl_warc, out_recrawl_warc, twin_recrawl_warc,
        ),
        Workload(
            # run_curation needs >= 128 cleaned docs: below that its
            # packing range size (2^63) overflows int64
            "curate_chain", 1200, 400, DEFAULT_CFG, gen_curate_chain,
            job_curate_chain, out_curate_chain, twin_curate_chain,
        ),
    )
}


def twin_facts(w: Workload, inp: Inputs) -> Dict[str, object]:
    """Everything derived from the sequential twin, computed once per
    generated input: the expected digest and twin-side input properties."""
    facts: Dict[str, object] = {}
    if w.name == "curate_chain":
        facts["digest"] = digest_packed(w.twin(inp))
        final = oracle.run_oracle(inp.pages, w.cfg)["final"]
    else:
        final = w.twin(inp)
        facts["digest"] = digest_final(final)
    facts["fallback_share"] = fallback_share(final)
    if w.cfg.dedup:
        facts.update(dedup_counts(inp.pages))
    else:
        facts.update(rows_dropped=0, tie_rows=0)
    return facts
