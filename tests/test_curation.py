"""Curation-chain composition tests (VERDICT r4 item 5).

The distributed chain (pipelines/curation.run_curation) must equal the
sequential twin (sequential_curation) value-for-value, and every stage
must be provably non-vacuous on the planted-duplicate corpus.
"""

from __future__ import annotations

import shutil

import pyarrow.parquet as pq
import pytest

from document_extractor_ray.config import DEFAULT_CONFIG


@pytest.fixture(scope="module")
def chain_run(ray_session, tmp_path_factory):
    from document_extractor_ray import fixtures
    from document_extractor_ray.pipelines import curation

    tmp = tmp_path_factory.mktemp("curation")
    pages = curation.plant_dup_pages(fixtures.make_pages_table(400, seed=7))
    pages_path = str(tmp / "pages.parquet")
    pq.write_table(pages, pages_path)
    work = str(tmp / "work")
    r = curation.run_curation(pages_path, DEFAULT_CONFIG, work_dir=work)
    dist = curation.packed_to_table(r["packed"])
    seq = curation.sequential_curation(pages, DEFAULT_CONFIG)
    return {"pages": pages, "r": r, "dist": dist, "seq": seq, "work": work}


def test_distributed_equals_sequential(chain_run):
    assert chain_run["dist"].equals(chain_run["seq"])


def test_stages_non_vacuous(chain_run):
    m = chain_run["r"]["metrics"]
    # planted exact copies must be dropped by exact dedup
    assert m["exact_losers"] > 0
    # planted near copies (not byte-equal) must be caught by LSH
    assert m["near_losers"] > m["exact_losers"]
    # benchmark docs self-flag: decontamination must drop >= n_benchmark
    dist = chain_run["dist"]
    kept_docs = sum(dist["n_docs"].to_pylist())
    contam_dropped = m["docs_after_clean"] - m["dup_losers_union"] - kept_docs
    assert contam_dropped >= m["n_benchmark"]
    # packing actually packs (multi-doc examples exist)
    assert max(dist["n_docs"].to_pylist()) > 1


def test_packed_token_budget(chain_run):
    from document_extractor_ray.functions.training import PACK_WINDOW

    dist = chain_run["dist"]
    for ntok, over in zip(
        dist["n_tokens"].to_pylist(), dist["oversize"].to_pylist()
    ):
        if over:
            assert ntok > PACK_WINDOW
        else:
            assert ntok <= PACK_WINDOW


def test_chunked_planting_equals_one_shot():
    """plant_dup_pages(start_index, plants_only) streamed over chunks
    must be bit-identical to one-shot planting (the 10M-corpus path of
    tools/endurance_curation.py)."""
    import pyarrow as pa

    from document_extractor_ray import fixtures
    from document_extractor_ray.pipelines import curation

    pages = fixtures.make_pages_table(300, seed=11)
    one = curation.plant_dup_pages(pages)
    outs = [pages]
    off = 0
    for lo, hi in ((0, 77), (77, 200), (200, pages.num_rows)):
        c = pages.slice(lo, hi - lo)
        outs.append(curation.plant_dup_pages(c, start_index=off, plants_only=True))
        off += c.num_rows
    two = pa.concat_tables(outs)
    assert one.equals(two)


def test_loser_sets_complement_keep_sets(chain_run):
    """exact_dup_losers / near_dup_losers must be the exact set
    complements of dedup_exact / near_dedup_keep over the same docs."""
    import glob

    from document_extractor_ray.functions import dedup
    from document_extractor_ray.sources import read_parquet_clean

    files = sorted(glob.glob(chain_run["work"] + "/docs/*.parquet"))

    def ds():
        return read_parquet_clean(files, columns=["doc_id", "text"])

    def ids(d):
        return {
            r["doc_id"]
            for b in d.iter_batches(batch_format="pyarrow")
            for r in b.to_pylist()
        }

    all_ids = ids(ds())
    keep_exact = ids(dedup.dedup_exact(ds()))
    lose_exact = ids(dedup.exact_dup_losers(ds()))
    assert keep_exact | lose_exact == all_ids
    assert not (keep_exact & lose_exact)
    assert len(lose_exact) == chain_run["r"]["metrics"]["exact_losers"]

    keep_near = ids(dedup.near_dedup_keep(ds()))
    lose_near = ids(dedup.near_dup_losers(ds()))
    assert keep_near | lose_near == all_ids
    assert not (keep_near & lose_near)


def test_bbit_agreement_matches_minhash_pairs(chain_run):
    """bbit_minhash_agreement and minhash_dup_pairs verify the same LSH
    candidates: at the b-bit audit's 700-permille threshold they keep
    the same pairs, and the full agreement is the Jaccard estimate."""
    import glob

    from document_extractor_ray.functions import dedup
    from document_extractor_ray.sources import read_parquet_clean

    files = sorted(glob.glob(chain_run["work"] + "/docs/*.parquet"))

    def ds():
        return read_parquet_clean(files, columns=["doc_id", "text"])

    pairs = dedup.minhash_dup_pairs(ds(), threshold=0.7).take_all()
    bbit = dedup.bbit_minhash_agreement(ds()).take_all()
    assert [(r["doc_a"], r["doc_b"]) for r in bbit] == [
        (r["doc_a"], r["doc_b"]) for r in pairs
    ]
    assert [r["agree_full"] / dedup.N_HASHES for r in bbit] == [
        r["est_jaccard"] for r in pairs
    ]
    assert bbit


def test_tiny_corpus_chain_equals_sequential(ray_session, tmp_path):
    """Below 2 * DOCS_PER_RANGE cleaned docs the chain packs one doc_id
    range, whose size must still fit int64."""
    from document_extractor_ray import fixtures
    from document_extractor_ray.pipelines import curation

    pages = curation.plant_dup_pages(fixtures.make_pages_table(100, seed=7))
    pages_path = str(tmp_path / "pages.parquet")
    pq.write_table(pages, pages_path)
    r = curation.run_curation(
        pages_path, DEFAULT_CONFIG, work_dir=str(tmp_path / "work")
    )
    assert r["metrics"]["docs_after_clean"] < 2 * curation.DOCS_PER_RANGE
    dist = curation.packed_to_table(r["packed"])
    assert dist.num_rows > 0
    assert dist.equals(curation.sequential_curation(pages, DEFAULT_CONFIG))


def test_chain_modules_do_not_load_analytics():
    """The curation chain's modules import without the analytics
    operator library."""
    import os
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys\n"
        "import document_extractor_ray.pipelines.curation\n"
        "import document_extractor_ray.functions.training\n"
        "import document_extractor_ray.functions.dedup\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith('document_extractor_ray.functions.analytics')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root,
        env={**os.environ, "PYTHONPATH": root},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_checkpoint_resume_skips_extraction(chain_run):
    """Second run over the same work_dir must reuse the docs checkpoint
    (the resumable-output contract) and produce the identical result."""
    from document_extractor_ray import fixtures
    from document_extractor_ray.pipelines import curation

    import os

    docs_dir = os.path.join(chain_run["work"], "docs")
    assert os.path.exists(os.path.join(docs_dir, "_DONE"))

    def checkpoint_state():
        return {
            f: os.stat(os.path.join(docs_dir, f)).st_mtime_ns
            for f in os.listdir(docs_dir)
        }

    before = checkpoint_state()
    pages_path = os.path.join(
        os.path.dirname(chain_run["work"]), "pages.parquet"
    )
    r2 = curation.run_curation(
        pages_path, DEFAULT_CONFIG, work_dir=chain_run["work"]
    )
    # checkpoint hit: no docs file or marker was rewritten or added
    assert checkpoint_state() == before
    assert curation.packed_to_table(r2["packed"]).equals(chain_run["dist"])


@pytest.mark.parametrize("leftover", ["docs_without_done", "stray_tmp"])
def test_rerun_after_killed_checkpoint_write(ray_session, tmp_path, leftover):
    """A chain killed while writing its docs checkpoint leaves either a
    docs/ without _DONE or a stray docs.tmp; the rerun must rewrite the
    checkpoint from scratch, never add to the killed run's files."""
    import os

    from document_extractor_ray import fixtures
    from document_extractor_ray.pipelines import curation

    pages = curation.plant_dup_pages(fixtures.make_pages_table(400, seed=7))
    pages_path = str(tmp_path / "pages.parquet")
    pq.write_table(pages, pages_path)
    work = str(tmp_path / "work")
    curation.run_curation(pages_path, DEFAULT_CONFIG, work_dir=work)
    docs_dir = os.path.join(work, "docs")
    if leftover == "docs_without_done":
        os.remove(os.path.join(docs_dir, "_DONE"))
    else:
        shutil.copytree(docs_dir, docs_dir + ".tmp")
        shutil.rmtree(docs_dir)

    r = curation.run_curation(pages_path, DEFAULT_CONFIG, work_dir=work)
    assert curation.packed_to_table(r["packed"]).equals(
        curation.sequential_curation(pages, DEFAULT_CONFIG)
    )
    assert not os.path.exists(docs_dir + ".tmp")
