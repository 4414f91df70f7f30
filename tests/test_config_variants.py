"""Oracle/pipeline equivalence under non-default configs, and the
soft-timeout path."""

import numpy as np
import pyarrow as pa
import pytest

from document_extractor_ray.config import DEFAULT_CONFIG


def _normalize(v):
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, list):
        v = [_normalize(x) for x in v]
    if isinstance(v, dict):
        v = {k: _normalize(x) for k, x in v.items()}
    return v


@pytest.mark.parametrize(
    "cfg_kwargs",
    [
        # reference code-level defaults (pass_pdf.py:92-94) instead of
        # the deployed entrypoint defaults
        dict(txt_cutoff=0.80, ocr_a_cutoff=0.70, ocr_b_cutoff=0.60),
        # probe mode: OCR-A disabled (G6 wrappers)
        dict(enable_ocr_a=False),
        # legacy char-count pagination active (G7)
        dict(big_char_limit=2000),
        # everything forced through fallback
        dict(enable_txt_pass=False),
    ],
    ids=["code-defaults", "no-ocr-a", "char-limit", "no-pass1"],
)
def test_pipeline_matches_oracle_under_config(ray_session, cfg_kwargs):
    from document_extractor_ray import fixtures, oracle
    from document_extractor_ray.pipelines.extract import run_extraction

    cfg = DEFAULT_CONFIG.with_(**cfg_kwargs)
    pages = fixtures.make_pages_table(150, seed=7)
    want = oracle.run_oracle(pages, cfg)["final"].to_pylist()
    got = sorted(run_extraction(pages, cfg).take_all(), key=lambda r: r["url"])
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for key, expected in w.items():
            assert _normalize(g[key]) == expected, (w["url"], key)


def test_soft_timeout_marks_rows(ray_session):
    """cfg.doc_timeout_s=0: any document that needs the fallback stage
    exceeds the budget and is marked TIMEOUT + quarantined (the
    per-unit timeout the reference lacks, TODO.md:14)."""
    from document_extractor_ray import fixtures
    from document_extractor_ray.pipelines.extract import run_extraction

    cfg = DEFAULT_CONFIG.with_(doc_timeout_s=0.0)
    pages = fixtures.make_pages_table(120, seed=11)
    rows = run_extraction(pages, cfg).take_all()
    timed_out = [r for r in rows if r["status"] == "TIMEOUT"]
    assert timed_out, "no TIMEOUT rows produced"
    for r in timed_out:
        assert r["quarantine"] and r["reason"] == "pass rc=1"
        assert r["notes"] == "timeout"
        assert r["extracted_text"] == ""
    # pass-1 accepts are unaffected by the fallback budget
    assert any(r["pass_used"] == "html_text" and r["status"] == "OK" for r in rows)
