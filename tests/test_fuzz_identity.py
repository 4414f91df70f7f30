"""Hypothesis-fuzzed byte-identity: random adversarial corpora through
the FULL Ray pipeline must match the sequential oracle exactly —
beyond the fixed fixture corpus the golden tests use.

Payloads include malformed/nested/unclosed tags, entities, odd
whitespace, page delimiters, binary junk with magic prefixes, and
duplicated urls with colliding timestamps."""

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from document_extractor_ray.config import DEFAULT_CONFIG

_MAGICS = [b"RIFF1234WAVEdata", b"PK\x03\x04junk", b"CNT1", b"MUF1",
           b"DOCXhello world", b"DOC1hello world", b"\x00\x01\x02"]

_html_bits = st.sampled_from([
    "<p>", "</p>", "<div class='x'>", "</div>", "<a href='#'>", "</a>",
    "<script>var x=1;</script>", "<style>.a{}</style>", "<!-- c -->",
    "<br/>", "<P >", "</ DIV>", "&amp;", "&lt;", "&#65;", "plain words here",
    "the and of to in", "  \t\n ", "<!--PAGE-->", "<unclosed", ">", "<>",
    "ünïcôdé tëxt", "<option>", "<li>item</li>", "longword" * 20,
])


def _page(draw):
    return "".join(draw(st.lists(_html_bits, min_size=0, max_size=25)))


@st.composite
def corpus(draw):
    n = draw(st.integers(1, 8))
    rows = []
    for i in range(n):
        which = draw(st.integers(0, 4))
        if which == 0:
            payload = draw(st.sampled_from(_MAGICS))
        elif which == 1:
            payload = b""
        else:
            payload = _page(draw).encode("utf-8")
        # duplicate urls sometimes (dedup path), colliding or not
        dup_of = draw(st.integers(-1, i - 1)) if i and draw(st.booleans()) else -1
        url = rows[dup_of][0] if dup_of >= 0 else f"https://fuzz.test/{i:04d}"
        ts = draw(st.integers(0, 5))
        rows.append((url, ts, payload, draw(st.sampled_from(["", "pre text"]))))
    return rows


@pytest.fixture(scope="module")
def _ray(ray_session):
    return ray_session


@given(corpus())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_pipeline_matches_oracle_on_fuzzed_corpora(_ray, rows):
    from document_extractor_ray import oracle
    from document_extractor_ray.pipelines.extract import run_extraction

    table = pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array(
                [r[1] * 1_000_000 for r in rows], pa.timestamp("us")
            ),
            "html": pa.array([r[2] for r in rows], pa.binary()),
            "text": pa.array([r[3] for r in rows], pa.string()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
        }
    )
    cfg = DEFAULT_CONFIG
    # dedup=False keeps several rows per url: sort by the full
    # canonical row so identical multisets pair deterministically.
    canon = lambda r: repr(sorted((k, v) for k, v in r.items()))
    want = sorted(oracle.run_oracle(table, cfg)["final"].to_pylist(), key=canon)
    got = sorted(run_extraction(table, cfg).take_all(), key=canon)
    assert len(got) == len(want), (len(got), len(want))
    for g, w in zip(got, want):
        assert g == w, g["url"]


_configs = st.fixed_dictionaries(
    {
        "txt_cutoff": st.sampled_from([0.0, 0.5, 0.75, 2.0]),
        "ocr_a_cutoff": st.sampled_from([0.0, 0.65, 2.0]),
        "ocr_b_cutoff": st.sampled_from([0.0, 0.55, 2.0]),
        "enable_txt_pass": st.booleans(),
        "enable_ocr_a": st.booleans(),
        "enable_ocr_b": st.booleans(),
        "big_page_limit": st.sampled_from([2, 50]),
        "big_size_bytes": st.sampled_from([128, 64 * 1024]),
        "dedup": st.booleans(),
    }
)


@given(corpus(), _configs)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_pipeline_matches_oracle_across_config_space(_ray, rows, cfg_kwargs):
    """Identity must hold for EVERY config: forced accepts/rejects,
    disabled stages, forced per-page, tiny big-doc thresholds."""
    from document_extractor_ray import oracle
    from document_extractor_ray.pipelines.extract import run_extraction

    table = pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array(
                [r[1] * 1_000_000 for r in rows], pa.timestamp("us")
            ),
            "html": pa.array([r[2] for r in rows], pa.binary()),
            "text": pa.array([r[3] for r in rows], pa.string()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
        }
    )
    cfg = DEFAULT_CONFIG.with_(**cfg_kwargs)
    # dedup=False keeps several rows per url: sort by the full
    # canonical row so identical multisets pair deterministically.
    canon = lambda r: repr(sorted((k, v) for k, v in r.items()))
    want = sorted(oracle.run_oracle(table, cfg)["final"].to_pylist(), key=canon)
    got = sorted(run_extraction(table, cfg).take_all(), key=canon)
    assert len(got) == len(want), (len(got), len(want))
    for g, w in zip(got, want):
        assert g == w, g["url"]


@given(corpus(), st.sampled_from([1, 2, 5, 64]))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_fused_path_matches_oracle_on_fuzzed_corpora(_ray, tmp_path_factory, rows, rg_size):
    """run_extraction(path) — the fused read+extract plan with the
    winner broadcast and tie-break inside the fragment tasks — fuzzed
    against the oracle across row-group layouts."""
    import pyarrow.parquet as pq

    from document_extractor_ray import oracle
    from document_extractor_ray.pipelines.extract import run_extraction

    table = pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array(
                [r[1] * 1_000_000 for r in rows], pa.timestamp("us")
            ),
            "html": pa.array([r[2] for r in rows], pa.binary()),
            "text": pa.array([r[3] for r in rows], pa.string()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
        }
    )
    path = str(tmp_path_factory.mktemp("fuzz") / "pages.parquet")
    pq.write_table(table, path, row_group_size=rg_size)

    cfg = DEFAULT_CONFIG
    canon = lambda r: repr(sorted((k, v) for k, v in r.items()))
    want = sorted(oracle.run_oracle(table, cfg)["final"].to_pylist(), key=canon)
    got = sorted(run_extraction(path, cfg).take_all(), key=canon)
    assert len(got) == len(want), (len(got), len(want))
    for g, w in zip(got, want):
        assert g == w, g["url"]


@given(corpus())
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_join_dedup_path_matches_oracle_on_fuzzed_corpora(_ray, rows):
    """The ABOVE-budget dedup path (partitioned join + tie pass) must
    be byte-identical to the oracle too — the round-2 divergence
    regime.  Forced by dropping the broadcast budget to 0."""
    from document_extractor_ray import oracle
    from document_extractor_ray.pipelines import extract as _extract
    from document_extractor_ray.pipelines.extract import run_extraction

    table = pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array(
                [r[1] * 1_000_000 for r in rows], pa.timestamp("us")
            ),
            "html": pa.array([r[2] for r in rows], pa.binary()),
            "text": pa.array([r[3] for r in rows], pa.string()),
            "lang": pa.array(["en"] * len(rows), pa.string()),
        }
    )
    cfg = DEFAULT_CONFIG
    canon = lambda r: repr(sorted((k, v) for k, v in r.items()))
    want = sorted(oracle.run_oracle(table, cfg)["final"].to_pylist(), key=canon)
    old = _extract.DEDUP_BROADCAST_LIMIT
    _extract.DEDUP_BROADCAST_LIMIT = 0
    try:
        got = sorted(run_extraction(table, cfg).take_all(), key=canon)
    finally:
        _extract.DEDUP_BROADCAST_LIMIT = old
    assert len(got) == len(want), (len(got), len(want))
    for g, w in zip(got, want):
        assert g == w, g["url"]
