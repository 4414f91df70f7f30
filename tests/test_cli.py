"""CLI surface tests (in-process main() with the shared Ray session)."""

import json

SF = "/root/testdata/sf0.001"


def test_cli_profile_emits_json_lines(ray_session, capsys):
    from document_extractor_ray.cli import main

    rc = main(["profile", SF, "--card"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    rows = [json.loads(l) for l in lines]
    assert len(rows) > 5
    # table_profile rows carry col/n_rows; card rows carry their own keys
    assert any("col" in r and r["n_rows"] > 0 for r in rows)


def test_cli_gen_fixtures_roundtrip(ray_session, tmp_path, capsys):
    import pyarrow.parquet as pq

    from document_extractor_ray.cli import main

    out = str(tmp_path / "pages.parquet")
    rc = main(["gen-fixtures", "--out", out, "--rows", "50", "--seed", "7"])
    assert rc == 0
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["rows"] == 50
    assert pq.read_metadata(out).num_rows >= 50


def test_cli_extract_resumable_rejects_warc(tmp_path, capsys):
    from document_extractor_ray.cli import main

    rc = main(["extract", "--input", str(tmp_path / "crawl.warc.gz"),
               "--out", str(tmp_path / "out"), "--resumable"])
    assert rc != 0
    assert "--resumable takes parquet inputs only" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_extract_keeps_callers_ray_session(ray_session, tmp_path, capsys):
    """An in-process main(["extract", ...]) under a running Ray session
    writes its outputs and leaves the caller's session up."""
    import pyarrow.parquet as pq
    import ray

    from document_extractor_ray import fixtures
    from document_extractor_ray.cli import main

    pages = str(tmp_path / "pages.parquet")
    pq.write_table(fixtures.make_pages_table(40, seed=3), pages)
    out = tmp_path / "out"
    rc = main(["extract", "--input", pages, "--out", str(out)])
    assert rc == 0
    assert list((out / "final").rglob("*.parquet"))
    assert ray.is_initialized()
