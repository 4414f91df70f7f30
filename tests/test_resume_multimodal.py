"""Tests: shard-level resumable runner with lineage commit, and the
multimodal feature stages."""

import glob
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from document_extractor_ray.config import DEFAULT_CONFIG


@pytest.fixture(scope="module")
def sharded_input(tmp_path_factory):
    from document_extractor_ray import fixtures

    d = tmp_path_factory.mktemp("shards_in")
    files = []
    for k in range(4):
        t = fixtures.make_pages_range(k * 100, (k + 1) * 100, seed=42)
        p = str(d / f"part-{k:03d}.parquet")
        pq.write_table(t, p)
        files.append(p)
    return files


class TestResume:
    def test_kill_and_resume_byte_identical(self, ray_session, sharded_input, tmp_path):
        from document_extractor_ray.pipelines import resume

        out1 = str(tmp_path / "interrupted")
        # "Kill" after 1 shard: bound the first invocation.
        r1 = resume.run_resumable(sharded_input, out1, DEFAULT_CONFIG, shard_size=2, max_shards=1)
        assert r1["ran"] == [0] and not r1["complete"]
        # Resume: shard 0 must be skipped, shard 1 processed.
        r2 = resume.run_resumable(sharded_input, out1, DEFAULT_CONFIG, shard_size=2)
        assert r2["skipped"] == [0] and r2["ran"] == [1] and r2["complete"]

        # A never-interrupted run over the same input.
        out2 = str(tmp_path / "clean")
        r3 = resume.run_resumable(sharded_input, out2, DEFAULT_CONFIG, shard_size=2)
        assert r3["complete"] and r3["ran"] == [0, 1]

        a = resume.read_all_results(out1).take_all()
        b = resume.read_all_results(out2).take_all()
        key = lambda r: r["url"]
        a, b = sorted(a, key=key), sorted(b, key=key)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x["url"] == y["url"]
            assert x["extracted_text"] == y["extracted_text"]
            assert x["status"] == y["status"]

    def test_lineage_records(self, ray_session, sharded_input, tmp_path):
        from document_extractor_ray.pipelines import resume

        out = str(tmp_path / "lin")
        resume.run_resumable(sharded_input, out, DEFAULT_CONFIG, shard_size=2)
        recs = resume.committed_shards(out)
        assert set(recs) == {0, 1}
        for sid, rec in recs.items():
            assert rec["input_files"] == sorted(rec["input_files"])
            assert rec["n_rows"] == sum(rec["status_counts"].values())
            assert rec["n_rows"] > 0
            assert rec["extractor_version"]
            assert rec["wall_s"] > 0

    def test_status_counts_read_committed_files(
        self, ray_session, sharded_input, tmp_path, monkeypatch
    ):
        """Lineage counts come from the status column of the committed
        parquet files, with no Ray re-read of the shard output."""
        import pyarrow.compute as pc

        from document_extractor_ray import sources
        from document_extractor_ray.pipelines import resume

        def no_reread(*args, **kwargs):
            raise AssertionError("shard output re-read through Ray")

        monkeypatch.setattr(sources, "read_parquet_clean", no_reread)
        out = str(tmp_path / "counts")
        cfg = DEFAULT_CONFIG.with_(dedup=False)  # dedup's pre-scan reads via Ray
        r = resume.run_resumable(sharded_input, out, cfg, shard_size=2)
        assert r["complete"] and r["ran"] == [0, 1]
        for sid, rec in resume.committed_shards(out).items():
            final = pq.ParquetDataset(os.path.join(out, f"shard={sid}", "final")).read()
            want = {
                v["values"]: v["counts"]
                for v in pc.value_counts(final["status"]).to_pylist()
            }
            assert rec["status_counts"] == want
            assert rec["n_rows"] == final.num_rows > 0

    def test_partial_tmp_is_overwritten(self, ray_session, sharded_input, tmp_path):
        from document_extractor_ray.pipelines import resume

        out = str(tmp_path / "torn")
        # Simulate a killed run: stray tmp dir + torn lineage tmp file.
        os.makedirs(os.path.join(out, "shard=0.tmp", "final"), exist_ok=True)
        os.makedirs(os.path.join(out, "lineage"), exist_ok=True)
        with open(os.path.join(out, "lineage", "shard=0.json.tmp999"), "w") as f:
            f.write("{")
        r = resume.run_resumable(sharded_input, out, DEFAULT_CONFIG, shard_size=2)
        assert r["complete"] and r["ran"] == [0, 1]
        assert not os.path.exists(os.path.join(out, "shard=0.tmp"))


class TestMultimodal:
    def test_fake_codec_roundtrip(self):
        from document_extractor_ray.functions import multimodal as mm

        img = mm.decode_fake_image(mm.encode_fake_image(16, 8, 3, seed=1))
        assert img.shape == (8, 16, 3)
        sr, pcm = mm.decode_fake_audio(mm.encode_fake_audio(16000, 2048, seed=1))
        assert sr == 16000 and len(pcm) == 2048
        frames = [mm.encode_fake_image(8, 8, 3, seed=k) for k in range(3)]
        assert mm.decode_fake_video(mm.encode_fake_video(frames)) == frames

    def test_resize_and_features(self):
        from document_extractor_ray.functions import multimodal as mm

        img = mm.decode_fake_image(mm.encode_fake_image(64, 48, 3, seed=2))
        small = mm.resize_nearest(img, 32, 32)
        assert small.shape == (32, 32, 3)
        f = mm.image_features(small)
        assert f.shape == (3 + 3 + 8,) and f.dtype == np.float32

    def test_audio_windows(self):
        from document_extractor_ray.functions import multimodal as mm

        _, pcm = mm.decode_fake_audio(mm.encode_fake_audio(16000, 4096, seed=3))
        rms = mm.audio_windows_rms(pcm, window=1024)
        assert rms.shape == (4,)
        assert (rms > 0).all()

    def test_pil_branch_schema_contract(self):
        """Contract for the REAL-codec branch (multimodal.py PIL path):
        a genuine PNG decoded through MediaFeatureExtractor must emit
        the same FEATURES_SCHEMA row shape as the FIMG fake path, so
        the branch cannot rot unnoticed in PIL-equipped environments.
        Skipped (not failed) in this sandbox, where PIL is absent
        (VERDICT r4 item 8)."""
        PIL_Image = pytest.importorskip("PIL.Image")
        import io

        from document_extractor_ray.functions import multimodal as mm

        arr = np.arange(8 * 16 * 3, dtype=np.uint8).reshape(8, 16, 3)
        buf = io.BytesIO()
        PIL_Image.fromarray(arr).save(buf, format="PNG")
        ext = mm.MediaFeatureExtractor()
        assert ext._pil is not None
        t = ext(
            pa.table(
                {
                    "media_id": pa.array([1, 2], pa.int64()),
                    "kind": pa.array(["image", "image"], pa.string()),
                    "payload": pa.array(
                        [buf.getvalue(), mm.encode_fake_image(16, 8, 3, seed=1)],
                        pa.binary(),
                    ),
                }
            )
        )
        assert t.schema == mm.FEATURES_SCHEMA
        rows = t.to_pylist()
        assert all(r["decode_ok"] for r in rows)
        png_row, fimg_row = rows
        assert (png_row["width"], png_row["height"]) == (16, 8)
        assert (fimg_row["width"], fimg_row["height"]) == (16, 8)
        assert len(png_row["features"]) == len(fimg_row["features"]) == 14

    def test_actor_stage_end_to_end(self, ray_session):
        import ray.data
        from document_extractor_ray.functions import multimodal as mm

        table = mm.make_media_table(30, seed=42)
        out = mm.extract_media_features(ray.data.from_arrow(table)).take_all()
        assert len(out) == 30
        by_id = {r["media_id"]: r for r in out}
        # corrupt payload -> decode_ok False, no exception
        assert by_id[3]["decode_ok"] is False and by_id[3]["error"]
        ok = [r for r in out if r["decode_ok"]]
        assert len(ok) == 29
        for r in ok:
            if r["kind"] == "image":
                assert r["width"] > 0 and len(r["features"]) == 14
            elif r["kind"] == "audio":
                assert r["sample_rate"] == 16000 and r["n_units"] >= 4
            else:
                assert r["n_units"] >= 1 and len(r["features"]) == 14

    def test_determinism(self, ray_session):
        import ray.data
        from document_extractor_ray.functions import multimodal as mm

        t = mm.make_media_table(12, seed=42)
        a = mm.extract_media_features(ray.data.from_arrow(t)).take_all()
        b = mm.extract_media_features(ray.data.from_arrow(t)).take_all()
        ka = sorted(a, key=lambda r: r["media_id"])
        kb = sorted(b, key=lambda r: r["media_id"])
        for x, y in zip(ka, kb):
            assert x["features"] == y["features"]


class TestGenericResumableSink:
    def _events(self, sf="/root/testdata/sf0.001"):
        import ray.data

        return ray.data.read_parquet(f"{sf}/events.parquet")

    def test_two_phase_resume_equals_one_shot(self, ray_session, tmp_path):
        """Write half the partitions, simulate a crash (one uncommitted
        partition left on disk), rerun — the result must equal a
        one-shot write: committed partitions skipped, the torn one
        rewritten, no double counting."""
        import os
        import shutil

        import duckdb

        from document_extractor_ray.pipelines.outputs import write_query_partitioned

        one = str(tmp_path / "one")
        write_query_partitioned(self._events(), one, "user_id", n_partitions=8)

        two = str(tmp_path / "two")
        write_query_partitioned(self._events(), two, "user_id", n_partitions=8)
        # simulate crash: remove 3 markers, and tear one of those
        # partitions' files (partial write)
        markers = sorted(f for f in os.listdir(two) if f.startswith("_SUCCESS."))
        torn = [int(m.split(".")[1]) for m in markers[:3]]
        for pid in torn:
            os.remove(os.path.join(two, f"_SUCCESS.{pid}"))
        tear_dir = os.path.join(two, f"part_id={torn[0]}")
        files = sorted(os.listdir(tear_dir))
        os.remove(os.path.join(tear_dir, files[0]))

        stats = write_query_partitioned(self._events(), two, "user_id", n_partitions=8)
        assert stats["skipped"] == 5 and stats["written"] == 3

        q = "SELECT count(*), sum(event_id), count(DISTINCT event_id) FROM read_parquet('{}/part_id=*/*.parquet')"
        a = duckdb.sql(q.format(one)).fetchone()
        b = duckdb.sql(q.format(two)).fetchone()
        assert a == b

    def test_skip_all_when_committed(self, ray_session, tmp_path):
        from document_extractor_ray.pipelines.outputs import write_query_partitioned

        out = str(tmp_path / "out")
        write_query_partitioned(self._events(), out, "user_id", n_partitions=4)
        stats = write_query_partitioned(self._events(), out, "user_id", n_partitions=4)
        assert stats == {"written": 0, "skipped": 4}


class TestMediaDedup:
    def test_planted_duplicates_found_exactly(self, ray_session):
        from document_extractor_ray.functions.multimodal import media_dup_groups_table

        out = media_dup_groups_table("/root/testdata/sf0.001").to_pandas()
        # plant: payload at id+1 copies id for id in 0,7,...,56 -> 9 pairs
        assert len(out) == 9
        assert set(out["keeper_id"]) == set(range(0, 57, 7))
        assert (out["n_copies"] == 2).all()

    def test_no_false_positives_on_clean_table(self, ray_session):
        import ray.data

        from document_extractor_ray.functions.multimodal import (
            make_media_table,
            media_dup_groups,
        )

        t = make_media_table(40, seed=7)
        out = media_dup_groups(ray.data.from_arrow(t)).to_pandas()
        assert len(out) == 0

def test_roundtrip_read_partitioned(ray_session, tmp_path):
    """Sink -> source roundtrip: read_partitioned returns exactly
    the written rows and refuses a torn (marker-mismatched)
    partition."""
    import json
    import os

    import pytest
    import ray.data

    from document_extractor_ray.pipelines.outputs import write_query_partitioned
    from document_extractor_ray.sources import read_partitioned

    events = lambda: ray.data.read_parquet("/root/testdata/sf0.001/events.parquet")
    out = str(tmp_path / "rt")
    write_query_partitioned(events(), out, "user_id", n_partitions=4)
    back = read_partitioned(out)
    assert back.count() == events().count()

    # corrupt a marker's row count -> read must fail loudly
    m = sorted(f for f in os.listdir(out) if f.startswith("_SUCCESS."))[0]
    meta = json.load(open(os.path.join(out, m)))
    meta["rows"] += 1
    json.dump(meta, open(os.path.join(out, m), "w"))
    with pytest.raises(IOError):
        read_partitioned(out)
