"""Command-line entry points.

- ``extract``      : run the pipeline over pages parquet into an output
                     directory (optionally resumable via shard commits)
                     — the ``process_run.py`` orchestrator analogue.
- ``extract-one``  : ad-hoc single-document probe — the ``pass_any.sh``
                     analogue (scripts/pass_any.sh:44-55): routes one
                     payload through the same cascade and prints the
                     result row + extracted block.
- ``gen-fixtures`` : write a deterministic synthetic corpus.

This module OWNS its Ray session (guarded init; the driver-facing
``__ray_entry__`` never initializes Ray).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ray_session(num_cpus: int):
    import os

    import ray

    if not ray.is_initialized():
        # RAY_ADDRESS=local here (sandbox); under `ray job submit` the
        # job env points at the running cluster and num_cpus is
        # ignored by the connect path.
        addr = os.environ.get("RAY_ADDRESS", "local")
        kwargs = dict(
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
        if addr == "local":
            kwargs["num_cpus"] = num_cpus
        ray.init(address=addr, **kwargs)
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return ray


def cmd_extract(args) -> int:
    is_warc = [p.endswith((".warc", ".warc.gz")) for p in args.input]
    if args.resumable and any(is_warc):
        # shards are planned and counted from parquet row-group metadata
        print("extract --resumable takes parquet inputs only; run WARC "
              "inputs without --resumable", file=sys.stderr)
        return 2
    ray = _ray_session(args.num_cpus)
    from document_extractor_ray.config import PipelineConfig
    from document_extractor_ray.pipelines import outputs, resume
    from document_extractor_ray.pipelines.extract import run_extraction

    cfg = PipelineConfig.from_env() if args.env_config else PipelineConfig()
    if args.run_id:
        cfg = cfg.with_(run_id=args.run_id)

    if all(is_warc):
        # raw Common-Crawl archives: parse per file, same pipeline
        from document_extractor_ray.sources.warc import read_pages_warc

        source = read_pages_warc(args.input)
    else:
        source = args.input[0] if len(args.input) == 1 else args.input

    if args.resumable:
        result = resume.run_resumable(
            args.input, args.out, cfg, shard_size=args.shard_size
        )
        print(json.dumps(result))
    else:
        final = run_extraction(source, cfg)
        paths = outputs.write_outputs(final, args.out, cfg)
        if args.combined_text or args.reference_layout:
            import pyarrow.parquet as pq
            import glob, os

            files = sorted(glob.glob(os.path.join(paths["final"], "**", "*.parquet"),
                                     recursive=True))
            table = pq.ParquetDataset(files).read().sort_by("url")
            if args.reference_layout:
                from document_extractor_ray.pipelines.reference_layout import (
                    write_reference_layout,
                )

                write_reference_layout(table, args.out, cfg)
            else:
                outputs.write_combined_text(table, args.out, cfg)
                outputs.write_index_csv(table, f"{args.out}/{cfg.run_id}.csv", cfg)
        print(json.dumps({"out": paths}))
    ray.shutdown()
    return 0


def cmd_extract_one(args) -> int:
    """Single-document probe: no Ray needed (the cascade is pure)."""
    from document_extractor_ray.config import PipelineConfig
    from document_extractor_ray.core import cascade, records, sniff

    cfg = PipelineConfig.from_env() if args.env_config else PipelineConfig()
    if args.html_file:
        payload = open(args.html_file, "rb").read()
    else:
        payload = sys.stdin.buffer.read()
    kind = sniff.sniff_kind(payload)
    res = cascade.process_any(kind, payload, args.text or "", cfg)
    rec = records.assemble_record(args.url, kind, len(payload), res, cfg)
    row = {k: rec[k] for k in (
        "url", "doc_kind", "status", "pass_used", "used_ocr", "score",
        "n_units", "mode", "quarantine", "reason", "notes",
    )}
    print(json.dumps(row))
    if rec["extracted_text"]:
        print(rec["extracted_text"], end="")
    return 0 if not rec["quarantine"] else 1


def cmd_gen_fixtures(args) -> int:
    from document_extractor_ray import fixtures

    if args.rows > 20000:
        fixtures.write_pages_parquet_parallel(args.out, args.rows, seed=args.seed)
    else:
        fixtures.write_pages_parquet(args.out, args.rows, seed=args.seed)
    print(json.dumps({"out": args.out, "rows": args.rows, "seed": args.seed}))
    return 0


def cmd_profile(args) -> int:
    """Corpus profiler: table shape/null/ndv profile plus, for the
    documents table, the dataset card — one JSON object per line so a
    shell pipeline can consume it (the 'what did we just ingest'
    first look)."""
    _ray_session(args.num_cpus)
    from document_extractor_ray.functions.analytics import table_profile
    from document_extractor_ray.functions.textstats import dataset_card

    prof = table_profile(args.sf_dir)
    for row in prof.to_pylist():
        print(json.dumps(row, default=str))
    if args.card:
        for row in dataset_card(args.sf_dir).to_pylist():
            print(json.dumps(row, default=str))
    return 0


def cmd_curate(args) -> int:
    """End-to-end curation chain over a pages corpus: extract -> C4
    quality gate -> PII scrub -> exact dedup -> MinHash near-dedup ->
    decontaminate -> pack_sequences; writes packed examples parquet
    under <out>/packed and prints the stage metrics as one JSON line
    (pipelines/curation.py; checkpointed in <out>, so a killed run
    resumes from the cleaned-docs phase)."""
    _ray_session(args.num_cpus)
    import pyarrow as pa

    from document_extractor_ray.config import DEFAULT_CONFIG
    from document_extractor_ray.pipelines import curation

    r = curation.run_curation(
        args.input,
        DEFAULT_CONFIG,
        work_dir=args.out,
        threshold=args.threshold,
        window=args.window or None,
    )
    out = os.path.join(args.out, "packed")
    os.makedirs(out, exist_ok=True)

    def flatten(t: pa.Table) -> pa.Table:
        return t.drop_columns(["doc_ids"]).append_column(
            "doc_ids_json",
            pa.array(
                [
                    json.dumps([int(x) for x in ids], separators=(",", ":"))
                    for ids in t["doc_ids"].to_pylist()
                ],
                pa.string(),
            ),
        )

    r["packed"].map_batches(flatten, batch_format="pyarrow").write_parquet(out)
    print(json.dumps({"out": out, **r["metrics"]}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="document_extractor_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("extract", help="run the extraction pipeline")
    pe.add_argument("--input", nargs="+", required=True,
                    help="pages parquet path(s), or .warc(.gz) path(s)")
    pe.add_argument("--out", required=True)
    pe.add_argument("--num-cpus", type=int, default=8)
    pe.add_argument("--resumable", action="store_true")
    pe.add_argument("--shard-size", type=int, default=4)
    pe.add_argument("--combined-text", action="store_true",
                    help="also write <run>_all_text_###.txt chunks + index CSV")
    pe.add_argument("--reference-layout", action="store_true",
                    help="write the full reference-compatible run layout "
                         "(txt/ tree, run CSV, combined chunks, review manifest)")
    pe.add_argument("--env-config", action="store_true",
                    help="read cutoffs etc. from env (PASS_TXT_CUTOFF, ...)")
    pe.add_argument("--run-id", default="")
    pe.set_defaults(fn=cmd_extract)

    po = sub.add_parser("extract-one", help="ad-hoc single-document probe")
    po.add_argument("--url", required=True)
    po.add_argument("--html-file", help="payload file (default: stdin)")
    po.add_argument("--text", default="", help="pre-extracted text column value")
    po.add_argument("--env-config", action="store_true")
    po.set_defaults(fn=cmd_extract_one)

    pc_ = sub.add_parser("curate", help="end-to-end training-data curation chain")
    pc_.add_argument("--input", nargs="+", required=True, help="pages parquet path(s)")
    pc_.add_argument("--out", required=True, help="work/checkpoint dir; packed under <out>/packed")
    pc_.add_argument("--num-cpus", type=int, default=8)
    pc_.add_argument("--threshold", type=float, default=0.7, help="near-dup MinHash threshold")
    pc_.add_argument("--window", type=int, default=0, help="pack window tokens (0 = default)")
    pc_.set_defaults(fn=cmd_curate)

    pg = sub.add_parser("gen-fixtures", help="write a synthetic pages corpus")
    pg.add_argument("--out", required=True)
    pg.add_argument("--rows", type=int, default=1000)
    pg.add_argument("--seed", type=int, default=42)
    pg.set_defaults(fn=cmd_gen_fixtures)

    pp = sub.add_parser("profile", help="profile the test tables in a dir")
    pp.add_argument("sf_dir", help="directory of *.parquet tables")
    pp.add_argument("--num-cpus", type=int, default=8)
    pp.add_argument("--card", action="store_true",
                    help="also print the documents dataset card")
    pp.set_defaults(fn=cmd_profile)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
