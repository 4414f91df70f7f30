"""Reference-compatible output layout.

Materializes the exact on-disk layout the reference produces for a run
(so a user of ``document-extractor`` can switch engines and keep their
downstream tooling):

    <out>/<run_id>.csv                      12-col run index (process_run.py:21-34)
    <out>/txt/<relative_path>.txt           per-doc text artifacts (output_writer.py:164-211)
    <out>/<run_id>_all_text_###.txt         combined chunks + DOCUMENT BREAK (output_writer.py:213-228)
    <out>/review_manifest.csv               quarantine manifest (process_run.py:68-81)
    <out>/Mandatory Review/                 marker dir (files are never moved —
                                            quarantine is data; the dir exists for
                                            layout compatibility, process_run.py:41)

Driver-side sequential sink over the sorted final table — ordered
semantics (chunk numbering, append order) make this inherently a
single pass; it streams via iter_batches and only ever holds one batch
of documents in memory.  Run CSV and chunks use the ``outputs`` writers."""

from __future__ import annotations

import csv
import os
from typing import Union

import pyarrow as pa

from document_extractor_ray.config import DEFAULT_CONFIG, PipelineConfig
from document_extractor_ray.core.blocks import url_relative_path
from document_extractor_ray.core.records import RESULT_STATUSES


def write_reference_layout(
    final_sorted: Union[pa.Table, "object"],
    out_dir: str,
    cfg: PipelineConfig = DEFAULT_CONFIG,
) -> dict:
    """final table/Dataset (sorted by url) -> reference run layout."""
    from document_extractor_ray.pipelines import outputs

    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.join(out_dir, "Mandatory Review"), exist_ok=True)

    csv_path = os.path.join(out_dir, f"{cfg.run_id}.csv")
    manifest_path = os.path.join(out_dir, "review_manifest.csv")

    n_txt = 0
    manifest_started = False
    quarantined_names: dict = {}

    def disambiguate(rel: str) -> str:
        """Collision handling for quarantine manifest names, mirroring
        move_to_manual.sh:29-37 (which suffixes a timestamp before the
        extension when the Mandatory Review target exists).  Quarantine
        here is data, not file moves, so the deterministic analogue is
        an ordinal suffix: two DIFFERENT docs deriving the same
        relative_path stay distinguishable in review_manifest.csv."""
        k = quarantined_names.get(rel)
        quarantined_names[rel] = (k or 0) + 1
        if k is None:
            return rel
        base, dot, ext = rel.rpartition(".")
        if dot and base:
            return f"{base}_{k}.{ext}"
        return f"{rel}_{k}"

    def text_blocks(index):
        """Write every row's manifest entry, txt file and run-CSV row;
        yield its text block for the combined chunks."""
        nonlocal n_txt, manifest_started
        for batch in outputs.iter_tables(final_sorted):
            for row in batch.to_pylist():
                # review manifest for every quarantined doc
                if row["quarantine"]:
                    new = not manifest_started and not os.path.exists(manifest_path)
                    with open(manifest_path, "a", newline="", encoding="utf-8") as fm:
                        w = csv.writer(fm)
                        if new:
                            w.writerow(["filename", "reason"])
                        rel = url_relative_path(row["url"], cfg.input_root)
                        w.writerow([disambiguate(rel), row["reason"]])
                    manifest_started = True
                if row["status"] not in RESULT_STATUSES:
                    continue  # NOISE / MANDATORY_REVIEW / LOW_DISK: no index row
                block = row["extracted_text"]
                txt_rel = row["txt_relative_path"]
                if block and txt_rel:
                    txt_path = os.path.join(out_dir, "txt", txt_rel)
                    os.makedirs(os.path.dirname(txt_path), exist_ok=True)
                    with open(txt_path, "w", encoding="utf-8", newline="") as f:
                        f.write(block)
                    n_txt += 1
                    yield block
                index.writerow(outputs.run_csv_row(row, cfg))

    with open(csv_path, "w", newline="", encoding="utf-8") as fcsv:
        combined_files = outputs.write_chunks(
            text_blocks(outputs.run_csv_writer(fcsv)), out_dir, cfg
        )

    return {
        "csv": csv_path,
        "n_txt_files": n_txt,
        "combined_files": combined_files,
        "review_manifest": manifest_path if manifest_started else "",
    }
