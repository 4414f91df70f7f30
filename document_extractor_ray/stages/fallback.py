"""Fallback extraction — the OCR-A / OCR-B analogue passes
(``pass_pdf_ocr_a.py`` / ``pass_pdf_ocr_b.py``).

Only rows in the internal PENDING state are recomputed; everything
else passes through untouched (zero-copy Arrow filter + concat).  The
per-process state the passes need (compiled regexes in htmlx, the
unicode alnum lookup table) is module-level, so a worker process pays
for it once however many batches it runs — the ST1/ST2/ST5
amortization that the reference pays per *page* via tesseract
subprocess spawns (``common.py:398-417``).  The per-document soft
timeout (``cfg.doc_timeout_s``) marks overrunning documents TIMEOUT
instead of stalling the block — the reference lacks this
(``TODO.md:14``).
"""

from __future__ import annotations

import time
from typing import List

import pyarrow as pa
import pyarrow.compute as pc

from document_extractor_ray.config import STATUS_TIMEOUT, PipelineConfig
from document_extractor_ray.core import cascade, htmlx, records


def make_fallback_fn(cfg: PipelineConfig):
    """``batch -> batch`` closure over ``fallback_pending`` for cfg."""

    def fallback_fn(batch: pa.Table) -> pa.Table:
        return fallback_pending(batch, cfg)

    return fallback_fn


def fallback_pending(batch: pa.Table, cfg: PipelineConfig) -> pa.Table:
    """route_primary output -> FINAL_SCHEMA rows: run the fallback
    cascade on PENDING rows, drop the retained payload column."""
    pending_mask = pc.equal(batch["status"], cascade.STATUS_PENDING)
    n_pending = pc.sum(pc.cast(pending_mask, pa.int64())).as_py() or 0

    done = batch.filter(pc.invert(pending_mask)).drop_columns(["html"])
    if n_pending == 0:
        return done

    pend = batch.filter(pending_mask)
    urls = pend["url"].to_pylist()
    htmls = pend["html"].to_pylist()
    kinds = pend["doc_kind"].to_pylist()
    sizes = pend["size_bytes"].to_pylist()
    modes = pend["mode"].to_pylist()

    recs: List[dict] = []
    for url, payload, kind, size, mode in zip(urls, htmls, kinds, sizes, modes):
        start = time.monotonic()
        units = htmlx.split_pages(htmlx.decode_payload(payload or b""))
        res = cascade.html_fallback(units, mode, cfg)
        if (
            cfg.doc_timeout_s is not None
            and time.monotonic() - start > cfg.doc_timeout_s
        ):
            res = cascade.DocResult(
                status=STATUS_TIMEOUT,
                pass_used=res.pass_used,
                used_ocr=True,
                mode=mode,
                quarantine=True,
                reason=cascade.QUARANTINE_RC1,
                notes="timeout",
            )
        recs.append(records.assemble_record(url, kind, size, res, cfg))

    out = records.records_to_table(recs)
    return pa.concat_tables([done, out], promote_options="none")
