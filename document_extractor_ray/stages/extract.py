"""Page-to-record extraction: the one per-batch kernel every plan runs.

``extract_pages`` turns a pages batch (PAGE_COLUMNS) into FINAL_SCHEMA
rows in two steps:

- ``route_primary`` sniffs every payload, explodes containers one level
  deep (child rows ``parent::child``) and runs the cheap routes to
  completion (txt / img / container-parent / noise / unsupported) plus
  pass 1 of the html cascade (``pass_pdf_txt.run`` analogue).  Rows that
  pass 1 rejects keep the internal PENDING status and their raw payload;
  every other row's payload is nulled out.
- ``stages.fallback.fallback_pending`` runs the OCR-A / OCR-B analogues
  on exactly the PENDING rows (G1 mapping: "stage k operates on
  ~accepted rows only", SURVEY.md §2.10) and drops the payload column.
"""

from __future__ import annotations

from typing import List, Optional

import pyarrow as pa

from document_extractor_ray.config import PipelineConfig
from document_extractor_ray.core import cascade, htmlx, records, sniff
from document_extractor_ray.stages.fallback import fallback_pending


def extract_pages(batch: pa.Table, cfg: PipelineConfig) -> pa.Table:
    """Pages batch -> FINAL_SCHEMA rows (route + pass 1 + fallback)."""
    return fallback_pending(route_primary(batch, cfg), cfg)


def route_primary(batch: pa.Table, cfg: PipelineConfig) -> pa.Table:
    """Fused routing + primary extraction: sniff, container-explode and
    pass-1 in a single stage, so the payload column is materialized
    into an intermediate Arrow table once instead of twice (the
    workload is memory-bandwidth bound at high parallelism — measured
    ~23% per-core throughput loss from 4 to 16 busy cores — so every
    avoided copy of the binary column is wall time)."""
    urls = batch["url"].to_pylist()
    htmls = batch["html"].to_pylist()
    texts = batch["text"].to_pylist() if "text" in batch.column_names else [""] * len(urls)

    recs: List[dict] = []
    keep_html: List[Optional[bytes]] = []

    def one(url: str, payload: bytes, text: str) -> None:
        kind = sniff.sniff_kind(payload)
        size = len(payload)
        if kind == sniff.KIND_CONTAINER:
            try:
                children = sniff.decode_container(payload)
            except Exception:
                res = cascade.DocResult(
                    status="ERROR",
                    pass_used="portfolio",
                    quarantine=True,
                    reason=cascade.QUARANTINE_RC1,
                    notes="decode error",
                )
                recs.append(records.assemble_record(url, kind, size, res, cfg))
                keep_html.append(None)
                return
            res = cascade.container_parent(len(children), cfg)
            recs.append(records.assemble_record(url, kind, size, res, cfg))
            keep_html.append(None)
            for name, child_payload in children:
                one(sniff.child_url(url, name), child_payload, "")
            return
        if kind == sniff.KIND_HTML:
            units = htmlx.split_pages(htmlx.decode_payload(payload))
            res = cascade.html_pass1(units, size, cfg)
            recs.append(records.assemble_record(url, kind, size, res, cfg))
            keep_html.append(payload if res.status == cascade.STATUS_PENDING else None)
            return
        res = cascade.process_any(kind, payload, text, cfg)
        recs.append(records.assemble_record(url, kind, size, res, cfg))
        keep_html.append(None)

    for url, payload, text in zip(urls, htmls, texts):
        one(url, payload or b"", text)

    out = records.records_to_table(recs)
    return out.append_column(
        pa.field("html", pa.binary()), pa.array(keep_html, pa.binary())
    )
