"""The extraction cascade — pure per-document semantics.

Mirrors the reference's control flow exactly:

- ``run_txt_pass``  == ``pass_pdf_txt.run``   (pass_pdf_txt.py:33-69,
  including the sampled-page scan-only triage at lines 37-51)
- ``run_ocr_a``     == ``pass_pdf_ocr_a.run`` (pass_pdf_ocr_a.py:124-155)
- ``run_ocr_b``     == ``pass_pdf_ocr_b.run`` (pass_pdf_ocr_b.py:133-165)
- ``html_pass1`` / ``html_fallback`` / ``process_html`` == the
  orchestration in ``pass_pdf.py:84-270`` (mode switch at 108-110,
  forced per-page at 163-166, low-disk guard at 168-173, per-pass
  accept payload handling at 120-146/183-200/226-243, the all-fail
  ERROR row at 257-270)
- ``process_txt``   == ``pass_txt.main``      (pass_txt.py:21-59)
- ``process_img``   == ``pass_img.main``      (pass_img.py:87-137,
  variant argmax at 23-77)

The Ray stages call ``html_pass1`` (``route_primary``) and
``html_fallback`` (``fallback_pending``) on masked rows; the sequential
oracle calls ``process_html`` — which is literally pass1 + fallback —
so pipeline and oracle agree byte-for-byte by construction.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from document_extractor_ray.config import (
    PASS_HTML_OCR_A,
    PASS_HTML_OCR_B,
    PASS_HTML_TEXT,
    PASS_IMG,
    PASS_PORTFOLIO,
    PASS_TXT,
    STATUS_CONTAINER,
    STATUS_ERROR,
    STATUS_LOW_DISK,
    STATUS_OK,
    PipelineConfig,
)
from document_extractor_ray.core import htmlx, sniff
from document_extractor_ray.core.scoring import (
    likely_scan_only,
    median,
    sample_page_indices,
    score_reliability,
)

STATUS_PENDING = "PENDING"  # internal: pass-1 rejected, awaiting fallback

QUARANTINE_RC1 = "pass rc=1"  # process_run.py:200 reason string


def _safe_float(value, default: float = 0.0) -> float:
    """Mirror pass_pdf.py:53-60."""
    try:
        if value is None:
            return default
        return float(value)
    except (TypeError, ValueError):
        return default


def _coerce_text(value) -> str:
    """Mirror pass_pdf.py:62-69."""
    if value is None:
        return ""
    try:
        return str(value)
    except Exception:
        return ""


@dataclass
class DocResult:
    """Per-document outcome — the pass-result payload IR re-typed
    (SURVEY.md §1.1 'Pass result payload')."""

    status: str = STATUS_OK
    pass_used: str = ""
    used_ocr: bool = False
    score: float = 0.0
    mode: str = "per-doc"
    pages: List[Tuple[int, str]] = field(default_factory=list)
    page_rels: List[float] = field(default_factory=list)
    page_labels: List[str] = field(default_factory=list)  # img frames only
    quarantine: bool = False
    reason: str = ""
    notes: str = ""
    n_children: int = 0


# ---------------------------------------------------------------------------
# Pass modules (pure mirrors of pass_pdf_txt / pass_pdf_ocr_a / pass_pdf_ocr_b)
# ---------------------------------------------------------------------------

def run_txt_pass(units: List[str], mode: str, cutoff: float, cfg: PipelineConfig):
    """pass_pdf_txt.run mirror.  units = page html strings."""
    total_pages = len(units)

    # Extract every page once (extract_visible is pure: the reference
    # extracts sampled pages for triage and then re-extracts them in
    # the full pass, pass_pdf_txt.py:37-54 — same bytes, double work;
    # here the triage reads from the single extraction).
    extracted = [
        htmlx.extract_visible(unit, cfg.anchor_density_max) or "" for unit in units
    ]

    # Triage (pass_pdf_txt.py:37-51): sampled pages, reject to OCR when
    # clearly scan-only.
    sample_idxs = sample_page_indices(total_pages, target=min(6, total_pages))
    samples = [extracted[i - 1] for i in sample_idxs]
    if likely_scan_only(samples, cfg.triage_min_chars, cfg.triage_rel_cap):
        return (False, None)

    # Full extraction scoring (pass_pdf_txt.py:20-31 _per_page)
    pages = []
    for i, text in enumerate(extracted):
        rel = score_reliability(text)
        pages.append({"page": i + 1, "text": text, "reliability": rel})

    if mode == "per-page":
        med = median([p["reliability"] for p in pages]) if pages else 0.0
        if med >= cutoff:
            return (True, {"pages": pages})
        return (False, None)

    doc_text = "\n".join(p["text"] for p in pages)
    med = median([p["reliability"] for p in pages]) if pages else 0.0
    if med >= cutoff:
        return (True, {"text": doc_text, "reliability": med})
    return (False, None)


def run_ocr_a(units: List[str], mode: str, cutoff: float, cfg: PipelineConfig):
    """pass_pdf_ocr_a.run mirror (per-page rows, median gate)."""
    rows = []
    for i, unit in enumerate(units):
        try:
            text = htmlx.extract_aggressive(unit, cfg.line_keep_ratio_a) or ""
            rel = score_reliability(text)
        except Exception:
            text, rel = "", 0.0  # pass_pdf_ocr_a.py:129-133 degradation
        rows.append({"page": i + 1, "text": text, "reliability": rel})
    med = median([r["reliability"] for r in rows]) if rows else 0.0
    if mode == "per-page":
        if med >= cutoff:
            return (True, {"pages": rows})
        return (False, None)
    if med >= cutoff:
        doc_text = "\n".join(r["text"] for r in rows)
        return (True, {"text": doc_text, "reliability": med})
    return (False, None)


def run_ocr_b(units: List[str], mode: str, cutoff: float, cfg: PipelineConfig):
    """pass_pdf_ocr_b.run mirror (strategy argmax per page, median gate)."""
    rows = []
    for i, unit in enumerate(units):
        try:
            text, rel = htmlx.extract_best(
                unit, cfg.line_keep_ratio_a, cfg.line_keep_ratio_b
            )
        except Exception:
            text, rel = "", 0.0
        rows.append({"page": i + 1, "text": text, "reliability": rel})
    med = median([r["reliability"] for r in rows]) if rows else 0.0
    if mode == "per-page":
        if med >= cutoff:
            return (True, {"pages": rows})
        return (False, None)
    if med >= cutoff:
        doc_text = "\n".join(r["text"] for r in rows)
        return (True, {"text": doc_text, "reliability": med})
    return (False, None)


# ---------------------------------------------------------------------------
# Accept-payload handling (pass_pdf.py:120-146, repeated at 183-200, 226-243)
# ---------------------------------------------------------------------------

def _accept(payload: dict, mode: str, pass_used: str, used_ocr: bool) -> DocResult:
    if mode == "per-doc":
        pages = [(1, _coerce_text(payload.get("text")))]
        score = _safe_float(payload.get("reliability"), 0.0)
        rels = [score]
    else:
        page_rows = payload.get("pages") or []
        pages = [
            (int(row.get("page", 0)), _coerce_text(row.get("text"))) for row in page_rows
        ]
        rels = [_safe_float(row.get("reliability"), 0.0) for row in page_rows]
        if "reliability" in payload:
            score = _safe_float(payload.get("reliability"), 0.0)
        else:
            # per-page payloads carry no doc-level score -> max page rel
            # (pass_pdf.py:140-143)
            score = max(rels, default=0.0)
    return DocResult(
        status=STATUS_OK,
        pass_used=pass_used,
        used_ocr=used_ocr,
        score=score,
        mode=mode,
        pages=pages,
        page_rels=rels,
    )


def _low_disk(cfg: PipelineConfig) -> bool:
    """pass_pdf.py:168-173 guard.  Disabled when min_free_workdir_mb==0."""
    if cfg.simulate_low_disk:
        return True
    if cfg.min_free_workdir_mb <= 0:
        return False
    try:
        usage = shutil.disk_usage(cfg.work_dir)
        free_mb = int(usage.free / (1024 * 1024))
    except Exception:
        return False  # unknown -> permissive (common.py:131-132)
    return 0 <= free_mb < cfg.min_free_workdir_mb


# ---------------------------------------------------------------------------
# Orchestration (pass_pdf.py main)
# ---------------------------------------------------------------------------

def initial_mode(
    size_bytes: int,
    total_pages: int,
    cfg: PipelineConfig,
    total_chars: Optional[int] = None,
) -> str:
    """pass_pdf.py:108-110 big-document switch (test-scaled thresholds).

    cfg.big_char_limit (None default) additionally enables the legacy
    total-chars pagination criterion the Python reference dropped
    (common_pdf.sh:57-61 should_paginate, G7)."""
    if size_bytes >= cfg.big_size_bytes or total_pages >= cfg.big_page_limit:
        return "per-page"
    if (
        cfg.big_char_limit is not None
        and total_chars is not None
        and total_chars >= cfg.big_char_limit
    ):
        return "per-page"
    return "per-doc"


def html_pass1(units: List[str], size_bytes: int, cfg: PipelineConfig) -> DocResult:
    """Stage-1 of the cascade.  Returns STATUS_PENDING on rejection
    (the masked fallback stage picks those rows up)."""
    total_chars = (
        sum(len(u) for u in units) if cfg.big_char_limit is not None else None
    )
    mode = initial_mode(size_bytes, len(units), cfg, total_chars)
    if cfg.enable_txt_pass:
        try:
            ok, payload = run_txt_pass(units, mode, cfg.txt_cutoff, cfg)
        except Exception as e:  # pass_pdf.py:116-118
            ok, payload = False, None
    else:
        ok, payload = False, None
    if ok and payload:
        return _accept(payload, mode, PASS_HTML_TEXT, used_ocr=False)
    # pass_pdf.py:163-166: force per-page once OCR is required
    return DocResult(status=STATUS_PENDING, mode="per-page", pass_used=PASS_HTML_TEXT)


def html_fallback(units: List[str], mode: str, cfg: PipelineConfig) -> DocResult:
    """Stages 2+3 (OCR-A then OCR-B) for rows pass-1 rejected."""
    # Low-disk guard before OCR (pass_pdf.py:168-173): exit 1, no CSV row.
    if _low_disk(cfg):
        return DocResult(
            status=STATUS_LOW_DISK,
            pass_used=PASS_HTML_TEXT,
            mode=mode,
            quarantine=True,
            reason=QUARANTINE_RC1,
            notes="LOW_DISK",
        )

    if cfg.enable_ocr_a:
        try:
            ok, payload = run_ocr_a(units, mode, cfg.ocr_a_cutoff, cfg)
        except Exception:
            ok, payload = False, None
        if ok and payload:
            return _accept(payload, mode, PASS_HTML_OCR_A, used_ocr=True)

    if cfg.enable_ocr_b:
        try:
            ok, payload = run_ocr_b(units, mode, cfg.ocr_b_cutoff, cfg)
        except Exception:
            ok, payload = False, None
        if ok and payload:
            return _accept(payload, mode, PASS_HTML_OCR_B, used_ocr=True)

    # All passes failed: ERROR row (pass_pdf.py:257-270) AND quarantine
    # (rc=1 -> process_run.py:198-203).
    return DocResult(
        status=STATUS_ERROR,
        pass_used=PASS_HTML_OCR_B,
        used_ocr=True,
        score=0.0,
        mode=mode,
        pages=[],
        quarantine=True,
        reason=QUARANTINE_RC1,
    )


def process_html(payload: bytes, cfg: PipelineConfig) -> DocResult:
    """Full cascade for one html document (oracle path; the Ray path
    composes html_pass1 + html_fallback identically)."""
    units = htmlx.split_pages(htmlx.decode_payload(payload))
    res = html_pass1(units, len(payload or b""), cfg)
    if res.status == STATUS_PENDING:
        res = html_fallback(units, res.mode, cfg)
    return res


# ---------------------------------------------------------------------------
# Other routes
# ---------------------------------------------------------------------------

def process_txt(text: Optional[str], cfg: PipelineConfig) -> DocResult:
    """pass_txt.main mirror: whole text is page 1; blank => ERROR but
    exit 0 (never quarantined)."""
    text = text or ""
    rel = score_reliability(text)
    pages = [(1, text)] if text.strip() else []
    status = STATUS_OK if pages else STATUS_ERROR
    return DocResult(
        status=status,
        pass_used=PASS_TXT,
        used_ocr=False,
        score=rel,
        mode="per-doc",
        pages=pages,
        page_rels=[rel] if pages else [],
    )


def _img_variants(frame_text: str, cfg: PipelineConfig) -> Tuple[str, float]:
    """pass_img.py:23-77 variant argmax analogue.

    Variant A (grayscale)  -> the frame text as-is.
    Variant B (threshold)  -> lines with alnum ratio >= keep_ratio_a.
    Strictly-greater comparison keeps variant A on ties."""
    best_text, best_rel = "", 0.0
    variant_a = frame_text
    lines = frame_text.split("\n")
    variant_b = "\n".join(
        ln for ln in lines if score_reliability(ln) >= cfg.line_keep_ratio_a
    )
    for cand in (variant_a, variant_b):
        rel = score_reliability(cand)
        if rel > best_rel:
            best_rel = rel
            best_text = cand
    return best_text or "", best_rel


def process_img(payload: bytes, cfg: PipelineConfig) -> DocResult:
    """pass_img.main mirror: one row per frame, page label '-' when a
    single frame, always exit 0 (status OK, never quarantined)."""
    # Tier-1 probe IS the decode (common.py:272-309 pdf_page_count
    # mirror; decoding twice would double the per-doc cost).  On
    # failure the tier-2 metadata probe (header count field) runs via
    # multiframe_frame_count — raise-if-both-fail semantics — but a
    # count without frame bodies still has nothing to extract, so the
    # doc quarantines either way.
    try:
        frames = sniff.decode_multiframe(payload)
    except Exception:
        try:
            sniff.multiframe_frame_count(payload)  # tier-2 metadata probe
        except Exception:
            pass
        return DocResult(
            status=STATUS_ERROR,
            pass_used=PASS_IMG,
            used_ocr=True,
            quarantine=True,
            reason=QUARANTINE_RC1,
            notes="decode error",
        )
    n = len(frames)
    pages, rels, labels = [], [], []
    for idx, frame in enumerate(frames):
        try:
            text, rel = _img_variants(frame, cfg)
        except Exception:
            text, rel = "", 0.0
        pages.append((idx + 1, text))
        rels.append(rel)
        labels.append(str(idx + 1) if n > 1 else "-")
    # Doc-level score: median of frame reliabilities.  Extension: the
    # reference's pass_img writes only 6-col rows (no index row,
    # pass_img.py:119-128); this rebuild also emits a results row so the
    # conservation invariant (every url exactly once) holds as data.
    return DocResult(
        status=STATUS_OK,
        pass_used=PASS_IMG,
        used_ocr=True,
        score=median(rels) if rels else 0.0,
        mode="per-frame",
        pages=pages,
        page_rels=rels,
        page_labels=labels,
        notes=f"frames={n}",
    )


def noise_result() -> DocResult:
    """Noise auto-delete (process_run.py:158-164): no CSV row, no
    quarantine — kept as a counted NOISE status row so no input is
    silently lost (R2 mapping, SURVEY.md §2.2)."""
    from document_extractor_ray.config import STATUS_NOISE

    return DocResult(status=STATUS_NOISE, pass_used="", mode="per-doc")


def unsupported_result() -> DocResult:
    """Unsupported quarantine (process_run.py:166-171): review manifest
    row with reason 'unsupported', no results row."""
    from document_extractor_ray.config import STATUS_REVIEW

    return DocResult(
        status=STATUS_REVIEW,
        pass_used="",
        mode="per-doc",
        quarantine=True,
        reason="unsupported",
    )


def _route_docx(payload, text, cfg):
    from document_extractor_ray.core.docpass import process_doc

    return process_doc("docx", payload, cfg)


def _route_doc(payload, text, cfg):
    from document_extractor_ray.core.docpass import process_doc

    return process_doc("doc", payload, cfg)


# Route registry — the pass-script plugin surface (SURVEY.md §2.12):
# the reference wires any ``pass_X.py <file> <csv> <log>`` into its
# router (process_run.py:174-192); here adding a format = registering a
# ``kind -> handler(payload, text, cfg) -> DocResult`` entry.
ROUTES = {
    sniff.KIND_HTML: lambda payload, text, cfg: process_html(payload, cfg),
    sniff.KIND_TXT: lambda payload, text, cfg: process_txt(text, cfg),
    sniff.KIND_IMG: lambda payload, text, cfg: process_img(payload, cfg),
    sniff.KIND_DOCX: _route_docx,
    sniff.KIND_DOC: _route_doc,
    sniff.KIND_NOISE: lambda payload, text, cfg: noise_result(),
}


def register_route(kind: str, handler) -> None:
    """Extension point: register a handler for a sniffed kind."""
    ROUTES[kind] = handler


def process_any(kind: str, payload: bytes, text: Optional[str], cfg: PipelineConfig) -> DocResult:
    """Route one non-container document by sniffed kind (R1/R4).
    Unknown kinds quarantine as unsupported (process_run.py:166-171)."""
    handler = ROUTES.get(kind)
    if handler is None:
        return unsupported_result()
    return handler(payload, text, cfg)


def container_parent(n_children: int, cfg: PipelineConfig) -> DocResult:
    """Portfolio parent row: kept as CONTAINER, not re-extracted
    (portfolio_unpack.py:124-177 stashes the parent away)."""
    return DocResult(
        status=STATUS_CONTAINER,
        pass_used=PASS_PORTFOLIO,
        used_ocr=False,
        score=0.0,
        mode="per-doc",
        pages=[],
        notes=f"children={n_children}",
        n_children=n_children,
    )
