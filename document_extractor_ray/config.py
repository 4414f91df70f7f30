"""Frozen pipeline configuration.

Collapses the reference's env-var surface (``entrypoint.sh:24-42``,
``pass_pdf.py:92-97``, ``output_writer.py:72-75``) into one immutable
dataclass that is broadcast into every stage closure, so per-worker
state can never drift (the reference's per-process globals,
``pass_pdf_ocr_a.py:33-34``, are exactly the kind of silent divergence
this avoids).

Defaults follow the *deployed* cutoffs (``entrypoint.sh:37-40``:
TXT 0.75 / OCR-A 0.65 / OCR-B 0.55), not the code-level defaults
(0.80/0.70/0.60, ``pass_pdf.py:92-94``); both are reachable by
constructing a different config.

Size thresholds are test-scaled: 64 KiB / 50 units stand in for the
reference's 50 MB / 500 pages big-document switch
(``pass_pdf.py:95-96``); at production scale set them to the reference
values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class PipelineConfig:
    # --- cascade cutoffs (entrypoint.sh:37-40 deployed defaults) ---
    txt_cutoff: float = 0.75
    ocr_a_cutoff: float = 0.65
    ocr_b_cutoff: float = 0.55
    doc_cutoff: float = 0.75      # pass_doc.py:201 (PASS_DOC_CUTOFF)
    docx_cutoff: float = 0.70     # pass_doc.py:202 (PASS_DOCX_CUTOFF)

    # --- per-doc / per-page switch (pass_pdf.py:95-96, test-scaled) ---
    big_size_bytes: int = 64 * 1024   # stands in for BIGPDF_SIZE_LIMIT_MB=50
    big_page_limit: int = 50          # stands in for BIGPDF_PAGE_LIMIT=500

    # --- triage (common.py:216) ---
    triage_min_chars: int = 40
    triage_rel_cap: float = 0.15
    triage_sample_target: int = 6     # pass_pdf_txt.py:39 uses min(6, pages)

    # --- extraction heuristics (this rebuild's HTML analogue knobs) ---
    anchor_density_max: float = 0.5   # pass-1 drops lines > this link density
    line_keep_ratio_a: float = 0.5    # fallback-A keeps lines with alnum ratio >= this
    line_keep_ratio_b: float = 0.7    # fallback-B third strategy threshold

    # --- combined text chunking (output_writer.py:72-75) ---
    max_combined_bytes: int = 3_000_000

    # --- disk guard (pass_pdf.py:168-173; common.py:123). 0 disables. ---
    min_free_workdir_mb: int = 0
    work_dir: str = "/tmp"
    simulate_low_disk: bool = False   # test hook: force the LOW_DISK path

    # --- per-document soft timeout in the fallback stage (TODO.md:14
    #     wants one; the reference has none). None disables. ---
    doc_timeout_s: Optional[float] = None

    # --- determinism / identity ---
    # The reference stamps wall-clock UTC (output_writer.py:147); goldens
    # need a stable clock, so it is injected here.
    processed_at: str = "2026-01-01T00:00:00Z"
    run_id: str = "run-0001"
    input_root: str = "https://fixtures.test"  # INPUT_DIR analogue (output_writer.py:45)

    # --- distributed layout ---
    num_partitions: int = 64          # hash(url) % P resumable output partitioning
    dedup: bool = True                # exact dedup-first by url (idempotent re-runs)
    deterministic_order: bool = True  # final sort by url (goldens); off for raw throughput

    # --- per-stage tuning ---
    small_batch_size: int = 256       # pages per extract_pages batch (Dataset inputs)

    # --- stage enable flags (probe wrappers G6: pass_pdf_txt.sh:41-42 etc.) ---
    enable_txt_pass: bool = True
    enable_ocr_a: bool = True
    enable_ocr_b: bool = True

    # --- legacy huge-doc pagination (common_pdf.sh:57-61 G7: the extra
    #     total-chars criterion the Python reference dropped).  None
    #     disables (matching the Python reference's behavior). ---
    big_char_limit: Optional[int] = None

    def with_(self, **kw) -> "PipelineConfig":
        return replace(self, **kw)

    @classmethod
    def from_env(cls, env=None) -> "PipelineConfig":
        """Env-var config surface (F9): mirrors the reference's
        _env_float/_env_int semantics (pass_pdf.py:41-51 — default on
        ANY parse error) over the deployed variable names
        (entrypoint.sh:37-42)."""
        import os

        env = os.environ if env is None else env
        d = cls()

        def _f(name, default):
            try:
                return float(env.get(name, str(default)))
            except Exception:
                return default

        def _i(name, default):
            try:
                return int(env.get(name, str(default)))
            except Exception:
                return default

        return cls(
            txt_cutoff=_f("PASS_TXT_CUTOFF", d.txt_cutoff),
            ocr_a_cutoff=_f("PASS_OCR_A_CUTOFF", d.ocr_a_cutoff),
            ocr_b_cutoff=_f("PASS_OCR_B_CUTOFF", d.ocr_b_cutoff),
            doc_cutoff=_f("PASS_DOC_CUTOFF", d.doc_cutoff),
            docx_cutoff=_f("PASS_DOCX_CUTOFF", d.docx_cutoff),
            big_size_bytes=_i("BIGDOC_SIZE_LIMIT_BYTES", d.big_size_bytes),
            big_page_limit=_i("BIGDOC_PAGE_LIMIT", d.big_page_limit),
            max_combined_bytes=_i("MAX_COMBINED_BYTES", d.max_combined_bytes),
            min_free_workdir_mb=_i("MIN_FREE_WORKDIR_MB", d.min_free_workdir_mb),
            work_dir=env.get("WORK_DIR", d.work_dir),
            run_id=env.get("RUN_ID", d.run_id),
            input_root=env.get("INPUT_ROOT", d.input_root),
            num_partitions=_i("NUM_PARTITIONS", d.num_partitions),
        )


DEFAULT_CONFIG = PipelineConfig()

# Pass names: HTML-world analogues of the reference's pass_used values
# (README.md:97: pdf_text / pdf_ocr_a / pdf_ocr_b / txt / img_ocr).
PASS_HTML_TEXT = "html_text"     # pdf_text analogue (native text layer)
PASS_HTML_OCR_A = "html_ocr_a"   # pdf_ocr_a analogue (aggressive recovery)
PASS_HTML_OCR_B = "html_ocr_b"   # pdf_ocr_b analogue (multi-strategy argmax)
PASS_TXT = "txt"                 # pass_txt.py
PASS_IMG = "img_ocr"             # pass_img.py
PASS_PORTFOLIO = "portfolio"     # portfolio_unpack.py container parent

STATUS_OK = "OK"
STATUS_ERROR = "ERROR"
STATUS_REVIEW = "MANDATORY_REVIEW"
STATUS_CONTAINER = "CONTAINER"
STATUS_NOISE = "NOISE"
STATUS_LOW_DISK = "LOW_DISK"
STATUS_TIMEOUT = "TIMEOUT"
