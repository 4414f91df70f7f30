"""Combined-text chunk assignment — output_writer.py:62-116 semantics.

The reference appends each document block plus a break marker to
``<run>_all_text_###.txt``, starting a new chunk when the current file's
size plus the next document's bytes would exceed MAX_COMBINED_BYTES
(3,000,000 default); a document is never split across chunks.

The fit check compares ``current_size + doc_bytes <= max_bytes`` where
current_size already includes previously-written break markers
(``output_writer.py:100``) but the incoming document's own break marker
is not counted until the next check — this exact accounting is
reproduced here as a sequential prefix-sum (A7), run over (url, nbytes)
metadata in deterministic url order.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

DOCUMENT_BREAK = "----- DOCUMENT BREAK -----\n\n"
DOCUMENT_BREAK_BYTES = len(DOCUMENT_BREAK.encode("utf-8"))


def assign_chunks(
    doc_sizes: Iterable[int],
    max_bytes: int = 3_000_000,
    start: Tuple[int, int, bool] = (1, 0, True),
) -> Iterator[int]:
    """Yield a 1-based chunk id per document (in input order).

    doc_sizes are UTF-8 byte lengths of each document's text block
    (excluding the break marker, which is accounted exactly as the
    reference does via file size).  ``start`` is the state of the
    current chunk — (chunk id, bytes already in it, whether it is
    empty) — so a rerun continues the last chunk of an earlier run
    (output_writer.py:86-100)."""
    chunk_id, current_size, first_in_chunk = start
    for doc_bytes in doc_sizes:
        if not first_in_chunk and current_size + doc_bytes > max_bytes:
            chunk_id += 1
            current_size = 0
            first_in_chunk = True
        yield chunk_id
        current_size += doc_bytes + DOCUMENT_BREAK_BYTES
        first_in_chunk = False


def chunk_file_name(run_id: str, chunk_id: int) -> str:
    """'<parent>_all_text_###.txt' naming (output_writer.py:67, 90)."""
    return f"{run_id}_all_text_{chunk_id:03d}.txt"
