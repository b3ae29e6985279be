"""Versioned pickle containers (legacy surface: see the snapshot tier).

Historically this module was the whole persistence story: pickle a
built method (or database) behind a magic + version prefix.  The
durable storage tier (:mod:`repro.storage.segments`,
:mod:`repro.storage.catalog`, :mod:`repro.storage.snapshot`) replaced
it as the public API — ``TemporalRankingEngine.snapshot(path)`` /
``repro.open(path)`` write catalog-tracked, mmap-able segments instead
of monolithic pickles.  The container format itself survives inside
the snapshot tier (index state that is not a flat array still pickles)
and for raw dataset files, via :func:`write_payload` /
:func:`read_payload`.
"""

from __future__ import annotations

import io
import pickle
from pathlib import Path
from typing import Any

from repro.core.errors import PersistenceError

__all__ = ["PersistenceError", "write_payload", "read_payload", "FORMAT_VERSION"]

#: Bump when on-disk layout changes incompatibly.
FORMAT_VERSION = 1
_MAGIC = b"REPRO-IDX"


def write_payload(path: str | Path, payload: Any) -> int:
    """Serialize any picklable object to a versioned container file.

    Returns the number of bytes written.  The file layout is::

        MAGIC (9 bytes) | version (2 bytes BE) | pickle payload
    """
    path = Path(path)
    buffer = io.BytesIO()
    buffer.write(_MAGIC)
    buffer.write(FORMAT_VERSION.to_bytes(2, "big"))
    pickle.dump(payload, buffer, protocol=pickle.HIGHEST_PROTOCOL)
    raw = buffer.getvalue()
    path.write_bytes(raw)
    return len(raw)


def read_payload(path: str | Path) -> Any:
    """Load an object previously written by :func:`write_payload`."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < len(_MAGIC) + 2 or not raw.startswith(_MAGIC):
        raise PersistenceError(f"{path} is not a repro index file")
    version = int.from_bytes(raw[len(_MAGIC) : len(_MAGIC) + 2], "big")
    if version != FORMAT_VERSION:
        raise PersistenceError(
            f"{path} has format version {version}, expected {FORMAT_VERSION}"
        )
    return pickle.loads(raw[len(_MAGIC) + 2 :])
