"""Atomic file writes shared by the run-file writer and the command line."""

from __future__ import annotations

import os
import tempfile


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write `data` to `path` via a same-directory temp file and os.replace."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
