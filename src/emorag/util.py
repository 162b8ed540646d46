"""Small shared helpers."""

from __future__ import annotations

import logging
import os
import tempfile
from pathlib import Path

log = logging.getLogger("emorag")


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file in the same directory.

    The final ``os.replace`` is atomic on POSIX, so readers never observe a
    half-written artifact.  The temp file is cleaned up on failure.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def configure_logging() -> None:
    """Set the ``emorag`` logger's level from ``EMORAG_LOG``, if present."""
    level = os.environ.get("EMORAG_LOG")
    if not level:
        return
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        return
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(numeric)
