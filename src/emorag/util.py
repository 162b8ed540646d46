"""Small shared helpers."""

from __future__ import annotations

import ctypes
import functools
import json
import logging
import os
import tempfile
from pathlib import Path

from .errors import FormatError

log = logging.getLogger("emorag")


@functools.cache
def openblas_threads():
    """``(get_num_threads, set_num_threads)`` of the loaded OpenBLAS, or None; looked
    up on first call, not at import (numpy's wheel bundles ``libscipy_openblas64_``)."""
    maps = Path("/proc/self/maps")
    lines = maps.read_text().splitlines() if maps.exists() else []
    path = next((ln.split()[-1] for ln in lines if "blas" in ln.lower() and ".so" in ln), None)
    lib = path and ctypes.CDLL(path)
    for name in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}64_", "openblas_{}"):
        get, put = (getattr(lib, name.format(f), None) for f in ("get_num_threads", "set_num_threads"))
        if get and put:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def json_int(value, least: int) -> bool:
    """Whether ``value`` is a JSON integer of at least ``least`` (a bool or float is not)."""
    return type(value) is int and value >= least


def read_json(path, what: str):
    """The JSON value in the file at ``path``; :class:`FormatError` naming ``what`` if it is not UTF-8 JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{what} is not valid JSON: {exc}") from None


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
