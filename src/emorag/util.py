"""Small shared helpers.

Every artifact the package writes goes through :func:`atomic_write_bytes`, the
one writer: a saver hands it its file as pieces (a header, then arrays or
memoryviews of the data it holds), so no payload is copied or joined on its way
to disk.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, FormatError, InvalidParameterError, NonFiniteValueError

log = logging.getLogger("emorag")


def frozen_copy(values, dtype, ndim: int, what: str) -> np.ndarray:
    """A private read-only ``dtype`` copy of ``values``, which must be ``ndim``-D with a
    non-empty last axis (:class:`DimensionMismatchError`) and finite (:class:`NonFiniteValueError`)."""
    arr = np.array(values, dtype=dtype)
    if arr.ndim != ndim or arr.shape[-1] == 0:
        raise DimensionMismatchError(f"{what} must be {ndim}-D with a non-empty last axis, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValueError(f"{what} contains NaN or infinity")
    arr.flags.writeable = False
    return arr


def is_whole(value, least: int) -> bool:
    """Whether ``value`` is a Python or numpy integer >= ``least``; a bool, float or string is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def whole(value, least: int, what: str) -> int:
    """``value`` as an ``int`` if :func:`is_whole`, else :class:`InvalidParameterError` naming ``what``."""
    if not is_whole(value, least):
        raise InvalidParameterError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def seeded_rng(seed) -> np.random.Generator:
    """The generator of ``seed``, which must be a whole number >= 0 (see :func:`whole`)."""
    return np.random.default_rng(whole(seed, 0, "seed"))


def read_json(path, what: str):
    """The JSON value in the file at ``path``; :class:`FormatError` naming ``what`` if it is not UTF-8 JSON."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{what} is not valid JSON: {exc}") from None


def atomic_write_bytes(path: str | os.PathLike, pieces) -> None:
    """Write the bytes-like ``pieces`` to ``path`` in order, streamed through one file.

    They go to a new file under a random name in the same directory, created as
    ``open(path, "wb")`` creates one (mode 0o666 less the umask), and the final
    ``os.replace`` is atomic on POSIX, so readers never observe a half-written
    artifact.  The pieces are never joined, and the temp file is removed on failure.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    atomic_write_bytes(path, [text.encode("utf-8")])


def configure_logging() -> None:
    """Set the ``emorag`` logger's level from ``EMORAG_LOG``, if present: a level name in any
    case or a whole number.  Any other value leaves logging off and writes one warning to stderr."""
    level = os.environ.get("EMORAG_LOG")
    if not level:
        return
    numeric = int(level) if level.isdecimal() else getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        print(f"warning: EMORAG_LOG={level!r} is not a logging level; logging stays off", file=sys.stderr)
        return
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    log.setLevel(numeric)
