"""Typed emotion-embedding store and its binary on-disk format.

A database is an ordered collection of utterance records.  Each record pairs a
fixed-dimension emotion embedding (float32) with an emotion label, a discrete
intensity level, and optional transcript / audio-reference metadata.

In memory a database is columns, and columns are the only row representation:
a read-only float32 embedding matrix, u8 intensity codes, and tuples of ids,
labels, transcripts and audio refs.  A database owns a private copy of its
matrix, so a caller's array never changes the rows behind its fingerprint.
Row ``i`` of every column is record ``i``; :meth:`EmbeddingDatabase.position`
maps an id to its row.  Unit rows are float64 and built by one routine,
:func:`unit_rows`, which gathers them from the f32 matrix in any row order.
:func:`grouped_rows` groups them by ``k * intensity code + cluster``, so a run
of levels is one range; a cluster index's inverted lists are such a copy, and
:attr:`EmbeddingDatabase.level_rows` its ``k = 1`` case.  A query reads one of
them, and no position-order unit matrix is kept.

On-disk layout (little-endian throughout)::

    magic   4 bytes  b"EMDB"
    version u32      currently 1
    dim     u32      embedding dimension
    count   u32      number of records
    then per record:
        id          u16 length + UTF-8 bytes
        label       u16 length + UTF-8 bytes
        intensity   u8   (0 = weak, 1 = normal, 2 = strong)
        transcript  u16 length + UTF-8 bytes (length may be 0)
        audio_ref   u8 flag; if 1, u16 length + UTF-8 bytes
        vector      dim * f32

An empty database is exactly the 16-byte header.  Serialization is canonical:
the same database always produces the same bytes, which is what makes the
sha256 fingerprint below meaningful.  Every file the reader accepts is
canonical too (strict UTF-8, flags 0/1, codes 0-2, f32 bits copied verbatim, no
trailing bytes), so a loaded database's fingerprint is the sha256 of the bytes
it was read from; :func:`save_db` streams the pieces a built one hashes to the
one writer.  EMIX index files share the header's layout (:data:`HEADER`);
:class:`HeaderedFile` checks it and bounds every read of either format's body.
"""

from __future__ import annotations

import enum
import hashlib
import operator
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateIdError,
    FormatError,
    InvalidIntensityError,
    MalformedHeaderError,
    NonFiniteValueError,
    ZeroNormError,
)
from .util import atomic_write_bytes, frozen_copy, is_whole, log, read_json

EMDB_MAGIC = b"EMDB"
EMDB_VERSION = 1
HEADER = struct.Struct("<4sIII")  # magic, version, two u32 sizes: EMDB dim, count; EMIX k, dim
_NORM_BLOCK_ROWS = 512  # rows gathered and squared at a time by unit_rows
_U16 = struct.Struct("<H")


class NamedEnum(enum.Enum):
    """An enum named by its lower-case values: :meth:`parse` takes a name in any case (a member
    is returned unchanged; an unknown name raises ``cls._unknown(text)``), ``str`` gives the value."""

    @classmethod
    def parse(cls, text):
        if isinstance(text, cls):
            return text
        try:
            return cls(str(text).lower())
        except ValueError:
            raise cls._unknown(text) from None

    def __str__(self) -> str:
        return self.value


class IntensityLevel(NamedEnum):
    """Discrete emotion-intensity levels, ordered weak < normal < strong."""

    WEAK = "weak"
    NORMAL = "normal"
    STRONG = "strong"

    @classmethod
    def _unknown(cls, text) -> InvalidIntensityError:
        return InvalidIntensityError(f"unknown intensity {text!r}; expected one of weak, normal, strong")

    @property
    def wire_code(self) -> int:
        return _LEVEL_TO_CODE[self]


_LEVEL_TO_CODE = {level: code for code, level in enumerate(IntensityLevel)}  # weak 0 .. strong 2


@dataclass(eq=False)
class EmotionEmbedding:
    """A finite float32 vector in emotion space."""

    values: np.ndarray

    def __post_init__(self):
        self.values = frozen_copy(self.values, np.float32, 1, "embedding")

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


def _check_text(column: tuple, what: str, allowed: set, required: bool) -> None:
    """FormatError naming the first entry whose type is not ``allowed``, or is empty."""
    if set(map(type, column)) <= allowed and not (required and "" in column):
        return
    pos = next(i for i, v in enumerate(column) if type(v) not in allowed or (required and v == ""))
    raise FormatError(f"record at position {pos}: invalid {what} {column[pos]!r}")


@dataclass(eq=False)
class EmbeddingDatabase:
    """Ordered, immutable-by-convention records of one dimension, held in columns.

    Row ``i`` of every column belongs to record ``i``; the columns are the only
    way to build and read rows, and ``__post_init__`` is the store's one
    validator.  The fingerprint (a loaded one is its file's, taken on reading) and the
    level-grouped unit rows are cached; :attr:`unit_matrix` is computed anew by each access.
    Sharing a database across threads for reads is fine.  ``dim`` is a Python
    or numpy integer >= 1; anything else, a bool or float included, raises
    :class:`DimensionMismatchError`.
    """

    dim: int
    matrix: np.ndarray
    intensity_codes: np.ndarray
    ids: tuple
    labels: tuple
    transcripts: tuple
    audio_refs: tuple

    def __post_init__(self):
        if not is_whole(self.dim, 1):
            raise DimensionMismatchError(f"dim must be a positive integer, got {self.dim!r}")
        self.dim = operator.index(self.dim)
        self.ids, self.labels = tuple(self.ids), tuple(self.labels)
        self.transcripts, self.audio_refs = tuple(self.transcripts), tuple(self.audio_refs)
        n = len(self.ids)
        m = np.array(self.matrix, dtype=np.float32)  # private, so the cached fingerprint stays true
        if m.size == 0:
            m = m.reshape(0, self.dim)
        raw = np.asarray(self.intensity_codes)
        codes = raw.astype(np.uint8)
        lengths = {len(self.labels), len(self.transcripts), len(self.audio_refs), len(codes)}
        if codes.ndim != 1 or lengths != {n}:
            raise FormatError(f"columns disagree on the record count ({n} ids)")
        if m.shape != (n, self.dim):
            raise DimensionMismatchError(f"embeddings are {m.shape}, expected ({n}, {self.dim})")
        bad = np.flatnonzero(~np.isfinite(m).all(axis=1))
        if bad.size:
            raise NonFiniteValueError(f"record {self.ids[bad[0]]!r}: vector is not finite")
        bad = np.flatnonzero((codes != raw) | (codes > 2))  # the u8 cast wraps 258 to 2
        if bad.size:
            raise InvalidIntensityError(f"record {self.ids[bad[0]]!r}: intensity code {raw[bad[0]]}")
        _check_text(self.ids, "id", {str}, True)
        _check_text(self.labels, "emotion_label", {str}, True)
        _check_text(self.transcripts, "transcript", {str}, False)
        _check_text(self.audio_refs, "audio_ref", {str, type(None)}, False)
        self._position = dict(zip(self.ids, range(n)))
        if len(self._position) != n:
            dup = next(rid for pos, rid in enumerate(self.ids) if self._position[rid] != pos)
            raise DuplicateIdError(f"duplicate record id {dup!r}")
        m.flags.writeable = False
        codes.flags.writeable = False
        self.matrix, self.intensity_codes = m, codes
        self._level_counts = np.bincount(codes, minlength=3).tolist()  # records per level, weak first
        self._fingerprint = self._level_rows = None
        self._gate = None  # (parent, level) on a subset that filter_by_intensity cut

    def __len__(self) -> int:
        return len(self.ids)

    def position(self, record_id: str) -> int:
        """Row of the record with id ``record_id``; :class:`KeyError` if there is none."""
        try:
            return self._position[record_id]
        except KeyError:
            raise KeyError(f"no record with id {record_id!r}") from None

    @property
    def unit_matrix(self) -> np.ndarray:
        """Row-normalized float64 copy of :attr:`matrix`, :func:`unit_rows` in position order.

        Computed anew by every access and not held: retrieval scans the grouped
        copies instead.  Raises :class:`ZeroNormError` naming the first offending
        record if any stored embedding has zero norm; a database is allowed to
        *hold* such records as long as nobody asks for directions.
        """
        return unit_rows(self, np.arange(len(self)))

    @property
    def level_rows(self) -> tuple:
        """:func:`grouped_rows` with ``k = 1``, cached, read by queries without a cluster index:
        level ``code`` is rows ``offsets[code]:offsets[code + 1]``, in ascending position."""
        if self._level_rows is None:
            # one tuple, published at once: a racing thread sees all of it or none
            self._level_rows = grouped_rows(self, 0, 1)
            log.debug("level rows: %d weak, %d normal, %d strong of %d records", *self._level_counts, len(self))
        return self._level_rows

    @property
    def fingerprint(self) -> bytes:
        """sha256 digest of the canonical serialized bytes (32 bytes), cached: a loaded
        database's is its file's, taken when read; one built in memory hashes its pieces."""
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for piece in _emdb_pieces(self):
                digest.update(piece)
            self._fingerprint = digest.digest()
        return self._fingerprint


def unit_rows(db: EmbeddingDatabase, order: np.ndarray) -> np.ndarray:
    """``db.matrix[order]`` as read-only float64 rows of unit norm, one C-contiguous array.

    The rows are gathered from the f32 matrix and squared a block of rows at a
    time, then divided in place: no second f64 matrix, even for a moment.  A
    row's bits are ``np.linalg.norm``'s and do not depend on its neighbours.  A
    zero-norm row raises :class:`ZeroNormError` naming the record at the lowest
    position among them, whatever ``order`` is.
    """
    rows = np.empty((len(order), db.dim))
    norms = np.empty(len(order))
    for lo in range(0, len(order), _NORM_BLOCK_ROWS):
        hi = lo + _NORM_BLOCK_ROWS
        block = rows[lo:hi]
        block[...] = db.matrix[order[lo:hi]]
        np.sqrt(np.add.reduce(block * block, axis=1), out=norms[lo:hi])
    bad = order[norms == 0.0]
    if bad.size:
        raise ZeroNormError(f"record {db.ids[int(bad.min())]!r} has zero-norm embedding")
    rows /= norms[:, None]  # in place
    rows.flags.writeable = False
    return rows


def grouped_rows(db: EmbeddingDatabase, clusters, k: int) -> tuple:
    """``(order, offsets, rows)``, read-only: ``order`` is the stable argsort of the key
    ``k * intensity code + clusters`` (each in ``[0, k)``; an array, or 0), so block ``b`` is
    ``order[offsets[b]:offsets[b + 1]]`` in ascending position and levels ``[first, last)`` are
    rows ``offsets[k * first]:offsets[k * last]``; ``rows`` is :func:`unit_rows` of ``db`` in that order."""
    keys = k * db.intensity_codes.astype(np.int64) + clusters
    order = np.argsort(keys, kind="stable")
    offsets = np.zeros(3 * k + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=3 * k), out=offsets[1:])
    rows = unit_rows(db, order)
    for a in (order, offsets):
        a.flags.writeable = False
    return order, offsets, rows


def filter_by_intensity(db: EmbeddingDatabase, level: IntensityLevel) -> EmbeddingDatabase:
    """Database of the records at ``level``, order preserved, built anew by every call.

    The subset records where it was cut from, ``(db, level)``, and retrieval
    answers it as ``db`` gated at ``level``: ``db``'s cluster index serves it, and
    without one it scans ``db``'s level rows.
    """
    level = IntensityLevel.parse(level)
    rows = np.flatnonzero(db.intensity_codes == level.wire_code).tolist()
    columns = (db.ids, db.labels, db.transcripts, db.audio_refs)
    picked = ([col[i] for i in rows] for col in columns)
    sub = EmbeddingDatabase(db.dim, db.matrix[rows], db.intensity_codes[rows], *picked)
    sub._gate = (db, level)
    return sub


# ---------------------------------------------------------------------------
# binary serialization


def _pack_str(text: str, what: str, rid: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError(f"{what} of record {rid!r} exceeds 65535 UTF-8 bytes")
    return _U16.pack(len(raw)) + raw


def _emdb_pieces(db: EmbeddingDatabase):
    """The EMDB v1 bytes of ``db`` in order, as pieces: each record's fields,
    then its vector as a memoryview of the matrix (no copy)."""
    yield HEADER.pack(EMDB_MAGIC, EMDB_VERSION, db.dim, len(db))
    vectors = memoryview(np.ascontiguousarray(db.matrix, dtype="<f4").reshape(-1).view(np.uint8))
    codes = db.intensity_codes.tobytes()
    step = 4 * db.dim
    for i, rid in enumerate(db.ids):
        audio = db.audio_refs[i]
        fields = (
            _pack_str(rid, "id", rid),
            _pack_str(db.labels[i], "label", rid),
            codes[i : i + 1],
            _pack_str(db.transcripts[i], "transcript", rid),
            b"\x00" if audio is None else b"\x01" + _pack_str(audio, "audio_ref", rid),
        )
        yield b"".join(fields)
        yield vectors[i * step : (i + 1) * step]


def serialize_db(db: EmbeddingDatabase) -> bytes:
    return b"".join(_emdb_pieces(db))


def save_db(db: EmbeddingDatabase, path) -> None:
    atomic_write_bytes(path, _emdb_pieces(db))


class HeaderedFile:
    """An EMDB or EMIX file read forward after its :data:`HEADER`, whose two sizes are ``sizes``.

    A short header, another magic or version: :class:`MalformedHeaderError`.  A read past
    the end, or bytes left at :meth:`finish`: :class:`FormatError`, its text built only then.
    """

    def __init__(self, data: bytes, magic: bytes, version: int):
        if len(data) < HEADER.size:
            raise MalformedHeaderError(f"file too short for header: {len(data)} bytes, need {HEADER.size}")
        got, got_version, *self.sizes = HEADER.unpack_from(data, 0)
        if got != magic:
            raise MalformedHeaderError(f"bad magic {got!r}, expected {magic!r}")
        if got_version != version:
            raise MalformedHeaderError(f"unsupported version {got_version}")
        self.data, self.pos = data, HEADER.size

    def take(self, n: int, what: str) -> bytes:
        """The next ``n`` bytes, as a slice of the file's ``bytes``."""
        pos = self.pos
        if pos + n > len(self.data):
            raise FormatError(f"truncated file: ran out of bytes reading {what}")
        self.pos = pos + n
        return self.data[pos : pos + n]

    def finish(self, what: str) -> None:
        if self.pos != len(self.data):
            raise FormatError(f"{len(self.data) - self.pos} trailing bytes after {what}")


def deserialize_db(data: bytes) -> EmbeddingDatabase:
    body = HeaderedFile(data, EMDB_MAGIC, EMDB_VERSION)
    dim, count = body.sizes
    if dim == 0:
        raise MalformedHeaderError("header dim must be positive")
    take = body.take

    def string(what: str) -> str:
        return take(_U16.unpack(take(2, what))[0], what).decode("utf-8")

    vec_bytes = 4 * dim
    # at most as many rows as the remaining bytes can hold, so that a header
    # claiming more records than the file has allocates no more than the file
    matrix = np.empty((min(count, (len(data) - body.pos) // vec_bytes), dim), dtype="<f4")
    rows, view = memoryview(matrix.reshape(-1).view(np.uint8)), memoryview(data)
    ids, labels, codes, transcripts, audio_refs = [], [], [], [], []
    try:
        for i in range(count):
            rid = string("id")
            labels.append(string("label"))
            codes.append(take(1, "intensity")[0])
            transcripts.append(string("transcript"))
            flag = take(1, "audio_ref flag")[0]
            if flag not in (0, 1):
                raise FormatError(f"audio_ref flag must be 0 or 1, got {flag}")
            audio_refs.append(string("audio_ref") if flag else None)
            pos = body.pos
            if pos + vec_bytes > len(data):
                have = (len(data) - pos) // 4
                raise DimensionMismatchError(
                    f"record {rid!r}: vector data ends early ({have} of {dim} floats present)"
                )
            rows[i * vec_bytes : (i + 1) * vec_bytes] = view[pos : pos + vec_bytes]
            body.pos = pos + vec_bytes
            ids.append(rid)
    except (FormatError, UnicodeDecodeError) as exc:  # the latter from a string field
        raise FormatError(f"record {i}: {exc}") from None
    body.finish("the last record")
    db = EmbeddingDatabase(dim, matrix, codes, ids, labels, transcripts, audio_refs)
    db._fingerprint = hashlib.sha256(data).digest()  # the bytes parsed are canonical
    return db


def load_db(path) -> EmbeddingDatabase:
    return deserialize_db(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# JSON manifest import


def json_vector(values, what: str) -> np.ndarray:
    """A JSON embedding as float32; :class:`FormatError` for a string, boolean or other non-number."""
    if isinstance(values, list) and (bad := [v for v in values if isinstance(v, (str, bool))]):
        raise FormatError(f"{what} holds non-numeric value {bad[0]!r}")
    try:
        return np.asarray(values, dtype=np.float32)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{what} holds non-numeric values: {exc}") from None


def load_manifest(path, dim: int | None = None) -> EmbeddingDatabase:
    """Build a database from a JSON manifest.

    The manifest is either a list of record objects or ``{"dim": N,
    "records": [...]}``.  Each record needs ``id``, ``emotion_label``,
    ``intensity`` and ``embedding``; ``transcript`` and ``audio_ref`` are
    optional.  ``dim`` (argument or manifest key) is required only when the
    record list is empty, otherwise it is validated against the data.
    """
    payload = read_json(path, "manifest")
    if isinstance(payload, dict):
        entries = payload.get("records")
        if entries is None:
            raise FormatError("manifest object must contain a 'records' list")
        if dim is None and "dim" in payload:
            dim = payload["dim"]
            if not is_whole(dim, 1):
                raise FormatError(f"manifest dim must be a positive integer, got {dim!r}")
    elif isinstance(payload, list):
        entries = payload
    else:
        raise FormatError("manifest must be a JSON list or object")

    ids, labels, codes, vectors, transcripts, audio_refs = [], [], [], [], [], []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise FormatError(f"manifest entry {i} is not an object")
        missing = [k for k in ("id", "emotion_label", "intensity", "embedding") if k not in entry]
        if missing:
            raise FormatError(f"manifest entry {i} is missing keys: {', '.join(missing)}")
        for key in ("emotion_label", "transcript"):
            if entry.get(key, "") is None:
                raise FormatError(f"manifest entry {entry['id']!r}: {key} is null")
        vec = json_vector(entry["embedding"], f"manifest entry {entry['id']!r}: embedding")
        if dim is None and vec.ndim == 1 and vec.size:
            dim = vec.size
        if vec.shape != (dim,):
            raise DimensionMismatchError(
                f"manifest entry {entry['id']!r} has shape {vec.shape}, expected ({dim},)"
            )
        ids.append(str(entry["id"]))
        labels.append(str(entry["emotion_label"]))
        codes.append(IntensityLevel.parse(entry["intensity"]).wire_code)
        vectors.append(vec)
        transcripts.append(str(entry.get("transcript", "")))
        audio_refs.append(entry.get("audio_ref"))
    if dim is None:
        raise FormatError("empty manifest requires an explicit dim")
    return EmbeddingDatabase(dim, vectors, codes, ids, labels, transcripts, audio_refs)
