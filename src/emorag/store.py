"""Typed emotion-embedding store and its binary on-disk format.

A database is an ordered collection of utterance records.  Each record pairs a
fixed-dimension emotion embedding (float32) with an emotion label, a discrete
intensity level, and optional transcript / audio-reference metadata.

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
sha256 fingerprint below meaningful.
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
from dataclasses import dataclass, field
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
from .util import atomic_write_bytes

EMDB_MAGIC = b"EMDB"
EMDB_VERSION = 1
_HEADER = struct.Struct("<4sIII")


class IntensityLevel(enum.Enum):
    """Discrete emotion-intensity levels, ordered weak < normal < strong."""

    WEAK = "weak"
    NORMAL = "normal"
    STRONG = "strong"

    @classmethod
    def parse(cls, text: str) -> "IntensityLevel":
        try:
            return cls(str(text).lower())
        except ValueError:
            raise InvalidIntensityError(
                f"unknown intensity {text!r}; expected one of weak, normal, strong"
            ) from None

    @property
    def wire_code(self) -> int:
        return _LEVEL_TO_CODE[self]

    @classmethod
    def from_wire_code(cls, code: int) -> "IntensityLevel":
        try:
            return _CODE_TO_LEVEL[code]
        except KeyError:
            raise InvalidIntensityError(f"invalid intensity code {code}") from None

    def __str__(self) -> str:
        return self.value


_LEVEL_TO_CODE = {
    IntensityLevel.WEAK: 0,
    IntensityLevel.NORMAL: 1,
    IntensityLevel.STRONG: 2,
}
_CODE_TO_LEVEL = {v: k for k, v in _LEVEL_TO_CODE.items()}


@dataclass(eq=False)
class EmotionEmbedding:
    """A finite float32 vector in emotion space."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float32)
        if arr.ndim != 1:
            raise DimensionMismatchError(f"embedding must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise DimensionMismatchError("embedding must have at least one component")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValueError("embedding contains NaN or infinity")
        arr = arr.copy()
        arr.flags.writeable = False
        self.values = arr

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


def normalize_embedding(embedding: EmotionEmbedding) -> EmotionEmbedding:
    """Return the unit-norm version of ``embedding``.

    The norm is computed in float64 and the result is cast back to float32.
    Raises :class:`ZeroNormError` for the zero vector.
    """
    v = embedding.values.astype(np.float64)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ZeroNormError("cannot normalize a zero-norm embedding")
    return EmotionEmbedding((v / norm).astype(np.float32))


@dataclass(eq=False)
class UtteranceRecord:
    """One stored utterance: embedding plus labels and optional metadata."""

    id: str
    emotion_label: str
    intensity: IntensityLevel
    embedding: EmotionEmbedding
    transcript: str = ""
    audio_ref: str | None = None

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise FormatError("record id must be a non-empty string")
        if not isinstance(self.emotion_label, str) or not self.emotion_label:
            raise FormatError(f"record {self.id!r}: emotion_label must be a non-empty string")
        if not isinstance(self.intensity, IntensityLevel):
            self.intensity = IntensityLevel.parse(self.intensity)
        if not isinstance(self.embedding, EmotionEmbedding):
            self.embedding = EmotionEmbedding(self.embedding)
        if self.audio_ref is not None and not isinstance(self.audio_ref, str):
            raise FormatError(f"record {self.id!r}: audio_ref must be a string or None")


@dataclass(eq=False)
class EmbeddingDatabase:
    """Ordered, immutable-by-convention collection of records of one dimension.

    Heavy derived views (stacked matrix, unit-normalized matrix, fingerprint)
    are computed lazily and cached; sharing a database across threads for
    reads is fine.
    """

    dim: int
    records: tuple = ()

    def __post_init__(self):
        if int(self.dim) <= 0:
            raise DimensionMismatchError(f"dim must be positive, got {self.dim}")
        self.dim = int(self.dim)
        self.records = tuple(self.records)
        seen = {}
        for pos, rec in enumerate(self.records):
            if not isinstance(rec, UtteranceRecord):
                raise FormatError(f"record at position {pos} is not an UtteranceRecord")
            if rec.embedding.dim != self.dim:
                raise DimensionMismatchError(
                    f"record {rec.id!r} has dim {rec.embedding.dim}, database dim is {self.dim}"
                )
            if rec.id in seen:
                raise DuplicateIdError(f"duplicate record id {rec.id!r}")
            seen[rec.id] = pos
        self._position = seen
        self._matrix = None
        self._unit_matrix = None
        self._fingerprint = None

    def __len__(self) -> int:
        return len(self.records)

    def record_by_id(self, record_id: str) -> UtteranceRecord:
        try:
            return self.records[self._position[record_id]]
        except KeyError:
            raise KeyError(f"no record with id {record_id!r}") from None

    @property
    def matrix(self) -> np.ndarray:
        """Record embeddings stacked row-wise, float32, shape (len, dim)."""
        if self._matrix is None:
            if self.records:
                m = np.stack([r.embedding.values for r in self.records]).astype(np.float32)
            else:
                m = np.empty((0, self.dim), dtype=np.float32)
            m.flags.writeable = False
            self._matrix = m
        return self._matrix

    @property
    def unit_matrix(self) -> np.ndarray:
        """Row-normalized float64 view of :attr:`matrix`, cached.

        Raises :class:`ZeroNormError` naming the first offending record if any
        stored embedding has zero norm; the check happens on first access, not
        at load time, because a database is allowed to *hold* such records as
        long as nobody asks for directions.
        """
        if self._unit_matrix is None:
            m = self.matrix.astype(np.float64)
            norms = np.linalg.norm(m, axis=1)
            bad = np.nonzero(norms == 0.0)[0]
            if bad.size:
                raise ZeroNormError(
                    f"record {self.records[int(bad[0])].id!r} has zero-norm embedding"
                )
            u = m / norms[:, None]
            u.flags.writeable = False
            self._unit_matrix = u
        return self._unit_matrix

    @property
    def fingerprint(self) -> bytes:
        """sha256 digest of the canonical serialized bytes (32 bytes), cached."""
        if self._fingerprint is None:
            self._fingerprint = hashlib.sha256(serialize_db(self)).digest()
        return self._fingerprint


def filter_by_intensity(db: EmbeddingDatabase, level: IntensityLevel) -> EmbeddingDatabase:
    """New database containing only records at ``level``, order preserved."""
    if not isinstance(level, IntensityLevel):
        level = IntensityLevel.parse(level)
    kept = tuple(r for r in db.records if r.intensity is level)
    return EmbeddingDatabase(dim=db.dim, records=kept)


# ---------------------------------------------------------------------------
# binary serialization


def _pack_str(text: str, what: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise FormatError(f"{what} exceeds 65535 UTF-8 bytes")
    return struct.pack("<H", len(raw)) + raw


def serialize_db(db: EmbeddingDatabase) -> bytes:
    out = [_HEADER.pack(EMDB_MAGIC, EMDB_VERSION, db.dim, len(db.records))]
    for rec in db.records:
        out.append(_pack_str(rec.id, f"id of record {rec.id!r}"))
        out.append(_pack_str(rec.emotion_label, f"label of record {rec.id!r}"))
        out.append(struct.pack("<B", rec.intensity.wire_code))
        out.append(_pack_str(rec.transcript, f"transcript of record {rec.id!r}"))
        if rec.audio_ref is None:
            out.append(b"\x00")
        else:
            out.append(b"\x01" + _pack_str(rec.audio_ref, f"audio_ref of record {rec.id!r}"))
        vec = np.ascontiguousarray(rec.embedding.values, dtype="<f4")
        out.append(vec.tobytes())
    return b"".join(out)


def save_db(db: EmbeddingDatabase, path) -> None:
    atomic_write_bytes(path, serialize_db(db))


class _Reader:
    """Cursor over a bytes buffer with framing-aware error messages."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise FormatError(f"truncated file: ran out of bytes reading {what}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def string(self, what: str) -> str:
        (n,) = struct.unpack("<H", self.take(2, f"{what} length"))
        raw = self.take(n, what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"invalid UTF-8 in {what}: {exc}") from None


def deserialize_db(data: bytes) -> EmbeddingDatabase:
    if len(data) < _HEADER.size:
        raise MalformedHeaderError(
            f"file too short for header: {len(data)} bytes, need {_HEADER.size}"
        )
    magic, version, dim, count = _HEADER.unpack_from(data, 0)
    if magic != EMDB_MAGIC:
        raise MalformedHeaderError(f"bad magic {magic!r}, expected {EMDB_MAGIC!r}")
    if version != EMDB_VERSION:
        raise MalformedHeaderError(f"unsupported version {version}")
    if dim == 0:
        raise MalformedHeaderError("header dim must be positive")
    rd = _Reader(data)
    rd.pos = _HEADER.size
    vec_bytes = 4 * dim
    records = []
    for i in range(count):
        rid = rd.string(f"id of record {i}")
        label = rd.string(f"label of record {i}")
        code = rd.u8(f"intensity of record {i}")
        intensity = IntensityLevel.from_wire_code(code)
        transcript = rd.string(f"transcript of record {i}")
        flag = rd.u8(f"audio_ref flag of record {i}")
        if flag not in (0, 1):
            raise FormatError(f"record {rid!r}: audio_ref flag must be 0 or 1, got {flag}")
        audio_ref = rd.string(f"audio_ref of record {i}") if flag else None
        if rd.pos + vec_bytes > len(data):
            have = (len(data) - rd.pos) // 4
            raise DimensionMismatchError(
                f"record {rid!r}: vector data ends early ({have} of {dim} floats present)"
            )
        vec = np.frombuffer(rd.take(vec_bytes, f"vector of record {i}"), dtype="<f4")
        if not np.all(np.isfinite(vec)):
            raise NonFiniteValueError(f"record {rid!r}: vector contains NaN or infinity")
        records.append(
            UtteranceRecord(
                id=rid,
                emotion_label=label,
                intensity=intensity,
                embedding=EmotionEmbedding(vec),
                transcript=transcript,
                audio_ref=audio_ref,
            )
        )
    if rd.pos != len(data):
        raise FormatError(f"{len(data) - rd.pos} trailing bytes after last record")
    return EmbeddingDatabase(dim=int(dim), records=tuple(records))


def load_db(path) -> EmbeddingDatabase:
    data = Path(path).read_bytes()
    return deserialize_db(data)


# ---------------------------------------------------------------------------
# JSON manifest import


def load_manifest(path, dim: int | None = None) -> EmbeddingDatabase:
    """Build a database from a JSON manifest.

    The manifest is either a list of record objects or ``{"dim": N,
    "records": [...]}``.  Each record needs ``id``, ``emotion_label``,
    ``intensity`` and ``embedding``; ``transcript`` and ``audio_ref`` are
    optional.  ``dim`` (argument or manifest key) is required only when the
    record list is empty, otherwise it is validated against the data.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"manifest is not valid JSON: {exc}") from None
    if isinstance(payload, dict):
        entries = payload.get("records")
        if entries is None:
            raise FormatError("manifest object must contain a 'records' list")
        if dim is None and "dim" in payload:
            dim = int(payload["dim"])
    elif isinstance(payload, list):
        entries = payload
    else:
        raise FormatError("manifest must be a JSON list or object")

    records = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise FormatError(f"manifest entry {i} is not an object")
        missing = [k for k in ("id", "emotion_label", "intensity", "embedding") if k not in entry]
        if missing:
            raise FormatError(f"manifest entry {i} is missing keys: {', '.join(missing)}")
        try:
            vec = np.asarray(entry["embedding"], dtype=np.float32)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"manifest entry {entry['id']!r}: bad embedding: {exc}") from None
        if dim is not None and vec.ndim == 1 and vec.shape[0] != dim:
            raise DimensionMismatchError(
                f"manifest entry {entry['id']!r} has {vec.shape[0]} components, expected {dim}"
            )
        records.append(
            UtteranceRecord(
                id=str(entry["id"]),
                emotion_label=str(entry["emotion_label"]),
                intensity=IntensityLevel.parse(entry["intensity"]),
                embedding=EmotionEmbedding(vec),
                transcript=str(entry.get("transcript", "")),
                audio_ref=entry.get("audio_ref"),
            )
        )
    if dim is None:
        if not records:
            raise FormatError("empty manifest requires an explicit dim")
        dim = records[0].embedding.dim
    return EmbeddingDatabase(dim=int(dim), records=tuple(records))
