"""Emotion-prompt retrieval: exhaustive cosine scan and cluster-routed scan.

Two strategies over the same store.  The exhaustive path scores every record
by cosine similarity and takes the argmax.  The clustered path first routes
the query to its nearest centroid (single probe), then scores only that
cluster's members, trading a little recall at cluster boundaries for a scan
that touches n/k records on average.

The probe scans one contiguous slice.  On its first clustered query an index
builds inverted lists (as in IVF): the stable argsort of its assignments, the
offsets at which each cluster starts, and a read-only copy of the database's
unit rows in that order.  A cluster's members are then one slice of that
copy, in ascending position, and the winner maps back through the order.  The
price is one float64 copy of the indexed rows per queried index (8 MB for
8,000 rows at dim 128), held as long as the index is.

Clustering is spherical k-means: rows are unit-normalized, Lloyd iterations
minimize squared euclidean distance (which is monotone in cosine on the
sphere), and the centroid update is the normalized mean — the exact minimizer
of within-cluster squared distance over unit vectors, so inertia never
increases.  All ties (seeding, assignment, argmax) break to the lowest index,
which keeps every run bit-reproducible under a fixed seed.

Every cosine score, of a record or of a centroid, is one dot product of
``dim`` values per row (``np.vecdot``).  A row therefore gets the same bits
wherever it sits in the scanned matrix, so an exact copy of the best row ties
with it and ``argmax`` alone keeps the lower position; and the scan stays on
one core at any database size, so its latency scales with the row count.

Index files record a fingerprint of the database they were built from; lookups
against a database with a different fingerprint fail rather than silently
returning positions from the wrong snapshot.  A zero-norm centroid fails at
load, where the index normalizes its centroids, not at its first query.
"""

from __future__ import annotations

import enum
import struct
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyDatabaseError,
    EmptySubsetError,
    FormatError,
    InvalidParameterError,
    MalformedHeaderError,
    MissingIndexError,
    NonFiniteValueError,
    StaleIndexError,
    ZeroNormError,
)
from .store import (
    EmbeddingDatabase,
    EmotionEmbedding,
    IntensityLevel,
    filter_by_intensity,
)
from .util import atomic_write_bytes, log

EMIX_MAGIC = b"EMIX"
EMIX_VERSION = 1
FINGERPRINT_BYTES = 32


class RetrievalMethod(enum.Enum):
    EMBEDDING = "embedding"
    CLUSTERING = "clustering"

    @classmethod
    def parse(cls, text) -> "RetrievalMethod":
        """The method named by ``text`` (any case); a method is returned unchanged."""
        if isinstance(text, cls):
            return text
        try:
            return cls(str(text).lower())
        except ValueError:
            raise InvalidParameterError(
                f"unknown retrieval method {text!r}; expected 'embedding' or 'clustering'"
            ) from None

    def __str__(self) -> str:
        return self.value


@dataclass(eq=False)
class RetrievalResult:
    record_id: str
    similarity: float
    method: RetrievalMethod
    candidates_scanned: int
    elapsed_ns: int

    def to_json_dict(self) -> dict:
        return {**asdict(self), "method": self.method.value}


def _unit_query(db: EmbeddingDatabase, query: EmotionEmbedding) -> np.ndarray:
    if query.dim != db.dim:
        raise DimensionMismatchError(
            f"query has dim {query.dim}, database dim is {db.dim}"
        )
    q = query.values.astype(np.float64)
    norm = np.linalg.norm(q)
    if norm == 0.0:
        raise ZeroNormError("query embedding has zero norm")
    return q / norm


def _scan_argmax(unit: np.ndarray, qn: np.ndarray) -> tuple:
    """``(position, similarity)`` of the row of ``unit`` most similar to ``qn``.

    Each row is scored by its own dot product, so ties go to the lowest
    position.  ``unit`` must have at least one row.
    """
    sims = np.vecdot(unit, qn)
    pos = int(np.argmax(sims))
    return pos, float(sims[pos])


# ---------------------------------------------------------------------------
# spherical k-means


@dataclass(eq=False)
class ClusterIndex:
    """Centroids plus a full record→cluster assignment for one database.

    ``centroids`` stay float32 in memory so that a save/load round trip is
    bit-exact; routing scores their float64 unit rows, ``unit_centroids``.
    """

    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    fingerprint: bytes

    def __post_init__(self):
        self.k = int(self.k)
        if self.k <= 0:
            raise InvalidParameterError(f"k must be positive, got {self.k}")
        c = np.asarray(self.centroids, dtype=np.float32)
        if c.ndim != 2 or c.shape[0] != self.k:
            raise DimensionMismatchError(
                f"centroids must have shape (k, dim); got {c.shape} with k={self.k}"
            )
        if not np.all(np.isfinite(c)):
            raise NonFiniteValueError("centroids contain NaN or infinity")
        a = np.asarray(self.assignments, dtype=np.uint32)
        if a.ndim != 1:
            raise DimensionMismatchError("assignments must be 1-D")
        if a.size and int(a.max()) >= self.k:
            raise InvalidParameterError("assignment refers to a cluster >= k")
        if not isinstance(self.fingerprint, bytes) or len(self.fingerprint) != FINGERPRINT_BYTES:
            raise FormatError(f"fingerprint must be {FINGERPRINT_BYTES} bytes")
        c64 = c.astype(np.float64)
        norms = np.linalg.norm(c64, axis=1)
        if np.any(norms == 0.0):
            raise ZeroNormError("index contains a zero-norm centroid")
        self.unit_centroids = c64 / norms[:, None]
        c = c.copy()
        a = a.copy()
        for arr in (c, a, self.unit_centroids):
            arr.flags.writeable = False
        self.centroids = c
        self.assignments = a
        self.inertia = float(self.inertia)
        self._lists = None

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[1])

    def _inverted_lists(self, unit: np.ndarray) -> tuple:
        """``(order, offsets, rows)``: the records grouped by cluster, cached.

        ``order`` is the stable argsort of :attr:`assignments`, so each
        cluster's members keep their ascending positions; cluster ``c`` owns
        ``order[offsets[c]:offsets[c + 1]]``, and ``rows`` holds ``unit``'s
        rows in that order as one read-only C-contiguous copy.  ``unit`` must
        be the unit matrix of the database this index was checked against;
        the first call builds the lists from it and later calls return them.
        """
        lists = self._lists
        if lists is None:
            order = np.argsort(self.assignments, kind="stable")
            offsets = np.zeros(self.k + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.assignments, minlength=self.k), out=offsets[1:])
            rows = unit[order]
            for a in (order, offsets, rows):
                a.flags.writeable = False
            # one tuple, published at once: a racing thread sees all of it or none
            lists = self._lists = (order, offsets, rows)
            log.debug(
                "cluster index k=%d: inverted lists over %d rows, largest %d",
                self.k, order.size, int(np.diff(offsets).max()),
            )
        return lists


def _plus_plus_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding over unit rows; returns the k chosen row indices."""
    n = X.shape[0]
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = int(rng.integers(n))
    d2 = np.maximum(2.0 - 2.0 * (X @ X[chosen[0]]), 0.0)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining mass is zero (duplicate points); take the lowest
            # index not yet chosen so the run stays deterministic
            taken = set(chosen[:j].tolist())
            nxt = next(i for i in range(n) if i not in taken)
        else:
            r = rng.random() * total
            nxt = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            nxt = min(nxt, n - 1)
        chosen[j] = nxt
        d2 = np.minimum(d2, np.maximum(2.0 - 2.0 * (X @ X[nxt]), 0.0))
    return chosen


def kmeans_fit(
    db: EmbeddingDatabase,
    k: int,
    *,
    max_iters: int = 100,
    seed: int = 0,
    return_history: bool = False,
):
    """Fit spherical k-means over the database embeddings.

    Runs Lloyd's algorithm in float64 on unit-normalized rows with k-means++
    seeding, then freezes the centroids to float32 and recomputes assignments
    and inertia against the frozen values, so the returned index satisfies
    assignment-is-nearest-centroid exactly as stored.

    With ``return_history=True`` also returns the per-iteration inertia list
    (evaluated after each assignment step).
    """
    n = len(db)
    if n == 0:
        raise EmptyDatabaseError("cannot cluster an empty database")
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise InvalidParameterError(f"k must be an integer, got {k!r}")
    if k < 1 or k > n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
    if max_iters < 1:
        raise InvalidParameterError(f"max_iters must be >= 1, got {max_iters}")
    k = int(k)
    rng = np.random.default_rng(seed)
    X = db.unit_matrix  # (n, dim) float64, rows unit
    centroids = X[_plus_plus_init(X, k, rng)].copy()

    history = []
    prev_assign = None
    for _ in range(max_iters):
        # squared distance on the sphere: ||x - c||^2 = 1 + ||c||^2 - 2 x.c
        d2 = 1.0 + np.sum(centroids * centroids, axis=1)[None, :] - 2.0 * (X @ centroids.T)
        assign = np.argmin(d2, axis=1)
        point_d2 = np.take_along_axis(d2, assign[:, None], axis=1).ravel()
        history.append(float(np.maximum(point_d2, 0.0).sum()))

        counts = np.bincount(assign, minlength=k)
        empty = np.nonzero(counts == 0)[0]
        if empty.size:
            log.debug("k-means iteration %d: reseeding %d empty clusters", len(history), empty.size)
            # reseed each empty cluster at the point currently farthest from
            # its own centroid; never steal the same point twice in one pass
            avail = point_d2.copy()
            for c in empty:
                j = int(np.argmax(avail))
                assign[j] = c
                avail[j] = -np.inf

        if prev_assign is not None and np.array_equal(assign, prev_assign) and not empty.size:
            break
        prev_assign = assign

        sums = np.zeros((k, X.shape[1]))
        np.add.at(sums, assign, X)
        norms = np.linalg.norm(sums, axis=1)
        safe = norms > 0.0
        centroids[safe] = sums[safe] / norms[safe, None]
        # a zero-sum cluster (perfectly antipodal members) keeps its centroid

    frozen = centroids.astype(np.float32)
    c64 = frozen.astype(np.float64)
    d2 = 1.0 + np.sum(c64 * c64, axis=1)[None, :] - 2.0 * (X @ c64.T)
    final_assign = np.argmin(d2, axis=1).astype(np.uint32)
    final_inertia = float(
        np.maximum(np.take_along_axis(d2, final_assign[:, None].astype(np.int64), axis=1), 0.0).sum()
    )
    index = ClusterIndex(
        k=k,
        centroids=frozen,
        assignments=final_assign,
        inertia=final_inertia,
        fingerprint=db.fingerprint,
    )
    if return_history:
        return index, history
    return index


def default_k(db: EmbeddingDatabase) -> int:
    """Default cluster count: the number of distinct emotion labels."""
    if len(db) == 0:
        raise EmptyDatabaseError("empty database has no labels to count")
    return len(set(db.labels))


# ---------------------------------------------------------------------------
# retrieval


def retrieve_embedding_based(db: EmbeddingDatabase, query: EmotionEmbedding) -> RetrievalResult:
    """Exhaustive cosine scan; highest similarity wins, ties to lowest position."""
    t0 = time.perf_counter_ns()
    if len(db) == 0:
        raise EmptyDatabaseError("cannot retrieve from an empty database")
    pos, sim = _scan_argmax(db.unit_matrix, _unit_query(db, query))
    return RetrievalResult(
        record_id=db.ids[pos],
        similarity=sim,
        method=RetrievalMethod.EMBEDDING,
        candidates_scanned=len(db),
        elapsed_ns=time.perf_counter_ns() - t0,
    )


def retrieve_clustering_based(
    db: EmbeddingDatabase, index: ClusterIndex, query: EmotionEmbedding
) -> RetrievalResult:
    """Single-probe clustered scan: nearest centroid, then argmax inside it.

    Falls back to a full scan when the routed cluster has no members (possible
    with hand-built indexes; the fitted ones never produce empty clusters).
    """
    t0 = time.perf_counter_ns()
    if len(db) == 0:
        raise EmptyDatabaseError("cannot retrieve from an empty database")
    if index.dim != db.dim:
        raise DimensionMismatchError(
            f"index dim {index.dim} does not match database dim {db.dim}"
        )
    if index.fingerprint != db.fingerprint:
        raise StaleIndexError(
            "index fingerprint does not match this database; rebuild the index"
        )
    if index.assignments.shape[0] != len(db):
        raise StaleIndexError(
            f"index covers {index.assignments.shape[0]} records, database has {len(db)}"
        )
    qn = _unit_query(db, query)
    cluster, _ = _scan_argmax(index.unit_centroids, qn)
    order, offsets, rows = index._inverted_lists(db.unit_matrix)
    lo, hi = int(offsets[cluster]), int(offsets[cluster + 1])
    if lo == hi:
        log.debug("cluster %d has no members; scanning all %d records", cluster, len(db))
        pos, sim = _scan_argmax(db.unit_matrix, qn)
        scanned = len(db)
    else:
        # members ascend within the slice, so the lowest member position still wins ties
        best, sim = _scan_argmax(rows[lo:hi], qn)
        pos = int(order[lo + best])
        scanned = hi - lo
    return RetrievalResult(
        record_id=db.ids[pos],
        similarity=sim,
        method=RetrievalMethod.CLUSTERING,
        candidates_scanned=scanned,
        elapsed_ns=time.perf_counter_ns() - t0,
    )


@dataclass(eq=False)
class IndexBundle:
    """A full-database index plus one index per intensity level present."""

    full: ClusterIndex
    by_level: dict

    def for_level(self, level: IntensityLevel | None) -> ClusterIndex:
        if level is None:
            return self.full
        try:
            return self.by_level[level]
        except KeyError:
            raise MissingIndexError(
                f"no cluster index for intensity {level.value!r}"
            ) from None


def build_index_bundle(
    db: EmbeddingDatabase,
    k: int | None = None,
    *,
    max_iters: int = 100,
    seed: int = 0,
) -> IndexBundle:
    """Fit the full-database index and one per non-empty intensity subset.

    ``k=None`` picks :func:`default_k` independently for the full database and
    for each subset; an explicit ``k`` applies everywhere and must fit the
    smallest subset it is used on.
    """
    full = kmeans_fit(db, k if k is not None else default_k(db), max_iters=max_iters, seed=seed)
    by_level = {}
    for level in IntensityLevel:
        sub = filter_by_intensity(db, level)
        if len(sub) == 0:
            continue
        k_sub = k if k is not None else default_k(sub)
        by_level[level] = kmeans_fit(sub, k_sub, max_iters=max_iters, seed=seed)
    return IndexBundle(full=full, by_level=by_level)


def retrieve(
    db: EmbeddingDatabase,
    query: EmotionEmbedding,
    method: RetrievalMethod,
    *,
    index: "IndexBundle | ClusterIndex | None" = None,
    intensity: IntensityLevel | None = None,
) -> RetrievalResult:
    """Front door: optional intensity gate, then the chosen strategy (``elapsed_ns`` covers both).

    Gating searches the level's subset of ``db`` (built by the first gated
    query, then cached on ``db``), so similarity competition happens only
    among records at that level; an empty gate raises :class:`EmptySubsetError`.  Clustering needs an index covering exactly the
    records being searched — an :class:`IndexBundle` when gating is in play.
    """
    t0 = time.perf_counter_ns()
    method = RetrievalMethod.parse(method)
    target = db
    if intensity is not None:
        intensity = IntensityLevel.parse(intensity)
        target = filter_by_intensity(db, intensity)
        if len(target) == 0:
            raise EmptySubsetError(intensity.value)
    if method is RetrievalMethod.EMBEDDING:
        result = retrieve_embedding_based(target, query)
    elif index is None:
        raise MissingIndexError("clustering retrieval requires a cluster index")
    elif intensity is not None and not isinstance(index, IndexBundle):
        raise MissingIndexError(
            "intensity-gated clustering needs an IndexBundle with per-level indexes"
        )
    else:
        chosen = index.for_level(intensity) if isinstance(index, IndexBundle) else index
        log.debug("clustered query: %s index, k=%d", intensity or "full", chosen.k)
        result = retrieve_clustering_based(target, chosen, query)
    result.elapsed_ns = time.perf_counter_ns() - t0
    return result


# ---------------------------------------------------------------------------
# index serialization

_IX_HEADER = struct.Struct("<4sIII")


def serialize_index(index: ClusterIndex) -> bytes:
    out = [_IX_HEADER.pack(EMIX_MAGIC, EMIX_VERSION, index.k, index.dim)]
    out.append(np.ascontiguousarray(index.centroids, dtype="<f4").tobytes())
    out.append(struct.pack("<I", index.assignments.shape[0]))
    out.append(np.ascontiguousarray(index.assignments, dtype="<u4").tobytes())
    out.append(index.fingerprint)
    return b"".join(out)


def deserialize_index(data: bytes) -> ClusterIndex:
    if len(data) < _IX_HEADER.size:
        raise MalformedHeaderError(
            f"file too short for header: {len(data)} bytes, need {_IX_HEADER.size}"
        )
    magic, version, k, dim = _IX_HEADER.unpack_from(data, 0)
    if magic != EMIX_MAGIC:
        raise MalformedHeaderError(f"bad magic {magic!r}, expected {EMIX_MAGIC!r}")
    if version != EMIX_VERSION:
        raise MalformedHeaderError(f"unsupported version {version}")
    if k == 0 or dim == 0:
        raise MalformedHeaderError("k and dim must be positive")
    pos = _IX_HEADER.size
    need = 4 * k * dim
    if pos + need > len(data):
        raise FormatError("truncated file: centroid block ends early")
    centroids = np.frombuffer(data[pos : pos + need], dtype="<f4").reshape(k, dim)
    pos += need
    if pos + 4 > len(data):
        raise FormatError("truncated file: missing assignment count")
    (count,) = struct.unpack_from("<I", data, pos)
    pos += 4
    need = 4 * count
    if pos + need > len(data):
        raise FormatError("truncated file: assignment block ends early")
    assignments = np.frombuffer(data[pos : pos + need], dtype="<u4")
    pos += need
    if pos + FINGERPRINT_BYTES > len(data):
        raise FormatError("truncated file: missing fingerprint")
    fingerprint = bytes(data[pos : pos + FINGERPRINT_BYTES])
    pos += FINGERPRINT_BYTES
    if pos != len(data):
        raise FormatError(f"{len(data) - pos} trailing bytes after fingerprint")
    if count and int(assignments.max()) >= k:
        raise FormatError("assignment refers to a cluster >= k")
    # inertia belongs to the fit, not the file; without the database it cannot
    # be recomputed here, so a loaded index carries NaN
    return ClusterIndex(
        k=int(k),
        centroids=centroids,
        assignments=assignments,
        inertia=float("nan"),
        fingerprint=fingerprint,
    )


def save_index(index: ClusterIndex, path) -> None:
    atomic_write_bytes(path, serialize_index(index))


def load_index(path) -> ClusterIndex:
    return deserialize_index(Path(path).read_bytes())


def level_index_path(base_path, level: IntensityLevel) -> Path:
    """Sibling path for a per-intensity index: ``db.emix`` → ``db.weak.emix``."""
    base = Path(base_path)
    return base.with_name(f"{base.stem}.{level.value}{base.suffix}")


def save_index_bundle(bundle: IndexBundle, base_path) -> list:
    """Write the full index at ``base_path`` and levels at sibling paths."""
    written = [Path(base_path)]
    save_index(bundle.full, base_path)
    for level, index in bundle.by_level.items():
        p = level_index_path(base_path, level)
        save_index(index, p)
        written.append(p)
    return written


def load_index_bundle(base_path) -> IndexBundle:
    """Load the full index plus whichever per-level files exist next to it."""
    full = load_index(base_path)
    by_level = {}
    for level in IntensityLevel:
        p = level_index_path(base_path, level)
        if p.exists():
            by_level[level] = load_index(p)
    return IndexBundle(full=full, by_level=by_level)
