"""Emotion-prompt retrieval: exhaustive cosine scan and cluster-routed scan.

One search serves both strategies over the same store.  The exhaustive path
scores every record by cosine similarity and takes the argmax.  The
clustered path first routes the query to its nearest centroid (single
probe), then scores only that cluster's members, trading a little recall at
cluster boundaries for a scan that touches n/k records on average; a routed
cluster with no members falls back to the full scan.

A query reads its database's one copy of the unit rows grouped by ``k *
intensity code + cluster`` (:func:`~emorag.store.grouped_rows`): a query with
an index asks for the copy keyed by that index's assignments (its inverted
lists, as in IVF), built on its first query; a query without one takes
whatever copy the database holds, else the ``k = 1`` copy.  An intensity gate
is a pair ``(database, level)`` and is one range of any such copy, blocks
``[k * code, k * code + k)`` (every row, ungated).  An exhaustive query, and a
clustered one whose cluster has no rows at the gate, scans that range; a
clustered query scans its cluster ``c``'s block ``k * code + c`` at each gated
level, so one index type, :class:`ClusterIndex`, serves both methods and
every gate (the ``*_index_bundle`` names are the benchmark worker's for it).
The copy is one float64 copy of the rows (8 MB for 8,000 rows at dim 128),
held as long as its database is; a database queried alternately with two
indexes rebuilds it at each switch.

Clustering is spherical k-means: rows are unit-normalized, at most 100 Lloyd
iterations minimize squared euclidean distance (monotone in cosine on the
sphere), and the centroid update is the normalized mean — the exact minimizer
of within-cluster squared distance over unit vectors, so inertia never
increases.  All ties (seeding, assignment, argmax) break to the lowest index,
which keeps every run bit-reproducible under a fixed seed.

Every cosine score, of a record or of a centroid, is one dot product of
``dim`` values per row (``np.vecdot``).  A row therefore gets the same bits
wherever it sits in the scanned matrix, so an exact copy of the best row ties
with it; a scan keeps the lower position in any row order (a range spans
cluster blocks), and scans combine by the highest similarity, then the lowest
position.  It stays on one core, so its latency scales with the row count.

An EMIX index file is the EMDB header (:data:`~emorag.store.HEADER`, with k
and dim for sizes), f32 centroids, a u32 count and u32 assignments, and the
fingerprint of the database it was built from, read through the same bounded
reader as EMDB; lookups against a database with another fingerprint fail
rather than silently returning positions from the wrong snapshot.  A
zero-norm centroid fails at load, where the index normalizes its centroids.
"""

from __future__ import annotations

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
    StaleIndexError,
    ZeroNormError,
)
from .store import (
    HEADER,
    EmbeddingDatabase,
    EmotionEmbedding,
    HeaderedFile,
    IntensityLevel,
    NamedEnum,
    grouped_rows,
)
from .util import atomic_write_bytes, frozen_copy, log, seeded_rng, whole

EMIX_MAGIC = b"EMIX"
EMIX_VERSION = 1
FINGERPRINT_BYTES = 32
KMEANS_MAX_ITERS = 100


class RetrievalMethod(NamedEnum):
    EMBEDDING = "embedding"
    CLUSTERING = "clustering"

    @classmethod
    def _unknown(cls, text) -> InvalidParameterError:
        return InvalidParameterError(f"unknown retrieval method {text!r}; expected 'embedding' or 'clustering'")


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


def _scan_argmax(rows: np.ndarray, qn: np.ndarray, members) -> tuple:
    """``(position, similarity)`` of the row of ``rows`` most similar to ``qn``, ties to the lowest position.

    Each row is scored by its own dot product.  Row ``i`` sits at position ``members[i]``, in
    any order (``members=None``: at ``i``).  ``rows`` must have at least one row.
    """
    sims = np.vecdot(rows, qn)
    best = int(np.argmax(sims))
    top = sims[best]
    if members is not None:
        ties = sims == top
        best = int(members[best] if np.count_nonzero(ties) == 1 else members[ties].min())
    return best, float(top)


# ---------------------------------------------------------------------------
# spherical k-means


@dataclass(eq=False)
class ClusterIndex:
    """Centroids, a full record→cluster assignment and a fingerprint: what its EMIX file holds.

    ``centroids`` stay float32 in memory so that a save/load round trip is
    bit-exact; routing scores their float64 unit rows, ``unit_centroids``.
    ``k`` is a Python or numpy integer >= 1 and ``assignments`` an integer
    array, not bool (else :class:`InvalidParameterError`).  The one index type:
    ``full`` and :meth:`for_level` return the index itself, and are the benchmark
    worker's names, kept until it calls a ``ClusterIndex`` directly.
    """

    k: int
    centroids: np.ndarray
    assignments: np.ndarray
    fingerprint: bytes

    def __post_init__(self):
        self.k = whole(self.k, 1, "k")
        self.centroids = frozen_copy(self.centroids, np.float32, 2, "centroids")
        if self.centroids.shape[0] != self.k:
            raise DimensionMismatchError(
                f"centroids must have shape (k, dim); got {self.centroids.shape} with k={self.k}"
            )
        a = np.asarray(self.assignments)
        if a.ndim != 1:
            raise DimensionMismatchError("assignments must be 1-D")
        if not np.issubdtype(a.dtype, np.integer):  # a float would be truncated; bool is not an integer dtype
            raise InvalidParameterError(f"assignments must be integers, got dtype {a.dtype}")
        if a.size and not 0 <= int(a.min()) <= int(a.max()) < self.k:
            raise InvalidParameterError(f"assignment refers to a cluster outside [0, {self.k})")
        if not isinstance(self.fingerprint, bytes) or len(self.fingerprint) != FINGERPRINT_BYTES:
            raise FormatError(f"fingerprint must be {FINGERPRINT_BYTES} bytes")
        c64 = self.centroids.astype(np.float64)
        norms = np.linalg.norm(c64, axis=1)
        if np.any(norms == 0.0):
            raise ZeroNormError("index contains a zero-norm centroid")
        self.unit_centroids = c64 / norms[:, None]
        self.assignments = a.astype(np.uint32)
        for arr in (self.assignments, self.unit_centroids):
            arr.flags.writeable = False

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[1])

    @property
    def full(self) -> ClusterIndex:
        """This index: one serves both methods and every intensity gate."""
        return self

    def for_level(self, level: IntensityLevel | str | None) -> ClusterIndex:
        """The index that serves ``level`` (a level, its name in any case, or None): this one."""
        if level is not None:
            IntensityLevel.parse(level)  # an unknown name still raises
        return self


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


def _nearest(X: np.ndarray, centroids: np.ndarray) -> tuple:
    """``(assign, point_d2, inertia)``: each unit row's nearest centroid (ties to the lowest),
    its squared distance ``1 + ||c||^2 - 2 x.c`` to it, and the sum of those clipped at 0."""
    d2 = 1.0 + np.sum(centroids * centroids, axis=1)[None, :] - 2.0 * (X @ centroids.T)
    assign = np.argmin(d2, axis=1)
    point_d2 = np.take_along_axis(d2, assign[:, None], axis=1).ravel()
    return assign, point_d2, float(np.maximum(point_d2, 0.0).sum())


def kmeans_fit(
    db: EmbeddingDatabase, k: int, *, seed: int = 0, return_history: bool = False
):
    """Fit spherical k-means over the database embeddings.

    Runs at most :data:`KMEANS_MAX_ITERS` Lloyd iterations in float64 on
    unit-normalized rows with k-means++ seeding, then freezes the centroids to
    float32 and recomputes the assignments against the frozen values, so the
    returned index satisfies assignment-is-nearest-centroid exactly as stored.

    With ``return_history=True`` also returns the per-iteration inertia list
    (evaluated after each assignment step).
    """
    n = len(db)
    if n == 0:
        raise EmptyDatabaseError("cannot cluster an empty database")
    k = whole(k, 1, "k")
    if k > n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
    rng = seeded_rng(seed)
    X = db.unit_matrix  # (n, dim) float64, rows unit
    centroids = X[_plus_plus_init(X, k, rng)].copy()

    history = []
    prev_assign = None
    for _ in range(KMEANS_MAX_ITERS):
        assign, point_d2, inertia = _nearest(X, centroids)
        history.append(inertia)

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
    index = ClusterIndex(k, frozen, _nearest(X, frozen.astype(np.float64))[0], db.fingerprint)
    if return_history:
        return index, history
    return index


def default_k(db: EmbeddingDatabase) -> int:
    """Default cluster count: the number of distinct emotion labels."""
    if len(db) == 0:
        raise EmptyDatabaseError("empty database has no labels to count")
    return len(set(db.labels))


def build_index_bundle(db: EmbeddingDatabase, *, seed: int = 0) -> ClusterIndex:
    """:func:`kmeans_fit` of ``db`` with :func:`default_k` clusters."""
    return kmeans_fit(db, default_k(db), seed=seed)


# ---------------------------------------------------------------------------
# retrieval


def retrieve_embedding_based(db: EmbeddingDatabase, query: EmotionEmbedding) -> RetrievalResult:
    """Exhaustive cosine scan; highest similarity wins, ties to lowest position."""
    return retrieve(db, query, RetrievalMethod.EMBEDDING)


def retrieve_clustering_based(
    db: EmbeddingDatabase, index: ClusterIndex, query: EmotionEmbedding
) -> RetrievalResult:
    """Single-probe clustered scan: nearest centroid, then argmax inside it
    (over all rows if that cluster is empty)."""
    return retrieve(db, query, RetrievalMethod.CLUSTERING, index=index)


def retrieve(
    db: EmbeddingDatabase,
    query: EmotionEmbedding,
    method: RetrievalMethod,
    *,
    index: ClusterIndex | None = None,
    intensity: IntensityLevel | None = None,
) -> RetrievalResult:
    """The one search: optional intensity gate, then the chosen strategy (``elapsed_ns`` covers both).

    Gating searches ``db``'s rows at that level and builds no database, so only records at that
    level compete; an empty gate raises :class:`EmptySubsetError`.  An intensity gate's subset is
    answered as its parent at its level, unless ``index`` was fit on the subset itself.  ``db``'s
    :class:`ClusterIndex` serves both methods, gated or not, and is checked to cover the database
    whenever given; clustering needs it.  Every query reads ``db``'s one grouped copy: the index's
    inverted lists if it has the index, else whatever copy ``db`` holds.  An exhaustive query scans
    the gate's range; a clustered one scans its nearest centroid's block at each gated level, or
    that range if they are empty.
    """
    t0 = time.perf_counter_ns()
    method = RetrievalMethod.parse(method)
    level = None if intensity is None else IntensityLevel.parse(intensity)
    if level is not None and not db._level_counts[level.wire_code]:
        raise EmptySubsetError(level.value)
    if index is None and method is RetrievalMethod.CLUSTERING:
        raise MissingIndexError("clustering retrieval requires a cluster index")
    if len(db) == 0:
        raise EmptyDatabaseError("cannot retrieve from an empty database")
    if db._gate is not None and (index is None or index.fingerprint == db._gate[0].fingerprint):
        db, level = db._gate  # ``level`` was None or this level: checked above
    if index is not None:
        if index.dim != db.dim:
            raise DimensionMismatchError(f"index dim {index.dim} does not match database dim {db.dim}")
        if index.fingerprint != db.fingerprint:
            raise StaleIndexError("index fingerprint does not match this database; rebuild the index")
        if index.assignments.shape[0] != len(db):
            raise StaleIndexError(f"index covers {index.assignments.shape[0]} records, database has {len(db)}")
    qn = _unit_query(db, query)
    first, last = (0, 3) if level is None else (level.wire_code, level.wire_code + 1)
    k, order, offsets, rows = grouped_rows(db, index)
    bounds = offsets.tolist()
    lo, hi = bounds[k * first], bounds[k * last]  # the gate's range
    spans = [(lo, hi)]
    if method is RetrievalMethod.CLUSTERING:
        cluster, _ = _scan_argmax(index.unit_centroids, qn, None)
        blocks = [(bounds[b], bounds[b + 1]) for b in range(k * first + cluster, k * last, k)]
        gate, held = level or "none", sum(b - a for a, b in blocks)
        log.debug("clustered query: gate %s, cluster %d of k=%d holds %d rows", gate, cluster, k, held)
        if held:
            spans = blocks
        else:
            log.debug(
                "cluster %d has no members at gate %s; scanning the %d rows at that gate", cluster, gate, hi - lo
            )
    # the best over spans is the highest similarity, then the lowest position
    hits = [_scan_argmax(rows[a:b], qn, order[a:b]) for a, b in spans if a < b]
    best, sim = max(hits, key=lambda hit: (hit[1], -hit[0]))
    return RetrievalResult(db.ids[best], sim, method, sum(b - a for a, b in spans), time.perf_counter_ns() - t0)


# ---------------------------------------------------------------------------
# index serialization


def serialize_index(index: ClusterIndex) -> bytes:
    out = [HEADER.pack(EMIX_MAGIC, EMIX_VERSION, index.k, index.dim)]
    out.append(np.ascontiguousarray(index.centroids, dtype="<f4").tobytes())
    out.append(struct.pack("<I", index.assignments.shape[0]))
    out.append(np.ascontiguousarray(index.assignments, dtype="<u4").tobytes())
    out.append(index.fingerprint)
    return b"".join(out)


def deserialize_index(data: bytes) -> ClusterIndex:
    body = HeaderedFile(data, EMIX_MAGIC, EMIX_VERSION)
    k, dim = body.sizes
    if k == 0 or dim == 0:
        raise MalformedHeaderError("k and dim must be positive")
    centroids = np.frombuffer(body.take(4 * k * dim, "centroids"), dtype="<f4").reshape(k, dim)
    (count,) = struct.unpack("<I", body.take(4, "assignment count"))
    assignments = np.frombuffer(body.take(4 * count, "assignments"), dtype="<u4")
    fingerprint = bytes(body.take(FINGERPRINT_BYTES, "fingerprint"))
    body.finish("the fingerprint")
    if count and int(assignments.max()) >= k:
        raise FormatError("assignment refers to a cluster >= k")
    return ClusterIndex(k, centroids, assignments, fingerprint)


def save_index(index: ClusterIndex, path) -> None:
    atomic_write_bytes(path, [serialize_index(index)])


def load_index(path) -> ClusterIndex:
    return deserialize_index(Path(path).read_bytes())


save_index_bundle, load_index_bundle = save_index, load_index  # the benchmark worker's names
