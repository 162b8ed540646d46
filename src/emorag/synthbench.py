"""Synthetic cluster datasets and the method × size retrieval benchmark.

Real emotion embeddings form tight per-emotion clusters; the generator here
emulates that geometry directly: uniform cluster centers in a hypercube,
Gaussian noise around each center, everything unit-normalized.  Queries are
fresh draws from the same mixture with the generating cluster as ground
truth, so accuracy has an unambiguous oracle.

The benchmark grid crosses retrieval methods with database sizes, reporting
accuracy plus mean and p95 per-query latency after a fixed number of
discarded warm-up queries.  Its cells advance through their queries in
interleaved rounds, so a slow spell on a shared host slows every cell
alike.  Accuracy is exactly reproducible under the seed; latency is
whatever the machine gives you, so only orderings and ratios are
meaningful.  Those ratios hold because retrieval scores each row with its own
dot product (see :mod:`emorag.retrieval`), which runs on one core whatever
the database size, so a small and a large database are scanned alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidParameterError
from .retrieval import RetrievalMethod, default_k, kmeans_fit, retrieve
from .store import EmbeddingDatabase, EmotionEmbedding
from .util import atomic_write_text, is_real, real, seeded_rng, whole

DEFAULT_SIZES = (3000, 8000)
DEFAULT_NUM_EMOTIONS = 8
DEFAULT_DIM = 128
DEFAULT_SIGMA = 0.05
DEFAULT_SPREAD = 10.0
DEFAULT_MIX = (0.25, 0.5, 0.25)
WARMUP_QUERIES = 10
ROUND_QUERIES = 50


def emotion_label(i: int) -> str:
    return f"emo{i}"


@dataclass
class SyntheticDatasetConfig:
    """Shape of one synthetic database: cluster layout, noise, label mix;
    the counts and ``dim`` are integers >= 1, ``seed`` an integer >= 0."""

    num_emotions: int
    dim: int
    records_per_emotion: int
    cluster_sigma: float = DEFAULT_SIGMA
    center_spread: float = DEFAULT_SPREAD
    intensity_mix: tuple = DEFAULT_MIX
    seed: int = 0

    def __post_init__(self):
        for name, least in (("num_emotions", 1), ("dim", 1), ("records_per_emotion", 1), ("seed", 0)):
            setattr(self, name, whole(getattr(self, name), least, name))
        self.cluster_sigma = real(self.cluster_sigma, ">=", 0.0, "cluster_sigma")
        self.center_spread = real(self.center_spread, ">", 0.0, "center_spread")
        mix = tuple(self.intensity_mix)
        if len(mix) != 3 or not all(is_real(f, ">=", 0.0) for f in mix):
            raise InvalidParameterError("intensity_mix must be three finite non-negative fractions")
        mix = tuple(map(float, mix))
        if abs(sum(mix) - 1.0) > 1e-9:
            raise InvalidParameterError(
                f"intensity_mix must sum to 1 within 1e-9, got {sum(mix)}"
            )
        self.intensity_mix = mix

    @property
    def num_records(self) -> int:
        return self.num_emotions * self.records_per_emotion


def _draw_centers(rng: np.random.Generator, config: SyntheticDatasetConfig) -> np.ndarray:
    """Cluster centers for ``config``, uniform in the spread hypercube.

    The database and its query sets both take this as the first draw of a
    generator seeded with ``config.seed``, so they share the same centers.
    """
    return rng.uniform(
        -config.center_spread, config.center_spread, size=(config.num_emotions, config.dim)
    )


def generate_synthetic_db(config: SyntheticDatasetConfig) -> EmbeddingDatabase:
    """Draw the database: per-cluster Gaussian blobs, unit-normalized.

    Draw order under the seed is fixed (centers, then noise, then intensity
    codes) so the same config always produces byte-identical records.
    """
    rng = seeded_rng(config.seed)
    centers = _draw_centers(rng, config)
    n = config.num_records
    noise = rng.standard_normal((n, config.dim))
    codes = rng.choice(3, size=n, p=list(config.intensity_mix))

    raw = np.repeat(centers, config.records_per_emotion, axis=0) + config.cluster_sigma * noise
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    unit = (raw / norms).astype(np.float32)

    per = config.records_per_emotion
    rows = [(emotion_label(e), p) for e in range(config.num_emotions) for p in range(per)]
    return EmbeddingDatabase(
        config.dim,
        unit,
        codes.astype(np.uint8),
        ids=[f"{label}-{p:04d}" for label, p in rows],
        labels=[label for label, _ in rows],
        transcripts=[f"synthetic utterance {label} {p}" for label, p in rows],
        audio_refs=(None,) * n,
    )


def make_query_set(config: SyntheticDatasetConfig, n_queries: int, seed: int) -> list:
    """Held-out queries from the same mixture; truth = generating cluster.

    With ``cluster_sigma=0`` queries sit exactly on the normalized centers,
    which is the regime where both retrieval methods should be near-perfect.
    """
    n_queries = whole(n_queries, 1, "n_queries")
    centers = _draw_centers(seeded_rng(config.seed), config)
    rng = seeded_rng(seed)
    which = rng.integers(0, config.num_emotions, size=n_queries)
    raw = centers[which] + config.cluster_sigma * rng.standard_normal((n_queries, config.dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    unit = (raw / norms).astype(np.float32)
    return [(EmotionEmbedding(unit[i]), emotion_label(int(which[i]))) for i in range(n_queries)]


@dataclass
class BenchResult:
    """One benchmark cell, Table-style."""

    method: RetrievalMethod
    db_size: int
    accuracy: float
    mean_latency_ns: int
    p95_latency_ns: int
    queries: int

    def to_json_dict(self) -> dict:
        return {**asdict(self), "method": self.method.value}


def _p95_nearest_rank(latencies: list) -> int:
    ordered = sorted(latencies)
    rank = math.ceil(0.95 * len(ordered))
    return int(ordered[rank - 1])


class _Cell:
    """One (method, database) cell, warmed up untimed on creation; :meth:`run` times a slice of its queries."""

    def __init__(self, db: EmbeddingDatabase, method: RetrievalMethod, query_set: list, index, warmup: int):
        if not query_set:
            raise InvalidParameterError("query set must be non-empty")
        self.db, self.method, self.query_set, self.index = db, method, query_set, index
        self.label_of, self.latencies, self.scans, self.matched = dict(zip(db.ids, db.labels)), [], [], 0
        for query, _ in query_set[: whole(warmup, 0, "warmup")]:
            retrieve(db, query, method, index=index)

    def run(self, start: int, stop: int) -> None:
        for query, truth in self.query_set[start:stop]:
            result = retrieve(self.db, query, self.method, index=self.index)
            self.latencies.append(result.elapsed_ns)
            self.scans.append(result.candidates_scanned)
            self.matched += self.label_of[result.record_id] == truth

    def result(self) -> BenchResult:
        n, mean = len(self.query_set), int(round(sum(self.latencies) / len(self.latencies)))
        return BenchResult(self.method, len(self.db), self.matched / n, mean, _p95_nearest_rank(self.latencies), n)


def run_cell(
    db: EmbeddingDatabase,
    method: RetrievalMethod,
    query_set: list,
    *,
    index=None,
    warmup: int = WARMUP_QUERIES,
):
    """Time one (method, database) cell over a query set.

    Returns ``(BenchResult, candidates_scanned per query)``.  The first
    ``warmup`` queries (an integer >= 0) run untimed to populate lazy caches
    before anything is recorded.
    """
    cell = _Cell(db, method, query_set, index, warmup)
    cell.run(0, len(query_set))
    return cell.result(), cell.scans


def run_benchmark(
    cells=None,
    *,
    n_queries: int = 1000,
    seed: int = 0,
    num_emotions: int = DEFAULT_NUM_EMOTIONS,
    dim: int = DEFAULT_DIM,
    cluster_sigma: float = DEFAULT_SIGMA,
    center_spread: float = DEFAULT_SPREAD,
) -> list:
    """Run every (method, size) cell and return BenchResults in cell order.

    Databases and query sets are built once per size with seeds derived from
    the top-level seed, so the two methods in one size answer exactly the
    same queries.  Every clustering size's index is fitted, and every cell
    warmed up, before the first timed query; then all cells advance through
    their queries together, :data:`ROUND_QUERIES` at a time.  A size's cells
    read one grouped copy of its rows, its index's if it has a clustering
    cell.  Sizes must be integers divisible by ``num_emotions``.
    """
    if cells is None:
        cells = [(m, s) for m in (RetrievalMethod.EMBEDDING, RetrievalMethod.CLUSTERING) for s in DEFAULT_SIZES]
    cells = [(RetrievalMethod.parse(m), whole(s, 1, "database size")) for m, s in cells]
    seed, num_emotions = whole(seed, 0, "seed"), whole(num_emotions, 1, "num_emotions")
    if not cells:
        raise InvalidParameterError("benchmark needs at least one cell")

    sizes = sorted({s for _, s in cells})
    built = {}
    for size in sizes:
        if size % num_emotions != 0:
            raise InvalidParameterError(f"database size {size} is not a multiple of num_emotions={num_emotions}")
        config = SyntheticDatasetConfig(
            num_emotions, dim, size // num_emotions, cluster_sigma, center_spread, seed=seed * 1_000_003 + size
        )
        built[size] = (generate_synthetic_db(config), make_query_set(config, n_queries, config.seed + 500_009))

    clustered = sorted({s for m, s in cells if m is RetrievalMethod.CLUSTERING})
    indexes = {s: kmeans_fit(built[s][0], default_k(built[s][0]), seed=seed) for s in clustered}
    runs = [
        _Cell(built[s][0], m, built[s][1], indexes[s] if m is RetrievalMethod.CLUSTERING else None, WARMUP_QUERIES)
        for m, s in cells
    ]
    for start in range(0, n_queries, ROUND_QUERIES):
        for cell in runs:
            cell.run(start, start + ROUND_QUERIES)
    return [cell.result() for cell in runs]


# ---------------------------------------------------------------------------
# reports

CSV_COLUMNS = ("method", "db_size", "accuracy", "mean_latency_ns", "p95_latency_ns", "queries")


def emit_report(results: list, path, fmt: str = "csv") -> None:
    """Write results as CSV (fixed column order) or JSON."""
    if not results:
        raise InvalidParameterError("cannot emit an empty report")
    fmt = str(fmt).lower()
    if fmt == "csv":
        # ints, floats and the method names never need quoting
        rows = [CSV_COLUMNS, *([d[c] for c in CSV_COLUMNS] for d in map(BenchResult.to_json_dict, results))]
        atomic_write_text(path, "".join(",".join(map(str, row)) + "\n" for row in rows))
    elif fmt == "json":
        atomic_write_text(path, json.dumps([r.to_json_dict() for r in results], indent=2) + "\n")
    else:
        raise InvalidParameterError(f"unknown report format {fmt!r}; expected csv or json")
