"""Shared builders for the test suite."""

import time

import numpy as np

from emorag import (
    DimensionMismatchError,
    EmbeddingDatabase,
    EmptyDatabaseError,
    IntensityLevel,
    RetrievalMethod,
    RetrievalResult,
    StaleIndexError,
)
from emorag.retrieval import _scan_argmax, _unit_query
from emorag.util import log

LEVELS = (IntensityLevel.WEAK, IntensityLevel.NORMAL, IntensityLevel.STRONG)


def build_db(vectors, labels=None, intensities=None, ids=None, transcripts=None, audio_refs=None):
    """Assemble a database from row vectors plus optional per-record metadata."""
    vectors = np.asarray(vectors, dtype=np.float32)
    n = vectors.shape[0]
    if labels is None:
        labels = [f"label{i % 3}" for i in range(n)]
    if intensities is None:
        intensities = [LEVELS[i % 3] for i in range(n)]
    if ids is None:
        ids = [f"rec{i}" for i in range(n)]
    if transcripts is None:
        transcripts = ["" for _ in range(n)]
    if audio_refs is None:
        audio_refs = [None for _ in range(n)]
    codes = [IntensityLevel.parse(level).wire_code for level in intensities]
    return EmbeddingDatabase(vectors.shape[1], vectors, codes, ids, labels, transcripts, audio_refs)


def hand_filtered(db, level):
    """The records at ``level``, picked one row at a time from ``db``'s columns."""
    rows = [pos for pos in range(len(db)) if db.intensity_codes[pos] == level.wire_code]
    columns = (db.matrix, db.intensity_codes, db.ids, db.labels, db.transcripts, db.audio_refs)
    return EmbeddingDatabase(db.dim, *([col[pos] for pos in rows] for col in columns))


def zero_first_centroid(emix: bytes) -> bytes:
    """EMIX bytes with the first centroid's floats zeroed (they follow the 16-byte header)."""
    dim = int.from_bytes(emix[12:16], "little")
    return emix[:16] + bytes(4 * dim) + emix[16 + 4 * dim :]


def random_db(rng, n=None, dim=None, n_labels=3, with_metadata=True):
    """A random gaussian database; optionally with messy unicode metadata."""
    if n is None:
        n = int(rng.integers(1, 40))
    if dim is None:
        dim = int(rng.integers(2, 16))
    vectors = rng.standard_normal((n, dim)).astype(np.float32)
    labels = [f"emo{int(rng.integers(n_labels))}" for _ in range(n)]
    intensities = [LEVELS[int(rng.integers(3))] for _ in range(n)]
    words = ("hello", "世界", "grüß", "åå", "x y z", "")
    transcripts = None
    audio_refs = None
    if with_metadata:
        transcripts = [words[int(rng.integers(len(words)))] for _ in range(n)]
        audio_refs = [
            f"wav/{i}.wav" if rng.random() < 0.5 else None for i in range(n)
        ]
    return build_db(
        vectors,
        labels=labels,
        intensities=intensities,
        transcripts=transcripts,
        audio_refs=audio_refs,
    )


# ---------------------------------------------------------------------------
# reference flow samplers: the float64 concatenate-per-step Euler loop, kept as
# an accuracy oracle, and the naive form of the float32-field sampler that
# replaced it, kept as a bitwise oracle


def reference_forward_cached(model, features: np.ndarray):
    """Forward pass keeping each layer's input; returns (activations, output)."""
    hs = [features]
    last = len(model.weights) - 1
    h = features
    for l in range(last):
        h = np.tanh(h @ model.weights[l].T + model.biases[l])
        hs.append(h)
    out = h @ model.weights[last].T + model.biases[last]
    return hs, out


def reference_forward_rows(model, X, t, cond, spk) -> np.ndarray:
    feats = np.concatenate([X, cond, spk, t[:, None]], axis=1)
    _, out = reference_forward_cached(model, feats)
    return out


def reference_f64_ode_integrate_batch(model, x_init, cond, spk, n_steps) -> np.ndarray:
    """Explicit Euler in float64, one fresh feature matrix and layer output per step."""
    X = np.asarray(x_init, dtype=np.float64).copy()
    cond = np.asarray(cond, dtype=np.float64)
    spk = np.asarray(spk, dtype=np.float64)
    B = X.shape[0]
    if spk.ndim == 1:
        spk = np.broadcast_to(spk, (B, spk.shape[0]))
    dt = 1.0 / n_steps
    t_col = np.empty(B)
    for i in range(n_steps):
        t_col.fill(i * dt)
        X = X + dt * reference_forward_rows(model, X, t_col, cond, spk)
    return X


def reference_ode_integrate_batch(model, x_init, cond, spk, n_steps) -> np.ndarray:
    """Explicit Euler with a float64 state and a float32 field, fresh arrays every step.

    Layer 0's constant part ``[cond, spk]·W_cs + b0`` is summed in float64 and
    rounded once; the output layer is scaled by dt in float64 before rounding.
    """
    X = np.asarray(x_init, dtype=np.float64).copy()
    spk = np.asarray(spk, dtype=np.float64)
    if spk.ndim == 1:
        spk = np.broadcast_to(spk, (X.shape[0], spk.shape[0]))
    s, dt = model.state_dim, 1.0 / n_steps
    Ws, bs = [W.T for W in model.weights], list(model.biases)
    Ws[-1], bs[-1] = dt * Ws[-1], dt * bs[-1]
    f32 = lambda a: np.ascontiguousarray(a, dtype=np.float32)
    base = f32(np.concatenate([cond, spk], axis=1) @ Ws[0][s:-1] + bs[0])
    for i in range(n_steps):
        h = X.astype(np.float32) @ f32(Ws[0][:s]) + base + np.float32(i * dt) * f32(Ws[0][-1])
        for W, b in zip(Ws[1:], bs[1:]):
            h = np.tanh(h) @ f32(W) + f32(b)
        X = X + h
    return X


# ---------------------------------------------------------------------------
# reference clustered retrieval: the mask-and-gather probe that the contiguous
# per-cluster slices replaced, kept word for word as a bitwise oracle


def reference_retrieve_clustering_based(db, index, query):
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
    cluster = int(np.argmax(index.unit_centroids @ qn))
    members = np.nonzero(index.assignments == cluster)[0]
    if members.size == 0:
        log.debug("cluster %d has no members; scanning all %d records", cluster, len(db))
        pos, sim = _scan_argmax(db.unit_matrix, qn)
        scanned = len(db)
    else:
        # members ascend, so the lowest member position still wins ties
        best, sim = _scan_argmax(db.unit_matrix[members], qn)
        pos = int(members[best])
        scanned = int(members.size)
    return RetrievalResult(
        record_id=db.ids[pos],
        similarity=sim,
        method=RetrievalMethod.CLUSTERING,
        candidates_scanned=scanned,
        elapsed_ns=time.perf_counter_ns() - t0,
    )
