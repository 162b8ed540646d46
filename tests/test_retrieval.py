"""Retrieval layer: cosine scan, spherical k-means, index files, gating."""

import gc
import logging
import sys
import threading
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorag import (
    ClusterIndex,
    DimensionMismatchError,
    EmbeddingDatabase,
    EmotionEmbedding,
    EmptyDatabaseError,
    EmptySubsetError,
    FormatError,
    IndexBundle,
    IntensityLevel,
    InvalidIntensityError,
    InvalidParameterError,
    MalformedHeaderError,
    MissingIndexError,
    NonFiniteValueError,
    RetrievalMethod,
    StaleIndexError,
    ZeroNormError,
    build_index_bundle,
    default_k,
    filter_by_intensity,
    kmeans_fit,
    load_index,
    load_index_bundle,
    retrieve,
    retrieve_clustering_based,
    retrieve_embedding_based,
    save_index,
    save_index_bundle,
)
from emorag.retrieval import (
    _scan_argmax,
    deserialize_index,
    serialize_index,
)
from emorag import retrieval, store
from emorag.store import deserialize_db, load_db, save_db, serialize_db
from emorag.synthbench import SyntheticDatasetConfig, generate_synthetic_db, make_query_set

from helpers import (
    LEVELS,
    build_db,
    hand_filtered,
    random_db,
    reference_retrieve_clustering_based,
    zero_first_centroid,
)


def brute_force_argmax(db, query):
    """Independent oracle: per-record python cosine, strict > keeps first."""
    q = query.values.astype(np.float64)
    qn = q / np.linalg.norm(q)
    best_id, best_sim = None, -2.0
    for rid, row in zip(db.ids, db.matrix):
        v = row.astype(np.float64)
        sim = float(np.dot(v, qn) / np.linalg.norm(v))
        if sim > best_sim:
            best_id, best_sim = rid, sim
    return best_id, best_sim


# ---------------------------------------------------------------------------
# cosine similarity: the value the exhaustive scan reports


def test_cosine_examples():
    def cosine(query, row):
        db = build_db(np.array([row], dtype=np.float32))
        return retrieve_embedding_based(db, EmotionEmbedding(query)).similarity

    assert cosine([1.0, 2.0, 2.0], [1.0, 2.0, 2.0]) == pytest.approx(1.0, abs=1e-12)
    assert cosine([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert cosine([1.0, 0.0], [-2.0, 0.0]) == pytest.approx(-1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# k-means


def test_kmeans_k1_is_normalized_mean():
    vecs = np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=np.float32)
    db = build_db(vecs)
    index, history = kmeans_fit(db, 1, return_history=True)
    unit = db.unit_matrix
    mean = unit.mean(axis=0)
    expected = mean / np.linalg.norm(mean)
    np.testing.assert_allclose(index.centroids[0], expected.astype(np.float32), atol=1e-6)
    assert index.k == 1
    assert np.array_equal(index.assignments, np.zeros(3, dtype=np.uint32))
    # the last iteration's inertia is that of the float64 normalized mean
    hand_inertia = float(np.sum((unit - expected) ** 2))
    assert history[-1] == pytest.approx(hand_inertia, rel=1e-9)


def test_kmeans_recovers_two_groups():
    rng = np.random.default_rng(0)
    a = np.array([1.0, 0.0]) + 0.01 * rng.standard_normal((20, 2))
    b = np.array([-1.0, 0.0]) + 0.01 * rng.standard_normal((20, 2))
    db = build_db(np.vstack([a, b]).astype(np.float32))
    index = kmeans_fit(db, 2, seed=1)
    cents = index.centroids.astype(np.float64)
    cents = cents[np.argsort(cents[:, 0])]
    np.testing.assert_allclose(cents[0], [-1.0, 0.0], atol=0.05)
    np.testing.assert_allclose(cents[1], [1.0, 0.0], atol=0.05)
    assert len(set(index.assignments[:20])) == 1
    assert len(set(index.assignments[20:])) == 1


def test_kmeans_k_equals_n():
    rng = np.random.default_rng(3)
    db = build_db(rng.standard_normal((6, 4)).astype(np.float32))
    index, history = kmeans_fit(db, 6, seed=0, return_history=True)
    assert history[-1] <= 1e-9
    assert sorted(index.assignments.tolist()) == list(range(6))


def test_kmeans_validation():
    db = build_db(np.eye(3, dtype=np.float32))
    with pytest.raises(InvalidParameterError):
        kmeans_fit(db, 0)
    with pytest.raises(InvalidParameterError):
        kmeans_fit(db, 4)
    for k in (1.5, 2.0, True):
        with pytest.raises(InvalidParameterError, match="k must"):
            kmeans_fit(db, k)
    for seed in (-1, 1.5, True, "1"):
        with pytest.raises(InvalidParameterError, match="seed"):
            kmeans_fit(db, 2, seed=seed)
    with pytest.raises(EmptyDatabaseError):
        kmeans_fit(build_db(np.zeros((0, 3))), 1)
    a, b = kmeans_fit(db, np.int64(2), seed=np.int64(3)), kmeans_fit(db, 2, seed=3)
    assert type(a.k) is int and serialize_index(a) == serialize_index(b)


def test_kmeans_deterministic_under_seed():
    db = random_db(np.random.default_rng(11), n=30, dim=8)
    a, history_a = kmeans_fit(db, 4, seed=9, return_history=True)
    b, history_b = kmeans_fit(db, 4, seed=9, return_history=True)
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert np.array_equal(a.assignments, b.assignments)
    assert history_a == history_b


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_kmeans_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 50))
    dim = int(rng.integers(2, 12))
    k = int(rng.integers(1, min(n, 8) + 1))
    db = build_db(rng.standard_normal((n, dim)).astype(np.float32))
    index, history = kmeans_fit(db, k, seed=seed, return_history=True)
    # inertia never increases across Lloyd iterations
    for early, late in zip(history, history[1:]):
        assert late <= early + 1e-12 * max(1.0, abs(early))
    # stored assignments are exactly nearest-centroid under the stored values
    unit = db.unit_matrix
    cents = index.centroids.astype(np.float64)
    d2 = 1.0 + np.sum(cents * cents, axis=1)[None, :] - 2.0 * (unit @ cents.T)
    assert np.array_equal(index.assignments, np.argmin(d2, axis=1).astype(np.uint32))
    # centroids of a spherical fit stay unit-norm (up to f32 rounding)
    norms = np.linalg.norm(cents, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)
    assert index.fingerprint == db.fingerprint


def test_kmeans_survives_duplicate_points():
    db = build_db(np.ones((4, 3), dtype=np.float32))
    index = kmeans_fit(db, 2, seed=0)
    assert index.assignments.shape == (4,)
    assert index.centroids.shape == (2, 3)
    result = retrieve_clustering_based(db, index, EmotionEmbedding([1.0, 1.0, 1.0]))
    assert result.record_id == "rec0"


def test_default_k_counts_labels():
    db = build_db(np.eye(3, dtype=np.float32), labels=["a", "a", "b"])
    assert default_k(db) == 2
    with pytest.raises(EmptyDatabaseError):
        default_k(build_db(np.zeros((0, 2))))


# ---------------------------------------------------------------------------
# index serialization


def test_index_roundtrip_bit_exact(tmp_path):
    db = random_db(np.random.default_rng(2), n=25, dim=6)
    index = kmeans_fit(db, 3, seed=5)
    data = serialize_index(index)
    again = deserialize_index(data)
    assert again.k == index.k
    assert again.centroids.tobytes() == index.centroids.tobytes()
    assert np.array_equal(again.assignments, index.assignments)
    assert again.fingerprint == index.fingerprint
    assert serialize_index(again) == data
    path = tmp_path / "ix.emix"
    save_index(index, path)
    assert serialize_index(load_index(path)) == data


def test_index_file_with_a_zero_norm_centroid_fails_at_load(tmp_path):
    db = build_db(np.eye(3, dtype=np.float32))
    path = tmp_path / "ix.emix"
    path.write_bytes(zero_first_centroid(serialize_index(kmeans_fit(db, 2, seed=0))))
    with pytest.raises(ZeroNormError, match="zero-norm centroid"):
        load_index(path)


def test_unit_centroids_are_frozen_and_equal_the_normalized_centroids():
    index = kmeans_fit(random_db(np.random.default_rng(4), n=30, dim=5), 3, seed=1)
    c = index.centroids.astype(np.float64)
    assert index.unit_centroids.tobytes() == (c / np.linalg.norm(c, axis=1)[:, None]).tobytes()
    assert not index.unit_centroids.flags.writeable


def test_index_malformed_files():
    db = build_db(np.eye(3, dtype=np.float32))
    data = serialize_index(kmeans_fit(db, 2, seed=0))
    with pytest.raises(MalformedHeaderError):
        deserialize_index(b"EMI")
    with pytest.raises(MalformedHeaderError):
        deserialize_index(b"XMIX" + data[4:])
    with pytest.raises(FormatError):
        deserialize_index(data[:-1])
    with pytest.raises(FormatError):
        deserialize_index(data + b"\x00")


# ``end`` is where the centroid block ends: a file of k=2, dim=3 and 3 assignments
EMIX_FAULTS = {
    "bad-version": (lambda raw, end: raw[:4] + (2).to_bytes(4, "little") + raw[8:], MalformedHeaderError),
    "zero-k": (lambda raw, end: raw[:8] + bytes(4) + raw[12:], MalformedHeaderError),
    "zero-dim": (lambda raw, end: raw[:12] + bytes(4) + raw[16:], MalformedHeaderError),
    "ends-in-centroids": (lambda raw, end: raw[: end - 1], FormatError),
    "ends-in-count": (lambda raw, end: raw[: end + 3], FormatError),
    "ends-in-assignments": (lambda raw, end: raw[: end + 5], FormatError),
    "ends-in-fingerprint": (lambda raw, end: raw[:-1], FormatError),
    "trailing-byte": (lambda raw, end: raw + b"\x00", FormatError),
}


@pytest.mark.parametrize("fault", list(EMIX_FAULTS))
def test_index_file_faults_keep_their_error_types(fault):
    edit, expected = EMIX_FAULTS[fault]
    index = kmeans_fit(build_db(np.eye(3, dtype=np.float32)), 2, seed=0)
    with pytest.raises(FormatError) as caught:
        deserialize_index(edit(serialize_index(index), 16 + 4 * index.k * index.dim))
    assert type(caught.value) is expected


def test_index_rejects_out_of_range_assignment():
    db = build_db(np.eye(2, dtype=np.float32))
    index = kmeans_fit(db, 1, seed=0)
    raw = bytearray(serialize_index(index))
    # assignments sit after header + centroids + count, 4 bytes each
    pos = 16 + 4 * index.k * index.dim + 4
    raw[pos : pos + 4] = (99).to_bytes(4, "little")
    with pytest.raises(FormatError):
        deserialize_index(bytes(raw))


# ---------------------------------------------------------------------------
# embedding-based retrieval


def test_retrieve_singleton():
    db = build_db(np.array([[0.0, 2.0]], dtype=np.float32))
    result = retrieve_embedding_based(db, EmotionEmbedding([0.0, 5.0]))
    assert result.record_id == "rec0"
    assert result.similarity == pytest.approx(1.0, abs=1e-12)
    assert result.candidates_scanned == 1
    assert result.method is RetrievalMethod.EMBEDDING


def test_retrieve_exact_match_query():
    db = random_db(np.random.default_rng(1), n=20, dim=5)
    result = retrieve_embedding_based(db, EmotionEmbedding(db.matrix[7]))
    assert result.record_id == db.ids[7]
    assert result.similarity == pytest.approx(1.0, abs=1e-9)


def test_retrieve_tie_breaks_to_lowest_position():
    v = np.array([1.0, 1.0], dtype=np.float32)
    db = build_db(np.stack([v, v, v]))
    result = retrieve_embedding_based(db, EmotionEmbedding(v))
    assert result.record_id == "rec0"


def test_retrieve_validation():
    db = build_db(np.eye(2, dtype=np.float32))
    with pytest.raises(EmptyDatabaseError):
        retrieve_embedding_based(build_db(np.zeros((0, 2))), EmotionEmbedding([1.0, 0.0]))
    with pytest.raises(DimensionMismatchError):
        retrieve_embedding_based(db, EmotionEmbedding([1.0, 0.0, 0.0]))
    with pytest.raises(ZeroNormError):
        retrieve_embedding_based(db, EmotionEmbedding([0.0, 0.0]))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_retrieve_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    db = random_db(rng, n=int(rng.integers(1, 60)))
    for _ in range(3):
        query = EmotionEmbedding(rng.standard_normal(db.dim).astype(np.float32))
        result = retrieve_embedding_based(db, query)
        oracle_id, oracle_sim = brute_force_argmax(db, query)
        assert result.record_id == oracle_id
        assert result.similarity == pytest.approx(oracle_sim, abs=1e-9)
        assert result.candidates_scanned == len(db)


# ---------------------------------------------------------------------------
# cosine scan: a row scores the same bits at any position

# a BLAS product scores rows in unrolled groups plus a remainder loop, and splits
# a large product into per-thread row ranges; the scan tests put rows on both
# sides of 2,048 (a multiple of 16, and where a two-thread OpenBLAS product over
# 4,099 rows of dim 128 splits) and a few thousand rows past it
SCAN_ROWS = 2048


def _unit_rows(rng, n, dim):
    m = rng.standard_normal((n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _first_max_by_row(unit, qn):
    """Reference scan: each row scored alone, as a stack of ``(1, dim) @ (dim, 1)``
    products (one dot product each, the bits of ``qn.dot(row)``); the earliest maximum wins."""
    sims = (unit[:, None, :] @ qn[:, None])[:, 0, 0]
    pos = int(np.argmax(sims))
    assert sims[pos] == qn.dot(unit[pos])
    return pos, float(sims[pos])


@pytest.mark.parametrize("dim", [2, 96, 128, 300])
@pytest.mark.parametrize("extra", [-1, 0, 1, "several"])
def test_scan_gives_each_row_its_own_dot_product_bits(dim, extra):
    """The scan gives every row the bits of its own dot product, wherever it sits."""
    n = 3 * SCAN_ROWS + 80 if extra == "several" else SCAN_ROWS + extra
    rng = np.random.default_rng([dim, n])
    unit = _unit_rows(rng, n, dim)
    # random queries, then queries aimed at the rows around the first multiple
    # of SCAN_ROWS and at the last rows, where a product kernel would score the
    # best row through a different path
    aimed = [*range(SCAN_ROWS - 4, SCAN_ROWS + 4), *range(n - 4, n)]
    planted = [unit[k] for k in aimed if 0 <= k < n]
    for qn in [_unit_rows(rng, 1, dim)[0] for _ in range(3)] + planted:
        pos, sim = _first_max_by_row(unit, qn)
        got_pos, got_sim = _scan_argmax(unit, qn, None)
        assert got_pos == pos
        assert got_sim == sim  # bit for bit


def test_scan_tie_at_distant_positions_breaks_to_lowest_position():
    vectors = np.zeros((3 * SCAN_ROWS, 128), dtype=np.float32)
    vectors[:, 1] = 1.0
    # the same exact best score near the start, the middle and the end
    for i in (5, SCAN_ROWS + 5, 2 * SCAN_ROWS + 5):
        vectors[i] = np.eye(128, dtype=np.float32)[0]
    db = build_db(vectors)
    result = retrieve_embedding_based(db, EmotionEmbedding(np.eye(128, dtype=np.float32)[0]))
    assert result.record_id == "rec5"
    assert result.similarity == 1.0


def test_clustered_scan_matches_direct_member_scan():
    cfg = SyntheticDatasetConfig(num_emotions=2, dim=128, records_per_emotion=2500, seed=11)
    db = generate_synthetic_db(cfg)
    index = kmeans_fit(db, 2, seed=0)
    for query, _ in make_query_set(cfg, 6, seed=12):
        result = retrieve_clustering_based(db, index, query)
        qn = query.values.astype(np.float64)
        qn = qn / np.linalg.norm(qn)
        cluster, _ = _first_max_by_row(index.unit_centroids, qn)
        members = np.nonzero(index.assignments == cluster)[0]
        assert members.size > SCAN_ROWS
        best, sim = _first_max_by_row(db.unit_matrix[members], qn)
        assert result.candidates_scanned == members.size
        assert result.record_id == db.ids[int(members[best])]
        assert result.similarity == sim



# ---------------------------------------------------------------------------
# exact copies of the best row tie to the lowest position


def _interleaved(vectors):
    """``vectors`` as the weak records of a database whose odd rows are strong fillers."""
    n, dim = vectors.shape
    rows = np.empty((2 * n, dim), dtype=np.float32)
    rows[0::2] = vectors
    rows[1::2] = -vectors[::-1]
    return build_db(rows, intensities=[LEVELS[0], LEVELS[2]] * n)


def _ties_to_first(vectors, query_row):
    """Record id of every retrieval path for the query ``vectors[query_row]``.

    Exhaustive and clustered (one cluster) over ``vectors``, then both again
    gated to the weak records of a database that interleaves them with others,
    then clustered over ``vectors`` with the query row at a later level than the rest.
    """
    query = EmotionEmbedding(vectors[query_row])
    db = build_db(vectors)
    got = [
        retrieve_embedding_based(db, query).record_id,
        retrieve_clustering_based(db, kmeans_fit(db, 1), query).record_id,
    ]
    mixed = _interleaved(vectors)
    bundle = build_index_bundle(mixed, 1)
    for method in RetrievalMethod:
        rid = retrieve(mixed, query, method, index=bundle, intensity="weak").record_id
        got.append(f"rec{int(rid[3:]) // 2}")  # weak record 2i holds vectors[i]
    # the query row strong, every other row weak: an ungated cluster slice holds the
    # weak block first, so a copy precedes the original there
    leveled = build_db(vectors, intensities=[LEVELS[2 if i == query_row else 0] for i in range(len(vectors))])
    got.append(retrieve_clustering_based(leveled, kmeans_fit(leveled, 1), query).record_id)
    return got


def test_copy_of_best_row_ties_to_lowest_position():
    # a copy of row 0 at every position of n = 2..39: 741 placements, each
    # through exhaustive, clustered, gated-exhaustive, gated-clustered and
    # level-ordered clustered retrieval; BLAS scores the last n mod 4 rows
    # through a remainder loop whose last bit can differ, so the copy used to
    # win some of them, and the level-ordered slice puts the copy first
    failed = []
    for n in range(2, 40):
        base = np.random.default_rng(n).standard_normal((n, 128)).astype(np.float32)
        for p in range(1, n):
            vectors = base.copy()
            vectors[p] = vectors[0]
            got = _ties_to_first(vectors, 0)
            if got != ["rec0"] * 5:
                failed.append((n, p, got))
    assert failed == []


def test_copy_of_best_row_far_from_it_ties_to_lowest_position():
    n = 2 * SCAN_ROWS + 3
    base = np.random.default_rng(5).standard_normal((n, 128)).astype(np.float32)
    for first in (SCAN_ROWS - 2, SCAN_ROWS - 1):
        for copy in (SCAN_ROWS, SCAN_ROWS + 1, n - 2, n - 1):
            vectors = base.copy()
            vectors[copy] = vectors[first]
            assert _ties_to_first(vectors, first) == [f"rec{first}"] * 5, (first, copy)


def test_scan_returns_the_rescored_value_of_several_candidates():
    unit = _unit_rows(np.random.default_rng(17), 300, 64)
    unit[[40, 200]] = unit[7]
    pos, sim = _scan_argmax(unit, unit[7], None)
    assert pos == 7
    assert sim == float(np.dot(unit[7], unit[7]))

# ---------------------------------------------------------------------------
# clustering-based retrieval


def test_clustering_k1_equals_embedding():
    rng = np.random.default_rng(4)
    db = random_db(rng, n=30, dim=6)
    index = kmeans_fit(db, 1, seed=0)
    q = EmotionEmbedding(rng.standard_normal(6).astype(np.float32))
    emb = retrieve_embedding_based(db, q)
    clu = retrieve_clustering_based(db, index, q)
    assert clu.record_id == emb.record_id
    assert clu.similarity == pytest.approx(emb.similarity, abs=1e-12)
    assert clu.candidates_scanned == len(db)
    assert clu.method is RetrievalMethod.CLUSTERING


def test_clustering_subset_dominance():
    rng = np.random.default_rng(6)
    for trial in range(10):
        db = random_db(rng, n=int(rng.integers(5, 50)))
        k = int(rng.integers(1, 5))
        index = kmeans_fit(db, min(k, len(db)), seed=trial)
        q = EmotionEmbedding(rng.standard_normal(db.dim).astype(np.float32))
        emb = retrieve_embedding_based(db, q)
        clu = retrieve_clustering_based(db, index, q)
        assert clu.similarity <= emb.similarity + 1e-12
        assert clu.candidates_scanned <= emb.candidates_scanned


def test_clustering_stale_index():
    db = random_db(np.random.default_rng(8), n=12, dim=4)
    index = kmeans_fit(db, 2, seed=0)
    columns = (db.matrix, db.intensity_codes, db.ids, db.labels, db.transcripts, db.audio_refs)
    smaller = EmbeddingDatabase(db.dim, *(col[:-1] for col in columns))
    with pytest.raises(StaleIndexError):
        retrieve_clustering_based(smaller, index, EmotionEmbedding(db.matrix[0]))


def test_cluster_index_validation():
    cents = np.eye(2, dtype=np.float32)
    fp = bytes(32)
    ClusterIndex(2, cents, [0, 1], fp)
    for assignments in ([0, 2], [0, -1], np.array([0, -1], dtype=np.int64)):
        with pytest.raises(InvalidParameterError):
            ClusterIndex(2, cents, assignments, fp)
    for k in (0, -1, 2.7, 2.0, True):
        with pytest.raises(InvalidParameterError, match="k must"):
            ClusterIndex(k, cents, [0, 1], fp)
    assert type(ClusterIndex(np.int64(2), cents, [0, 1], fp).k) is int
    for centroids in (np.eye(3, 2, dtype=np.float32), np.zeros((2, 0)), cents[0]):
        with pytest.raises(DimensionMismatchError):
            ClusterIndex(2, centroids, [0, 1], fp)
    with pytest.raises(DimensionMismatchError):
        ClusterIndex(2, cents, [[0, 1]], fp)
    with pytest.raises(NonFiniteValueError):
        ClusterIndex(2, [[1.0, 0.0], [np.nan, 1.0]], [0, 1], fp)
    with pytest.raises(FormatError):
        ClusterIndex(2, cents, [0, 1], fp[:31])


def test_bundle_for_level_takes_a_level_name():
    # one index serves every level, the one without records included
    db = build_db(np.eye(2, dtype=np.float32), intensities=["weak", "normal"])
    bundle = build_index_bundle(db, 1)
    for level in ("weak", "WEAK", IntensityLevel.WEAK, "strong", IntensityLevel.STRONG, None):
        assert bundle.for_level(level) is bundle.full
    with pytest.raises(InvalidIntensityError):
        bundle.for_level("loud")


def test_clustering_without_an_index_is_a_missing_index():
    db = build_db(np.eye(2, dtype=np.float32))
    with pytest.raises(MissingIndexError):
        retrieve_clustering_based(db, None, EmotionEmbedding([1.0, 0.0]))


def test_clustering_empty_cluster_falls_back_to_full_scan():
    vecs = np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.2]], dtype=np.float32)
    db = build_db(vecs)
    # hand-built index: cluster 1 sits right where the query points, but owns
    # no records, so the scan must widen to the whole database
    index = ClusterIndex(
        k=2,
        centroids=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32),
        assignments=np.zeros(3, dtype=np.uint32),
        fingerprint=db.fingerprint,
    )
    result = retrieve_clustering_based(db, index, EmotionEmbedding([0.0, 1.0]))
    assert result.candidates_scanned == 3
    oracle_id, _ = brute_force_argmax(db, EmotionEmbedding([0.0, 1.0]))
    assert result.record_id == oracle_id


def test_clustering_centroid_tie_breaks_low_index():
    vecs = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    db = build_db(vecs)
    index = ClusterIndex(
        k=2,
        centroids=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32),
        assignments=np.array([0, 1], dtype=np.uint32),
        fingerprint=db.fingerprint,
    )
    # equidistant from both centroids: must route to cluster 0
    result = retrieve_clustering_based(db, index, EmotionEmbedding([1.0, 1.0]))
    assert result.record_id == "rec0"


def test_clustering_routes_to_right_cluster():
    cfg = SyntheticDatasetConfig(
        num_emotions=6, dim=16, records_per_emotion=40, cluster_sigma=0.05, seed=3
    )
    db = generate_synthetic_db(cfg)
    index = kmeans_fit(db, 6, seed=0)
    for query, label in make_query_set(cfg, 50, seed=77):
        result = retrieve_clustering_based(db, index, query)
        assert db.labels[db.position(result.record_id)] == label
        assert result.candidates_scanned < len(db)


def test_clustering_label_recall_matches_embedding():
    # queries drawn at the cluster centers: the two methods agree on the
    # label in at least 99% of 1000 queries
    cfg = SyntheticDatasetConfig(
        num_emotions=8, dim=32, records_per_emotion=50, cluster_sigma=0.05, seed=10
    )
    db = generate_synthetic_db(cfg)
    index = kmeans_fit(db, default_k(db), seed=0)
    queries = make_query_set(replace(cfg, cluster_sigma=0.0), 1000, seed=11)
    agree = 0
    for query, _ in queries:
        emb = retrieve_embedding_based(db, query)
        clu = retrieve_clustering_based(db, index, query)
        if (
            db.labels[db.position(emb.record_id)]
            == db.labels[db.position(clu.record_id)]
        ):
            agree += 1
    assert agree >= 990



# ---------------------------------------------------------------------------
# inverted lists: each probed cluster is one contiguous slice


def _same_result(got, want):
    assert got.record_id == want.record_id
    assert np.float64(got.similarity).tobytes() == np.float64(want.similarity).tobytes()
    assert got.candidates_scanned == want.candidates_scanned


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_clustered_slices_equal_the_gather_reference(seed):
    rng = np.random.default_rng(seed)
    db = random_db(rng, n=int(rng.integers(1, 60)), with_metadata=False)
    for k in sorted({1, int(rng.integers(1, len(db) + 1)), len(db)}):
        index = kmeans_fit(db, k, seed=seed % 7)
        queries = [rng.standard_normal(db.dim), db.matrix[int(rng.integers(len(db)))]]
        for q in queries:
            query = EmotionEmbedding(np.asarray(q, dtype=np.float32))
            _same_result(
                retrieve_clustering_based(db, index, query),
                reference_retrieve_clustering_based(db, index, query),
            )


def test_clustered_slices_with_an_empty_cluster_equal_the_gather_reference():
    rng = np.random.default_rng(23)
    db = build_db(rng.standard_normal((30, 3)).astype(np.float32))
    index = ClusterIndex(
        k=3,
        centroids=np.eye(3, dtype=np.float32),
        assignments=np.array([0, 2] * 15, dtype=np.uint32),  # cluster 1 owns nothing
        fingerprint=db.fingerprint,
    )
    order, offsets, rows = index._inverted_lists(db)
    # level (position mod 3 here), then cluster (0 even, 2 odd), then position
    assert offsets.tolist() == [0, 5, 5, 10, 15, 15, 20, 25, 25, 30]
    assert order.tolist() == [p for lvl in range(3) for c in (0, 1) for p in range(lvl, 30, 3) if p % 2 == c]
    for axis in range(3):
        query = EmotionEmbedding(np.eye(3, dtype=np.float32)[axis])
        got = retrieve_clustering_based(db, index, query)
        _same_result(got, reference_retrieve_clustering_based(db, index, query))
        assert got.candidates_scanned == (30 if axis == 1 else 15)


def test_a_tie_across_cluster_blocks_goes_to_the_lower_position():
    best = np.array([0.2, 1.0, 0.3], dtype=np.float32)
    vectors = np.array([[1.0, 0.0, 0.0], best, [0.0, 0.0, 1.0], [1.0, 0.2, 0.0], best, [0.1, 0.0, 1.0]])
    db = build_db(vectors.astype(np.float32), intensities=["normal", "weak", "strong"] * 2)
    # rec1 (cluster 2) and its exact copy rec4 (cluster 0), both weak; cluster 1 owns nothing
    index = ClusterIndex(3, np.eye(3, dtype=np.float32), np.array([0, 2, 0, 2, 0, 2]), db.fingerprint)
    order = index._inverted_lists(db)[0].tolist()
    assert order.index(4) < order.index(1)  # the higher position comes first in every range holding both
    q = EmotionEmbedding(best)  # routes to the empty cluster 1
    for method, lvl, scanned in (
        ("embedding", "weak", 2),
        ("embedding", None, 6),
        ("clustering", "weak", 2),  # the fallback scans the gate's range
        ("clustering", None, 6),
    ):
        got = retrieve(db, q, method, index=index, intensity=lvl)
        assert (got.record_id, got.candidates_scanned) == ("rec1", scanned)
    assert retrieve(db, q, "embedding").record_id == "rec1"


def test_stale_or_mismatched_index_raises_before_building_lists():
    db = random_db(np.random.default_rng(8), n=12, dim=4)
    query = EmotionEmbedding(db.matrix[0])
    other = random_db(np.random.default_rng(9), n=12, dim=4)
    stale = kmeans_fit(other, 2, seed=0)
    short = ClusterIndex(2, stale.centroids, stale.assignments[:-1], db.fingerprint)
    wide = kmeans_fit(random_db(np.random.default_rng(10), n=12, dim=5), 2, seed=0)
    # a given index is checked whatever the method
    for method in RetrievalMethod:
        for index, error in ((stale, StaleIndexError), (short, StaleIndexError), (wide, DimensionMismatchError)):
            with pytest.raises(error):
                retrieve(db, query, method, index=index)
            assert index._lists is None
    assert db._level_rows is None


def test_inverted_list_rows_are_a_readonly_copy():
    db = random_db(np.random.default_rng(4), n=50, dim=6)
    index = kmeans_fit(db, 4, seed=0)
    retrieve_clustering_based(db, index, EmotionEmbedding(db.matrix[3]))
    order, offsets, rows = index._lists
    assert index._inverted_lists(db) is index._lists  # built once
    keys = index.k * db.intensity_codes.astype(np.int64) + index.assignments  # level, then cluster
    assert order.tolist() == np.argsort(keys, kind="stable").tolist()
    assert offsets.tolist() == [0, *np.cumsum(np.bincount(keys, minlength=3 * index.k)).tolist()]
    assert np.array_equal(rows, db.unit_matrix[order])
    assert rows.flags.c_contiguous
    assert not np.shares_memory(rows, db.unit_matrix)
    for a in (order, offsets, rows):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        rows[0, 0] = 0.0


def test_first_clustered_query_from_several_threads():
    # more threads than cores race to build one index's lists; every thread
    # must see a whole layout and return the reference's answers
    cfg = SyntheticDatasetConfig(num_emotions=4, dim=32, records_per_emotion=300, seed=4)
    db = generate_synthetic_db(cfg)
    fitted = kmeans_fit(db, 4, seed=0)
    queries = [q for q, _ in make_query_set(cfg, 40, seed=8)]
    want = [reference_retrieve_clustering_based(db, fitted, q) for q in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            index = deserialize_index(serialize_index(fitted))  # no lists yet
            start = threading.Barrier(4)
            got = [None] * 4

            def run(slot):
                start.wait(timeout=30)
                got[slot] = [retrieve_clustering_based(db, index, q) for q in queries]

            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            for results in got:
                for a, b in zip(results, want, strict=True):
                    _same_result(a, b)
    finally:
        sys.setswitchinterval(interval)


def test_serialized_index_is_unchanged_by_its_lists():
    db = random_db(np.random.default_rng(12), n=40, dim=5)
    index = kmeans_fit(db, 3, seed=0)
    before = serialize_index(index)
    retrieve_clustering_based(db, index, EmotionEmbedding(db.matrix[0]))
    assert index._lists is not None
    assert serialize_index(index) == before

# ---------------------------------------------------------------------------
# the retrieve() front door and intensity gating


def _gated_db():
    rng = np.random.default_rng(21)
    vecs = rng.standard_normal((12, 5)).astype(np.float32)
    levels = [LEVELS[i % 2] for i in range(12)]  # weak and normal only
    return build_db(vecs, intensities=levels)


def test_retrieve_gate_empty_subset():
    db = _gated_db()
    with pytest.raises(EmptySubsetError) as err:
        retrieve(db, EmotionEmbedding(db.matrix[0]), RetrievalMethod.EMBEDDING, intensity="strong")
    assert err.value.level == "strong"


def test_retrieve_gate_restricts_candidates():
    db = _gated_db()
    q = EmotionEmbedding(np.random.default_rng(5).standard_normal(5).astype(np.float32))
    gated = retrieve(db, q, "embedding", intensity=IntensityLevel.WEAK)
    assert db.intensity_codes[db.position(gated.record_id)] == IntensityLevel.WEAK.wire_code
    assert gated.candidates_scanned == 6
    sub = filter_by_intensity(db, IntensityLevel.WEAK)
    direct = retrieve_embedding_based(sub, q)
    assert gated.record_id == direct.record_id
    assert gated.similarity == direct.similarity


@pytest.mark.parametrize("method", ["embedding", "clustering"])
def test_retrieve_elapsed_includes_the_gate(monkeypatch, method):
    db = _gated_db()
    bundle = build_index_bundle(db, 2, seed=0)
    parse = IntensityLevel.parse

    def slow_gate(cls, level):
        time.sleep(0.05)
        return parse(level)

    # the gate's first step parses its level; the rest is the level slice's scan
    monkeypatch.setattr(IntensityLevel, "parse", classmethod(slow_gate))
    result = retrieve(db, EmotionEmbedding(db.matrix[0]), method, index=bundle, intensity="weak")
    assert result.elapsed_ns >= 50_000_000


def test_retrieve_clustering_requires_index():
    db = _gated_db()
    with pytest.raises(MissingIndexError):
        retrieve(db, EmotionEmbedding(db.matrix[0]), RetrievalMethod.CLUSTERING)


def test_retrieve_gated_clustering_uses_level_index():
    db = _gated_db()
    bundle = build_index_bundle(db, seed=0)
    q = EmotionEmbedding(np.random.default_rng(9).standard_normal(5).astype(np.float32))
    result = retrieve(db, q, "clustering", index=bundle, intensity="weak")
    assert db.intensity_codes[db.position(result.record_id)] == IntensityLevel.WEAK.wire_code
    # the one index serves the weak gate; a gate with no records reports the gate
    with pytest.raises(EmptySubsetError):
        retrieve(db, q, "clustering", index=bundle, intensity="strong")


def test_retrieve_gated_clustering_accepts_a_bare_index():
    db = _gated_db()
    bundle = build_index_bundle(db, 2, seed=0)
    for row in range(len(db)):
        q = EmotionEmbedding(db.matrix[row])
        for level in LEVELS[:2]:
            got = retrieve(db, q, "clustering", index=bundle.full, intensity=level)
            _same_result(got, retrieve(db, q, "clustering", index=bundle, intensity=level))


def test_gate_of_another_database_raises_stale():
    db = _gated_db()
    other = build_db(db.matrix[::-1], intensities=[LEVELS[i % 2] for i in range(12)])
    index = kmeans_fit(db, 2, seed=0)
    q = EmotionEmbedding(db.matrix[0])
    for given in (index, IndexBundle(index)):
        with pytest.raises(StaleIndexError):
            retrieve(other, q, "clustering", index=given, intensity="weak")
    with pytest.raises(StaleIndexError):
        retrieve_clustering_based(filter_by_intensity(other, "weak"), index, q)
    # an index fit on a gate's own subset still serves that subset
    weak = filter_by_intensity(db, "weak")
    own = kmeans_fit(weak, 2, seed=0)
    _same_result(retrieve_clustering_based(weak, own, q), reference_retrieve_clustering_based(weak, own, q))


def test_dropped_database_is_freed_without_the_cyclic_collector():
    db = _gated_db()
    bundle = build_index_bundle(db, 2, seed=0)
    for level in LEVELS[:2]:
        retrieve(db, EmotionEmbedding(db.matrix[0]), "clustering", index=bundle, intensity=level)
    parent = weakref.ref(db)
    gc.disable()
    try:
        del db
        assert parent() is None
    finally:
        gc.enable()


def test_build_index_bundle_defaults_and_limits():
    db = _gated_db()
    bundle = build_index_bundle(db, seed=0)
    assert bundle.full.k == default_k(db)
    # k only has to fit the whole database, not the 6-record weak level it also serves
    assert build_index_bundle(db, k=7, seed=0).full.k == 7
    with pytest.raises(InvalidParameterError):
        build_index_bundle(db, k=13, seed=0)  # the database has 12 records


def test_one_fit_serves_every_level(tmp_path, monkeypatch):
    db = random_db(np.random.default_rng(8), n=60, dim=6)
    fits = []
    fit = retrieval.kmeans_fit
    monkeypatch.setattr(retrieval, "kmeans_fit", lambda *a, **kw: fits.append(a) or fit(*a, **kw))
    bundle = build_index_bundle(db, 3, seed=0)
    assert len(fits) == 1
    save_index_bundle(bundle, tmp_path / "db.emix")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["db.emix"]
    for b in (bundle, load_index_bundle(tmp_path / "db.emix")):
        assert {id(b.for_level(level)) for level in (None, *LEVELS)} == {id(b.full)}
        assert b.full.centroids.tobytes() == bundle.full.centroids.tobytes()
        assert np.array_equal(b.full.assignments, bundle.full.assignments)
        assert b.full.fingerprint == db.fingerprint


def test_bundle_save_load(tmp_path):
    db = _gated_db()
    bundle = build_index_bundle(db, seed=0)
    path = tmp_path / "db.emix"
    save_index_bundle(bundle, path)
    assert load_index(path).centroids.tobytes() == bundle.full.centroids.tobytes()
    # per-level files that older versions wrote beside the index are not read
    (tmp_path / "db.weak.emix").write_bytes(b"not an index")
    loaded = load_index_bundle(path)
    assert serialize_index(loaded.full) == serialize_index(bundle.full)


def test_retrieval_is_deterministic():
    rng = np.random.default_rng(33)
    db = random_db(rng, n=40, dim=8)
    index = kmeans_fit(db, 3, seed=0)
    q = EmotionEmbedding(rng.standard_normal(8).astype(np.float32))
    for method, idx in (("embedding", None), ("clustering", index)):
        a = retrieve(db, q, method, index=idx)
        b = retrieve(db, q, method, index=idx)
        assert (a.record_id, a.similarity, a.candidates_scanned) == (
            b.record_id,
            b.similarity,
            b.candidates_scanned,
        )


# ---------------------------------------------------------------------------
# the gate is a level slice of its database


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gated_retrieve_equals_hand_filtered_database(seed):
    rng = np.random.default_rng(seed)
    db = random_db(rng)
    bundle = build_index_bundle(db, seed=0)
    query = EmotionEmbedding(rng.standard_normal(db.dim).astype(np.float32))
    for lvl in LEVELS:
        hand = hand_filtered(db, lvl)
        if len(hand) == 0:
            continue
        for method in RetrievalMethod:
            gated = retrieve(db, query, method, index=bundle, intensity=lvl)
            if method is RetrievalMethod.EMBEDDING:
                direct = retrieve_embedding_based(hand, query)
            else:
                # the full index restricted to the level, by hand, against the gather oracle
                full = bundle.full
                rows = db.intensity_codes == lvl.wire_code
                restricted = ClusterIndex(full.k, full.centroids, full.assignments[rows], hand.fingerprint)
                direct = reference_retrieve_clustering_based(hand, restricted, query)
            _same_result(gated, direct)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_replay_form_equals_retrieve(seed):
    # the single-strategy functions on a gate's subset, with the bundle's index for its level
    rng = np.random.default_rng(seed)
    db = random_db(rng)
    bundle = build_index_bundle(db, seed=0)
    query = EmotionEmbedding(rng.standard_normal(db.dim).astype(np.float32))
    for lvl in (None, *LEVELS):
        target = db if lvl is None else filter_by_intensity(db, lvl)
        if len(target) == 0:
            continue
        for given in (None, bundle):  # the index's lists answer an exhaustive query as the level rows do
            _same_result(
                retrieve(db, query, "embedding", index=given, intensity=lvl), retrieve_embedding_based(target, query)
            )
        _same_result(
            retrieve(db, query, "clustering", index=bundle, intensity=lvl),
            retrieve_clustering_based(target, bundle.for_level(lvl), query),
        )


def test_repeated_gated_clustering_serializes_nothing(tmp_path, monkeypatch):
    config = SyntheticDatasetConfig(num_emotions=4, dim=16, records_per_emotion=60, seed=2)
    save_db(generate_synthetic_db(config), tmp_path / "db.emdb")
    save_index_bundle(build_index_bundle(load_db(tmp_path / "db.emdb")), tmp_path / "db.emix")
    db = load_db(tmp_path / "db.emdb")
    bundle = load_index_bundle(tmp_path / "db.emix")
    queries = [q for q, _ in make_query_set(config, 12, seed=5)]
    calls = []
    original = store._emdb_pieces
    monkeypatch.setattr(store, "_emdb_pieces", lambda d: calls.append(d) or original(d))
    for i, q in enumerate(queries):
        lvl = LEVELS[i % 3]
        retrieve(db, q, "clustering", index=bundle, intensity=lvl)
        retrieve_clustering_based(filter_by_intensity(db, lvl), bundle.for_level(lvl), q)
    # every gate, and every subset cut for the replay form, is checked through
    # its database, whose fingerprint is its file's sha256: nothing is serialized
    assert calls == []


def test_gated_retrieve_builds_no_database(monkeypatch):
    db = random_db(np.random.default_rng(6), n=60, dim=6)
    bundle = build_index_bundle(db, 3, seed=0)
    queries = [EmotionEmbedding(db.matrix[i]) for i in range(0, 60, 7)]
    built = []
    init = EmbeddingDatabase.__post_init__
    monkeypatch.setattr(EmbeddingDatabase, "__post_init__", lambda d: built.append(d) or init(d))
    for lvl in LEVELS:
        for method, index in (("embedding", None), ("embedding", bundle), ("clustering", bundle)):
            for q in queries:
                retrieve(db, q, method, index=index, intensity=lvl)
    assert built == []


def test_first_gated_scans_copy_the_unit_rows_once():
    import tracemalloc

    db = random_db(np.random.default_rng(13), n=8000, dim=128, with_metadata=False)
    one_copy = db.unit_matrix.nbytes
    q = EmotionEmbedding(db.matrix[0])
    tracemalloc.start()
    try:
        ratios = []
        for lvl in LEVELS:
            retrieve(db, q, "embedding", intensity=lvl)
            ratios.append(tracemalloc.get_traced_memory()[1] / one_copy)
    finally:
        tracemalloc.stop()
    # one level-grouped f64 copy of the rows serves all three levels; a subset
    # database per level would hold an f32 and an f64 copy of its rows (1.5x)
    assert max(ratios) <= 1.25, ratios


def test_level_rows_are_a_readonly_grouped_copy():
    db = random_db(np.random.default_rng(4), n=50, dim=6)
    order, offsets, rows = db.level_rows
    assert db.level_rows is db._level_rows  # built once
    assert order.tolist() == np.argsort(db.intensity_codes, kind="stable").tolist()
    assert offsets.tolist() == [0, *np.cumsum(np.bincount(db.intensity_codes, minlength=3)).tolist()]
    assert np.array_equal(rows, db.unit_matrix[order])
    assert rows.flags.c_contiguous
    assert not np.shares_memory(rows, db.unit_matrix)
    for a in (order, offsets, rows):
        assert not a.flags.writeable


def test_retrieve_on_a_gates_subset():
    db = _gated_db()
    bundle = build_index_bundle(db, 2, seed=0)
    weak = filter_by_intensity(db, "weak")
    hand = hand_filtered(db, IntensityLevel.WEAK)
    for row in range(len(db)):
        q = EmotionEmbedding(db.matrix[row])
        for lvl in (None, "weak"):
            _same_result(retrieve(weak, q, "embedding", intensity=lvl), retrieve_embedding_based(hand, q))
            got = retrieve(weak, q, "clustering", index=bundle, intensity=lvl)
            _same_result(got, retrieve(db, q, "clustering", index=bundle, intensity="weak"))
        for method in RetrievalMethod:
            with pytest.raises(EmptySubsetError):
                retrieve(weak, q, method, index=bundle, intensity="normal")


def test_gate_error_precedence():
    empty = build_db(np.zeros((0, 3), dtype=np.float32))
    q = EmotionEmbedding(np.ones(3, dtype=np.float32))
    # an empty gate is reported first, even on an empty database or without an index
    for method in RetrievalMethod:
        with pytest.raises(EmptySubsetError):
            retrieve(empty, q, method, intensity="weak")
    with pytest.raises(MissingIndexError):
        retrieve(empty, q, "clustering")
    db = _gated_db()
    q = EmotionEmbedding(db.matrix[0])
    with pytest.raises(EmptySubsetError):
        retrieve(db, q, "clustering", intensity="strong")
    with pytest.raises(MissingIndexError):
        retrieve(db, q, "clustering", intensity="weak")
    with pytest.raises(EmptyDatabaseError):
        retrieve_embedding_based(filter_by_intensity(db, "strong"), q)


def test_zero_norm_record_at_another_level_fails_a_gated_query():
    vectors = np.eye(4, dtype=np.float32)
    vectors[3] = 0.0
    db = build_db(vectors, intensities=["weak", "weak", "normal", "strong"])
    index = ClusterIndex(1, np.ones((1, 4), dtype=np.float32), np.zeros(4, dtype=np.uint32), db.fingerprint)
    q = EmotionEmbedding(vectors[0])
    # every scan reads the database's unit rows, and rec3 has none
    for method, given in (("embedding", None), ("clustering", index)):
        with pytest.raises(ZeroNormError, match="rec3"):
            retrieve(db, q, method, index=given, intensity="weak")
    with pytest.raises(ZeroNormError, match="rec3"):
        retrieve_embedding_based(filter_by_intensity(db, "weak"), q)
    # the hand-cut database holds no such record
    assert retrieve_embedding_based(hand_filtered(db, IntensityLevel.WEAK), q).record_id == "rec0"


def test_zero_norm_error_names_the_lowest_position_in_any_row_order():
    vectors = np.eye(6, dtype=np.float32)
    vectors[[1, 4]] = 0.0
    # the grouped copies visit weak (rec3, rec4) before strong (rec1, rec5)
    db = build_db(vectors, intensities=["normal", "strong", "normal", "weak", "weak", "strong"])
    index = ClusterIndex(1, np.ones((1, 6), dtype=np.float32), np.zeros(6, dtype=np.uint32), db.fingerprint)
    q = EmotionEmbedding(vectors[0])
    with pytest.raises(ZeroNormError, match="rec1"):
        db.unit_matrix
    for method, given, lvl in (("embedding", None, None), ("embedding", None, "normal"), ("clustering", index, None)):
        with pytest.raises(ZeroNormError, match="rec1"):
            retrieve(db, q, method, index=given, intensity=lvl)


def test_every_kind_of_query_holds_two_f64_copies_of_the_rows():
    import tracemalloc

    fresh = random_db(np.random.default_rng(14), n=8000, dim=128, with_metadata=False)
    centroids = fresh.matrix[:8]
    assignments = np.argmax(fresh.matrix @ centroids.T, axis=1)
    one_copy = len(fresh) * fresh.dim * 8
    q = EmotionEmbedding(fresh.matrix[0])
    # without an index an exhaustive query reads the level rows, so a job that runs both
    # methods holds them and the index's inverted lists (a cached position-order unit matrix
    # would be a third copy); with the index on every query the lists are the only copy
    for every_query_has_the_index, most_held, highest_peak in ((False, 2.05, 2.25), (True, 1.05, 1.25)):
        index = ClusterIndex(8, centroids, assignments, fresh.fingerprint)
        exhaustive = index if every_query_has_the_index else None
        db = deserialize_db(serialize_db(fresh))  # no unit rows, grouped copies or fingerprint yet
        tracemalloc.start()
        try:
            for method, given, lvl in (
                ("embedding", exhaustive, None),
                ("clustering", index, None),
                ("embedding", exhaustive, "weak"),
                ("clustering", index, "strong"),
            ):
                retrieve(db, q, method, index=given, intensity=lvl)
            held, peak = (b / one_copy for b in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert held <= most_held and peak <= highest_peak, (every_query_has_the_index, held, peak)
        assert (db._level_rows is None) == every_query_has_the_index


def test_first_gated_query_from_several_threads():
    # more threads than cores race to group one database's level rows; every
    # thread must see a whole layout and return the hand-filtered answers
    rng = np.random.default_rng(5)
    fresh = random_db(rng, n=600, dim=16, with_metadata=False)
    queries = [EmotionEmbedding(rng.standard_normal(16).astype(np.float32)) for _ in range(12)]
    want = [[retrieve_embedding_based(hand_filtered(fresh, lvl), q) for lvl in LEVELS] for q in queries]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            db = deserialize_db(serialize_db(fresh))  # no level rows yet
            start = threading.Barrier(4)
            got = [None] * 4

            def run(slot):
                start.wait(timeout=30)
                got[slot] = [[retrieve(db, q, "embedding", intensity=lvl) for lvl in LEVELS] for q in queries]

            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            for results in got:
                for row, want_row in zip(results, want, strict=True):
                    for a, b in zip(row, want_row, strict=True):
                        _same_result(a, b)
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# debug log lines


def test_gate_logs_once_per_level(caplog):
    # once per database: the first exhaustive scan, gated or not, groups every level's rows at once
    caplog.set_level(logging.DEBUG, logger="emorag")
    for gates in (("weak", "normal", None, "weak"), (None, "normal", "weak")):
        caplog.clear()
        db = _gated_db()
        for lvl in gates:
            retrieve(db, EmotionEmbedding(db.matrix[0]), "embedding", intensity=lvl)
        lines = [r.getMessage() for r in caplog.records if r.name == "emorag"]
        assert lines == ["level rows: 6 weak, 6 normal, 0 strong of 12 records"]


def test_clustered_query_logs_its_index(caplog):
    db = _gated_db()
    bundle = build_index_bundle(db, 2, seed=0)
    q = EmotionEmbedding(db.matrix[0])
    caplog.set_level(logging.INFO, logger="emorag")
    retrieve(db, q, "clustering", index=bundle, intensity="weak")
    retrieve(db, q, "embedding", intensity="weak")  # groups the level rows, unlogged
    assert caplog.records == []
    caplog.set_level(logging.DEBUG, logger="emorag")
    retrieve(db, q, "embedding")
    retrieve(db, q, "embedding", intensity="weak")
    assert caplog.records == []
    retrieve(db, q, "clustering", index=bundle)
    retrieve(db, q, "clustering", index=bundle, intensity="normal")
    retrieve(db, q, "clustering", index=bundle.full, intensity="weak")
    assert [r.getMessage() for r in caplog.records] == [
        "clustered query: gate none, cluster 1 of k=2 holds 8 rows",
        "clustered query: gate normal, cluster 1 of k=2 holds 3 rows",
        "clustered query: gate weak, cluster 1 of k=2 holds 5 rows",
    ]


def test_index_logs_its_inverted_lists_once(caplog):
    db = build_db(np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]], dtype=np.float32))
    index = ClusterIndex(
        k=2,
        centroids=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32),
        assignments=np.array([0, 0, 1], dtype=np.uint32),
        fingerprint=db.fingerprint,
    )
    caplog.set_level(logging.INFO, logger="emorag")
    retrieve_clustering_based(db, index, EmotionEmbedding([1.0, 0.0]))
    assert caplog.records == []
    index._lists = None
    caplog.set_level(logging.DEBUG, logger="emorag")
    for q in ([1.0, 0.0], [0.0, 1.0], [1.0, 0.1]):
        retrieve_clustering_based(db, index, EmotionEmbedding(q))
    assert [r.getMessage() for r in caplog.records] == [
        "cluster index k=2: inverted lists over 3 rows, largest cluster 2",
        "clustered query: gate none, cluster 0 of k=2 holds 2 rows",
        "clustered query: gate none, cluster 1 of k=2 holds 1 rows",
        "clustered query: gate none, cluster 0 of k=2 holds 2 rows",
    ]


def test_empty_cluster_fallback_logs(caplog):
    caplog.set_level(logging.DEBUG, logger="emorag")
    db = build_db(np.array([[1.0, 0.0], [0.9, 0.1]], dtype=np.float32))
    index = ClusterIndex(
        k=2,
        centroids=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32),
        assignments=np.zeros(2, dtype=np.uint32),
        fingerprint=db.fingerprint,
    )
    retrieve_clustering_based(db, index, EmotionEmbedding([1.0, 0.0]))
    assert [r.getMessage() for r in caplog.records] == [
        "cluster index k=2: inverted lists over 2 rows, largest cluster 2",
        "clustered query: gate none, cluster 0 of k=2 holds 2 rows",
    ]
    caplog.clear()
    retrieve_clustering_based(db, index, EmotionEmbedding([0.0, 1.0]))
    retrieve(db, EmotionEmbedding([0.0, 1.0]), "clustering", index=index, intensity="weak")
    # the fallback scans the gate's range of the inverted lists, so the level rows are never built
    assert db._level_rows is None
    assert [r.getMessage() for r in caplog.records] == [
        "clustered query: gate none, cluster 1 of k=2 holds 0 rows",
        "cluster 1 has no members at gate none; scanning the 2 rows at that gate",
        "clustered query: gate weak, cluster 1 of k=2 holds 0 rows",
        "cluster 1 has no members at gate weak; scanning the 1 rows at that gate",
    ]


def test_kmeans_empty_cluster_reseed_logs(caplog):
    caplog.set_level(logging.DEBUG, logger="emorag")
    kmeans_fit(build_db(np.eye(3, dtype=np.float32)), 3, seed=0)
    assert caplog.records == []
    # identical points: both seeds coincide, every point goes to cluster 0
    kmeans_fit(build_db(np.ones((4, 3), dtype=np.float32)), 2, seed=0)
    assert [r.getMessage() for r in caplog.records][0] == (
        "k-means iteration 1: reseeding 1 empty clusters"
    )
