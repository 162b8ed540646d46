"""Retrieval layer: cosine scan, spherical k-means, index files, gating."""

import logging
import sys
import threading
import time
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
    InvalidParameterError,
    MalformedHeaderError,
    MissingIndexError,
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
    level_index_path,
    serialize_index,
)
from emorag import retrieval, store
from emorag.store import load_db, save_db
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
    index = kmeans_fit(db, 1)
    unit = db.unit_matrix
    mean = unit.mean(axis=0)
    expected = (mean / np.linalg.norm(mean)).astype(np.float32)
    np.testing.assert_allclose(index.centroids[0], expected, atol=1e-6)
    assert index.k == 1
    assert np.array_equal(index.assignments, np.zeros(3, dtype=np.uint32))
    hand_inertia = float(np.sum((unit - index.centroids[0].astype(np.float64)) ** 2))
    assert index.inertia == pytest.approx(hand_inertia, rel=1e-9)


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
    index = kmeans_fit(db, 6, seed=0)
    assert index.inertia <= 1e-9
    assert sorted(index.assignments.tolist()) == list(range(6))


def test_kmeans_validation():
    db = build_db(np.eye(3, dtype=np.float32))
    with pytest.raises(InvalidParameterError):
        kmeans_fit(db, 0)
    with pytest.raises(InvalidParameterError):
        kmeans_fit(db, 4)
    with pytest.raises(InvalidParameterError):
        kmeans_fit(db, 1.5)
    with pytest.raises(EmptyDatabaseError):
        kmeans_fit(build_db(np.zeros((0, 3))), 1)


def test_kmeans_deterministic_under_seed():
    db = random_db(np.random.default_rng(11), n=30, dim=8)
    a = kmeans_fit(db, 4, seed=9)
    b = kmeans_fit(db, 4, seed=9)
    assert a.centroids.tobytes() == b.centroids.tobytes()
    assert np.array_equal(a.assignments, b.assignments)
    assert a.inertia == b.inertia


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
    assert np.isnan(again.inertia)  # inertia is not part of the file
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
# cosine scan

# rows in a 16-row-aligned block of 2^18 float64 values: sizes around these
# catch a kernel that scores a row by where it sits in a BLAS product
BLOCK_ROWS = {2: 131_072, 96: 2_720, 128: 2_048, 300: 864}


def _unit_rows(rng, n, dim):
    m = rng.standard_normal((n, dim))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _first_max_by_row(unit, qn):
    """Reference scan: one ``np.dot`` per row, strict ``>`` keeps the earliest maximum."""
    best_pos, best_sim = 0, -np.inf
    for pos, sim in enumerate(map(qn.dot, unit)):
        if sim > best_sim:
            best_pos, best_sim = pos, sim
    return best_pos, float(best_sim)


@pytest.mark.parametrize("dim", [2, 96, 128, 300])
@pytest.mark.parametrize("extra", [-1, 0, 1, "several"])
def test_scan_blocks_match_single_product(dim, extra):
    rows = BLOCK_ROWS[dim]
    n = 3 * rows + 80 if extra == "several" else rows + extra
    rng = np.random.default_rng([dim, n])
    unit = _unit_rows(rng, n, dim)
    # random queries, then queries aimed at the rows around the first block
    # boundary and at the last rows, where a product kernel would score the
    # best row through a different path
    aimed = [*range(rows - 4, rows + 4), *range(n - 4, n)]
    planted = [unit[k] for k in aimed if 0 <= k < n]
    for qn in [_unit_rows(rng, 1, dim)[0] for _ in range(3)] + planted:
        pos, sim = _first_max_by_row(unit, qn)
        got_pos, got_sim = _scan_argmax(unit, qn)
        assert got_pos == pos
        assert got_sim == sim  # bit for bit


def test_scan_tie_across_blocks_breaks_to_lowest_position():
    rows = BLOCK_ROWS[128]
    vectors = np.zeros((3 * rows, 128), dtype=np.float32)
    vectors[:, 1] = 1.0
    # the same exact best score in each of the three blocks
    for i in (5, rows + 5, 2 * rows + 5):
        vectors[i] = np.eye(128, dtype=np.float32)[0]
    db = build_db(vectors)
    result = retrieve_embedding_based(db, EmotionEmbedding(np.eye(128, dtype=np.float32)[0]))
    assert result.record_id == "rec5"
    assert result.similarity == 1.0


def test_clustered_scan_over_several_blocks_matches_direct_member_scan():
    cfg = SyntheticDatasetConfig(num_emotions=2, dim=128, records_per_emotion=2500, seed=11)
    db = generate_synthetic_db(cfg)
    index = kmeans_fit(db, 2, seed=0)
    for query, _ in make_query_set(cfg, 6, seed=12):
        result = retrieve_clustering_based(db, index, query)
        qn = query.values.astype(np.float64)
        qn = qn / np.linalg.norm(qn)
        cluster, _ = _first_max_by_row(index.unit_centroids, qn)
        members = np.nonzero(index.assignments == cluster)[0]
        assert members.size > BLOCK_ROWS[db.dim]
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
    gated to the weak records of a database that interleaves them with others.
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
    return got


def test_copy_of_best_row_ties_to_lowest_position():
    # a copy of row 0 at every position of n = 2..39: 741 placements, each
    # through exhaustive, clustered, gated-exhaustive and gated-clustered
    # retrieval; BLAS scores the last n mod 4 rows through a remainder loop
    # whose last bit can differ, so the copy used to win some of them
    failed = []
    for n in range(2, 40):
        base = np.random.default_rng(n).standard_normal((n, 128)).astype(np.float32)
        for p in range(1, n):
            vectors = base.copy()
            vectors[p] = vectors[0]
            got = _ties_to_first(vectors, 0)
            if got != ["rec0"] * 4:
                failed.append((n, p, got))
    assert failed == []


def test_copy_of_best_row_across_a_block_boundary_ties_to_lowest_position():
    rows = BLOCK_ROWS[128]
    n = 2 * rows + 3
    base = np.random.default_rng(5).standard_normal((n, 128)).astype(np.float32)
    for first in (rows - 2, rows - 1):
        for copy in (rows, rows + 1, n - 2, n - 1):
            vectors = base.copy()
            vectors[copy] = vectors[first]
            assert _ties_to_first(vectors, first) == [f"rec{first}"] * 4, (first, copy)


def test_scan_returns_the_rescored_value_of_several_candidates():
    unit = _unit_rows(np.random.default_rng(17), 300, 64)
    unit[[40, 200]] = unit[7]
    pos, sim = _scan_argmax(unit, unit[7])
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


def test_clustering_empty_cluster_falls_back_to_full_scan():
    vecs = np.array([[1.0, 0.0], [0.9, 0.1], [0.8, 0.2]], dtype=np.float32)
    db = build_db(vecs)
    # hand-built index: cluster 1 sits right where the query points, but owns
    # no records, so the scan must widen to the whole database
    index = ClusterIndex(
        k=2,
        centroids=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32),
        assignments=np.zeros(3, dtype=np.uint32),
        inertia=0.0,
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
        inertia=0.0,
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
        inertia=0.0,
        fingerprint=db.fingerprint,
    )
    order, offsets, rows = index._inverted_lists(db.unit_matrix)
    assert offsets.tolist() == [0, 15, 15, 30]
    assert order.tolist() == list(range(0, 30, 2)) + list(range(1, 30, 2))
    for axis in range(3):
        query = EmotionEmbedding(np.eye(3, dtype=np.float32)[axis])
        got = retrieve_clustering_based(db, index, query)
        _same_result(got, reference_retrieve_clustering_based(db, index, query))
        assert got.candidates_scanned == (30 if axis == 1 else 15)


def test_stale_or_mismatched_index_raises_before_building_lists():
    db = random_db(np.random.default_rng(8), n=12, dim=4)
    query = EmotionEmbedding(db.matrix[0])
    other = random_db(np.random.default_rng(9), n=12, dim=4)
    stale = kmeans_fit(other, 2, seed=0)
    short = ClusterIndex(2, stale.centroids, stale.assignments[:-1], 0.0, db.fingerprint)
    wide = kmeans_fit(random_db(np.random.default_rng(10), n=12, dim=5), 2, seed=0)
    for index, error in ((stale, StaleIndexError), (short, StaleIndexError), (wide, DimensionMismatchError)):
        with pytest.raises(error):
            retrieve_clustering_based(db, index, query)
        assert index._lists is None


def test_inverted_list_rows_are_a_readonly_copy():
    db = random_db(np.random.default_rng(4), n=50, dim=6)
    index = kmeans_fit(db, 4, seed=0)
    retrieve_clustering_based(db, index, EmotionEmbedding(db.matrix[3]))
    order, offsets, rows = index._lists
    assert index._inverted_lists(db.unit_matrix) is index._lists  # built once
    assert order.tolist() == np.argsort(index.assignments, kind="stable").tolist()
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
    gate = retrieval.filter_by_intensity

    def slow_gate(d, level):
        time.sleep(0.05)
        return gate(d, level)

    monkeypatch.setattr(retrieval, "filter_by_intensity", slow_gate)
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
    # no strong subset -> no strong index -> gating on strong reports the gate
    with pytest.raises(EmptySubsetError):
        retrieve(db, q, "clustering", index=bundle, intensity="strong")


def test_retrieve_gated_clustering_needs_bundle():
    db = _gated_db()
    full_index = kmeans_fit(db, 2, seed=0)
    q = EmotionEmbedding(db.matrix[0])
    with pytest.raises(MissingIndexError):
        retrieve(db, q, "clustering", index=full_index, intensity="weak")


def test_bundle_missing_level_raises():
    db = _gated_db()
    bundle = build_index_bundle(db, seed=0)
    del bundle.by_level[IntensityLevel.WEAK]
    with pytest.raises(MissingIndexError):
        retrieve(db, EmotionEmbedding(db.matrix[0]), "clustering", index=bundle, intensity="weak")


def test_gated_index_fingerprint_is_subset_fingerprint():
    db = _gated_db()
    bundle = build_index_bundle(db, seed=0)
    weak = filter_by_intensity(db, IntensityLevel.WEAK)
    assert bundle.by_level[IntensityLevel.WEAK].fingerprint == weak.fingerprint
    assert bundle.full.fingerprint == db.fingerprint
    # a full-db index slotted in for a gated subset must be rejected as stale
    swapped = IndexBundle(full=bundle.full, by_level={IntensityLevel.WEAK: bundle.full})
    with pytest.raises(StaleIndexError):
        retrieve(db, EmotionEmbedding(db.matrix[0]), "clustering", index=swapped, intensity="weak")


def test_build_index_bundle_defaults_and_limits():
    db = _gated_db()
    bundle = build_index_bundle(db, seed=0)
    assert set(bundle.by_level) == {IntensityLevel.WEAK, IntensityLevel.NORMAL}
    assert bundle.full.k == default_k(db)
    with pytest.raises(InvalidParameterError):
        build_index_bundle(db, k=7, seed=0)  # weak subset has only 6 records


def test_bundle_save_load(tmp_path):
    db = _gated_db()
    bundle = build_index_bundle(db, seed=0)
    base = tmp_path / "db.emix"
    written = save_index_bundle(bundle, base)
    assert base in written
    assert level_index_path(base, IntensityLevel.WEAK) == tmp_path / "db.weak.emix"
    assert (tmp_path / "db.weak.emix").exists()
    assert (tmp_path / "db.normal.emix").exists()
    assert not (tmp_path / "db.strong.emix").exists()
    loaded = load_index_bundle(base)
    assert set(loaded.by_level) == set(bundle.by_level)
    assert loaded.full.centroids.tobytes() == bundle.full.centroids.tobytes()


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
# the gate is built once per level


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
                direct = retrieve_clustering_based(hand, bundle.by_level[lvl], query)
            assert gated.record_id == direct.record_id
            assert np.float64(gated.similarity).tobytes() == np.float64(direct.similarity).tobytes()
            assert gated.candidates_scanned == direct.candidates_scanned


def test_repeated_gated_clustering_serializes_nothing(tmp_path, monkeypatch):
    config = SyntheticDatasetConfig(num_emotions=4, dim=16, records_per_emotion=60, seed=2)
    save_db(generate_synthetic_db(config), tmp_path / "db.emdb")
    save_index_bundle(build_index_bundle(load_db(tmp_path / "db.emdb")), tmp_path / "db.emix")
    db = load_db(tmp_path / "db.emdb")
    bundle = load_index_bundle(tmp_path / "db.emix")
    queries = [q for q, _ in make_query_set(config, 12, seed=5)]
    for lvl in LEVELS:
        retrieve(db, queries[0], "clustering", index=bundle, intensity=lvl)
    calls = []
    original = store._emdb_pieces
    monkeypatch.setattr(store, "_emdb_pieces", lambda d: calls.append(d) or original(d))
    for i, q in enumerate(queries):
        retrieve(db, q, "clustering", index=bundle, intensity=LEVELS[i % 3])
    assert calls == []


# ---------------------------------------------------------------------------
# debug log lines


def test_gate_logs_once_per_level(caplog):
    caplog.set_level(logging.DEBUG, logger="emorag")
    db = _gated_db()
    for _ in range(3):
        retrieve(db, EmotionEmbedding(db.matrix[0]), "embedding", intensity="weak")
    retrieve(db, EmotionEmbedding(db.matrix[0]), "embedding")
    lines = [r.getMessage() for r in caplog.records if r.name == "emorag"]
    assert lines == ["intensity gate weak: kept 6 of 12 records"]


def test_clustered_query_logs_its_index(caplog):
    db = _gated_db()
    bundle = build_index_bundle(db, 2, seed=0)
    q = EmotionEmbedding(db.matrix[0])
    caplog.set_level(logging.INFO, logger="emorag")
    retrieve(db, q, "clustering", index=bundle, intensity="weak")
    assert caplog.records == []
    caplog.set_level(logging.DEBUG, logger="emorag")
    retrieve(db, q, "embedding")
    retrieve(db, q, "embedding", intensity="weak")
    assert caplog.records == []
    retrieve(db, q, "clustering", index=bundle)
    retrieve(db, q, "clustering", index=bundle, intensity="normal")
    retrieve(db, q, "clustering", index=bundle.full)
    assert [r.getMessage() for r in caplog.records] == [
        "clustered query: full index, k=2",
        "cluster index k=2: inverted lists over 12 rows, largest 8",
        "clustered query: normal index, k=2",
        "cluster index k=2: inverted lists over 6 rows, largest 4",
        "clustered query: full index, k=2",
    ]


def test_index_logs_its_inverted_lists_once(caplog):
    db = build_db(np.array([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]], dtype=np.float32))
    index = ClusterIndex(
        k=2,
        centroids=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32),
        assignments=np.array([0, 0, 1], dtype=np.uint32),
        inertia=0.0,
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
        "cluster index k=2: inverted lists over 3 rows, largest 2"
    ]


def test_empty_cluster_fallback_logs(caplog):
    caplog.set_level(logging.DEBUG, logger="emorag")
    db = build_db(np.array([[1.0, 0.0], [0.9, 0.1]], dtype=np.float32))
    index = ClusterIndex(
        k=2,
        centroids=np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32),
        assignments=np.zeros(2, dtype=np.uint32),
        inertia=0.0,
        fingerprint=db.fingerprint,
    )
    retrieve_clustering_based(db, index, EmotionEmbedding([1.0, 0.0]))
    assert [r.getMessage() for r in caplog.records] == [
        "cluster index k=2: inverted lists over 2 rows, largest 2"
    ]
    caplog.clear()
    retrieve_clustering_based(db, index, EmotionEmbedding([0.0, 1.0]))
    assert [r.getMessage() for r in caplog.records] == [
        "cluster 1 has no members; scanning all 2 records"
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
