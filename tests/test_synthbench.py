"""Synthetic dataset generator and the method × size benchmark grid."""

import json
from dataclasses import replace

import numpy as np
import pytest

from emorag import (
    BenchResult,
    InvalidParameterError,
    IntensityLevel,
    RetrievalMethod,
    SyntheticDatasetConfig,
    default_k,
    emit_report,
    generate_synthetic_db,
    kmeans_fit,
    make_query_set,
    retrieve,
    run_benchmark,
    run_cell,
)
from emorag.synthbench import CSV_COLUMNS, _p95_nearest_rank


def small_config(**overrides):
    base = dict(num_emotions=4, dim=8, records_per_emotion=25, seed=0)
    base.update(overrides)
    return SyntheticDatasetConfig(**base)


def drawn_centers(config):
    """The cluster centers: the first draw of the config's seed stream."""
    rng = np.random.default_rng(config.seed)
    spread = config.center_spread
    return rng.uniform(-spread, spread, size=(config.num_emotions, config.dim))


def count_label_hits(db, method, query_set, index=None):
    """Queries whose retrieved record carries the true label, counted one by one."""
    hits = 0
    for query, truth in query_set:
        result = retrieve(db, query, method, index=index)
        hits += db.labels[db.position(result.record_id)] == truth
    return hits


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        small_config(num_emotions=0)
    with pytest.raises(InvalidParameterError):
        small_config(records_per_emotion=0)
    with pytest.raises(InvalidParameterError):
        small_config(cluster_sigma=-0.1)
    with pytest.raises(InvalidParameterError):
        small_config(center_spread=0.0)
    with pytest.raises(InvalidParameterError):
        small_config(intensity_mix=(0.5, 0.5))
    with pytest.raises(InvalidParameterError):
        small_config(intensity_mix=(0.5, 0.4, 0.2))
    with pytest.raises(InvalidParameterError):
        small_config(intensity_mix=(float("nan"), 0.5, 0.5))
    assert small_config(cluster_sigma=0.0).cluster_sigma == 0.0
    assert small_config().num_records == 100


# ---------------------------------------------------------------------------
# generator


def test_generated_db_counts_ids_and_labels():
    config = SyntheticDatasetConfig(num_emotions=4, dim=8, records_per_emotion=750)
    db = generate_synthetic_db(config)
    assert len(db) == 3000
    assert db.dim == 8
    labels = list(db.labels)
    assert sorted(set(labels)) == ["emo0", "emo1", "emo2", "emo3"]
    assert all(labels.count(lab) == 750 for lab in set(labels))
    assert db.ids[0] == "emo0-0000"
    assert db.ids[750] == "emo1-0000"
    assert db.ids[-1] == "emo3-0749"
    assert db.transcripts[0] == "synthetic utterance emo0 0"


def test_generated_vectors_are_unit_norm():
    db = generate_synthetic_db(small_config())
    norms = np.linalg.norm(db.matrix.astype(np.float64), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)


def test_zero_sigma_collapses_clusters_onto_centers():
    config = small_config(cluster_sigma=0.0)
    db = generate_synthetic_db(config)
    centers = drawn_centers(config)
    unit_centers = centers / np.linalg.norm(centers, axis=1, keepdims=True)
    for e in range(4):
        block = db.matrix[e * 25 : (e + 1) * 25]
        assert all(np.array_equal(row, block[0]) for row in block)
        np.testing.assert_allclose(
            block[0].astype(np.float64), unit_centers[e], atol=1e-6
        )


def test_generation_is_seed_deterministic():
    a = generate_synthetic_db(small_config())
    b = generate_synthetic_db(small_config())
    c = generate_synthetic_db(small_config(seed=1))
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint


def test_intensity_mix_degenerate_is_all_weak():
    db = generate_synthetic_db(small_config(intensity_mix=(1.0, 0.0, 0.0)))
    assert all(code == IntensityLevel.WEAK.wire_code for code in db.intensity_codes)


def test_intensity_mix_roughly_followed():
    db = generate_synthetic_db(
        SyntheticDatasetConfig(num_emotions=2, dim=4, records_per_emotion=1500)
    )
    frac_normal = np.count_nonzero(db.intensity_codes == IntensityLevel.NORMAL.wire_code) / len(db)
    assert 0.4 < frac_normal < 0.6  # target 0.5, n=3000


# ---------------------------------------------------------------------------
# query sets


def test_query_set_shapes_and_truth_labels():
    config = small_config()
    queries = make_query_set(config, 50, seed=1)
    assert len(queries) == 50
    valid = {f"emo{i}" for i in range(4)}
    for emb, truth in queries:
        assert emb.dim == 8
        assert truth in valid
        assert np.linalg.norm(emb.values.astype(np.float64)) == pytest.approx(1.0, abs=1e-6)


def test_query_set_at_centers_sits_on_normalized_centers():
    config = small_config()
    centers = drawn_centers(config)
    unit = (centers / np.linalg.norm(centers, axis=1, keepdims=True)).astype(np.float32)
    # with zero noise a query sits exactly on its normalized center
    for emb, truth in make_query_set(replace(config, cluster_sigma=0.0), 20, seed=2):
        e = int(truth.removeprefix("emo"))
        assert np.array_equal(emb.values, unit[e])


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"seed": 7},
        {"num_emotions": 1, "dim": 3},
        {"num_emotions": 9, "dim": 33, "records_per_emotion": 4, "seed": 123},
        {"dim": 128, "center_spread": 0.5, "seed": 2**40},
    ],
)
def test_center_queries_equal_zero_sigma_db_rows(overrides):
    # the generator and the query set share one center draw, so a center
    # query is bitwise the row every record of its cluster collapses onto
    config = small_config(cluster_sigma=0.0, **overrides)
    db = generate_synthetic_db(config)
    per = config.records_per_emotion
    for emb, truth in make_query_set(config, 30, seed=11):
        e = int(truth.removeprefix("emo"))
        assert emb.values.tobytes() == db.matrix[e * per].tobytes()


def test_query_set_rejects_empty():
    with pytest.raises(InvalidParameterError):
        make_query_set(small_config(), 0, seed=0)


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_is_perfect_on_center_queries():
    config = small_config()
    db = generate_synthetic_db(config)
    queries = make_query_set(replace(config, cluster_sigma=0.0), 40, seed=3)
    bench, _ = run_cell(db, RetrievalMethod.EMBEDDING, queries)
    assert bench.accuracy == 1.0
    assert count_label_hits(db, RetrievalMethod.EMBEDDING, queries) == 40
    index = kmeans_fit(db, default_k(db), seed=0)
    bench, _ = run_cell(db, RetrievalMethod.CLUSTERING, queries, index=index)
    assert bench.accuracy == 1.0
    assert count_label_hits(db, RetrievalMethod.CLUSTERING, queries, index=index) == 40


def test_accuracy_zero_when_truth_is_scrambled():
    config = small_config()
    db = generate_synthetic_db(config)
    queries = make_query_set(replace(config, cluster_sigma=0.0), 30, seed=4)
    wrong = [(emb, "emo" + str((int(t[3:]) + 1) % 4)) for emb, t in queries]
    assert run_cell(db, RetrievalMethod.EMBEDDING, wrong)[0].accuracy == 0.0
    assert count_label_hits(db, RetrievalMethod.EMBEDDING, wrong) == 0


def test_accuracy_invariant_to_query_order():
    config = small_config(cluster_sigma=0.3)
    db = generate_synthetic_db(config)
    queries = make_query_set(config, 60, seed=5)
    acc = run_cell(db, RetrievalMethod.EMBEDDING, queries)[0].accuracy
    assert acc == count_label_hits(db, RetrievalMethod.EMBEDDING, queries) / 60
    rng = np.random.default_rng(0)
    shuffled = [queries[i] for i in rng.permutation(60)]
    assert run_cell(db, RetrievalMethod.EMBEDDING, shuffled)[0].accuracy == acc


def test_accuracy_rejects_empty_query_set():
    db = generate_synthetic_db(small_config())
    index = kmeans_fit(db, default_k(db), seed=0)
    with pytest.raises(InvalidParameterError):
        run_cell(db, RetrievalMethod.CLUSTERING, [], index=index)


# ---------------------------------------------------------------------------
# timing cells


def test_p95_nearest_rank_examples():
    assert _p95_nearest_rank(list(range(1, 101))) == 95
    assert _p95_nearest_rank([42]) == 42
    assert _p95_nearest_rank([10, 20]) == 20
    assert _p95_nearest_rank([7, 5, 9, 1, 3]) == 9  # ceil(4.75) = rank 5


def test_run_cell_embedding_scans_whole_db():
    config = small_config()
    db = generate_synthetic_db(config)
    queries = make_query_set(config, 25, seed=6)
    bench, scans = run_cell(db, RetrievalMethod.EMBEDDING, queries, warmup=2)
    assert scans == [100] * 25
    assert bench.db_size == 100
    assert bench.queries == 25
    assert bench.method is RetrievalMethod.EMBEDDING
    assert bench.mean_latency_ns > 0
    assert bench.p95_latency_ns > 0
    assert bench.accuracy == count_label_hits(db, RetrievalMethod.EMBEDDING, queries) / 25


def test_run_cell_clustering_scans_less():
    config = small_config(records_per_emotion=50)
    db = generate_synthetic_db(config)
    index = kmeans_fit(db, default_k(db), seed=0)
    queries = make_query_set(config, 25, seed=7)
    _, scans = run_cell(db, RetrievalMethod.CLUSTERING, queries, index=index, warmup=2)
    assert all(s < len(db) for s in scans)


def test_run_cell_rejects_empty():
    db = generate_synthetic_db(small_config())
    with pytest.raises(InvalidParameterError):
        run_cell(db, RetrievalMethod.EMBEDDING, [])


# ---------------------------------------------------------------------------
# full grid


def tiny_grid(**overrides):
    kwargs = dict(
        cells=[
            ("embedding", 160),
            ("embedding", 320),
            ("clustering", 160),
            ("clustering", 320),
        ],
        n_queries=40,
        seed=0,
        num_emotions=8,
        dim=16,
    )
    kwargs.update(overrides)
    return run_benchmark(**kwargs)


def test_benchmark_rows_follow_cell_order():
    results = tiny_grid()
    assert [(r.method.value, r.db_size) for r in results] == [
        ("embedding", 160),
        ("embedding", 320),
        ("clustering", 160),
        ("clustering", 320),
    ]
    for r in results:
        assert r.queries == 40
        assert 0.0 <= r.accuracy <= 1.0
        assert r.mean_latency_ns > 0


def test_benchmark_accuracy_reproducible_across_runs():
    a = tiny_grid()
    b = tiny_grid()
    assert [r.accuracy for r in a] == [r.accuracy for r in b]


def test_benchmark_high_accuracy_on_tight_clusters():
    results = tiny_grid(cluster_sigma=0.01)
    for r in results:
        assert r.accuracy >= 0.95


def test_benchmark_rejects_bad_sizes():
    with pytest.raises(InvalidParameterError):
        run_benchmark(cells=[("embedding", 150)], n_queries=5, num_emotions=8, dim=8)
    with pytest.raises(InvalidParameterError):
        run_benchmark(cells=[], n_queries=5)
    with pytest.raises(InvalidParameterError):
        run_benchmark(cells=[("embedding", 160)], n_queries=0, num_emotions=8, dim=8)
    with pytest.raises(InvalidParameterError, match="num_emotions"):
        run_benchmark(cells=[("embedding", 160)], n_queries=5, num_emotions=0, dim=8)


# ---------------------------------------------------------------------------
# reports


def fake_results():
    return [
        BenchResult(RetrievalMethod.EMBEDDING, 3000, 1.0, 500_000, 700_000, 1000),
        BenchResult(RetrievalMethod.EMBEDDING, 8000, 0.999, 1_300_000, 1_500_000, 1000),
        BenchResult(RetrievalMethod.CLUSTERING, 3000, 1.0, 90_000, 120_000, 1000),
        BenchResult(RetrievalMethod.CLUSTERING, 8000, 0.998, 95_000, 130_000, 1000),
    ]


def test_csv_report_layout(tmp_path):
    path = tmp_path / "bench.csv"
    emit_report(fake_results(), path, "csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 5
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "embedding,3000,1.0,500000,700000,1000"
    assert lines[3].startswith("clustering,3000,")


def test_json_report_round_trips(tmp_path):
    path = tmp_path / "bench.json"
    results = fake_results()
    emit_report(results, path, "json")
    loaded = json.loads(path.read_text())
    assert [BenchResult(**{**d, "method": RetrievalMethod.parse(d["method"])}) for d in loaded] == results


def test_emit_report_rejects_bad_input(tmp_path):
    with pytest.raises(InvalidParameterError):
        emit_report([], tmp_path / "x.csv")
    with pytest.raises(InvalidParameterError):
        emit_report(fake_results(), tmp_path / "x.yaml", "yaml")


def test_benchmark_fits_every_index_then_runs_its_cells_in_rounds(monkeypatch):
    from emorag import synthbench

    events = []
    real_fit, real_retrieve = synthbench.kmeans_fit, synthbench.retrieve

    def fit(db, k, **kwargs):
        events.append(("fit", len(db)))
        return real_fit(db, k, **kwargs)

    def retrieve(db, query, method, **kwargs):
        events.append((method.value, len(db), kwargs["index"] is not None))
        return real_retrieve(db, query, method, **kwargs)

    monkeypatch.setattr(synthbench, "kmeans_fit", fit)
    monkeypatch.setattr(synthbench, "retrieve", retrieve)
    cells = [("embedding", 80), ("embedding", 160), ("clustering", 80), ("clustering", 160), ("clustering", 80)]
    n = synthbench.ROUND_QUERIES + 7
    results = run_benchmark(cells, n_queries=n, num_emotions=4, dim=8)
    assert [(r.method.value, r.db_size, r.queries) for r in results] == [(m, s, n) for m, s in cells]
    # one fit per clustered size, all before the first query; only clustering cells carry an index
    assert events[:2] == [("fit", 80), ("fit", 160)]
    asked = [(m, s, m == "clustering") for m, s in cells]
    warmups = [cell for cell in asked for _ in range(synthbench.WARMUP_QUERIES)]
    rounds = [cell for size in (synthbench.ROUND_QUERIES, 7) for cell in asked for _ in range(size)]
    assert events[2:] == warmups + rounds
