"""Acceptance gate: eight end-to-end checks, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every check here is against an independently coded oracle or a
closed-form expectation, never against the implementation's own output.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from emorag import (
    EmotionEmbedding,
    FlowBatch,
    FlowTrainConfig,
    FrameSequence,
    init_vector_field,
    kmeans_fit,
    load_db,
    ode_integrate_batch,
    retrieve_embedding_based,
    save_frames,
    train_vector_field,
    transport_toy_task,
    upsample_tokens,
    vf_loss,
    vf_train_step,
)
from emorag.retrieval import deserialize_index, serialize_index
from emorag.store import deserialize_db, serialize_db

from helpers import build_db, random_db


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


# ---------------------------------------------------------------------------
# 1 — exhaustive retrieval against an independent brute force


def brute_force_cosine_argmax(db, query):
    """Per-record python loop; strict > keeps the earliest maximum."""
    q = query.values.astype(np.float64)
    qn = math.sqrt(float(np.dot(q, q)))
    best_id, best_sim = None, -np.inf
    for rid, row in zip(db.ids, db.matrix):
        v = row.astype(np.float64)
        sim = float(np.dot(v, q)) / (math.sqrt(float(np.dot(v, v))) * qn)
        if sim > best_sim:
            best_id, best_sim = rid, sim
    return best_id


def test_criterion_1_retrieval_oracle_equivalence():
    with criterion(1, "retrieval oracle equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 501))
            dim = int(rng.integers(2, 129))
            vectors = rng.standard_normal((n, dim)).astype(np.float32)
            db = build_db(vectors)
            queries = [
                EmotionEmbedding(rng.standard_normal(dim).astype(np.float32)),
                EmotionEmbedding(db.matrix[int(rng.integers(0, n))]),
            ]
            for query in queries:
                result = retrieve_embedding_based(db, query)
                assert result.record_id == brute_force_cosine_argmax(db, query)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


# ---------------------------------------------------------------------------
# 2 — benchmark grid structure and ordering


def test_criterion_2_benchmark_table_structure():
    from emorag import run_benchmark

    with criterion(2, "benchmark table structure"):
        start = time.perf_counter()
        results = run_benchmark()  # embedding/clustering x 3000/8000, 1000 queries
        by_cell = {(r.method.value, r.db_size): r for r in results}
        emb_8k = by_cell[("embedding", 8000)].mean_latency_ns
        clu_8k = by_cell[("clustering", 8000)].mean_latency_ns
        ratio = emb_8k / by_cell[("embedding", 3000)].mean_latency_ns

        try:
            for size in (3000, 8000):
                assert by_cell[("embedding", size)].accuracy >= 0.99
                assert by_cell[("clustering", size)].accuracy >= 0.95

            assert clu_8k < emb_8k, f"clustering {clu_8k}ns not below embedding {emb_8k}ns"

            assert 8 / 3 * 0.7 <= ratio <= 8 / 3 * 1.3, f"8000/3000 latency ratio {ratio:.3f}"

            elapsed = time.perf_counter() - start
            assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"
        except AssertionError:
            # a failure on a shared host is often timing noise: keep its numbers
            for (method, size), cell in sorted(by_cell.items()):
                print(f"ACCEPTANCE 2 {method} {size}: mean {cell.mean_latency_ns / 1e3:.1f} us")
            print(
                f"ACCEPTANCE 2 ratios: 8000/3000 exhaustive {ratio:.3f}, "
                f"8000 exhaustive/clustered {emb_8k / clu_8k:.3f}"
            )
            raise


# ---------------------------------------------------------------------------
# 3 — flow matching transports noise to the target blob


def test_criterion_3_flow_matching_transport():
    with criterion(3, "flow-matching transport"):
        start = time.perf_counter()
        model = init_vector_field(2, 2, 8, (64, 64), seed=0)
        losses = train_vector_field(model, transport_toy_task(), FlowTrainConfig())
        assert len(losses) == 2000

        rng = np.random.default_rng(123)
        x0 = rng.standard_normal((1000, 2))
        spk = rng.standard_normal(8)
        samples = ode_integrate_batch(model, x0, np.zeros((1000, 2)), spk, 32)

        mean = samples.mean(axis=0)
        var = samples.var(axis=0)
        assert np.all(np.abs(mean - 3.0) < 0.3), f"sample mean {mean}"
        assert np.all(np.abs(var - 0.25) < 0.3), f"sample variance {var}"

        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 300s"


# ---------------------------------------------------------------------------
# 4 — analytic gradients against central finite differences


def test_criterion_4_gradient_correctness():
    with criterion(4, "gradient correctness"):
        rng = np.random.default_rng(42)
        h = 1e-6
        worst = 0.0
        for point in range(10):
            model = init_vector_field(2, 2, 2, (8,), seed=100 + point)
            batch = FlowBatch(
                x0=rng.standard_normal((1, 2)),
                x1=rng.standard_normal((1, 2)),
                t=rng.uniform(0.0, 1.0, 1),
                cond=rng.standard_normal((1, 2)),
                spk=rng.standard_normal((1, 2)),
            )
            # analytic gradient = parameter delta of one unit-lr SGD step
            snap_w = [W.copy() for W in model.weights]
            snap_b = [b.copy() for b in model.biases]
            vf_train_step(model, batch, 1.0)
            grad_w = [s - W for s, W in zip(snap_w, model.weights)]
            grad_b = [s - b for s, b in zip(snap_b, model.biases)]
            for W, s in zip(model.weights, snap_w):
                W[:] = s
            for b, s in zip(model.biases, snap_b):
                b[:] = s

            for arrays, grads in ((model.weights, grad_w), (model.biases, grad_b)):
                for arr, grad in zip(arrays, grads):
                    flat, gf = arr.ravel(), grad.ravel()
                    for i in range(flat.size):
                        orig = flat[i]
                        flat[i] = orig + h
                        up = vf_loss(model, batch)
                        flat[i] = orig - h
                        down = vf_loss(model, batch)
                        flat[i] = orig
                        numeric = (up - down) / (2.0 * h)
                        rel = abs(numeric - gf[i]) / max(abs(numeric) + abs(gf[i]), 1e-8)
                        worst = max(worst, rel)
        assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


# ---------------------------------------------------------------------------
# 5 — upsampler matches closed-form interpolation at every length


def test_criterion_5_upsampler_exactness():
    with criterion(5, "upsampler exactness"):
        rng = np.random.default_rng(5)
        exact_subset = set(range(2, 51)) | {100, 333, 777, 1000}
        for T in range(2, 1001):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            frames = a + np.arange(T)[:, None] * b
            out = upsample_tokens(FrameSequence(frames, 50.0))

            # length rule, checked in exact rational arithmetic
            assert out.num_frames == math.floor(Fraction(8, 5) * T + Fraction(1, 2))
            # endpoints bit-exact
            assert np.array_equal(out.frames[0], frames[0])
            assert np.array_equal(out.frames[-1], frames[-1])
            # closed form at every output position
            src = np.arange(out.num_frames) * (T - 1) / (out.num_frames - 1)
            np.testing.assert_allclose(out.frames, a + src[:, None] * b, atol=1e-12, rtol=0)

            if T in exact_subset:
                # independent oracle: exact rational source positions
                for j in range(out.num_frames):
                    pos = Fraction(j * (T - 1), out.num_frames - 1)
                    i0 = min(math.floor(pos), T - 2)
                    w = float(pos - i0)
                    expected = (1.0 - w) * frames[i0] + w * frames[i0 + 1]
                    np.testing.assert_allclose(out.frames[j], expected, atol=1e-12, rtol=0)

        assert upsample_tokens(FrameSequence(np.zeros((10, 2)), 50.0)).num_frames == 16


# ---------------------------------------------------------------------------
# 6 — k-means invariants and cluster recovery


def lloyd_oracle(points, centers, iters=100):
    """Straightforward Lloyd on unit vectors, written without the package."""
    c = centers.copy()
    for _ in range(iters):
        d = ((points[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        new = np.vstack([points[assign == j].mean(axis=0) for j in range(len(c))])
        new /= np.linalg.norm(new, axis=1, keepdims=True)
        if np.array_equal(new, c):
            break
        c = new
    return c


def test_criterion_6_kmeans_properties():
    with criterion(6, "k-means properties"):
        # (a) inertia history never increases
        rng = np.random.default_rng(99)
        pairs = 0
        for trial in range(100):
            n = int(rng.integers(5, 120))
            dim = int(rng.integers(2, 24))
            k = int(rng.integers(1, min(n, 10) + 1))
            db = build_db(rng.standard_normal((n, dim)).astype(np.float32))
            _, history = kmeans_fit(db, k, seed=trial, return_history=True)
            for prev, cur in zip(history, history[1:]):
                assert cur <= prev + 1e-12 * max(1.0, abs(prev))
                pairs += 1
        assert pairs > 0

        # (b) three well-separated 2-D clusters are recovered; center spacing
        # (chord >= 1.5) is far beyond 20 sigma = 0.4
        sigma = 0.02
        angles = np.array([0.4, 2.2, 4.6])
        true_centers = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        rng = np.random.default_rng(7)
        raw = np.repeat(true_centers, 120, axis=0) + sigma * rng.standard_normal((360, 2))
        unit = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        db = build_db(unit.astype(np.float32))

        index = kmeans_fit(db, 3, seed=0)
        oracle = lloyd_oracle(
            db.unit_matrix, true_centers / np.linalg.norm(true_centers, axis=1, keepdims=True)
        )
        for centroid in index.centroids.astype(np.float64):
            gaps = np.linalg.norm(true_centers - centroid, axis=1)
            assert gaps.min() < 0.1, f"centroid {centroid} off by {gaps.min():.4f}"
            oracle_gap = np.linalg.norm(oracle - centroid, axis=1).min()
            assert oracle_gap < 1e-5, f"disagrees with Lloyd oracle by {oracle_gap:.2e}"


# ---------------------------------------------------------------------------
# 7 — the synth command is reproducible across processes


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "emorag", *map(str, args)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_7_end_to_end_determinism(tmp_path):
    with criterion(7, "end-to-end determinism"):
        db_path = tmp_path / "db.emdb"
        run_cli(
            "gen-data", "--emotions", 4, "--per-emotion", 30, "--dim", 16,
            "--seed", 3, "--out", db_path,
        )
        db = load_db(db_path)

        rng = np.random.default_rng(0)
        mapping = {}
        for rid in db.ids:
            save_frames(
                FrameSequence(rng.standard_normal((3, 6)), 50.0),
                tmp_path / f"{rid}.frames",
            )
            mapping[rid] = f"{rid}.frames"
        map_path = tmp_path / "tokens.json"
        map_path.write_text(json.dumps(mapping))

        ckpt = tmp_path / "model.ckpt"
        run_cli(
            "train-fm", "--steps", 5, "--state-dim", 12, "--token-dim", 6,
            "--hidden", 16, "--out", ckpt,
        )

        query = tmp_path / "query.json"
        query.write_text(json.dumps([float(v) for v in db.matrix[17]]))

        mels, ids = [], []
        for run in range(3):
            out = tmp_path / f"mel{run}.frames"
            report = tmp_path / f"report{run}.json"
            run_cli(
                "synth", "--db", db_path, "--checkpoint", ckpt, "--query", query,
                "--tokens", map_path, "--text", "say it the same way", "--seed", 7,
                "--report", report, "--out", out,
            )
            mels.append(out.read_bytes())
            ids.append(json.loads(report.read_text())["retrieved_id"])

        assert mels[0] == mels[1] == mels[2]
        assert ids[0] == ids[1] == ids[2]


# ---------------------------------------------------------------------------
# 8 — binary formats round-trip bit-exactly


def test_criterion_8_format_round_trips(tmp_path):
    with criterion(8, "format round-trips"):
        rng = np.random.default_rng(314)
        for i in range(100):
            db = random_db(rng)
            blob = serialize_db(db)
            assert serialize_db(deserialize_db(blob)) == blob

            k = int(rng.integers(1, min(len(db), 6) + 1))
            index = kmeans_fit(db, k, seed=i)
            raw = serialize_index(index)
            assert serialize_index(deserialize_index(raw)) == raw
