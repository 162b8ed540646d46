"""Seeded inputs for the benchmark, written in the program's file formats.

Everything here is numpy and the standard library.  The benchmark writes its
inputs itself (EMDB v1 databases, query JSON, token frames and their map, a
vector-field checkpoint) instead of calling the program's generators or
constructors, so a change to those cannot shift a workload.  It also computes
its own float64 brute-force answers, which the worker checks results against.

The data follow the paper's synthetic geometry: 8 emotion clusters with
centres uniform in [-10, 10]^128, Gaussian noise of sigma 0.05 around each
centre, unit rows stored as float32.  Intensity levels are assigned in an
exact 1:2:1 weak:normal:strong mix, and record order is shuffled so that the
members of one cluster are not contiguous.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from pathlib import Path

import numpy as np

DIM = 128
CLUSTERS = 8
SIGMA = 0.05
SPREAD = 10.0
LEVELS = ("weak", "normal", "strong")
TIE_TOL = 1e-12  # oracle similarities this close to the best count as ties

# token / mel geometry of the synth workload
TOKEN_DIM = 8
MEL_DIM = 80
SPK_DIM = 8
HIDDEN = (64, 64)
TOKEN_RATE_HZ = 50.0

# sizes of each workload's inputs
SIZES = {
    "retrieve-scan": {"records": 32000, "queries": 1024},
    "retrieve-gated": {"records": 8000, "queries": 256},
    "synth": {"records": 2000, "queries": 64, "ode_steps": 32, "min_chars": 20, "max_chars": 200},
    "ingest": {"records": 8000, "queries": 16},
}


def _rng(seed: int, workload: str, stream: str) -> np.random.Generator:
    tag = zlib.crc32(f"{workload}/{stream}".encode())
    return np.random.default_rng([int(seed), tag])


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def emdb_v1(ids, labels, codes, transcripts, audio_refs, vectors) -> bytes:
    """EMDB v1 bytes: 16-byte header, then one length-prefixed record after another."""
    vectors = np.ascontiguousarray(vectors, dtype="<f4")
    n, dim = vectors.shape
    out = [struct.pack("<4sIII", b"EMDB", 1, dim, n)]
    for i in range(n):
        out.append(_pack_str(ids[i]))
        out.append(_pack_str(labels[i]))
        out.append(bytes((int(codes[i]),)))
        out.append(_pack_str(transcripts[i]))
        out.append(b"\x00" if audio_refs[i] is None else b"\x01" + _pack_str(audio_refs[i]))
        out.append(vectors[i].tobytes())
    return b"".join(out)


def _artifact(header: dict, payload: bytes) -> bytes:
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return struct.pack("<I", len(raw)) + raw + payload


def frames_file(frames: np.ndarray, rate_hz: float) -> bytes:
    """An ``emorag-frames`` v1 artifact."""
    frames = np.ascontiguousarray(frames, dtype="<f8")
    header = {
        "format": "emorag-frames",
        "version": 1,
        "num_frames": int(frames.shape[0]),
        "dim": int(frames.shape[1]),
        "frame_rate_hz": float(rate_hz),
    }
    return _artifact(header, frames.tobytes())


def frames_header(data: bytes) -> dict:
    """Parse the JSON header of an ``emorag-frames`` artifact."""
    (hlen,) = struct.unpack_from("<I", data, 0)
    return json.loads(data[4 : 4 + hlen])


def checkpoint_file(weights, biases) -> bytes:
    """An ``emorag-checkpoint`` v1 artifact for a [state, cond, spk, t] MLP."""
    arrays, blobs = [], []
    for l, (W, b) in enumerate(zip(weights, biases)):
        arrays.append({"name": f"W{l}", "shape": list(W.shape)})
        blobs.append(np.ascontiguousarray(W, dtype="<f8").tobytes())
        arrays.append({"name": f"b{l}", "shape": list(b.shape)})
        blobs.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    header = {
        "format": "emorag-checkpoint",
        "version": 1,
        "state_dim": MEL_DIM,
        "cond_dim": TOKEN_DIM,
        "spk_dim": SPK_DIM,
        "hidden": list(HIDDEN),
        "arrays": arrays,
    }
    return _artifact(header, b"".join(blobs))


def query_json(vector: np.ndarray) -> str:
    # repr of each float32 widened to float64 reads back to the same float32
    return json.dumps({"values": [float(v) for v in vector]}) + "\n"


def _unit_rows(raw: np.ndarray) -> np.ndarray:
    return (raw / np.linalg.norm(raw, axis=1, keepdims=True)).astype(np.float32)


def _database(n: int, seed: int, workload: str):
    rng = _rng(seed, workload, "db")
    centers = rng.uniform(-SPREAD, SPREAD, size=(CLUSTERS, DIM))
    cluster = np.repeat(np.arange(CLUSTERS), n // CLUSTERS)
    vectors = _unit_rows(centers[cluster] + SIGMA * rng.standard_normal((n, DIM)))
    codes = np.array([0] * (n // 4) + [1] * (n // 2) + [2] * (n - n // 4 - n // 2), dtype=np.uint8)
    codes = codes[rng.permutation(n)]
    order = rng.permutation(n)
    return centers, cluster[order], vectors[order], codes[order]


def _queries(centers: np.ndarray, m: int, seed: int, workload: str):
    rng = _rng(seed, workload, "queries")
    truth = rng.integers(0, CLUSTERS, size=m)
    return truth, _unit_rows(centers[truth] + SIGMA * rng.standard_normal((m, DIM)))


def oracle(vectors: np.ndarray, rows: np.ndarray, queries: np.ndarray) -> list:
    """Float64 brute-force top-1 of each query over ``rows`` of ``vectors``.

    Returns, per query, the row numbers whose cosine lies within TIE_TOL of the
    best, lowest first: the first is the exact answer (ties go to the lowest
    index) and the rest differ from it only by rounding.
    """
    m64 = vectors[rows].astype(np.float64)
    unit = m64 / np.linalg.norm(m64, axis=1, keepdims=True)
    q64 = queries.astype(np.float64)
    q64 /= np.linalg.norm(q64, axis=1, keepdims=True)
    out = []
    for start in range(0, len(q64), 128):
        sims = q64[start : start + 128] @ unit.T
        best = sims.max(axis=1, keepdims=True)
        for row in sims >= best - TIE_TOL:
            out.append([int(r) for r in rows[np.nonzero(row)[0]]])
    return out


def _write(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    path.write_bytes(data)


def digest(root: Path) -> tuple:
    """(sha256 hex, file count, byte count) over every file under ``root``."""
    h = hashlib.sha256()
    files = sorted(p for p in root.rglob("*") if p.is_file())
    size = 0
    for p in files:
        data = p.read_bytes()
        size += len(data)
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest(), len(files), size


def prepare(workload: str, seed: int, inputs: Path) -> dict:
    """Write one workload's inputs under ``inputs`` and return its manifest.

    Paths in the manifest are relative to ``inputs``.  Expected answers are
    given as record ids: ``expected[level][q]`` lists the ids acceptable for
    query q gated to ``level`` ("all" for no gate), the exact answer first.
    """
    size = SIZES[workload]
    n = size["records"]
    centers, cluster, vectors, codes = _database(n, seed, workload)
    ids = [f"utt{i:06d}" for i in range(n)]
    labels = [f"emo{c}" for c in cluster]
    transcripts = [f"synthetic utterance {i} of emo{c}" for i, c in enumerate(cluster)]
    audio_refs = [f"wav/{ids[i]}.wav" if i % 2 else None for i in range(n)]
    _write(inputs / "db.emdb", emdb_v1(ids, labels, codes, transcripts, audio_refs, vectors))

    truth, qvecs = _queries(centers, size["queries"], seed, workload)
    qfiles = [f"queries/q{i:04d}.json" for i in range(len(qvecs))]
    for name, vec in zip(qfiles, qvecs):
        _write(inputs / name, query_json(vec))

    all_rows = np.arange(n)
    expected = {"all": oracle(vectors, all_rows, qvecs)}
    for code, level in enumerate(LEVELS):
        expected[level] = oracle(vectors, np.nonzero(codes == code)[0], qvecs)
    manifest = {
        "workload": workload,
        "seed": int(seed),
        "dim": DIM,
        "records": n,
        "db": "db.emdb",
        "record_labels": labels,
        "queries": qfiles,
        "query_labels": [f"emo{c}" for c in truth],
        "expected": {lv: [[ids[r] for r in rows] for rows in per_q] for lv, per_q in expected.items()},
    }

    if workload == "synth":
        manifest.update(_synth_assets(seed, ids, inputs, size))
    if workload in ("ingest", "retrieve-gated"):
        # same records, one float nudged by one ulp: only the fingerprint can tell
        tampered = vectors.copy()
        tampered[0, 0] = np.nextafter(tampered[0, 0], np.float32(2.0))
        _write(inputs / "tampered.emdb", emdb_v1(ids, labels, codes, transcripts, audio_refs, tampered))
        manifest["tampered_db"] = "tampered.emdb"
    return manifest


def _synth_assets(seed: int, ids: list, inputs: Path, size: dict) -> dict:
    rng = _rng(seed, "synth", "assets")
    token_frames = {}
    mapping = {}
    for rid in ids:
        t = int(rng.integers(25, 76))
        token_frames[rid] = t
        _write(inputs / "tokens" / f"{rid}.frames", frames_file(rng.standard_normal((t, TOKEN_DIM)), TOKEN_RATE_HZ))
        mapping[rid] = f"{rid}.frames"
    _write(inputs / "tokens" / "map.json", json.dumps(mapping, indent=1) + "\n")

    sizes = (MEL_DIM + TOKEN_DIM + SPK_DIM + 1, *HIDDEN, MEL_DIM)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
        biases.append(0.01 * rng.standard_normal(fan_out))
    _write(inputs / "model.ckpt", checkpoint_file(weights, biases))

    # text lengths evenly cover [min, max] in every run; only their order is drawn
    m = size["queries"]
    lo, hi = size["min_chars"], size["max_chars"]
    lengths = [lo + round((hi - lo) * i / (m - 1)) for i in range(m)]
    lengths = [lengths[i] for i in rng.permutation(m)]
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz     "))
    texts = ["".join(rng.choice(letters, size=length)) for length in lengths]
    intensities = [None, "weak", "normal", "strong"]
    requests = [
        {
            "query": i,
            "text": texts[i],
            "method": ("embedding", "clustering")[i % 2],
            "intensity": intensities[(i // 2) % 4],
            "seed": int(rng.integers(0, 2**31 - 1)),
        }
        for i in range(m)
    ]
    return {
        "checkpoint": "model.ckpt",
        "token_map": "tokens/map.json",
        "token_frames": token_frames,
        "requests": requests,
        "ode_steps": size["ode_steps"],
    }
