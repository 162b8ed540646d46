"""Store layer: types, validation, binary round-trips, manifest import."""

import hashlib
import json
import os
import stat
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorag import (
    ClusterIndex,
    DimensionMismatchError,
    DuplicateIdError,
    EmoragError,
    EmbeddingDatabase,
    EmotionEmbedding,
    FormatError,
    FrameSequence,
    IntensityLevel,
    InvalidIntensityError,
    MalformedHeaderError,
    NonFiniteValueError,
    SpeakerEmbedding,
    ZeroNormError,
    filter_by_intensity,
    load_db,
    load_manifest,
    save_db,
)
from emorag import store
from emorag.store import EMDB_MAGIC, EMDB_VERSION, deserialize_db, serialize_db

from helpers import LEVELS, build_db, hand_filtered, random_db


# ---------------------------------------------------------------------------
# intensity levels


def test_intensity_parse_and_wire_codes():
    assert IntensityLevel.parse("weak") is IntensityLevel.WEAK
    assert IntensityLevel.parse("Normal") is IntensityLevel.NORMAL
    assert IntensityLevel.parse("STRONG") is IntensityLevel.STRONG
    assert [lvl.wire_code for lvl in LEVELS] == [0, 1, 2]
    for lvl in LEVELS:
        assert IntensityLevel.parse(lvl) is lvl


def test_intensity_parse_rejects_unknown():
    with pytest.raises(InvalidIntensityError):
        IntensityLevel.parse("mild")


# ---------------------------------------------------------------------------
# embeddings


def test_embedding_is_float32_and_readonly():
    e = EmotionEmbedding([1.0, 2.0, 3.0])
    assert e.values.dtype == np.float32
    assert e.dim == 3
    with pytest.raises(ValueError):
        e.values[0] = 9.0


def test_embedding_validation():
    with pytest.raises(DimensionMismatchError):
        EmotionEmbedding(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        EmotionEmbedding(np.zeros(0))
    with pytest.raises(NonFiniteValueError):
        EmotionEmbedding([1.0, np.nan])
    with pytest.raises(NonFiniteValueError):
        EmotionEmbedding([np.inf, 0.0])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_normalize_is_unit_and_idempotent(seed):
    # the unit matrix is the store's one normalization
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 40))
    vec = rng.standard_normal(dim) * 10 ** rng.uniform(-2, 2)
    once = build_db(vec.astype(np.float32)[None, :]).unit_matrix[0]
    assert abs(float(np.linalg.norm(once)) - 1.0) < 1e-12
    twice = build_db(once.astype(np.float32)[None, :]).unit_matrix[0]
    np.testing.assert_allclose(twice, once, atol=1e-6)


# ---------------------------------------------------------------------------
# records and databases


def test_record_validation():
    vec = np.array([[1.0, 0.0]], dtype=np.float32)
    with pytest.raises(FormatError):
        build_db(vec, ids=[""])
    with pytest.raises(FormatError):
        build_db(vec, labels=[""])
    with pytest.raises(FormatError):
        build_db(vec, audio_refs=[3])
    db = build_db(vec, intensities=["strong"])
    assert db.intensity_codes[0] == IntensityLevel.STRONG.wire_code


def test_db_rejects_duplicate_ids():
    vecs = np.eye(2, dtype=np.float32)
    with pytest.raises(DuplicateIdError):
        build_db(vecs, ids=["same", "same"])


def test_db_rejects_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        EmbeddingDatabase(3, [[1.0, 0.0]], [0], ["a"], ["joy"], [""], [None])


def test_db_lookup_and_matrix():
    db = build_db(np.eye(3, dtype=np.float32), ids=["a", "b", "c"])
    assert db.position("b") == 1
    with pytest.raises(KeyError, match="zzz"):
        db.position("zzz")
    assert db.matrix.shape == (3, 3)
    assert db.matrix.dtype == np.float32
    np.testing.assert_allclose(db.unit_matrix, np.eye(3))


def _two_rows(matrix):
    return EmbeddingDatabase(2, matrix, [0, 0], ["a", "b"], ["joy", "joy"], ["", ""], [None, None])


def test_db_copies_a_writable_or_borrowed_matrix():
    writable = np.eye(2, dtype=np.float32)
    db = _two_rows(writable)
    writable[0, 0] = 5.0
    assert db.matrix[0, 0] == 1.0 and not db.matrix.flags.writeable
    base = np.eye(4, dtype=np.float32)
    view = base[:2, :2]  # frozen, but the data belongs to ``base``
    view.flags.writeable = False
    db = _two_rows(view)
    base[0, 0] = 7.0
    assert db.matrix[0, 0] == 1.0
    for other in (np.eye(2), np.asfortranarray(np.array([[1, 1], [0, 1]], dtype=np.float32))):
        other.flags.writeable = False
        assert _two_rows(other).matrix is not other


def test_db_keeps_a_frozen_float32_matrix_it_owns():
    frozen = np.eye(2, dtype=np.float32)
    frozen.flags.writeable = False
    db = _two_rows(frozen)
    fingerprint = db.fingerprint
    # the caller still owns ``frozen`` and may thaw it; the database's copy must not follow
    frozen.flags.writeable = True
    frozen[0, 0] = 9.0
    assert db.matrix[0, 0] == 1.0 and not db.matrix.flags.writeable
    assert hashlib.sha256(serialize_db(db)).digest() == fingerprint
    data = serialize_db(build_db(np.eye(3, dtype=np.float32)))
    loaded = deserialize_db(data)
    assert loaded.matrix.flags.owndata and not loaded.matrix.flags.writeable
    sub = filter_by_intensity(loaded, IntensityLevel.WEAK)
    assert sub.matrix.flags.owndata and not sub.matrix.flags.writeable


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda a: EmotionEmbedding(a[0]), "values"),
        (lambda a: SpeakerEmbedding(a[0]), "values"),
        (lambda a: FrameSequence(a, 50.0), "frames"),
        (lambda a: ClusterIndex(2, a, [0, 1], bytes(32)), "centroids"),
    ],
)
def test_value_types_keep_a_private_frozen_copy(make, field):
    source = np.eye(2)
    source.flags.writeable = False
    kept = getattr(make(source), field)
    source.flags.writeable = True
    source[0, 0] = 9.0
    assert kept.ravel()[0] == 1.0 and not kept.flags.writeable
    with pytest.raises(NonFiniteValueError):
        make(np.full((2, 2), np.inf))
    with pytest.raises(DimensionMismatchError):
        make(np.zeros((2, 0)))


def test_unit_matrix_bytes_equal_whole_matrix_norms_without_a_second_matrix():
    vectors = np.random.default_rng(12).standard_normal((1000, 128)).astype(np.float32)
    m = vectors.astype(np.float64)
    want = m / np.linalg.norm(m, axis=1)[:, None]
    db = build_db(vectors)
    index = ClusterIndex(2, np.ones((2, 128), dtype=np.float32), np.arange(1000) % 2, db.fingerprint)
    tracemalloc.start()
    try:
        got = db.unit_matrix
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        order, _, rows = db.level_rows
        grouped_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert got.tobytes() == want.tobytes()
    assert rows.tobytes() == want[order].tobytes()
    lists_order, _, lists_rows = index._inverted_lists(db)
    assert lists_rows.tobytes() == want[lists_order].tobytes()
    # the unit rows themselves, one block of squares and the norms; squaring the
    # whole matrix at once, or gathering a grouped copy from a unit matrix, would double the peak
    assert peak < 1.75 * want.nbytes, peak
    assert grouped_peak < 1.75 * want.nbytes, grouped_peak


def test_unit_matrix_zero_norm_record():
    db = build_db(np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.float32))
    with pytest.raises(ZeroNormError, match="rec1"):
        db.unit_matrix


# ---------------------------------------------------------------------------
# binary round-trips


def test_empty_db_is_exactly_header(tmp_path):
    db = build_db(np.zeros((0, 8)))
    data = serialize_db(db)
    assert len(data) == 16
    path = tmp_path / "empty.emdb"
    save_db(db, path)
    loaded = load_db(path)
    assert loaded.dim == 8 and len(loaded) == 0


def test_roundtrip_preserves_everything(tmp_path):
    db = build_db(
        np.array([[0.5, -1.25, 3.0], [7.0, 0.0, -2.5]], dtype=np.float32),
        labels=["开心", "sad"],
        intensities=[IntensityLevel.STRONG, IntensityLevel.WEAK],
        ids=["утт-1", "utt-2"],
        transcripts=["你好世界", ""],
        audio_refs=[None, "clips/2.wav"],
    )
    path = tmp_path / "two.emdb"
    save_db(db, path)
    loaded = load_db(path)
    assert loaded.dim == db.dim
    assert loaded.ids == ("утт-1", "utt-2")
    assert loaded.labels == db.labels
    assert loaded.intensity_codes.tobytes() == db.intensity_codes.tobytes()
    assert loaded.transcripts == db.transcripts
    assert loaded.audio_refs == db.audio_refs
    assert loaded.matrix.tobytes() == db.matrix.tobytes()
    assert serialize_db(loaded) == serialize_db(db)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_roundtrip_bit_exact(seed):
    db = random_db(np.random.default_rng(seed))
    data = serialize_db(db)
    again = serialize_db(deserialize_db(data))
    assert again == data


def test_fingerprint_is_sha256_of_bytes():
    db = random_db(np.random.default_rng(5))
    assert db.fingerprint == hashlib.sha256(serialize_db(db)).digest()
    assert len(db.fingerprint) == 32


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_streamed_fingerprint_is_sha256_of_serialized_bytes(seed):
    rng = np.random.default_rng(seed)
    for db in (random_db(rng), build_db(np.zeros((0, int(rng.integers(1, 9)))))):
        assert db.fingerprint == hashlib.sha256(serialize_db(db)).digest()


def test_fingerprint_sensitive_to_content():
    vecs = np.eye(2, dtype=np.float32)
    a = build_db(vecs, labels=["joy", "sad"])
    b = build_db(vecs, labels=["joy", "angry"])
    assert a.fingerprint != b.fingerprint


def test_loaded_fingerprint_is_the_file_sha256_without_serializing(tmp_path, monkeypatch):
    db = random_db(np.random.default_rng(8), n=40)
    path = tmp_path / "db.emdb"
    save_db(db, path)
    built = db.fingerprint  # a database built in memory hashes its pieces
    calls = []
    original = store._emdb_pieces
    monkeypatch.setattr(store, "_emdb_pieces", lambda d: calls.append(d) or original(d))
    loaded = load_db(path)
    assert loaded.fingerprint == hashlib.sha256(path.read_bytes()).digest() == built
    assert calls == []


def _vector_offsets(db) -> list:
    """Byte offset of each record's vector in ``serialize_db(db)``: the pieces alternate fields, vector."""
    ends = np.cumsum([len(piece) for piece in store._emdb_pieces(db)]).tolist()
    return ends[1::2]


# f32 bit patterns a reader must copy verbatim: -0.0, the least and the greatest
# subnormal, the least normal, and +inf / NaN, which it must reject
_SPECIAL_FLOATS = (0x80000000, 0x00000001, 0x807FFFFF, 0x00800000, 0x7F800000, 0x7FC00001)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    edits=st.lists(
        st.tuples(st.sampled_from(["set", "insert", "delete", "float"]), st.integers(0, 2**16), st.integers(0, 255)),
        min_size=1,
        max_size=3,
    ),
    tail=st.binary(max_size=2),
)
def test_every_file_the_reader_accepts_is_canonical(seed, edits, tail):
    # a loaded database's fingerprint is the sha256 of the bytes read, which is
    # sound only if every file that parses re-serializes to exactly those bytes
    rng = np.random.default_rng(seed)
    db = random_db(rng, n=int(rng.integers(1, 6)))
    data = bytearray(serialize_db(db))
    vectors = _vector_offsets(db)
    for kind, where, value in edits:
        pos = where % len(data)
        if kind == "set":
            data[pos] = value
        elif kind == "insert":
            data.insert(pos, value)
        elif kind == "delete":
            del data[pos]
        else:
            at = vectors[where % len(vectors)] + 4 * (value % db.dim)
            if at + 4 <= len(data):
                data[at : at + 4] = struct.pack("<I", _SPECIAL_FLOATS[value % len(_SPECIAL_FLOATS)])
    data = bytes(data + tail)
    try:
        loaded = deserialize_db(data)
    except EmoragError:
        return
    assert serialize_db(loaded) == data
    assert loaded.fingerprint == hashlib.sha256(data).digest()


def test_saving_a_database_streams_its_pieces(tmp_path):
    db = random_db(np.random.default_rng(3), n=2000, dim=128)
    path = tmp_path / "db.emdb"
    tracemalloc.start()
    try:
        save_db(db, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data = path.read_bytes()
    assert data == serialize_db(db)
    # no joined copy of the file, nor a copy of the matrix, on the way to disk
    assert peak < 0.1 * len(data), (peak, len(data))


_WRITE_EVERY_ARTIFACT = """
import os, sys
from pathlib import Path

os.umask(int(sys.argv[1], 8))
root = Path(sys.argv[2])
import numpy as np
from emorag import FrameSequence, init_vector_field, load_db, load_index_bundle, save_checkpoint, save_db
from emorag import save_frames, save_index, save_index_bundle
from emorag.cli import main
from emorag.util import atomic_write_text

assert main(["gen-data", "--per-emotion", "4", "--dim", "4", "--out", str(root / "gen.emdb")]) == 0
assert main(["build-index", "--db", str(root / "gen.emdb"), "--out", str(root / "built.emix")]) == 0
argv = ["--steps", "1", "--state-dim", "2", "--token-dim", "1", "--hidden", "2", "--out", str(root / "fm.ckpt")]
assert main(["train-fm", *argv]) == 0
db, bundle = load_db(root / "gen.emdb"), load_index_bundle(root / "built.emix")
save_db(db, root / "saved.emdb")
save_index(bundle.full, root / "saved.emix")
save_index_bundle(bundle, root / "bundle.emix")
save_checkpoint(init_vector_field(2, 1, 8, (2,), seed=0), root / "saved.ckpt")
save_frames(FrameSequence(np.zeros((3, 2)), 80.0), root / "saved.frames")
atomic_write_text(root / "saved.txt", "text")
(root / "old.emdb").write_bytes(b"")
os.chmod(root / "old.emdb", 0o640)
save_db(db, root / "old.emdb")  # a replaced file takes the umask's mode too
"""


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_every_artifact_takes_the_umask_mode(tmp_path, umask):
    path = os.pathsep.join(filter(None, [str(Path(store.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-c", _WRITE_EVERY_ARTIFACT, oct(umask), str(tmp_path)]
    proc = subprocess.run(argv, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert set(modes) == {
        "gen.emdb", "built.emix", "fm.ckpt", "fm.loss.csv", "saved.emdb", "saved.emix",
        "bundle.emix", "saved.ckpt", "saved.frames", "saved.txt", "old.emdb",
    }  # and no temp file left behind
    assert set(modes.values()) == {0o666 & ~umask}, {name: oct(mode) for name, mode in modes.items()}


def test_save_to_directory_raises_oserror(tmp_path):
    db = build_db(np.zeros((0, 2)))
    with pytest.raises(OSError):
        save_db(db, tmp_path)


# ---------------------------------------------------------------------------
# malformed files


def _pack_str(s):
    raw = s.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def _header(dim, count, magic=EMDB_MAGIC, version=EMDB_VERSION):
    return struct.pack("<4sIII", magic, version, dim, count)


def _record_bytes(rid="r0", label="joy", code=1, transcript="", audio=None, floats=(1.0, 0.0)):
    out = _pack_str(rid) + _pack_str(label) + struct.pack("<B", code) + _pack_str(transcript)
    if audio is None:
        out += b"\x00"
    else:
        out += b"\x01" + _pack_str(audio)
    out += np.asarray(floats, dtype="<f4").tobytes()
    return out


def test_load_rejects_short_file():
    with pytest.raises(MalformedHeaderError):
        deserialize_db(b"EMD")


def test_load_rejects_bad_magic():
    with pytest.raises(MalformedHeaderError):
        deserialize_db(_header(2, 0, magic=b"XXXX"))


def test_load_rejects_bad_version():
    with pytest.raises(MalformedHeaderError):
        deserialize_db(_header(2, 0, version=99))


def test_load_rejects_zero_dim():
    with pytest.raises(MalformedHeaderError):
        deserialize_db(_header(0, 0))


def test_load_rejects_truncated_record():
    data = _header(2, 1) + _pack_str("r0")[:1]
    with pytest.raises(FormatError):
        deserialize_db(data)


def test_load_header_claiming_more_records_than_the_file_holds():
    # the matrix is sized by the bytes present, not by the header's count
    with pytest.raises(FormatError):
        deserialize_db(_header(1 << 20, 0xFFFFFFFF) + _record_bytes(floats=np.zeros(1 << 20)))


def test_load_short_vector_is_dimension_mismatch():
    # header says dim=64 but the record carries only 63 floats
    data = _header(64, 1) + _record_bytes(floats=np.zeros(63))
    with pytest.raises(DimensionMismatchError):
        deserialize_db(data)


def test_load_invalid_utf8_is_format_error():
    data = _header(2, 1) + _pack_str("r0")[:2] + b"\xff\xfe" + _record_bytes()[4:]
    with pytest.raises(FormatError, match="record 0") as caught:
        deserialize_db(data)
    assert type(caught.value) is FormatError


def test_load_rejects_trailing_bytes():
    data = _header(2, 1) + _record_bytes() + b"\x00"
    with pytest.raises(FormatError):
        deserialize_db(data)


def test_load_rejects_duplicate_ids():
    data = _header(2, 2) + _record_bytes(rid="dup") + _record_bytes(rid="dup")
    with pytest.raises(DuplicateIdError):
        deserialize_db(data)


def test_load_rejects_nan_vector():
    data = _header(2, 1) + _record_bytes(floats=(np.nan, 0.0))
    with pytest.raises(NonFiniteValueError):
        deserialize_db(data)


def test_load_rejects_bad_intensity_code():
    data = _header(2, 1) + _record_bytes(code=7)
    with pytest.raises(InvalidIntensityError):
        deserialize_db(data)


def test_load_rejects_bad_audio_flag():
    bad = _pack_str("r0") + _pack_str("joy") + b"\x01" + _pack_str("") + b"\x02"
    bad += np.zeros(2, dtype="<f4").tobytes()
    with pytest.raises(FormatError):
        deserialize_db(_header(2, 1) + bad)


# ---------------------------------------------------------------------------
# intensity filtering


def test_filter_by_intensity_counts_and_order():
    vecs = np.arange(10, dtype=np.float32).reshape(5, 2) + 1
    levels = [
        IntensityLevel.STRONG,
        IntensityLevel.WEAK,
        IntensityLevel.STRONG,
        IntensityLevel.STRONG,
        IntensityLevel.WEAK,
    ]
    db = build_db(vecs, intensities=levels)
    strong = filter_by_intensity(db, IntensityLevel.STRONG)
    assert strong.ids == ("rec0", "rec2", "rec3")
    assert strong.dim == db.dim
    normal = filter_by_intensity(db, "normal")
    assert len(normal) == 0 and normal.dim == db.dim


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_filter_partitions_database(seed):
    db = random_db(np.random.default_rng(seed))
    parts = [filter_by_intensity(db, lvl) for lvl in LEVELS]
    ids = [rid for part in parts for rid in part.ids]
    assert sorted(ids) == sorted(db.ids)
    for part, lvl in zip(parts, LEVELS):
        assert all(code == lvl.wire_code for code in part.intensity_codes)
        full_order = [rid for rid, code in zip(db.ids, db.intensity_codes) if code == lvl.wire_code]
        assert list(part.ids) == full_order


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_gate_is_built_once_per_level(seed):
    db = random_db(np.random.default_rng(seed))
    for lvl in LEVELS:
        sub = filter_by_intensity(db, lvl)
        assert filter_by_intensity(db, lvl.value).ids == sub.ids
        assert sub._gate[0] is db and sub._gate[1] is lvl
        hand = hand_filtered(db, lvl)
        assert sub.fingerprint == hashlib.sha256(serialize_db(hand)).digest()
        assert sub.matrix.tobytes() == hand.matrix.tobytes()
        assert sub.ids == hand.ids


def test_gate_from_many_threads_returns_one_subset_per_level():
    import sys
    import threading

    db = random_db(np.random.default_rng(12), n=300, dim=8)
    seen = []
    barrier = threading.Barrier(8, timeout=10)

    def worker():
        barrier.wait()
        seen.append(tuple(filter_by_intensity(db, lvl).ids for lvl in LEVELS * 20))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8
    assert set(seen) == {tuple(hand_filtered(db, lvl).ids for lvl in LEVELS * 20)}


def test_loaded_columns_are_readonly_and_records_are_views():
    db = deserialize_db(serialize_db(random_db(np.random.default_rng(4), n=6, dim=3)))
    with pytest.raises(ValueError):
        db.matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        db.intensity_codes[0] = 2
    for pos, rid in enumerate(db.ids):
        assert db.position(rid) == pos
        assert np.shares_memory(db.matrix[pos], db.matrix)


def test_column_checks_name_the_first_bad_record():
    def make(
        matrix=((1.0, 0.0), (0.0, 1.0)), codes=(0, 1), ids=("a", "b"), labels=("x", "y"), transcripts=("", "")
    ):
        return EmbeddingDatabase(2, matrix, codes, ids, labels, transcripts, (None, "b.wav"))

    assert len(make()) == 2
    with pytest.raises(NonFiniteValueError, match="'b'"):
        make(matrix=((1.0, 0.0), (np.inf, 1.0)))
    with pytest.raises(InvalidIntensityError, match="'b'"):
        make(codes=(0, 3))
    with pytest.raises(InvalidIntensityError, match="'a'"):
        make(codes=np.array([-1, 1]))
    with pytest.raises(InvalidIntensityError, match="'b'"):
        make(codes=np.array([0, 258]))
    with pytest.raises(DuplicateIdError, match="'a'"):
        make(ids=("a", "a"))
    with pytest.raises(FormatError, match="position 1"):
        make(ids=("a", ""))
    with pytest.raises(FormatError, match="position 0"):
        make(labels=(7, "y"))
    with pytest.raises(FormatError, match="position 1"):
        make(transcripts=("", None))
    with pytest.raises(FormatError):
        make(codes=(0,))
    with pytest.raises(DimensionMismatchError):
        make(matrix=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))


def test_columnar_paths_build_no_record_objects(monkeypatch):
    from emorag import generate_synthetic_db, kmeans_fit, retrieve
    from emorag.synthbench import SyntheticDatasetConfig

    db = random_db(np.random.default_rng(8), n=30, dim=4)
    data = serialize_db(db)
    query = EmotionEmbedding(np.ones(4, dtype=np.float32))
    built = []
    original = EmotionEmbedding.__post_init__
    monkeypatch.setattr(
        EmotionEmbedding, "__post_init__", lambda self: built.append(self) or original(self)
    )
    loaded = deserialize_db(data)
    generate_synthetic_db(SyntheticDatasetConfig(num_emotions=3, dim=4, records_per_emotion=20))
    index = kmeans_fit(loaded, 1)
    for lvl in LEVELS:
        for method in ("embedding", "clustering"):
            if len(filter_by_intensity(loaded, lvl)):
                retrieve(loaded, query, method, index=index, intensity=lvl)
    assert built == []


# ---------------------------------------------------------------------------
# manifest import


def test_manifest_list_form(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(
        """[
          {"id": "a", "emotion_label": "joy", "intensity": "strong",
           "embedding": [1.0, 2.0], "transcript": "hi"},
          {"id": "b", "emotion_label": "sad", "intensity": "weak",
           "embedding": [0.5, -1.5], "audio_ref": "b.wav"}
        ]"""
    )
    db = load_manifest(path)
    assert db.dim == 2 and len(db) == 2
    assert db.transcripts[db.position("a")] == "hi"
    assert db.transcripts[db.position("b")] == ""
    assert db.audio_refs[db.position("b")] == "b.wav"
    assert db.intensity_codes[db.position("b")] == IntensityLevel.WEAK.wire_code


def test_manifest_dict_form_with_dim(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"dim": 3, "records": []}')
    db = load_manifest(path)
    assert db.dim == 3 and len(db) == 0


@pytest.mark.parametrize("dim", ["x", 2.7, 0, -1, True, None], ids=str)
def test_manifest_dim_must_be_a_positive_integer(tmp_path, dim):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"dim": dim, "records": []}))
    with pytest.raises(FormatError, match="manifest dim"):
        load_manifest(path)


def test_manifest_wrong_length_vector(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('[{"id": "a", "emotion_label": "joy", "intensity": "weak", "embedding": [1.0]}]')
    with pytest.raises(DimensionMismatchError):
        load_manifest(path, dim=2)


def test_manifest_missing_key(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('[{"id": "a", "embedding": [1.0]}]')
    with pytest.raises(FormatError, match="missing keys"):
        load_manifest(path)


def test_manifest_bad_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{nope")
    with pytest.raises(FormatError):
        load_manifest(path)


def test_manifest_empty_needs_dim(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[]")
    with pytest.raises(FormatError):
        load_manifest(path)
    assert load_manifest(path, dim=4).dim == 4


_GOOD_ENTRY = {"id": "a", "emotion_label": "joy", "intensity": "weak", "embedding": [1.0, 0.0]}


@pytest.mark.parametrize(
    "fault, expected",
    [
        ({"intensity": "mild"}, InvalidIntensityError),
        ({"embedding": [float("nan"), 0.0]}, NonFiniteValueError),
        ({"embedding": [[1.0, 0.0]]}, DimensionMismatchError),
        ({"embedding": []}, DimensionMismatchError),
        ({"id": ""}, FormatError),
        ({"audio_ref": 3}, FormatError),
        ({"id": "a"}, DuplicateIdError),
        ({"embedding": [1.0, 0.0, 0.0]}, DimensionMismatchError),
        ({"id": 7}, "7"),
        ({"emotion_label": None}, FormatError),
        ({"transcript": None}, FormatError),
        ({"embedding": ["1.5", 0.0]}, FormatError),
        ({"embedding": [True, 0.0]}, FormatError),
    ],
    ids=[
        "unknown-intensity",
        "nan-embedding",
        "2d-embedding",
        "empty-embedding",
        "empty-id",
        "non-string-audio-ref",
        "duplicate-id",
        "mixed-dims",
        "numeric-id",
        "null-label",
        "null-transcript",
        "string-component",
        "bool-component",
    ],
)
def test_manifest_second_entry_with_one_fault(tmp_path, fault, expected):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([_GOOD_ENTRY, {**_GOOD_ENTRY, "id": "b", **fault}]))
    if isinstance(expected, str):
        assert load_manifest(path).ids == ("a", expected)
        return
    with pytest.raises(EmoragError) as caught:
        load_manifest(path)
    assert type(caught.value) is expected
