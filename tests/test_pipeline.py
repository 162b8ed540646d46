"""Inference orchestration: prompt assembly, mock tokens, staged reports."""

import json

import numpy as np
import pytest

from emorag import (
    DimensionMismatchError,
    EmotionEmbedding,
    EmptySubsetError,
    FormatError,
    FrameSequence,
    InvalidParameterError,
    MissingAssetError,
    RetrievalMethod,
    StageError,
    SynthesisRequest,
    assemble_prompt,
    build_index_bundle,
    derive_speaker,
    generate_mel,
    init_vector_field,
    load_embedding_file,
    load_frames,
    load_token_map,
    mock_generate_tokens,
    retrieve,
    run_inference,
    save_frames,
    write_report,
)

from helpers import build_db

TOKEN_DIM = 3
STATE_DIM = 6

STAGES = ("retrieval", "prompt_assembly", "token_generation", "flow_matching", "write_output")


@pytest.fixture()
def assets(tmp_path):
    """Tiny three-record world: db, matching token files, and a field model."""
    rng = np.random.default_rng(17)
    vectors = rng.standard_normal((3, 4)).astype(np.float32)
    db = build_db(
        vectors,
        labels=["happy", "sad", "happy"],
        intensities=["weak", "normal", "strong"],
        transcripts=["first prompt", "second prompt", "third prompt"],
    )
    token_map = {}
    for i, rid in enumerate(db.ids):
        frames = FrameSequence(rng.standard_normal((2 + i, TOKEN_DIM)), 50.0)
        path = tmp_path / f"{rid}.frames"
        save_frames(frames, path)
        token_map[rid] = path
    model = init_vector_field(STATE_DIM, TOKEN_DIM, 8, (8,), seed=0)
    return db, model, token_map


def make_request(db, record_pos=0, **kwargs):
    return SynthesisRequest(
        reference=EmotionEmbedding(db.matrix[record_pos]), target_text="hello", **kwargs
    )


# ---------------------------------------------------------------------------
# request container


def test_request_parses_strings_and_wraps_reference():
    req = SynthesisRequest(
        reference=np.ones(4, dtype=np.float32),
        target_text="hi",
        method="clustering",
        intensity="STRONG",
    )
    assert isinstance(req.reference, EmotionEmbedding)
    assert req.method is RetrievalMethod.CLUSTERING
    assert req.intensity.value == "strong"
    with pytest.raises(InvalidParameterError, match="seed"):
        SynthesisRequest(reference=np.ones(4, dtype=np.float32), target_text="hi", seed="5")


def test_request_rejects_empty_text():
    with pytest.raises(FormatError):
        SynthesisRequest(reference=np.ones(2, dtype=np.float32), target_text="")


def test_request_rejects_a_negative_seed():
    with pytest.raises(InvalidParameterError, match="seed"):
        SynthesisRequest(reference=np.ones(2, dtype=np.float32), target_text="hi", seed=-1)


# ---------------------------------------------------------------------------
# speaker derivation


def test_derive_speaker_deterministic_and_sized():
    ref = EmotionEmbedding(np.array([0.1, -0.2, 0.3], dtype=np.float32))
    a = derive_speaker(ref)
    b = derive_speaker(ref)
    assert a.values.shape == (8,)
    assert np.array_equal(a.values, b.values)
    other = derive_speaker(EmotionEmbedding(np.array([0.1, -0.2, 0.31], dtype=np.float32)))
    assert not np.array_equal(a.values, other.values)


# ---------------------------------------------------------------------------
# asset loaders


def test_load_embedding_file_forms(tmp_path):
    bare = tmp_path / "bare.json"
    bare.write_text("[1.0, 2.0, 3.0]")
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text('{"values": [1.0, 2.0, 3.0]}')
    for path in (bare, wrapped):
        emb = load_embedding_file(path)
        assert emb.dim == 3
        np.testing.assert_allclose(emb.values, [1, 2, 3])
    assert load_embedding_file(bare, dim=3).dim == 3
    with pytest.raises(DimensionMismatchError):
        load_embedding_file(bare, dim=4)


def test_load_embedding_file_rejects_garbage(tmp_path):
    bad_json = tmp_path / "a.json"
    bad_json.write_text("{not json")
    with pytest.raises(FormatError):
        load_embedding_file(bad_json)
    not_list = tmp_path / "b.json"
    not_list.write_text('{"other": 1}')
    with pytest.raises(FormatError):
        load_embedding_file(not_list)
    non_numeric = tmp_path / "c.json"
    for text in ('["x", "y"]', '["1.5", true, 2]', '{"values": [1.5, true, 2]}', '[1.5, "2"]'):
        non_numeric.write_text(text)
        with pytest.raises(FormatError):
            load_embedding_file(non_numeric)


def test_load_token_map_resolves_relative_paths(tmp_path):
    sub = tmp_path / "maps"
    sub.mkdir()
    map_path = sub / "tokens.json"
    map_path.write_text(json.dumps({"rec0": "files/rec0.frames", "rec1": "/abs/rec1.frames"}))
    mapping = load_token_map(map_path)
    assert mapping["rec0"] == sub / "files" / "rec0.frames"
    assert str(mapping["rec1"]) == "/abs/rec1.frames"


def test_load_token_map_rejects_garbage(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("[1, 2]")
    with pytest.raises(FormatError):
        load_token_map(path)
    path.write_text('{"rec0": 7}')
    with pytest.raises(FormatError):
        load_token_map(path)


# ---------------------------------------------------------------------------
# prompt assembly


def test_assemble_prompt_joins_record_and_tokens(assets):
    db, _, token_map = assets
    req = make_request(db)
    result = retrieve(db, req.reference, req.method)
    assembly = assemble_prompt(db, result, req, token_map)
    assert assembly.record_id == "rec0"
    assert assembly.prompt_text == "first prompt"
    assert assembly.target_text == "hello"
    assert assembly.prompt_tokens.num_frames == 2
    assert assembly.prompt_tokens.dim == TOKEN_DIM
    assert np.array_equal(assembly.speaker.values, derive_speaker(req.reference).values)


def test_assemble_prompt_missing_assets(assets, tmp_path):
    db, _, token_map = assets
    req = make_request(db)
    result = retrieve(db, req.reference, req.method)
    with pytest.raises(MissingAssetError, match="token map"):
        assemble_prompt(db, result, req, None)
    partial = {k: v for k, v in token_map.items() if k != "rec0"}
    with pytest.raises(MissingAssetError, match="rec0"):
        assemble_prompt(db, result, req, partial)
    broken = dict(token_map)
    broken["rec0"] = tmp_path / "nope.frames"
    with pytest.raises(MissingAssetError, match="not found"):
        assemble_prompt(db, result, req, broken)


# ---------------------------------------------------------------------------
# token mock


def test_mock_tokens_grow_four_frames_per_char(assets):
    db, _, token_map = assets
    req = make_request(db)
    result = retrieve(db, req.reference, req.method)
    assembly = assemble_prompt(db, result, req, token_map)
    tokens = mock_generate_tokens(assembly, seed=0)
    assert tokens.num_frames == 2 + 4 * len("hello")
    assert tokens.frame_rate_hz == 50.0
    # the prompt survives verbatim at the front
    assert np.array_equal(tokens.frames[:2], assembly.prompt_tokens.frames)


def test_mock_tokens_empty_prompt():
    assembly_tokens = FrameSequence(np.zeros((0, 5)), 50.0)
    from emorag import PromptAssembly, SpeakerEmbedding

    assembly = PromptAssembly(
        record_id="r",
        prompt_tokens=assembly_tokens,
        prompt_text="",
        target_text="ten chars!",
        speaker=SpeakerEmbedding(np.zeros(8)),
    )
    tokens = mock_generate_tokens(assembly, seed=4)
    assert tokens.num_frames == 40
    expected = np.random.default_rng(4).standard_normal((40, 5))
    assert np.array_equal(tokens.frames, expected)


def test_mock_tokens_seed_sensitivity(assets):
    db, _, token_map = assets
    req = make_request(db)
    result = retrieve(db, req.reference, req.method)
    assembly = assemble_prompt(db, result, req, token_map)
    a = mock_generate_tokens(assembly, seed=1)
    b = mock_generate_tokens(assembly, seed=1)
    c = mock_generate_tokens(assembly, seed=2)
    assert np.array_equal(a.frames, b.frames)
    assert not np.array_equal(a.frames, c.frames)


# ---------------------------------------------------------------------------
# full pipeline


def test_run_inference_report_and_output(assets, tmp_path):
    db, model, token_map = assets
    req = make_request(db, seed=9)
    out = tmp_path / "mel.frames"
    report = run_inference(db, model, req, out, token_map=token_map)

    assert set(report) == {
        "retrieved_id",
        "similarity",
        "method",
        "intensity",
        "candidates_scanned",
        "stage_timings_ns",
        "total_ns",
        "output_path",
        "seed",
    }
    assert report["retrieved_id"] == "rec0"
    assert report["similarity"] == pytest.approx(1.0, abs=1e-6)
    assert report["method"] == "embedding"
    assert report["intensity"] is None
    assert report["candidates_scanned"] == 3
    assert report["seed"] == 9
    assert set(report["stage_timings_ns"]) == set(STAGES)
    assert all(t >= 0 for t in report["stage_timings_ns"].values())
    assert sum(report["stage_timings_ns"].values()) <= report["total_ns"]

    mel = load_frames(out)
    n_tokens = 2 + 4 * len("hello")
    assert mel.num_frames == int(np.floor(n_tokens * 1.6 + 0.5))
    assert mel.dim == STATE_DIM
    assert mel.frame_rate_hz == 80.0


def test_run_inference_deterministic_bytes(assets, tmp_path):
    db, model, token_map = assets
    paths = []
    for name in ("a.frames", "b.frames"):
        req = make_request(db, seed=3)
        out = tmp_path / name
        run_inference(db, model, req, out, token_map=token_map)
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_run_inference_matches_manual_assembly(assets, tmp_path):
    db, model, token_map = assets
    req = make_request(db, seed=5)
    out = tmp_path / "mel.frames"
    run_inference(db, model, req, out, token_map=token_map)

    result = retrieve(db, req.reference, req.method)
    assembly = assemble_prompt(db, result, req, token_map)
    tokens = mock_generate_tokens(assembly, 5)
    mel = generate_mel(model, tokens, assembly.speaker, seed=5)
    assert load_frames(out).frames.tobytes() == mel.frames.tobytes()


def test_run_inference_intensity_gate_picks_gated_record(assets, tmp_path):
    db, model, token_map = assets
    # reference sits on the weak record, but the gate forces the strong one
    req = make_request(db, record_pos=0, intensity="strong")
    report = run_inference(db, model, req, tmp_path / "mel.frames", token_map=token_map)
    assert report["retrieved_id"] == "rec2"
    assert report["intensity"] == "strong"
    assert report["candidates_scanned"] == 1


def test_run_inference_clustering_uses_bundle(assets, tmp_path):
    db, model, token_map = assets
    bundle = build_index_bundle(db, k=1, seed=0)
    req = make_request(db, record_pos=1, method="clustering")
    report = run_inference(
        db, model, req, tmp_path / "mel.frames", index=bundle, token_map=token_map
    )
    assert report["retrieved_id"] == "rec1"
    assert report["method"] == "clustering"


def test_stage_error_names_failing_stage(assets, tmp_path):
    db, model, token_map = assets
    out = tmp_path / "mel.frames"

    # retrieval: gating to a level with no records
    sub = build_db(
        np.eye(2, dtype=np.float32), labels=["a", "b"], intensities=["weak", "weak"]
    )
    req = SynthesisRequest(
        reference=EmotionEmbedding(sub.matrix[0]), target_text="x", intensity="strong"
    )
    with pytest.raises(StageError) as info:
        run_inference(sub, model, req, out, token_map=token_map)
    assert info.value.stage == "retrieval"
    assert isinstance(info.value.__cause__, EmptySubsetError)
    assert info.value.__cause__.level == "strong"

    # prompt_assembly: token map lacks the retrieved id
    req = make_request(db)
    with pytest.raises(StageError) as info:
        run_inference(db, model, req, out, token_map={})
    assert info.value.stage == "prompt_assembly"
    assert isinstance(info.value.__cause__, MissingAssetError)

    # flow_matching: model conditioned on the wrong token width
    narrow = init_vector_field(STATE_DIM, TOKEN_DIM + 1, 8, (8,), seed=0)
    with pytest.raises(StageError) as info:
        run_inference(db, narrow, make_request(db), out, token_map=token_map)
    assert info.value.stage == "flow_matching"
    assert isinstance(info.value.__cause__, DimensionMismatchError)


def test_write_report_round_trips(assets, tmp_path):
    db, model, token_map = assets
    report = run_inference(
        db, model, make_request(db), tmp_path / "mel.frames", token_map=token_map
    )
    path = tmp_path / "report.json"
    write_report(report, path)
    loaded = json.loads(path.read_text())
    assert loaded == json.loads(json.dumps(report))
    assert path.read_text().endswith("\n")
