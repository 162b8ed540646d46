"""End-to-end inference: retrieve a prompt, assemble, generate, synthesize.

The pipeline mirrors a prompt-based synthesis flow: a reference emotion
embedding retrieves the best matching stored utterance (optionally gated to
one intensity level), the utterance's transcript and token sequence become
the prompt, a token generator extends the prompt for the target text, and the
flow-matching stage transports noise to mel frames conditioned on the
upsampled tokens and a speaker vector.

Acoustic modelling is out of scope here, so the token generator is a
deterministic mock: it prefixes the stored prompt tokens and appends
pseudo-random frames, four per target character at 50 Hz.

Every stage is timed by :func:`~emorag.util.timed` and its failures are wrapped
in :class:`StageError` naming the stage, so a caller can tell a retrieval problem
from a broken checkpoint without parsing messages.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, FormatError, MissingAssetError, StageError
from .flow import (
    ODE_STEPS,
    FrameSequence,
    SpeakerEmbedding,
    VectorFieldModel,
    generate_mel,
    load_frames,
    save_frames,
)
from .retrieval import RetrievalMethod, RetrievalResult, retrieve
from .store import EmbeddingDatabase, EmotionEmbedding, IntensityLevel, json_vector
from .util import atomic_write_text, read_json, seeded_rng, timed, whole

FRAMES_PER_CHAR = 4
SPEAKER_DIM = 8


@dataclass(eq=False)
class SynthesisRequest:
    """What the caller wants: emotional colour, text, and retrieval knobs;
    ``method`` and ``intensity`` may be names, ``seed`` is an integer >= 0."""

    reference: EmotionEmbedding
    target_text: str
    method: RetrievalMethod = RetrievalMethod.EMBEDDING
    intensity: IntensityLevel | None = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.reference, EmotionEmbedding):
            self.reference = EmotionEmbedding(self.reference)
        if not isinstance(self.target_text, str) or not self.target_text:
            raise FormatError("target_text must be a non-empty string")
        self.method = RetrievalMethod.parse(self.method)
        if self.intensity is not None:
            self.intensity = IntensityLevel.parse(self.intensity)
        self.seed = whole(self.seed, 0, "seed")


@dataclass(eq=False)
class PromptAssembly:
    """Retrieved prompt material ready for token generation."""

    record_id: str
    prompt_tokens: FrameSequence
    prompt_text: str
    target_text: str
    speaker: SpeakerEmbedding


def derive_speaker(reference: EmotionEmbedding) -> SpeakerEmbedding:
    """Deterministic stand-in for a speaker encoder.

    Hashes the reference embedding bytes and expands the digest into a
    fixed-dimension gaussian vector, so the same reference always conditions
    synthesis identically.
    """
    digest = hashlib.sha256(reference.values.tobytes()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return SpeakerEmbedding(rng.standard_normal(SPEAKER_DIM))


def load_embedding_file(path, dim: int | None = None) -> EmotionEmbedding:
    """Read a query embedding from JSON: a bare list or ``{"values": [...]}``."""
    payload = read_json(path, "embedding file")
    if isinstance(payload, dict):
        payload = payload.get("values")
    if not isinstance(payload, list):
        raise FormatError("embedding file must hold a JSON list or {'values': [...]}")
    emb = EmotionEmbedding(json_vector(payload, "embedding file"))
    if dim is not None and emb.dim != dim:
        raise DimensionMismatchError(f"embedding has dim {emb.dim}, expected {dim}")
    return emb


def load_token_map(path) -> dict:
    """Read a record-id → token-file mapping from JSON.

    Relative paths resolve against the map file's own directory, so fixture
    trees stay relocatable.
    """
    payload = read_json(path, "token map")
    if not isinstance(payload, dict):
        raise FormatError("token map must be a JSON object of id -> path")
    base = Path(path).parent
    out = {}
    for rid, rel in payload.items():
        if not isinstance(rel, str):
            raise FormatError(f"token map entry {rid!r} must be a path string")
        p = Path(rel)
        out[str(rid)] = p if p.is_absolute() else base / p
    return out


def assemble_prompt(
    db: EmbeddingDatabase,
    result: RetrievalResult,
    request: SynthesisRequest,
    token_map: dict | None,
) -> PromptAssembly:
    """Join the retrieved record with its token sequence and a speaker vector."""
    rid = result.record_id
    transcript = db.transcripts[db.position(rid)]
    if not token_map:
        raise MissingAssetError("no token map available to locate prompt tokens")
    token_path = token_map.get(rid)
    if token_path is None:
        raise MissingAssetError(f"token map has no entry for record {rid!r}")
    token_path = Path(token_path)
    if not token_path.exists():
        raise MissingAssetError(f"token file for record {rid!r} not found: {token_path}")
    return PromptAssembly(
        record_id=rid,
        prompt_tokens=load_frames(token_path),
        prompt_text=transcript,
        target_text=request.target_text,
        speaker=derive_speaker(request.reference),
    )


def mock_generate_tokens(assembly: PromptAssembly, seed: int) -> FrameSequence:
    """Prompt-prefixed pseudo-random token frames, length ∝ target length."""
    n_new = FRAMES_PER_CHAR * len(assembly.target_text)
    dim = assembly.prompt_tokens.dim
    generated = seeded_rng(seed).standard_normal((n_new, dim))
    frames = np.vstack([assembly.prompt_tokens.frames, generated])
    return FrameSequence(frames=frames, frame_rate_hz=assembly.prompt_tokens.frame_rate_hz)


def run_inference(
    db: EmbeddingDatabase,
    model: VectorFieldModel,
    request: SynthesisRequest,
    output_path,
    *,
    index=None,
    token_map: dict,
    ode_steps: int = ODE_STEPS,
) -> dict:
    """Full pipeline; returns the inference report as a plain dict.

    ``index`` is ``db``'s :class:`~emorag.retrieval.ClusterIndex` or None.  Stage order:
    retrieval → prompt_assembly → token_generation → flow_matching → write_output.
    ``ode_steps`` (an integer >= 1) is checked before the first stage.  A failure
    in a stage raises :class:`StageError` carrying the stage name and the original exception.
    """
    ode_steps = whole(ode_steps, 1, "ode_steps")
    timings, total = {}, {}

    def stage(name, fn, *args, **kwargs):
        try:
            return timed(timings, name, fn, *args, **kwargs)
        except Exception as exc:
            raise StageError(name, exc) from exc

    def stages():
        found = stage(
            "retrieval", retrieve, db, request.reference, request.method, index=index, intensity=request.intensity
        )
        assembly = stage("prompt_assembly", assemble_prompt, db, found, request, token_map)
        tokens = stage("token_generation", mock_generate_tokens, assembly, request.seed)
        mel = stage("flow_matching", generate_mel, model, tokens, assembly.speaker, n_steps=ode_steps, seed=request.seed)
        stage("write_output", save_frames, mel, output_path)
        return found

    result = timed(total, "total", stages)
    return {
        "retrieved_id": result.record_id,
        "similarity": result.similarity,
        "method": request.method.value,
        "intensity": request.intensity.value if request.intensity is not None else None,
        "candidates_scanned": result.candidates_scanned,
        "stage_timings_ns": timings,
        "total_ns": total["total"],
        "output_path": str(output_path),
        "seed": request.seed,
    }


def write_report(report: dict, path) -> None:
    atomic_write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
