"""Every count, size, step count and seed a caller passes follows one rule.

It must be a Python or numpy integer of at least the site's minimum; a float,
a bool or a smaller value raises :class:`InvalidParameterError`
(:class:`DimensionMismatchError` for a database's ``dim``) and is never
truncated, and a numpy integer gives the same result as the plain ``int``.
The package's count of defaulted parameters is pinned here too.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import emorag
from emorag import ClusterIndex, DimensionMismatchError, EmbeddingDatabase, InvalidParameterError, RetrievalMethod
from emorag.flow import (
    FlowTrainConfig,
    FrameSequence,
    SpeakerEmbedding,
    VectorFieldModel,
    generate_mel,
    init_vector_field,
    linear_map_task,
    ode_integrate_batch,
)
from emorag.pipeline import PromptAssembly, SynthesisRequest, mock_generate_tokens
from emorag.store import serialize_db
from emorag.synthbench import (
    SyntheticDatasetConfig,
    generate_synthetic_db,
    make_query_set,
    run_benchmark,
    run_cell,
)


def _db(dim):
    db = EmbeddingDatabase(dim, [[0.6, 0.8]], [1], ["a"], ["joy"], [""], [None])
    return db.dim, serialize_db(db)


def _model(m):
    return m.state_dim, m.cond_dim, m.spk_dim, m.hidden, *(w.tobytes() for w in m.weights)


def _field(state_dim=2, cond_dim=1, spk_dim=1, hidden=3):
    weights, biases = [np.ones((3, 5)), np.ones((2, 3))], [np.zeros(3), np.zeros(2)]
    return _model(VectorFieldModel(state_dim, cond_dim, spk_dim, (hidden,), weights, biases))


def _dataset(**fields):
    config = SyntheticDatasetConfig(**{"num_emotions": 2, "dim": 3, "records_per_emotion": 2, **fields})
    return config.num_emotions, config.dim, config.records_per_emotion, config.seed, serialize_db(
        generate_synthetic_db(config)
    )


def _train_config(**fields):
    config = FlowTrainConfig(**fields)
    return config.batch_size, config.total_steps, config.seed


def _cell(warmup):
    bench, scans = run_cell(DB, RetrievalMethod.EMBEDDING, QUERIES, warmup=warmup)
    return bench.accuracy, bench.queries, scans


MODEL = init_vector_field(2, 1, 1, (3,), seed=0)
TOKENS = FrameSequence(np.arange(3.0)[:, None], 50.0)
SPEAKER = SpeakerEmbedding(np.ones(1))
ASSEMBLY = PromptAssembly("a", TOKENS, "", "hi", SPEAKER)
CONFIG = SyntheticDatasetConfig(num_emotions=2, dim=3, records_per_emotion=4, seed=5)
DB = generate_synthetic_db(CONFIG)
QUERIES = make_query_set(CONFIG, 3, seed=6)

# site: (a call that passes the value there, a valid value, the least valid value)
SITES = {
    "EmbeddingDatabase.dim": (_db, 2, 1),
    "VectorFieldModel.state_dim": (lambda n: _field(state_dim=n), 2, 1),
    "VectorFieldModel.cond_dim": (lambda n: _field(cond_dim=n), 1, 1),
    "VectorFieldModel.spk_dim": (lambda n: _field(spk_dim=n), 1, 1),
    "VectorFieldModel.hidden": (lambda n: _field(hidden=n), 3, 1),
    "init_vector_field.hidden": (lambda n: _model(init_vector_field(2, 1, 1, (n,), seed=0)), 3, 1),
    "init_vector_field.seed": (lambda n: _model(init_vector_field(2, 1, 1, (3,), seed=n)), 1, 0),
    "ode_integrate_batch.n_steps": (
        lambda n: ode_integrate_batch(MODEL, np.ones((2, 2)), np.ones((2, 1)), np.ones(1), n).tobytes(),
        2,
        1,
    ),
    "generate_mel.n_steps": (lambda n: generate_mel(MODEL, TOKENS, SPEAKER, n_steps=n).frames.tobytes(), 2, 1),
    "generate_mel.seed": (lambda n: generate_mel(MODEL, TOKENS, SPEAKER, n_steps=2, seed=n).frames.tobytes(), 1, 0),
    "FlowTrainConfig.batch_size": (lambda n: _train_config(batch_size=n), 2, 1),
    "FlowTrainConfig.total_steps": (lambda n: _train_config(total_steps=n), 2, 0),
    "FlowTrainConfig.seed": (lambda n: _train_config(seed=n), 1, 0),
    "linear_map_task.seed": (
        lambda n: linear_map_task(2, 1, 1, seed=n)(np.random.default_rng(0), 2).x1.tobytes(),
        1,
        0,
    ),
    "SynthesisRequest.seed": (lambda n: SynthesisRequest(np.ones(2), "hi", seed=n).seed, 1, 0),
    "mock_generate_tokens.seed": (lambda n: mock_generate_tokens(ASSEMBLY, n).frames.tobytes(), 1, 0),
    "SyntheticDatasetConfig.num_emotions": (lambda n: _dataset(num_emotions=n), 2, 1),
    "SyntheticDatasetConfig.dim": (lambda n: _dataset(dim=n), 3, 1),
    "SyntheticDatasetConfig.records_per_emotion": (lambda n: _dataset(records_per_emotion=n), 2, 1),
    "SyntheticDatasetConfig.seed": (lambda n: _dataset(seed=n), 1, 0),
    "make_query_set.n_queries": (
        lambda n: [(q.values.tobytes(), label) for q, label in make_query_set(CONFIG, n, seed=0)],
        2,
        1,
    ),
    "make_query_set.seed": (
        lambda n: [(q.values.tobytes(), label) for q, label in make_query_set(CONFIG, 2, seed=n)],
        1,
        0,
    ),
    "run_cell.warmup": (_cell, 2, 0),
    "run_benchmark.size": (
        lambda n: [
            (r.method, r.db_size, r.accuracy, r.queries)
            for r in run_benchmark([("embedding", n)], n_queries=4, num_emotions=8, dim=4)
        ],
        16,
        1,
    ),
    "run_benchmark.seed": (
        lambda n: [(r.accuracy, r.queries) for r in run_benchmark([("embedding", 16)], n_queries=4, seed=n, dim=4)],
        1,
        0,
    ),
}


@pytest.mark.parametrize("site", SITES)
def test_whole_number_parameters(site):
    call, good, least = SITES[site]
    error = DimensionMismatchError if site == "EmbeddingDatabase.dim" else InvalidParameterError
    for bad in (good + 0.5, float(good), True, least - 1):
        with pytest.raises(error):
            call(bad)
    assert repr(call(np.int64(good))) == repr(call(good))


def test_cluster_assignments_are_integers():
    # an array of cluster numbers follows the same rule: a float or bool array used to be cast to u32
    make = lambda a: ClusterIndex(2, np.eye(2), a, bytes(32)).assignments  # noqa: E731
    for bad in ([0.5, 1.7, 1.0], [0.0, 1.0], np.array([True, False]), ["0", "1"]):
        with pytest.raises(InvalidParameterError, match="integers"):
            make(bad)
    for good in ([0, 1, 1], np.array([0, 1, 1], dtype=np.int8), np.array([0, 1, 1], dtype=np.uint64)):
        assert make(good).tolist() == [0, 1, 1]


def test_defaulted_parameter_count():
    # every defaulted positional and keyword-only parameter of every function in the
    # package: adding or removing a knob means changing this count on purpose
    count = 0
    for path in sorted(Path(emorag.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
    assert count == 27
