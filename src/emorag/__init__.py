"""Retrieval-augmented emotion-prompt selection with flow-matching synthesis.

The package splits into five layers: a typed embedding store with a compact
binary format (:mod:`emorag.store`), exhaustive and cluster-routed retrieval
with intensity gating (:mod:`emorag.retrieval`), token upsampling plus a
conditional flow-matching stack (:mod:`emorag.flow`), the end-to-end
inference pipeline (:mod:`emorag.pipeline`), and a synthetic benchmark
harness (:mod:`emorag.synthbench`).  ``emorag.cli`` exposes all of it as
subcommands.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionMismatchError,
    DuplicateIdError,
    EmoragError,
    EmptyDatabaseError,
    EmptySubsetError,
    FormatError,
    IntegrationDivergenceError,
    InvalidIntensityError,
    InvalidParameterError,
    MalformedHeaderError,
    MissingAssetError,
    MissingIndexError,
    NonFiniteValueError,
    StageError,
    StaleIndexError,
    TrainingDivergenceError,
    ZeroNormError,
)
from .store import (
    EmbeddingDatabase,
    EmotionEmbedding,
    IntensityLevel,
    filter_by_intensity,
    load_db,
    load_manifest,
    save_db,
)
from .retrieval import (
    ClusterIndex,
    RetrievalMethod,
    RetrievalResult,
    build_index_bundle,
    default_k,
    kmeans_fit,
    load_index,
    load_index_bundle,
    retrieve,
    retrieve_clustering_based,
    retrieve_embedding_based,
    save_index,
    save_index_bundle,
)
from .flow import (
    FlowBatch,
    FlowTrainConfig,
    FrameSequence,
    SpeakerEmbedding,
    VectorFieldModel,
    cfm_sample_path,
    generate_mel,
    init_vector_field,
    linear_map_task,
    load_checkpoint,
    load_frames,
    ode_integrate_batch,
    save_checkpoint,
    save_frames,
    train_vector_field,
    transport_toy_task,
    upsample_tokens,
    vf_loss,
    vf_train_step,
)
from .pipeline import (
    PromptAssembly,
    SynthesisRequest,
    assemble_prompt,
    derive_speaker,
    load_embedding_file,
    load_token_map,
    mock_generate_tokens,
    run_inference,
    write_report,
)
from .synthbench import (
    BenchResult,
    SyntheticDatasetConfig,
    emit_report,
    generate_synthetic_db,
    make_query_set,
    run_benchmark,
    run_cell,
)
