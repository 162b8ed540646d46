"""Command-line surface: one subcommand per capability.

Exit codes, used consistently by every subcommand:

* 0 — success
* 1 — unexpected failure
* 2 — usage error (bad flags, bad flag combinations)
* 3 — an intensity gate or retrieval target selected zero records
* 4 — a referenced file or index is missing
* 5 — validation or format error in inputs or configuration

The ``EMORAG_LOG`` environment variable (DEBUG/INFO/..., or a whole number)
sets the level of the ``emorag`` logger, which writes to stderr.  At DEBUG it reports a
database's records per level when its level rows are built (by its first
query without ``--index``), an index's k, rows and largest cluster (counted
from its assignments) when its inverted lists are built (by the first query
with it), each clustered query's gate, the cluster it probes and that
cluster's rows at the gate, a clustered probe that falls back to scanning the
gate's rows (and how many) because the cluster has none there, and k-means
reseeding an empty cluster.  ``synth`` adds the nanoseconds each of its file
loads took to its report as ``load_timings_ns``.  ``build-index`` writes one
:class:`~emorag.retrieval.ClusterIndex`, which serves both methods and every gate.
All stochastic commands take ``--seed`` (a non-negative integer, default 0)
so documented invocations reproduce byte-for-byte.  A flag that several
subcommands take is declared once, and ``retrieve`` and ``synth`` load the
inputs their shared flags name alike.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import (
    EmoragError,
    EmptyDatabaseError,
    EmptySubsetError,
    MissingAssetError,
    MissingIndexError,
    StageError,
)
from .flow import (
    ODE_STEPS,
    FlowTrainConfig,
    init_vector_field,
    linear_map_task,
    load_checkpoint,
    save_checkpoint,
    train_vector_field,
)
from .pipeline import (
    SPEAKER_DIM,
    SynthesisRequest,
    load_embedding_file,
    load_token_map,
    run_inference,
    write_report,
)
from .retrieval import RetrievalMethod, default_k, kmeans_fit, load_index, retrieve, save_index
from .store import load_db, load_manifest, save_db
from .synthbench import (
    DEFAULT_DIM,
    DEFAULT_MIX,
    DEFAULT_NUM_EMOTIONS,
    DEFAULT_SIGMA,
    DEFAULT_SIZES,
    DEFAULT_SPREAD,
    SyntheticDatasetConfig,
    emit_report,
    generate_synthetic_db,
    run_benchmark,
)
from .util import atomic_write_text, configure_logging, timed

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2
EXIT_EMPTY = 3
EXIT_MISSING = 4
EXIT_INVALID = 5


def _int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _str_list(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def _seed(text: str) -> int:
    seed = int(text)  # argparse reports a ValueError as an invalid value
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


def _mix(text: str):
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("intensity mix needs exactly three fractions")
    return parts


def _need_file(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise MissingAssetError(f"{what} not found: {p}")
    return p


def _timed_load(load_ns: dict, name: str, path, what: str, load, **kwargs):
    """``load(path, **kwargs)`` of a file that must exist; its nanoseconds go to ``load_ns[name]``."""
    return timed(load_ns, name, load, _need_file(path, what), **kwargs)


def _retrieval_inputs(args, load_ns: dict) -> tuple:
    """``(db, query, index)`` named by the flags ``retrieve`` and ``synth`` share; ``index`` is
    the :class:`~emorag.retrieval.ClusterIndex` at ``--index`` whenever it is given, for either
    method, else None."""
    if args.method == "clustering" and not args.index:
        raise argparse.ArgumentError(None, "--index is required with --method clustering")
    db = _timed_load(load_ns, "database", args.db, "database", load_db)
    query = _timed_load(load_ns, "query", args.query, "query embedding", load_embedding_file, dim=db.dim)
    index = _timed_load(load_ns, "index", args.index, "cluster index", load_index) if args.index else None
    return db, query, index


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    config = SyntheticDatasetConfig(
        num_emotions=args.emotions,
        dim=args.dim,
        records_per_emotion=args.per_emotion,
        cluster_sigma=args.sigma,
        center_spread=args.spread,
        intensity_mix=args.mix,
        seed=args.seed,
    )
    db = generate_synthetic_db(config)
    save_db(db, args.out)
    print(f"wrote {len(db)} records ({config.num_emotions} emotions, dim {config.dim}) to {args.out}")
    return EXIT_OK


def cmd_import_db(args) -> int:
    db = load_manifest(_need_file(args.manifest, "manifest"), dim=args.dim)
    save_db(db, args.out)
    print(f"imported {len(db)} records (dim {db.dim}) to {args.out}")
    return EXIT_OK


def cmd_build_index(args) -> int:
    db = load_db(_need_file(args.db, "database"))
    index = kmeans_fit(db, default_k(db) if args.k is None else args.k, seed=args.seed)
    save_index(index, args.out)
    print(f"wrote cluster index (k={index.k}) to {args.out}; it serves every intensity gate")
    return EXIT_OK


def cmd_retrieve(args) -> int:
    db, query, index = _retrieval_inputs(args, {})
    result = retrieve(db, query, args.method, index=index, intensity=args.intensity)
    print(json.dumps(result.to_json_dict(), indent=2))
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.queries < 1:
        raise argparse.ArgumentError(None, "--queries must be a positive integer")
    if not args.sizes or not args.methods:
        raise argparse.ArgumentError(None, "--sizes and --methods must be non-empty")
    cells = [(m, s) for m in args.methods for s in args.sizes]
    results = run_benchmark(
        cells,
        n_queries=args.queries,
        seed=args.seed,
        num_emotions=args.emotions,
        dim=args.dim,
        cluster_sigma=args.sigma,
        center_spread=args.spread,
    )
    emit_report(results, args.out, args.format)
    for r in results:
        print(
            f"{r.method.value:<10} n={r.db_size:<6} accuracy={r.accuracy:.4f} "
            f"mean={r.mean_latency_ns}ns p95={r.p95_latency_ns}ns queries={r.queries}"
        )
    emb = {r.db_size: r.mean_latency_ns for r in results if r.method is RetrievalMethod.EMBEDDING}
    clu = {r.db_size: r.mean_latency_ns for r in results if r.method is RetrievalMethod.CLUSTERING}
    for size in sorted(emb.keys() & clu.keys()):
        print(f"clustering speedup at n={size}: {emb[size] / clu[size]:.2f}x")
    if len(emb) >= 2:
        lo, hi = min(emb), max(emb)
        print(
            f"exhaustive-scan latency scaling {hi}/{lo}: {emb[hi] / emb[lo]:.2f} "
            f"(size ratio {hi / lo:.2f})"
        )
    print(f"report written to {args.out}")
    return EXIT_OK


def cmd_train_fm(args) -> int:
    config = FlowTrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch,
        total_steps=args.steps,
        seed=args.seed,
    )
    model = init_vector_field(args.state_dim, args.token_dim, SPEAKER_DIM, args.hidden, seed=args.seed)
    sampler = linear_map_task(args.state_dim, args.token_dim, SPEAKER_DIM, seed=args.seed)
    losses = train_vector_field(model, sampler, config)
    save_checkpoint(model, args.out)
    loss_log = args.loss_log or Path(args.out).with_suffix(".loss.csv")
    lines = ["step,loss"] + [f"{i},{loss!r}" for i, loss in enumerate(losses)]
    atomic_write_text(loss_log, "\n".join(lines) + "\n")
    if losses:
        print(
            f"trained {len(losses)} steps: loss {losses[0]:.6f} -> {losses[-1]:.6f} "
            f"(ratio {losses[-1] / losses[0]:.4f})"
        )
    else:
        print("trained 0 steps: checkpoint is the fresh initialization")
    print(f"checkpoint written to {args.out}, loss log to {loss_log}")
    return EXIT_OK


def cmd_synth(args) -> int:
    load_ns = {}
    db, query, index = _retrieval_inputs(args, load_ns)
    model = _timed_load(load_ns, "checkpoint", args.checkpoint, "checkpoint", load_checkpoint)
    token_map = _timed_load(load_ns, "token_map", args.tokens, "token map", load_token_map)
    request = SynthesisRequest(
        reference=query,
        target_text=args.text,
        method=args.method,
        intensity=args.intensity,
        seed=args.seed,
    )
    report = run_inference(
        db,
        model,
        request,
        args.out,
        index=index,
        token_map=token_map,
        ode_steps=args.ode_steps,
    )
    report["load_timings_ns"] = load_ns
    if args.report:
        write_report(report, args.report)
    print(json.dumps(report, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emorag",
        description="Emotion-prompt retrieval, flow-matching synthesis, and benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"emorag {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by several subcommands, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=0)
    db_flag = argparse.ArgumentParser(add_help=False)
    db_flag.add_argument("--db", required=True)
    retrieval = argparse.ArgumentParser(add_help=False, parents=[db_flag])
    retrieval.add_argument("--query", required=True, help="JSON embedding file")
    retrieval.add_argument("--method", choices=["embedding", "clustering"], default="embedding")
    retrieval.add_argument("--index", default=None)
    retrieval.add_argument("--intensity", choices=["weak", "normal", "strong"], default=None)

    p = sub.add_parser("gen-data", parents=[seeded, out], help="generate a synthetic emotion database")
    p.add_argument("--emotions", type=int, default=4)
    p.add_argument("--per-emotion", type=int, default=750)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p.add_argument("--spread", type=float, default=DEFAULT_SPREAD)
    p.add_argument("--mix", type=_mix, default=DEFAULT_MIX)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("import-db", parents=[out], help="build a database file from a JSON manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--dim", type=int, default=None)
    p.set_defaults(func=cmd_import_db)

    p = sub.add_parser(
        "build-index", parents=[db_flag, seeded, out], help="fit the cluster index that serves every intensity gate"
    )
    p.add_argument("--k", type=int, default=None, help="clusters; default = distinct labels")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser(
        "retrieve", parents=[retrieval], help="retrieve the best prompt for a query embedding"
    )
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("bench", parents=[seeded, out], help="run the method x size retrieval benchmark")
    p.add_argument("--sizes", type=_int_list, default=list(DEFAULT_SIZES))
    p.add_argument("--methods", type=_str_list, default=["embedding", "clustering"])
    p.add_argument("--queries", type=int, default=1000)
    p.add_argument("--emotions", type=int, default=DEFAULT_NUM_EMOTIONS)
    p.add_argument("--dim", type=int, default=DEFAULT_DIM)
    p.add_argument("--sigma", type=float, default=DEFAULT_SIGMA)
    p.add_argument("--spread", type=float, default=DEFAULT_SPREAD)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "train-fm", parents=[seeded, out], help="train the vector field on a synthetic token-to-mel task"
    )
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--state-dim", type=int, default=80, help="output (mel) dimension")
    p.add_argument("--token-dim", type=int, default=8)
    p.add_argument("--hidden", type=_int_list, default=[64, 64])
    p.add_argument("--loss-log", default=None, help="CSV path; default <out>.loss.csv")
    p.set_defaults(func=cmd_train_fm)

    p = sub.add_parser(
        "synth",
        parents=[retrieval, seeded, out],
        help="full inference: retrieve, assemble, generate, write mel",
    )
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tokens", required=True, help="JSON token map: record id -> frames file")
    p.add_argument("--text", required=True)
    p.add_argument("--ode-steps", type=int, default=ODE_STEPS)
    p.add_argument("--report", default=None, help="also write the JSON report here")
    p.set_defaults(func=cmd_synth)

    return parser


def _exit_code_for(exc: BaseException) -> int:
    if isinstance(exc, argparse.ArgumentError):
        return EXIT_USAGE
    if isinstance(exc, StageError):
        return _exit_code_for(exc.__cause__) if exc.__cause__ is not None else EXIT_UNEXPECTED
    if isinstance(exc, (EmptySubsetError, EmptyDatabaseError)):
        return EXIT_EMPTY
    if isinstance(exc, (MissingAssetError, MissingIndexError, FileNotFoundError, IsADirectoryError)):
        return EXIT_MISSING
    if isinstance(exc, EmoragError):
        return EXIT_INVALID
    return EXIT_UNEXPECTED


def main(argv=None) -> int:
    configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (argparse.ArgumentError, EmoragError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except Exception as exc:  # pragma: no cover - safety net
        print(f"unexpected error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
