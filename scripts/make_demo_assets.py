"""Build a self-contained demo workspace for the synth command.

Creates, under a target directory: a synthetic emotion database, the cluster
index bundle, one token-frame file per record plus the JSON token map, a
trained vector-field checkpoint, and a query embedding taken from one of the
records.  Prints the ``emorag synth`` invocation that ties them together.

    python3 scripts/make_demo_assets.py --out demo/
"""

import argparse
import json
from pathlib import Path

import numpy as np

from emorag import (
    FlowTrainConfig,
    FrameSequence,
    SyntheticDatasetConfig,
    build_index_bundle,
    generate_synthetic_db,
    init_vector_field,
    linear_map_task,
    save_checkpoint,
    save_db,
    save_frames,
    save_index_bundle,
    train_vector_field,
)
from emorag.pipeline import SPEAKER_DIM

TOKEN_DIM = 8
STATE_DIM = 80


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True, help="workspace directory")
    parser.add_argument("--emotions", type=int, default=4)
    parser.add_argument("--per-emotion", type=int, default=50)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--train-steps", type=int, default=300)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    root = args.out
    root.mkdir(parents=True, exist_ok=True)

    config = SyntheticDatasetConfig(
        num_emotions=args.emotions,
        dim=args.dim,
        records_per_emotion=args.per_emotion,
        seed=args.seed,
    )
    db = generate_synthetic_db(config)
    db_path = root / "db.emdb"
    save_db(db, db_path)
    print(f"database: {db_path} ({len(db)} records, dim {db.dim})")

    index_path = root / "db.emix"
    save_index_bundle(build_index_bundle(db, seed=args.seed), index_path)
    print(f"index:    {index_path}")

    token_dir = root / "tokens"
    token_dir.mkdir(exist_ok=True)
    rng = np.random.default_rng(args.seed)
    mapping = {}
    for rid in db.ids:
        frames = FrameSequence(rng.standard_normal((4, TOKEN_DIM)), 50.0)
        save_frames(frames, token_dir / f"{rid}.frames")
        mapping[rid] = f"{rid}.frames"
    map_path = token_dir / "map.json"
    map_path.write_text(json.dumps(mapping, indent=2) + "\n")
    print(f"tokens:   {map_path} ({len(mapping)} files)")

    model = init_vector_field(STATE_DIM, TOKEN_DIM, SPEAKER_DIM, (64, 64), seed=args.seed)
    train_config = FlowTrainConfig(
        learning_rate=0.5, total_steps=args.train_steps, seed=args.seed
    )
    sampler = linear_map_task(STATE_DIM, TOKEN_DIM, SPEAKER_DIM, seed=args.seed)
    losses = train_vector_field(model, sampler, train_config)
    ckpt_path = root / "model.ckpt"
    save_checkpoint(model, ckpt_path)
    if losses:
        print(f"model:    {ckpt_path} (loss {losses[0]:.4f} -> {losses[-1]:.4f})")
    else:
        print(f"model:    {ckpt_path} (untrained)")

    middle = len(db) // 2
    query_path = root / "query.json"
    query_path.write_text(json.dumps({"values": db.matrix[middle].tolist()}) + "\n")
    print(f"query:    {query_path} (embedding of {db.ids[middle]})")

    print()
    print("try:")
    print(
        f"  python3 -m emorag synth --db {db_path} --checkpoint {ckpt_path} --query {query_path} \\\n"
        f"      --tokens {map_path} --text 'a demo sentence' --seed 7 --out {root / 'mel.frames'}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
