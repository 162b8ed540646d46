"""Train the 2-D transport toy and report how well samples hit the target.

The vector field learns to carry N(0, I) onto N(offset, spread^2 I); after
training, 1000 integrated samples are compared against the target moments:

    python3 scripts/train_transport_toy.py --steps 2000 --lr 0.03
"""

import argparse
from pathlib import Path

import numpy as np

from emorag import (
    FlowTrainConfig,
    init_vector_field,
    ode_integrate_batch,
    save_checkpoint,
    train_vector_field,
    transport_toy_task,
)
from emorag.flow import ODE_STEPS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--lr", type=float, default=0.03)
    parser.add_argument("--batch", type=int, default=64)
    parser.add_argument("--hidden", type=int, nargs="+", default=[64, 64])
    parser.add_argument("--offset", type=float, nargs=2, default=[3.0, 3.0])
    parser.add_argument("--spread", type=float, default=0.5)
    parser.add_argument("--ode-steps", type=int, default=ODE_STEPS)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--checkpoint", type=Path, default=None)
    args = parser.parse_args()

    model = init_vector_field(2, 2, 8, tuple(args.hidden), seed=args.seed)
    config = FlowTrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch,
        total_steps=args.steps,
        seed=args.seed,
    )
    sampler = transport_toy_task(offset=tuple(args.offset), spread=args.spread)
    losses = train_vector_field(model, sampler, config)
    if losses:
        k = max(1, len(losses) // 20)
        print(
            f"trained {len(losses)} steps: loss {np.mean(losses[:k]):.4f} -> "
            f"{np.mean(losses[-k:]):.4f} (first/last {k}-step means)"
        )

    rng = np.random.default_rng(args.seed + 123)
    x0 = rng.standard_normal((args.samples, 2))
    spk = rng.standard_normal(8)
    samples = ode_integrate_batch(model, x0, np.zeros((args.samples, 2)), spk, args.ode_steps)

    mean = samples.mean(axis=0)
    var = samples.var(axis=0)
    target_var = args.spread**2
    print(f"sample mean     ({mean[0]:+.4f}, {mean[1]:+.4f})   target ({args.offset[0]:+.4f}, {args.offset[1]:+.4f})")
    print(f"sample variance ({var[0]:.4f}, {var[1]:.4f})   target ({target_var:.4f}, {target_var:.4f})")
    print(
        f"moment errors   mean {np.abs(mean - args.offset).max():.4f}, "
        f"variance {np.abs(var - target_var).max():.4f}"
    )

    if args.checkpoint is not None:
        save_checkpoint(model, args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
