"""Token-to-mel alignment and a small conditional flow-matching stack.

The pieces here are deliberately self-contained numpy: a frame container, the
linear-interpolation upsampler that bridges 50 Hz token sequences to 80 Hz mel
sequences at the 1.6:1 ratio those rates fix, the linear interpolation path
used for flow-matching targets, a fully-connected time-conditioned vector
field with hand-written backprop under an L1 objective, explicit Euler
integration of the learned field, and length-prefixed binary artifacts for
checkpoints and frames; a checkpoint's array table is the one its dims fix.
A save hands the writer the header and then the float64 arrays themselves.

Parameters, training, artifacts and the sampler's result are float64.  The
vector field consumes the concatenation ``[state, conditioning, speaker, t]``
in that order; hidden layers are tanh, the output layer is linear.

The Euler sampler evaluates the field in float32 and never forms the state
inside its step loop.  Layer 0 is linear in the state and an Euler step adds
the linear output layer to the state, so with ``Wo, bo`` the dt-scaled output
layer and ``w_x, w_t`` layer 0's state and time columns it carries layer 0's
pre-activation ``a`` and the running sum ``G`` of the output layer's inputs:

- once per call, in float64 and rounded once: ``M = Wo·w_x``, ``c = bo·w_x +
  dt·w_t`` and layer 0's constant part ``[cond, spk]·W_cs + b0``, to which the
  float32 product of the state and ``w_x`` is added to give ``a``;
- each step: ``h = tanh(a)``, the middle layers, ``G += h``, ``a += h·M + c``;
- after the loop: ``X = G·Wo + X0 + n·bo`` in float64, a new array; IEEE
  addition commutes, so this is ``X0 + G·Wo + n·bo`` bit for bit.

With ``hidden=()`` layer 0 is the output layer: ``Wo = I``, ``bo = 0`` and no
tanh.  On the benchmark's 80/8/8 (64, 64) field a step is two 64-wide
products and seven 64-wide float32 passes, and its RMS distance to a float64
field read 1.2e-7 at 32 steps.  The loop's buffers are allocated once per
call, with a row-tiled copy of each bias it adds, and freed before the final
product; its products and adds take the same operands in the same order as
fresh arrays every step would, so the output is equal bit for bit.  Training
runs the float64 field, one fresh array per layer.

Training notes, learned the hard way on this loss: the mean-over-everything
L1 makes each weight's gradient magnitude go as 1/state_dim (the sign
pattern is dense but tiny), so useful learning rates grow with the output
dimension; and because sign gradients never shrink near the optimum, a fixed
step size leaves the parameters jittering at a floor proportional to the
rate.  The loop in :func:`train_vector_field` therefore always shrinks the
step linearly to zero, which is what lets the toy tasks actually converge
instead of orbiting.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatchError,
    FormatError,
    IntegrationDivergenceError,
    InvalidParameterError,
    MalformedHeaderError,
    NonFiniteValueError,
    TrainingDivergenceError,
)
from .util import atomic_write_bytes, frozen_copy, is_whole, seeded_rng, whole

TOKEN_RATE_HZ = 50.0
MEL_RATE_HZ = 80.0
UPSAMPLE_RATIO = MEL_RATE_HZ / TOKEN_RATE_HZ  # 1.6
ODE_STEPS = 32  # default Euler steps of a synthesis


@dataclass(eq=False)
class FrameSequence:
    """A (num_frames, dim) float64 array with an attached frame rate."""

    frames: np.ndarray
    frame_rate_hz: float

    def __post_init__(self):
        self.frames = frozen_copy(self.frames, np.float64, 2, "frames")
        rate = float(self.frame_rate_hz)
        if not math.isfinite(rate) or rate <= 0.0:
            raise InvalidParameterError(f"frame_rate_hz must be positive, got {rate}")
        self.frame_rate_hz = rate

    @property
    def num_frames(self) -> int:
        return int(self.frames.shape[0])

    @property
    def dim(self) -> int:
        return int(self.frames.shape[1])


@dataclass(eq=False)
class SpeakerEmbedding:
    """Speaker conditioning vector, float64."""

    values: np.ndarray

    def __post_init__(self):
        self.values = frozen_copy(self.values, np.float64, 1, "speaker embedding")

    @property
    def dim(self) -> int:
        return int(self.values.shape[0])


def upsample_tokens(seq: FrameSequence) -> FrameSequence:
    """Linearly interpolate a frame sequence to ``round(T * UPSAMPLE_RATIO)`` frames.

    The output grid spans the input endpoints exactly: output frame j sits at
    source position ``j * (T - 1) / (T' - 1)``, so the first and last input
    frames are reproduced bit-for-bit and every interior frame is a convex
    combination of its two neighbours.  Rounding of the output length is
    half-away-from-zero.  Needs at least two input frames.
    """
    T = seq.num_frames
    if T < 2:
        raise InvalidParameterError(f"upsampling needs at least 2 frames, got {T}")
    T_out = int(math.floor(T * UPSAMPLE_RATIO + 0.5))
    src = np.arange(T_out, dtype=np.float64) * (T - 1) / (T_out - 1)
    i0 = np.minimum(src.astype(np.int64), T - 2)
    w = (src - i0)[:, None]
    frames = (1.0 - w) * seq.frames[i0] + w * seq.frames[i0 + 1]
    return FrameSequence(frames=frames, frame_rate_hz=seq.frame_rate_hz * UPSAMPLE_RATIO)


def cfm_sample_path(x0: np.ndarray, x1: np.ndarray, t):
    """Linear interpolation path and its velocity target.

    ``x_t = (1 - t) x0 + t x1`` and ``u = x1 - x0``; ``t`` may be a scalar or
    a per-row vector in [0, 1].
    """
    x0 = np.asarray(x0, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    if x0.shape != x1.shape:
        raise DimensionMismatchError(f"endpoint shapes differ: {x0.shape} vs {x1.shape}")
    t_arr = np.asarray(t, dtype=np.float64)
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0) or not np.all(np.isfinite(t_arr)):
        raise InvalidParameterError("t must lie in [0, 1]")
    if t_arr.ndim == 1 and x0.ndim == 2:
        if t_arr.shape[0] != x0.shape[0]:
            raise DimensionMismatchError("per-row t must match the batch size")
        t_arr = t_arr[:, None]
    elif t_arr.ndim != 0:
        raise InvalidParameterError("t must be a scalar or a 1-D batch vector")
    xt = (1.0 - t_arr) * x0 + t_arr * x1
    return xt, x1 - x0


# ---------------------------------------------------------------------------
# vector field


@dataclass(eq=False)
class VectorFieldModel:
    """Fully-connected vector field v(x, t | cond, spk).

    ``weights[l]`` has shape (fan_out, fan_in); tanh between layers, linear
    output.  Input layout is ``[state, cond, spk, t]``; :func:`mlp_sizes` checks every size.
    """

    state_dim: int
    cond_dim: int
    spk_dim: int
    hidden: tuple
    weights: list
    biases: list

    def __post_init__(self):
        sizes = self.layer_sizes
        self.cond_dim, self.spk_dim = whole(self.cond_dim, 1, "cond_dim"), whole(self.spk_dim, 1, "spk_dim")
        self.state_dim, self.hidden = sizes[-1], sizes[1:-1]
        if len(self.weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise DimensionMismatchError(
                f"expected {len(sizes) - 1} weight/bias pairs, got "
                f"{len(self.weights)}/{len(self.biases)}"
            )
        ws, bs = [], []
        for l, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            W = np.asarray(self.weights[l], dtype=np.float64)
            b = np.asarray(self.biases[l], dtype=np.float64)
            if W.shape != (fan_out, fan_in):
                raise DimensionMismatchError(
                    f"layer {l}: weight shape {W.shape}, expected {(fan_out, fan_in)}"
                )
            if b.shape != (fan_out,):
                raise DimensionMismatchError(
                    f"layer {l}: bias shape {b.shape}, expected {(fan_out,)}"
                )
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise NonFiniteValueError(f"layer {l}: parameters contain NaN or infinity")
            ws.append(W.copy())
            bs.append(b.copy())
        self.weights = ws
        self.biases = bs

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def layer_sizes(self) -> tuple:
        return mlp_sizes(self.state_dim, self.cond_dim, self.spk_dim, self.hidden)


def mlp_sizes(state_dim: int, cond_dim: int, spk_dim: int, hidden) -> tuple:
    """Layer widths of a vector field: its ``[state, cond, spk, t]`` input, ``hidden``, its state output.
    Each size must be a Python or numpy integer >= 1 (:class:`InvalidParameterError`)."""
    state, cond, spk = whole(state_dim, 1, "state_dim"), whole(cond_dim, 1, "cond_dim"), whole(spk_dim, 1, "spk_dim")
    return (state + cond + spk + 1, *(whole(h, 1, "hidden size") for h in hidden), state)


def init_vector_field(
    state_dim: int,
    cond_dim: int,
    spk_dim: int,
    hidden: tuple = (64, 64),
    seed: int = 0,
) -> VectorFieldModel:
    """Glorot-uniform weights, zero biases, deterministic under ``seed`` (an integer >= 0)."""
    sizes = mlp_sizes(state_dim, cond_dim, spk_dim, hidden)
    rng = seeded_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-lim, lim, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return VectorFieldModel(
        state_dim=state_dim,
        cond_dim=cond_dim,
        spk_dim=spk_dim,
        hidden=tuple(hidden),
        weights=weights,
        biases=biases,
    )


def _forward(model: VectorFieldModel, feats: np.ndarray):
    """Forward pass: the layer inputs ``[feats, h1, ...]`` that backprop reads, and the output."""
    hs = [feats]
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        h = hs[-1] @ W.T
        h += b
        hs.append(np.tanh(h, out=h))
    out = hs[-1] @ model.weights[-1].T
    out += model.biases[-1]
    return hs, out


@dataclass(eq=False)
class FlowBatch:
    """One training batch: endpoints, times, and conditioning, row-aligned."""

    x0: np.ndarray
    x1: np.ndarray
    t: np.ndarray
    cond: np.ndarray
    spk: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=np.float64)
        x1 = np.asarray(self.x1, dtype=np.float64)
        t = np.asarray(self.t, dtype=np.float64)
        cond = np.asarray(self.cond, dtype=np.float64)
        spk = np.asarray(self.spk, dtype=np.float64)
        if x0.ndim != 2 or x0.shape[0] == 0:
            raise DimensionMismatchError("x0 must be a non-empty (batch, dim) array")
        if x1.shape != x0.shape:
            raise DimensionMismatchError(f"x1 shape {x1.shape} != x0 shape {x0.shape}")
        B = x0.shape[0]
        if t.shape != (B,):
            raise DimensionMismatchError(f"t shape {t.shape}, expected ({B},)")
        if cond.ndim != 2 or cond.shape[0] != B:
            raise DimensionMismatchError(f"cond must be ({B}, cond_dim), got {cond.shape}")
        if spk.ndim == 1:
            spk = np.broadcast_to(spk, (B, spk.shape[0])).copy()
        if spk.ndim != 2 or spk.shape[0] != B:
            raise DimensionMismatchError(f"spk must be ({B}, spk_dim), got {spk.shape}")
        for name, arr in (("x0", x0), ("x1", x1), ("t", t), ("cond", cond), ("spk", spk)):
            if not np.all(np.isfinite(arr)):
                raise NonFiniteValueError(f"batch field {name} contains NaN or infinity")
        if np.any(t < 0.0) or np.any(t > 1.0):
            raise InvalidParameterError("batch times must lie in [0, 1]")
        self.x0, self.x1, self.t, self.cond, self.spk = x0, x1, t, cond, spk


def _batch_forward(model: VectorFieldModel, batch: FlowBatch):
    """Layer inputs and the residual ``field - target`` for one batch."""
    for name, arr in (("state", batch.x0), ("cond", batch.cond), ("spk", batch.spk)):
        want = getattr(model, f"{name}_dim")
        if arr.shape[1] != want:
            raise DimensionMismatchError(f"batch {name} dim {arr.shape[1]} != model's {want}")
    xt, u = cfm_sample_path(batch.x0, batch.x1, batch.t)
    feats = np.concatenate([xt, batch.cond, batch.spk, batch.t[:, None]], axis=1)
    hs, out = _forward(model, feats)
    return hs, out - u


def vf_loss(model: VectorFieldModel, batch: FlowBatch) -> float:
    """Mean absolute error between the field and the path velocity target."""
    _, res = _batch_forward(model, batch)
    return float(np.mean(np.abs(res)))


def vf_train_step(model: VectorFieldModel, batch: FlowBatch, learning_rate: float) -> float:
    """One full-batch gradient step on the L1 flow-matching objective.

    Plain gradient descent, parameters updated in place; returns the loss
    evaluated *before* the update.  The L1 subgradient uses sign(0) = 0.
    Non-finite loss or gradients abort with :class:`TrainingDivergenceError`.
    """
    lr = float(learning_rate)
    if not math.isfinite(lr) or lr < 0.0:
        raise InvalidParameterError(f"learning_rate must be finite and >= 0, got {lr}")
    hs, res = _batch_forward(model, batch)
    loss = float(np.mean(np.abs(res)))
    if not math.isfinite(loss):
        raise TrainingDivergenceError(f"loss is not finite: {loss}")

    delta = np.sign(res) / res.size
    grads = []  # (dW, db) per layer, filled from the output layer down
    for l in range(len(hs) - 1, -1, -1):
        grads.insert(0, (delta.T @ hs[l], delta.sum(axis=0)))
        if l:
            delta = (delta @ model.weights[l]) * (1.0 - hs[l] ** 2)
    if not all(np.all(np.isfinite(g)) for pair in grads for g in pair):
        raise TrainingDivergenceError("gradient is not finite")
    for W, b, (gW, gb) in zip(model.weights, model.biases, grads):
        W -= lr * gW
        b -= lr * gb
    return loss


# ---------------------------------------------------------------------------
# integration


def _f32(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float32)


def ode_integrate_batch(
    model: VectorFieldModel,
    x_init: np.ndarray,
    cond: np.ndarray,
    spk: np.ndarray,
    n_steps: int,
) -> np.ndarray:
    """Explicit Euler from t=0 to t=1, rows integrated independently.

    Steps evaluate the field at the left endpoint t_i = i / n_steps.  The field
    runs in float32 on layer 0's carried pre-activation ``a`` and the state is
    formed in float64 once, after the last step (see the module docstring);
    any ``hidden`` works, ``()`` included.  A non-finite input raises
    :class:`NonFiniteValueError` naming it.  A field input ``a`` that is
    non-finite in any row (at step 0 also when the state overflows float32)
    aborts with :class:`IntegrationDivergenceError` naming the first such step;
    a non-finite result names ``n_steps``.  The inputs are only read; the result
    is a new C-ordered float64 array.  BLAS's own threading and the caller's
    ``np.errstate`` are left as they are.
    """
    n_steps = whole(n_steps, 1, "n_steps")
    x_init = np.asarray(x_init, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    spk = np.asarray(spk, dtype=np.float64)
    if x_init.ndim != 2 or x_init.shape[1] != model.state_dim:
        raise DimensionMismatchError(f"x_init must be (rows, {model.state_dim}), got {x_init.shape}")
    B = x_init.shape[0]
    if spk.ndim == 1:
        spk = np.broadcast_to(spk, (B, spk.shape[0]))
    for name, arr in (("cond", cond), ("spk", spk)):
        want = (B, getattr(model, f"{name}_dim"))
        if arr.shape != want:
            raise DimensionMismatchError(f"{name} must be {want}, got {arr.shape}")
    for name, arr in (("x_init", x_init), ("cond", cond), ("spk", spk)):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValueError(f"{name} contains NaN or infinity")
    diverged = f"the field's float32 input became non-finite at step {{}} of {n_steps}"
    s, dt = model.state_dim, 1.0 / n_steps
    Ws, bs = [W.T for W in model.weights], list(model.biases)
    Ws[-1], bs[-1] = dt * Ws[-1], dt * bs[-1]
    deep = len(Ws) > 1
    Wo, bo = (Ws[-1], bs[-1]) if deep else (np.eye(s), np.zeros(s))
    w_x = Ws[0][:s]
    M, c = _f32(Wo @ w_x), _f32(bo @ w_x + dt * Ws[0][-1])
    # a non-finite M or c makes every row's a non-finite from step 1 on
    steppable = np.isfinite(M).all() and np.isfinite(c).all()
    x32 = _f32(x_init)
    if not np.isfinite(x32).all():
        raise IntegrationDivergenceError(diverged.format(0))
    a = np.matmul(x32, _f32(w_x))
    del x32
    # the terms of layer 0 that no step changes
    a += _f32(np.concatenate([cond, spk], axis=1) @ Ws[0][s:-1] + bs[0])
    middle = [(_f32(W), _f32(b)) for W, b in zip(Ws[1:-1], bs[1:-1])]
    G = np.zeros((B, Wo.shape[0]), dtype=np.float32)
    h0, prod = np.empty_like(a), np.empty_like(a)
    outs = [np.empty((B, W.shape[1]), dtype=np.float32) for W, _ in middle]
    # same-shape adds: numpy runs a broadcast add about twice as slowly
    tiled = [np.broadcast_to(b, out.shape).copy() for (_, b), out in zip(middle, outs)]
    c = np.broadcast_to(c, a.shape).copy()
    finite = np.empty(a.shape, dtype=bool)
    for i in range(n_steps):
        if not np.isfinite(a, out=finite).all():
            raise IntegrationDivergenceError(diverged.format(i))
        h = np.tanh(a, out=h0) if deep else a
        for (W, _), b, out in zip(middle, tiled, outs):
            h = np.matmul(h, W, out=out)
            h += b
            np.tanh(h, out=h)
        G += h
        if i + 1 == n_steps:
            break
        if not steppable:
            raise IntegrationDivergenceError(diverged.format(i + 1))
        a += np.matmul(h, M, out=prod)
        a += c
    del a, c, h, h0, prod, outs, tiled, finite  # the loop's buffers go before the float64 product
    # G is finite unless hidden=(), where G·I would make NaN of an inf
    if np.isfinite(G).all():
        X = G.astype(np.float64) @ Wo
        X += x_init
        X += n_steps * bo
        if np.isfinite(X).all():
            return X
    raise IntegrationDivergenceError(f"the result became non-finite at step {n_steps} of {n_steps}")


def generate_mel(
    model: VectorFieldModel,
    tokens: FrameSequence,
    speaker: SpeakerEmbedding,
    *,
    n_steps: int = ODE_STEPS,
    seed: int = 0,
) -> FrameSequence:
    """Upsample tokens, then transport seeded noise along the learned field.

    Each upsampled token frame conditions one mel frame; all frames integrate
    in parallel from an N(0, I) start drawn with ``seed`` (an integer >= 0).
    """
    if tokens.dim != model.cond_dim:
        raise DimensionMismatchError(
            f"token dim {tokens.dim} does not match model cond dim {model.cond_dim}"
        )
    if speaker.dim != model.spk_dim:
        raise DimensionMismatchError(
            f"speaker dim {speaker.dim} does not match model spk dim {model.spk_dim}"
        )
    up = upsample_tokens(tokens)
    x0 = seeded_rng(seed).standard_normal((up.num_frames, model.state_dim))
    mel = ode_integrate_batch(model, x0, up.frames, speaker.values, n_steps)
    return FrameSequence(frames=mel, frame_rate_hz=up.frame_rate_hz)


# ---------------------------------------------------------------------------
# training loop and synthetic tasks


@dataclass
class FlowTrainConfig:
    """Desk-sized training hyperparameters.

    ``learning_rate`` and the integer ``batch_size`` must be positive; the integers
    ``total_steps`` (0: a checkpoint of the fresh initialization) and ``seed`` may be 0.
    """

    learning_rate: float = 0.03
    batch_size: int = 64
    total_steps: int = 2000
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.learning_rate) or self.learning_rate <= 0.0:
            raise InvalidParameterError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        self.batch_size = whole(self.batch_size, 1, "batch_size")
        self.total_steps = whole(self.total_steps, 0, "total_steps")
        self.seed = whole(self.seed, 0, "seed")


def train_vector_field(
    model: VectorFieldModel,
    sampler,
    config: FlowTrainConfig,
) -> list:
    """Run the training loop; returns the per-step loss history.

    ``sampler(rng, batch_size)`` must yield a :class:`FlowBatch`.  The step
    size shrinks linearly, lr_t = lr (1 - t/T), which drains the sign-gradient
    jitter floor at the end of the run.
    """
    rng = seeded_rng(config.seed)
    losses = []
    total = config.total_steps
    for step in range(total):
        lr_t = config.learning_rate * (1.0 - step / total)
        batch = sampler(rng, config.batch_size)
        losses.append(vf_train_step(model, batch, lr_t))
    return losses


def linear_map_task(state_dim: int, cond_dim: int, spk_dim: int, *, seed: int = 0):
    """Noiseless synthetic task: transport zero to A·cond.

    The target field is exactly reachable (u = A·cond, no irreducible error),
    which is what makes large loss-reduction factors observable at all under
    an L1 objective.
    """
    A = seeded_rng(seed).standard_normal((state_dim, cond_dim)) * (
        1.0 / math.sqrt(cond_dim)
    )

    def sampler(rng: np.random.Generator, batch_size: int) -> FlowBatch:
        cond = rng.standard_normal((batch_size, cond_dim))
        t = rng.uniform(0.0, 1.0, size=batch_size)
        spk = rng.standard_normal((batch_size, spk_dim))
        x1 = cond @ A.T
        return FlowBatch(
            x0=np.zeros((batch_size, state_dim)),
            x1=x1,
            t=t,
            cond=cond,
            spk=spk,
        )

    return sampler


def transport_toy_task(*, offset=(3.0, 3.0), spread: float = 0.5):
    """2-D sanity task: move N(0, I) mass to a small blob at ``offset``; speakers have dim 8."""
    offset = np.asarray(offset, dtype=np.float64)
    dim = offset.shape[0]

    def sampler(rng: np.random.Generator, batch_size: int) -> FlowBatch:
        x0 = rng.standard_normal((batch_size, dim))
        x1 = offset + spread * rng.standard_normal((batch_size, dim))
        t = rng.uniform(0.0, 1.0, size=batch_size)
        spk = rng.standard_normal((batch_size, 8))
        return FlowBatch(x0=x0, x1=x1, t=t, cond=np.zeros((batch_size, dim)), spk=spk)

    return sampler


# ---------------------------------------------------------------------------
# artifacts: checkpoints and frame sequences

CHECKPOINT_FORMAT = "emorag-checkpoint"
FRAMES_FORMAT = "emorag-frames"
ARTIFACT_VERSION = 1


def _pack_artifact(header: dict, *payload) -> list:
    """The artifact's pieces for the one writer: u32 length + JSON ``header``, then ``payload``."""
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return [struct.pack("<I", len(raw)) + raw, *payload]


def _unpack_artifact(data: bytes, expected_format: str):
    if len(data) < 4:
        raise MalformedHeaderError("file too short for header length")
    (hlen,) = struct.unpack_from("<I", data, 0)
    if 4 + hlen > len(data):
        raise MalformedHeaderError("declared header length exceeds file size")
    try:
        header = json.loads(data[4 : 4 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeaderError(f"header is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != expected_format:
        raise MalformedHeaderError(
            f"expected a {expected_format!r} artifact, got {header.get('format')!r}"
            if isinstance(header, dict)
            else "header is not an object"
        )
    if header.get("version") != ARTIFACT_VERSION:
        raise MalformedHeaderError(f"unsupported version {header.get('version')!r}")
    return header, data[4 + hlen :]


def _array_table(sizes) -> list:
    """A checkpoint's ``arrays`` entries for layer sizes ``sizes``: W0, b0, W1, b1, ..."""
    table = []
    for l, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        table += [{"name": f"W{l}", "shape": [fan_out, fan_in]}, {"name": f"b{l}", "shape": [fan_out]}]
    return table


def save_checkpoint(model: VectorFieldModel, path) -> None:
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": ARTIFACT_VERSION,
        "state_dim": model.state_dim,
        "cond_dim": model.cond_dim,
        "spk_dim": model.spk_dim,
        "hidden": list(model.hidden),
        "arrays": _array_table(model.layer_sizes),
    }
    arrays = (np.ascontiguousarray(a, dtype="<f8") for W, b in zip(model.weights, model.biases) for a in (W, b))
    atomic_write_bytes(path, _pack_artifact(header, *arrays))


def load_checkpoint(path) -> VectorFieldModel:
    """The model in a checkpoint whose ``arrays`` and payload are exactly the
    ``W0, b0, W1, b1, ...`` table of the sizes its header gives."""
    header, payload = _unpack_artifact(Path(path).read_bytes(), CHECKPOINT_FORMAT)
    dims = [header.get(k) for k in ("state_dim", "cond_dim", "spk_dim")]
    hidden = header.get("hidden")
    if not (isinstance(hidden, list) and all(is_whole(v, 1) for v in [*dims, *hidden])):
        raise MalformedHeaderError(f"checkpoint sizes must be positive integers: dims {dims}, hidden {hidden!r}")
    table = _array_table(mlp_sizes(*dims, hidden))
    if header.get("arrays") != table:
        raise FormatError("checkpoint array table is not the W0, b0, W1, b1, ... table its dims fix")
    counts = [math.prod(entry["shape"]) for entry in table]
    if len(payload) != 8 * sum(counts):
        raise FormatError(f"checkpoint payload has {len(payload)} bytes, its dims fix {8 * sum(counts)}")
    values = np.split(np.frombuffer(payload, dtype="<f8"), np.cumsum(counts)[:-1])
    params = [v.reshape(entry["shape"]) for v, entry in zip(values, table)]
    return VectorFieldModel(*dims, hidden, params[0::2], params[1::2])


def save_frames(seq: FrameSequence, path) -> None:
    header = {
        "format": FRAMES_FORMAT,
        "version": ARTIFACT_VERSION,
        "num_frames": seq.num_frames,
        "dim": seq.dim,
        "frame_rate_hz": seq.frame_rate_hz,
    }
    atomic_write_bytes(path, _pack_artifact(header, np.ascontiguousarray(seq.frames, dtype="<f8")))


def load_frames(path) -> FrameSequence:
    header, payload = _unpack_artifact(Path(path).read_bytes(), FRAMES_FORMAT)
    T, D, rate = (header.get(k) for k in ("num_frames", "dim", "frame_rate_hz"))
    if not (is_whole(T, 0) and is_whole(D, 1) and type(rate) in (int, float)):
        raise MalformedHeaderError(f"frames header declares {T!r} frames of dim {D!r} at {rate!r} Hz")
    if len(payload) != 8 * T * D:
        raise FormatError(
            f"frames payload has {len(payload)} bytes, header declares {8 * T * D}"
        )
    frames = np.frombuffer(payload, dtype="<f8").reshape(T, D)
    return FrameSequence(frames=frames, frame_rate_hz=rate)
