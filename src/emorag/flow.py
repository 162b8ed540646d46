"""Token-to-mel alignment and a small conditional flow-matching stack.

The pieces here are deliberately self-contained numpy: a frame container, the
linear-interpolation upsampler that bridges 50 Hz token sequences to 80 Hz mel
sequences at the 1.6:1 ratio those rates fix, the linear interpolation path
used for flow-matching targets, a fully-connected time-conditioned vector
field with hand-written backprop under an L1 objective, explicit Euler
integration of the learned field, and length-prefixed binary artifacts for
checkpoints and frames; a checkpoint's array table is the one its dims fix.

Parameters, training, artifacts and the sampler's state are float64.  The
vector field consumes the concatenation ``[state, conditioning, speaker, t]``
in that order; hidden layers are tanh, the output layer is linear.

The Euler sampler keeps the state in float64 but evaluates the field in
float32, which halves the bytes its products move; its RMS distance to a
float64 field read 3.6e-8 on the benchmark's 80-dim field at 32 steps.  Once
per call it rounds the weights to float32, pre-scales the output layer by dt
and folds layer 0's constant part: ``[cond, spk]·W_cs + b0`` is summed in
float64 and rounded once per row, so a step multiplies only the state
columns, adds that base and ``t·w_t``, and the step's result is added to the
float64 state.  It allocates once per call, not once per step (fresh
per-step arrays cost copies and page faults): one float32 copy of the state
and one buffer per layer, plus a row-tiled bias for each layer after 0.  Its products and adds take
the same operands in the same order as fresh arrays every step would, so the
output is equal bit for bit.  From 256 rows, parts of 128 rows or more run on
one thread per usable CPU with OpenBLAS held to one thread, so that BLAS
threads do not oversubscribe the cores and numpy's one-core elementwise work
uses them all.  Each part folds its own base inside that hold: a threaded
product just before the parts start leaves an OpenBLAS thread spinning
against them.

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
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextvars import copy_context
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
from .util import atomic_write_bytes, frozen_copy, is_whole, openblas_threads, seeded_rng, whole

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


def _forward(model: VectorFieldModel, feats: np.ndarray, bufs: list) -> np.ndarray:
    """Forward pass writing layer l's output into ``bufs[l]`` in place.

    Returns ``bufs[-1]``; ``[feats, *bufs[:-1]]`` are the layer inputs that
    backprop reads.
    """
    h = feats
    last = len(model.weights) - 1
    for l, (W, b, out) in enumerate(zip(model.weights, model.biases, bufs)):
        np.matmul(h, W.T, out=out)
        out += b
        if l < last:
            np.tanh(out, out=out)
        h = out
    return h


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
    bufs = [np.empty((len(feats), n)) for n in model.layer_sizes[1:]]
    out = _forward(model, feats, bufs)
    return [feats, *bufs[:-1]], out - u


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
    last = len(model.weights) - 1
    grads_W = [None] * (last + 1)
    grads_b = [None] * (last + 1)
    grads_W[last] = delta.T @ hs[last]
    grads_b[last] = delta.sum(axis=0)
    for l in range(last - 1, -1, -1):
        delta = (delta @ model.weights[l + 1]) * (1.0 - hs[l + 1] ** 2)
        grads_W[l] = delta.T @ hs[l]
        grads_b[l] = delta.sum(axis=0)

    for gW, gb in zip(grads_W, grads_b):
        if not (np.all(np.isfinite(gW)) and np.all(np.isfinite(gb))):
            raise TrainingDivergenceError("gradient is not finite")
    for l in range(last + 1):
        model.weights[l] -= lr * grads_W[l]
        model.biases[l] -= lr * grads_b[l]
    return loss


# ---------------------------------------------------------------------------
# integration


# Fewest rows in a part.  With OpenBLAS 0.3.31 (numpy 2.4.6's wheel), at the
# benchmark's shapes (the float64 fold 16 -> 64; float32 80 -> 64, 64 -> 64 and
# 64 -> 80), only a one-row product, numpy's matrix-vector path, differed in the
# last bit from the same row of a larger one; parts of 128-750 rows matched one
# loop bit for bit (other BLAS builds may differ).  Parts of 84 rows lost time.
_PART_MIN_ROWS = 128
_split_lock = threading.Lock()
_pool = None
if hasattr(os, "register_at_fork"):  # a forked child has none of the pool's threads
    os.register_at_fork(after_in_child=lambda: globals().update(_pool=None, _split_lock=threading.Lock()))


def _f32(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float32)


def _sampler_field(model: VectorFieldModel, dt: float):
    """The sampler's operands for one call: ``(w_x, w_t, w_cs, b0, layers)``.

    Layer 0's ``[cond, spk]`` columns ``w_cs`` and its bias ``b0`` stay float64:
    :func:`_euler_rows` folds them into one float32 ``base`` per row.  The
    output layer comes pre-scaled by ``dt``; ``layers`` pairs each later
    layer's float32 (fan_in, fan_out) weight with its bias.  Any ``hidden``,
    ``()`` included, where layer 0 is the output layer.
    """
    s = model.state_dim
    Ws, bs = [W.T for W in model.weights], list(model.biases)
    Ws[-1], bs[-1] = dt * Ws[-1], dt * bs[-1]
    layers = [(_f32(W), _f32(b)) for W, b in zip(Ws[1:], bs[1:])]
    return _f32(Ws[0][:s]), _f32(Ws[0][-1]), Ws[0][s:-1], bs[0], layers


def _euler_rows(field, X: np.ndarray, cs: np.ndarray, n_steps: int):
    """Integrate C-contiguous ``X``'s rows in place, ``cs`` their ``[cond, spk]``
    rows; returns the first step after which the state is non-finite or beyond
    float32's range (0: the start), or None."""
    w_x, w_t, w_cs, b0, layers = field
    rows = X.shape[0]
    base = _f32(cs @ w_cs + b0)  # the terms of layer 0 that no step changes
    x32 = np.empty(X.shape, dtype=np.float32)
    h0 = np.empty((rows, w_x.shape[1]), dtype=np.float32)
    outs = [np.empty((rows, W.shape[1]), dtype=np.float32) for W, _ in layers]
    # same-shape bias adds: numpy runs a broadcast add about twice as slowly
    tiled = [np.broadcast_to(b, out.shape).copy() for (_, b), out in zip(layers, outs)]
    finite = np.empty(X.shape, dtype=bool)
    dt = 1.0 / n_steps
    for i in range(n_steps):
        np.copyto(x32, X)
        if not np.isfinite(x32, out=finite).all():
            return i
        h = np.matmul(x32, w_x, out=h0)
        h += base
        h += np.float32(i * dt) * w_t
        for (W, _), b, out in zip(layers, tiled, outs):
            np.tanh(h, out=h)
            h = np.matmul(h, W, out=out)
            h += b
        X += h
    return None if np.isfinite(X, out=finite).all() else n_steps


def _integrate(field, X: np.ndarray, cs: np.ndarray, n_steps: int) -> list:
    """``_euler_rows`` on contiguous parts of ``X`` at once, OpenBLAS held to one
    thread; a single part runs on the calling thread, OpenBLAS left alone."""
    global _pool
    rows = X.shape[0]
    n = rows // _PART_MIN_ROWS
    if n < 2 or openblas_threads() is None or (n := min(n, len(os.sched_getaffinity(0)))) < 2:
        return [_euler_rows(field, X, cs, n_steps)]
    parts = [slice(rows * k // n, rows * (k + 1) // n) for k in range(n)]
    get_threads, set_threads = openblas_threads()
    with _split_lock:
        _pool = _pool or ThreadPoolExecutor(len(os.sched_getaffinity(0)) - 1, "emorag-euler")
        before, futures = get_threads(), []
        try:
            set_threads(1)
            # a copy of the caller's context carries its np.errstate along
            futures = [
                _pool.submit(copy_context().run, _euler_rows, field, X[p], cs[p], n_steps)
                for p in parts[1:]
            ]
            p = parts[0]
            return [_euler_rows(field, X[p], cs[p], n_steps), *(f.result() for f in futures)]
        finally:
            wait(futures)
            set_threads(before)


def ode_integrate_batch(
    model: VectorFieldModel,
    x_init: np.ndarray,
    cond: np.ndarray,
    spk: np.ndarray,
    n_steps: int,
) -> np.ndarray:
    """Explicit Euler from t=0 to t=1, rows integrated independently.

    Steps evaluate the field at the left endpoint t_i = i / n_steps.  The state
    is float64; the field runs in float32 on the state rounded to float32 (see
    the module docstring).  A non-finite input raises :class:`NonFiniteValueError`
    naming it; a state the field cannot read, non-finite or beyond float32's
    range, aborts with :class:`IntegrationDivergenceError` naming the first step
    after which any row was so (step 0: the start).  The inputs are only read;
    the result is a new C-ordered float64 array.  With OpenBLAS, 256 rows or
    more run as parts of at least 128 rows on a thread pool while OpenBLAS is
    held to one thread (``_PART_MIN_ROWS`` for the scope).
    """
    n_steps = whole(n_steps, 1, "n_steps")
    x_init = np.asarray(x_init, dtype=np.float64)
    cond = np.asarray(cond, dtype=np.float64)
    spk = np.asarray(spk, dtype=np.float64)
    if x_init.ndim != 2 or x_init.shape[1] != model.state_dim:
        raise DimensionMismatchError(
            f"x_init must be (rows, {model.state_dim}), got {x_init.shape}"
        )
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
    # X stays contiguous: numpy's elementwise loops are slower on a column slice.
    X = np.array(x_init, order="C")
    cs = np.concatenate([cond, spk], axis=1)
    field = _sampler_field(model, 1.0 / n_steps)
    first = min((s for s in _integrate(field, X, cs, n_steps) if s is not None), default=None)
    if first is not None:
        raise IntegrationDivergenceError(
            f"state became non-finite or left float32's range at step {first} of {n_steps}"
        )
    return X


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


def _pack_artifact(header: dict, payload: bytes) -> bytes:
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return struct.pack("<I", len(raw)) + raw + payload


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
    payload = b"".join(
        np.ascontiguousarray(a, dtype="<f8").tobytes() for W, b in zip(model.weights, model.biases) for a in (W, b)
    )
    atomic_write_bytes(path, _pack_artifact(header, payload))


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
    payload = np.ascontiguousarray(seq.frames, dtype="<f8").tobytes()
    atomic_write_bytes(path, _pack_artifact(header, payload))


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
