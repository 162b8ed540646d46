"""Flow stack: upsampling, path, field, backprop, integration, artifacts."""

import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorag import (
    DimensionMismatchError,
    FlowBatch,
    FlowTrainConfig,
    FormatError,
    FrameSequence,
    IntegrationDivergenceError,
    InvalidParameterError,
    MalformedHeaderError,
    NonFiniteValueError,
    SpeakerEmbedding,
    TrainingDivergenceError,
    VectorFieldModel,
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
from emorag import flow
from emorag.flow import _batch_forward, _forward

from helpers import (
    openblas_thread_count,
    reference_f64_ode_integrate_batch,
    reference_forward_cached,
    reference_ode_integrate_batch,
)


def constant_field_model(state_dim, value, cond_dim=1, spk_dim=1):
    """Single-layer model rigged to output ``value`` regardless of input."""
    in_dim = state_dim + cond_dim + spk_dim + 1
    return VectorFieldModel(
        state_dim=state_dim,
        cond_dim=cond_dim,
        spk_dim=spk_dim,
        hidden=(),
        weights=[np.zeros((state_dim, in_dim))],
        biases=[np.full(state_dim, float(value))],
    )


def linear_field(weight):
    """v = weight * x on a 1-D state; the sampler's float32 field reads dt * weight."""
    W = np.zeros((1, 4))
    W[0, 0] = weight
    return VectorFieldModel(state_dim=1, cond_dim=1, spk_dim=1, hidden=(), weights=[W], biases=[np.zeros(1)])


def zeroed(model):
    for W in model.weights:
        W[:] = 0.0
    for b in model.biases:
        b[:] = 0.0
    return model


# ---------------------------------------------------------------------------
# frame container


def test_frame_sequence_validation():
    with pytest.raises(DimensionMismatchError):
        FrameSequence(np.zeros(5), 50.0)
    with pytest.raises(NonFiniteValueError):
        FrameSequence(np.array([[np.nan]]), 50.0)
    with pytest.raises(InvalidParameterError):
        FrameSequence(np.zeros((2, 2)), 0.0)
    seq = FrameSequence(np.zeros((0, 3)), 50.0)
    assert seq.num_frames == 0 and seq.dim == 3


# ---------------------------------------------------------------------------
# upsampling


def test_upsample_ten_to_sixteen_constant():
    frames = np.tile([1.5, -2.0, 0.25], (10, 1))
    out = upsample_tokens(FrameSequence(frames, 50.0))
    assert out.num_frames == 16
    assert out.frame_rate_hz == 80.0
    assert np.array_equal(out.frames, np.tile([1.5, -2.0, 0.25], (16, 1)))


def test_upsample_ramp_values():
    frames = np.arange(5, dtype=np.float64)[:, None]  # 0..4, affine in index
    out = upsample_tokens(FrameSequence(frames, 50.0))
    assert out.num_frames == 8
    expected = np.arange(8) * 4.0 / 7.0
    np.testing.assert_allclose(out.frames[:, 0], expected, atol=1e-12)


def test_upsample_preserves_endpoints_exactly():
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((7, 4))
    out = upsample_tokens(FrameSequence(frames, 50.0))
    assert np.array_equal(out.frames[0], frames[0])
    assert np.array_equal(out.frames[-1], frames[-1])


def test_upsample_two_frames_has_exact_midpoint():
    frames = np.array([[0.0, 10.0], [1.0, 20.0]])
    out = upsample_tokens(FrameSequence(frames, 50.0))  # 2 * 1.6 -> 3 frames
    assert out.num_frames == 3
    np.testing.assert_allclose(out.frames[1], [0.5, 15.0], atol=1e-15)


@pytest.mark.parametrize(
    "length,ratio,expected",
    [(10, 1.6, 16), (2, 1.6, 3), (7, 1.6, 11), (3, 1.6, 5), (100, 1.6, 160)],
)
def test_upsample_length_rounds_half_away(length, ratio, expected):
    assert ratio == flow.UPSAMPLE_RATIO  # the one ratio, fixed by the 50 Hz and 80 Hz rates
    seq = FrameSequence(np.zeros((length, 1)), 50.0)
    assert upsample_tokens(seq).num_frames == expected


def test_upsample_validation():
    with pytest.raises(InvalidParameterError):
        upsample_tokens(FrameSequence(np.zeros((1, 2)), 50.0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_upsample_affine_exactness(seed):
    # affine-in-index input must reproduce the closed form; source positions
    # are checked against exact rational arithmetic
    rng = np.random.default_rng(seed)
    T = int(rng.integers(2, 60))
    dim = int(rng.integers(1, 4))
    a = rng.standard_normal(dim)
    b = rng.standard_normal(dim)
    frames = a + np.arange(T)[:, None] * b
    out = upsample_tokens(FrameSequence(frames, 50.0))
    T_out = out.num_frames
    for j in range(T_out):
        src = Fraction(j * (T - 1), T_out - 1)
        expected = a + float(src) * b
        np.testing.assert_allclose(out.frames[j], expected, atol=1e-12)


# ---------------------------------------------------------------------------
# flow-matching path


def _path(x0, x1, t):
    """``(x_t, u)`` as training sees them: ``x_t`` is the state part of layer 0's input, and a
    zero field's residual ``0 - u`` is ``-u`` exactly."""
    x0 = np.asarray(x0, dtype=np.float64)
    B, D = x0.shape
    batch = FlowBatch(x0=x0, x1=x1, t=t, cond=np.zeros((B, 1)), spk=np.zeros((B, 1)))
    hs, res = _batch_forward(zeroed(init_vector_field(D, 1, 1, (2,), seed=0)), batch)
    return hs[0][:, :D], -res


def test_path_endpoints_exact():
    rng = np.random.default_rng(1)
    x0 = rng.standard_normal((4, 3))
    x1 = rng.standard_normal((4, 3))
    xt0, u = _path(x0, x1, np.zeros(4))
    assert np.array_equal(xt0, x0)
    xt1, _ = _path(x0, x1, np.ones(4))
    assert np.array_equal(xt1, x1)
    assert np.array_equal(u, x1 - x0)


def test_path_quarter_point():
    xt, u = _path([[0.0, 4.0]], [[8.0, 0.0]], np.array([0.25]))
    np.testing.assert_allclose(xt, [[2.0, 3.0]], atol=1e-15)
    np.testing.assert_allclose(u, [[8.0, -4.0]], atol=1e-15)


def test_path_per_row_times():
    xt, _ = _path(np.zeros((3, 2)), np.ones((3, 2)), np.array([0.0, 0.5, 1.0]))
    np.testing.assert_allclose(xt, [[0, 0], [0.5, 0.5], [1, 1]], atol=1e-15)


def test_path_validation():
    with pytest.raises(DimensionMismatchError):  # endpoints of different shapes
        _path(np.zeros((1, 2)), np.zeros((1, 3)), np.array([0.5]))
    with pytest.raises(InvalidParameterError):
        _path(np.zeros((1, 2)), np.ones((1, 2)), np.array([1.5]))
    with pytest.raises(InvalidParameterError):
        _path(np.zeros((1, 2)), np.ones((1, 2)), np.array([-0.01]))


# ---------------------------------------------------------------------------
# model and forward pass


def test_init_shapes_and_bounds():
    model = init_vector_field(2, 2, 8, (64, 64), seed=0)
    assert model.layer_sizes == (13, 64, 64, 2)
    assert [W.shape for W in model.weights] == [(64, 13), (64, 64), (2, 64)]
    assert [b.shape for b in model.biases] == [(64,), (64,), (2,)]
    for W, (fan_out, fan_in) in zip(model.weights, [(64, 13), (64, 64), (2, 64)]):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(W) <= lim)
    for b in model.biases:
        assert np.all(b == 0.0)


def test_init_deterministic():
    a = init_vector_field(3, 2, 2, (8,), seed=42)
    b = init_vector_field(3, 2, 2, (8,), seed=42)
    c = init_vector_field(3, 2, 2, (8,), seed=43)
    for Wa, Wb in zip(a.weights, b.weights):
        assert Wa.tobytes() == Wb.tobytes()
    assert any(Wa.tobytes() != Wc.tobytes() for Wa, Wc in zip(a.weights, c.weights))


def test_model_validation():
    with pytest.raises(InvalidParameterError):
        init_vector_field(0, 1, 1)
    with pytest.raises(DimensionMismatchError):
        VectorFieldModel(
            state_dim=2, cond_dim=1, spk_dim=1, hidden=(), weights=[np.zeros((2, 9))], biases=[np.zeros(2)]
        )
    with pytest.raises(NonFiniteValueError):
        VectorFieldModel(
            state_dim=1,
            cond_dim=1,
            spk_dim=1,
            hidden=(),
            weights=[np.full((1, 4), np.nan)],
            biases=[np.zeros(1)],
        )


def test_forward_zero_model_outputs_zero():
    model = zeroed(init_vector_field(3, 2, 2, (8,), seed=0))
    feats = np.concatenate([np.ones((1, 3)), np.ones((1, 2)), np.ones((1, 2)), [[0.5]]], axis=1)
    _, out = _forward(model, feats)
    assert np.array_equal(out, np.zeros((1, 3)))


def test_forward_single_layer_is_linear():
    # one linear layer: output = W @ [x, cond, spk, t] + b
    model = VectorFieldModel(
        state_dim=1,
        cond_dim=1,
        spk_dim=1,
        hidden=(),
        weights=[np.array([[1.0, 2.0, 3.0, 4.0]])],
        biases=[np.array([0.5])],
    )
    x, t, cond, spk = np.array([[10.0]]), np.array([0.25]), np.array([[20.0]]), np.array([[30.0]])
    feats = np.concatenate([x, cond, spk, t[:, None]], axis=1)
    _, out = _forward(model, feats)
    assert out.shape == (1, 1)
    assert out[0, 0] == pytest.approx(10 + 40 + 90 + 1.0 + 0.5, abs=1e-12)


def test_forward_validates_shapes():
    model = init_vector_field(2, 2, 2, (4,), seed=0)
    with pytest.raises(DimensionMismatchError):
        ode_integrate_batch(model, np.ones((1, 3)), np.ones((1, 2)), np.ones((1, 2)), 4)
    with pytest.raises(DimensionMismatchError):
        ode_integrate_batch(model, np.ones((1, 2)), np.ones((1, 1)), np.ones((1, 2)), 4)
    with pytest.raises(DimensionMismatchError):
        ode_integrate_batch(model, np.ones((1, 2)), np.ones((1, 2)), np.ones((1, 5)), 4)


# ---------------------------------------------------------------------------
# loss and training step


def _batch(rng, B=6, D=3, C=2, S=2):
    return FlowBatch(
        x0=rng.standard_normal((B, D)),
        x1=rng.standard_normal((B, D)),
        t=rng.uniform(0, 1, B),
        cond=rng.standard_normal((B, C)),
        spk=rng.standard_normal((B, S)),
    )


def test_batch_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionMismatchError):
        FlowBatch(x0=np.zeros((0, 2)), x1=np.zeros((0, 2)), t=np.zeros(0), cond=np.zeros((0, 1)), spk=np.zeros((0, 1)))
    with pytest.raises(NonFiniteValueError):
        FlowBatch(
            x0=np.full((2, 2), np.inf),
            x1=np.zeros((2, 2)),
            t=np.zeros(2),
            cond=np.zeros((2, 1)),
            spk=np.zeros((2, 1)),
        )
    with pytest.raises(InvalidParameterError):
        FlowBatch(x0=np.zeros((2, 2)), x1=np.zeros((2, 2)), t=np.array([0.5, 1.5]), cond=np.zeros((2, 1)), spk=np.zeros((2, 1)))
    # a single shared speaker row broadcasts over the batch
    x0 = np.zeros((3, 2))
    b = FlowBatch(x0=x0, x1=np.zeros((3, 2)), t=np.zeros(3), cond=np.zeros((3, 1)), spk=np.ones(4))
    assert b.spk.shape == (3, 4)
    # the batch holds private read-only copies: its caller's arrays can change under it no more
    x0[0, 0] = 1.0
    assert b.x0[0, 0] == 0.0 and not any(a.flags.writeable for a in (b.x0, b.x1, b.t, b.cond, b.spk))


def test_loss_zero_when_target_reached():
    model = zeroed(init_vector_field(3, 2, 2, (4,), seed=0))
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 3))
    batch = FlowBatch(
        x0=x, x1=x, t=rng.uniform(0, 1, 5), cond=rng.standard_normal((5, 2)), spk=np.zeros((5, 2))
    )
    assert vf_loss(model, batch) == 0.0


def test_loss_exact_value_on_unit_targets():
    model = zeroed(init_vector_field(4, 1, 1, (4,), seed=0))
    batch = FlowBatch(
        x0=np.zeros((2, 4)),
        x1=np.ones((2, 4)),
        t=np.zeros(2),
        cond=np.zeros((2, 1)),
        spk=np.zeros((2, 1)),
    )
    assert vf_loss(model, batch) == 1.0


def test_loss_invariant_to_batch_order():
    model = init_vector_field(3, 2, 2, (8,), seed=1)
    rng = np.random.default_rng(3)
    batch = _batch(rng, B=10)
    perm = rng.permutation(10)
    shuffled = FlowBatch(
        x0=batch.x0[perm], x1=batch.x1[perm], t=batch.t[perm], cond=batch.cond[perm], spk=batch.spk[perm]
    )
    assert vf_loss(model, shuffled) == pytest.approx(vf_loss(model, batch), abs=1e-12)


def test_train_step_zero_lr_keeps_params():
    model = init_vector_field(3, 2, 2, (8,), seed=5)
    before = [W.copy() for W in model.weights] + [b.copy() for b in model.biases]
    batch = _batch(np.random.default_rng(7))
    loss_reported = vf_train_step(model, batch, 0.0)
    after = model.weights + model.biases
    for x, y in zip(before, after):
        assert np.array_equal(x, y)
    assert loss_reported == vf_loss(model, batch)


def test_train_step_returns_pre_update_loss():
    model = init_vector_field(2, 2, 2, (8,), seed=9)
    batch = _batch(np.random.default_rng(11), D=2)
    expected = vf_loss(model, batch)
    assert vf_train_step(model, batch, 0.05) == expected
    # and the parameters did move
    fresh = init_vector_field(2, 2, 2, (8,), seed=9)
    assert any(
        W.tobytes() != F.tobytes() for W, F in zip(model.weights, fresh.weights)
    )


def test_train_step_rejects_bad_lr():
    model = init_vector_field(2, 2, 2, (4,), seed=0)
    batch = _batch(np.random.default_rng(0), D=2)
    with pytest.raises(InvalidParameterError):
        vf_train_step(model, batch, -0.1)
    with pytest.raises(InvalidParameterError):
        vf_train_step(model, batch, float("nan"))


def test_train_step_detects_divergence():
    model = init_vector_field(2, 2, 2, (4,), seed=0)
    model.biases[-1][:] = np.inf
    batch = _batch(np.random.default_rng(1), D=2)
    with pytest.raises(TrainingDivergenceError):
        vf_train_step(model, batch, 0.01)


def test_gradients_match_finite_differences():
    # small-scale version of the full gradient check: all parameters of a
    # 2-8-2 field at three random points, central differences h=1e-6
    rng = np.random.default_rng(42)
    h = 1e-6
    for point in range(3):
        model = init_vector_field(2, 2, 2, (8,), seed=200 + point)
        batch = _batch(rng, B=1, D=2, C=2, S=2)
        hs, res = _batch_forward(model, batch)
        delta = np.sign(res) / res.size
        grads = {}
        last = len(model.weights) - 1
        grads[f"W{last}"] = delta.T @ hs[last]
        grads[f"b{last}"] = delta.sum(0)
        for l in range(last - 1, -1, -1):
            delta = (delta @ model.weights[l + 1]) * (1.0 - hs[l + 1] ** 2)
            grads[f"W{l}"] = delta.T @ hs[l]
            grads[f"b{l}"] = delta.sum(0)
        for name, arrs in (("W", model.weights), ("b", model.biases)):
            for l, arr in enumerate(arrs):
                flat = arr.ravel()
                g = grads[f"{name}{l}"].ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    lp = vf_loss(model, batch)
                    flat[i] = orig - h
                    lm = vf_loss(model, batch)
                    flat[i] = orig
                    num = (lp - lm) / (2 * h)
                    rel = abs(num - g[i]) / max(abs(num) + abs(g[i]), 1e-8)
                    assert rel < 1e-4, (name, l, i, num, g[i])


def test_training_reduces_loss_tenfold_on_linear_task():
    config = FlowTrainConfig(learning_rate=0.15, total_steps=500, seed=0)
    model = init_vector_field(4, 4, 8, (32, 32), seed=0)
    losses = train_vector_field(model, linear_map_task(4, 4, 8, seed=0), config)
    assert len(losses) == 500
    assert losses[-1] <= 0.1 * losses[0]


def test_training_is_deterministic():
    def run():
        config = FlowTrainConfig(learning_rate=0.05, total_steps=40, seed=3)
        model = init_vector_field(3, 3, 4, (16,), seed=3)
        losses = train_vector_field(model, linear_map_task(3, 3, 4, seed=3), config)
        return losses, model

    la, ma = run()
    lb, mb = run()
    assert la == lb
    for Wa, Wb in zip(ma.weights, mb.weights):
        assert Wa.tobytes() == Wb.tobytes()


def test_transport_toy_short_run_descends():
    config = FlowTrainConfig(learning_rate=0.05, total_steps=200, seed=0)
    model = init_vector_field(2, 2, 8, (32, 32), seed=0)
    losses = train_vector_field(model, transport_toy_task(), config)
    assert np.mean(losses[-20:]) < np.mean(losses[:20])


def test_train_config_validation():
    with pytest.raises(InvalidParameterError):
        FlowTrainConfig(learning_rate=0.0)
    with pytest.raises(InvalidParameterError):
        FlowTrainConfig(batch_size=0)
    with pytest.raises(InvalidParameterError):
        FlowTrainConfig(total_steps=-1)
    assert FlowTrainConfig(total_steps=0).total_steps == 0


# ---------------------------------------------------------------------------
# integration


def test_ode_zero_field_is_identity():
    model = zeroed(init_vector_field(3, 1, 1, (4,), seed=0))
    x = np.array([1.5, -2.0, 0.25])
    for n in (1, 7, 32):
        out = ode_integrate_batch(model, x[None, :], np.zeros((1, 1)), np.zeros(1), n)
        assert np.array_equal(out, x[None, :])


def test_ode_constant_field_translates():
    model = constant_field_model(2, 1.0)
    x = np.array([0.5, -1.0])
    # 32 steps of 1/32 each: partial sums are exactly representable
    out = ode_integrate_batch(model, x[None, :], np.zeros((1, 1)), np.zeros(1), 32)
    assert np.array_equal(out, x[None, :] + 1.0)
    # at 3 steps the float32 field's increment dt = 1/3 is rounded, by at most half
    # an ulp of 1/3 in float32 (2^-26), so three steps land within 3 * 2^-26
    out3 = ode_integrate_batch(model, x[None, :], np.zeros((1, 1)), np.zeros(1), 3)
    np.testing.assert_allclose(out3, x[None, :] + 1.0, rtol=0, atol=3 * 2.0**-26)


def test_ode_linear_field_compounds():
    # field v = x integrates to (1 + 1/n)^n growth under explicit Euler.  The
    # sampler carries the increment a = dt x in float32, a <- a + a M with
    # M = f32(dt), sums the increments into G in float32 and returns 1 + G in
    # float64.  Each of the 3n roundings (a M, the sum into a, the sum into G) is
    # within 2^-24 of its value and their signs mix; on 1 x 1 products every
    # rounding is fixed by IEEE float32, and the total reads 3.2e-9 relative
    out = ode_integrate_batch(linear_field(1.0), np.array([[1.0]]), np.zeros((1, 1)), np.zeros(1), 100)
    assert out[0, 0] == pytest.approx(1.01**100, rel=2.0**-23)


def test_ode_validation():
    model = init_vector_field(2, 1, 1, (4,), seed=0)
    with pytest.raises(InvalidParameterError):
        ode_integrate_batch(model, np.zeros((1, 2)), np.zeros((1, 1)), np.zeros(1), 0)
    with pytest.raises(DimensionMismatchError):
        ode_integrate_batch(model, np.zeros((1, 3)), np.zeros((1, 1)), np.zeros(1), 4)
    with pytest.raises(DimensionMismatchError):
        ode_integrate_batch(model, np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((2, 1)), 4)
    with pytest.raises(NonFiniteValueError, match="cond"):
        ode_integrate_batch(model, np.zeros((1, 2)), np.array([[np.nan]]), np.zeros(1), 4)
    with pytest.raises(NonFiniteValueError, match="spk"):
        ode_integrate_batch(model, np.zeros((2, 2)), np.zeros((2, 1)), np.array([[0.0], [np.inf]]), 4)


def test_ode_divergence_detected():
    model = linear_field(1e12)  # explosive growth overflows well before 32 steps
    with np.errstate(over="ignore"), pytest.raises(IntegrationDivergenceError):
        ode_integrate_batch(model, np.array([[1.0]]), np.zeros((1, 1)), np.zeros(1), 32)


def test_ode_divergence_names_the_step():
    # v = 2^15 x with dt = 1/32: the field input is the increment a = 2^10 x, and
    # each step multiplies it by 1 + 2^10, so a_i = 2^10 (1 + 2^10)^i: a_11 is
    # about 2^120.02, a_12 about 2^130 overflows float32 (max about 2^128), and
    # step 12 is the first whose input is non-finite
    x = np.array([[1.0]])
    with np.errstate(over="ignore"), pytest.raises(
        IntegrationDivergenceError, match=r"field's float32 input became non-finite at step 12 of 32$"
    ):
        ode_integrate_batch(linear_field(2.0**15), x, np.zeros((1, 1)), np.zeros(1), 32)


@pytest.mark.parametrize(
    "start, step",
    [
        (1e300, 0),  # finite in float64, beyond float32 from the start
        (3e38, 3),  # a = 1.5e38, 2.25e38, 3.375e38 (float32's max is 3.40e38), then 5.06e38
        (1e38, 5),  # a = 5e37, 7.5e37, 1.125e38, 1.69e38, 2.53e38, then 3.80e38
    ],
)
def test_ode_state_beyond_float32_range_diverges_instead_of_returning(start, step):
    # v = 16 x with dt = 1/32: the float32 field input is the increment a = x / 2,
    # which grows by half each step; the float64 result would stay finite, but the
    # sampler names the first step whose input left float32's range instead of
    # returning inf, NaN or a field evaluated at inf
    x = np.array([[start], [0.5]])
    with np.errstate(over="ignore"), pytest.raises(
        IntegrationDivergenceError, match=rf"at step {step} of 32$"
    ):
        ode_integrate_batch(linear_field(16.0), x, np.zeros((2, 1)), np.zeros(1), 32)


def test_ode_state_beyond_float32_range_diverges_through_a_tanh_layer():
    # tanh would saturate on the inf that 1e39 rounds to, so only the sampler's
    # own range check keeps a finite but wrong result from coming back
    wide = np.full((3, 5), 1e39)
    with np.errstate(over="ignore"), pytest.raises(IntegrationDivergenceError, match=r"at step 0 of 8$"):
        ode_integrate_batch(_biased_field((4,), seed=5), wide, np.zeros((3, 3)), np.zeros(4), 8)


def test_ode_sum_beyond_float32_range_names_the_result():
    # a constant field of 1e40: every field input a = dt 1e40 = 3.1e38 is finite,
    # but G, their float32 sum, overflows at step 1, so the result is non-finite
    # and the error names n_steps; only overflow may warn
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationDivergenceError, match=r"the result became non-finite at step 32 of 32$"):
            ode_integrate_batch(constant_field_model(2, 1e40), np.zeros((3, 2)), np.zeros((3, 1)), np.zeros(1), 32)


def test_ode_composed_layer_beyond_float32_range_diverges_instead_of_returning():
    # layer 0's state weights and the output weights scaled by 1e21 stay inside
    # float32, but M = dt Wo w_x (|entries| up to about 1e41) does not, so every
    # row's a_1 = a_0 + tanh(a_0) M + c is non-finite; tanh would saturate on it
    # and return a finite result.  Only overflow may warn, inside the caller's errstate
    model = _biased_field((4,), seed=5)
    model.weights[0][:, :5] *= 1e21
    model.weights[1] *= 1e21
    x, cond, spk = _sampler_inputs(6, False, seed=5)
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationDivergenceError, match=r"field's float32 input became non-finite at step 1 of 8$"):
            ode_integrate_batch(model, x, cond, spk, 8)


def test_ode_batch_rows_independent():
    # The field runs in float32, and a one-row call takes BLAS's matrix-vector
    # kernel, which may round each layer's products differently from the batch's
    # matrix-matrix kernel: a few float32 epsilons (eps32 = 1.2e-7) of a field of
    # order 1.  The increments dt * v add those up over the steps to a few eps32
    # of a displacement of order 1; 8 eps32 (9.5e-7) bounds them, while mixing
    # rows would move a row by order 1.  On the 80/8/8 field (64, 64) at 32
    # steps one row against 24 differed by up to 8.6e-8 with OpenBLAS 0.3.31.
    cases = [(init_vector_field(2, 2, 2, (8,), seed=1), 4, 8), (_bench_field(), 24, 32)]
    rng = np.random.default_rng(5)
    for model, rows, n_steps in cases:
        X = rng.standard_normal((rows, model.state_dim))
        cond = rng.standard_normal((rows, model.cond_dim))
        spk = rng.standard_normal(model.spk_dim)
        batch_out = ode_integrate_batch(model, X, cond, spk, n_steps)
        for i in range(rows):
            row = ode_integrate_batch(model, X[i : i + 1], cond[i : i + 1], spk, n_steps)
            np.testing.assert_allclose(batch_out[i], row[0], rtol=0, atol=8 * np.finfo(np.float32).eps)


def _biased_field(hidden, seed):
    """A 5/3/4 field with nonzero biases, so every bias add shows in the bytes."""
    model = init_vector_field(5, 3, 4, hidden, seed=seed)
    rng = np.random.default_rng(seed)
    for b in model.biases:
        b[:] = rng.uniform(-0.5, 0.5, size=b.shape)
    return model


def _sampler_inputs(rows, spk_2d, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((rows, 5))
    cond = rng.standard_normal((rows, 3))
    spk = rng.standard_normal((rows, 4) if spk_2d else 4)
    return x, cond, spk


@pytest.mark.parametrize("rows", [0, 1, 2, 3, 5, 64, 199, 770, 1021])
def test_ode_bytes_equal_the_concatenating_reference(rows):
    for hidden in ((16, 8), (16,), ()):
        model = _biased_field(hidden, seed=rows)
        for n_steps in (1, 2, 32):
            for spk_2d in (False, True):
                x, cond, spk = _sampler_inputs(rows, spk_2d, seed=rows + n_steps)
                got = ode_integrate_batch(model, x, cond, spk, n_steps)
                want = reference_ode_integrate_batch(model, x, cond, spk, n_steps)
                assert got.shape == want.shape == (rows, 5)
                assert got.tobytes() == want.tobytes(), (hidden, n_steps, spk_2d)


def test_ode_bytes_equal_the_reference_for_strided_and_readonly_inputs():
    model = _biased_field((16,), seed=7)
    x, cond, spk = _sampler_inputs(37, True, seed=7)
    want = reference_ode_integrate_batch(model, x, cond, spk, 32)
    wide = np.random.default_rng(8).standard_normal((37, 9))
    wide[:, 2:5] = cond
    frozen = [a.copy() for a in (x, cond, spk)]
    for a in frozen:
        a.flags.writeable = False
    cases = {
        "fortran x_init": (np.asfortranarray(x), cond, spk),
        "column-slice cond": (x, wide[:, 2:5], spk),
        "read-only": tuple(frozen),
    }
    for name, (xi, ci, si) in cases.items():
        assert ode_integrate_batch(model, xi, ci, si, 32).tobytes() == want.tobytes(), name


def test_ode_leaves_inputs_alone_and_returns_its_own_array():
    model = init_vector_field(5, 3, 4, (16,), seed=3)
    for spk_2d in (False, True):
        x, cond, spk = _sampler_inputs(64, spk_2d, seed=3)
        before = [a.tobytes() for a in (x, cond, spk)]
        out = ode_integrate_batch(model, x, cond, spk, 8)
        assert [a.tobytes() for a in (x, cond, spk)] == before
        assert out.flags.c_contiguous and out.flags.writeable and out.flags.owndata
        assert not any(np.shares_memory(out, a) for a in (x, cond, spk))


# the benchmark's field: 80-dim state, 8-dim tokens and speaker, hidden (64, 64)
def _bench_field():
    model = init_vector_field(80, 8, 8, (64, 64), seed=9)
    rng = np.random.default_rng(9)
    for b in model.biases:
        b[:] = rng.uniform(-0.5, 0.5, size=b.shape)
    return model


def _bench_inputs(rows, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, 80)), rng.standard_normal((rows, 8)), rng.standard_normal(8)


@pytest.mark.parametrize("rows", [255, 256, 257, 511, 770, 1400, 1401])
def test_bench_field_ode_bytes_equal_the_concatenating_reference(rows):
    model = _bench_field()
    x, cond, spk = _bench_inputs(rows, seed=rows)
    before = [a.tobytes() for a in (x, cond, spk)]
    got = ode_integrate_batch(model, x, cond, spk, 32)
    assert got.tobytes() == reference_ode_integrate_batch(model, x, cond, spk, 32).tobytes()
    assert [a.tobytes() for a in (x, cond, spk)] == before
    assert got.flags.c_contiguous and got.flags.owndata


@pytest.mark.parametrize("n_steps", [1, 2, 32])
@pytest.mark.parametrize("hidden", ["bench", (16, 8), (16,), ()], ids=["bench", "16-8", "16", "linear"])
def test_float32_field_stays_close_to_the_float64_sampler(hidden, n_steps):
    # the float64 Euler loop is the accuracy oracle.  With OpenBLAS 0.3.31 the
    # RMS distance read 1.2e-7 on the bench field at 32 steps and at most 1.5e-7
    # on the tanh fields; with hidden () it read 5.1e-7 at 32 steps, where G sums
    # the increments of a state of order 1 in float32 (32 roundings of up to
    # 2^-24 relative)
    if hidden == "bench":
        model, (x, cond, spk) = _bench_field(), _bench_inputs(770, seed=4)
    else:
        model, (x, cond, spk) = _biased_field(hidden, seed=4), _sampler_inputs(770, False, seed=4)
    got = ode_integrate_batch(model, x, cond, spk, n_steps)
    want = reference_f64_ode_integrate_batch(model, x, cond, spk, n_steps)
    assert np.sqrt(np.mean((got - want) ** 2)) <= 1e-6


@pytest.mark.parametrize("rows", [770, 1440])
def test_ode_peak_memory_stays_within_three_and_a_half_results(rows):
    # the loop holds seven float32 buffers of 64 columns (a, G, tanh(a), h M, layer
    # 1's output and the tiled layer-1 bias and c, 0.4 results each) and a 64-column
    # bool mask (0.1), and frees all but G before the float64 G Wo, the result, which
    # needs 1.8 results more; the sampler neither copies x_init nor holds [cond, spk]
    # across the loop: the peak read 3.16 and 3.08 results, and a float64 copy of
    # x_init held through the loop read 4.36 and 4.28
    model = _bench_field()
    args = _bench_inputs(rows, seed=rows)
    tracemalloc.start()
    try:
        out = ode_integrate_batch(model, *args, 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * out.nbytes


def test_ode_keeps_blas_threads_and_names_the_first_divergent_step():
    # the sampler sets no OpenBLAS thread count, so the caller's count holds
    before = openblas_thread_count()
    ode_integrate_batch(_bench_field(), *_bench_inputs(770, seed=2), 32)
    assert openblas_thread_count() == before
    # as in test_ode_divergence_names_the_step, x = 1 overflows at step 12 and
    # x = 2^-20 (a_i = 2^-10 (1 + 2^10)^i) at step 14: the error names the first
    # step over all rows, wherever the diverging row sits; every other row stays 0
    model = linear_field(2.0**15)
    only_last = np.zeros((600, 1))
    only_last[-1] = 1.0
    both = only_last.copy()
    both[0] = 2.0**-20
    for x in (only_last, both):
        # the caller's errstate holds: no overflow warning
        with np.errstate(over="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationDivergenceError, match=r"at step 12 of 32$"):
                ode_integrate_batch(model, x, np.zeros((600, 1)), np.zeros(1), 32)
        assert openblas_thread_count() == before


def test_ode_concurrent_callers_get_their_sequential_bytes():
    model = _bench_field()
    inputs = [_bench_inputs(rows, seed=rows) for rows in (200, 513, 770, 1024)]
    want = [ode_integrate_batch(model, *args, 32).tobytes() for args in inputs]
    got = [[] for _ in inputs]
    start = threading.Barrier(len(inputs))

    def call(k):
        start.wait(timeout=60)
        for _ in range(3):
            got[k].append(ode_integrate_batch(model, *inputs[k], 32).tobytes())

    threads = [threading.Thread(target=call, args=(k,)) for k in range(len(inputs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[w] * 3 for w in want]


@pytest.mark.parametrize("hidden", [(), (16,), (16, 8)])
def test_forward_activations_equal_the_reference(hidden):
    model = _biased_field(hidden, seed=len(hidden))
    feats = np.random.default_rng(11).standard_normal((199, model.layer_sizes[0]))
    hs, out = _forward(model, feats)
    want_hs, want = reference_forward_cached(model, feats)
    assert out.tobytes() == want.tobytes()
    assert hs[0] is feats and len(hs) == len(want_hs)
    for h, w in zip(hs[1:], want_hs[1:]):
        assert h.tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# mel generation


def test_generate_mel_shape_rate_and_seeded_start():
    model = zeroed(init_vector_field(80, 8, 4, (8,), seed=0))
    tokens = FrameSequence(np.random.default_rng(1).standard_normal((10, 8)), 50.0)
    spk = SpeakerEmbedding(np.zeros(4))
    mel = generate_mel(model, tokens, spk, seed=11)
    assert mel.frames.shape == (16, 80)
    assert mel.frame_rate_hz == 80.0
    # zero field: the output is exactly the seeded gaussian start
    expected = np.random.default_rng(11).standard_normal((16, 80))
    assert np.array_equal(mel.frames, expected)


def test_generate_mel_deterministic():
    model = init_vector_field(6, 4, 3, (8,), seed=2)
    tokens = FrameSequence(np.random.default_rng(3).standard_normal((5, 4)), 50.0)
    spk = SpeakerEmbedding(np.ones(3))
    a = generate_mel(model, tokens, spk, seed=7)
    b = generate_mel(model, tokens, spk, seed=7)
    assert np.array_equal(a.frames, b.frames)
    c = generate_mel(model, tokens, spk, seed=8)
    assert not np.array_equal(a.frames, c.frames)


def test_generate_mel_validates_dims():
    model = init_vector_field(6, 4, 3, (8,), seed=0)
    spk = SpeakerEmbedding(np.ones(3))
    with pytest.raises(DimensionMismatchError):
        generate_mel(model, FrameSequence(np.zeros((5, 9)), 50.0), spk)
    with pytest.raises(DimensionMismatchError):
        generate_mel(model, FrameSequence(np.zeros((5, 4)), 50.0), SpeakerEmbedding(np.ones(2)))


# ---------------------------------------------------------------------------
# artifacts


def test_checkpoint_roundtrip(tmp_path):
    model = init_vector_field(5, 3, 2, (16, 8), seed=4)
    batch = FlowBatch(
        x0=np.random.default_rng(0).standard_normal((8, 5)),
        x1=np.random.default_rng(1).standard_normal((8, 5)),
        t=np.random.default_rng(2).uniform(0, 1, 8),
        cond=np.random.default_rng(3).standard_normal((8, 3)),
        spk=np.random.default_rng(4).standard_normal((8, 2)),
    )
    vf_train_step(model, batch, 0.1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert (loaded.state_dim, loaded.cond_dim, loaded.spk_dim, loaded.hidden) == (5, 3, 2, (16, 8))
    for W, L in zip(model.weights, loaded.weights):
        assert W.tobytes() == L.tobytes()
    for b, L in zip(model.biases, loaded.biases):
        assert b.tobytes() == L.tobytes()


def test_checkpoint_malformed(tmp_path):
    model = init_vector_field(2, 1, 1, (4,), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    with pytest.raises(FormatError):
        (tmp_path / "short.ckpt").write_bytes(raw[:-8])
        load_checkpoint(tmp_path / "short.ckpt")
    with pytest.raises(MalformedHeaderError):
        (tmp_path / "junk.ckpt").write_bytes(b"\x05\x00\x00\x00junk!")
        load_checkpoint(tmp_path / "junk.ckpt")


def _edited_checkpoint(tmp_path, edit, extra_floats):
    """A saved checkpoint after ``edit(header)``, with ``extra_floats`` floats
    appended to its payload (removed from its end if negative)."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_vector_field(2, 1, 1, (4,), seed=0), path)
    header, payload = flow._unpack_artifact(path.read_bytes(), flow.CHECKPOINT_FORMAT)
    edit(header)
    payload = payload + bytes(8 * extra_floats) if extra_floats >= 0 else payload[: 8 * extra_floats]
    path.write_bytes(b"".join(flow._pack_artifact(header, payload)))
    return path


CHECKPOINT_FAULTS = {
    "entry-without-shape": (lambda h: h["arrays"][1].pop("shape"), 0, FormatError),
    "arrays-out-of-order": (lambda h: h["arrays"].insert(0, h["arrays"].pop(1)), 0, FormatError),
    "extra-array": (lambda h: h["arrays"].append({"name": "W9", "shape": [1]}), 1, FormatError),
    "negative-hidden": (lambda h: h.update(hidden=[-4]), 0, MalformedHeaderError),
    "payload-one-float-short": (lambda h: None, -1, FormatError),
    "payload-one-float-long": (lambda h: None, 1, FormatError),
    "float-state-dim": (lambda h: h.update(state_dim=2.9), 0, MalformedHeaderError),
    "string-state-dim": (lambda h: h.update(state_dim="2"), 0, MalformedHeaderError),
    "bool-spk-dim": (lambda h: h.update(spk_dim=True), 0, MalformedHeaderError),
    "float-hidden": (lambda h: h.update(hidden=[4.5]), 0, MalformedHeaderError),
}


@pytest.mark.parametrize("fault", list(CHECKPOINT_FAULTS))
def test_checkpoint_table_faults_are_format_errors(tmp_path, fault):
    edit, extra_floats, expected = CHECKPOINT_FAULTS[fault]
    with pytest.raises(FormatError) as caught:
        load_checkpoint(_edited_checkpoint(tmp_path, edit, extra_floats))
    assert type(caught.value) is expected


def test_checkpoint_table_is_the_one_its_dims_fix(tmp_path):
    path = _edited_checkpoint(tmp_path, lambda h: None, 0)
    header, _ = flow._unpack_artifact(path.read_bytes(), flow.CHECKPOINT_FORMAT)
    assert header["arrays"] == [
        {"name": "W0", "shape": [4, 5]},
        {"name": "b0", "shape": [4]},
        {"name": "W1", "shape": [2, 4]},
        {"name": "b1", "shape": [2]},
    ]


# sizes must be JSON integers and the rate a JSON number; each payload has the
# size that reading the header with int() and float() would expect
FRAMES_HEADER_FAULTS = {
    "-2--4-64": (-2, -4, 64, 50.0),
    "3-0-0": (3, 0, 0, 50.0),
    "-1-2-0": (-1, 2, 0, 50.0),
    "string-frames": ("2", 2, 32, 50.0),
    "bool-frames": (True, 2, 16, 50.0),
    "float-frames": (2.9, 2, 32, 50.0),
    "float-dim": (2, 2.0, 32, 50.0),
    "string-rate": (2, 2, 32, "50"),
    "bool-rate": (2, 2, 32, True),
}


@pytest.mark.parametrize("fault", list(FRAMES_HEADER_FAULTS))
def test_frames_header_with_bad_sizes_is_malformed(tmp_path, fault):
    num_frames, dim, payload_bytes, rate = FRAMES_HEADER_FAULTS[fault]
    header = {
        "format": flow.FRAMES_FORMAT,
        "version": flow.ARTIFACT_VERSION,
        "num_frames": num_frames,
        "dim": dim,
        "frame_rate_hz": rate,
    }
    path = tmp_path / "bad.frames"
    path.write_bytes(b"".join(flow._pack_artifact(header, bytes(payload_bytes))))
    with pytest.raises(MalformedHeaderError, match="frames header declares"):
        load_frames(path)


ARTIFACT_KINDS = {
    "frames": (lambda path: save_frames(FrameSequence(np.ones((2, 3)), 50.0), path), flow.FRAMES_FORMAT, load_frames),
    "checkpoint": (
        lambda path: save_checkpoint(init_vector_field(2, 1, 1, (4,), seed=0), path),
        flow.CHECKPOINT_FORMAT,
        load_checkpoint,
    ),
}


@pytest.mark.parametrize("version", [True, 1.0, "1", 2], ids=["bool", "float", "string", "two"])
@pytest.mark.parametrize("kind", list(ARTIFACT_KINDS))
def test_artifact_version_must_be_the_integer_1(tmp_path, kind, version):
    save, fmt, load = ARTIFACT_KINDS[kind]
    path = tmp_path / f"a.{kind}"
    save(path)
    header, payload = flow._unpack_artifact(path.read_bytes(), fmt)
    header["version"] = version
    path.write_bytes(b"".join(flow._pack_artifact(header, payload)))
    with pytest.raises(MalformedHeaderError, match="unsupported version"):
        load(path)


def test_frames_roundtrip(tmp_path):
    seq = FrameSequence(np.random.default_rng(9).standard_normal((12, 7)), 80.0)
    path = tmp_path / "mel.frames"
    save_frames(seq, path)
    loaded = load_frames(path)
    assert loaded.frames.tobytes() == seq.frames.tobytes()
    assert loaded.frame_rate_hz == 80.0


def test_saving_frames_streams_the_array(tmp_path):
    seq = FrameSequence(np.random.default_rng(10).standard_normal((770, 80)), 80.0)
    path = tmp_path / "mel.frames"
    tracemalloc.start()
    try:
        save_frames(seq, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    header, payload = flow._unpack_artifact(path.read_bytes(), flow.FRAMES_FORMAT)
    assert payload == seq.frames.tobytes() and header["num_frames"] == 770
    # neither a bytes copy of the frames nor a joined file on the way to disk
    assert peak < 0.1 * seq.frames.nbytes, (peak, seq.frames.nbytes)


def test_checkpoint_payload_is_its_arrays_in_table_order(tmp_path):
    model = init_vector_field(3, 2, 2, (4, 5), seed=1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    _, payload = flow._unpack_artifact(path.read_bytes(), flow.CHECKPOINT_FORMAT)
    assert payload == b"".join(a.tobytes() for W, b in zip(model.weights, model.biases) for a in (W, b))


def test_frames_and_checkpoint_are_distinct_formats(tmp_path):
    model = init_vector_field(2, 1, 1, (4,), seed=0)
    ck = tmp_path / "model.ckpt"
    save_checkpoint(model, ck)
    with pytest.raises(MalformedHeaderError):
        load_frames(ck)
    seq = FrameSequence(np.zeros((2, 2)), 50.0)
    fr = tmp_path / "x.frames"
    save_frames(seq, fr)
    with pytest.raises(MalformedHeaderError):
        load_checkpoint(fr)


def test_flow_module_does_not_touch_retrieval():
    # the generative stack must stay independent of the retrieval stack
    import emorag.flow as flow

    src = Path(flow.__file__).read_text()
    assert "from .store" not in src
    assert "from .retrieval" not in src
    assert "from .pipeline" not in src
