import numpy as np
import pytest

from aamsupcon.errors import (
    CheckpointError,
    InvalidDims,
    ShapeMismatch,
    TraceMismatch,
    ZeroVector,
)
from aamsupcon.model import (
    NetworkParams,
    ParamGrads,
    backward,
    flat_copy,
    forward,
    init_params,
    load_checkpoint,
    param_arrays,
    save_checkpoint,
)


def normalize_jacobian(u) -> np.ndarray:
    """d(u/||u||)/du for one vector: (I - z z^T) / ||u||."""
    u = np.asarray(u, dtype=np.float64)
    norm = np.linalg.norm(u)
    z = u / norm
    return (np.eye(u.shape[0]) - np.outer(z, z)) / norm


def _identity_params(d):
    """Single identity encoder layer, identity projection, d classes."""
    eye = np.eye(d)
    weights = np.eye(d)
    return NetworkParams([(eye.copy(), np.zeros(d))], eye.copy(), eye.copy(),
                         weights / np.linalg.norm(weights, axis=1, keepdims=True))


def test_init_is_deterministic():
    a = init_params([10, 16, 16], 8, 6, 4, seed=3)
    b = init_params([10, 16, 16], 8, 6, 4, seed=3)
    for (wa, ba), (wb, bb) in zip(a.encoder_layers, b.encoder_layers):
        assert np.array_equal(wa, wb) and np.array_equal(ba, bb)
    assert np.array_equal(a.proj_w1, b.proj_w1)
    assert np.array_equal(a.class_weights, b.class_weights)
    c = init_params([10, 16, 16], 8, 6, 4, seed=4)
    assert not np.array_equal(a.proj_w1, c.proj_w1)


def test_init_class_weights_unit_norm():
    params = init_params([10, 16], 8, 6, 5, seed=0)
    norms = np.linalg.norm(params.class_weights, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def test_init_he_variance():
    params = init_params([100, 100], 8, 6, 4, seed=1)
    w = params.encoder_layers[0][0]  # 10k entries, fan_in 100
    assert w.size == 10000
    assert abs(np.var(w) - 0.02) < 0.2 * 0.02


@pytest.mark.parametrize("dims,proj_hidden,d_out,classes", [
    ([10], 8, 6, 4),
    ([10, 0], 8, 6, 4),
    ([10, 8], 0, 6, 4),
    ([10, 8], 8, 1, 4),
    ([10, 8], 8, 6, 1),
])
def test_init_rejects_bad_dims(dims, proj_hidden, d_out, classes):
    with pytest.raises(InvalidDims):
        init_params(dims, proj_hidden, d_out, classes, seed=0)


def test_identity_network_normalizes_input():
    params = _identity_params(4)
    x = np.abs(np.random.default_rng(0).normal(size=(5, 4))) + 0.1
    trace = forward(params, x)
    expected = x / np.linalg.norm(x, axis=1, keepdims=True)
    assert np.allclose(trace.embeddings, expected, atol=1e-15)


def test_forward_unit_norm_and_determinism():
    params = init_params([12, 16, 16], 8, 6, 4, seed=5)
    x = np.random.default_rng(1).normal(size=(9, 12))
    a = forward(params, x)
    b = forward(params, x)
    assert np.array_equal(a.embeddings, b.embeddings)
    assert np.max(np.abs(np.linalg.norm(a.embeddings, axis=1) - 1.0)) < 1e-9


def test_forward_homogeneity_of_bias_free_network():
    params = init_params([6, 8], 8, 4, 3, seed=2)
    params.encoder_layers = [(w, np.zeros_like(b)) for w, b in params.encoder_layers]
    x = np.random.default_rng(2).normal(size=(4, 6))
    one = forward(params, x)
    two = forward(params, 2.0 * x)
    assert np.allclose(two.proj_out, 2.0 * one.proj_out, atol=1e-12)
    assert np.allclose(two.embeddings, one.embeddings, atol=1e-12)


def test_forward_zero_projection_raises():
    params = _identity_params(3)
    params.proj_w2 = np.zeros_like(params.proj_w2)
    with pytest.raises(ZeroVector):
        forward(params, np.ones((2, 3)))


def test_forward_shape_mismatch():
    params = init_params([10, 8], 8, 4, 3, seed=0)
    with pytest.raises(ShapeMismatch):
        forward(params, np.ones((2, 7)))


def test_backward_zero_upstream_gives_zero_grads():
    params = init_params([10, 8], 8, 4, 3, seed=7)
    trace = forward(params, np.random.default_rng(3).normal(size=(6, 10)))
    grads = backward(params, trace, np.zeros_like(trace.embeddings))
    assert all(np.all(gw == 0) and np.all(gb == 0) for gw, gb in grads.encoder_layers)
    assert np.all(grads.proj_w1 == 0) and np.all(grads.proj_w2 == 0)
    assert np.all(grads.class_weights == 0)


def test_backward_relu_gate_blocks_dead_units():
    # row 1 of the encoder weight drives its unit negative for all inputs
    params = _identity_params(3)
    w = np.eye(3)
    w[1] = -1.0
    params.encoder_layers = [(w, np.zeros(3))]
    x = np.abs(np.random.default_rng(4).normal(size=(5, 3))) + 0.1
    trace = forward(params, x)
    assert np.all(trace.encoder_pre[0][:, 1] < 0)
    grads = backward(params, trace, np.ones_like(trace.embeddings))
    assert np.all(grads.encoder_layers[0][0][1] == 0.0)
    assert grads.encoder_layers[0][1][1] == 0.0


def test_backward_gate_multiplies_so_nan_reaches_dead_units():
    # the relu gates multiply by the mask: a NaN upstream gradient stays NaN
    # at a dead unit (NaN * 0), where zero-filling would report 0 and hide it
    params = _identity_params(3)
    w = np.eye(3)
    w[1] = -1.0
    params.encoder_layers = [(w, np.zeros(3))]
    trace = forward(params, np.abs(np.random.default_rng(4).normal(size=(5, 3))) + 0.1)
    with np.errstate(invalid="ignore"):
        grads = backward(params, trace, np.full((5, 3), np.nan))
    assert np.isnan(grads.encoder_layers[0][1][1])
    assert np.isnan(grads.encoder_layers[0][0][1]).all()


def test_backward_into_flat_views_equals_fresh_arrays():
    params = init_params([10, 16, 8], 12, 6, 4, seed=9)
    rng = np.random.default_rng(10)
    trace = forward(params, rng.normal(size=(7, 10)))
    upstream = rng.normal(size=trace.embeddings.shape)
    fresh = backward(params, trace, upstream)
    flat, out = flat_copy(params, ParamGrads)
    assert backward(params, trace, upstream, out=out) is out
    for a, b in zip(param_arrays(fresh), param_arrays(out)):
        assert np.array_equal(a, b) and np.shares_memory(b, flat)
    assert np.array_equal(flat, np.concatenate([a.ravel() for a in param_arrays(fresh)]))


def test_flat_copy_views_follow_in_place_updates():
    params = init_params([10, 16], 8, 6, 4, seed=12)
    flat, copy = flat_copy(params)
    assert copy.seed == 12
    assert all(np.array_equal(a, b) for a, b in zip(param_arrays(params), param_arrays(copy)))
    flat *= 2.0
    assert np.array_equal(copy.proj_w2, 2.0 * params.proj_w2)
    assert np.array_equal(copy.encoder_layers[0][1], 2.0 * params.encoder_layers[0][1])


def test_backward_rejects_mismatched_trace():
    params = init_params([10, 8], 8, 4, 3, seed=8)
    trace = forward(params, np.random.default_rng(5).normal(size=(6, 10)))
    with pytest.raises(ShapeMismatch):
        backward(params, trace, np.zeros((6, 5)))
    other = init_params([10, 8, 8], 8, 4, 3, seed=8)
    with pytest.raises(TraceMismatch):
        backward(other, trace, np.zeros_like(trace.embeddings))


def test_normalization_jacobian_matches_finite_differences():
    rng = np.random.default_rng(6)
    for _ in range(5):
        u = rng.normal(size=5)
        jac = normalize_jacobian(u)
        h = 1e-6
        for j in range(5):
            bump = np.zeros(5)
            bump[j] = h
            fd = ((u + bump) / np.linalg.norm(u + bump)
                  - (u - bump) / np.linalg.norm(u - bump)) / (2 * h)
            assert np.max(np.abs(jac[:, j] - fd)) < 1e-6


def test_checkpoint_round_trip_bit_exact(tmp_path):
    params = init_params([10, 16, 16], 8, 6, 4, seed=11)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    loaded = load_checkpoint(path)
    assert loaded.seed == 11
    for (w, b), (w2, b2) in zip(params.encoder_layers, loaded.encoder_layers):
        assert np.array_equal(w, w2) and np.array_equal(b, b2)
    assert np.array_equal(params.proj_w1, loaded.proj_w1)
    assert np.array_equal(params.proj_w2, loaded.proj_w2)
    assert np.array_equal(params.class_weights, loaded.class_weights)

    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_corruption(tmp_path):
    params = init_params([10, 8], 8, 4, 3, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    blob = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.ckpt"
    bad_magic.write_bytes(b"XXXXXXXX" + blob[8:])
    with pytest.raises(CheckpointError):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(blob[:-16])
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)

    trailing = tmp_path / "trailing.ckpt"
    trailing.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(CheckpointError):
        load_checkpoint(trailing)
