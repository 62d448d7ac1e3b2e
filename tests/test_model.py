import json
import re

import numpy as np
import pytest

from aamsupcon.errors import ConfigError, IoError, ZeroVector
from aamsupcon.model import (
    NetworkParams,
    backward,
    embed,
    encoder_embeddings,
    flat_copy,
    forward,
    init_params,
    load_checkpoint,
    param_arrays,
    param_layout,
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


@pytest.mark.parametrize("dims,proj_hidden,d_out,classes,msg", [
    ([10], 8, 6, 4, "encoder dims must chain"),
    ([10, 0], 8, 6, 4, "encoder dims must chain"),
    ([10, 8], 0, 6, 4, r"proj_hidden must be in \[1, inf\), got 0"),
    ([10, 8], 8, 1, 4, r"d_out must be in \[2, inf\), got 1"),
    ([10, 8], 8, 6, 1, r"num_classes must be in \[2, inf\), got 1"),
])
def test_init_rejects_bad_dims(dims, proj_hidden, d_out, classes, msg):
    with pytest.raises(ConfigError, match=msg):
        init_params(dims, proj_hidden, d_out, classes, seed=0)


@pytest.mark.parametrize("class_dim", [None, 16], ids=["projection", "encoder"])
def test_param_layout_is_what_init_and_save_use(tmp_path, class_dim):
    """In either classifier space, init_params draws the layout's arrays in
    its order and shapes, and save_checkpoint's header lists the layout;
    load_checkpoint reads the same arrays back."""
    sizes = ([10, 12, 16], 8, 6, 4)
    layout = param_layout(*sizes, class_dim)
    assert [name for name, _ in layout] == [
        "encoder.0.weight", "encoder.0.bias", "encoder.1.weight", "encoder.1.bias",
        "proj_w1", "proj_w2", "class_weights"]
    assert layout[-1][1] == (4, class_dim or 6)
    params = init_params(*sizes, seed=1, class_dim=class_dim)
    assert [a.shape for a in param_arrays(params)] == [shape for _, shape in layout]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params)
    blob = path.read_bytes()
    header = json.loads(blob[12:12 + int.from_bytes(blob[8:12], "little")])
    assert [(m["name"], tuple(m["shape"])) for m in header["arrays"]] == layout
    assert [header[key] for key in ("encoder_dims", "proj_hidden", "d_out", "num_classes")] \
        == list(sizes)
    loaded = param_arrays(load_checkpoint(path))
    assert all(np.array_equal(a, b) for a, b in zip(param_arrays(params), loaded))


@pytest.mark.parametrize("args,msg", [
    (([10, True], 8, 6, 4), "encoder dims must chain"),
    (([10.0, 8], 8, 6, 4), "encoder dims must chain"),
    ((10, 8, 6, 4), "encoder dims must chain"),
    (([10, 8], 8.0, 6, 4), "proj_hidden must be an integer, got 8.0"),
    (([10, 8], 8, False, 4), "d_out must be an integer, got False"),
    (([10, 8], 8, 6, 4, 1), r"class_dim must be in \[2, inf\), got 1"),
    (([10, 8], 8, 6, 4, 2.5), "class_dim must be an integer, got 2.5"),
])
def test_param_layout_refuses_sizes_that_are_not_integers_in_range(args, msg):
    with pytest.raises(ConfigError, match=msg):
        param_layout(*args)


def test_param_layout_takes_numpy_integers():
    sizes = (np.array([10, 8]), np.int64(8), np.int32(6), np.uint8(4))
    assert param_layout(*sizes) == param_layout([10, 8], 8, 6, 4)


@pytest.mark.parametrize("key, value, named", [
    ("encoder_dims", 10, "encoder dims must chain"),
    ("encoder_dims", [10, 8.0], "encoder dims must chain"),
    ("encoder_dims", [10], "encoder dims must chain"),
    ("proj_hidden", 8.0, "proj_hidden must be an integer, got 8.0"),
    ("d_out", True, "d_out must be an integer, got True"),
    ("num_classes", 1, r"num_classes must be in \[2, inf\), got 1"),
    ("seed", -1, "seed must be an integer >= 0"),
    ("version", 2, "unsupported version"),
])
def test_checkpoint_header_sizes_are_checked(tmp_path, key, value, named):
    """A header size param_layout refuses is an IoError naming the file."""
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params([10, 8], 8, 6, 4, seed=0))
    blob = path.read_bytes()
    hlen = int.from_bytes(blob[8:12], "little")
    header = json.loads(blob[12:12 + hlen])
    header[key] = value
    text = json.dumps(header).encode("ascii")
    path.write_bytes(blob[:8] + len(text).to_bytes(4, "little") + text + blob[12 + hlen:])
    with pytest.raises(IoError, match=f"^{re.escape(str(path))}: .*{named}"):
        load_checkpoint(path)


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
    assert np.allclose(two.norms, 2.0 * one.norms, atol=1e-12)
    assert np.allclose(two.embeddings, one.embeddings, atol=1e-12)


def test_forward_zero_projection_raises():
    params = _identity_params(3)
    params.proj_w2 = np.zeros_like(params.proj_w2)
    with pytest.raises(ZeroVector):
        forward(params, np.ones((2, 3)))


@pytest.mark.parametrize("run", [forward, embed])
def test_forward_shape_mismatch(run):
    params = init_params([10, 8], 8, 4, 3, seed=0)
    for bad in (np.ones((2, 7)), np.ones(10)):
        with pytest.raises(ConfigError, match=r"expected \(N, 10\) inputs, got \(\d+"):
            run(params, bad)


@pytest.mark.parametrize("dims, proj_hidden, d_out, rows", [
    ([12, 16, 16], 6, 6, 9),  # the projection activation is the squares buffer
    ([12, 16, 16], 8, 6, 9),  # proj_hidden != d_out: a squares array of its own
    ([12, 16], 8, 6, 1),
    ([40, 64, 64], 128, 128, 1280),  # the quickstart model at verify scale
])
@pytest.mark.parametrize("space", ["projection", "encoder"])
def test_embed_matches_forward_bit_for_bit(dims, proj_hidden, d_out, rows, space):
    params = init_params(dims, proj_hidden, d_out, 4, seed=rows)
    x = np.random.default_rng(rows).normal(size=(rows, dims[0]))
    kept = x.copy()
    trace = forward(params, x)
    want = trace.embeddings if space == "projection" else encoder_embeddings(trace)
    got = embed(params, x, space)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert x.tobytes() == kept.tobytes()


@pytest.mark.parametrize("space", ["projection", "encoder"])
def test_embed_names_the_collapsed_row_forward_names(space):
    """Rows 2 and 3 are all negative, so the relu encoder maps them to zero
    in both spaces; the refusal names row 2 with forward's message."""
    params = _identity_params(3)
    x = np.array([[1.0, 2.0, 0.5], [0.3, 0.1, 0.2], [-1.0, -2.0, -0.5], [-1.0, -1.0, -1.0]])
    with pytest.raises(ZeroVector) as want:
        encoder_embeddings(forward(params, x))
    with pytest.raises(ZeroVector) as got:
        embed(params, x, space)
    assert str(got.value) == str(want.value) == "row 2 has norm 0.000e+00"


def test_embed_encoder_space_reads_no_projection():
    """A collapsed projection does not stop encoder-space embedding, which
    never computes it."""
    params = _identity_params(3)
    params.proj_w2 = np.zeros_like(params.proj_w2)
    x = np.abs(np.random.default_rng(0).normal(size=(4, 3))) + 0.1
    with pytest.raises(ZeroVector):
        embed(params, x)
    assert np.allclose(embed(params, x, "encoder"), x / np.linalg.norm(x, axis=1, keepdims=True))


def test_embed_refuses_an_unknown_space():
    params = init_params([10, 8], 8, 4, 3, seed=0)
    with pytest.raises(ValueError, match=r"space must be in \{projection, encoder\}, got 'both'"):
        embed(params, np.ones((2, 10)), "both")


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
    assert np.all(trace.encoder_act[0][:, 1] == 0)
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
    flat, out = flat_copy(params)
    out.class_weights.fill(0.0)  # the loss's slot, which backward leaves alone
    assert backward(params, trace, upstream, out=out) is out
    for a, b in zip(param_arrays(fresh), param_arrays(out)):
        assert np.array_equal(a, b) and np.shares_memory(b, flat)
    assert np.array_equal(flat, np.concatenate([a.ravel() for a in param_arrays(fresh)]))


def test_backward_leaves_the_class_weight_slot_of_out_alone():
    params = init_params([10, 8], 8, 6, 4, seed=13)
    rng = np.random.default_rng(14)
    trace = forward(params, rng.normal(size=(5, 10)))
    _, out = flat_copy(params)
    out.class_weights.fill(7.0)
    backward(params, trace, rng.normal(size=trace.embeddings.shape), out=out)
    assert np.all(out.class_weights == 7.0)
    assert np.all(backward(params, trace, np.ones((5, 6))).class_weights == 0.0)


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
    with pytest.raises(ConfigError, match="grad shape"):
        backward(params, trace, np.zeros((6, 5)))
    other = init_params([10, 8, 8], 8, 4, 3, seed=8)
    with pytest.raises(ConfigError, match="trace does not match these parameters"):
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
    with pytest.raises(IoError, match="bad magic"):
        load_checkpoint(bad_magic)

    truncated = tmp_path / "truncated.ckpt"
    truncated.write_bytes(blob[:-16])
    with pytest.raises(IoError, match="truncated array"):
        load_checkpoint(truncated)

    trailing = tmp_path / "trailing.ckpt"
    trailing.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(IoError, match="trailing bytes"):
        load_checkpoint(trailing)
