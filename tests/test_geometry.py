import math

import numpy as np
import pytest

from aamsupcon import geometry
from aamsupcon.errors import ConfigError, ZeroVector

from oracles import normalize, reference_margin_logit, reference_margin_logit_grad


def test_normalize_scaling_identity():
    assert np.allclose(normalize([3.0, 4.0]), [0.6, 0.8], atol=0, rtol=0)
    assert np.array_equal(normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])


def test_normalize_rejects_degenerate():
    with pytest.raises(ZeroVector):
        normalize([1e-30, 0.0])
    with pytest.raises(ZeroVector):
        normalize(np.zeros(5))


def test_norm_that_overflows_is_refused():
    """A finite vector whose norm overflows to inf would normalize to zeros."""
    mat = np.ones((3, 2))
    mat[1] = 1e300
    with np.errstate(over="ignore"):
        with pytest.raises(ZeroVector, match="norm inf"):
            normalize(mat[1])
        with pytest.raises(ZeroVector, match="row 1 has norm inf"):
            geometry.normalize_rows(mat)


def test_normalize_scale_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=6)
        k = float(rng.uniform(1e-6, 1e6))
        assert np.max(np.abs(normalize(k * v) - normalize(v))) < 1e-12


def test_normalize_rows_matches_normalize():
    rng = np.random.default_rng(1)
    mat = rng.normal(size=(7, 4))
    rows = geometry.normalize_rows(mat)
    for i in range(7):
        assert np.allclose(rows[i], normalize(mat[i]), atol=1e-15)
    mat[3] = 0.0
    with pytest.raises(ZeroVector):
        geometry.normalize_rows(mat)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_row_norms_equal_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(2)
    for shape in ((1, 1), (5, 3), (64, 128), (256, 128), (9, 1000)):
        mat = rng.normal(size=shape) * rng.uniform(1e-3, 1e3, size=(shape[0], 1))
        want = np.linalg.norm(mat, axis=1, keepdims=True)
        out, squares = np.empty((shape[0], 1)), np.empty(shape)
        assert geometry.row_norms(mat, out=out, squares=squares) is out
        for got in (geometry.row_norms(mat), out):
            assert _same_bits(got, want), shape
        assert np.array_equal(squares, mat * mat)

        # normalize_rows: allocating, into buffers (the squares in the
        # unit-row buffer, as for the encoder rows) and in place
        unit_want = mat / want
        unit, norms, in_place = np.empty(shape), np.empty((shape[0], 1)), mat.copy()
        assert geometry.normalize_rows(mat, out=unit, norms=norms, squares=unit) is unit
        assert geometry.normalize_rows(in_place, out=in_place) is in_place
        for got in (geometry.normalize_rows(mat), unit, in_place):
            assert _same_bits(got, unit_want), shape
        assert _same_bits(norms, want), shape

        # normalize_rows_backward against the expression the encoder rows'
        # backward used before both spaces shared the layer
        g, zn = rng.normal(size=shape), unit_want
        grad_want = (g - np.sum(g * zn, axis=1, keepdims=True) * zn) / want
        grad = np.empty(shape)
        assert geometry.normalize_rows_backward(g, unit, norms, grad) is grad
        assert _same_bits(grad, grad_want), shape


def test_margin_logit_examples():
    # margin 0.2 is the default operating point
    assert geometry.margin_logit(1.0, 0.2) == pytest.approx(0.9800665778412416, abs=1e-15)
    assert geometry.margin_logit(0.5, 0.0) == 0.5
    # arccos(-0.999) + 0.2 > pi, so the logit saturates at -1
    assert geometry.margin_logit(-0.999, 0.2) == -1.0


def test_margin_logit_rejects_bad_margin():
    for m in (-0.1, math.pi / 2, 2.0):
        with pytest.raises(ConfigError, match=r"margin must be in \[0, pi/2\)"):
            geometry.margin_logit(0.3, m)
        with pytest.raises(ConfigError, match=r"margin must be in \[0, pi/2\)"):
            geometry.margin_map(0.3, m)


def test_margin_logit_zero_margin_is_identity():
    for c in np.linspace(-1.0, 1.0, 41):
        assert geometry.margin_logit(float(c), 0.0) == float(c)


def test_margin_never_helps_the_target():
    rng = np.random.default_rng(3)
    for _ in range(100):
        c = float(rng.uniform(-1, 1))
        m = float(rng.uniform(0, math.pi / 2 - 1e-9))
        assert geometry.margin_logit(c, m) <= c + 1e-15


def test_margin_logit_monotone_in_c():
    cs = np.linspace(-1.0, 1.0, 201)
    for m in (0.0, 0.1, 0.2, 0.4):
        vals = geometry.margin_logit(cs, m)
        assert np.all(np.diff(vals) >= -1e-15)


def test_margin_logit_monotone_non_increasing_in_m():
    for c in (-0.9, -0.2, 0.0, 0.5, 0.99):
        vals = [geometry.margin_logit(c, m) for m in (0.0, 0.1, 0.2, 0.3, 0.4)]
        assert all(hi >= lo - 1e-15 for hi, lo in zip(vals, vals[1:]))


def test_margin_logit_grad_matches_finite_differences():
    h = 1e-6
    for m in (0.1, 0.2, 0.4):
        for c in (-0.9, -0.5, 0.0, 0.5, 0.9):
            fd = (geometry.margin_logit(c + h, m) - geometry.margin_logit(c - h, m)) / (2 * h)
            analytic = geometry.margin_map(c, m)[1]
            assert abs(analytic - fd) / abs(fd) < 1e-5


def test_margin_logit_grad_edges():
    # saturated region is flat; m = 0 pins the subgradient to exactly 1
    assert geometry.margin_map(-0.999, 0.2)[1] == 0.0
    assert geometry.margin_map(1.0, 0.0)[1] == 1.0
    assert geometry.margin_map(-1.0, 0.0)[1] == 1.0
    # bounded at the endpoints even with a margin
    assert np.isfinite(geometry.margin_map(1.0, 0.2)[1])


def test_margin_logit_vectorized():
    cs = np.array([-0.999, 0.0, 0.5, 1.0])
    vals = geometry.margin_logit(cs, 0.2)
    assert vals.shape == cs.shape
    assert vals[0] == -1.0
    assert vals[3] == pytest.approx(math.cos(0.2), abs=1e-15)


def _bits(x):
    """x's float64 bits, and whether it is a Python float, so -0.0 and 0.0
    differ and a float is told from a 0-d array."""
    return type(x) is float, np.asarray(x, dtype=np.float64).view(np.uint64).tolist()


def test_margin_map_has_the_bits_of_the_two_functions_it_replaced():
    """margin_map's logit and slope are reference_margin_logit and
    reference_margin_logit_grad bit for bit, for scalars, 0-d and 1-d
    arrays: at and one ulp beyond +-1, around +-(1 - 1e-7), where the slope's
    clip starts, and at margins from 0 to the largest below pi/2."""
    edges = [1.0, 1.0 - 1e-7, -1.0 + 1e-7]
    cs = [np.nextafter(np.nextafter(e, 2.0), 2.0) for e in edges] \
        + [np.nextafter(e, 2.0) for e in edges] + edges \
        + [np.nextafter(e, -2.0) for e in edges]
    cs = np.array(sorted({float(c) for c in cs + [-c for c in cs] + [0.0, 0.5, -0.999]}))
    assert np.nextafter(1.0, 2.0) in cs and np.nextafter(-1.0, -2.0) in cs
    for m in (0.0, 1e-5, 4e-4, 0.2, float(np.nextafter(math.pi / 2, 0.0))):
        want = (reference_margin_logit(cs, m), reference_margin_logit_grad(cs, m))
        assert [_bits(x) for x in geometry.margin_map(cs, m)] == [_bits(x) for x in want], m
        for c in [*cs.tolist(), np.float64(-1.0), np.array(-1.0)]:
            want = (reference_margin_logit(c, m), reference_margin_logit_grad(c, m))
            assert [_bits(x) for x in geometry.margin_map(c, m)] == [_bits(x) for x in want], (c, m)
            assert _bits(geometry.margin_logit(c, m)) == _bits(want[0]), (c, m)
    # at c = -1 and a margin under about 4.5e-4 the slope's own clip is not
    # saturated while arccos of the logit's clip, pi, would be
    slope = geometry.margin_map(-1.0, 1e-5)[1]
    assert slope == reference_margin_logit_grad(-1.0, 1e-5) and 0.97 < slope < 0.98
