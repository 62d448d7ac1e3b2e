"""Primitive operations on the unit hypersphere.

Everything the losses need and nothing more: normalization, row norms, and
the margin-shifted logit cos(theta + m) with its derivative. All functions
operate on float64 arrays; the margin helpers broadcast elementwise so
callers can pass scalars or arrays.
"""

import numpy as np

from .errors import ZeroVector, check_in

# Reject normalization of vectors shorter than this instead of inventing a
# direction.
EPS_NORM = 1e-12

# Cosines are pulled this far inside [-1, 1] before differentiating, which
# bounds the otherwise-divergent d/dc arccos at the endpoints.
_COS_INTERIOR = 1e-7


def normalize(v) -> np.ndarray:
    """Return v / ||v||_2.

    Raises ZeroVector unless EPS_NORM < ||v||_2 < inf.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if not EPS_NORM < norm < np.inf:
        raise ZeroVector(f"cannot normalize vector with norm {norm:.3e}")
    return v / norm


def row_norms(mat, out=None, squares=None) -> np.ndarray:
    """The (N, 1) Euclidean norms of the rows of a 2-D float64 array, with
    the bits of np.linalg.norm(mat, axis=1, keepdims=True). out and squares,
    when given, receive the norms and the squared entries.

    Raises ZeroVector naming the first row whose norm is not in
    (EPS_NORM, inf): NaN, (near-)zero or overflowed.
    """
    squares = np.multiply(mat, mat, out=squares)
    norms = np.add.reduce(squares, axis=1, keepdims=True, out=out)
    np.sqrt(norms, out=norms)
    if not (np.minimum.reduce(norms, axis=None, initial=np.inf) > EPS_NORM
            and np.maximum.reduce(norms, axis=None, initial=0.0) < np.inf):
        bad = int(np.argmin((norms > EPS_NORM) & (norms < np.inf)))
        raise ZeroVector(f"row {bad} has norm {float(norms[bad, 0]):.3e}")
    return norms


def normalize_rows(mat, out=None, norms=None, squares=None) -> np.ndarray:
    """Normalize each row of a 2-D array to unit length, with the bits of
    mat / np.linalg.norm(mat, axis=1, keepdims=True). out, norms and
    squares, when given, receive the unit rows, the (N, 1) norms and the
    squared entries; out may be mat itself, and squares may be out.

    Raises ZeroVector unless every row norm is in (EPS_NORM, inf).
    """
    mat = np.asarray(mat, dtype=np.float64)
    return np.divide(mat, row_norms(mat, out=norms, squares=squares), out=out)


def normalize_rows_backward(g, unit, norms, out) -> np.ndarray:
    """The gradient w.r.t. the rows normalize_rows read, given g, the
    gradient w.r.t. its unit rows, and the unit rows and norms it wrote:
    (g - (g.u) u) / ||row|| per row, written into out and returned."""
    np.multiply(g, unit, out=out)
    np.multiply(np.add.reduce(out, axis=1, keepdims=True), unit, out=out)
    np.subtract(g, out, out=out)
    out /= norms
    return out


def margin_logit(c, m: float):
    """cos(min(arccos(c) + m, pi)): the margin-penalized target logit.

    The shifted angle is clamped at pi so the logit saturates at -1 rather
    than wrapping, keeping the map monotone in c. With m = 0 the input is
    returned unchanged (clipped into [-1, 1]).

    Accepts scalars or arrays; raises ConfigError for m outside [0, pi/2).
    The clips here are np.minimum of np.maximum, the bits of np.clip.
    """
    check_in(m, "[0, pi/2)", "margin")
    c_arr = np.minimum(np.maximum(np.asarray(c, dtype=np.float64), -1.0), 1.0)
    if m == 0.0:
        out = c_arr
    else:
        out = np.cos(np.minimum(np.arccos(c_arr) + m, np.pi))
    return float(out) if np.isscalar(c) else out


def margin_logit_grad(c, m: float):
    """Derivative of margin_logit with respect to c.

    Uses d/dc cos(arccos(c) + m) = cos(m) + c sin(m) / sqrt(1 - c^2) with c
    clamped into [-1 + 1e-7, 1 - 1e-7], so the value stays bounded at the
    endpoints (and equals exactly 1 everywhere when m = 0). In the
    saturation region arccos(c) + m >= pi the logit is constant, so the
    derivative is 0 there.
    """
    check_in(m, "[0, pi/2)", "margin")
    c_arr = np.minimum(np.maximum(np.asarray(c, dtype=np.float64), -1.0 + _COS_INTERIOR),
                       1.0 - _COS_INTERIOR)
    if m == 0.0:
        out = np.ones_like(c_arr)
    else:
        grad = np.cos(m) + c_arr * np.sin(m) / np.sqrt(1.0 - c_arr * c_arr)
        saturated = np.arccos(c_arr) + m >= np.pi
        out = np.where(saturated, 0.0, grad)
    return float(out) if np.isscalar(c) else out
