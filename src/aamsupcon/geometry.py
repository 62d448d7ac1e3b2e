"""Primitive operations on the unit hypersphere.

Everything the losses need and nothing more: row normalization, row norms,
and the margin-shifted logit cos(theta + m) with its derivative, both from one
margin_map. All functions operate on float64 arrays; the margin map
broadcasts elementwise so callers can pass scalars or arrays.
"""

import numpy as np

from .errors import ZeroVector, check_in

# Reject normalization of vectors shorter than this instead of inventing a
# direction.
EPS_NORM = 1e-12

# Cosines are pulled this far inside [-1, 1] before differentiating, which
# bounds the otherwise-divergent d/dc arccos at the endpoints.
_COS_INTERIOR = 1e-7


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


def margin_map(c, m: float):
    """(logit, slope) at cosines c: the margin-penalized target logit
    cos(min(arccos(c) + m, pi)) and its derivative with respect to c.

    The shifted angle is clamped at pi so the logit saturates at -1 rather
    than wrapping, keeping the map monotone in c; the slope is 0 there. The
    logit reads c clipped into [-1, 1]. The slope, cos(m) + c sin(m) /
    sqrt(1 - c^2), and its saturation test read c clipped into
    [-1 + 1e-7, 1 - 1e-7], which keeps it bounded at the endpoints, so each
    clip takes its own arccos. With m = 0 the logit is the clipped c and
    the slope exactly 1.

    Accepts scalars or arrays, a scalar c giving floats; raises ConfigError
    for m outside [0, pi/2). The clips are np.minimum of np.maximum, the
    bits of np.clip.
    """
    check_in(m, "[0, pi/2)", "margin")
    c_arr = np.asarray(c, dtype=np.float64)
    logit = np.minimum(np.maximum(c_arr, -1.0), 1.0)
    if m == 0.0:
        slope = np.ones_like(logit)
    else:
        inner = np.minimum(np.maximum(c_arr, -1.0 + _COS_INTERIOR), 1.0 - _COS_INTERIOR)
        logit = np.cos(np.minimum(np.arccos(logit) + m, np.pi))
        slope = np.where(np.arccos(inner) + m >= np.pi, 0.0,
                         np.cos(m) + inner * np.sin(m) / np.sqrt(1.0 - inner * inner))
    return (float(logit), float(slope)) if np.isscalar(c) else (logit, slope)


def margin_logit(c, m: float):
    """The logit of margin_map(c, m)."""
    return margin_map(c, m)[0]
