"""Primitive operations on the unit hypersphere.

Everything the losses need and nothing more: normalization, cosine
similarity, angles, and the margin-shifted logit cos(theta + m) with its
derivative. All functions are pure and operate on float64 arrays; the
margin helpers broadcast elementwise so callers can pass scalars or arrays.
"""

import numpy as np

from .errors import DimensionMismatch, InvalidMargin, ZeroVector

# Reject normalization of vectors shorter than this instead of inventing a
# direction.
EPS_NORM = 1e-12

# Cosines are pulled this far inside [-1, 1] before differentiating, which
# bounds the otherwise-divergent d/dc arccos at the endpoints.
_COS_INTERIOR = 1e-7


def normalize(v) -> np.ndarray:
    """Return v / ||v||_2.

    Raises ZeroVector if ||v||_2 <= EPS_NORM.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = float(np.linalg.norm(v))
    if norm <= EPS_NORM:
        raise ZeroVector(f"cannot normalize vector with norm {norm:.3e}")
    return v / norm


def row_norms(mat) -> np.ndarray:
    """The (N, 1) Euclidean norms of the rows of a 2-D float64 array.

    Raises ZeroVector naming the first shortest row if any norm is
    <= EPS_NORM (or NaN).
    """
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    if not np.all(norms > EPS_NORM):
        bad = int(np.argmin(norms))
        raise ZeroVector(f"row {bad} has norm {float(norms[bad, 0]):.3e}")
    return norms


def normalize_rows(mat) -> np.ndarray:
    """Normalize each row of a 2-D array to unit length.

    Raises ZeroVector if any row norm is <= EPS_NORM.
    """
    mat = np.asarray(mat, dtype=np.float64)
    return mat / row_norms(mat)


def cosine(a, b) -> float:
    """Dot product of two unit vectors, clamped to [-1, 1].

    The clamp absorbs floating-point drift so downstream arccos is total.
    Raises DimensionMismatch if the vectors differ in length.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} vs {b.shape}")
    return float(np.clip(np.dot(a, b), -1.0, 1.0))


def angle_of(c) -> float:
    """Angle in [0, pi] whose cosine is c. Clamps c defensively."""
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def _check_margin(m: float) -> float:
    m = float(m)
    if not (0.0 <= m < np.pi / 2):
        raise InvalidMargin(f"margin must be in [0, pi/2), got {m}")
    return m


def margin_logit(c, m: float):
    """cos(min(arccos(c) + m, pi)): the margin-penalized target logit.

    The shifted angle is clamped at pi so the logit saturates at -1 rather
    than wrapping, keeping the map monotone in c. With m = 0 the input is
    returned unchanged (clipped into [-1, 1]).

    Accepts scalars or arrays; raises InvalidMargin for m outside [0, pi/2).
    """
    m = _check_margin(m)
    c_arr = np.clip(np.asarray(c, dtype=np.float64), -1.0, 1.0)
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
    m = _check_margin(m)
    c_arr = np.clip(np.asarray(c, dtype=np.float64),
                    -1.0 + _COS_INTERIOR, 1.0 - _COS_INTERIOR)
    if m == 0.0:
        out = np.ones_like(c_arr)
    else:
        grad = np.cos(m) + c_arr * np.sin(m) / np.sqrt(1.0 - c_arr * c_arr)
        saturated = np.arccos(c_arr) + m >= np.pi
        out = np.where(saturated, 0.0, grad)
    return float(out) if np.isscalar(c) else out
