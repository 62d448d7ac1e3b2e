"""Loss functions with analytic gradients.

Four losses on unit-norm embeddings: supervised contrastive (supcon),
additive angular margin softmax (arcface), their sum (aamsupcon), and a
plain scaled-softmax cross-entropy baseline. Each returns the scalar value
together with exact gradients w.r.t. the embedding matrix and the
class-weight matrix.

Gradient semantics: the loss is differentiated as a function of the raw
input matrices. Inputs are required to be unit-norm at construction, but no
re-normalization happens inside the loss, so the gradients are plain
Euclidean gradients and finite differences in ambient space reproduce them.
All softmax-shaped expressions use max-subtracted log-sum-exp.
"""

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import geometry
from .errors import (
    AnchorWithoutCandidate,
    AnchorWithoutPositive,
    BatchTooSmall,
    InvalidMargin,
    InvalidScale,
)

# Embedding and class-weight rows must be unit length to within this.
UNIT_NORM_TOL = 1e-9


class LossKind(Enum):
    SOFTMAX = "softmax"
    ARCFACE = "arcface"
    SUPCON = "supcon"
    AAMSUPCON = "aamsupcon"

    @property
    def contrastive(self) -> bool:
        """Whether the loss has a supervised-contrastive term."""
        return self in (LossKind.SUPCON, LossKind.AAMSUPCON)


class DenominatorConvention(Enum):
    """Which indices enter the contrastive denominator for anchor i.

    ALL_NON_ANCHOR: every j != i (canonical supervised-contrastive form).
    STRICT_NEGATIVES: only j with labels[j] != labels[i].
    """

    ALL_NON_ANCHOR = "all_non_anchor"
    STRICT_NEGATIVES = "strict_negatives"


@dataclass
class LossInputs:
    """One batch as the losses see it.

    embeddings: (N, d) unit-norm rows. labels: (N,) ints in [0, C).
    class_weights: (C, d) unit-norm rows. temperature divides the
    contrastive similarities, margin is the additive angle penalty in
    [0, pi/2), and scale multiplies the cosine logits.
    """

    embeddings: np.ndarray
    labels: np.ndarray
    class_weights: np.ndarray
    temperature: float = 0.07
    margin: float = 0.2
    scale: float = 30.0

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.class_weights = np.asarray(self.class_weights, dtype=np.float64)


@dataclass
class LossOutput:
    value: float
    grad_embeddings: np.ndarray
    grad_class_weights: np.ndarray


@dataclass
class GradCheckReport:
    max_rel_error: float
    mean_rel_error: float
    num_components: int


def validate_inputs(inputs: LossInputs) -> None:
    """Check the LossInputs invariants, raising on violation."""
    z, y, w = inputs.embeddings, inputs.labels, inputs.class_weights
    if z.ndim != 2 or w.ndim != 2 or y.ndim != 1:
        raise ValueError("embeddings/class_weights must be 2-D, labels 1-D")
    if z.shape[0] != y.shape[0]:
        raise ValueError(f"{z.shape[0]} embeddings but {y.shape[0]} labels")
    if z.shape[1] != w.shape[1]:
        raise ValueError(
            f"embedding dim {z.shape[1]} != class-weight dim {w.shape[1]}")
    if y.size and (y.min() < 0 or y.max() >= w.shape[0]):
        raise ValueError(f"labels must lie in [0, {w.shape[0]})")
    for name, mat in (("embedding", z), ("class_weight", w)):
        norms = np.linalg.norm(mat, axis=1)
        drift = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
        if drift > UNIT_NORM_TOL:
            raise ValueError(f"{name} rows deviate from unit norm by {drift:.3e}")
    if not inputs.temperature > 0:
        raise ValueError(f"temperature must be > 0, got {inputs.temperature}")
    if not inputs.scale > 0:
        raise InvalidScale(f"scale must be > 0, got {inputs.scale}")
    if not (0.0 <= inputs.margin < np.pi / 2):
        raise InvalidMargin(f"margin must be in [0, pi/2), got {inputs.margin}")


def contrast_masks(labels, convention=DenominatorConvention.ALL_NON_ANCHOR):
    """P(i) and the denominator set A(i) for every anchor, as (N, N) masks.

    pos[i, j] = (labels[i] == labels[j]) and i != j; cand[i, j] is i != j,
    or labels[i] != labels[j] under strict negatives. Raises BatchTooSmall
    for N < 2, AnchorWithoutPositive when some anchor has no same-label
    partner, and AnchorWithoutCandidate when the strict-negatives convention
    leaves a denominator empty.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    if n < 2:
        raise BatchTooSmall(f"need at least 2 samples, got {n}")
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(n, dtype=bool)
    pos = same & off_diag
    cand = off_diag if convention is DenominatorConvention.ALL_NON_ANCHOR else ~same
    lonely = ~pos.any(axis=1)
    if lonely.any():
        i = int(np.argmax(lonely))
        raise AnchorWithoutPositive(f"anchor {i} (label {labels[i]}) has no positive")
    if not cand.any(axis=1).all():
        raise AnchorWithoutCandidate("no negatives in a single-class batch")
    return pos, cand


class SupconMasks(NamedTuple):
    """contrast_masks in the form _supcon_raw reads: P(i) as a mask, |P(i)|
    as float64, P(i) / |P(i)| and the complement of A(i). A batch layout
    fixes all four, so a trainer builds them once per run."""

    pos: np.ndarray
    pcount: np.ndarray
    pos_frac: np.ndarray
    not_cand: np.ndarray


def supcon_masks(labels, convention=DenominatorConvention.ALL_NON_ANCHOR) -> SupconMasks:
    """contrast_masks(labels, convention), raising as it does, and what the
    contrastive kernel derives from it."""
    pos, cand = contrast_masks(labels, convention)
    pcount = pos.sum(axis=1).astype(np.float64)
    return SupconMasks(pos, pcount, pos / pcount[:, None], ~cand)


def _supcon_raw(z: np.ndarray, masks: SupconMasks, tau: float):
    """Value and d/dz of the contrastive sum over the masks.

    One (N, N) buffer holds the similarities, then the shifted exponentials,
    then the softmax and finally the gradient w.r.t. the similarities."""
    buf = z @ z.T
    buf /= tau
    # summed before the candidate mask hides the positives strict negatives exclude
    pos_sums = np.where(masks.pos, buf, 0.0).sum(axis=1)
    np.copyto(buf, -np.inf, where=masks.not_cand)
    row_max = buf.max(axis=1)
    buf -= row_max[:, None]
    np.exp(buf, out=buf)
    denom = buf.sum(axis=1)
    lse = row_max + np.log(denom)
    value = float(np.sum(lse - pos_sums / masks.pcount))

    # d(value)/d(sims): softmax weight on candidates minus 1/|P(i)| on positives.
    buf /= denom[:, None]
    buf -= masks.pos_frac
    buf /= tau
    buf += buf.T.copy()
    return value, buf @ z


def _margin_softmax_raw(z, labels, w, margin, scale):
    """Cross-entropy over scaled cosine logits with the target column
    penalized by the angular margin; margin == 0 is the plain softmax path.
    Returns (value, grad_z, grad_w).

    One (N, C) buffer holds the cosines, then the logits, the shifted
    exponentials, the softmax and finally the gradient w.r.t. the logits."""
    n = z.shape[0]
    rows = np.arange(n)
    buf = z @ w.T
    target_cos = buf[rows, labels]
    if margin != 0.0:
        buf[rows, labels] = geometry.margin_logit(target_cos, margin)
    buf *= scale
    target_logits = buf[rows, labels]

    row_max = buf.max(axis=1)
    buf -= row_max[:, None]
    np.exp(buf, out=buf)
    sumexp = buf.sum(axis=1)
    lse = row_max + np.log(sumexp)
    value = float(np.mean(lse - target_logits))

    buf /= sumexp[:, None]
    buf[rows, labels] -= 1.0
    buf *= scale / n
    if margin != 0.0:
        buf[rows, labels] *= geometry.margin_logit_grad(target_cos, margin)
    return value, buf @ w, buf.T @ z


def loss_terms(kind: LossKind, z, labels, w, temperature: float, margin: float,
               scale: float, masks: SupconMasks | None = None, lam: float = 1.0):
    """(value, grad_z, grad_w) of one loss, with no input validation.

    masks is the supcon_masks of the labels, required by the contrastive
    kinds. Callers that own their invariants (the trainer, finite-difference
    probes that step off the unit sphere) call this directly; everyone
    else goes through evaluate_loss.
    """
    if kind is LossKind.SUPCON:
        value, grad_z = _supcon_raw(z, masks, temperature)
        return value, grad_z, np.zeros_like(w)
    if kind is LossKind.SOFTMAX:
        margin = 0.0
    elif kind not in (LossKind.ARCFACE, LossKind.AAMSUPCON):
        raise ValueError(f"unknown loss kind {kind!r}")
    value, grad_z, grad_w = _margin_softmax_raw(z, labels, w, margin, scale)
    if kind is LossKind.AAMSUPCON and lam != 0.0:
        sup_value, sup_grad = _supcon_raw(z, masks, temperature)
        value += lam * sup_value
        sup_grad *= lam
        grad_z += sup_grad
    return value, grad_z, grad_w


def evaluate_loss(kind: LossKind, inputs: LossInputs,
                  convention=DenominatorConvention.ALL_NON_ANCHOR,
                  lam: float = 1.0) -> LossOutput:
    """Validate the inputs once, build the contrast masks if the kind needs
    them, and evaluate one of the four losses."""
    validate_inputs(inputs)
    masks = supcon_masks(inputs.labels, convention) if kind.contrastive else None
    return LossOutput(*loss_terms(kind, inputs.embeddings, inputs.labels,
                                  inputs.class_weights, inputs.temperature,
                                  inputs.margin, inputs.scale, masks, lam))


def supcon_loss(inputs: LossInputs,
                convention=DenominatorConvention.ALL_NON_ANCHOR) -> LossOutput:
    """Supervised contrastive loss summed over anchors.

    value = sum_i (-1/|P(i)|) sum_{p in P(i)}
            log[ exp(z_i.z_p / tau) / sum_{a in A(i)} exp(z_i.z_a / tau) ]
    """
    return evaluate_loss(LossKind.SUPCON, inputs, convention)


def arcface_loss(inputs: LossInputs) -> LossOutput:
    """Additive angular margin softmax over class-weight cosines.

    value = -(1/N) sum_i log[ e^{s cos(theta_yi + m)} /
            (e^{s cos(theta_yi + m)} + sum_{j != yi} e^{s cos theta_j}) ]
    """
    return evaluate_loss(LossKind.ARCFACE, inputs)


def softmax_loss(inputs: LossInputs) -> LossOutput:
    """Plain cross-entropy over logits s * (z . W^T); the no-margin baseline."""
    return evaluate_loss(LossKind.SOFTMAX, inputs)


def aamsupcon_loss(inputs: LossInputs,
                   convention=DenominatorConvention.ALL_NON_ANCHOR,
                   lam: float = 1.0) -> LossOutput:
    """Margin softmax plus lam times the contrastive term (lam = 1 default).

    lam = 0 degenerates to arcface_loss exactly; the contrast masks are
    still built so malformed batches fail regardless of lam.
    """
    return evaluate_loss(LossKind.AAMSUPCON, inputs, convention, lam)


def _central_diff(value_fn, arrays, step: float) -> list:
    """Central finite differences of value_fn() w.r.t. every entry of each
    array, perturbing the arrays in place and restoring them."""
    grads = []
    for arr in arrays:
        grad = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + step
            hi = value_fn()
            arr[idx] = orig - step
            lo = value_fn()
            arr[idx] = orig
            grad[idx] = (hi - lo) / (2.0 * step)
        grads.append(grad)
    return grads


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Per-component relative error between two gradients.

    Each difference is divided by max(|analytic_i|, |numeric_i|, floor)
    where floor = max(1e-8, 1e-3 * overall gradient magnitude). The floor
    keeps components that are tiny relative to the gradient scale (and
    therefore dominated by finite-difference round-off) from reporting
    spurious errors, while leaving every component that matters under a
    true relative comparison.
    """
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    gscale = max(float(np.max(np.abs(analytic), initial=0.0)),
                 float(np.max(np.abs(numeric), initial=0.0)))
    floor = max(1e-8, 1e-3 * gscale)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return np.abs(analytic - numeric) / denom


def grad_check(kind: LossKind, inputs: LossInputs, step: float = 1e-6,
               convention=DenominatorConvention.ALL_NON_ANCHOR,
               lam: float = 1.0, corrupt: float = 0.0) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    Perturbations are applied to the raw embedding and class-weight entries
    (no re-normalization), matching the gradient semantics above. Returns
    the max and mean per-component relative error over both matrices.

    corrupt is a negative-control hook: a nonzero value is added to one
    analytic gradient component before the comparison and must make the
    check fail.
    """
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    validate_inputs(inputs)
    masks = supcon_masks(inputs.labels, convention) if kind.contrastive else None
    z, w = inputs.embeddings, inputs.class_weights

    def terms():
        return loss_terms(kind, z, inputs.labels, w, inputs.temperature,
                          inputs.margin, inputs.scale, masks, lam)

    _, grad_z, grad_w = terms()
    grad_z[0, 0] += corrupt
    fd_z, fd_w = _central_diff(lambda: terms()[0], [z, w], step)
    errors = np.concatenate([relative_errors(grad_z, fd_z),
                             relative_errors(grad_w, fd_w)])
    return GradCheckReport(
        max_rel_error=float(errors.max()),
        mean_rel_error=float(errors.mean()),
        num_components=int(errors.size),
    )
