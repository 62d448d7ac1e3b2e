"""Loss functions with analytic gradients.

Four losses on unit-norm embeddings: supervised contrastive (supcon),
additive angular margin softmax (arcface), their sum (aamsupcon), and a
plain scaled-softmax cross-entropy baseline. evaluate_loss returns the
scalar value together with exact gradients w.r.t. the embedding matrix and
the class-weight matrix; supcon_masks builds the contrastive term's
positive and denominator masks from the labels.

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
from .errors import ConfigError, integer_array

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
        self.labels = integer_array(self.labels, "label")
        self.class_weights = np.asarray(self.class_weights, dtype=np.float64)


def validate_inputs(inputs: LossInputs, lam: float = 1.0) -> None:
    """Check the LossInputs invariants and lam, raising ConfigError on violation."""
    z, y, w = inputs.embeddings, inputs.labels, inputs.class_weights
    if z.ndim != 2 or w.ndim != 2 or y.ndim != 1:
        raise ConfigError("embeddings/class_weights must be 2-D, labels 1-D")
    if z.shape[0] != y.shape[0]:
        raise ConfigError(f"{z.shape[0]} embeddings but {y.shape[0]} labels")
    if z.shape[1] != w.shape[1]:
        raise ConfigError(
            f"embedding dim {z.shape[1]} != class-weight dim {w.shape[1]}")
    if y.size and (y.min() < 0 or y.max() >= w.shape[0]):
        raise ConfigError(f"labels must lie in [0, {w.shape[0]})")
    for name, mat in (("embedding", z), ("class_weight", w)):
        norms = np.linalg.norm(mat, axis=1)
        drift = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
        if not drift <= UNIT_NORM_TOL:  # a NaN drift fails too
            raise ConfigError(f"{name} rows deviate from unit norm by {drift:.3e}")
    if not inputs.temperature > 0:
        raise ConfigError(f"temperature must be > 0, got {inputs.temperature}")
    if not inputs.scale > 0:
        raise ConfigError(f"scale must be > 0, got {inputs.scale}")
    if not (0.0 <= inputs.margin < np.pi / 2):
        raise ConfigError(f"margin must be in [0, pi/2), got {inputs.margin}")
    if not 0.0 <= lam < np.inf:
        raise ConfigError(f"lam must be in [0, inf), got {lam}")


def _member(enum_type, value, what: str):
    """The member of enum_type that value is or holds the value of; else a
    ConfigError naming what and the allowed values."""
    try:
        return enum_type(value)
    except ValueError:
        raise ConfigError(f"{what} must be one of {[m.value for m in enum_type]},"
                          f" got {value!r}") from None


class SupconMasks(NamedTuple):
    """The contrast masks in the form _supcon_raw reads: P(i) as a mask,
    |P(i)| as float64, P(i) / |P(i)| and the complement of A(i). A batch
    layout fixes all four, so a trainer builds them once per run."""

    pos: np.ndarray
    pcount: np.ndarray
    pos_frac: np.ndarray
    not_cand: np.ndarray


def supcon_masks(labels, convention=DenominatorConvention.ALL_NON_ANCHOR) -> SupconMasks:
    """P(i) and the denominator set A(i) for every anchor as (N, N) masks,
    with what the contrastive kernel derives from them.

    pos[i, j] = (labels[i] == labels[j]) and i != j; A(i) is i != j, or
    labels[i] != labels[j] under strict negatives (the convention or its value).
    Raises ConfigError for any other convention, for N < 2, when an anchor has
    no same-label partner, and when strict negatives leave a denominator empty.
    """
    convention = _member(DenominatorConvention, convention, "convention")
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.shape[0]
    if n < 2:
        raise ConfigError(f"need at least 2 samples, got {n}")
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(n, dtype=bool)
    pos = same & off_diag
    cand = off_diag if convention is DenominatorConvention.ALL_NON_ANCHOR else ~same
    lonely = ~pos.any(axis=1)
    if lonely.any():
        i = int(np.argmax(lonely))
        raise ConfigError(f"anchor {i} (label {labels[i]}) has no positive")
    if not cand.any(axis=1).all():
        raise ConfigError("no negatives in a single-class batch")
    pcount = pos.sum(axis=1).astype(np.float64)
    return SupconMasks(pos, pcount, pos / pcount[:, None], ~cand)


class KernelBuffers:
    """The arrays one loss_terms call writes, built once for a batch shape
    and overwritten by every call: two (N, N) contrastive buffers, the
    (N, C) margin-softmax buffer, the margin term's d/dz (N, class_dim),
    the contrastive term's d/dz (N, d) and d/dw (C, class_dim). A trainer
    passes the class-weight view of its flat gradient vector as grad_w, so
    the kernel writes that gradient in place."""

    __slots__ = ("sims", "sims_t", "logits", "grad_z", "grad_sup", "grad_w")

    def __init__(self, n: int, d: int, num_classes: int, class_dim: int,
                 grad_w: np.ndarray | None = None):
        self.sims = np.empty((n, n))
        self.sims_t = np.empty((n, n))
        self.logits = np.empty((n, num_classes))
        self.grad_z = np.empty((n, class_dim))
        self.grad_sup = np.empty((n, d))
        self.grad_w = np.empty((num_classes, class_dim)) if grad_w is None else grad_w


def _softmax_rows(buf: np.ndarray) -> np.ndarray:
    """Overwrite the rows of buf with their softmax and return their
    log-sum-exp: the row max plus the log of the shifted exponentials' sum."""
    row_max = buf.max(axis=1)
    buf -= row_max[:, None]
    np.exp(buf, out=buf)
    sums = buf.sum(axis=1)
    buf /= sums[:, None]
    return row_max + np.log(sums)


def _supcon_raw(z: np.ndarray, masks: SupconMasks, tau: float, bufs: KernelBuffers):
    """Value and d/dz of the contrastive sum over the masks; d/dz is
    bufs.grad_sup.

    bufs.sims holds the similarities, then the shifted exponentials, then
    the softmax and finally the gradient w.r.t. the similarities; bufs.sims_t
    holds the positive similarities, then the transpose of that gradient."""
    buf = np.matmul(z, z.T, out=bufs.sims)
    buf /= tau
    # summed before the candidate mask hides the positives strict negatives exclude
    pos_part = bufs.sims_t
    pos_part.fill(0.0)
    np.copyto(pos_part, buf, where=masks.pos)
    pos_sums = pos_part.sum(axis=1)
    np.copyto(buf, -np.inf, where=masks.not_cand)
    value = float(np.sum(_softmax_rows(buf) - pos_sums / masks.pcount))

    # d(value)/d(sims): softmax weight on candidates minus 1/|P(i)| on positives.
    buf -= masks.pos_frac
    buf /= tau
    np.copyto(bufs.sims_t, buf.T)
    buf += bufs.sims_t
    return value, np.matmul(buf, z, out=bufs.grad_sup)


def _margin_softmax_raw(z, labels, w, margin, scale, bufs: KernelBuffers):
    """Cross-entropy over scaled cosine logits with the target column
    penalized by the angular margin; margin == 0 is the plain softmax path.
    Returns (value, grad_z, grad_w), the gradients being bufs.grad_z and
    bufs.grad_w.

    bufs.logits holds the cosines, then the logits, the shifted
    exponentials, the softmax and finally the gradient w.r.t. the logits."""
    n = z.shape[0]
    rows = np.arange(n)
    buf = np.matmul(z, w.T, out=bufs.logits)
    target_cos = buf[rows, labels]
    if margin != 0.0:
        buf[rows, labels] = geometry.margin_logit(target_cos, margin)
    buf *= scale
    target_logits = buf[rows, labels]
    value = float(np.mean(_softmax_rows(buf) - target_logits))

    buf[rows, labels] -= 1.0
    buf *= scale / n
    if margin != 0.0:
        buf[rows, labels] *= geometry.margin_logit_grad(target_cos, margin)
    return (value, np.matmul(buf, w, out=bufs.grad_z),
            np.matmul(buf.T, z, out=bufs.grad_w))


def loss_terms(kind: LossKind, z, labels, w, temperature: float, margin: float,
               scale: float, masks: SupconMasks | None = None, lam: float = 1.0,
               bufs: KernelBuffers | None = None, h=None):
    """(value, grad_z, grad_w, grad_h) of one loss, with no input validation:
    the margin-softmax term plus lam times the contrastive term, as far as
    the kind has them; lam = 0 skips the contrastive kernel.

    masks is the supcon_masks of the labels, required by the contrastive
    kinds. Callers that own their invariants (the trainer, finite-difference
    probes that step off the unit sphere) call this directly; everyone
    else goes through evaluate_loss.

    h, when given, holds the unit rows the margin term reads in place of z
    (a classifier in another space): grad_h is then that term's gradient
    and grad_z the contrastive term's (zero without one). Otherwise grad_h
    is None and grad_z holds both terms.

    bufs, when given, is a KernelBuffers for this batch shape; the
    gradients returned are its arrays, so the next call through it
    overwrites them. Without it the call builds one of its own.
    """
    if bufs is None:
        bufs = KernelBuffers(z.shape[0], z.shape[1], *w.shape)
    if kind is LossKind.SUPCON:
        value, grad_z = _supcon_raw(z, masks, temperature, bufs)
        bufs.grad_w.fill(0.0)
        return value, grad_z, bufs.grad_w, None
    if kind is LossKind.SOFTMAX:
        margin = 0.0
    elif kind not in (LossKind.ARCFACE, LossKind.AAMSUPCON):
        raise ConfigError(f"unknown loss kind {kind!r}")
    value, grad_m, grad_w = _margin_softmax_raw(z if h is None else h, labels, w,
                                                margin, scale, bufs)
    grad_z = grad_m if h is None else bufs.grad_sup
    if kind is LossKind.AAMSUPCON and lam != 0.0:
        sup_value, sup_grad = _supcon_raw(z, masks, temperature, bufs)
        value += lam * sup_value
        sup_grad *= lam
        if h is None:
            grad_z += sup_grad
    elif h is not None:
        grad_z.fill(0.0)
    return value, grad_z, grad_w, None if h is None else grad_m


def evaluate_loss(kind: LossKind, inputs: LossInputs,
                  convention=DenominatorConvention.ALL_NON_ANCHOR, lam: float = 1.0):
    """(value, grad_z, grad_w) of one of the four losses, the gradients
    w.r.t. the embeddings and the class weights being new arrays. The kind
    is a LossKind or its value. Validates the inputs and builds the contrast
    masks if the kind needs them; ConfigError for any other kind.

    supcon:    sum_i (-1/|P(i)|) sum_{p in P(i)}
               log[ exp(z_i.z_p / tau) / sum_{a in A(i)} exp(z_i.z_a / tau) ]
    arcface:   -(1/N) sum_i log[ e^{s cos(theta_yi + m)} /
               (e^{s cos(theta_yi + m)} + sum_{j != yi} e^{s cos theta_j}) ]
    softmax:   arcface at m = 0, the cross-entropy over s * (z . W^T)
    aamsupcon: arcface + lam * supcon; lam = 0 gives arcface exactly (the
               masks are still built, so a malformed batch fails anyway).
    """
    kind = _member(LossKind, kind, "loss kind")
    validate_inputs(inputs, lam)
    masks = supcon_masks(inputs.labels, convention) if kind.contrastive else None
    return loss_terms(kind, inputs.embeddings, inputs.labels, inputs.class_weights,
                      inputs.temperature, inputs.margin, inputs.scale, masks, lam)[:3]


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
               lam: float = 1.0) -> float:
    """Compare analytic gradients against central finite differences.

    Perturbations are applied to the raw embedding and class-weight entries
    (no re-normalization), matching the gradient semantics above. Returns
    the largest per-component relative error over both matrices. The kind
    is taken as evaluate_loss takes it.
    """
    kind = _member(LossKind, kind, "loss kind")
    validate_inputs(inputs, lam)
    masks = supcon_masks(inputs.labels, convention) if kind.contrastive else None
    z, w = inputs.embeddings, inputs.class_weights

    def terms():
        return loss_terms(kind, z, inputs.labels, w, inputs.temperature,
                          inputs.margin, inputs.scale, masks, lam)

    _, grad_z, grad_w, _ = terms()
    return fd_report(lambda: terms()[0], [z, w], [grad_z, grad_w], step)


def fd_report(value_fn, arrays, analytic, step: float) -> float:
    """Central finite differences of value_fn() w.r.t. every entry of each
    array, perturbing the arrays in place and restoring them, held against
    the matching analytic gradients: the largest relative_errors over all
    entries. ConfigError for a step that is not > 0."""
    if not step > 0:
        raise ConfigError(f"step must be > 0, got {step}")
    errors = []
    for arr, grad in zip(arrays, analytic):
        numeric = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + step
            hi = value_fn()
            arr[idx] = orig - step
            lo = value_fn()
            arr[idx] = orig
            numeric[idx] = (hi - lo) / (2.0 * step)
        errors.append(relative_errors(grad, numeric))
    return float(np.concatenate(errors).max())
