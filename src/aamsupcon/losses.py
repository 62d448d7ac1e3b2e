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
from .errors import ConfigError, check_in, empty_aligned, integer_array

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
    """Check the LossInputs invariants and lam, raising ConfigError on violation;
    the hyperparameters against the domains of their TrainConfig fields."""
    z, y, w = inputs.embeddings, inputs.labels, inputs.class_weights
    if z.ndim != 2 or w.ndim != 2 or y.ndim != 1:
        raise ConfigError("embeddings/class_weights must be 2-D, labels 1-D")
    if z.shape[0] != y.shape[0]:
        raise ConfigError(f"{z.shape[0]} embeddings but {y.shape[0]} labels")
    if z.shape[1] != w.shape[1]:
        raise ConfigError(
            f"embedding dim {z.shape[1]} != class-weight dim {w.shape[1]}")
    outside = (y < 0) | (y >= w.shape[0])
    if outside.any():
        k = int(np.argmax(outside))
        check_in(int(y[k]), f"[0, {w.shape[0]})", f"label {k}")
    for name, mat in (("embedding", z), ("class_weight", w)):
        norms = np.linalg.norm(mat, axis=1)
        drift = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
        if not drift <= UNIT_NORM_TOL:  # a NaN drift fails too
            raise ConfigError(f"{name} rows deviate from unit norm by {drift:.3e}")
    check_in(inputs.temperature, "(0, inf)", "temperature")
    check_in(inputs.scale, "(0, inf)", "scale")
    check_in(inputs.margin, "[0, pi/2)", "margin")
    check_in(lam, "[0, inf)", "lam")


class SupconMasks(NamedTuple):
    """The contrast masks in the form _supcon_raw reads: pos_flat, the flat
    index i*N + j of every (i, j) with j in P(i); not_cand_flat, that of
    every (i, j) with j not in A(i); pcount, |P(i)| as float64; and
    pos_frac, 1 / |P(i)| at each index of pos_flat. A batch layout fixes
    all four, so a trainer builds them once per run."""

    pos_flat: np.ndarray
    not_cand_flat: np.ndarray
    pcount: np.ndarray
    pos_frac: np.ndarray


def supcon_masks(labels, convention=DenominatorConvention.ALL_NON_ANCHOR) -> SupconMasks:
    """P(i) and the denominator set A(i) for every anchor, as the flat
    indices of SupconMasks, with what the contrastive kernel derives from
    them.

    pos[i, j] = (labels[i] == labels[j]) and i != j; A(i) is i != j, or
    labels[i] != labels[j] under strict negatives (the convention or its value).
    Raises ConfigError for any other convention, for labels that are not a
    1-D array of integers, for N < 2, when an anchor has no same-label
    partner, and when strict negatives leave a denominator empty.
    """
    convention = check_in(convention, DenominatorConvention, "convention")
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ConfigError(f"labels must be 1-D, got shape {labels.shape}")
    labels = integer_array(labels, "label")
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
    pos_flat = np.flatnonzero(pos)
    return SupconMasks(pos_flat, np.flatnonzero(~cand), pcount, 1.0 / pcount[pos_flat // n])


class KernelBuffers:
    """The arrays one loss_terms call writes, built once for a batch shape
    and overwritten by every call: two (N, N) contrastive buffers, the
    (N, C) margin-softmax buffer, the margin term's d/dz (N, class_dim),
    the contrastive term's d/dz (N, d) and d/dw (C, class_dim); and
    row_starts, the flat index of each row's first logit, which the
    labels offset to the target logits. Each array it makes starts on a
    cache line (errors.empty_aligned). A trainer passes the class-weight
    view of its flat gradient vector as grad_w, so the kernel writes that
    gradient in place."""

    __slots__ = ("sims", "sims_t", "logits", "grad_z", "grad_sup", "grad_w", "row_starts")

    def __init__(self, n: int, d: int, num_classes: int, class_dim: int,
                 grad_w: np.ndarray | None = None):
        self.sims = empty_aligned((n, n))
        self.sims_t = empty_aligned((n, n))
        self.logits = empty_aligned((n, num_classes))
        self.grad_z = empty_aligned((n, class_dim))
        self.grad_sup = empty_aligned((n, d))
        self.grad_w = empty_aligned((num_classes, class_dim)) if grad_w is None else grad_w
        self.row_starts = np.multiply(np.arange(n), num_classes, out=empty_aligned(n, np.intp))


def _softmax_rows(buf: np.ndarray) -> np.ndarray:
    """Overwrite the rows of buf with their softmax and return their
    log-sum-exp: the row max plus the log of the shifted exponentials' sum.
    The reductions are the ufunc calls buf.max and buf.sum make."""
    row_max = np.maximum.reduce(buf, axis=1)
    buf -= row_max[:, None]
    np.exp(buf, out=buf)
    sums = np.add.reduce(buf, axis=1)
    buf /= sums[:, None]
    return row_max + np.log(sums)


def _supcon_raw(z: np.ndarray, masks: SupconMasks, tau: float, bufs: KernelBuffers):
    """Value and d/dz of the contrastive sum over the masks; d/dz is
    bufs.grad_sup.

    bufs.sims holds the similarities, then the shifted exponentials, then
    the softmax and finally G, the gradient w.r.t. the similarities;
    bufs.sims_t holds the positive similarities, zero elsewhere, then
    G + G^T. Each row's positive sum is the dense reduction over that row,
    and G takes 1/|P(i)| off the positives alone, x - 0.0 being x."""
    buf = np.matmul(z, z.T, out=bufs.sims)
    buf /= tau
    sims, pos_part = buf.reshape(-1), bufs.sims_t
    # summed before the candidate mask hides the positives strict negatives exclude
    pos_part.fill(0.0)
    pos_part.reshape(-1)[masks.pos_flat] = sims[masks.pos_flat]
    pos_sums = np.add.reduce(pos_part, axis=1)
    sims[masks.not_cand_flat] = -np.inf
    value = float(np.add.reduce(_softmax_rows(buf) - pos_sums / masks.pcount))

    # d(value)/d(sims): softmax weight on candidates minus 1/|P(i)| on positives.
    sims[masks.pos_flat] -= masks.pos_frac
    buf /= tau
    return value, np.matmul(np.add(buf, buf.T, out=pos_part), z, out=bufs.grad_sup)


def _margin_softmax_raw(z, labels, w, margin, scale, bufs: KernelBuffers):
    """Cross-entropy over scaled cosine logits with the target column
    penalized by the angular margin; margin == 0 is the plain softmax path.
    Returns (value, grad_z, grad_w), the gradients being bufs.grad_z and
    bufs.grad_w.

    bufs.logits holds the cosines, then the logits, the shifted
    exponentials, the softmax and finally the gradient w.r.t. the logits.
    The target logits are read and written through their flat indices,
    bufs.row_starts + labels; with a margin, one geometry.margin_map call
    gives them and the slope the gradient takes. The mean is np.mean's sum
    over n."""
    n = z.shape[0]
    buf = np.matmul(z, w.T, out=bufs.logits)
    logits, targets = buf.reshape(-1), bufs.row_starts + labels
    if margin != 0.0:
        logits[targets], slope = geometry.margin_map(logits[targets], margin)
    buf *= scale
    target_logits = logits[targets]
    value = float(np.add.reduce(_softmax_rows(buf) - target_logits) / n)

    logits[targets] -= 1.0
    buf *= scale / n
    if margin != 0.0:
        logits[targets] *= slope
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
    kind = check_in(kind, LossKind, "loss kind")
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
    kind = check_in(kind, LossKind, "loss kind")
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
    entries. ConfigError for a step outside (0, inf)."""
    check_in(step, "(0, inf)", "step")
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
