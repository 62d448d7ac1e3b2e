"""SGD training loop wiring batching -> model -> losses.

The loop is steps-based with a freshly sampled multiview batch per step,
classic SGD with momentum, and class-weight rows projected back onto the
sphere after every update. Fully deterministic given (config, seed): two
runs produce identical loss sequences and identical parameters.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .batching import AugmentPolicy, batch_layout, build_batch, group_by_speaker
from .errors import DivergenceDetected, InvalidMargin, IoError, ZeroVector
from .geometry import normalize_rows
from .losses import (
    DenominatorConvention,
    GradCheckReport,
    LossKind,
    SupconMasks,
    _central_diff,
    loss_terms,
    relative_errors,
    supcon_masks,
)
from .model import (
    NetworkParams,
    ParamGrads,
    backward,
    encoder_embeddings,
    flat_copy,
    forward,
    init_params,
    param_arrays,
)


@dataclass
class TrainConfig:
    """The [training], [model] and [augment] config sections. A field's
    config key is training.<field> unless its metadata names another."""

    loss_kind: LossKind = field(default=LossKind.AAMSUPCON, metadata={"key": "training.loss"})
    temperature: float = 0.07
    margin: float = 0.2
    scale: float = 30.0
    lam: float = field(default=1.0, metadata={"key": "training.lambda"})
    convention: DenominatorConvention = DenominatorConvention.ALL_NON_ANCHOR
    learning_rate: float = 0.003
    momentum: float = 0.9
    steps: int = 1000
    batch_speakers: int = 8
    views_per_speaker: int = 2
    seed: int = 0
    encoder_hidden: tuple[int, ...] = field(default=(64, 64),
                                            metadata={"key": "model.encoder_hidden"})
    proj_hidden: int = field(default=128, metadata={"key": "model.proj_hidden"})
    embedding_dim: int = field(default=128, metadata={"key": "model.embedding_dim"})
    noise_sigma: float = field(default=0.1, metadata={"key": "augment.noise_sigma"})
    mask_max: int | None = field(default=None, metadata={"key": "augment.mask_max"})
    # which representation the softmax/margin classifier term consumes:
    # "projection" (the contrastive embedding z) or "encoder" (normalized h)
    classifier_space: str = "projection"

    def validate(self) -> None:
        """Check every field's domain once per run; messages name the
        config-file key."""
        if not 0.0 < self.temperature < np.inf:
            raise ValueError(
                f"training.temperature must be finite and > 0, got {self.temperature}")
        if not (0.0 <= self.margin < np.pi / 2):
            raise InvalidMargin(f"training.margin must be in [0, pi/2), got {self.margin}")
        if not 0.0 < self.scale < np.inf:
            raise ValueError(f"training.scale must be finite and > 0, got {self.scale}")
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"training.lambda must be finite and >= 0, got {self.lam}")
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError(
                f"training.learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"training.momentum must be in [0, 1), got {self.momentum}")
        if self.steps < 0:
            raise ValueError(f"training.steps must be >= 0, got {self.steps}")
        if self.seed < 0:
            raise ValueError(f"training.seed must be >= 0, got {self.seed}")
        for key in ("batch_speakers", "views_per_speaker"):
            if getattr(self, key) < 1:
                raise ValueError(f"training.{key} must be >= 1, got {getattr(self, key)}")
        if (self.loss_kind.contrastive and self.batch_speakers < 2
                and self.convention is DenominatorConvention.STRICT_NEGATIVES):
            raise ValueError("training.convention = strict_negatives needs "
                             "training.batch_speakers >= 2: a one-speaker batch "
                             "has no negatives")
        if self.classifier_space not in ("projection", "encoder"):
            raise ValueError("training.classifier_space must be projection|encoder, "
                             f"got {self.classifier_space!r}")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValueError(
                f"augment.noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.mask_max is not None and self.mask_max < 0:
            raise ValueError(f"augment.mask_max must be >= 0, got {self.mask_max}")
        if not all(width >= 1 for width in self.encoder_hidden):
            raise ValueError("model.encoder_hidden entries must be >= 1, "
                             f"got {list(self.encoder_hidden)}")
        if self.proj_hidden < 1:
            raise ValueError(f"model.proj_hidden must be >= 1, got {self.proj_hidden}")
        if self.embedding_dim < 2:
            raise ValueError(f"model.embedding_dim must be >= 2, got {self.embedding_dim}")

    def class_dim(self) -> int | None:
        return self.encoder_hidden[-1] if self.classifier_space == "encoder" else None

    def augment_policy(self) -> AugmentPolicy:
        return AugmentPolicy(self.noise_sigma, self.mask_max)


@dataclass
class StepRecord:
    step: int
    loss: float
    grad_norm: float
    wall_time: float


@dataclass
class RunLog:
    records: list = field(default_factory=list)


def run_masks(config: TrainConfig) -> SupconMasks | None:
    """The contrast masks of every batch a run draws, or None when the loss
    has no contrastive term. build_batch puts each chosen speaker's rows at
    the positions batch_layout gives, and its speakers are distinct, so the
    masks depend on batch_speakers and views_per_speaker alone."""
    if not config.loss_kind.contrastive:
        return None
    return supcon_masks(batch_layout(config.batch_speakers, config.views_per_speaker),
                        config.convention)


def _trace_loss(config: TrainConfig, params: NetworkParams, trace,
                dense_labels: np.ndarray, masks: SupconMasks | None):
    """Evaluate the configured loss on a forward trace, without input
    validation: the config was validated once per run, forward() yields
    unit rows and the class weights are renormalized after every update.
    masks is the supcon_masks of dense_labels (None for a loss without a
    contrastive term).

    Returns (value, grad_projection, grad_encoder, grad_class_weights); the
    encoder slot is None unless the classifier term runs in encoder space."""
    kind = config.loss_kind
    z = trace.embeddings
    w = params.class_weights
    hyper = (config.temperature, config.margin, config.scale)
    if config.classifier_space == "projection" or kind is LossKind.SUPCON:
        value, grad_z, grad_w = loss_terms(kind, z, dense_labels, w, *hyper,
                                           masks, config.lam)
        return value, grad_z, None, grad_w

    cls_kind = LossKind.SOFTMAX if kind is LossKind.SOFTMAX else LossKind.ARCFACE
    value, grad_enc, grad_w = loss_terms(cls_kind, encoder_embeddings(trace),
                                         dense_labels, w, *hyper)
    if kind is not LossKind.AAMSUPCON:
        return value, None, grad_enc, grad_w
    # the contrastive term stays in projection space
    sup_value, sup_grad, _ = loss_terms(LossKind.SUPCON, z, dense_labels, w,
                                        *hyper, masks)
    return value + config.lam * sup_value, config.lam * sup_grad, grad_enc, grad_w


def _value_and_grads(config: TrainConfig, params: NetworkParams, features,
                     dense_labels, masks: SupconMasks | None,
                     out: ParamGrads | None = None):
    """Forward, loss and backward: (value, ParamGrads) for one batch. The
    gradients are written into out when it is given (see model.backward)."""
    trace = forward(params, features)
    value, grad_proj, grad_enc, grad_w = _trace_loss(config, params, trace,
                                                     dense_labels, masks)
    if grad_proj is None:
        grad_proj = np.zeros_like(trace.embeddings)
    grads = backward(params, trace, grad_proj, grad_enc, out)
    np.copyto(grads.class_weights, grad_w)
    return value, grads


def _start(config: TrainConfig, features, speaker_ids):
    """Validate the config, group the rows by speaker once and seed the
    parameters: (features, groups, params); class k is the k-th smallest id."""
    config.validate()
    features = np.asarray(features, dtype=np.float64)
    _, groups = group_by_speaker(speaker_ids)
    params = init_params([features.shape[1], *config.encoder_hidden], config.proj_hidden,
                         config.embedding_dim, len(groups), config.seed,
                         class_dim=config.class_dim())
    return features, groups, params


def train(config: TrainConfig, features, speaker_ids):
    """Run config.steps SGD-with-momentum updates on the rows of features
    (N, d_in) labelled by speaker_ids (N,) and return (params, log).

    Class weights are re-normalized after every update so the margin loss's
    cosine reading stays valid. A non-finite loss (or a collapsed projection
    output) aborts with DivergenceDetected carrying the step index.

    The parameters, their gradients and the momentum each live in one flat
    vector (the returned params are views of it), so the update is three
    in-place operations whatever the depth of the network.
    """
    features, groups, init = _start(config, features, speaker_ids)
    flat_params, params = flat_copy(init)
    flat_grads, grads = flat_copy(init, ParamGrads)
    velocity = np.zeros_like(flat_params)
    masks = run_masks(config)
    policy = config.augment_policy()
    rng = np.random.default_rng(config.seed)
    log = RunLog()

    for step in range(config.steps):
        batch, labels = build_batch(features, groups, config.batch_speakers,
                                    config.views_per_speaker, policy, rng)
        started = time.perf_counter()
        with np.errstate(all="ignore"):
            try:
                value, _ = _value_and_grads(config, params, batch, labels, masks, grads)
            except ZeroVector as exc:
                raise DivergenceDetected(step, f"projection collapsed at step {step}") from exc
            if not np.isfinite(value):
                raise DivergenceDetected(step)
            grad_norm = _global_norm(grads)
            velocity *= config.momentum
            velocity += flat_grads
            if config.learning_rate != 0.0:
                flat_params -= config.learning_rate * velocity
                params.class_weights[...] = normalize_rows(params.class_weights)
        log.records.append(StepRecord(step, value, grad_norm,
                                      time.perf_counter() - started))
    return params, log


def _global_norm(grads) -> float:
    total = 0.0
    for gw, gb in grads.encoder_layers:
        total += float(np.sum(gw * gw)) + float(np.sum(gb * gb))
    total += float(np.sum(grads.proj_w1 ** 2))
    total += float(np.sum(grads.proj_w2 ** 2))
    total += float(np.sum(grads.class_weights ** 2))
    return float(np.sqrt(total))


def save_runlog(path, log: RunLog) -> None:
    """Delimited text, one record per step: step, loss, gradient norm.

    Wall times are deliberately not serialized so that reruns with the same
    config and seed produce byte-identical log files."""
    lines = ["step loss grad_norm"]
    for rec in log.records:
        lines.append("%d %.17g %.17g" % (rec.step, rec.loss, rec.grad_norm))
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write run log to {path}: {exc}") from exc


def load_runlog(path) -> RunLog:
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read run log from {path}: {exc}") from exc
    log = RunLog()
    for line in lines[1:]:
        step, loss, grad_norm = line.split()
        log.records.append(StepRecord(int(step), float(loss), float(grad_norm), 0.0))
    return log


def end_to_end_grad_check(config: TrainConfig, features, speaker_ids,
                          step: float = 1e-6, batch_seed: int = 0) -> GradCheckReport:
    """Finite-difference check of d(loss)/d(params) through the whole
    network (forward -> loss -> backward) on one sampled batch."""
    features, groups, params = _start(config, features, speaker_ids)
    rng = np.random.default_rng(batch_seed)
    batch, labels = build_batch(features, groups, config.batch_speakers,
                                config.views_per_speaker, config.augment_policy(), rng)
    masks = run_masks(config)

    _, grads = _value_and_grads(config, params, batch, labels, masks)
    fds = _central_diff(
        lambda: _trace_loss(config, params, forward(params, batch), labels, masks)[0],
        param_arrays(params), step)
    flat = np.concatenate([relative_errors(analytic, fd)
                           for analytic, fd in zip(param_arrays(grads), fds)])
    return GradCheckReport(float(flat.max()), float(flat.mean()), int(flat.size))
