"""SGD training loop wiring batching -> model -> losses.

The loop is steps-based with a freshly sampled multiview batch per step,
classic SGD with momentum, and class-weight rows projected back onto the
sphere after every update. Fully deterministic given (config, seed): two
runs produce identical loss sequences and identical parameters.
"""

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .batching import BatchSampler
from .errors import (TEXT_FLOATS, ConfigError, DivergenceDetected, ZeroVector, check_domains,
                     empty_aligned, text_lines, write_file)
from .geometry import normalize_rows, normalize_rows_backward
from .losses import (
    DenominatorConvention,
    KernelBuffers,
    LossKind,
    fd_report,
    loss_terms,
    supcon_masks,
)
from .model import (
    NetworkParams,
    SPACES,
    Workspace,
    backward,
    encoder_embeddings,
    flat_copy,
    forward,
    init_params,
    param_arrays,
)


@dataclass(frozen=True)
class TrainConfig:
    """The [training], [model] and [augment] config sections. A field's
    config key is training.<field> unless its metadata names another."""

    loss_kind: LossKind = field(default=LossKind.AAMSUPCON, metadata={"key": "training.loss"})
    temperature: float = field(default=0.07, metadata={"domain": "(0, inf)"})
    margin: float = field(default=0.2, metadata={"domain": "[0, pi/2)"})
    scale: float = field(default=30.0, metadata={"domain": "(0, inf)"})
    lam: float = field(default=1.0, metadata={"key": "training.lambda", "domain": "[0, inf)"})
    convention: DenominatorConvention = DenominatorConvention.ALL_NON_ANCHOR
    learning_rate: float = field(default=0.003, metadata={"domain": "[0, inf)"})
    momentum: float = field(default=0.9, metadata={"domain": "[0, 1)"})
    steps: int = field(default=1000, metadata={"domain": "[0, inf)"})
    batch_speakers: int = field(default=8, metadata={"domain": "[1, inf)"})
    views_per_speaker: int = field(default=2, metadata={"domain": "[1, inf)"})
    seed: int = field(default=0, metadata={"domain": "[0, inf)"})
    encoder_hidden: tuple[int, ...] = field(
        default=(64, 64), metadata={"key": "model.encoder_hidden", "domain": "[1, inf)"})
    proj_hidden: int = field(default=128, metadata={"key": "model.proj_hidden",
                                                    "domain": "[1, inf)"})
    embedding_dim: int = field(default=128, metadata={"key": "model.embedding_dim",
                                                      "domain": "[2, inf)"})
    noise_sigma: float = field(default=0.1, metadata={"key": "augment.noise_sigma",
                                                      "domain": "[0, inf)"})
    mask_max: int | None = field(default=None, metadata={"key": "augment.mask_max",
                                                         "domain": "[0, inf)"})
    # which of model.SPACES the softmax/margin classifier term reads
    classifier_space: str = field(default="projection", metadata={"domain": SPACES})

    def __post_init__(self):
        """Resolve and check every field, then the two rules that span fields."""
        check_domains(self, "training")
        if self.batch_speakers < self.least_batch_speakers():
            raise ConfigError("training.convention = strict_negatives needs "
                              "training.batch_speakers >= 2: a one-speaker batch "
                              "has no negatives")
        if self.classifier_space == "encoder" and self.encoder_hidden[-1] < 2:
            raise ConfigError("model.encoder_hidden must end in a width >= 2 with "
                              "training.classifier_space = encoder, got "
                              f"{list(self.encoder_hidden)}")

    def least_batch_speakers(self) -> int:
        """2 when strict negatives need a second speaker in a batch, else 1."""
        strict = self.convention is DenominatorConvention.STRICT_NEGATIVES
        return 2 if strict and self.loss_kind.contrastive else 1

    def class_dim(self) -> int | None:
        return self.encoder_hidden[-1] if self.classifier_space == "encoder" else None


# The phases of a training step, in the order train runs them; its clock
# has one column per phase.
PHASES = ("draw", "forward", "loss", "backward", "update")


@dataclass
class RunLog:
    """A run's record, row i for step i. records has the float64 columns
    loss, grad_norm and wall_time, the seconds from after the step's batch
    draw to after its update. clock is the (steps, len(PHASES)) int64 array
    of the nanoseconds each phase of a step took, by time.perf_counter_ns; a
    step's draw starts where the step before it ended, and step 0's where
    the loop starts. train draws its batches a block at a time, so the draw
    column holds each block's draws at the step that draws the block and
    the slot lookup at every other step; it still sums to the run's draw
    time. wall_time is the sum of a row's columns from forward on, over
    1e9."""

    records: np.recarray
    clock: np.ndarray


class _Run:
    """One run's state, built once and reused by every step: the checked
    config, the BatchSampler, the seeded parameters (class k is the k-th
    smallest id), the Workspace and KernelBuffers for the batch size, and
    masks, the contrast masks of every batch (None without a contrastive
    term): the sampler's speakers are distinct and their rows follow its
    layout. Parameters, gradients and velocity each live in one flat
    vector, the first two viewed as a NetworkParams, so the update is a few
    in-place operations whatever the network's depth; update overwrites the
    gradients, which the next step's loss and backward write afresh. Every
    array the run reuses starts on a cache line (errors.empty_aligned)."""

    def __init__(self, config: TrainConfig, features, speaker_ids):
        self.config = config
        self.sampler = BatchSampler(features, speaker_ids, config.batch_speakers,
                                    config.views_per_speaker, config.noise_sigma,
                                    config.mask_max)
        init = init_params([self.sampler.rows.shape[1], *config.encoder_hidden],
                           config.proj_hidden, config.embedding_dim, self.sampler.counts.size,
                           config.seed, class_dim=config.class_dim())
        self.flat_params, self.params = flat_copy(init)
        self.flat_grads, self.grads = flat_copy(init)
        self.velocity = empty_aligned(self.flat_params.size)
        self.velocity.fill(0.0)
        n = self.sampler.layout.size
        self.ws = Workspace(init, n)
        self.bufs = KernelBuffers(n, init.d_out, *init.class_weights.shape,
                                  grad_w=self.grads.class_weights)
        self.masks = (supcon_masks(self.sampler.layout, config.convention)
                      if config.loss_kind.contrastive else None)
        self.grad_proj = self.grad_enc = None

    def loss(self, labels) -> float:
        """The configured loss of the batch the last forward wrote into ws,
        unvalidated (its config checked itself, forward yields unit rows
        and update renormalizes the class weights): the value, with
        grads.class_weights written and grad_proj and grad_enc left for
        backward. grad_enc is None unless a margin term reads the encoder
        output, which it normalizes into ws.encoder_rows."""
        config, ws = self.config, self.ws
        h = encoder_embeddings(ws) if config.classifier_space == "encoder" else None
        value, self.grad_proj, _, grad_h = loss_terms(
            config.loss_kind, ws.embeddings, labels, self.params.class_weights,
            config.temperature, config.margin, config.scale, self.masks, config.lam, self.bufs, h)
        self.grad_enc = (None if grad_h is None
                         else normalize_rows_backward(grad_h, *ws.encoder_rows))
        return value

    def update(self, step: int) -> float:
        """One SGD-with-momentum step from grads, the class-weight rows then
        renormalized, and the gradient norm returned. Class weights whose
        norm leaves (EPS_NORM, inf) raise DivergenceDetected at step.

        The gradients are folded into the velocity first; the gradient
        vector then holds their squares, for the norm, then the step
        learning_rate * velocity, then the class weights' squares."""
        config, grads = self.config, self.flat_grads
        self.velocity *= config.momentum
        self.velocity += grads
        np.multiply(grads, grads, out=grads)
        grad_norm = _global_norm(self.grads)
        if config.learning_rate != 0.0:
            self.flat_params -= np.multiply(self.velocity, config.learning_rate, out=grads)
            weights = self.params.class_weights
            try:
                normalize_rows(weights, out=weights, squares=self.grads.class_weights)
            except ZeroVector as exc:
                raise DivergenceDetected(
                    step, f"class weights overflowed at step {step}: {exc}") from exc
        return grad_norm


def train(config: TrainConfig, features, speaker_ids):
    """Run config.steps SGD-with-momentum updates on the rows of features
    (N, d_in) labelled by speaker_ids (N,) and return (params, log).

    Class weights are re-normalized after every update so the margin loss's
    cosine reading stays valid. A non-finite loss, or a projection output or
    class weight row whose norm leaves (EPS_NORM, inf), aborts with
    DivergenceDetected carrying the step index.

    The returned params are views of one flat vector. Every array that
    forward, the loss kernels, backward, the update and the batch sampler
    write is allocated once per run, by its _Run, and reused by every step;
    so is the log, one row per step, which each step writes in place, its
    clock read at each boundary of PHASES. Steps k*K to k*K + K - 1 take
    their batches from one sampler.draw_block, K being its block_size,
    drawn at step k*K: the same draws, in the same order, as one draw per
    step. The step calls forward and backward by this module's names,
    which tracers and tests replace.
    """
    run = _Run(config, features, speaker_ids)
    log = RunLog(np.recarray(config.steps, formats="f8,f8,f8",
                             names="loss,grad_norm,wall_time"),
                 np.empty((config.steps, len(PHASES)), dtype=np.int64))
    losses, grad_norms = log.records["loss"], log.records["grad_norm"]
    rng = np.random.default_rng(config.seed)
    sampler, block = run.sampler, run.sampler.block_size
    clock = time.perf_counter_ns
    ended = clock()

    with np.errstate(all="ignore"):
        for step in range(config.steps):
            started = ended
            slot = step % block
            if slot == 0:
                batches, labels = sampler.draw_block(rng, min(block, config.steps - step))
            drawn = clock()
            try:
                forward(run.params, batches[slot], run.ws)
                forwarded = clock()
                value = run.loss(labels[slot])
                scored = clock()
                backward(run.params, run.ws, run.grad_proj, run.grad_enc, run.grads)
            except ZeroVector as exc:
                raise DivergenceDetected(
                    step, f"projection collapsed or overflowed at step {step}: {exc}") from exc
            backed = clock()
            if not math.isfinite(value):
                raise DivergenceDetected(step)
            grad_norms[step] = run.update(step)
            ended = clock()
            losses[step] = value
            log.clock[step] = (drawn - started, forwarded - drawn, scored - forwarded,
                               backed - scored, ended - backed)
    log.records.wall_time = log.clock[:, 1:].sum(axis=1) / 1e9
    return run.params, log


def _global_norm(squares: NetworkParams) -> float:
    """The gradient norm from the squared gradients, summed array by array
    in checkpoint order (its bits depend on that order). Each array is
    summed by np.add.reduce(axis=None), the call np.sum makes for an
    ndarray, without np.sum's dispatch."""
    total = 0.0
    for sw, sb in squares.encoder_layers:
        total += float(np.add.reduce(sw, axis=None)) + float(np.add.reduce(sb, axis=None))
    total += float(np.add.reduce(squares.proj_w1, axis=None))
    total += float(np.add.reduce(squares.proj_w2, axis=None))
    total += float(np.add.reduce(squares.class_weights, axis=None))
    return float(np.sqrt(total))


def save_runlog(path, log: RunLog) -> None:
    """Delimited text, one record per step: step, loss, gradient norm.

    Wall times are deliberately not serialized so that reruns with the same
    config and seed produce byte-identical log files. The records go to
    write_file as errors.text_lines writes them, TEXT_FLOATS // 2 steps at
    a time, so the log's text never exists whole."""
    rec, rows = log.records, TEXT_FLOATS // 2
    write_file(path, itertools.chain([b"step loss grad_norm\n"], (
        text_lines(np.arange(start, min(start + rows, rec.size)), b" ",
                   rec.loss[start:start + rows], b" ", rec.grad_norm[start:start + rows], b"\n")
        for start in range(0, rec.size, rows))), "run log")


def end_to_end_grad_check(config: TrainConfig, features, speaker_ids,
                          step: float = 1e-6, batch_seed: int = 0) -> float:
    """Finite-difference check of d(loss)/d(params) through the whole
    network (forward -> loss -> backward) on one sampled batch: the largest
    per-component relative error. fd_report refuses a step outside (0, inf)."""
    run = _Run(config, features, speaker_ids)
    batch, labels = run.sampler.draw(np.random.default_rng(batch_seed))

    def probe():
        forward(run.params, batch, run.ws)
        return run.loss(labels)

    probe()
    backward(run.params, run.ws, run.grad_proj, run.grad_enc, run.grads)
    analytic = param_arrays(flat_copy(run.grads)[1])  # each probe's loss writes grads
    return fd_report(probe, param_arrays(run.params), analytic, step)
