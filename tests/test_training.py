import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from aamsupcon import batching, losses, model, training
from aamsupcon.batching import BatchSampler, group_by_speaker
from aamsupcon.errors import ConfigError, DivergenceDetected, ZeroVector
from aamsupcon.geometry import normalize_rows
from aamsupcon.losses import DenominatorConvention, LossKind
from aamsupcon.model import backward, forward, init_params, param_arrays, save_checkpoint
from aamsupcon.synthdata import DatasetSpec, generate
from aamsupcon.training import (
    RunLog,
    TrainConfig,
    end_to_end_grad_check,
    save_runlog,
    train,
)
from oracles import (
    contrast_masks,
    reference_margin_softmax_raw,
    reference_supcon_raw,
    reference_terms,
)

SMALL_NET = dict(encoder_hidden=(32, 32), proj_hidden=32, embedding_dim=16)


def _dataset(spread=0.1, speakers=8, utterances=6, d_in=20, seed=0):
    """(features, speaker_ids) of a generated dataset."""
    features, speaker_ids, _ = generate(DatasetSpec(speakers, utterances, d_in, spread, seed))
    return features, speaker_ids


def _runlog(loss, grad_norm, wall_time):
    """A RunLog whose records hold the three given columns, its clock zeros."""
    return RunLog(np.rec.fromarrays([loss, grad_norm, wall_time],
                                    names="loss,grad_norm,wall_time"),
                  np.zeros((len(loss), len(training.PHASES)), dtype=np.int64))


def _forward_loss_backward(run, batch, labels):
    """What a training step runs between its draw and its update on run:
    the loss value, with the gradients written into run.grads."""
    forward(run.params, batch, run.ws)
    value = run.loss(labels)
    backward(run.params, run.ws, run.grad_proj, run.grad_enc, run.grads)
    return value


def load_runlog(path) -> RunLog:
    """Parse save_runlog's text back into a RunLog (wall times read 0); its
    step column must count the rows from 0."""
    with open(path, "r", encoding="ascii") as fh:
        rows = [line.split() for line in fh.read().splitlines()[1:]]
    assert [int(step) for step, _, _ in rows] == list(range(len(rows)))
    return _runlog([float(loss) for _, loss, _ in rows],
                   [float(norm) for _, _, norm in rows], [0.0] * len(rows))


def _params_equal(a, b):
    return (all(np.array_equal(wa, wb) and np.array_equal(ba, bb)
                for (wa, ba), (wb, bb) in zip(a.encoder_layers, b.encoder_layers))
            and np.array_equal(a.proj_w1, b.proj_w1)
            and np.array_equal(a.proj_w2, b.proj_w2)
            and np.array_equal(a.class_weights, b.class_weights))


def test_zero_steps_returns_fresh_init():
    data = _dataset()
    cfg = TrainConfig(steps=0, batch_speakers=4, seed=9, **SMALL_NET)
    params, log = train(cfg, *data)
    fresh = init_params([20, 32, 32], 32, 16, 8, seed=9)
    assert _params_equal(params, fresh)
    assert log.records.size == 0


def test_zero_learning_rate_freezes_params_and_loss():
    data = _dataset(speakers=4, utterances=2)
    # the batch covers the whole dataset and augmentation is the identity,
    # so every step sees the same samples up to ordering and the loss is
    # permutation-invariant
    cfg = TrainConfig(steps=8, learning_rate=0.0, batch_speakers=4,
                      views_per_speaker=2, noise_sigma=0.0, mask_max=0,
                      seed=2, **SMALL_NET)
    params, log = train(cfg, *data)
    assert _params_equal(params, init_params([20, 32, 32], 32, 16, 4, seed=2))
    losses = [rec.loss for rec in log.records]
    assert max(losses) - min(losses) < 1e-12


def test_training_is_bit_reproducible():
    data = _dataset()
    cfg = TrainConfig(steps=30, batch_speakers=4, seed=5, **SMALL_NET)
    params_a, log_a = train(cfg, *data)
    params_b, log_b = train(cfg, *data)
    assert _params_equal(params_a, params_b)
    assert [r.loss for r in log_a.records] == [r.loss for r in log_b.records]
    assert [r.grad_norm for r in log_a.records] == [r.grad_norm for r in log_b.records]


def test_loss_improves_over_500_steps():
    data = _dataset(spread=0.2, speakers=16, utterances=8, d_in=20, seed=4)
    cfg = TrainConfig(steps=500, batch_speakers=8, seed=0, **SMALL_NET)
    params, log = train(cfg, *data)
    assert all(np.isfinite(rec.loss) for rec in log.records)
    assert log.records[-1].loss < log.records[0].loss


def test_within_speaker_cosine_beats_cross_speaker_after_training():
    feats, labels = _dataset(spread=0.05, speakers=8, utterances=6, d_in=20, seed=1)
    cfg = TrainConfig(steps=500, batch_speakers=4, seed=0, **SMALL_NET)
    params, _ = train(cfg, feats, labels)
    emb = forward(params, feats).embeddings
    sims = emb @ emb.T
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(len(labels), dtype=bool)
    assert sims[same & off_diag].mean() > sims[~same].mean()


def test_divergence_detection_reports_step():
    data = _dataset()
    cfg = TrainConfig(steps=20, learning_rate=1e80, batch_speakers=4, seed=0,
                      **SMALL_NET)
    with pytest.raises(DivergenceDetected) as excinfo:
        train(cfg, *data)
    assert 0 <= excinfo.value.step < 20


def test_collapse_during_training_is_divergence():
    # a single projection unit: its relu is zero for some row of the first batch
    data = _dataset()
    cfg = TrainConfig(steps=5, batch_speakers=4, seed=0, encoder_hidden=(32, 32),
                      proj_hidden=1, embedding_dim=16)
    with pytest.raises(DivergenceDetected, match="collapsed") as excinfo:
        train(cfg, *data)
    assert excinfo.value.step == 0
    assert isinstance(excinfo.value.__cause__, ZeroVector)


def test_class_weight_overflow_is_divergence():
    # the first update overflows the class weights, whose norm is then inf
    data = _dataset()
    cfg = TrainConfig(steps=5, learning_rate=1e200, batch_speakers=4, seed=0, **SMALL_NET)
    with pytest.raises(DivergenceDetected,
                       match="class weights overflowed at step 0: row .* has norm inf") as excinfo:
        train(cfg, *data)
    assert excinfo.value.step == 0
    assert isinstance(excinfo.value.__cause__, ZeroVector)


def test_class_weights_stay_unit_norm():
    data = _dataset()
    cfg = TrainConfig(steps=50, batch_speakers=4, seed=3, **SMALL_NET)
    params, _ = train(cfg, *data)
    norms = np.linalg.norm(params.class_weights, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def _fixed_batch(data, speakers, seed=0):
    return BatchSampler(*data, speakers, 2, 0.0, 0).draw(np.random.default_rng(seed))


@pytest.mark.parametrize("space", ["projection", "encoder"])
def test_loss_on_batch_dispatch_identities(space, monkeypatch):
    data = _dataset(speakers=6, utterances=4)
    features, labels = _fixed_batch(data, 4)
    net = dict(SMALL_NET, classifier_space=space, batch_speakers=4, seed=1)

    def run_loss(**loss):
        """A run of the given loss, with its loss of the fixed batch taken."""
        run = training._Run(TrainConfig(**net, **loss), *data)
        forward(run.params, features, run.ws)
        return run, run.loss(labels)

    def value(kind, **loss):
        return run_loss(loss_kind=kind, **loss)[1]

    assert value(LossKind.SOFTMAX) == value(LossKind.ARCFACE, margin=0.0)
    assert value(LossKind.AAMSUPCON) == pytest.approx(
        value(LossKind.ARCFACE) + value(LossKind.SUPCON), abs=1e-12)

    # lambda = 0 is arcface, gradients included, and runs no contrastive kernel
    arc, arc_value = run_loss(loss_kind=LossKind.ARCFACE)

    def no_kernel(*args):
        raise AssertionError("the contrastive kernel ran at lambda = 0")

    monkeypatch.setattr(losses, "_supcon_raw", no_kernel)
    aam, aam_value = run_loss(loss_kind=LossKind.AAMSUPCON, lam=0.0)
    assert aam_value == arc_value
    for run in (aam, arc):
        assert (run.grad_enc is None) == (space == "projection")
    assert np.array_equal(aam.grad_proj, arc.grad_proj)
    assert space == "projection" or np.array_equal(aam.grad_enc, arc.grad_enc)
    assert np.array_equal(aam.grads.class_weights, arc.grads.class_weights)


@pytest.mark.parametrize("space", ["projection", "encoder"])
@pytest.mark.parametrize("kind", list(LossKind))
def test_run_loss_after_forward_repeats_the_step(kind, space):
    """forward into the run's workspace and then run.loss, after a step's
    forward, loss and backward on the same batch, give the step's value and
    the gradients it left for backward and in grads, bit for bit."""
    cfg = TrainConfig(loss_kind=kind, classifier_space=space, batch_speakers=4, seed=2,
                      **SMALL_NET)
    run = training._Run(cfg, *_dataset())
    batch, labels = run.sampler.draw(np.random.default_rng(3))
    value = _forward_loss_backward(run, batch, labels)
    grads = [None if g is None else g.copy()
             for g in (run.grad_proj, run.grad_enc, run.grads.class_weights)]
    forward(run.params, batch, run.ws)
    assert run.loss(labels) == value
    for got, want in zip((run.grad_proj, run.grad_enc, run.grads.class_weights), grads):
        assert (got is None and want is None) or _bits_equal(got, want)
    assert (run.grad_enc is None) == (space == "projection" or kind is LossKind.SUPCON)


@pytest.mark.parametrize("kind", list(LossKind))
def test_end_to_end_gradients_match_finite_differences(kind):
    data = _dataset(speakers=4, utterances=4, d_in=10, seed=9)
    cfg = TrainConfig(loss_kind=kind, encoder_hidden=(16,), proj_hidden=16,
                      embedding_dim=8, batch_speakers=4, views_per_speaker=2,
                      seed=6)
    assert end_to_end_grad_check(cfg, *data, step=1e-6, batch_seed=1) < 1e-4


@pytest.mark.parametrize("kind", [LossKind.SOFTMAX, LossKind.ARCFACE,
                                  LossKind.AAMSUPCON])
def test_end_to_end_gradients_with_encoder_space_classifier(kind):
    data = _dataset(speakers=4, utterances=4, d_in=10, seed=9)
    cfg = TrainConfig(loss_kind=kind, encoder_hidden=(16,), proj_hidden=16,
                      embedding_dim=8, batch_speakers=4, views_per_speaker=2,
                      seed=6, classifier_space="encoder")
    assert end_to_end_grad_check(cfg, *data, step=1e-6, batch_seed=1) < 1e-4


def test_end_to_end_grad_check_builds_one_workspace(monkeypatch):
    """Every probe runs forward and the loss in the run's own workspace and
    kernel buffers: one of each is built for the whole check."""
    built = {"Workspace": 0, "KernelBuffers": 0}

    def counted(module, name):
        original = getattr(module, name)

        def build(*args, **kwargs):
            built[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, build)

    for module in (model, training):
        counted(module, "Workspace")
    for module in (losses, training):
        counted(module, "KernelBuffers")
    data = _dataset(speakers=4, utterances=4, d_in=10, seed=9)
    cfg = TrainConfig(classifier_space="encoder", encoder_hidden=(16,), proj_hidden=16,
                      embedding_dim=8, batch_speakers=4, seed=6)
    assert end_to_end_grad_check(cfg, *data, step=1e-6, batch_seed=1) < 1e-4
    assert built == {"Workspace": 1, "KernelBuffers": 1}


@pytest.mark.parametrize("step", [0.0, -1e-6])
def test_both_gradient_checks_refuse_a_step_not_above_zero(step):
    data = _dataset(speakers=4, utterances=4, d_in=10, seed=9)
    cfg = TrainConfig(encoder_hidden=(16,), proj_hidden=16, embedding_dim=8,
                      batch_speakers=4)
    with pytest.raises(ValueError, match=r"step must be in \(0, inf\)"):
        end_to_end_grad_check(cfg, *data, step=step)
    inputs = losses.LossInputs(normalize_rows(np.ones((4, 3))), np.array([0, 0, 1, 1]),
                               normalize_rows(np.eye(2, 3)), 0.07, 0.2, 30.0)
    with pytest.raises(ValueError, match=r"step must be in \(0, inf\)"):
        losses.grad_check(LossKind.AAMSUPCON, inputs, step=step)


def test_training_with_encoder_space_classifier_improves():
    data = _dataset(spread=0.1, speakers=6, utterances=6, d_in=12, seed=2)
    cfg = TrainConfig(steps=150, batch_speakers=3, seed=1,
                      classifier_space="encoder", encoder_hidden=(24, 24),
                      proj_hidden=24, embedding_dim=12)
    params, log = train(cfg, *data)
    # class weights live in the encoder output space under this flag
    assert params.class_weights.shape == (6, 24)
    assert log.records[-1].loss < log.records[0].loss


def test_config_rejects_unknown_classifier_space():
    with pytest.raises(ValueError):
        TrainConfig(classifier_space="both")


def test_config_resolves_enum_values_and_lists_when_built():
    cfg = TrainConfig(loss_kind="supcon", convention="strict_negatives", encoder_hidden=[8, 4])
    assert cfg.loss_kind is LossKind.SUPCON
    assert cfg.convention is DenominatorConvention.STRICT_NEGATIVES
    assert cfg.encoder_hidden == (8, 4)


@pytest.mark.parametrize("kwargs, message", [
    (dict(steps=2.5), "training.steps must be an integer, got 2.5"),
    (dict(loss_kind="contrastive"), "training.loss must be in {softmax, arcface, supcon, "
                                    "aamsupcon}, got 'contrastive'"),
    (dict(encoder_hidden=(), classifier_space="encoder"), "model.encoder_hidden must be a "
                                                          "non-empty list"),
    (dict(convention="strict_negatives", batch_speakers=1, loss_kind=LossKind.SUPCON),
     "training.convention = strict_negatives needs training.batch_speakers >= 2"),
])
def test_config_refuses_when_built_naming_the_key(kwargs, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        TrainConfig(**kwargs)


def test_train_refuses_non_integer_speaker_ids():
    features, speaker_ids = _dataset(speakers=4, utterances=3)
    cfg = TrainConfig(steps=1, batch_speakers=2, **SMALL_NET)
    with pytest.raises(ConfigError, match="speaker id of row 0 is 0.5, not an integer"):
        train(cfg, features, speaker_ids + 0.5)


def test_runlog_round_trip_and_determinism(tmp_path):
    """Two runs of one config write the same run log and checkpoint bytes,
    whatever their clocks read."""
    data = _dataset()
    cfg = TrainConfig(steps=10, batch_speakers=4, seed=7, **SMALL_NET)
    params, log = train(cfg, *data)
    path = tmp_path / "runlog.txt"
    save_runlog(path, log)
    loaded = load_runlog(path)
    assert loaded.records.loss.tolist() == log.records.loss.tolist()
    assert loaded.records.grad_norm.tolist() == log.records.grad_norm.tolist()

    params2, log2 = train(cfg, *data)
    path2 = tmp_path / "runlog2.txt"
    save_runlog(path2, log2)
    assert path.read_bytes() == path2.read_bytes()
    save_checkpoint(tmp_path / "a.bin", params)
    save_checkpoint(tmp_path / "b.bin", params2)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


@pytest.mark.parametrize("steps", [0, 1, 7])
def test_runlog_clock_holds_each_phase_of_each_step(steps):
    cfg = TrainConfig(steps=steps, batch_speakers=4, seed=3, **SMALL_NET)
    _, log = train(cfg, *_dataset())
    assert training.PHASES == ("draw", "forward", "loss", "backward", "update")
    assert log.clock.shape == (steps, 5) and log.clock.dtype == np.int64
    assert (log.clock >= 0).all()
    # wall_time is forward through update, in seconds
    want = log.clock[:, 1:].sum(axis=1) / 1e9
    assert np.array_equal(log.records.wall_time.view(np.uint64), want.view(np.uint64))


def test_runlog_records_one_row_per_step():
    cfg = TrainConfig(steps=7, batch_speakers=4, seed=3, **SMALL_NET)
    _, log = train(cfg, *_dataset())
    assert isinstance(log.records, np.recarray)
    assert log.records.shape == (7,)
    assert log.records.dtype.names == ("loss", "grad_norm", "wall_time")
    assert all(log.records.dtype[name] == np.float64 for name in log.records.dtype.names)


def test_save_runlog_writes_exact_text(tmp_path):
    """Every loss and gradient norm in %.17g, the step column from the row
    index, and no wall time; a log of no steps is the header alone."""
    awkward = [0.1, 1e-300, 123456789.5, 1e+20, 5e-324]
    path = tmp_path / "runlog.txt"
    save_runlog(path, _runlog(awkward, awkward[::-1], [2.5] * 5))
    assert path.read_text(encoding="ascii") == (
        "step loss grad_norm\n"
        "0 0.10000000000000001 4.9406564584124654e-324\n"
        "1 1e-300 1e+20\n"
        "2 123456789.5 123456789.5\n"
        "3 1e+20 1e-300\n"
        "4 4.9406564584124654e-324 0.10000000000000001\n")
    save_runlog(path, _runlog([], [], []))
    assert path.read_text(encoding="ascii") == "step loss grad_norm\n"


def _reference_runlog_text(log) -> bytes:
    """The run log written line by line with %-formatting."""
    rec = log.records
    return "".join(["step loss grad_norm\n"] + [
        "%d %.17g %.17g\n" % row
        for row in zip(range(rec.size), rec.loss.tolist(), rec.grad_norm.tolist())]).encode()


@pytest.mark.parametrize("chunks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_save_runlog_matches_line_by_line_writer(tmp_path, chunks, extra):
    """Step counts on each side of save_runlog's chunks of TEXT_FLOATS // 2
    steps give the bytes of the line-by-line writer, over losses and norms
    of every decade, zeros and subnormals."""
    assert training.TEXT_FLOATS // 2 == 2048
    steps = chunks * (training.TEXT_FLOATS // 2) + extra
    rng = np.random.default_rng(steps)
    values = rng.standard_normal((2, steps)) * 10.0 ** rng.integers(-320, 300, (2, steps))
    values[:, ::97] = 0.0
    log = _runlog(values[0], np.abs(values[1]), np.zeros(steps))
    save_runlog(tmp_path / "runlog.txt", log)
    assert (tmp_path / "runlog.txt").read_bytes() == _reference_runlog_text(log)


def test_save_runlog_peak_memory(tmp_path):
    """A 200000-step log goes out TEXT_FLOATS // 2 steps at a time: about
    0.4 MiB at the peak, where a list of its lines and its whole text took
    36 MiB."""
    steps = 200_000
    rng = np.random.default_rng(0)
    log = _runlog(rng.uniform(0.0, 10.0, steps), rng.uniform(0.0, 100.0, steps),
                  np.zeros(steps))
    tracemalloc.start()
    try:
        save_runlog(tmp_path / "runlog.txt", log)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "runlog.txt").read_bytes()
    assert text.count(b"\n") == steps + 1 and text.endswith(b"199999 %.17g %.17g\n" % (
        log.records.loss[-1], log.records.grad_norm[-1]))
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def reference_loss(config, params, trace, labels):
    """The configured loss on a forward trace, composed branch by branch from
    the allocating reference kernels, as the trainer composed it before one
    loss_terms call served both classifier spaces. Returns (value,
    grad_projection, grad_encoder, grad_class_weights); the encoder slot is
    None unless the classifier term runs in encoder space. There the
    contrastive term runs even at lambda = 0, so the reference also checks
    that skipping it changes no bit."""
    kind = config.loss_kind
    z, w = trace.embeddings, params.class_weights
    hyper = (config.temperature, config.margin, config.scale)
    if config.classifier_space == "projection" or kind is LossKind.SUPCON:
        value, grad_z, grad_w = reference_terms(kind, z, labels, w, *hyper,
                                                config.convention, config.lam)
        return value, grad_z, None, grad_w

    if kind is LossKind.AAMSUPCON:
        sup_value, sup_grad = reference_supcon_raw(
            z, contrast_masks(labels, config.convention), config.temperature)
        sup_grad = config.lam * sup_grad
    margin = 0.0 if kind is LossKind.SOFTMAX else config.margin
    value, grad_enc, grad_w = reference_margin_softmax_raw(
        normalize_rows(trace.encoder_act[-1]), labels, w, margin, config.scale)
    if kind is not LossKind.AAMSUPCON:
        return value, None, grad_enc, grad_w
    return value + config.lam * sup_value, sup_grad, grad_enc, grad_w


def reference_train(config, features, speaker_ids):
    """train without a workspace: forward, reference_loss and backward build
    every array of every step, the gradient norm squares each gradient
    afresh, and the update runs array by array. Returns (params, [(loss,
    grad_norm) per step])."""
    ids, _ = group_by_speaker(speaker_ids)
    params = init_params([features.shape[1], *config.encoder_hidden], config.proj_hidden,
                         config.embedding_dim, ids.size, config.seed,
                         class_dim=config.class_dim())
    velocity = [np.zeros_like(a) for a in param_arrays(params)]
    rng = np.random.default_rng(config.seed)
    records = []
    for _ in range(config.steps):
        batch, labels = BatchSampler(features, speaker_ids, config.batch_speakers,
                                     config.views_per_speaker, config.noise_sigma,
                                     config.mask_max).draw(rng)
        trace = forward(params, batch)
        value, grad_proj, grad_enc, grad_w = reference_loss(config, params, trace, labels)
        if grad_proj is None:
            grad_proj = np.zeros_like(trace.embeddings)
        if grad_enc is not None:
            # through the encoder-space normalization: (g - (g.u) u) / ||h||
            h = trace.encoder_act[-1]
            norms = np.linalg.norm(h, axis=1, keepdims=True)
            unit = h / norms
            grad_enc = (grad_enc - np.sum(grad_enc * unit, axis=1, keepdims=True) * unit) / norms
        grads = backward(params, trace, grad_proj, grad_enc)
        grads.class_weights = grad_w
        total = 0.0
        for gw, gb in grads.encoder_layers:
            total += float(np.sum(gw * gw)) + float(np.sum(gb * gb))
        total += float(np.sum(grads.proj_w1 ** 2))
        total += float(np.sum(grads.proj_w2 ** 2))
        total += float(np.sum(grads.class_weights ** 2))
        for param, vel, grad in zip(param_arrays(params), velocity, param_arrays(grads)):
            vel *= config.momentum
            vel += grad
            param -= config.learning_rate * vel
        params.class_weights[...] = normalize_rows(params.class_weights)
        records.append((value, float(np.sqrt(total))))
    return params, records


def _bits_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("space", ["projection", "encoder"])
@pytest.mark.parametrize("convention", list(DenominatorConvention))
@pytest.mark.parametrize("kind", list(LossKind))
def test_workspace_training_equals_allocating_loop(kind, convention, space):
    features, speaker_ids = _dataset(speakers=64, utterances=4)
    # N = 2 * speakers * views rows: 4, 32 and 256
    for speakers, views, lam in ((2, 1, 0.0), (8, 2, 0.5), (64, 2, 1.0)):
        cfg = TrainConfig(loss_kind=kind, convention=convention, classifier_space=space,
                          lam=lam, steps=3, batch_speakers=speakers, views_per_speaker=views,
                          seed=speakers, **SMALL_NET)
        params, log = train(cfg, features, speaker_ids)
        want_params, want_records = reference_train(cfg, features, speaker_ids)
        got = [(rec.loss, rec.grad_norm) for rec in log.records]
        assert got == want_records, speakers
        assert all(_bits_equal(a, b) for a, b in zip(param_arrays(params),
                                                     param_arrays(want_params))), speakers


@pytest.mark.parametrize("space", ["projection", "encoder"])
@pytest.mark.parametrize("speakers", [8, 32, 64])
def test_every_buffer_of_a_run_starts_on_a_cache_line(speakers, space):
    """At the quickstart sizes, N = 32, 128 and 256 rows, after a step:
    the run's three flat vectors (parameters, gradients, velocity) and
    every view of the first two, every Workspace array (encoder_rows
    included), every KernelBuffers array and the sampler's blocks and their
    slots start on a 64-byte boundary."""
    features, speaker_ids = _dataset(speakers=64, utterances=20, d_in=40)
    run = training._Run(TrainConfig(classifier_space=space, batch_speakers=speakers),
                        features, speaker_ids)
    batch, labels = run.sampler.draw(np.random.default_rng(0))
    forward(run.params, batch, run.ws)
    run.loss(labels)
    backward(run.params, run.ws, run.grad_proj, run.grad_enc, run.grads)
    run.update(0)
    flat = [a for a in vars(run).values()
            if isinstance(a, np.ndarray) and a.shape == run.flat_params.shape]
    assert len(flat) == 3
    arrays = flat + param_arrays(run.params) + param_arrays(run.grads)
    for part in (run.ws, run.bufs):
        for name in type(part).__slots__:
            value = getattr(part, name)
            arrays += value if isinstance(value, (list, tuple)) else [value]
    arrays += [run.sampler.batches, *run.sampler.batches, run.sampler.labels]
    assert (run.ws.encoder_rows is None) == (space == "projection")
    unaligned = [a.shape for a in arrays if a is not None and a.ctypes.data % 64]
    assert not unaligned


@pytest.mark.parametrize("space", ["projection", "encoder"])
@pytest.mark.parametrize("kind", [LossKind.AAMSUPCON, LossKind.SUPCON])
def test_consecutive_steps_reuse_the_workspace(kind, space, monkeypatch):
    seen = {"embeddings": [], "grad_z": [], "grad_w": [], "param_grads": [],
            "encoder_rows": []}
    # (buffer, data pointer) of each step's batch and labels, and the run's sampler
    slots, samplers = {"batch": [], "labels": []}, []

    def spy(name, fn, record):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            record(result, *args)
            return result
        monkeypatch.setattr(training, name, wrapped)

    def slot(record, part):
        record.append((part.base, part.ctypes.data))

    class RecordedSampler(BatchSampler):
        def __init__(self, *args):
            super().__init__(*args)
            samplers.append(self)

    def forward_record(trace, params, batch, ws):
        slot(slots["batch"], batch)
        seen["embeddings"].append(trace.embeddings.ctypes.data)

    def backward_record(grads, params, trace, *rest):
        seen["param_grads"].append([a.ctypes.data for a in param_arrays(grads)])
        rows = trace.encoder_rows
        seen["encoder_rows"].append(None if rows is None else [a.ctypes.data for a in rows])

    spy("forward", training.forward, forward_record)
    spy("loss_terms", training.loss_terms,
        lambda out, *args: (seen["grad_z"].append(out[1].ctypes.data),
                            seen["grad_w"].append(out[2].ctypes.data),
                            slot(slots["labels"], args[2])))
    spy("backward", training.backward, backward_record)
    monkeypatch.setattr(training, "BatchSampler", RecordedSampler)
    monkeypatch.setattr(batching, "BLOCK_BATCHES", 3)  # the 4 steps draw 2 blocks
    cfg = TrainConfig(loss_kind=kind, classifier_space=space, steps=4, batch_speakers=4,
                      seed=1, **SMALL_NET)
    train(cfg, *_dataset())
    for name, pointers in seen.items():
        assert len(pointers) == 4 and all(p == pointers[0] for p in pointers), name
    # each step's batch and labels are its slot of the sampler's blocks, one
    # pair of arrays per run, the second block drawn into the first one's;
    # a slot's offset counts from its block's own data, which starts on a
    # cache line inside a larger buffer
    (sampler,) = samplers
    for name, block in (("batch", sampler.batches), ("labels", sampler.labels)):
        record = slots[name]
        assert all(base is block.base for base, _ in record), name
        assert [pointer - block.ctypes.data for _, pointer in record] == [
            k * block[0].nbytes for k in (0, 1, 2, 0)], name
    # the class-weight gradient is written into its slot of the gradient vector
    assert seen["grad_w"][0] == seen["param_grads"][0][-1]
    # only encoder space allocates the normalized encoder rows
    assert (seen["encoder_rows"][0] is None) == (space == "projection")


@pytest.mark.parametrize("convention", list(DenominatorConvention))
def test_block_draws_replay_one_draw_per_step(convention, monkeypatch):
    """Step k of train takes the batch and labels of the (k+1)-th draw of a
    new sampler from np.random.default_rng(seed), for runs of 0, 1, K - 1,
    K, K + 1 and 2K + 3 steps, K being the sampler's block size; and a run
    drawing one batch per block has the bits of one drawing K."""
    features, speaker_ids = _dataset()
    base = TrainConfig(convention=convention, batch_speakers=3, views_per_speaker=3, seed=5,
                       **SMALL_NET)
    sampler = BatchSampler(features, speaker_ids, 3, 3, base.noise_sigma, base.mask_max)
    block = sampler.block_size
    assert block == batching.BLOCK_BATCHES
    taken = []  # [batch, labels] of each step, copied as the step reads them
    original_forward, original_loss_terms = training.forward, training.loss_terms

    def forward_kept(params, batch, ws):
        taken.append([batch.copy()])
        return original_forward(params, batch, ws)

    def loss_terms_kept(kind, z, labels, *rest):
        taken[-1].append(labels.copy())
        return original_loss_terms(kind, z, labels, *rest)

    monkeypatch.setattr(training, "forward", forward_kept)
    monkeypatch.setattr(training, "loss_terms", loss_terms_kept)
    for steps in (0, 1, block - 1, block, block + 1, 2 * block + 3):
        taken.clear()
        config = replace(base, steps=steps)
        params, log = train(config, features, speaker_ids)
        rng = np.random.default_rng(config.seed)
        assert len(taken) == steps
        for k, (batch, labels) in enumerate(taken):
            want_batch, want_labels = sampler.draw(rng)
            assert _bits_equal(batch, want_batch), (steps, k)
            assert np.array_equal(labels, want_labels), (steps, k)
    monkeypatch.setattr(batching, "BLOCK_BATCHES", 1)
    one_params, one_log = train(config, features, speaker_ids)
    assert _bits_equal(one_log.records.loss, log.records.loss)
    assert _bits_equal(one_log.records.grad_norm, log.records.grad_norm)
    assert all(_bits_equal(a, b) for a, b in zip(param_arrays(one_params), param_arrays(params)))


@pytest.mark.parametrize("block", [None, 1, 5])
def test_a_run_diverging_mid_block_reports_its_step(block, monkeypatch):
    """A learning rate of 1e36 with momentum 0.99 overflows the projection
    at step 13, inside a block of 32 batches (or of 5: its third block), and
    the error names step 13 and the row, as when each step drew one batch."""
    if block is not None:
        monkeypatch.setattr(batching, "BLOCK_BATCHES", block)
    config = TrainConfig(steps=120, batch_speakers=4, views_per_speaker=3, learning_rate=1e36,
                         momentum=0.99, seed=3, **SMALL_NET)
    with pytest.raises(DivergenceDetected) as raised:
        train(config, *_dataset())
    assert raised.value.step == 13
    assert str(raised.value) == "projection collapsed or overflowed at step 13: row 9 has norm inf"


def test_encoder_space_step_normalizes_the_encoder_rows_once(monkeypatch):
    """k encoder-space steps normalize the encoder output k times: the loss
    normalizes it, and backward takes the gradient through that
    normalization instead of normalizing again."""
    calls = []
    original = model.encoder_embeddings

    def counted(trace):
        calls.append(trace)
        return original(trace)

    monkeypatch.setattr(training, "encoder_embeddings", counted)
    monkeypatch.setattr(model, "encoder_embeddings", counted)
    cfg = TrainConfig(classifier_space="encoder", steps=5, batch_speakers=4, seed=1,
                      **SMALL_NET)
    train(cfg, *_dataset())
    assert len(calls) == 5


def test_encoder_space_step_peaks_like_projection_space():
    """tracemalloc peak of one warm step at N = 256 with the quickstart
    model: encoder space normalizes its rows in the workspace, so its peak
    stays within 10% of projection space's."""
    data = _dataset(speakers=64, utterances=4, d_in=40)
    batch, labels = _fixed_batch(data, 64)
    peaks = {}
    for space in ("projection", "encoder"):
        cfg = TrainConfig(classifier_space=space, batch_speakers=64)
        run = training._Run(cfg, *data)
        _forward_loss_backward(run, batch, labels)
        tracemalloc.start()
        try:
            _forward_loss_backward(run, batch, labels)
            peaks[space] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["encoder"] <= 1.1 * peaks["projection"], peaks
