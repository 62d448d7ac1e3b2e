import numpy as np
import pytest

from aamsupcon.batching import AugmentPolicy, build_batch, group_by_speaker
from aamsupcon.errors import DivergenceDetected, ZeroVector
from aamsupcon.losses import LossKind, supcon_masks
from aamsupcon.model import forward, init_params
from aamsupcon.synthdata import DatasetSpec, generate
from aamsupcon.training import (
    TrainConfig,
    _trace_loss,
    end_to_end_grad_check,
    load_runlog,
    save_runlog,
    train,
)

SMALL_NET = dict(encoder_hidden=(32, 32), proj_hidden=32, embedding_dim=16)


def _dataset(spread=0.1, speakers=8, utterances=6, d_in=20, seed=0):
    """(features, speaker_ids) of a generated dataset."""
    features, speaker_ids, _ = generate(DatasetSpec(speakers, utterances, d_in, spread, seed))
    return features, speaker_ids


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
    assert log.records == []


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


def test_class_weights_stay_unit_norm():
    data = _dataset()
    cfg = TrainConfig(steps=50, batch_speakers=4, seed=3, **SMALL_NET)
    params, _ = train(cfg, *data)
    norms = np.linalg.norm(params.class_weights, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-9


def _fixed_batch(data, speakers, seed=0):
    features, speaker_ids = data
    return build_batch(features, group_by_speaker(speaker_ids)[1], speakers, 2,
                       AugmentPolicy(0.0, 0), np.random.default_rng(seed))


def test_loss_on_batch_dispatch_identities():
    data = _dataset(speakers=6, utterances=4)
    features, labels = _fixed_batch(data, 4)
    params = init_params([20, 32, 32], 32, 16, 6, seed=1)
    trace = forward(params, features)
    masks = supcon_masks(labels)

    def value(config):
        return _trace_loss(config, params, trace, labels, masks)[0]

    softmax_cfg = TrainConfig(loss_kind=LossKind.SOFTMAX, **SMALL_NET)
    arcface_m0 = TrainConfig(loss_kind=LossKind.ARCFACE, margin=0.0, **SMALL_NET)
    assert value(softmax_cfg) == value(arcface_m0)

    arc_cfg = TrainConfig(loss_kind=LossKind.ARCFACE, **SMALL_NET)
    aam_zero = TrainConfig(loss_kind=LossKind.AAMSUPCON, lam=0.0, **SMALL_NET)
    assert value(aam_zero) == value(arc_cfg)

    sup_cfg = TrainConfig(loss_kind=LossKind.SUPCON, **SMALL_NET)
    aam_cfg = TrainConfig(loss_kind=LossKind.AAMSUPCON, **SMALL_NET)
    assert value(aam_cfg) == pytest.approx(value(arc_cfg) + value(sup_cfg), abs=1e-12)


@pytest.mark.parametrize("kind", list(LossKind))
def test_end_to_end_gradients_match_finite_differences(kind):
    data = _dataset(speakers=4, utterances=4, d_in=10, seed=9)
    cfg = TrainConfig(loss_kind=kind, encoder_hidden=(16,), proj_hidden=16,
                      embedding_dim=8, batch_speakers=4, views_per_speaker=2,
                      seed=6)
    report = end_to_end_grad_check(cfg, *data, step=1e-6, batch_seed=1)
    assert report.max_rel_error < 1e-4


@pytest.mark.parametrize("kind", [LossKind.SOFTMAX, LossKind.ARCFACE,
                                  LossKind.AAMSUPCON])
def test_end_to_end_gradients_with_encoder_space_classifier(kind):
    data = _dataset(speakers=4, utterances=4, d_in=10, seed=9)
    cfg = TrainConfig(loss_kind=kind, encoder_hidden=(16,), proj_hidden=16,
                      embedding_dim=8, batch_speakers=4, views_per_speaker=2,
                      seed=6, classifier_space="encoder")
    report = end_to_end_grad_check(cfg, *data, step=1e-6, batch_seed=1)
    assert report.max_rel_error < 1e-4


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
        TrainConfig(classifier_space="both").validate()


def test_runlog_round_trip_and_determinism(tmp_path):
    data = _dataset()
    cfg = TrainConfig(steps=10, batch_speakers=4, seed=7, **SMALL_NET)
    _, log = train(cfg, *data)
    path = tmp_path / "runlog.txt"
    save_runlog(path, log)
    loaded = load_runlog(path)
    assert [r.step for r in loaded.records] == [r.step for r in log.records]
    assert [r.loss for r in loaded.records] == [r.loss for r in log.records]

    _, log2 = train(cfg, *data)
    path2 = tmp_path / "runlog2.txt"
    save_runlog(path2, log2)
    assert path.read_bytes() == path2.read_bytes()
