import numpy as np
import pytest

from aamsupcon.batching import AugmentPolicy, Sample, ViewTag, augment, build_batch
from aamsupcon.errors import (
    AlreadyAugmented,
    AnchorWithoutPositive,
    InsufficientSpeakers,
    InsufficientUtterances,
)
from aamsupcon.losses import contrast_masks
from aamsupcon.synthdata import DatasetSpec, generate


class StubRng:
    """Deterministic stand-in for a Generator: fixed noise and draws."""

    def __init__(self, integer_draws):
        self.integer_draws = list(integer_draws)

    def standard_normal(self, size):
        return np.zeros(size)

    def integers(self, low, high, size=None):
        return self.integer_draws.pop(0)


def _dataset(num_speakers=6, utterances=4, d_in=16, seed=0):
    samples, _ = generate(DatasetSpec(num_speakers, utterances, d_in, 0.2, seed))
    return samples


def test_augment_identity_when_disabled():
    x = Sample(np.arange(8.0), speaker_id=3)
    out = augment(x, AugmentPolicy(noise_sigma=0.0, mask_max=0),
                  np.random.default_rng(0))
    assert np.array_equal(out.features, x.features)
    assert out.speaker_id == 3
    assert out.view_tag is ViewTag.AUGMENTED


def test_augment_full_mask_zeroes_everything():
    x = Sample(np.ones(8), speaker_id=1)
    # stub forces k = d_in, then start = 0
    out = augment(x, AugmentPolicy(noise_sigma=0.0, mask_max=8), StubRng([8, 0]))
    assert np.all(out.features == 0.0)
    assert out.speaker_id == 1


def test_augment_deterministic_per_seed():
    x = Sample(np.linspace(-1, 1, 20), speaker_id=0)
    policy = AugmentPolicy(noise_sigma=0.3, mask_max=5)
    a = augment(x, policy, np.random.default_rng(99))
    b = augment(x, policy, np.random.default_rng(99))
    assert np.array_equal(a.features, b.features)
    c = augment(x, policy, np.random.default_rng(100))
    assert not np.array_equal(a.features, c.features)


def test_augment_preserves_id_and_dimension():
    rng = np.random.default_rng(1)
    policy = AugmentPolicy()  # default mask_max = d_in // 8
    for _ in range(20):
        x = Sample(rng.normal(size=24), speaker_id=int(rng.integers(0, 9)))
        out = augment(x, policy, rng)
        assert out.speaker_id == x.speaker_id
        assert out.features.shape == x.features.shape


def test_augment_rejects_augmented_input():
    x = Sample(np.ones(4), 0, ViewTag.AUGMENTED)
    with pytest.raises(AlreadyAugmented):
        augment(x, AugmentPolicy(), np.random.default_rng(0))


def test_build_batch_counts_and_alignment():
    batch = build_batch(_dataset(), 4, 2, AugmentPolicy(), np.random.default_rng(0))
    assert len(batch) == 16
    counts = {}
    for label in batch.labels:
        counts[int(label)] = counts.get(int(label), 0) + 1
    assert sorted(counts.values()) == [4, 4, 4, 4]
    # augmentation k + B pairs with original k
    for k in range(8):
        assert batch.samples[k].view_tag is ViewTag.ORIGINAL
        assert batch.samples[k + 8].view_tag is ViewTag.AUGMENTED
        assert batch.samples[k].speaker_id == batch.samples[k + 8].speaker_id


def test_build_batch_errors():
    data = _dataset(num_speakers=3, utterances=2)
    with pytest.raises(InsufficientSpeakers):
        build_batch(data, 4, 2, AugmentPolicy(), np.random.default_rng(0))
    with pytest.raises(InsufficientUtterances):
        build_batch(data, 3, 3, AugmentPolicy(), np.random.default_rng(0))


def test_build_batch_deterministic_and_seed_sensitive():
    data = _dataset()
    policy = AugmentPolicy()
    a = build_batch(data, 4, 2, policy, np.random.default_rng(7))
    b = build_batch(data, 4, 2, policy, np.random.default_rng(7))
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = build_batch(data, 4, 2, policy, np.random.default_rng(8))
    assert (not np.array_equal(a.labels, c.labels)
            or not np.array_equal(a.features, c.features))


def test_every_anchor_has_a_positive_across_many_seeds():
    data = _dataset(num_speakers=5, utterances=3)
    policy = AugmentPolicy()
    for seed in range(100):
        batch = build_batch(data, 3, 1, policy, np.random.default_rng(seed))
        try:
            pos, _ = contrast_masks(batch.labels)
        except AnchorWithoutPositive:
            pytest.fail(f"anchor without positive at seed {seed}")
        assert all(p.sum() >= 1 for p in pos)
