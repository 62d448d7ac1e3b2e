import numpy as np
import pytest

from aamsupcon import batching
from aamsupcon.batching import (
    AugmentPolicy,
    _choose_rows,
    augment,
    build_batch,
    group_by_speaker,
)
from aamsupcon.errors import (
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
    """(features, groups) of a generated dataset."""
    features, speaker_ids, _ = generate(DatasetSpec(num_speakers, utterances, d_in, 0.2, seed))
    return features, group_by_speaker(speaker_ids)[1]


def test_augment_identity_when_disabled():
    x = np.arange(8.0)[None, :]
    out = augment(x, AugmentPolicy(noise_sigma=0.0, mask_max=0),
                  np.random.default_rng(0))
    assert np.array_equal(out, x)


def test_augment_full_mask_zeroes_everything():
    x = np.ones((1, 8))
    # stub forces k = d_in, then start = 0
    out = augment(x, AugmentPolicy(noise_sigma=0.0, mask_max=8), StubRng([8, 0]))
    assert np.all(out == 0.0)


def test_augment_deterministic_per_seed():
    x = np.linspace(-1, 1, 20)[None, :]
    policy = AugmentPolicy(noise_sigma=0.3, mask_max=5)
    a = augment(x, policy, np.random.default_rng(99))
    b = augment(x, policy, np.random.default_rng(99))
    assert np.array_equal(a, b)
    c = augment(x, policy, np.random.default_rng(100))
    assert not np.array_equal(a, c)


def test_augment_preserves_id_and_dimension():
    rng = np.random.default_rng(1)
    policy = AugmentPolicy()  # default mask_max = d_in // 8
    for _ in range(20):
        x = rng.normal(size=(int(rng.integers(1, 9)), 24))
        out = augment(x, policy, rng)
        # row i of the output is the view of row i: the row keeps its id
        assert out.shape == x.shape


def test_build_batch_counts_and_alignment():
    features, groups = _dataset()
    batch, labels = build_batch(features, groups, 4, 2, AugmentPolicy(),
                                np.random.default_rng(0))
    assert len(batch) == len(labels) == 16
    counts = {}
    for label in labels:
        counts[int(label)] = counts.get(int(label), 0) + 1
    assert sorted(counts.values()) == [4, 4, 4, 4]
    # augmentation k + B pairs with original k, an unmodified dataset row
    for k in range(8):
        assert any(np.array_equal(batch[k], features[r]) for r in groups[labels[k]])
        assert labels[k] == labels[k + 8]


def test_build_batch_errors():
    features, groups = _dataset(num_speakers=3, utterances=2)
    with pytest.raises(InsufficientSpeakers):
        build_batch(features, groups, 4, 2, AugmentPolicy(), np.random.default_rng(0))
    with pytest.raises(InsufficientUtterances):
        build_batch(features, groups, 3, 3, AugmentPolicy(), np.random.default_rng(0))


def test_build_batch_deterministic_and_seed_sensitive():
    features, groups = _dataset()
    policy = AugmentPolicy()
    a_x, a_y = build_batch(features, groups, 4, 2, policy, np.random.default_rng(7))
    b_x, b_y = build_batch(features, groups, 4, 2, policy, np.random.default_rng(7))
    assert np.array_equal(a_x, b_x)
    assert np.array_equal(a_y, b_y)
    c_x, c_y = build_batch(features, groups, 4, 2, policy, np.random.default_rng(8))
    assert (not np.array_equal(a_y, c_y)
            or not np.array_equal(a_x, c_x))


def test_every_anchor_has_a_positive_across_many_seeds():
    features, groups = _dataset(num_speakers=5, utterances=3)
    policy = AugmentPolicy()
    for seed in range(100):
        _, labels = build_batch(features, groups, 3, 1, policy, np.random.default_rng(seed))
        try:
            pos, _ = contrast_masks(labels)
        except AnchorWithoutPositive:
            pytest.fail(f"anchor without positive at seed {seed}")
        assert all(p.sum() >= 1 for p in pos)


def reference_batch(features, speaker_ids, batch_speakers, views_per_speaker,
                    policy, rng):
    """Per-row reference for build_batch, spelling out its random draw order:
    1. the speakers, uniformly without replacement among the eligible ones
       (ascending id order, at least views_per_speaker rows);
    2. for each chosen speaker in turn, its rows without replacement;
    3. row by row over the originals: the noise vector, then k, then the
       mask start when k > 0.
    Labels are the speakers' positions in ascending id order."""
    by_speaker = {}
    for row, sid in enumerate(speaker_ids):
        by_speaker.setdefault(int(sid), []).append(row)
    speakers = sorted(by_speaker)
    eligible = [k for k, sid in enumerate(speakers)
                if len(by_speaker[sid]) >= views_per_speaker]
    chosen = rng.choice(eligible, size=batch_speakers, replace=False)
    rows, labels = [], []
    for k in chosen:
        own = by_speaker[speakers[k]]
        for p in rng.choice(len(own), size=views_per_speaker, replace=False):
            rows.append(own[p])
            labels.append(int(k))
    d_in = features.shape[1]
    mask_max = policy.resolved_mask_max(d_in)
    views = []
    for row in rows:
        view = features[row] + policy.noise_sigma * rng.standard_normal(d_in)
        k = int(rng.integers(0, mask_max + 1))
        if k > 0:
            start = int(rng.integers(0, d_in - k + 1))
            view[start:start + k] = 0.0
        views.append(view)
    return np.array([features[r] for r in rows] + views), np.array(labels + labels)


@pytest.mark.parametrize("mask_max", [0, None, 24])
def test_build_batch_matches_per_row_reference(mask_max):
    # unsorted, non-contiguous speaker ids with unequal row counts, so that
    # grouping, eligibility and the dense labels are all exercised
    rng = np.random.default_rng(mask_max or 1)
    speaker_ids = rng.permutation(np.repeat([3, 10, 42, 7, 99, 5], [12, 9, 2, 1, 7, 3]))
    features = rng.standard_normal((speaker_ids.size, 24))
    _, groups = group_by_speaker(speaker_ids)
    policy = AugmentPolicy(noise_sigma=0.2, mask_max=mask_max)
    for seed in range(60):
        speakers, views = 1 + seed % 4, 1 + seed % 3
        got = build_batch(features, groups, speakers, views, policy,
                          np.random.default_rng(seed))
        want = reference_batch(features, speaker_ids, speakers, views, policy,
                               np.random.default_rng(seed))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), seed
        assert got[1].dtype == want[1].dtype


@pytest.mark.parametrize("views", [1, 2, 3, 4, 5])
def test_batched_row_draw_equals_per_group_choice(views):
    rng = np.random.default_rng(views)
    for n in range(views, views + 41):
        # group n among others of random sizes, so the draw bounds vary per group
        sizes = rng.integers(views, views + 41, size=6)
        sizes[int(rng.integers(0, 6))] = n
        seed = int(rng.integers(0, 2**32))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _choose_rows(sizes, views, got_rng)
        want = [want_rng.choice(size, size=views, replace=False) for size in sizes]
        assert np.array_equal(got, want), (views, n)
        assert got_rng.random() == want_rng.random()


def test_batched_row_draw_falls_back_in_numpys_tail_shuffle_range(monkeypatch):
    # n > 10000 and k > n // 50: numpy shuffles the tail of arange(n)
    sizes = np.array([20000])
    got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
    got = _choose_rows(sizes, 401, got_rng)
    assert np.array_equal(got, [want_rng.choice(20000, size=401, replace=False)])
    assert got_rng.random() == want_rng.random()
    # Floyd's algorithm draws other rows there, so the fallback is what matches
    monkeypatch.setattr(batching, "_TAIL_SHUFFLE_MIN_N", 10**9)
    floyd = _choose_rows(sizes, 401, np.random.default_rng(4))
    assert not np.array_equal(floyd, got)


def test_group_by_speaker():
    ids, groups = group_by_speaker([7, 3, 7, 7, 5, 3])
    assert ids.tolist() == [3, 5, 7]
    assert [g.tolist() for g in groups] == [[1, 5], [4], [0, 2, 3]]
    ids, groups = group_by_speaker([])
    assert ids.size == 0 and groups == []
