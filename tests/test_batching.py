import re

import numpy as np
import pytest

from aamsupcon.batching import BatchSampler, group_by_speaker
from aamsupcon.errors import ConfigError
from aamsupcon.losses import supcon_masks
from aamsupcon.synthdata import DatasetSpec, generate
from aamsupcon.training import TrainConfig, train


def _dataset(num_speakers=6, utterances=4, d_in=16, seed=0):
    """(features, speaker_ids) of a generated dataset."""
    return generate(DatasetSpec(num_speakers, utterances, d_in, 0.2, seed))[:2]


def augment(x, noise_sigma, mask_max, rng):
    """One view of every row of x (n, d_in) as a new array, from one draw
    of a sampler that makes each row its own speaker and puts them all in
    the batch; mask_max None means d_in // 8."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    batch, labels = BatchSampler(x, np.arange(n), n, 1, noise_sigma, mask_max).draw(rng)
    views = np.empty_like(x)
    views[labels[n:]] = batch[n:]
    return views


def test_augment_identity_when_disabled():
    x = np.arange(8.0)[None, :]
    out = augment(x, 0.0, 0, np.random.default_rng(0))
    assert np.array_equal(out, x)


def test_augment_full_mask_zeroes_everything():
    def first_k(seed):
        rng = np.random.default_rng(seed)
        rng.choice(1, size=1, replace=False)
        rng.random((1, 1))
        rng.standard_normal((1, 8))
        return rng.integers(0, 8, size=1, endpoint=True)[0]

    # a seed whose one view draws k = d_in, so the start is 0
    seed = next(seed for seed in range(1000) if first_k(seed) == 8)
    x = np.ones((1, 8))
    out = augment(x, 0.0, 8, np.random.default_rng(seed))
    assert np.all(out == 0.0)


def test_augment_deterministic_per_seed():
    x = np.linspace(-1, 1, 20)[None, :]
    a = augment(x, 0.3, 5, np.random.default_rng(99))
    b = augment(x, 0.3, 5, np.random.default_rng(99))
    assert np.array_equal(a, b)
    c = augment(x, 0.3, 5, np.random.default_rng(100))
    assert not np.array_equal(a, c)


def test_augment_preserves_id_and_dimension():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=(int(rng.integers(1, 9)), 24))
        n = len(x)
        # default mask_max = d_in // 8
        batch, labels = BatchSampler(x, np.arange(n), n, 1, 0.1, None).draw(rng)
        # view i of the batch is the view of original i: the row keeps its id
        assert batch.shape == (2 * n, 24)
        assert np.array_equal(labels[:n], labels[n:])
        assert np.array_equal(batch[:n], x[labels[:n]])


def test_draw_counts_and_alignment():
    features, speaker_ids = _dataset()
    groups = group_by_speaker(speaker_ids)[1]
    batch, labels = BatchSampler(features, speaker_ids, 4, 2, 0.1, None).draw(
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


def test_sampler_checks_the_request_when_built():
    features, speaker_ids = _dataset(num_speakers=3, utterances=2)
    with pytest.raises(ConfigError, match="only 3 speakers have >= 2 rows"):
        BatchSampler(features, speaker_ids, 4, 2, 0.1, None)
    with pytest.raises(ConfigError, match="only 0 speakers have >= 3 rows"):
        BatchSampler(features, speaker_ids, 3, 3, 0.1, None)
    with pytest.raises(ValueError, match=r"views_per_speaker must be in \[1, inf\), got 0"):
        BatchSampler(features, speaker_ids, 2, 0, 0.1, None)
    with pytest.raises(ValueError, match=r"mask_max must be in \[0, 16\], got 17"):
        BatchSampler(features, speaker_ids, 2, 2, 0.1, 17)
    # the integer test first, as TrainConfig checks augment.mask_max
    with pytest.raises(ConfigError, match="mask_max must be an integer, got 17.5"):
        BatchSampler(features, speaker_ids, 2, 2, 0.1, 17.5)


def test_sampler_refuses_features_that_do_not_pair_with_the_ids():
    """features must hold one row per speaker id: a row count off either
    way, or a matrix that is not 2-D, is refused when the sampler is built,
    where the gather would map an out-of-range row to the last one."""
    features, speaker_ids = _dataset()
    assert len(speaker_ids) == 24
    for bad in (features[:3], np.vstack([features, features[:1]]), features.ravel(),
                features[None]):
        with pytest.raises(ConfigError, match=re.escape(
                f"features of shape {bad.shape} do not pair with 24 speaker ids")):
            BatchSampler(bad, speaker_ids, 2, 2, 0.1, None)


def test_train_refuses_features_that_do_not_pair_with_the_ids():
    features, speaker_ids = _dataset(num_speakers=5)
    with pytest.raises(ConfigError, match=r"shape \(3, 16\) do not pair with 20 speaker ids"):
        train(TrainConfig(steps=3, batch_speakers=2), features[:3], speaker_ids)


def test_sampler_holds_the_rows_sorted_by_speaker():
    """Rows out of speaker order are gathered into a sorted copy once; rows
    already grouped by speaker are held as they are."""
    features, speaker_ids = _unequal_speakers(3)
    order = np.argsort(speaker_ids, kind="stable")
    sampler = BatchSampler(features, speaker_ids, 2, 1, 0.0, 0)
    assert np.array_equal(sampler.rows, features[order])
    assert not np.shares_memory(sampler.rows, features)
    grouped = features[order]
    assert BatchSampler(grouped, speaker_ids[order], 2, 1, 0.0, 0).rows is grouped
    assert np.array_equal(sampler.starts, [0, 12, 15, 16, 25, 27])


def _draw_once(features, speaker_ids, seed):
    """One draw of a new default-augmenting sampler of 4 speakers x 2 views."""
    return BatchSampler(features, speaker_ids, 4, 2, 0.1, None).draw(np.random.default_rng(seed))


def test_draw_deterministic_and_seed_sensitive():
    features, speaker_ids = _dataset()
    a_x, a_y = _draw_once(features, speaker_ids, 7)
    b_x, b_y = _draw_once(features, speaker_ids, 7)
    assert np.array_equal(a_x, b_x)
    assert np.array_equal(a_y, b_y)
    c_x, c_y = _draw_once(features, speaker_ids, 8)
    assert (not np.array_equal(a_y, c_y)
            or not np.array_equal(a_x, c_x))


def test_every_anchor_has_a_positive_across_many_seeds():
    features, speaker_ids = _dataset(num_speakers=5, utterances=3)
    sampler = BatchSampler(features, speaker_ids, 3, 1, 0.1, None)
    for seed in range(100):
        _, labels = sampler.draw(np.random.default_rng(seed))
        try:
            pos_flat = supcon_masks(labels).pos_flat
        except ConfigError:
            pytest.fail(f"anchor without positive at seed {seed}")
        assert (np.bincount(pos_flat // labels.size, minlength=labels.size) >= 1).all()


def reference_batch(features, speaker_ids, batch_speakers, views_per_speaker,
                    noise_sigma, mask_max, rng):
    """Per-row reference for a sampler's draw: the same whole-array draws,
    in the same order, applied row by row:
    1. the speakers, uniformly without replacement among the eligible ones
       (ascending id order, at least views_per_speaker rows);
    2. a (speakers, width) key matrix, width being the largest speaker's
       row count: a chosen speaker's rows, in the order of their keys, the
       first views_per_speaker kept;
    3. one noise vector per view;
    4. every view's mask length k, from 0 to mask_max;
    5. every view's mask start, from 0 to d_in - k.
    Labels are the speakers' positions in ascending id order."""
    by_speaker = {}
    for row, sid in enumerate(speaker_ids):
        by_speaker.setdefault(int(sid), []).append(row)
    speakers = sorted(by_speaker)
    eligible = [k for k, sid in enumerate(speakers)
                if len(by_speaker[sid]) >= views_per_speaker]
    width = max(len(own) for own in by_speaker.values())
    chosen = rng.choice(eligible, size=batch_speakers, replace=False)
    keys = rng.random((batch_speakers, width))
    rows, labels = [], []
    for b, k in enumerate(chosen):
        own = by_speaker[speakers[k]]
        for p in sorted(range(len(own)), key=lambda p: keys[b, p])[:views_per_speaker]:
            rows.append(own[p])
            labels.append(int(k))
    d_in = features.shape[1]
    mask_max = d_in // 8 if mask_max is None else mask_max
    noise = rng.standard_normal((len(rows), d_in))
    lengths = rng.integers(0, mask_max, size=len(rows), endpoint=True)
    starts = rng.integers(0, d_in - lengths, endpoint=True)
    views = []
    for row, z, k, start in zip(rows, noise, lengths, starts):
        view = noise_sigma * z + features[row]
        view[start:start + k] = 0.0
        views.append(view)
    return np.array([features[r] for r in rows] + views), np.array(labels + labels)


def _unequal_speakers(seed):
    """(features (34, 24), speaker_ids): unsorted, non-contiguous speaker ids
    with unequal row counts, so that grouping, eligibility and the dense
    labels are all exercised."""
    rng = np.random.default_rng(seed)
    speaker_ids = rng.permutation(np.repeat([3, 10, 42, 7, 99, 5], [12, 9, 2, 1, 7, 3]))
    return rng.standard_normal((speaker_ids.size, 24)), speaker_ids


# mask_max 24 is d_in: a run may cover the whole row
@pytest.mark.parametrize("mask_max,noise_sigma",
                         [(0, 0.2), (None, 0.2), (24, 0.2), (None, 0.0), (24, 0.0)])
def test_first_draw_matches_per_row_reference(mask_max, noise_sigma):
    features, speaker_ids = _unequal_speakers(mask_max or 1)
    for seed in range(60):
        speakers, views = 1 + seed % 4, 1 + seed % 3
        got = BatchSampler(features, speaker_ids, speakers, views, noise_sigma,
                           mask_max).draw(np.random.default_rng(seed))
        want = reference_batch(features, speaker_ids, speakers, views, noise_sigma, mask_max,
                               np.random.default_rng(seed))
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), seed
        assert got[1].dtype == want[1].dtype
        # bit for bit, so the sign of a zero counts too (sigma 0 times a negative draw)
        assert np.array_equal(got[0].view(np.uint64), want[0].view(np.uint64)), seed


@pytest.mark.parametrize("noise_sigma", [0.0, 0.2])
@pytest.mark.parametrize("mask_max", [0, None, 3, 24])
def test_sampler_replays_the_reference_draw_after_draw(mask_max, noise_sigma):
    features, speaker_ids = _unequal_speakers(7)
    for speakers, views, seed in ((4, 2, 11), (3, 3, 12), (2, 1, 13)):
        sampler = BatchSampler(features, speaker_ids, speakers, views, noise_sigma, mask_max)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for draw in range(6):
            batch, labels = sampler.draw(got_rng)
            want = reference_batch(features, speaker_ids, speakers, views, noise_sigma,
                                   mask_max, want_rng)
            # bit for bit, so the sign of a zero counts too
            assert np.array_equal(batch.view(np.uint64), want[0].view(np.uint64)), draw
            assert np.array_equal(labels, want[1]), draw
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, draw
            assert batch is sampler.batch


# any np.random.Generator draws: the sampler no longer replays PCG64 internals
@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.SFC64, np.random.MT19937])
def test_non_pcg64_generators_draw_deterministically(bit_generator):
    features, speaker_ids = _unequal_speakers(3)
    sampler = BatchSampler(features, speaker_ids, 3, 2, 0.2, None)
    got_rng, want_rng = (np.random.Generator(bit_generator(5)) for _ in range(2))
    for draw in range(4):
        batch, labels = sampler.draw(got_rng)
        want = reference_batch(features, speaker_ids, 3, 2, 0.2, None, want_rng)
        assert np.array_equal(batch.view(np.uint64), want[0].view(np.uint64)), draw
        assert np.array_equal(labels, want[1]), draw
        # Philox's and MT19937's states hold arrays
        np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)


def _row_sampler(sizes, views):
    """A sampler over every speaker of sizes (speaker k has sizes[k] rows,
    in ascending row order) whose one feature column is the row index, with
    no noise and no mask, so a batch's originals name their rows."""
    speaker_ids = np.repeat(np.arange(len(sizes)), sizes)
    features = np.arange(speaker_ids.size, dtype=np.float64)[:, None]
    return BatchSampler(features, speaker_ids, len(sizes), views, 0.0, 0)


@pytest.mark.parametrize("views", [1, 2, 3, 4, 5])
def test_batched_row_draw_equals_per_group_choice(views):
    """Each chosen speaker's rows are the first views of its own keys'
    order, whatever the other speakers' sizes: keys past its row count,
    up to the largest speaker's, never pick a row."""
    rng = np.random.default_rng(views)
    for n in range(views, views + 41):
        # group n among others of random sizes, so the key width varies per group
        sizes = rng.integers(views, views + 41, size=6)
        sizes[int(rng.integers(0, 6))] = n
        starts = np.cumsum(sizes) - sizes
        seed = int(rng.integers(0, 2**32))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch, labels = _row_sampler(sizes, views).draw(got_rng)
        chosen = want_rng.choice(sizes.size, size=sizes.size, replace=False)
        keys = want_rng.random((sizes.size, sizes.max()))
        want = [starts[k] + np.argsort(keys[b, :sizes[k]])[:views] for b, k in enumerate(chosen)]
        assert np.array_equal(batch[:sizes.size * views, 0], np.concatenate(want)), (views, n)
        assert np.array_equal(labels[:sizes.size * views], np.repeat(chosen, views))
        # the noise, mask lengths and starts follow
        want_rng.standard_normal((sizes.size * views, 1))
        lengths = want_rng.integers(0, 0, size=sizes.size * views, endpoint=True)
        want_rng.integers(0, 1 - lengths, endpoint=True)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_a_large_speaker_draws_like_the_reference():
    # a speaker of 20000 rows beside one of 3: 401 distinct rows of the
    # large one, and the small one's keys mostly inf
    sizes = np.array([20000, 3])
    sampler = _row_sampler(sizes, 3)
    features, speaker_ids = sampler.rows, np.repeat(np.arange(2), sizes)
    big = BatchSampler(features, speaker_ids, 1, 401, 0.0, 0)
    for seed in range(3):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        batch, labels = big.draw(got_rng)
        want = reference_batch(features, speaker_ids, 1, 401, 0.0, 0, want_rng)
        assert np.array_equal(batch, want[0]) and np.array_equal(labels, want[1]), seed
        assert np.unique(batch[:401, 0]).size == 401
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        batch, labels = sampler.draw(got_rng)
        want = reference_batch(features, speaker_ids, 2, 3, 0.0, 0, want_rng)
        assert np.array_equal(batch, want[0]) and np.array_equal(labels, want[1]), seed


def _within_5_sigma(counts, p, trials):
    """True when every count lies within 5 binomial standard deviations of
    trials * p, the count a uniform draw expects."""
    counts = np.asarray(counts, dtype=np.float64)
    return bool(np.all(np.abs(counts - trials * p) <= 5 * np.sqrt(trials * p * (1 - p))))


def test_draws_are_uniform_over_speakers_rows_lengths_and_starts():
    """6000 draws at one seed, read back from the batches: the speakers
    among the eligible ones, the rows within a chosen speaker, the mask
    length k over [0, mask_max] and, for k > 0, the start over
    [0, d_in - k] each fall within 5 binomial standard deviations of
    uniform. With noise_sigma 0 a view is its original row with the run
    zeroed, and no feature is exactly 0, so the zeros are the run."""
    features, speaker_ids = _unequal_speakers(11)  # 24 columns
    ids, groups = group_by_speaker(speaker_ids)
    row_of = {float(features[r, 0]): r for r in range(len(features))}
    d_in, mask_max, speakers, views, draws = 24, 8, 3, 2, 6000
    eligible = [k for k, g in enumerate(groups) if g.size >= views]
    sampler = BatchSampler(features, speaker_ids, speakers, views, 0.0, mask_max)
    rng = np.random.default_rng(2024)
    chosen_count = np.zeros(ids.size, dtype=np.int64)
    row_count = np.zeros(len(features), dtype=np.int64)
    k_count = np.zeros(mask_max + 1, dtype=np.int64)
    start_count = np.zeros((mask_max + 1, d_in + 1), dtype=np.int64)
    for _ in range(draws):
        batch, labels = sampler.draw(rng)
        originals, augmented = np.split(batch, 2)
        chosen = labels[:speakers * views:views]
        chosen_count[chosen] += 1
        rows = [row_of[float(x)] for x in originals[:, 0]]
        for b in range(speakers):
            own = rows[b * views:(b + 1) * views]
            assert len(set(own)) == views  # without replacement
            assert all(speaker_ids[r] == ids[chosen[b]] for r in own)
        row_count[rows] += 1
        for view in augmented:
            zeros = np.flatnonzero(view == 0.0)
            k_count[zeros.size] += 1
            if zeros.size:
                assert np.array_equal(zeros, np.arange(zeros[0], zeros[0] + zeros.size))
                start_count[zeros.size, zeros[0]] += 1
    assert chosen_count.sum() == speakers * draws
    assert not chosen_count[[k for k in range(ids.size) if k not in eligible]].any()
    assert _within_5_sigma(chosen_count[eligible], speakers / len(eligible), draws)
    for k in eligible:
        assert _within_5_sigma(row_count[groups[k]], views / groups[k].size, chosen_count[k])
    assert _within_5_sigma(k_count, 1 / (mask_max + 1), speakers * views * draws)
    for k in range(1, mask_max + 1):
        assert _within_5_sigma(start_count[k, :d_in - k + 1], 1 / (d_in - k + 1), k_count[k])
        assert not start_count[k, d_in - k + 1:].any()


@pytest.mark.parametrize("d_in", [1, 2, 8, 40])
def test_mask_table_equals_the_broadcast_comparison(d_in):
    """For every mask_max from 0 to d_in and every (start, k) a draw can
    make under it, k in [0, mask_max] and start in [0, d_in - k], the
    table's mask below[start + k] > below[start] is the broadcast
    comparison (columns >= start) & (columns < start + k)."""
    features = np.random.default_rng(d_in).normal(size=(2, d_in))
    columns = np.arange(d_in)
    for mask_max in range(d_in + 1):
        below = BatchSampler(features, [0, 1], 1, 1, 0.1, mask_max).below
        assert below.shape == (d_in + 1, d_in) and below.dtype == bool
        k, start = np.array([(k, start) for k in range(mask_max + 1)
                             for start in range(d_in - k + 1)]).T
        want = (columns >= start[:, None]) & (columns < (start + k)[:, None])
        assert np.array_equal(below[start + k] > below[start], want), mask_max


def test_group_by_speaker():
    ids, groups = group_by_speaker([7, 3, 7, 7, 5, 3])
    assert ids.tolist() == [3, 5, 7]
    assert [g.tolist() for g in groups] == [[1, 5], [4], [0, 2, 3]]
    ids, groups = group_by_speaker([])
    assert ids.size == 0 and groups == []
