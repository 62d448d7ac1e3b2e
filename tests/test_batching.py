import numpy as np
import pytest

from aamsupcon import batching
from aamsupcon.batching import (
    BatchSampler,
    _augment,
    _check_pcg64,
    _choose_rows,
    _HalfWords,
    _row_bounds,
    group_by_speaker,
)
from aamsupcon.errors import ConfigError
from aamsupcon.losses import supcon_masks
from aamsupcon.synthdata import DatasetSpec, generate


def _dataset(num_speakers=6, utterances=4, d_in=16, seed=0):
    """(features, speaker_ids) of a generated dataset."""
    return generate(DatasetSpec(num_speakers, utterances, d_in, 0.2, seed))[:2]


def augment(x, noise_sigma, mask_max, rng):
    """One view of every row of x (n, d_in) as a new array, as a draw makes
    them (see batching._augment); mask_max None means d_in // 8. rng must
    be a PCG64 generator."""
    x = np.asarray(x, dtype=np.float64)
    _check_pcg64(rng)
    out = np.empty_like(x)
    _augment(x, out, noise_sigma, x.shape[1] // 8 if mask_max is None else mask_max, rng)
    return out


def test_augment_identity_when_disabled():
    x = np.arange(8.0)[None, :]
    out = augment(x, 0.0, 0, np.random.default_rng(0))
    assert np.array_equal(out, x)


def test_augment_full_mask_zeroes_everything():
    def first_k(seed):
        rng = np.random.default_rng(seed)
        rng.standard_normal(8)
        return rng.integers(0, 9)

    # a seed whose first row draws k = d_in, so the start is 0
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
        out = augment(x, 0.1, None, rng)  # default mask_max = d_in // 8
        # row i of the output is the view of row i: the row keeps its id
        assert out.shape == x.shape


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
    with pytest.raises(ConfigError, match="need 4 speakers, dataset has 3"):
        BatchSampler(features, speaker_ids, 4, 2, 0.1, None)
    with pytest.raises(ConfigError, match="only 0 speakers have >= 3 rows"):
        BatchSampler(features, speaker_ids, 3, 3, 0.1, None)
    with pytest.raises(ValueError, match="must be >= 1"):
        BatchSampler(features, speaker_ids, 2, 0, 0.1, None)
    with pytest.raises(ValueError, match=r"mask_max 17 outside \[0, 16\]"):
        BatchSampler(features, speaker_ids, 2, 2, 0.1, 17)


def test_non_pcg64_generators_are_rejected_before_any_draw():
    features, speaker_ids = _dataset()
    rng = np.random.Generator(np.random.MT19937(0))
    before = rng.bit_generator.state
    for call in (lambda: BatchSampler(features, speaker_ids, 4, 2, 0.1, None).draw(rng),
                 lambda: augment(features, 0.1, None, rng)):
        with pytest.raises(ValueError, match="PCG64"):
            call()
    after = rng.bit_generator.state
    assert after["state"]["pos"] == before["state"]["pos"]
    assert np.array_equal(after["state"]["key"], before["state"]["key"])


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
            pos = supcon_masks(labels).pos
        except ConfigError:
            pytest.fail(f"anchor without positive at seed {seed}")
        assert all(p.sum() >= 1 for p in pos)


def reference_batch(features, speaker_ids, batch_speakers, views_per_speaker,
                    noise_sigma, mask_max, rng):
    """Per-row reference for a sampler's draw, spelling out its random draw order:
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
    mask_max = d_in // 8 if mask_max is None else mask_max
    views = []
    for row in rows:
        view = features[row] + noise_sigma * rng.standard_normal(d_in)
        k = int(rng.integers(0, mask_max + 1))
        if k > 0:
            start = int(rng.integers(0, d_in - k + 1))
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
            # in full: a following rng.random() cannot see a lost held half-word
            assert got_rng.bit_generator.state == want_rng.bit_generator.state, draw
            assert batch is sampler.batch


def _take(*words):
    """A _HalfWords over the given 64-bit outputs, holding no half-word."""
    stream = iter(words)
    return _HalfWords(lambda: next(stream), 0, 0)


def test_bounded_draw_on_crafted_words():
    # span 6 (mask_max 5): the threshold is 2**32 mod 6 = 4
    words = _take(0, 0x80000001)
    # both halves of 0 leave 0 below the threshold; (2**31 + 1) * 6 = 3 * 2**32 + 6
    assert words.bounded(5) == 3
    assert (words.has_uint32, words.uinteger) == (1, 0)
    assert words.next32() == 0
    # a leftover equal to the threshold is kept: 1431655766 * 6 = 2 * 2**32 + 4
    assert _take(1431655766).bounded(5) == 2
    # a range of 1 takes no word
    words = _take()
    assert words.bounded(0) == 0
    assert words.has_uint32 == 0


_PCG64_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_MASK64 = 2**64 - 1


def _pcg64_before_output(word, inc, high):
    """A PCG64 state whose next output is word, with inc as its increment:
    the step maps it to the 128-bit state (high, low), whose XSL-RR output
    rotates high ^ low right by high >> 58, so low is chosen to give word."""
    rot = high >> 58
    low = (((word << rot) | (word >> (64 - rot))) & _MASK64) ^ high
    after = (high << 64) | low
    return (after - inc) * pow(_PCG64_MULTIPLIER, -1, 2**128) % 2**128


def test_bounded_draw_redraws_below_the_threshold_as_numpy_does():
    # seeded draws reach the redraw with p ~ 1e-9 per draw, so the next
    # output is set to 0: both of its halves fall below the threshold
    inc = np.random.default_rng(0).bit_generator.state["state"]["inc"]
    for high_bits in (0, 0x9E3779B97F4A7C15, _MASK64):
        state = {"bit_generator": "PCG64",
                 "state": {"state": _pcg64_before_output(0, inc, high_bits), "inc": inc},
                 "has_uint32": 0, "uinteger": 0}
        probe = np.random.PCG64()
        probe.state = state
        assert probe.random_raw() == 0
        for mask_max in (5, 6, 39):
            want = np.random.PCG64()
            want.state = state
            want_k = np.random.Generator(want).integers(0, mask_max + 1)
            got = np.random.PCG64()
            got.state = state
            taken = []
            words = _HalfWords(lambda: taken.append(got.random_raw()) or taken[-1], 0, 0)
            assert words.bounded(mask_max) == want_k
            assert len(taken) == 2 and taken[0] == 0
            after = got.state
            after["has_uint32"], after["uinteger"] = words.has_uint32, words.uinteger
            assert after == want.state


@pytest.mark.parametrize("views", [1, 2, 3, 4, 5])
def test_batched_row_draw_equals_per_group_choice(views):
    rng = np.random.default_rng(views)
    for n in range(views, views + 41):
        # group n among others of random sizes, so the draw bounds vary per group
        sizes = rng.integers(views, views + 41, size=6)
        sizes[int(rng.integers(0, 6))] = n
        seed = int(rng.integers(0, 2**32))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _choose_rows(sizes, views, got_rng, _row_bounds(sizes.size, views))
        want = [want_rng.choice(size, size=views, replace=False) for size in sizes]
        assert np.array_equal(got, want), (views, n)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_batched_row_draw_falls_back_in_numpys_tail_shuffle_range(monkeypatch):
    # n > 10000 and k > n // 50: numpy shuffles the tail of arange(n)
    sizes = np.array([20000])
    got_rng, want_rng = np.random.default_rng(4), np.random.default_rng(4)
    got = _choose_rows(sizes, 401, got_rng, _row_bounds(1, 401))
    assert np.array_equal(got, [want_rng.choice(20000, size=401, replace=False)])
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    # Floyd's algorithm draws other rows there, so the fallback is what matches
    monkeypatch.setattr(batching, "_TAIL_SHUFFLE_MIN_N", 10**9)
    floyd = _choose_rows(sizes, 401, np.random.default_rng(4), _row_bounds(1, 401))
    assert not np.array_equal(floyd, got)


def test_group_by_speaker():
    ids, groups = group_by_speaker([7, 3, 7, 7, 5, 3])
    assert ids.tolist() == [3, 5, 7]
    assert [g.tolist() for g in groups] == [[1, 5], [4], [0, 2, 3]]
    ids, groups = group_by_speaker([])
    assert ids.size == 0 and groups == []
