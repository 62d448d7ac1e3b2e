"""Multiview batch construction.

A dataset is a feature matrix (N, d_in) plus a speaker id per row. A batch
holds B original rows followed by their B augmentations, aligned by index,
so every anchor is guaranteed at least one positive. Augmentation works in
feature space: additive Gaussian noise, then a contiguous run of
coordinates zeroed (the desk-scale analog of time/frequency masking).

A run draws its batches from one BatchSampler. It checks the request once
and owns a block of batches and their labels, which each draw overwrites
(as each forward overwrites a model.Workspace). A draw takes its random
numbers in a few whole-array calls on rng, any np.random.Generator; a
trainer draws a block of consecutive batches at a time, which keeps the
sampler's code and arrays warm between draws.
"""

import numpy as np

from .errors import ConfigError, check_in, check_integer, empty_aligned, integer_array

# A sampler's block holds up to BLOCK_BATCHES batches, fewer where their
# features and labels would take more than BLOCK_BYTES, and at least one.
BLOCK_BATCHES = 32
BLOCK_BYTES = 1 << 20


def _speaker_order(speaker_ids):
    """(ids, order, counts): the distinct ids in ascending order, the row
    indices stably sorted by speaker, and the number of rows of each id.
    ConfigError names the first row whose id is fractional or NaN."""
    ids, dense, counts = np.unique(integer_array(speaker_ids, "speaker id of row"),
                                   return_inverse=True, return_counts=True)
    return ids, np.argsort(dense, kind="stable"), counts


def group_by_speaker(speaker_ids):
    """Rows of each speaker: (ids, groups).

    ids holds the distinct speaker ids in ascending order; groups[k] holds
    the row indices of speaker ids[k], in row order. k is the speaker's
    dense class index."""
    ids, order, counts = _speaker_order(speaker_ids)
    return ids, (np.split(order, np.cumsum(counts)[:-1]) if ids.size else [])


def batch_layout(batch_speakers: int, views_per_speaker: int) -> np.ndarray:
    """Which chosen speaker each row of a BatchSampler batch belongs to:
    speaker k's views_per_speaker original rows, for k = 0 .. B-1 in turn,
    then their augmentations in the same order."""
    return np.tile(np.repeat(np.arange(batch_speakers), views_per_speaker), 2)


class BatchSampler:
    """The multiview batches of one run: draw(rng) returns (batch_features
    (2BV, d_in), labels (2BV,)), B being batch_speakers and V
    views_per_speaker.

    speaker_ids holds the speaker of each row of features; labels are dense
    class indices, class k being the k-th smallest id. A draw takes from
    rng, in this order:
    1. B speakers, uniformly without replacement among those with at least
       V rows (rng.choice);
    2. a (B, width) matrix of rng.random keys, width being the largest
       speaker's row count: a chosen speaker's V rows are those whose keys
       are the V smallest of its own;
    3. the noise of every view, rng.standard_normal;
    4. every view's mask length k, uniform on [0, mask_max];
    5. every view's mask start, uniform on [0, d_in - k].
    A view is noise_sigma * noise + its original row, with the k
    coordinates from its start zeroed. mask_max None means d_in // 8. The
    rows follow batch_layout.

    The request is checked once, here, as TrainConfig checks its keys:
    ConfigError when B or V is not an integer >= 1, noise_sigma not in
    [0, inf), features not one row per speaker id, fewer than B speakers
    have V rows, or mask_max is not an integer in [0, d_in].

    rows holds the features sorted by speaker, each speaker's in row order,
    class k's counts[k] rows from starts[k]: features itself when its rows
    are already grouped so, else a sorted copy. A draw gathers its picks
    from it. The sampler owns batches (K, 2BV, d_in) and labels (K, 2BV), K being
    block_size (BLOCK_BATCHES, or fewer as BLOCK_BYTES allows), allocated
    once, each starting on a cache line (errors.empty_aligned); batch is
    slot 0 of batches. draw writes slot 0 of both, and draw_block(rng,
    count) slots 0 to count - 1, one draw after another; what either
    returns is a view of those blocks, which the next draw overwrites.
    below, a (d_in + 1, d_in) table whose row j marks the columns < j,
    gives each view's mask as below[start + k] > below[start]."""

    def __init__(self, features, speaker_ids, batch_speakers: int, views_per_speaker: int,
                 noise_sigma: float, mask_max: int | None):
        check_integer(batch_speakers, "batch_speakers", 1)
        check_integer(views_per_speaker, "views_per_speaker", 1)
        self.noise_sigma = check_in(noise_sigma, "[0, inf)", "noise_sigma")
        _, order, self.counts = _speaker_order(speaker_ids)
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or len(features) != order.size:
            raise ConfigError(f"features of shape {features.shape} do not pair with "
                              f"{order.size} speaker ids: need ({order.size}, d_in)")
        # features already grouped by speaker, as generate writes them, need no copy
        self.rows = features if (np.diff(order) > 0).all() else features[order]
        self.starts = np.cumsum(self.counts) - self.counts
        self.eligible = np.flatnonzero(self.counts >= views_per_speaker)
        if self.eligible.size < batch_speakers:
            raise ConfigError(
                f"only {self.eligible.size} speakers have >= {views_per_speaker} rows")
        d_in = self.rows.shape[1]
        self.mask_max = d_in // 8 if mask_max is None else mask_max
        check_integer(self.mask_max, "mask_max", 0)
        check_in(self.mask_max, f"[0, {d_in}]", "mask_max")
        self.batch_speakers, self.views_per_speaker = batch_speakers, views_per_speaker
        self.layout = batch_layout(batch_speakers, views_per_speaker)
        self.key_columns = np.arange(self.counts.max())
        columns = np.arange(d_in)
        self.below = columns < np.arange(d_in + 1)[:, None]
        n = self.layout.size
        self.block_size = max(1, min(BLOCK_BATCHES, BLOCK_BYTES // (8 * n * (d_in + 1))))
        self.batches = empty_aligned((self.block_size, n, d_in))
        self.labels = empty_aligned((self.block_size, n), np.intp)
        self.originals, self.views = self.batches[:, :n // 2], self.batches[:, n // 2:]
        self.batch = self.batches[0]

    def draw(self, rng: np.random.Generator):
        """The next (batch_features, labels) from rng, in slot 0; the
        features are the sampler's batch array."""
        self._draw_into(0, rng)
        return self.batch, self.labels[0]

    def draw_block(self, rng: np.random.Generator, count: int):
        """The next count (<= block_size) batches from rng, as count draws
        one after another take them: (batches, labels), their first count
        slots."""
        for slot in range(count):
            self._draw_into(slot, rng)
        return self.batches[:count], self.labels[:count]

    def _draw_into(self, slot: int, rng: np.random.Generator) -> None:
        """Draw the next batch from rng into slot of batches and labels."""
        chosen = rng.choice(self.eligible, size=self.batch_speakers, replace=False)
        keys = rng.random((self.batch_speakers, self.key_columns.size))
        keys[self.key_columns >= self.counts[chosen][:, None]] = np.inf
        picks = np.argsort(keys, axis=1)[:, :self.views_per_speaker]
        picks += self.starts[chosen][:, None]
        # the picks are in range, each below its speaker's start plus count;
        # clip mode gathers straight into the batch, raise mode into a copy
        originals, views, below = self.originals[slot], self.views[slot], self.below
        np.take(self.rows, picks.ravel(), axis=0, out=originals, mode="clip")
        rng.standard_normal(out=views)
        k = rng.integers(0, self.mask_max, size=len(views), endpoint=True)
        start = rng.integers(0, below.shape[1] - k, endpoint=True)
        views *= self.noise_sigma
        views += originals
        # the columns in [start, start + k): below start + k, not below start
        np.copyto(views, 0.0, where=below[start + k] > below[start])
        np.take(chosen, self.layout, out=self.labels[slot])
