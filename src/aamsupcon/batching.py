"""Multiview batch construction.

A dataset is a feature matrix (N, d_in) plus a speaker id per row. A batch
holds B original rows followed by their B augmentations, aligned by index,
so every anchor is guaranteed at least one positive. Augmentation works in
feature space: additive Gaussian noise, then a contiguous run of
coordinates zeroed (the desk-scale analog of time/frequency masking).

A run draws its batches from one BatchSampler. It checks the request once
and owns the batch array, which each draw overwrites (as each forward
overwrites a model.Workspace). A draw takes its random numbers in a few
whole-array calls on rng, any np.random.Generator.
"""

import numpy as np

from .errors import ConfigError, check_in, check_integer, integer_array


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
    [0, inf), mask_max not an integer in [0, d_in], features not one row
    per speaker id, or the rows cannot satisfy it. batch_features is the
    sampler's own array: the next draw overwrites it."""

    def __init__(self, features, speaker_ids, batch_speakers: int, views_per_speaker: int,
                 noise_sigma: float, mask_max: int | None):
        check_integer(batch_speakers, "batch_speakers", 1)
        check_integer(views_per_speaker, "views_per_speaker", 1)
        self.noise_sigma = check_in(noise_sigma, "[0, inf)", "noise_sigma")
        _, self.order, self.counts = _speaker_order(speaker_ids)
        self.features = np.asarray(features, dtype=np.float64)
        if self.features.ndim != 2 or len(self.features) != self.order.size:
            raise ConfigError(f"features of shape {self.features.shape} do not pair with "
                              f"{self.order.size} speaker ids: need ({self.order.size}, d_in)")
        self.starts = np.cumsum(self.counts) - self.counts
        if self.counts.size < batch_speakers:
            raise ConfigError(
                f"need {batch_speakers} speakers, dataset has {self.counts.size}")
        self.eligible = np.flatnonzero(self.counts >= views_per_speaker)
        if self.eligible.size < batch_speakers:
            raise ConfigError(
                f"only {self.eligible.size} speakers have >= {views_per_speaker} rows")
        d_in = self.features.shape[1]
        self.mask_max = d_in // 8 if mask_max is None else mask_max
        check_in(self.mask_max, f"[0, {d_in}]", "mask_max")
        check_integer(self.mask_max, "mask_max", 0)
        self.batch_speakers, self.views_per_speaker = batch_speakers, views_per_speaker
        self.layout = batch_layout(batch_speakers, views_per_speaker)
        self.key_columns = np.arange(self.counts.max())
        self.columns = np.arange(d_in)
        self.batch = np.empty((self.layout.size, d_in))
        self.originals, self.views = np.split(self.batch, 2)

    def draw(self, rng: np.random.Generator):
        """The next (batch_features, labels) from rng."""
        chosen = rng.choice(self.eligible, size=self.batch_speakers, replace=False)
        keys = rng.random((self.batch_speakers, self.key_columns.size))
        keys[self.key_columns >= self.counts[chosen][:, None]] = np.inf
        picks = np.argsort(keys, axis=1)[:, :self.views_per_speaker]
        picks += self.starts[chosen][:, None]
        # the rows are in range, features having a row per id; clip mode
        # gathers straight into the batch, the default raise mode into a copy
        np.take(self.features, self.order[picks.ravel()], axis=0, out=self.originals,
                mode="clip")
        views, columns = self.views, self.columns
        rng.standard_normal(out=views)
        k = rng.integers(0, self.mask_max, size=len(views), endpoint=True)
        start = rng.integers(0, columns.size - k, endpoint=True)
        views *= self.noise_sigma
        views += self.originals
        np.copyto(views, 0.0,
                  where=(columns >= start[:, None]) & (columns < (start + k)[:, None]))
        return self.batch, chosen[self.layout]
