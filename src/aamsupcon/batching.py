"""Multiview batch construction.

A dataset is a feature matrix (N, d_in) plus a speaker id per row. A batch
holds B original rows followed by their B augmentations, aligned by index,
so every anchor is guaranteed at least one positive. Augmentation works in
feature space: additive Gaussian noise, then a contiguous run of
coordinates zeroed (the desk-scale analog of time/frequency masking).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSpeakers, InsufficientUtterances


@dataclass
class AugmentPolicy:
    """noise_sigma scales the additive Gaussian noise; mask_max bounds the
    number of contiguous coordinates zeroed (None means d_in // 8)."""

    noise_sigma: float = 0.1
    mask_max: int | None = None

    def resolved_mask_max(self, d_in: int) -> int:
        return d_in // 8 if self.mask_max is None else self.mask_max


def group_by_speaker(speaker_ids):
    """Rows of each speaker: (ids, groups).

    ids holds the distinct speaker ids in ascending order; groups[k] holds
    the row indices of speaker ids[k], in row order. k is the speaker's
    dense class index."""
    ids, dense, counts = np.unique(np.asarray(speaker_ids, dtype=np.int64),
                                   return_inverse=True, return_counts=True)
    order = np.argsort(dense, kind="stable")
    return ids, (np.split(order, np.cumsum(counts)[:-1]) if ids.size else [])


def augment(x, policy: AugmentPolicy, rng: np.random.Generator) -> np.ndarray:
    """One stochastic view of every row of x (N, d_in), drawn row by row.

    For each row in turn: add noise_sigma * N(0, I), draw k uniformly from
    [0, mask_max], and when k > 0 draw the start of the k contiguous
    coordinates to zero. The draws interleave per row, so they cannot be
    batched without changing the random stream."""
    x = np.asarray(x, dtype=np.float64)
    d_in = x.shape[1]
    mask_max = policy.resolved_mask_max(d_in)
    if not 0 <= mask_max <= d_in:
        raise ValueError(f"mask_max {mask_max} outside [0, {d_in}]")
    out = np.empty_like(x)
    for i, row in enumerate(x):
        out[i] = row + policy.noise_sigma * rng.standard_normal(d_in)
        k = int(rng.integers(0, mask_max + 1))
        if k > 0:
            start = int(rng.integers(0, d_in - k + 1))
            out[i, start:start + k] = 0.0
    return out


def build_batch(features, groups, batch_speakers: int, views_per_speaker: int,
                policy: AugmentPolicy, rng: np.random.Generator):
    """Sample a multiview batch: (batch_features (2BV, d_in), labels (2BV,)).

    groups is group_by_speaker's row-index list and labels are positions in
    it. Draws batch_speakers speakers uniformly without replacement among
    those with at least views_per_speaker rows, then views_per_speaker rows
    per speaker without replacement, then one augmentation per row (see
    augment). Raises InsufficientSpeakers / InsufficientUtterances when the
    groups cannot satisfy the request.
    """
    if batch_speakers < 1 or views_per_speaker < 1:
        raise ValueError("batch_speakers and views_per_speaker must be >= 1")
    if len(groups) < batch_speakers:
        raise InsufficientSpeakers(
            f"need {batch_speakers} speakers, dataset has {len(groups)}")
    eligible = [k for k, rows in enumerate(groups) if len(rows) >= views_per_speaker]
    if len(eligible) < batch_speakers:
        raise InsufficientUtterances(
            f"only {len(eligible)} speakers have >= {views_per_speaker} rows")

    chosen = rng.choice(np.array(eligible), size=batch_speakers, replace=False)
    rows = np.concatenate([
        groups[k][rng.choice(len(groups[k]), size=views_per_speaker, replace=False)]
        for k in chosen])
    originals = features[rows]
    labels = np.repeat(chosen, views_per_speaker)
    return (np.concatenate([originals, augment(originals, policy, rng)]),
            np.concatenate([labels, labels]))
