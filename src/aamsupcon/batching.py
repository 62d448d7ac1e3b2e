"""Multiview batch construction.

A dataset is a feature matrix (N, d_in) plus a speaker id per row. A batch
holds B original rows followed by their B augmentations, aligned by index,
so every anchor is guaranteed at least one positive. Augmentation works in
feature space: additive Gaussian noise, then a contiguous run of
coordinates zeroed (the desk-scale analog of time/frequency masking).

A run draws its batches from one BatchSampler. It checks the request once
and owns the batch array, which each draw overwrites (as each forward
overwrites a model.Workspace). A draw takes exactly the numbers, in the
order, that per-row calls to rng.choice, rng.integers and
rng.standard_normal would take, and leaves rng in the same state. Two of
numpy's algorithms (numpy 2.4.6, numpy/random/_generator.pyx and
src/distributions/distributions.c) are replayed rather than called:
- rng.choice(n, size=k, replace=False) for every chosen speaker at once,
  Floyd's algorithm and a shuffle from one rng.integers call
  (_choose_rows);
- rng.integers(0, high + 1) for the mask draws: Lemire's bounded-integer
  rule on the 32-bit half-words of PCG64's 64-bit outputs, read with
  bit_generator.random_raw() (_HalfWords).
The second needs PCG64, the bit generator of np.random.default_rng; a
generator on another one raises ValueError before any draw.
"""

import numpy as np

from .errors import ConfigError


def _speaker_order(speaker_ids):
    """(ids, order, counts): the distinct ids in ascending order, the row
    indices stably sorted by speaker, and the number of rows of each id."""
    ids, dense, counts = np.unique(np.asarray(speaker_ids, dtype=np.int64),
                                   return_inverse=True, return_counts=True)
    return ids, np.argsort(dense, kind="stable"), counts


def group_by_speaker(speaker_ids):
    """Rows of each speaker: (ids, groups).

    ids holds the distinct speaker ids in ascending order; groups[k] holds
    the row indices of speaker ids[k], in row order. k is the speaker's
    dense class index."""
    ids, order, counts = _speaker_order(speaker_ids)
    return ids, (np.split(order, np.cumsum(counts)[:-1]) if ids.size else [])


def _check_pcg64(rng: np.random.Generator) -> None:
    """Raise ValueError unless rng's bit generator is PCG64, whose 32-bit
    draws _HalfWords replays."""
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise ValueError("batches are drawn from a PCG64 generator (np.random.default_rng), "
                         f"got {type(rng.bit_generator).__name__}")


class _HalfWords:
    """PCG64's 32-bit draws over a stream of its 64-bit outputs.

    next32() returns the held upper half of the last output when there is
    one (PCG64's has_uint32 and uinteger), else takes a new output from
    raw(), returns its lower half and holds its upper half."""

    __slots__ = ("raw", "has_uint32", "uinteger")

    def __init__(self, raw, has_uint32: int, uinteger: int):
        self.raw, self.has_uint32, self.uinteger = raw, has_uint32, uinteger

    def next32(self) -> int:
        if self.has_uint32:
            self.has_uint32 = 0
            return self.uinteger
        word = self.raw()
        self.has_uint32, self.uinteger = 1, word >> 32
        return word & 0xFFFFFFFF

    def bounded(self, high: int) -> int:
        """Generator.integers(0, high + 1) for 0 <= high < 2**32 - 1, by
        Lemire's rule: the upper 32 bits of next32() * (high + 1), drawn
        again while the lower 32 bits are below 2**32 mod (high + 1).
        high = 0 takes no draw."""
        if not high:
            return 0
        span = high + 1
        if self.has_uint32:  # next32(), inlined: this runs twice per augmented row
            self.has_uint32 = 0
            m = self.uinteger * span
        else:
            word = self.raw()
            self.has_uint32, self.uinteger = 1, word >> 32
            m = (word & 0xFFFFFFFF) * span
        if m & 0xFFFFFFFF < span:  # span bounds the threshold: skip the modulo
            threshold = (0xFFFFFFFF - high) % span
            while m & 0xFFFFFFFF < threshold:
                m = self.next32() * span
        return m >> 32


def _augment(x, out, noise_sigma: float, mask_max: int, rng: np.random.Generator) -> None:
    """Write one view of every row of x (n, d_in) into out, an array of the
    same shape that does not overlap x. rng's bit generator is PCG64 and
    0 <= mask_max <= d_in.

    For each row in turn: draw N(0, I), draw k uniformly from [0, mask_max],
    and when k > 0 draw the start of the k contiguous coordinates to zero.
    The noise is then scaled by noise_sigma, x added and the runs zeroed.
    The mask draws are replayed from rng's raw outputs, and the half-word
    they leave held is written back to its state at the end."""
    d_in = x.shape[1]
    bit_generator = rng.bit_generator
    state = bit_generator.state
    words = _HalfWords(bit_generator.random_raw, state["has_uint32"], state["uinteger"])
    normal, bounded = rng.standard_normal, words.bounded
    runs = []  # (row of out, start, stop)
    for row in out:
        normal(out=row)
        k = bounded(mask_max)
        if k:
            start = bounded(d_in - k)
            runs.append((row, start, start + k))
    state = bit_generator.state
    state["has_uint32"], state["uinteger"] = words.has_uint32, words.uinteger
    bit_generator.state = state
    out *= noise_sigma
    out += x
    for row, start, stop in runs:
        row[start:stop] = 0.0


def batch_layout(batch_speakers: int, views_per_speaker: int) -> np.ndarray:
    """Which chosen speaker each row of a BatchSampler batch belongs to:
    speaker k's views_per_speaker original rows, for k = 0 .. B-1 in turn,
    then their augmentations in the same order."""
    return np.tile(np.repeat(np.arange(batch_speakers), views_per_speaker), 2)


# Generator.choice(n, size=k, replace=False) draws by Floyd's algorithm and
# a shuffle, except above these limits where it shuffles the tail of
# arange(n) instead (numpy 2.4.6, numpy/random/_generator.pyx).
_TAIL_SHUFFLE_MIN_N = 10000
_TAIL_SHUFFLE_FRACTION = 50


def _row_bounds(groups: int, k: int) -> np.ndarray:
    """A (groups, 2k - 1) bounds array for _choose_rows, its shuffle
    columns k-1 .. 1 filled; _choose_rows fills the first k per call."""
    bounds = np.empty((groups, 2 * k - 1), dtype=np.int64)
    bounds[:, k:] = np.arange(k - 1, 0, -1)
    return bounds


def _choose_rows(sizes: np.ndarray, k: int, rng: np.random.Generator,
                 bounds: np.ndarray) -> np.ndarray:
    """(len(sizes), k) positions: row g is rng.choice(sizes[g], size=k,
    replace=False) for each g in turn, bit for bit and leaving rng in the
    same state, from one rng.integers call. bounds is a _row_bounds array
    of len(sizes) groups, reused from call to call.

    For each group, Floyd's algorithm draws j_t in [0, n - k + t] for
    t = 0 .. k-1 and keeps it unless already kept, else takes n - k + t
    (so j_0 is always kept); the shuffle then draws i_s in [0, s] for
    s = k-1 .. 1 and swaps positions s and i_s. A group in numpy's
    tail-shuffle range sends every group through rng.choice."""
    if (sizes.max() > _TAIL_SHUFFLE_MIN_N
            and ((sizes > _TAIL_SHUFFLE_MIN_N) & (k > sizes // _TAIL_SHUFFLE_FRACTION)).any()):
        return np.array([rng.choice(n, size=k, replace=False) for n in sizes])
    floyd = bounds[:, :k]
    np.add(sizes[:, None], np.arange(-k, 0), out=floyd)
    draws = rng.integers(0, bounds, endpoint=True)
    picked = draws[:, :k]
    for t in range(1, k):
        seen = (picked[:, :t] == picked[:, t:t + 1]).any(axis=1)
        np.copyto(picked[:, t], floyd[:, t], where=seen)
    groups = np.arange(sizes.size)
    for s, i in zip(range(k - 1, 0, -1), draws[:, k:].T):
        picked[groups, s], picked[groups, i] = picked[groups, i], picked[groups, s]
    return picked


class BatchSampler:
    """The multiview batches of one run: draw(rng) returns (batch_features
    (2BV, d_in), labels (2BV,)), B being batch_speakers and V
    views_per_speaker.

    speaker_ids holds the speaker of each row of features; labels are dense
    class indices, class k being the k-th smallest id. A draw takes B
    speakers uniformly without replacement among those with at least V
    rows, then V rows per speaker without replacement (as rng.choice would,
    speaker by speaker), then one augmentation per row (see _augment) with
    noise_sigma and mask_max (None means d_in // 8). The rows follow
    batch_layout.

    The request is checked once, here: ConfigError when the rows cannot
    satisfy it, ValueError for B or V below 1 or a mask_max outside
    [0, d_in]. batch_features is the sampler's own array: the next draw
    overwrites it."""

    def __init__(self, features, speaker_ids, batch_speakers: int, views_per_speaker: int,
                 noise_sigma: float, mask_max: int | None):
        if batch_speakers < 1 or views_per_speaker < 1:
            raise ValueError("batch_speakers and views_per_speaker must be >= 1")
        _, self.order, self.counts = _speaker_order(speaker_ids)
        self.starts = np.cumsum(self.counts) - self.counts
        if self.counts.size < batch_speakers:
            raise ConfigError(
                f"need {batch_speakers} speakers, dataset has {self.counts.size}")
        self.eligible = np.flatnonzero(self.counts >= views_per_speaker)
        if self.eligible.size < batch_speakers:
            raise ConfigError(
                f"only {self.eligible.size} speakers have >= {views_per_speaker} rows")
        self.features = np.asarray(features, dtype=np.float64)
        d_in = self.features.shape[1]
        self.mask_max = d_in // 8 if mask_max is None else mask_max
        if not 0 <= self.mask_max <= d_in:
            raise ValueError(f"mask_max {self.mask_max} outside [0, {d_in}]")
        self.noise_sigma = noise_sigma
        self.batch_speakers, self.views_per_speaker = batch_speakers, views_per_speaker
        self.layout = batch_layout(batch_speakers, views_per_speaker)
        self.bounds = _row_bounds(batch_speakers, views_per_speaker)
        self.batch = np.empty((self.layout.size, d_in))
        self.originals, self.views = np.split(self.batch, 2)

    def draw(self, rng: np.random.Generator):
        """The next (batch_features, labels) from rng, a PCG64 generator."""
        _check_pcg64(rng)
        chosen = rng.choice(self.eligible, size=self.batch_speakers, replace=False)
        picks = _choose_rows(self.counts[chosen], self.views_per_speaker, rng, self.bounds)
        picks += self.starts[chosen][:, None]
        # the rows are in range by construction; clip mode gathers straight
        # into the batch, where the default raise mode gathers into a copy
        np.take(self.features, self.order[picks.ravel()], axis=0, out=self.originals,
                mode="clip")
        _augment(self.originals, self.views, self.noise_sigma, self.mask_max, rng)
        return self.batch, chosen[self.layout]
