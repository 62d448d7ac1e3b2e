"""Speaker-verification evaluation: trial lists, cosine scoring, and the
EER and minDCF of one ROC curve.

roc_metrics builds the curve once, sorted and vectorized; the tests check
both metrics against brute-force threshold sweeps that recount errors for
every candidate threshold. Both routes apply the same documented
conventions:

* a trial is accepted when score >= threshold, so tied scores flip together;
* candidate operating points are the distinct observed scores (plus the
  all-reject point for EER, plus +-inf for minDCF);
* where the false-accept and false-reject rates cross between adjacent
  candidates, the crossing is linearly interpolated in both rates and in
  the threshold (clamped to the largest observed score at the all-reject
  end).
"""

from dataclasses import dataclass, field

import numpy as np

from .batching import group_by_speaker
from .errors import (ConfigError, NumericalError, ZeroVector, check_domains, check_integer,
                     write_files)
from .model import NetworkParams, embed

_SCORE_BLOCK = 512  # trials per scoring block; bounds the (block, D) temporaries
_TRIAL_BLOCK = 8192  # trials per trial_blocks block, in whole speakers


@dataclass
class ScoredTrials:
    scores: np.ndarray
    is_target: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.is_target = np.asarray(self.is_target, dtype=bool)
        if self.scores.shape != self.is_target.shape or self.scores.ndim != 1:
            raise ConfigError(f"scores and is_target must be 1-D and equal length, got "
                              f"shapes {self.scores.shape} and {self.is_target.shape}")
        if not (self.is_target.any() and (~self.is_target).any()):
            raise NumericalError("need at least one target and one non-target trial")
        finite = np.isfinite(self.scores)
        if not finite.all():
            k = int(np.argmin(finite))
            raise NumericalError(f"trial {k} has the non-finite score {self.scores[k]}")


@dataclass(frozen=True)
class DcfParams:
    """The minDCF operating point: the eval.p_target, eval.c_miss and
    eval.c_fa config keys."""

    p_target: float = field(default=0.01, metadata={"domain": "(0, 1)"})
    c_miss: float = field(default=1.0, metadata={"domain": "(0, inf)"})
    c_fa: float = field(default=1.0, metadata={"domain": "(0, inf)"})

    def __post_init__(self):
        check_domains(self, "eval")


def trial_blocks(speaker_ids, trials_per_speaker: int, seed: int):
    """(count, blocks): the number of trials, and a generator of the trial
    list in blocks of whole speakers, each block an (enroll, test,
    is_target) triple of arrays. The speakers are checked here, before any
    block is drawn.

    Per speaker, in ascending id order: trials_per_speaker same-speaker
    (target) pairs, then as many cross-speaker (non-target) pairs, sampled
    with _sample_k. Target pair k is the k-th (a, b), a < b, over the
    speaker's rows; non-target pair k is divmod(k, number of other rows)."""
    check_integer(trials_per_speaker, "trials_per_speaker", 1)
    check_integer(seed, "seed", 0)
    ids, groups = group_by_speaker(speaker_ids)
    if len(groups) < 2:
        raise ConfigError("non-target trials need at least 2 speakers")
    for sid, own in zip(ids.tolist(), groups):
        if len(own) < 2:
            raise ConfigError(f"speaker {sid} has {len(own)} utterance(s), needs >= 2")
    count = 2 * trials_per_speaker * len(groups)
    return count, _speaker_trials(groups, len(speaker_ids), trials_per_speaker, seed)


def _speaker_trials(groups, rows: int, per_speaker: int, seed: int):
    """The blocks of trial_blocks: as many whole speakers as fit in
    _TRIAL_BLOCK trials, and at least one. Drawing, scoring and writing one
    speaker at a time took about a tenth longer than blocks of ten, as each
    step evicted from the CPU caches what the next one reads."""
    rng = np.random.default_rng(seed)
    speakers = max(1, _TRIAL_BLOCK // (2 * per_speaker))
    is_target = np.tile(np.repeat([True, False], per_speaker), min(speakers, len(groups)))
    other = np.ones(rows, dtype=bool)
    pairs = {}  # speaker size -> its (a, b), a < b, pairs
    for start in range(0, len(groups), speakers):
        enroll, test = [], []
        for own in groups[start:start + speakers]:
            if len(own) not in pairs:
                pairs[len(own)] = np.triu_indices(len(own), k=1)
            first, second = pairs[len(own)]
            k = _sample_k(rng, first.size, per_speaker)
            other[own] = False
            others = np.flatnonzero(other)
            other[own] = True
            e, o = np.divmod(_sample_k(rng, len(own) * len(others), per_speaker), len(others))
            enroll += own[first[k]], own[e]
            test += own[second[k]], others[o]
        enroll = np.concatenate(enroll)
        yield enroll, np.concatenate(test), is_target[:len(enroll)]


def _sample_k(rng, space: int, count: int) -> np.ndarray:
    """count draws from range(space): without replacement while possible,
    then uniformly with replacement for the excess."""
    if count <= space:
        return rng.choice(space, size=count, replace=False)
    return np.concatenate([np.arange(space), rng.integers(0, space, size=count - space)])


def score_trials(params: NetworkParams, features, trials,
                 space: str = "projection") -> ScoredTrials:
    """Cosine scores of the (count, blocks) of trial_blocks from one
    inference pass (model.embed) over the feature matrix.

    space selects the representation: "projection" (the final contrastive
    embedding) or "encoder" (the normalized pre-projection output). A row
    that the network maps to a zero vector, or one whose norm overflows,
    raises NumericalError naming it; a trial index outside the feature
    matrix raises ConfigError naming the trial."""
    scores, is_target, blocks = _scored_blocks(params, features, trials, space)
    for _ in blocks:
        pass
    return ScoredTrials(scores, is_target)


def score_and_save(params: NetworkParams, features, trials, space: str,
                   trials_path, scores_path) -> ScoredTrials:
    """score_trials of the (count, blocks) of trial_blocks, which also
    writes each block to the trial file (one "enroll test 0|1" line per
    trial) and the score file (the same line with the score appended as
    %.17g) before the next block is drawn, so no whole trial list exists."""
    scores, is_target, blocks = _scored_blocks(params, features, trials, space)
    table = _index_table(len(features) - 1, 2 * len(scores))
    write_files([(trials_path, "trials"), (scores_path, "scores")],
                (texts for block in blocks
                 for texts in zip(_line_blocks(block[:3], table), _line_blocks(block, table))))
    return ScoredTrials(scores, is_target)


def _scored_blocks(params, features, trials, space):
    """(scores, is_target, blocks) of the (count, blocks) of trial_blocks:
    the score and flag vectors of all count trials, and a generator that
    scores each block into its slice of them and yields it as (enroll,
    test, is_target, scores). The embedding (model.embed) and the two
    (block, D) gather buffers of _cosines are made here.

    Each block's index range is checked by min/max reductions before
    _cosines gathers it in clip mode; the per-trial mask that names the
    first bad trial, by its number in the whole list, is built only when
    some index is out of range."""
    count, blocks = trials
    try:
        with np.errstate(all="ignore"):
            emb = embed(params, features, space)
    except ZeroVector as exc:
        raise NumericalError(f"cannot score trials: the embedding of evaluated {exc}") from exc
    scores, is_target = np.empty(count), np.empty(count, dtype=bool)
    buffers = np.empty((2, min(count, _SCORE_BLOCK), emb.shape[1]))
    n = len(features)

    def scored():
        start = 0
        for enroll, test, flags in blocks:
            span = slice(start, start + len(enroll))
            if enroll.size and (min(enroll.min(), test.min()) < 0
                                or max(enroll.max(), test.max()) >= n):
                outside = (enroll < 0) | (enroll >= n) | (test < 0) | (test >= n)
                k = int(np.argmax(outside))
                raise ConfigError(f"trial {start + k} ({enroll[k]}, {test[k]}) "
                                  f"outside dataset of {n}")
            _cosines(emb, enroll, test, scores[span], buffers)
            is_target[span] = flags
            start = span.stop
            yield enroll, test, is_target[span], scores[span]

    return scores, is_target, scored()


def _cosines(emb, enroll, test, out, buffers) -> None:
    """out[i] = the cosine of trial i's unit rows of emb, clipped to [-1, 1].

    The trials are scored _SCORE_BLOCK at a time, gathered into the two
    (block, D) buffers, so the products stay small. The gathers clip
    out-of-range indices, which _scored_blocks has ruled out, so they write
    straight into the buffers (numpy's default raise mode gathers into a
    temporary and copies it). The scores are bit-identical to scoring all
    trials at once: np.add.reduce (what np.sum calls) over the last axis of
    a C-contiguous block reduces each row with the same pairwise routine,
    however many rows the block holds."""
    enroll_buf, test_buf = buffers
    for start in range(0, len(enroll), _SCORE_BLOCK):
        block = slice(start, start + _SCORE_BLOCK)
        size = len(out[block])
        enrolled, tested = enroll_buf[:size], test_buf[:size]
        np.take(emb, enroll[block], axis=0, out=enrolled, mode="clip")
        np.take(emb, test[block], axis=0, out=tested, mode="clip")
        enrolled *= tested
        np.add.reduce(enrolled, axis=1, out=out[block])
    np.clip(out, -1.0, 1.0, out=out)


def roc_metrics(scored: ScoredTrials, dcf: DcfParams | None = None):
    """(eer, eer_threshold, min_dcf, min_dcf_threshold) of one ROC curve.

    The curve is the all-accept point, then one point per distinct score t
    (P_miss = P(target < t), P_fa = P(non-target >= t)), then the all-reject
    point. The EER, in [0, 1], interpolates the crossing where P_miss - P_fa
    changes sign; the all-reject threshold clamps to the largest score. The
    minDCF is the least c_miss * P_miss * p_target + c_fa * P_fa *
    (1 - p_target) over the points, divided by the best trivial-decision
    cost min(c_miss * p_target, c_fa * (1 - p_target)). Its ties pick the
    lowest threshold, and its end points sit at -inf and +inf."""
    dcf = dcf or DcfParams()
    if np.all(scored.scores == scored.scores[0]):
        raise NumericalError("all trial scores are equal")
    # np.unique's own steps for floats (sort, then keep each score that
    # differs from the one before it), without the np.ma check that imports
    # numpy.ma on first use
    uniq = np.sort(scored.scores)
    keep = np.empty(uniq.size, dtype=bool)
    keep[0] = True
    np.not_equal(uniq[1:], uniq[:-1], out=keep[1:])
    uniq = uniq[keep]
    p_miss = _class_rates(scored.scores[scored.is_target], uniq, at_or_above=False)
    p_fa = _class_rates(scored.scores[~scored.is_target], uniq, at_or_above=True)

    def threshold(i):
        return -np.inf if i == 0 else uniq[min(i, uniq.size) - 1]

    # p_miss - p_fa is non-decreasing, -1 at the first two points; for rates
    # in [0, 1] it is >= 0 exactly where p_miss >= p_fa
    k = int(np.argmax(np.greater_equal(p_miss, p_fa)))
    eer, eer_thr = p_miss[k], threshold(k)
    diff_k = p_miss[k] - p_fa[k]
    if diff_k != 0.0:
        j = k - 1
        diff_j = p_miss[j] - p_fa[j]
        alpha = -diff_j / (diff_k - diff_j)
        eer = p_miss[j] + alpha * (p_miss[k] - p_miss[j])
        eer_thr = threshold(j) + alpha * (threshold(k) - threshold(j))

    # c_miss * p_miss * p_target + c_fa * p_fa * (1 - p_target), term by term
    cost = np.multiply(p_miss, dcf.c_miss, out=p_miss)
    cost *= dcf.p_target
    p_fa *= dcf.c_fa
    p_fa *= 1.0 - dcf.p_target
    cost += p_fa
    normalizer = min(dcf.c_miss * dcf.p_target, dcf.c_fa * (1.0 - dcf.p_target))
    i = int(np.argmin(cost))
    dcf_thr = np.inf if i == cost.size - 1 else threshold(i)
    return float(eer), float(eer_thr), float(cost[i] / normalizer), float(dcf_thr)


def _class_rates(own, uniq, at_or_above: bool) -> np.ndarray:
    """One class's curve from own, a copy of its scores (sorted in place):
    per distinct score t in uniq, the share of own below t (P_miss of the
    targets), or at or above t (P_fa of the non-targets), between the
    all-accept and all-reject end points. Built in one array."""
    own.sort()
    rates = np.empty(uniq.size + 2)
    rates[0], rates[-1] = (1.0, 0.0) if at_or_above else (0.0, 1.0)
    counts = np.searchsorted(own, uniq)
    if at_or_above:
        np.subtract(own.size, counts, out=counts)
    rates[1:-1] = counts
    rates[1:-1] /= own.size
    return rates


def _line_blocks(columns, table):
    """The lines of the columns (enroll, test, flags[, scores]), one str
    per _SCORE_BLOCK rows: per trial its enroll and test indices and its 0|1
    flag, then, given scores, its score as %.17g. Each cell is one shared
    string that ends in what follows it: "i " from _index_cells for an
    index, "0\n" or "1\n" for a flag that ends the line, and "0 " or "1 "
    for one that a score follows. Without scores a block is its cells
    joined; with them it is one %-call over the cells and the scores as
    Python floats. table is _index_table's."""
    flag_text = np.array(["0\n", "1\n"] if len(columns) == 3 else ["0 ", "1 "],
                         dtype=object)
    for start in range(0, len(columns[0]), _SCORE_BLOCK):
        enroll, test, flags, *scores = (c[start:start + _SCORE_BLOCK] for c in columns)
        cells = [_index_cells(enroll, table), _index_cells(test, table),
                 flag_text[flags.astype(np.intp)].tolist(), *(s.tolist() for s in scores)]
        flat = [None] * (len(enroll) * len(cells))
        for j, col in enumerate(cells):
            flat[j::len(cells)] = col
        yield "".join(flat) if not scores else "%s%s%s%.17g\n" * len(enroll) % tuple(flat)


def _index_table(top: int, cells: int):
    """The strings "i " (the index in decimal, then a space) of every index
    up to top, for _index_cells to share; None where that table would hold
    as many strings as the index columns have cells, or more."""
    if top + 1 >= cells:
        return None
    return np.array([f"{i} " for i in range(top + 1)], dtype=object)


def _index_cells(column, table):
    """The index column as a list of "i " strings: shared ones from table,
    or, where table is None, a string of its own per cell."""
    if table is None:
        return [f"{i} " for i in column.tolist()]
    return table[column].tolist()
