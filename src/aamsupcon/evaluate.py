"""Speaker-verification evaluation: trial lists, cosine scoring, EER and
minDCF.

Both metrics come in two independent routes: a fast sorted/vectorized
implementation and a brute-force threshold sweep that recounts errors for
every candidate threshold. Both apply the same documented conventions:

* a trial is accepted when score >= threshold, so tied scores flip together;
* candidate operating points are the distinct observed scores (plus the
  all-reject point for EER, plus +-inf for minDCF);
* where the false-accept and false-reject rates cross between adjacent
  candidates, the crossing is linearly interpolated in both rates and in
  the threshold (clamped to the largest observed score at the all-reject
  end).
"""

from dataclasses import dataclass

import numpy as np

from .batching import group_by_speaker
from .errors import (
    DegenerateTrials,
    IndexOutOfRange,
    InsufficientSpeakers,
    InsufficientUtterances,
    IoError,
    ZeroVector,
)
from .model import NetworkParams, encoder_embeddings, forward

_FLOAT_FMT = "%.17g"


@dataclass
class ScoredTrials:
    scores: np.ndarray
    is_target: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.is_target = np.asarray(self.is_target, dtype=bool)
        if self.scores.shape != self.is_target.shape or self.scores.ndim != 1:
            raise ValueError("scores and is_target must be 1-D and equal length")
        if not (self.is_target.any() and (~self.is_target).any()):
            raise DegenerateTrials("need at least one target and one non-target trial")


@dataclass
class DcfParams:
    """The minDCF operating point: the eval.p_target, eval.c_miss and
    eval.c_fa config keys."""

    p_target: float = 0.01
    c_miss: float = 1.0
    c_fa: float = 1.0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not 0.0 < self.p_target < 1.0:
            raise ValueError(f"p_target must be in (0, 1), got {self.p_target}")
        for name in ("c_miss", "c_fa"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {getattr(self, name)}")


def build_trials(speaker_ids, trials_per_speaker: int, seed: int):
    """Trial list (enroll, test, is_target) of row indices into speaker_ids.

    Per speaker, in ascending id order: trials_per_speaker same-speaker
    (target) pairs, then as many cross-speaker (non-target) pairs, sampled
    with _sample_k. Target pair k is the k-th (a, b), a < b, over the
    speaker's rows; non-target pair k is divmod(k, number of other rows)."""
    if trials_per_speaker < 1:
        raise ValueError(f"trials_per_speaker must be >= 1, got {trials_per_speaker}")
    ids, groups = group_by_speaker(speaker_ids)
    if len(groups) < 2:
        raise InsufficientSpeakers("non-target trials need at least 2 speakers")
    for sid, own in zip(ids.tolist(), groups):
        if len(own) < 2:
            raise InsufficientUtterances(f"speaker {sid} has {len(own)} utterance(s), needs >= 2")

    rng = np.random.default_rng(seed)
    enroll, test = [], []
    for own in groups:
        first, second = np.triu_indices(len(own), k=1)
        k = _sample_k(rng, first.size, trials_per_speaker)
        enroll.append(own[first[k]])
        test.append(own[second[k]])

        others = np.setdiff1d(np.arange(len(speaker_ids)), own, assume_unique=True)
        e, o = np.divmod(_sample_k(rng, len(own) * len(others), trials_per_speaker),
                         len(others))
        enroll.append(own[e])
        test.append(others[o])
    block = np.repeat([True, False], trials_per_speaker)
    return np.concatenate(enroll), np.concatenate(test), np.tile(block, len(groups))


def _sample_k(rng, space: int, count: int) -> np.ndarray:
    """count draws from range(space): without replacement while possible,
    then uniformly with replacement for the excess."""
    if count <= space:
        return rng.choice(space, size=count, replace=False)
    return np.concatenate([np.arange(space), rng.integers(0, space, size=count - space)])


def score_trials(params: NetworkParams, features, trials,
                 space: str = "projection") -> ScoredTrials:
    """Cosine scores of the (enroll, test, is_target) trials from one cached
    forward pass over the feature matrix.

    space selects the representation: "projection" (the final contrastive
    embedding) or "encoder" (the normalized pre-projection output). A row
    that the network maps to a zero vector raises DegenerateTrials naming
    it."""
    if space not in ("projection", "encoder"):
        raise ValueError(f"space must be projection|encoder, got {space!r}")
    enroll, test, is_target = (np.asarray(a) for a in trials)
    n = len(features)
    outside = (enroll < 0) | (enroll >= n) | (test < 0) | (test >= n)
    if outside.any():
        k = int(np.argmax(outside))
        raise IndexOutOfRange(f"trial {k} ({enroll[k]}, {test[k]}) outside dataset of {n}")
    try:
        trace = forward(params, features)
        emb = trace.embeddings if space == "projection" else encoder_embeddings(trace)
    except ZeroVector as exc:
        raise DegenerateTrials(f"cannot score trials: the embedding of evaluated {exc}") from exc
    scores = np.clip(np.sum(emb[enroll] * emb[test], axis=1), -1.0, 1.0)
    return ScoredTrials(scores, is_target)


def _roc_points(scored: ScoredTrials):
    """FRR/FAR at every candidate threshold (ascending distinct scores, then
    the all-reject point). FRR(t) = P(target < t); FAR(t) = P(non-target >= t)."""
    if np.all(scored.scores == scored.scores[0]):
        raise DegenerateTrials("all trial scores are equal")
    tgt = np.sort(scored.scores[scored.is_target])
    non = np.sort(scored.scores[~scored.is_target])
    uniq = np.unique(scored.scores)
    frr = np.searchsorted(tgt, uniq, side="left") / tgt.size
    far = (non.size - np.searchsorted(non, uniq, side="left")) / non.size
    frr = np.append(frr, 1.0)
    far = np.append(far, 0.0)
    thresholds = np.append(uniq, uniq[-1])  # all-reject point clamps to max score
    return frr, far, thresholds


def eer(scored: ScoredTrials):
    """Equal error rate and its threshold.

    Walks the ROC over the candidate thresholds and linearly interpolates
    the crossing where FRR - FAR changes sign. Returns (eer, threshold) with
    eer in [0, 1].
    """
    frr, far, thr = _roc_points(scored)
    diff = frr - far  # non-decreasing; starts at -1
    k = int(np.argmax(diff >= 0.0))
    if diff[k] == 0.0:
        return float(frr[k]), float(thr[k])
    j = k - 1
    alpha = -diff[j] / (diff[k] - diff[j])
    rate = frr[j] + alpha * (frr[k] - frr[j])
    threshold = thr[j] + alpha * (thr[k] - thr[j])
    return float(rate), float(threshold)


def eer_threshold_sweep(scored: ScoredTrials):
    """Brute-force EER oracle: recount both error rates for every candidate
    threshold in O(n^2) and interpolate the crossing with the same rule as
    eer(). Kept free of shared code with the fast route."""
    scores = [float(s) for s in scored.scores]
    labels = [bool(t) for t in scored.is_target]
    if all(s == scores[0] for s in scores):
        raise DegenerateTrials("all trial scores are equal")
    targets = [s for s, t in zip(scores, labels) if t]
    nons = [s for s, t in zip(scores, labels) if not t]
    candidates = sorted(set(scores))
    points = []
    for u in candidates:
        frr = sum(1 for s in targets if s < u) / len(targets)
        far = sum(1 for s in nons if s >= u) / len(nons)
        points.append((frr, far, u))
    points.append((1.0, 0.0, candidates[-1]))
    for (frr0, far0, t0), (frr1, far1, t1) in zip(points, points[1:]):
        d0, d1 = frr0 - far0, frr1 - far1
        if d0 >= 0.0:
            return frr0, t0
        if d1 >= 0.0:
            if d1 == 0.0:
                return frr1, t1
            alpha = -d0 / (d1 - d0)
            return frr0 + alpha * (frr1 - frr0), t0 + alpha * (t1 - t0)
    raise AssertionError("no EER crossing found")  # unreachable: d spans -1..1


def min_dcf(scored: ScoredTrials, params: DcfParams | None = None):
    """Minimum normalized detection cost and the threshold attaining it.

    Sweeps the candidate thresholds (distinct scores plus +-inf), computes
    c_miss * P_miss * p_target + c_fa * P_fa * (1 - p_target), and divides
    by the best trivial-decision cost min(c_miss * p_target,
    c_fa * (1 - p_target)). Ties pick the lowest threshold.
    """
    params = params or DcfParams()
    if np.all(scored.scores == scored.scores[0]):
        raise DegenerateTrials("all trial scores are equal")
    tgt = np.sort(scored.scores[scored.is_target])
    non = np.sort(scored.scores[~scored.is_target])
    uniq = np.unique(scored.scores)
    thresholds = np.concatenate([[-np.inf], uniq, [np.inf]])
    p_miss = np.searchsorted(tgt, thresholds, side="left") / tgt.size
    p_fa = (non.size - np.searchsorted(non, thresholds, side="left")) / non.size
    dcf = (params.c_miss * p_miss * params.p_target
           + params.c_fa * p_fa * (1.0 - params.p_target))
    normalizer = min(params.c_miss * params.p_target,
                     params.c_fa * (1.0 - params.p_target))
    idx = int(np.argmin(dcf))
    return float(dcf[idx] / normalizer), float(thresholds[idx])


def min_dcf_threshold_sweep(scored: ScoredTrials, params: DcfParams | None = None):
    """Brute-force minDCF oracle: same candidate enumeration as min_dcf but
    recounting misses and false accepts trial by trial."""
    params = params or DcfParams()
    scores = [float(s) for s in scored.scores]
    labels = [bool(t) for t in scored.is_target]
    if all(s == scores[0] for s in scores):
        raise DegenerateTrials("all trial scores are equal")
    targets = [s for s, t in zip(scores, labels) if t]
    nons = [s for s, t in zip(scores, labels) if not t]
    candidates = [float("-inf")] + sorted(set(scores)) + [float("inf")]
    best = None
    for u in candidates:
        p_miss = sum(1 for s in targets if s < u) / len(targets)
        p_fa = sum(1 for s in nons if s >= u) / len(nons)
        cost = (params.c_miss * p_miss * params.p_target
                + params.c_fa * p_fa * (1.0 - params.p_target))
        if best is None or cost < best[0]:
            best = (cost, u)
    normalizer = min(params.c_miss * params.p_target,
                     params.c_fa * (1.0 - params.p_target))
    return best[0] / normalizer, best[1]


def save_trials(path, trials) -> None:
    """One trial per line: enroll_index test_index 0|1."""
    _write_lines(path, "trials", (f"{e} {t} {int(g)}\n" for e, t, g in _rows(trials)))


def load_trials(path):
    """Inverse of save_trials: (enroll, test, is_target) arrays."""
    return _parse_trials(path, "enroll test 0|1")[0]


def save_scored_trials(path, trials, scored: ScoredTrials) -> None:
    """Trial-list format with the score appended to each line."""
    if len(trials[0]) != scored.scores.size:
        raise ValueError("trials and scores differ in length")
    _write_lines(path, "scores", (f"{e} {t} {int(g)} " + (_FLOAT_FMT % s) + "\n"
                                  for (e, t, g), s in zip(_rows(trials), scored.scores.tolist())))


def load_scored_trials(path):
    """Inverse of save_scored_trials: (trials, ScoredTrials)."""
    trials, scores = _parse_trials(path, "enroll test 0|1 score")
    return trials, ScoredTrials(scores, trials[2])


def _rows(trials):
    """The trials as Python scalars, which format faster than numpy ones."""
    return zip(*(np.asarray(a).tolist() for a in trials))


def _write_lines(path, what, lines) -> None:
    try:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise IoError(f"cannot write {what} to {path}: {exc}") from exc


def _parse_trials(path, layout: str):
    """((enroll, test, is_target), scores) of a trial or score file; raises
    IoError naming file:line for a malformed line or a self-pair."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoError(f"{path}: not ASCII text (byte {exc.start})") from exc
    width = len(layout.split())
    enroll, test, flags, scores = [], [], [], []
    for ln, line in enumerate(lines, start=1):
        parts = line.split()
        if len(parts) != width or parts[2] not in ("0", "1"):
            raise IoError(f"{path}:{ln}: expected '{layout}'")
        try:
            e, t = int(parts[0]), int(parts[1])
            scores.extend(map(float, parts[3:]))
        except ValueError as exc:
            raise IoError(f"{path}:{ln}: {exc}") from exc
        if e == t:
            raise IoError(f"{path}:{ln}: trial pairs index {e} with itself")
        enroll.append(e)
        test.append(t)
        flags.append(parts[2] == "1")
    trials = (np.array(enroll, dtype=np.int64), np.array(test, dtype=np.int64),
              np.array(flags, dtype=bool))
    return trials, np.array(scores, dtype=np.float64)
