"""Reference implementations the tests compare the package against.

The brute-force EER and minDCF oracles recount both error rates for every
candidate threshold trial by trial, with the conventions that
aamsupcon.evaluate documents, and share no code with its sorted routes.
eer and min_dcf are the two-curve routes that roc_metrics replaced, kept
to pin its bits. load_trials and load_scored_trials read the trial and
score files back and pin the grammar that README documents. The loss
kernels below allocate every temporary, as the in-place kernels
of aamsupcon.losses did before they reused buffers, and give the same bits.
save_dataset is the whole-file dataset writer that the row-block one
replaced, kept to pin its bytes. sweep_rows_sequential is the one-size-
after-another loop that sweep-batch's worker pool replaced, kept to pin
its rows.
"""

from dataclasses import replace

import numpy as np

from aamsupcon.errors import IoError, NumericalError, read_file, write_file
from aamsupcon.evaluate import DcfParams, ScoredTrials, roc_metrics, score_trials
from aamsupcon.geometry import margin_logit, margin_logit_grad
from aamsupcon.losses import LossKind, supcon_masks
from aamsupcon.synthdata import _FLOAT_FMT, DatasetSpec
from aamsupcon.training import train


def eer_threshold_sweep(scored: ScoredTrials):
    """Brute-force EER oracle: recount both error rates for every candidate
    threshold in O(n^2) and interpolate the crossing with the same rule as
    eer(). Kept free of shared code with the fast route."""
    scores = [float(s) for s in scored.scores]
    labels = [bool(t) for t in scored.is_target]
    if all(s == scores[0] for s in scores):
        raise NumericalError("all trial scores are equal")
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


def min_dcf_threshold_sweep(scored: ScoredTrials, params: DcfParams | None = None):
    """Brute-force minDCF oracle: same candidate enumeration as min_dcf but
    recounting misses and false accepts trial by trial."""
    params = params or DcfParams()
    scores = [float(s) for s in scored.scores]
    labels = [bool(t) for t in scored.is_target]
    if all(s == scores[0] for s in scores):
        raise NumericalError("all trial scores are equal")
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


# ---------------------------------------------------------------------------
# bit-for-bit metric reference: the two-curve eer and min_dcf that
# evaluate.roc_metrics replaces, kept verbatim


def _roc_points(scored: ScoredTrials):
    """FRR/FAR at every candidate threshold (ascending distinct scores, then
    the all-reject point). FRR(t) = P(target < t); FAR(t) = P(non-target >= t)."""
    if np.all(scored.scores == scored.scores[0]):
        raise NumericalError("all trial scores are equal")
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


def min_dcf(scored: ScoredTrials, params: DcfParams | None = None):
    """Minimum normalized detection cost and the threshold attaining it.

    Sweeps the candidate thresholds (distinct scores plus +-inf), computes
    c_miss * P_miss * p_target + c_fa * P_fa * (1 - p_target), and divides
    by the best trivial-decision cost min(c_miss * p_target,
    c_fa * (1 - p_target)). Ties pick the lowest threshold.
    """
    params = params or DcfParams()
    frr, far, roc_thresholds = _roc_points(scored)
    # the ROC with the all-accept point first and the all-reject one at +inf
    p_miss, p_fa = np.append(0.0, frr), np.append(1.0, far)
    thresholds = np.append(-np.inf, roc_thresholds)
    thresholds[-1] = np.inf
    dcf = (params.c_miss * p_miss * params.p_target
           + params.c_fa * p_fa * (1.0 - params.p_target))
    normalizer = min(params.c_miss * params.p_target,
                     params.c_fa * (1.0 - params.p_target))
    idx = int(np.argmin(dcf))
    return float(dcf[idx] / normalizer), float(thresholds[idx])


# ---------------------------------------------------------------------------
# byte-for-byte dataset reference: the whole-file writer that
# synthdata.save_dataset replaces, kept verbatim


def save_dataset(path, spec: DatasetSpec, features, speaker_ids) -> None:
    """Write the text dump: one header line with the spec fields, then one
    line per row: speaker_id original features..."""
    lines = ["num_speakers=%d utterances_per_speaker=%d d_in=%d spread=%s seed=%d"
             % (spec.num_speakers, spec.utterances_per_speaker, spec.d_in,
                _FLOAT_FMT % spec.spread, spec.seed)]
    row_fmt = "%d original " + " ".join([_FLOAT_FMT] * features.shape[1])
    for sid, row in zip(speaker_ids.tolist(), features.tolist()):
        lines.append(row_fmt % (sid, *row))
    write_file(path, "\n".join(lines) + "\n", "dataset")


# sweep-batch reference: the sequential loop that the worker pool of
# cli.cmd_sweep_batch replaces, kept verbatim


def sweep_rows_sequential(base, train_set, eval_features, trials, space, dcf, sizes):
    """The sweep.json rows of --sizes sizes, trained and scored one size
    after another in this process."""
    rows = []
    for size in sizes:
        cfg = replace(base, batch_speakers=size)
        params, _ = train(cfg, *train_set)
        scored = score_trials(params, eval_features, trials, space)
        eer_value, _, dcf_value, _ = roc_metrics(scored, dcf)
        rows.append({"batch_speakers": size,
                     "batch_size": 2 * size * cfg.views_per_speaker,
                     "eer_percent": 100.0 * eer_value,
                     "min_dcf": dcf_value})
    return rows


# ---------------------------------------------------------------------------
# the trial and score file grammar: readers of the files that save_trials and
# save_scored_trials write, which no command reads back


def load_trials(path):
    """Inverse of save_trials: (enroll, test, is_target) arrays."""
    return _parse_trials(path, "trials", "enroll test 0|1")[0]


def load_scored_trials(path):
    """Inverse of save_scored_trials: (trials, ScoredTrials)."""
    trials, scores = _parse_trials(path, "scores", "enroll test 0|1 score")
    return trials, ScoredTrials(scores, trials[2])


def _parse_trials(path, what: str, layout: str):
    """((enroll, test, is_target), scores) of a trial or score file; raises
    IoError naming file:line for a malformed line or a self-pair."""
    lines = read_file(path, what, "ascii").splitlines()
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


# ---------------------------------------------------------------------------
# bit-for-bit kernel reference: the allocate-per-temporary kernels that the
# in-place ones in losses replace, kept verbatim


def reference_supcon_raw(z: np.ndarray, masks, tau: float):
    """Value and d/dz of the contrastive sum over (pos, cand) masks."""
    pos_mask, cand_mask = masks
    pcount = pos_mask.sum(axis=1).astype(np.float64)

    sims = (z @ z.T) / tau
    masked = np.where(cand_mask, sims, -np.inf)
    row_max = masked.max(axis=1)
    shifted_exp = np.exp(masked - row_max[:, None])
    denom = shifted_exp.sum(axis=1)
    lse = row_max + np.log(denom)

    pos_sums = np.where(pos_mask, sims, 0.0).sum(axis=1)
    value = float(np.sum(lse - pos_sums / pcount))

    # d(value)/d(sims): softmax weight on candidates minus 1/|P(i)| on positives.
    soft = shifted_exp / denom[:, None]
    g = (soft - pos_mask / pcount[:, None]) / tau
    grad_z = (g + g.T) @ z
    return value, grad_z


def reference_margin_softmax_raw(z, labels, w, margin, scale):
    """Cross-entropy over scaled cosine logits with the target column
    penalized by the angular margin; margin == 0 is the plain softmax path.
    Returns (value, grad_z, grad_w)."""
    n = z.shape[0]
    rows = np.arange(n)
    cosines = z @ w.T
    logits = cosines.copy()
    if margin != 0.0:
        logits[rows, labels] = margin_logit(cosines[rows, labels], margin)
    logits *= scale

    row_max = logits.max(axis=1)
    shifted = logits - row_max[:, None]
    exp_shifted = np.exp(shifted)
    sumexp = exp_shifted.sum(axis=1)
    lse = row_max + np.log(sumexp)
    value = float(np.mean(lse - logits[rows, labels]))

    d = exp_shifted / sumexp[:, None]
    d[rows, labels] -= 1.0
    d *= scale / n
    if margin != 0.0:
        d[rows, labels] *= margin_logit_grad(cosines[rows, labels], margin)
    grad_z = d @ w
    grad_w = d.T @ z
    return value, grad_z, grad_w


def reference_terms(kind, z, labels, w, tau, margin, scale, convention, lam):
    """loss_terms composed from the reference kernels."""
    if kind.contrastive:
        pos, _, _, not_cand = supcon_masks(labels, convention)
        masks = pos, ~not_cand
    if kind is LossKind.SUPCON:
        value, grad_z = reference_supcon_raw(z, masks, tau)
        return value, grad_z, np.zeros_like(w)
    if kind is LossKind.SOFTMAX:
        margin = 0.0
    value, grad_z, grad_w = reference_margin_softmax_raw(z, labels, w, margin, scale)
    if kind is LossKind.AAMSUPCON and lam != 0.0:
        sup_value, sup_grad = reference_supcon_raw(z, masks, tau)
        value += lam * sup_value
        grad_z = grad_z + lam * sup_grad
    return value, grad_z, grad_w


def corrupted(loss_terms, offset: float = 0.05):
    """loss_terms with offset added to the analytic grad_z[0, 0] of every
    call: the negative control a gradient check must fail. The loss value
    is left alone, so the finite differences stay right."""
    def wrapped(*args, **kwargs):
        value, grad_z, grad_w, grad_h = loss_terms(*args, **kwargs)
        grad_z[0, 0] += offset
        return value, grad_z, grad_w, grad_h
    return wrapped
