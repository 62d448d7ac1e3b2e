"""Brute-force EER and minDCF oracles for the evaluation tests.

They recount both error rates for every candidate threshold trial by trial,
with the conventions that aamsupcon.evaluate documents, and share no code
with its sorted routes."""

from aamsupcon.errors import NumericalError
from aamsupcon.evaluate import DcfParams, ScoredTrials


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
