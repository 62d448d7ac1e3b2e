import math
from dataclasses import replace

import numpy as np
import pytest

from aamsupcon.batching import AugmentPolicy, batch_layout, build_batch, group_by_speaker

from aamsupcon.errors import (
    AnchorWithoutCandidate,
    AnchorWithoutPositive,
    BatchTooSmall,
    InvalidMargin,
    InvalidScale,
)
from aamsupcon.geometry import margin_logit, margin_logit_grad, normalize_rows
from aamsupcon.losses import (
    DenominatorConvention,
    LossInputs,
    LossKind,
    aamsupcon_loss,
    arcface_loss,
    contrast_masks,
    grad_check,
    loss_terms,
    softmax_loss,
    supcon_loss,
    supcon_masks,
)
from aamsupcon.synthdata import DatasetSpec, generate
from aamsupcon.training import TrainConfig, run_masks

ALL = DenominatorConvention.ALL_NON_ANCHOR
STRICT = DenominatorConvention.STRICT_NEGATIVES


# ---------------------------------------------------------------------------
# independent oracles: straight from the formulas, scalar loops, no shared code


def oracle_supcon(z, labels, tau, convention):
    n = len(labels)
    total = 0.0
    for i in range(n):
        pos = [p for p in range(n) if p != i and labels[p] == labels[i]]
        if convention is ALL:
            cand = [a for a in range(n) if a != i]
        else:
            cand = [a for a in range(n) if labels[a] != labels[i]]
        term = 0.0
        for p in pos:
            num = math.exp(float(np.dot(z[i], z[p])) / tau)
            den = sum(math.exp(float(np.dot(z[i], z[a])) / tau) for a in cand)
            term += math.log(num / den)
        total += -term / len(pos)
    return total


def oracle_arcface(z, labels, w, m, s):
    n, c = len(labels), w.shape[0]
    total = 0.0
    for i in range(n):
        cos_t = max(-1.0, min(1.0, float(np.dot(z[i], w[labels[i]]))))
        shifted = math.cos(min(math.acos(cos_t) + m, math.pi))
        num = math.exp(s * shifted)
        den = num + sum(math.exp(s * float(np.dot(z[i], w[j])))
                        for j in range(c) if j != labels[i])
        total += -math.log(num / den)
    return total / n


def per_anchor_supcon_terms(z, labels, tau, candidates):
    """Per-anchor contrastive terms with caller-supplied candidate sets."""
    terms = []
    for i in range(len(labels)):
        pos = [p for p in range(len(labels)) if p != i and labels[p] == labels[i]]
        acc = 0.0
        for p in pos:
            num = math.exp(float(np.dot(z[i], z[p])) / tau)
            den = sum(math.exp(float(np.dot(z[i], z[a])) / tau) for a in candidates[i])
            acc += math.log(num / den)
        terms.append(-acc / len(pos))
    return terms


def random_batch(rng, n, d, c):
    """Unit-norm batch where every label appears at least twice."""
    assert n % 2 == 0
    half = rng.integers(0, c, size=n // 2)
    labels = np.concatenate([half, half])
    z = normalize_rows(rng.standard_normal((n, d)))
    w = normalize_rows(rng.standard_normal((c, d)))
    return LossInputs(z, labels, w)


# ---------------------------------------------------------------------------
# contrast masks


def oracle_masks(labels, convention):
    """P(i) and A(i) as masks, one anchor at a time."""
    n = len(labels)
    pos = np.zeros((n, n), dtype=bool)
    cand = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            pos[i, j] = labels[j] == labels[i]
            cand[i, j] = convention is ALL or labels[j] != labels[i]
    return pos, cand


def test_index_sets_conventions():
    pos, cand = contrast_masks([0, 0, 1, 1], ALL)
    assert list(np.flatnonzero(pos[0])) == [1]
    assert list(np.flatnonzero(cand[0])) == [1, 2, 3]
    pos, cand = contrast_masks([0, 0, 1, 1], STRICT)
    assert list(np.flatnonzero(pos[0])) == [1]
    assert list(np.flatnonzero(cand[0])) == [2, 3]


def test_index_sets_positives_subset_of_candidates_under_default():
    rng = np.random.default_rng(0)
    for _ in range(10):
        labels = np.repeat(rng.integers(0, 3, size=4), 2)
        pos, cand = contrast_masks(labels, ALL)
        for p, c in zip(pos, cand):
            assert set(np.flatnonzero(p)) <= set(np.flatnonzero(c))


def test_index_sets_errors():
    with pytest.raises(AnchorWithoutPositive):
        contrast_masks([0, 1])
    with pytest.raises(BatchTooSmall):
        contrast_masks([0])
    with pytest.raises(AnchorWithoutCandidate):
        contrast_masks([0, 0, 0], STRICT)


@pytest.mark.parametrize("convention", [ALL, STRICT])
def test_contrast_masks_match_oracle_on_random_labels(convention):
    rng = np.random.default_rng(28)
    compared = 0
    for _ in range(160):
        labels = rng.integers(0, int(rng.integers(1, 5)), size=int(rng.integers(2, 13)))
        want_pos, want_cand = oracle_masks(labels, convention)
        if not want_pos.any(axis=1).all():
            with pytest.raises(AnchorWithoutPositive):
                contrast_masks(labels, convention)
        elif not want_cand.any(axis=1).all():
            with pytest.raises(AnchorWithoutCandidate):
                contrast_masks(labels, convention)
        else:
            pos, cand = contrast_masks(labels, convention)
            assert pos.dtype == bool and cand.dtype == bool
            assert np.array_equal(pos, want_pos)
            assert np.array_equal(cand, want_cand)
            compared += 1
    assert compared >= 40


# ---------------------------------------------------------------------------
# supcon


def test_supcon_two_identical_embeddings_is_exactly_zero():
    z = np.array([[1.0, 0.0], [1.0, 0.0]])
    inputs = LossInputs(z, [0, 0], np.eye(2), temperature=0.07)
    out = supcon_loss(inputs, ALL)
    assert out.value == 0.0
    assert np.all(out.grad_class_weights == 0.0)


def _four_point_batch(degrees):
    rad = np.deg2rad(degrees)
    z = np.stack([np.cos(rad), np.sin(rad)], axis=1)
    return LossInputs(z, [0, 0, 1, 1], np.eye(2), temperature=0.07)


def test_supcon_four_point_frozen_values():
    # expected values computed once with oracle_supcon and frozen
    well_separated = _four_point_batch([0.0, 10.0, 170.0, 180.0])
    out = supcon_loss(well_separated, ALL)
    assert out.value == pytest.approx(5.6772364587274495e-12, abs=1e-10)
    out = supcon_loss(well_separated, STRICT)
    assert out.value == pytest.approx(-109.23554967729262, abs=1e-10)

    overlapping = _four_point_batch([0.0, 30.0, 60.0, 90.0])
    out = supcon_loss(overlapping, ALL)
    assert out.value == pytest.approx(1.40234470220702, abs=1e-10)
    out = supcon_loss(overlapping, STRICT)
    assert out.value == pytest.approx(-10.445598475866696, abs=1e-10)


@pytest.mark.parametrize("convention", [ALL, STRICT])
def test_supcon_matches_oracle_on_random_batches(convention):
    rng = np.random.default_rng(11)
    for _ in range(15):
        inputs = random_batch(rng, 8, 5, 3)
        got = supcon_loss(inputs, convention).value
        want = oracle_supcon(inputs.embeddings, inputs.labels, 0.07, convention)
        assert got == pytest.approx(want, abs=1e-10)
        assert np.isfinite(got)


def test_supcon_appending_negatives_never_decreases_anchor_terms():
    rng = np.random.default_rng(12)
    inputs = random_batch(rng, 6, 4, 3)
    z, labels = inputs.embeddings, inputs.labels
    base_candidates = [np.flatnonzero(row) for row in contrast_masks(labels, ALL)[1]]
    base_terms = per_anchor_supcon_terms(z, labels, 0.07, base_candidates)
    assert supcon_loss(inputs, ALL).value == pytest.approx(sum(base_terms), abs=1e-10)

    # enlarging each denominator with one fresh negative raises every term
    extra = normalize_rows(rng.standard_normal((1, 4)))
    z_ext = np.vstack([z, extra])
    wider = [list(c) + [6] for c in base_candidates]
    wider_terms = per_anchor_supcon_terms(z_ext, labels, 0.07, wider)
    assert all(w >= b for w, b in zip(wider_terms, base_terms))

    # library-level: appending a same-class pair only adds non-negative terms
    # and grows existing denominators, so the total cannot drop
    pair = normalize_rows(rng.standard_normal((2, 4)))
    z_pair = np.vstack([z, pair])
    labels_pair = np.concatenate([labels, [inputs.class_weights.shape[0]] * 2])
    weights_pair = np.vstack([inputs.class_weights,
                              normalize_rows(rng.standard_normal((1, 4)))])
    bigger = LossInputs(z_pair, labels_pair, weights_pair, temperature=0.07)
    total_small = supcon_loss(inputs, ALL).value
    total_big = supcon_loss(bigger, ALL).value
    assert total_big >= total_small - 1e-12


# ---------------------------------------------------------------------------
# arcface / softmax


def test_arcface_single_sample_closed_form():
    # z == W_target, s = 1, m = 0.2; frozen from the hand-computed formula
    inputs = LossInputs(np.array([[1.0, 0.0]]), [0], np.eye(2), margin=0.2, scale=1.0)
    want = -math.log(math.exp(math.cos(0.2)) / (math.exp(math.cos(0.2)) + 1.0))
    out = arcface_loss(inputs)
    assert out.value == pytest.approx(want, abs=1e-14)
    assert out.value == pytest.approx(0.318661791131043, abs=1e-12)


def test_arcface_matches_oracle_on_random_batches():
    rng = np.random.default_rng(13)
    for _ in range(10):
        inputs = random_batch(rng, 8, 6, 4)
        want = oracle_arcface(inputs.embeddings, inputs.labels,
                              inputs.class_weights, 0.2, 30.0)
        assert arcface_loss(inputs).value == pytest.approx(want, abs=1e-10)


def test_arcface_zero_margin_equals_softmax_bitwise():
    rng = np.random.default_rng(14)
    for _ in range(5):
        inputs = random_batch(rng, 8, 5, 3)
        inputs.margin = 0.0
        arc, soft = arcface_loss(inputs), softmax_loss(inputs)
        assert arc.value == soft.value
        assert np.array_equal(arc.grad_embeddings, soft.grad_embeddings)
        assert np.array_equal(arc.grad_class_weights, soft.grad_class_weights)


def test_arcface_monotone_in_margin():
    rng = np.random.default_rng(15)
    checked = 0
    while checked < 10:
        inputs = random_batch(rng, 8, 16, 5)
        rows = np.arange(8)
        target_cos = (inputs.embeddings @ inputs.class_weights.T)[rows, inputs.labels]
        if np.max(np.arccos(np.clip(target_cos, -1, 1))) + 0.3 >= math.pi:
            continue  # precondition: no target angle saturates at the widest margin
        values = []
        for m in (0.0, 0.1, 0.2, 0.3):
            inputs.margin = m
            values.append(arcface_loss(inputs).value)
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        checked += 1


def test_softmax_uniform_logits_gives_log_c():
    # embedding orthogonal to every class weight: all logits zero
    z = np.array([[0.0, 0.0, 0.0, 1.0]])
    w = np.eye(3, 4)
    for c in (2, 3):
        inputs = LossInputs(z, [0], w[:c], scale=30.0)
        assert softmax_loss(inputs).value == pytest.approx(math.log(c), abs=1e-14)


def test_softmax_frozen_single_sample():
    # logits (1, 0, 0) at s = 1: -log(e / (e + 2))
    inputs = LossInputs(np.array([[1.0, 0.0, 0.0]]), [0], np.eye(3), scale=1.0)
    assert softmax_loss(inputs).value == pytest.approx(0.5514447139320511, abs=1e-12)


# ---------------------------------------------------------------------------
# aamsupcon


def test_aamsupcon_is_sum_of_parts():
    rng = np.random.default_rng(16)
    for _ in range(10):
        inputs = random_batch(rng, 8, 5, 3)
        total = aamsupcon_loss(inputs, ALL)
        arc, sup = arcface_loss(inputs), supcon_loss(inputs, ALL)
        assert total.value == pytest.approx(arc.value + sup.value, abs=1e-12)
        assert np.max(np.abs(total.grad_embeddings - arc.grad_embeddings
                             - sup.grad_embeddings)) < 1e-12
        assert np.max(np.abs(total.grad_class_weights - arc.grad_class_weights)) < 1e-12


def test_aamsupcon_lambda_zero_degenerates_to_arcface():
    rng = np.random.default_rng(17)
    inputs = random_batch(rng, 6, 4, 3)
    total = aamsupcon_loss(inputs, ALL, lam=0.0)
    arc = arcface_loss(inputs)
    assert total.value == arc.value
    assert np.array_equal(total.grad_embeddings, arc.grad_embeddings)


def test_aamsupcon_lambda_weights_the_contrastive_term():
    rng = np.random.default_rng(18)
    inputs = random_batch(rng, 6, 4, 3)
    arc, sup = arcface_loss(inputs), supcon_loss(inputs, ALL)
    for lam in (0.5, 2.0):
        total = aamsupcon_loss(inputs, ALL, lam=lam)
        assert total.value == pytest.approx(arc.value + lam * sup.value, abs=1e-12)


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
    masks = contrast_masks(labels, convention) if kind.contrastive else None
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


# (batch_speakers, views_per_speaker, embedding dim): N = 2BV runs from 4 to 256;
# in 2 dimensions some target angles saturate the margin at pi
ALIGNED_SHAPES = [(2, 1, 2), (3, 2, 8), (5, 3, 16), (8, 2, 128), (32, 2, 128), (64, 2, 128)]


@pytest.mark.parametrize("convention", [ALL, STRICT])
@pytest.mark.parametrize("kind", list(LossKind))
def test_loss_terms_bitwise_equal_to_reference_kernels(kind, convention):
    rng = np.random.default_rng(33)
    for speakers, views, dim in ALIGNED_SHAPES:
        classes = speakers + 3
        labels = rng.permutation(classes)[:speakers][batch_layout(speakers, views)]
        masks = supcon_masks(batch_layout(speakers, views), convention)
        for margin in (0.0, 0.2):
            for lam in (0.7, 1.0):
                z = normalize_rows(rng.standard_normal((labels.size, dim)))
                w = normalize_rows(rng.standard_normal((classes, dim)))
                got = loss_terms(kind, z, labels, w, 0.07, margin, 30.0, masks, lam)
                want = reference_terms(kind, z, labels, w, 0.07, margin, 30.0,
                                       convention, lam)
                assert got[0] == want[0], (speakers, views, margin, lam)
                assert np.array_equal(got[1], want[1]), (speakers, views, margin, lam)
                assert np.array_equal(got[2], want[2]), (speakers, views, margin, lam)


@pytest.mark.parametrize("convention", [ALL, STRICT])
@pytest.mark.parametrize("views", [1, 2, 3])
def test_run_masks_equal_contrast_masks_of_every_drawn_batch(views, convention):
    features, speaker_ids, _ = generate(DatasetSpec(7, 4, 8, 0.2, seed=views))
    _, groups = group_by_speaker(speaker_ids)
    rng = np.random.default_rng(views)
    for speakers in (2, 3, 7):
        config = TrainConfig(batch_speakers=speakers, views_per_speaker=views,
                             convention=convention)
        masks = run_masks(config)
        for _ in range(5):
            _, labels = build_batch(features, groups, speakers, views, AugmentPolicy(), rng)
            pos, cand = contrast_masks(labels, convention)
            assert np.array_equal(masks.pos, pos)
            assert np.array_equal(~masks.not_cand, cand)
            assert np.array_equal(masks.pcount, pos.sum(axis=1))
            assert np.array_equal(masks.pos_frac, pos / pos.sum(axis=1)[:, None])
        assert run_masks(replace(config, loss_kind=LossKind.ARCFACE)) is None


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize("kind", list(LossKind))
def test_grad_check_passes_for_every_loss(kind):
    rng = np.random.default_rng(19)
    for _ in range(3):
        inputs = random_batch(rng, 8, 6, 3)
        report = grad_check(kind, inputs, step=1e-6)
        assert report.max_rel_error < 1e-5
        assert report.mean_rel_error <= report.max_rel_error


def test_grad_check_supcon_small_batch():
    rng = np.random.default_rng(20)
    inputs = random_batch(rng, 4, 4, 2)
    assert grad_check(LossKind.SUPCON, inputs, step=1e-6).max_rel_error < 1e-5


def test_grad_check_aamsupcon_six_by_four():
    rng = np.random.default_rng(27)
    inputs = random_batch(rng, 6, 4, 3)
    assert grad_check(LossKind.AAMSUPCON, inputs, step=1e-6).max_rel_error < 1e-5


def test_grad_check_strict_convention():
    rng = np.random.default_rng(21)
    inputs = random_batch(rng, 8, 5, 3)
    report = grad_check(LossKind.AAMSUPCON, inputs, convention=STRICT)
    assert report.max_rel_error < 1e-5


def test_grad_check_corruption_hook_fails():
    rng = np.random.default_rng(22)
    inputs = random_batch(rng, 4, 4, 2)
    assert grad_check(LossKind.ARCFACE, inputs, corrupt=0.05).max_rel_error > 1e-3


def test_symmetric_batch_gives_symmetric_gradients():
    z = np.tile(np.array([[0.6, 0.8]]), (4, 1))
    w = np.tile(np.array([[1.0, 0.0]]), (2, 1))
    inputs = LossInputs(z, [0, 0, 1, 1], w)
    out = aamsupcon_loss(inputs, ALL)
    # anchors 0/1 and 2/3 are indistinguishable, as are the two classes
    assert np.array_equal(out.grad_embeddings[0], out.grad_embeddings[1])
    assert np.array_equal(out.grad_embeddings[2], out.grad_embeddings[3])
    assert np.allclose(out.grad_class_weights[0], out.grad_class_weights[1], atol=1e-15)


def test_permutation_equivariance():
    rng = np.random.default_rng(23)
    inputs = random_batch(rng, 8, 5, 3)
    base = aamsupcon_loss(inputs, ALL)
    perm = rng.permutation(8)
    permuted = LossInputs(inputs.embeddings[perm], inputs.labels[perm],
                          inputs.class_weights)
    out = aamsupcon_loss(permuted, ALL)
    assert out.value == pytest.approx(base.value, abs=1e-12)
    assert np.max(np.abs(out.grad_embeddings - base.grad_embeddings[perm])) < 1e-12


# ---------------------------------------------------------------------------
# validation


def test_validation_rejects_bad_inputs():
    rng = np.random.default_rng(24)
    good = random_batch(rng, 4, 4, 2)

    off_sphere = LossInputs(good.embeddings * 1.001, good.labels, good.class_weights)
    with pytest.raises(ValueError):
        supcon_loss(off_sphere, ALL)

    bad_label = LossInputs(good.embeddings, [0, 0, 5, 5], good.class_weights)
    with pytest.raises(ValueError):
        softmax_loss(bad_label)

    good.temperature = -1.0
    with pytest.raises(ValueError):
        supcon_loss(good, ALL)
    good.temperature = 0.07

    good.scale = 0.0
    with pytest.raises(InvalidScale):
        arcface_loss(good)
    good.scale = 30.0

    good.margin = 2.0
    with pytest.raises(InvalidMargin):
        arcface_loss(good)


def test_loss_value_unchecked_matches_public_api():
    rng = np.random.default_rng(26)
    inputs = random_batch(rng, 6, 4, 3)
    hyper = (inputs.temperature, inputs.margin, inputs.scale)
    masks = supcon_masks(inputs.labels, ALL)
    assert loss_terms(LossKind.SUPCON, inputs.embeddings, inputs.labels,
                      inputs.class_weights, *hyper, masks)[0] \
        == supcon_loss(inputs, ALL).value
    assert loss_terms(LossKind.ARCFACE, inputs.embeddings, inputs.labels,
                      inputs.class_weights, *hyper)[0] == arcface_loss(inputs).value
