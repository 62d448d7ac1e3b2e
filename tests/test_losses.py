import math
import re
from dataclasses import replace

import numpy as np
import pytest

from aamsupcon import losses
from aamsupcon.batching import batch_layout

from aamsupcon.errors import ConfigError
from aamsupcon.geometry import normalize_rows
from aamsupcon.losses import (
    DenominatorConvention,
    KernelBuffers,
    LossInputs,
    LossKind,
    evaluate_loss,
    grad_check,
    loss_terms,
    supcon_masks,
)
from aamsupcon.synthdata import DatasetSpec, generate
from aamsupcon.training import TrainConfig, _Run, train
from oracles import corrupted, reference_terms

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
    masks = supcon_masks([0, 0, 1, 1], ALL)
    assert list(np.flatnonzero(masks.pos[0])) == [1]
    assert list(np.flatnonzero(~masks.not_cand[0])) == [1, 2, 3]
    masks = supcon_masks([0, 0, 1, 1], STRICT)
    assert list(np.flatnonzero(masks.pos[0])) == [1]
    assert list(np.flatnonzero(~masks.not_cand[0])) == [2, 3]


def test_index_sets_positives_subset_of_candidates_under_default():
    rng = np.random.default_rng(0)
    for _ in range(10):
        labels = np.repeat(rng.integers(0, 3, size=4), 2)
        masks = supcon_masks(labels, ALL)
        for p, c in zip(masks.pos, ~masks.not_cand):
            assert set(np.flatnonzero(p)) <= set(np.flatnonzero(c))


def test_index_sets_errors():
    with pytest.raises(ConfigError, match="has no positive"):
        supcon_masks([0, 1])
    with pytest.raises(ConfigError, match="need at least 2 samples"):
        supcon_masks([0])
    with pytest.raises(ConfigError, match="no negatives in a single-class batch"):
        supcon_masks([0, 0, 0], STRICT)


@pytest.mark.parametrize("convention", [ALL, STRICT])
def test_convention_given_by_its_value_is_that_convention(convention):
    """A convention's string value selects it in supcon_masks, so in the
    loss, the gradient check and a TrainConfig built in code; a string
    other than a value, or any other object, is refused naming the values."""
    rng = np.random.default_rng(28)
    inputs = random_batch(rng, 6, 4, 3)
    for kind in (LossKind.SUPCON, LossKind.AAMSUPCON):
        want = evaluate_loss(kind, inputs, convention)
        got = evaluate_loss(kind, inputs, convention.value)
        assert got[0] == want[0]
        assert all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:]))
        assert grad_check(kind, inputs, convention=convention.value) \
            == grad_check(kind, inputs, convention=convention)
    features, speaker_ids, _ = generate(DatasetSpec(4, 4, 8, 0.2, seed=1))
    config = TrainConfig(steps=2, batch_speakers=2, encoder_hidden=(8,), proj_hidden=8,
                         embedding_dim=4, convention=convention)
    want = train(config, features, speaker_ids)[1].records.loss
    got = train(replace(config, convention=convention.value), features, speaker_ids)[1]
    assert np.array_equal(got.records.loss, want)


@pytest.mark.parametrize("convention", ["strict", "ALL_NON_ANCHOR", None, 1])
def test_supcon_masks_refuse_an_unknown_convention(convention):
    msg = r"convention must be one of \['all_non_anchor', 'strict_negatives'\], got "
    with pytest.raises(ConfigError, match=msg + re.escape(repr(convention))):
        supcon_masks([0, 0, 1, 1], convention)
    inputs = random_batch(np.random.default_rng(29), 4, 4, 2)
    with pytest.raises(ConfigError, match=msg):
        evaluate_loss(LossKind.SUPCON, inputs, convention)


@pytest.mark.parametrize("kind", list(LossKind))
def test_loss_kind_given_by_its_value_is_that_kind(kind):
    """A kind's string value selects it in the loss and the gradient check."""
    inputs = random_batch(np.random.default_rng(30), 6, 4, 3)
    want = evaluate_loss(kind, inputs)
    got = evaluate_loss(kind.value, inputs)
    assert got[0] == want[0]
    assert all(np.array_equal(a, b) for a, b in zip(got[1:], want[1:]))
    assert grad_check(kind.value, inputs) == grad_check(kind, inputs)


@pytest.mark.parametrize("kind", ["arc", "SUPCON", None, 1])
def test_an_unknown_loss_kind_is_refused_naming_the_kinds(kind):
    inputs = random_batch(np.random.default_rng(31), 4, 4, 2)
    msg = (r"loss kind must be one of \['softmax', 'arcface', 'supcon', 'aamsupcon'\], got "
           + re.escape(repr(kind)))
    for check in (evaluate_loss, grad_check):
        with pytest.raises(ConfigError, match=msg):
            check(kind, inputs)
    with pytest.raises(ConfigError, match=re.escape(f"unknown loss kind {kind!r}")):
        loss_terms(kind, inputs.embeddings, inputs.labels, inputs.class_weights, 0.07, 0.2, 30.0)


@pytest.mark.parametrize("convention", [ALL, STRICT])
def test_supcon_masks_match_oracle_on_random_labels(convention):
    rng = np.random.default_rng(28)
    compared = 0
    for _ in range(160):
        labels = rng.integers(0, int(rng.integers(1, 5)), size=int(rng.integers(2, 13)))
        want_pos, want_cand = oracle_masks(labels, convention)
        if not want_pos.any(axis=1).all():
            with pytest.raises(ConfigError, match="has no positive"):
                supcon_masks(labels, convention)
        elif not want_cand.any(axis=1).all():
            with pytest.raises(ConfigError, match="no negatives in a single-class batch"):
                supcon_masks(labels, convention)
        else:
            masks = supcon_masks(labels, convention)
            assert masks.pos.dtype == bool and masks.not_cand.dtype == bool
            assert np.array_equal(masks.pos, want_pos)
            assert np.array_equal(~masks.not_cand, want_cand)
            compared += 1
    assert compared >= 40


# ---------------------------------------------------------------------------
# supcon


def test_supcon_two_identical_embeddings_is_exactly_zero():
    z = np.array([[1.0, 0.0], [1.0, 0.0]])
    inputs = LossInputs(z, [0, 0], np.eye(2), temperature=0.07)
    value, _, grad_w = evaluate_loss(LossKind.SUPCON, inputs, ALL)
    assert value == 0.0
    assert np.all(grad_w == 0.0)


def _four_point_batch(degrees):
    rad = np.deg2rad(degrees)
    z = np.stack([np.cos(rad), np.sin(rad)], axis=1)
    return LossInputs(z, [0, 0, 1, 1], np.eye(2), temperature=0.07)


def test_supcon_four_point_frozen_values():
    # expected values computed once with oracle_supcon and frozen
    well_separated = _four_point_batch([0.0, 10.0, 170.0, 180.0])
    value = evaluate_loss(LossKind.SUPCON, well_separated, ALL)[0]
    assert value == pytest.approx(5.6772364587274495e-12, abs=1e-10)
    value = evaluate_loss(LossKind.SUPCON, well_separated, STRICT)[0]
    assert value == pytest.approx(-109.23554967729262, abs=1e-10)

    overlapping = _four_point_batch([0.0, 30.0, 60.0, 90.0])
    value = evaluate_loss(LossKind.SUPCON, overlapping, ALL)[0]
    assert value == pytest.approx(1.40234470220702, abs=1e-10)
    value = evaluate_loss(LossKind.SUPCON, overlapping, STRICT)[0]
    assert value == pytest.approx(-10.445598475866696, abs=1e-10)


@pytest.mark.parametrize("convention", [ALL, STRICT])
def test_supcon_matches_oracle_on_random_batches(convention):
    rng = np.random.default_rng(11)
    for _ in range(15):
        inputs = random_batch(rng, 8, 5, 3)
        got = evaluate_loss(LossKind.SUPCON, inputs, convention)[0]
        want = oracle_supcon(inputs.embeddings, inputs.labels, 0.07, convention)
        assert got == pytest.approx(want, abs=1e-10)
        assert np.isfinite(got)


def test_supcon_appending_negatives_never_decreases_anchor_terms():
    rng = np.random.default_rng(12)
    inputs = random_batch(rng, 6, 4, 3)
    z, labels = inputs.embeddings, inputs.labels
    base_candidates = [np.flatnonzero(~row) for row in supcon_masks(labels, ALL).not_cand]
    base_terms = per_anchor_supcon_terms(z, labels, 0.07, base_candidates)
    value = evaluate_loss(LossKind.SUPCON, inputs, ALL)[0]
    assert value == pytest.approx(sum(base_terms), abs=1e-10)

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
    total_small = evaluate_loss(LossKind.SUPCON, inputs, ALL)[0]
    total_big = evaluate_loss(LossKind.SUPCON, bigger, ALL)[0]
    assert total_big >= total_small - 1e-12


# ---------------------------------------------------------------------------
# arcface / softmax


def test_arcface_single_sample_closed_form():
    # z == W_target, s = 1, m = 0.2; frozen from the hand-computed formula
    inputs = LossInputs(np.array([[1.0, 0.0]]), [0], np.eye(2), margin=0.2, scale=1.0)
    want = -math.log(math.exp(math.cos(0.2)) / (math.exp(math.cos(0.2)) + 1.0))
    value = evaluate_loss(LossKind.ARCFACE, inputs)[0]
    assert value == pytest.approx(want, abs=1e-14)
    assert value == pytest.approx(0.318661791131043, abs=1e-12)


def test_arcface_matches_oracle_on_random_batches():
    rng = np.random.default_rng(13)
    for _ in range(10):
        inputs = random_batch(rng, 8, 6, 4)
        want = oracle_arcface(inputs.embeddings, inputs.labels,
                              inputs.class_weights, 0.2, 30.0)
        assert evaluate_loss(LossKind.ARCFACE, inputs)[0] == pytest.approx(want, abs=1e-10)


def test_arcface_zero_margin_equals_softmax_bitwise():
    rng = np.random.default_rng(14)
    for _ in range(5):
        inputs = random_batch(rng, 8, 5, 3)
        inputs.margin = 0.0
        arc = evaluate_loss(LossKind.ARCFACE, inputs)
        soft = evaluate_loss(LossKind.SOFTMAX, inputs)
        assert arc[0] == soft[0]
        assert np.array_equal(arc[1], soft[1])
        assert np.array_equal(arc[2], soft[2])


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
            values.append(evaluate_loss(LossKind.ARCFACE, inputs)[0])
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        checked += 1


def test_softmax_uniform_logits_gives_log_c():
    # embedding orthogonal to every class weight: all logits zero
    z = np.array([[0.0, 0.0, 0.0, 1.0]])
    w = np.eye(3, 4)
    for c in (2, 3):
        inputs = LossInputs(z, [0], w[:c], scale=30.0)
        assert evaluate_loss(LossKind.SOFTMAX, inputs)[0] == pytest.approx(math.log(c), abs=1e-14)


def test_softmax_frozen_single_sample():
    # logits (1, 0, 0) at s = 1: -log(e / (e + 2))
    inputs = LossInputs(np.array([[1.0, 0.0, 0.0]]), [0], np.eye(3), scale=1.0)
    value = evaluate_loss(LossKind.SOFTMAX, inputs)[0]
    assert value == pytest.approx(0.5514447139320511, abs=1e-12)


# ---------------------------------------------------------------------------
# aamsupcon


def test_aamsupcon_is_sum_of_parts():
    rng = np.random.default_rng(16)
    for _ in range(10):
        inputs = random_batch(rng, 8, 5, 3)
        total = evaluate_loss(LossKind.AAMSUPCON, inputs, ALL)
        arc = evaluate_loss(LossKind.ARCFACE, inputs)
        sup = evaluate_loss(LossKind.SUPCON, inputs, ALL)
        assert total[0] == pytest.approx(arc[0] + sup[0], abs=1e-12)
        assert np.max(np.abs(total[1] - arc[1] - sup[1])) < 1e-12
        assert np.max(np.abs(total[2] - arc[2])) < 1e-12


def test_aamsupcon_lambda_zero_degenerates_to_arcface():
    rng = np.random.default_rng(17)
    inputs = random_batch(rng, 6, 4, 3)
    total = evaluate_loss(LossKind.AAMSUPCON, inputs, ALL, lam=0.0)
    arc = evaluate_loss(LossKind.ARCFACE, inputs)
    assert total[0] == arc[0]
    assert np.array_equal(total[1], arc[1])


def test_aamsupcon_lambda_weights_the_contrastive_term():
    rng = np.random.default_rng(18)
    inputs = random_batch(rng, 6, 4, 3)
    arc = evaluate_loss(LossKind.ARCFACE, inputs)
    sup = evaluate_loss(LossKind.SUPCON, inputs, ALL)
    for lam in (0.5, 2.0):
        total = evaluate_loss(LossKind.AAMSUPCON, inputs, ALL, lam=lam)
        assert total[0] == pytest.approx(arc[0] + lam * sup[0], abs=1e-12)


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
        # one set of buffers for every call of this shape, as a trainer keeps them
        bufs = KernelBuffers(labels.size, dim, classes, dim)
        for margin in (0.0, 0.2):
            for lam in (0.7, 1.0):
                z = normalize_rows(rng.standard_normal((labels.size, dim)))
                w = normalize_rows(rng.standard_normal((classes, dim)))
                want = reference_terms(kind, z, labels, w, 0.07, margin, 30.0,
                                       convention, lam)
                for reuse in (None, bufs):
                    got = loss_terms(kind, z, labels, w, 0.07, margin, 30.0, masks, lam, reuse)
                    assert got[0] == want[0], (speakers, views, margin, lam)
                    assert np.array_equal(got[1], want[1]), (speakers, views, margin, lam)
                    assert np.array_equal(got[2], want[2]), (speakers, views, margin, lam)
                    assert got[3] is None
                assert got[2] is bufs.grad_w


@pytest.mark.parametrize("convention", [ALL, STRICT])
@pytest.mark.parametrize("views", [1, 2, 3])
def test_run_masks_equal_supcon_masks_of_every_drawn_batch(views, convention):
    features, speaker_ids, _ = generate(DatasetSpec(7, 4, 8, 0.2, seed=views))
    rng = np.random.default_rng(views)
    for speakers in (2, 3, 7):
        config = TrainConfig(batch_speakers=speakers, views_per_speaker=views,
                             convention=convention)
        run = _Run(config, features, speaker_ids)
        masks = run.masks
        for _ in range(5):
            _, labels = run.sampler.draw(rng)
            pos, _, _, not_cand = supcon_masks(labels, convention)
            assert np.array_equal(masks.pos, pos)
            assert np.array_equal(masks.not_cand, not_cand)
            assert np.array_equal(masks.pcount, pos.sum(axis=1))
            assert np.array_equal(masks.pos_frac, pos / pos.sum(axis=1)[:, None])
        assert _Run(replace(config, loss_kind=LossKind.ARCFACE), features,
                    speaker_ids).masks is None


# ---------------------------------------------------------------------------
# gradients


@pytest.mark.parametrize("kind", list(LossKind))
def test_grad_check_passes_for_every_loss(kind):
    rng = np.random.default_rng(19)
    for _ in range(3):
        inputs = random_batch(rng, 8, 6, 3)
        assert grad_check(kind, inputs, step=1e-6) < 1e-5


def test_grad_check_supcon_small_batch():
    rng = np.random.default_rng(20)
    inputs = random_batch(rng, 4, 4, 2)
    assert grad_check(LossKind.SUPCON, inputs, step=1e-6) < 1e-5


def test_grad_check_aamsupcon_six_by_four():
    rng = np.random.default_rng(27)
    inputs = random_batch(rng, 6, 4, 3)
    assert grad_check(LossKind.AAMSUPCON, inputs, step=1e-6) < 1e-5


def test_grad_check_strict_convention():
    rng = np.random.default_rng(21)
    inputs = random_batch(rng, 8, 5, 3)
    assert grad_check(LossKind.AAMSUPCON, inputs, convention=STRICT) < 1e-5


def test_grad_check_corruption_hook_fails(monkeypatch):
    rng = np.random.default_rng(22)
    inputs = random_batch(rng, 4, 4, 2)
    monkeypatch.setattr(losses, "loss_terms", corrupted(losses.loss_terms))
    assert grad_check(LossKind.ARCFACE, inputs) > 1e-3


def test_symmetric_batch_gives_symmetric_gradients():
    z = np.tile(np.array([[0.6, 0.8]]), (4, 1))
    w = np.tile(np.array([[1.0, 0.0]]), (2, 1))
    inputs = LossInputs(z, [0, 0, 1, 1], w)
    _, grad_z, grad_w = evaluate_loss(LossKind.AAMSUPCON, inputs, ALL)
    # anchors 0/1 and 2/3 are indistinguishable, as are the two classes
    assert np.array_equal(grad_z[0], grad_z[1])
    assert np.array_equal(grad_z[2], grad_z[3])
    assert np.allclose(grad_w[0], grad_w[1], atol=1e-15)


def test_permutation_equivariance():
    rng = np.random.default_rng(23)
    inputs = random_batch(rng, 8, 5, 3)
    base = evaluate_loss(LossKind.AAMSUPCON, inputs, ALL)
    perm = rng.permutation(8)
    permuted = LossInputs(inputs.embeddings[perm], inputs.labels[perm],
                          inputs.class_weights)
    out = evaluate_loss(LossKind.AAMSUPCON, permuted, ALL)
    assert out[0] == pytest.approx(base[0], abs=1e-12)
    assert np.max(np.abs(out[1] - base[1][perm])) < 1e-12


# ---------------------------------------------------------------------------
# validation


@pytest.mark.parametrize("kind", list(LossKind))
@pytest.mark.parametrize("matrix", ["embedding", "class_weight"])
def test_validation_rejects_a_nan_row(kind, matrix):
    """A NaN row's unit-norm drift is NaN, which no tolerance comparison
    passes: refused, not a loss of nan."""
    z, w = normalize_rows(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, -1.0]])), np.eye(2)
    (z if matrix == "embedding" else w)[1] = np.nan
    with pytest.raises(ConfigError, match=f"{matrix} rows deviate from unit norm by nan"):
        evaluate_loss(kind, LossInputs(z, [0, 0, 1, 1], w))


@pytest.mark.parametrize("labels, first", [([0.7, 0.2, 1.9, 1.1], r"label 0 is 0\.7"),
                                           ([0, 0, 1.5, 1], r"label 2 is 1\.5"),
                                           ([0, 0, 1, np.nan], "label 3 is nan")])
def test_loss_inputs_refuse_fractional_labels(labels, first):
    """Fractional labels would be cut to the classes below them (0.7, 0.2,
    1.9, 1.1 trained as 0, 0, 1, 1); whole-valued floats are classes."""
    z = normalize_rows(np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, -1.0]]))
    with pytest.raises(ConfigError, match=first + ", not an integer"):
        LossInputs(z, labels, np.eye(2))
    assert LossInputs(z, [0.0, 0.0, 1.0, 1.0], np.eye(2)).labels.tolist() == [0, 0, 1, 1]


def test_validation_rejects_bad_inputs():
    rng = np.random.default_rng(24)
    good = random_batch(rng, 4, 4, 2)

    short_labels = LossInputs(good.embeddings, good.labels[:-1], good.class_weights)
    with pytest.raises(ConfigError, match="4 embeddings but 3 labels"):
        evaluate_loss(LossKind.SUPCON, short_labels, ALL)

    off_sphere = LossInputs(good.embeddings * 1.001, good.labels, good.class_weights)
    with pytest.raises(ConfigError, match="embedding rows deviate from unit norm"):
        evaluate_loss(LossKind.SUPCON, off_sphere, ALL)

    bad_label = LossInputs(good.embeddings, [0, 0, 5, 5], good.class_weights)
    with pytest.raises(ConfigError, match=r"labels must lie in \[0, 2\)"):
        evaluate_loss(LossKind.SOFTMAX, bad_label)

    good.temperature = -1.0
    with pytest.raises(ConfigError, match="temperature must be > 0"):
        evaluate_loss(LossKind.SUPCON, good, ALL)
    good.temperature = 0.07

    good.scale = 0.0
    with pytest.raises(ConfigError, match="scale must be > 0"):
        evaluate_loss(LossKind.ARCFACE, good)
    good.scale = 30.0

    good.margin = 2.0
    with pytest.raises(ConfigError, match=r"margin must be in \[0, pi/2\)"):
        evaluate_loss(LossKind.ARCFACE, good)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0, -1e-300])
def test_validation_rejects_lambda_outside_zero_to_inf(lam):
    """lam must lie in [0, inf), the domain of training.lambda: a NaN, an
    infinite or a negative weight is refused, not a loss of nan or inf."""
    inputs = random_batch(np.random.default_rng(30), 4, 4, 2)
    msg = r"lam must be in \[0, inf\), got " + re.escape(repr(lam))
    for kind in LossKind:
        with pytest.raises(ConfigError, match=msg):
            evaluate_loss(kind, inputs, ALL, lam=lam)
        with pytest.raises(ConfigError, match=msg):
            grad_check(kind, inputs, lam=lam)


def test_loss_value_unchecked_matches_public_api():
    rng = np.random.default_rng(26)
    inputs = random_batch(rng, 6, 4, 3)
    hyper = (inputs.temperature, inputs.margin, inputs.scale)
    masks = supcon_masks(inputs.labels, ALL)
    assert loss_terms(LossKind.SUPCON, inputs.embeddings, inputs.labels,
                      inputs.class_weights, *hyper, masks)[0] \
        == evaluate_loss(LossKind.SUPCON, inputs, ALL)[0]
    assert loss_terms(LossKind.ARCFACE, inputs.embeddings, inputs.labels,
                      inputs.class_weights, *hyper)[0] \
        == evaluate_loss(LossKind.ARCFACE, inputs)[0]
