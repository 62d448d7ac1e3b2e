"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; the end-to-end criteria (5, 6) train
real models and take tens of seconds.
"""

import json
import math
import time

import numpy as np
import pytest

from aamsupcon.cli import main
from aamsupcon.evaluate import (
    ScoredTrials,
    roc_metrics,
    score_trials,
    trial_blocks,
)
from aamsupcon.geometry import margin_logit, normalize_rows
from aamsupcon.losses import (
    DenominatorConvention,
    LossInputs,
    LossKind,
    evaluate_loss,
    grad_check,
    supcon_masks,
)
from aamsupcon.synthdata import DatasetSpec, generate, split_holdout
from aamsupcon.training import TrainConfig, end_to_end_grad_check, train
from oracles import eer_threshold_sweep, min_dcf_threshold_sweep

ALL = DenominatorConvention.ALL_NON_ANCHOR
STRICT = DenominatorConvention.STRICT_NEGATIVES


def report(criterion: int, name: str, passed: bool, detail: str):
    print(f"\nACCEPTANCE {criterion} ({name}): {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion} ({name}): {detail}"


def random_batch(rng, n, d, c):
    half = rng.integers(0, c, size=n // 2)
    labels = np.concatenate([half, half])
    z = normalize_rows(rng.standard_normal((n, d)))
    w = normalize_rows(rng.standard_normal((c, d)))
    return LossInputs(z, labels, w)


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


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    grid = [(n, d, c) for n in (4, 8, 16) for d in (4, 16) for c in (2, 5)]
    worst_loss = 0.0
    for i in range(20):
        n, d, c = grid[i % len(grid)]
        inputs = random_batch(rng, n, d, c)
        for kind in LossKind:
            err = grad_check(kind, inputs, step=1e-6)
            worst_loss = max(worst_loss, err)

    worst_e2e = 0.0
    features, speaker_ids, _ = generate(DatasetSpec(4, 4, 10, 0.3, seed=102))
    for kind in LossKind:
        cfg = TrainConfig(loss_kind=kind, encoder_hidden=(16,), proj_hidden=16,
                          embedding_dim=8, batch_speakers=3, views_per_speaker=2,
                          seed=103)
        err = end_to_end_grad_check(cfg, features, speaker_ids, step=1e-6,
                                    batch_seed=104)
        worst_e2e = max(worst_e2e, err)

    elapsed = time.perf_counter() - started
    passed = worst_loss < 1e-5 and worst_e2e < 1e-4 and elapsed < 30.0
    report(1, "gradient correctness", passed,
           f"loss max rel err {worst_loss:.2e} (<1e-5), end-to-end "
           f"{worst_e2e:.2e} (<1e-4), {elapsed:.1f}s (<30s)")


def test_criterion_2_identity_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(201)
    worst = 0.0
    for _ in range(5):
        inputs = random_batch(rng, 8, 6, 3)
        inputs.margin = 0.0
        arc0 = evaluate_loss(LossKind.ARCFACE, inputs)
        soft = evaluate_loss(LossKind.SOFTMAX, inputs)
        worst = max(worst, abs(arc0[0] - soft[0]), float(np.max(np.abs(arc0[1] - soft[1]))))
        inputs.margin = 0.2

        arc = evaluate_loss(LossKind.ARCFACE, inputs)
        sup = evaluate_loss(LossKind.SUPCON, inputs, ALL)
        for lam in (0.5, 1.0):
            total = evaluate_loss(LossKind.AAMSUPCON, inputs, ALL, lam=lam)
            worst = max(worst, abs(total[0] - (arc[0] + lam * sup[0])))

        degenerate = evaluate_loss(LossKind.AAMSUPCON, inputs, ALL, lam=0.0)
        worst = max(worst, abs(degenerate[0] - arc[0]))

    for c in np.linspace(-1.0, 1.0, 101):
        worst = max(worst, abs(margin_logit(float(c), 0.0) - float(c)))

    elapsed = time.perf_counter() - started
    passed = worst < 1e-12 and elapsed < 1.0
    report(2, "identity suite", passed,
           f"max identity violation {worst:.2e} (<1e-12), {elapsed:.2f}s (<1s)")


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(301)

    worst_supcon = 0.0
    for _ in range(50):
        n = 2 * int(rng.integers(2, 7))
        inputs = random_batch(rng, n, int(rng.integers(3, 9)), int(rng.integers(2, 5)))
        for convention in (ALL, STRICT):
            try:
                supcon_masks(inputs.labels, convention)
            except Exception:
                continue  # single-class batch under STRICT has no denominator
            got = evaluate_loss(LossKind.SUPCON, inputs, convention)[0]
            want = oracle_supcon(inputs.embeddings, inputs.labels, 0.07, convention)
            worst_supcon = max(worst_supcon, abs(got - want))

    worst_metric = 0.0
    checked = 0
    while checked < 50:
        n = int(rng.integers(4, 30))
        scores = np.round(rng.normal(size=n), 2)
        flags = rng.random(n) < 0.5
        if not flags.any() or flags.all() or np.all(scores == scores[0]):
            continue
        scored = ScoredTrials(scores, flags)
        fast_eer, fast_thr, fast_dcf, _ = roc_metrics(scored)
        brute_eer, brute_thr = eer_threshold_sweep(scored)
        brute_dcf, _ = min_dcf_threshold_sweep(scored)
        worst_metric = max(worst_metric, abs(fast_eer - brute_eer),
                           abs(fast_thr - brute_thr), abs(fast_dcf - brute_dcf))
        checked += 1

    elapsed = time.perf_counter() - started
    passed = worst_supcon < 1e-10 and worst_metric < 1e-12 and elapsed < 30.0
    report(3, "oracle equivalence", passed,
           f"supcon vs triple-loop {worst_supcon:.2e} (<1e-10), EER/minDCF vs "
           f"sweep {worst_metric:.2e} (<1e-12), {elapsed:.1f}s (<30s)")


def test_criterion_4_margin_monotonicity():
    started = time.perf_counter()
    rng = np.random.default_rng(401)
    checked = 0
    monotone = True
    while checked < 15:
        inputs = random_batch(rng, 8, 16, 5)
        rows = np.arange(8)
        cosines = (inputs.embeddings @ inputs.class_weights.T)[rows, inputs.labels]
        if np.max(np.arccos(np.clip(cosines, -1, 1))) + 0.3 >= math.pi:
            continue
        values = []
        for m in (0.0, 0.1, 0.2, 0.3):
            inputs.margin = m
            values.append(evaluate_loss(LossKind.ARCFACE, inputs)[0])
        monotone = monotone and all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        checked += 1
    elapsed = time.perf_counter() - started
    passed = monotone and elapsed < 5.0
    report(4, "margin monotonicity", passed,
           f"arcface non-decreasing over m in (0, 0.1, 0.2, 0.3) on {checked} "
           f"batches, {elapsed:.1f}s (<5s)")


def _train_and_eval(loss_kind, seed, batch_speakers, steps, train_set, heldout):
    cfg = TrainConfig(loss_kind=loss_kind, steps=steps,
                      batch_speakers=batch_speakers, views_per_speaker=2,
                      seed=seed)
    params, _ = train(cfg, *train_set)
    heldout_features, heldout_ids = heldout
    scored = score_trials(params, heldout_features, trial_blocks(heldout_ids, 40, seed=100))
    return roc_metrics(scored)[0]


@pytest.fixture(scope="module")
def holdout_split():
    features, speaker_ids, _ = generate(DatasetSpec(16, 20, 40, 0.2, seed=21))
    return tuple((features[rows], speaker_ids[rows])
                 for rows in split_holdout(speaker_ids, 5))


def test_criterion_5_end_to_end_separation(holdout_split):
    started = time.perf_counter()
    train_set, heldout = holdout_split
    seeds = (0, 1, 2)
    aam = [_train_and_eval(LossKind.AAMSUPCON, s, 8, 1000, train_set, heldout)
           for s in seeds]
    soft = [_train_and_eval(LossKind.SOFTMAX, s, 8, 1000, train_set, heldout)
            for s in seeds]
    mean_aam, mean_soft = float(np.mean(aam)), float(np.mean(soft))
    elapsed = time.perf_counter() - started
    passed = mean_aam < 0.05 and mean_aam <= mean_soft and elapsed < 600.0
    report(5, "end-to-end separation", passed,
           f"held-out EER aamsupcon {mean_aam*100:.2f}% (<5%), softmax "
           f"{mean_soft*100:.2f}%, ordering {'holds' if mean_aam <= mean_soft else 'violated'}, "
           f"{elapsed:.0f}s (<600s)")


def test_criterion_6_batch_size_trend(holdout_split):
    started = time.perf_counter()
    train_set, heldout = holdout_split
    seeds = (0, 1, 2)
    means = {}
    for size in (4, 8, 16):
        eers = [_train_and_eval(LossKind.SUPCON, s, size, 400, train_set, heldout)
                for s in seeds]
        means[size] = float(np.mean(eers))
    elapsed = time.perf_counter() - started
    trend = means[4] >= means[8] >= means[16]
    strict = means[16] < means[4]
    passed = trend and strict and elapsed < 1800.0
    report(6, "batch-size trend", passed,
           f"mean EER {means[4]*100:.2f}% -> {means[8]*100:.2f}% -> "
           f"{means[16]*100:.2f}% for 4/8/16 speakers (full-scale anchor: "
           f"batch 128 -> 13.64% EER, 0.71 minDCF), {elapsed:.0f}s (<1800s)")


def test_criterion_7_reproducibility(tmp_path):
    config = tmp_path / "config.ini"
    config.write_text("""\
[dataset]
num_speakers = 6
utterances_per_speaker = 6
d_in = 16
spread = 0.2
seed = 13
holdout_per_speaker = 2

[model]
encoder_hidden = 24
proj_hidden = 24
embedding_dim = 12

[training]
steps = 40
batch_speakers = 3
seed = 4

[eval]
trials_per_speaker = 8
seed = 17
""")

    def run(tag):
        gen, run_dir, ev = (tmp_path / f"gen{tag}", tmp_path / f"run{tag}",
                            tmp_path / f"eval{tag}")
        assert main(["generate", "--config", str(config), "--out", str(gen)]) == 0
        assert main(["train", "--config", str(config),
                     "--data", str(gen / "dataset.txt"), "--out", str(run_dir)]) == 0
        assert main(["evaluate", "--config", str(config),
                     "--checkpoint", str(run_dir / "checkpoint.bin"),
                     "--data", str(gen / "dataset.txt"), "--out", str(ev)]) == 0
        return [gen / "dataset.txt", gen / "manifest.json",
                run_dir / "checkpoint.bin", run_dir / "runlog.txt",
                run_dir / "manifest.json", ev / "trials.txt", ev / "scores.txt",
                ev / "metrics.json", ev / "manifest.json"]

    first, second = run("1"), run("2")
    mismatched = [a.name for a, b in zip(first, second)
                  if a.read_bytes() != b.read_bytes()]
    passed = not mismatched
    report(7, "reproducibility", passed,
           "all artifacts byte-identical across reruns" if passed
           else f"differing artifacts: {mismatched}")
