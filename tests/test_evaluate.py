import re

import numpy as np
import pytest

from aamsupcon.errors import (
    DegenerateTrials,
    IndexOutOfRange,
    InsufficientSpeakers,
    InsufficientUtterances,
    IoError,
)
from aamsupcon.evaluate import (
    DcfParams,
    ScoredTrials,
    build_trials,
    eer,
    eer_threshold_sweep,
    load_scored_trials,
    load_trials,
    min_dcf,
    min_dcf_threshold_sweep,
    save_scored_trials,
    save_trials,
    score_trials,
)
from aamsupcon.model import NetworkParams, init_params
from aamsupcon.synthdata import DatasetSpec, generate


def _random_scored(rng, n=40, ties=True):
    scores = rng.normal(size=n)
    if ties:
        scores = np.round(scores, 2)
    flags = rng.random(n) < 0.5
    if not flags.any():
        flags[0] = True
    if flags.all():
        flags[-1] = False
    return ScoredTrials(scores, flags)


def _trial_list(trials):
    """(enroll, test, is_target) arrays as a list of Python triples."""
    return list(zip(*(np.asarray(a).tolist() for a in trials)))


# ---------------------------------------------------------------------------
# trials


def test_trial_rejects_self_pair(tmp_path):
    path = tmp_path / "trials.txt"
    path.write_text("0 1 1\n3 3 1\n")
    with pytest.raises(IoError, match=re.escape(f"{path}:2: ")):
        load_trials(path)
    path.write_text("0 1 1 0.5\n3 3 1 0.5\n")
    with pytest.raises(IoError, match=re.escape(f"{path}:2: ")):
        load_scored_trials(path)


@pytest.mark.parametrize("text", ["0 1 1\n0 x 1", "0 1 1\n1.5 2 0",
                                  "0 1 1 0.5\n0 2 1 high", "0 1 1 0.5\n0 2.0 1 0.5"])
def test_trial_files_name_line_of_non_numeric_field(tmp_path, text):
    path = tmp_path / "trials.txt"
    path.write_text(text + "\n")
    loader = load_scored_trials if len(text.split("\n")[0].split()) == 4 else load_trials
    with pytest.raises(IoError, match=re.escape(f"{path}:2: ")):
        loader(path)


def test_build_trials_counts():
    _, speaker_ids, _ = generate(DatasetSpec(2, 2, 8, 0.1, seed=0))
    _, _, is_target = build_trials(speaker_ids, 1, seed=0)
    targets = [t for t in is_target if t]
    nontargets = [t for t in is_target if not t]
    assert len(targets) == 2 and len(nontargets) == 2


def test_target_trials_share_speaker():
    _, speaker_ids, _ = generate(DatasetSpec(5, 4, 8, 0.1, seed=1))
    for enroll, test, is_target in _trial_list(build_trials(speaker_ids, 6, seed=3)):
        same = speaker_ids[enroll] == speaker_ids[test]
        assert same == is_target
        assert enroll != test


def test_build_trials_deterministic():
    _, speaker_ids, _ = generate(DatasetSpec(4, 3, 8, 0.1, seed=2))
    assert _trial_list(build_trials(speaker_ids, 5, seed=9)) \
        == _trial_list(build_trials(speaker_ids, 5, seed=9))
    assert _trial_list(build_trials(speaker_ids, 5, seed=9)) \
        != _trial_list(build_trials(speaker_ids, 5, seed=10))


def test_build_trials_errors():
    one_speaker = np.array([0, 0])
    with pytest.raises(InsufficientSpeakers):
        build_trials(one_speaker, 1, seed=0)
    lone_utterance = np.array([0, 0, 1])
    with pytest.raises(InsufficientUtterances):
        build_trials(lone_utterance, 1, seed=0)


def reference_trials(speaker_ids, trials_per_speaker, seed):
    """Per-trial reference for build_trials, spelling out its random draw
    order. Per speaker in ascending id order: the target draws over the
    (a, b), a < b pairs of its rows in row-major order, then the non-target
    draws over (own row, other row) pairs read as divmod(k, len(others)).
    Each draws without replacement while the pair space allows, then
    uniformly with replacement for the excess."""
    rng = np.random.default_rng(seed)

    def sample_k(space, count):
        if count <= space:
            return [int(k) for k in rng.choice(space, size=count, replace=False)]
        return list(range(space)) + [int(k) for k in
                                     rng.integers(0, space, size=count - space)]

    by_speaker = {}
    for row, sid in enumerate(speaker_ids):
        by_speaker.setdefault(int(sid), []).append(row)
    trials = []
    for sid in sorted(by_speaker):
        own = by_speaker[sid]
        pairs = [(own[a], own[b]) for a in range(len(own)) for b in range(a + 1, len(own))]
        for k in sample_k(len(pairs), trials_per_speaker):
            trials.append((pairs[k][0], pairs[k][1], True))
        others = [row for row in range(len(speaker_ids)) if row not in own]
        for k in sample_k(len(own) * len(others), trials_per_speaker):
            e, o = divmod(k, len(others))
            trials.append((own[e], others[o], False))
    return trials


def test_build_trials_matches_per_trial_reference():
    rng = np.random.default_rng(0)
    for seed in range(60):
        # unequal, shuffled speaker blocks; small speakers and large
        # trials_per_speaker push the target draws into the excess
        counts = rng.integers(2, 7, size=int(rng.integers(2, 6)))
        speaker_ids = rng.permutation(np.repeat(rng.choice(100, counts.size, replace=False),
                                                counts))
        per_speaker = int(rng.integers(1, 25))
        got = build_trials(speaker_ids, per_speaker, seed)
        assert _trial_list(got) == reference_trials(speaker_ids, per_speaker, seed), seed
        assert got[0].dtype == got[1].dtype == np.int64 and got[2].dtype == bool


# ---------------------------------------------------------------------------
# scoring


def _antipodal_params():
    """d_in=1 network mapping +1 -> (1, 0) and -1 -> (-1, 0)."""
    encoder = [(np.array([[1.0], [-1.0]]), np.zeros(2))]
    proj_w1 = np.eye(2)
    proj_w2 = np.array([[1.0, -1.0], [0.0, 0.0]])
    class_weights = np.eye(2)
    return NetworkParams(encoder, proj_w1, proj_w2, class_weights)


def test_score_trials_identical_and_antipodal():
    params = _antipodal_params()
    features = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    trials = (np.array([0, 0]), np.array([1, 2]), np.array([True, False]))
    scored = score_trials(params, features, trials)
    assert scored.scores[0] == 1.0
    assert scored.scores[1] == -1.0


def test_scores_lie_in_cosine_range():
    features, speaker_ids, _ = generate(DatasetSpec(10, 10, 12, 0.5, seed=3))
    params = init_params([12, 16], 16, 8, 10, seed=0)
    trials = build_trials(speaker_ids, 50, seed=1)
    scored = score_trials(params, features, trials)
    assert len(trials[0]) == 1000
    assert np.all(scored.scores >= -1.0) and np.all(scored.scores <= 1.0)


def test_score_trials_checks_indices():
    params = _antipodal_params()
    features = np.array([[1.0], [-1.0]])
    with pytest.raises(IndexOutOfRange):
        score_trials(params, features, (np.array([0]), np.array([5]), np.array([False])))


def test_score_trials_encoder_space():
    features, speaker_ids, _ = generate(DatasetSpec(6, 4, 12, 0.3, seed=9))
    params = init_params([12, 16], 16, 8, 6, seed=2)
    trials = build_trials(speaker_ids, 5, seed=4)
    proj = score_trials(params, features, trials, space="projection")
    enc = score_trials(params, features, trials, space="encoder")
    assert np.all(enc.scores >= -1.0) and np.all(enc.scores <= 1.0)
    assert not np.array_equal(proj.scores, enc.scores)
    with pytest.raises(ValueError):
        score_trials(params, features, trials, space="latent")


# ---------------------------------------------------------------------------
# EER


def test_eer_perfect_separation():
    scored = ScoredTrials(np.array([0.9, 0.9, 0.9, -0.9, -0.9]),
                          np.array([True, True, True, False, False]))
    rate, threshold = eer(scored)
    assert rate == 0.0
    assert -0.9 < threshold <= 0.9


def test_eer_handcrafted_four_trials():
    # frozen from the exhaustive sweep: one error per class at the crossing
    scored = ScoredTrials(np.array([0.8, 0.4, 0.6, 0.1]),
                          np.array([True, True, False, False]))
    rate, threshold = eer(scored)
    assert rate == 0.5
    assert threshold == 0.6
    assert eer_threshold_sweep(scored) == (rate, threshold)


def test_eer_random_labels_near_half():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=10000)
    flags = rng.random(10000) < 0.5
    rate, _ = eer(ScoredTrials(scores, flags))
    assert abs(rate - 0.5) < 0.05


def test_eer_total_confusion_is_one():
    scored = ScoredTrials(np.array([0.1, 0.1, 0.9, 0.9]),
                          np.array([True, True, False, False]))
    rate, _ = eer(scored)
    assert rate == 1.0


def test_eer_degenerate_scores():
    scored = ScoredTrials(np.array([0.5, 0.5, 0.5]),
                          np.array([True, False, True]))
    with pytest.raises(DegenerateTrials):
        eer(scored)
    with pytest.raises(DegenerateTrials):
        eer_threshold_sweep(scored)


def test_scored_trials_need_both_classes():
    with pytest.raises(DegenerateTrials):
        ScoredTrials(np.array([0.1, 0.2]), np.array([True, True]))


# ---------------------------------------------------------------------------
# minDCF


def test_min_dcf_perfect_separation_is_zero():
    scored = ScoredTrials(np.array([0.9, 0.8, -0.8, -0.9]),
                          np.array([True, True, False, False]))
    value, threshold = min_dcf(scored)
    assert value == 0.0
    assert -0.8 < threshold <= 0.9


def test_min_dcf_handcrafted_six_trials():
    # frozen from the brute-force sweep: best threshold 0.7 -> cost (1/3)*0.01
    scored = ScoredTrials(np.array([0.9, 0.7, 0.4, 0.6, 0.3, 0.1]),
                          np.array([True, True, True, False, False, False]))
    value, threshold = min_dcf(scored)
    assert value == pytest.approx(0.3333333333333333, abs=1e-15)
    assert threshold == 0.7
    oracle_value, oracle_threshold = min_dcf_threshold_sweep(scored)
    assert value == pytest.approx(oracle_value, abs=1e-15)
    assert threshold == oracle_threshold


def test_min_dcf_bounded_by_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        scored = _random_scored(rng)
        value, _ = min_dcf(scored)
        assert 0.0 <= value <= 1.0


def test_min_dcf_zero_iff_separable():
    separable = ScoredTrials(np.array([0.5, 0.4, 0.3, 0.2]),
                             np.array([True, True, False, False]))
    assert min_dcf(separable)[0] == 0.0
    overlapping = ScoredTrials(np.array([0.5, 0.2, 0.4, 0.1]),
                               np.array([True, True, False, False]))
    assert min_dcf(overlapping)[0] > 0.0


def test_min_dcf_custom_costs():
    scored = ScoredTrials(np.array([0.9, 0.1, 0.5, 0.2]),
                          np.array([True, True, False, False]))
    params = DcfParams(p_target=0.5, c_miss=10.0, c_fa=1.0)
    fast = min_dcf(scored, params)
    brute = min_dcf_threshold_sweep(scored, params)
    assert fast[0] == pytest.approx(brute[0], abs=1e-15)
    assert fast[1] == brute[1]


def test_dcf_params_validated():
    with pytest.raises(ValueError):
        DcfParams(p_target=0.0)
    with pytest.raises(ValueError):
        DcfParams(c_miss=0.0)


# ---------------------------------------------------------------------------
# fast route == brute-force oracle, metric invariances


def test_fast_metrics_match_oracles_on_random_sets():
    rng = np.random.default_rng(6)
    for _ in range(50):
        scored = _random_scored(rng, n=int(rng.integers(4, 40)))
        try:
            fast_rate, fast_thr = eer(scored)
        except DegenerateTrials:
            continue
        brute_rate, brute_thr = eer_threshold_sweep(scored)
        assert abs(fast_rate - brute_rate) < 1e-12
        assert abs(fast_thr - brute_thr) < 1e-12
        fast_dcf, fast_dthr = min_dcf(scored)
        brute_dcf, brute_dthr = min_dcf_threshold_sweep(scored)
        assert abs(fast_dcf - brute_dcf) < 1e-12
        assert fast_dthr == brute_dthr


def test_metrics_invariant_under_increasing_transforms():
    rng = np.random.default_rng(7)
    scored = _random_scored(rng, n=60, ties=False)
    base_eer, _ = eer(scored)
    base_dcf, _ = min_dcf(scored)
    for transform in (lambda s: 2.0 * s + 1.0, np.tanh):
        mapped = ScoredTrials(transform(scored.scores), scored.is_target)
        assert eer(mapped)[0] == pytest.approx(base_eer, abs=1e-12)
        assert min_dcf(mapped)[0] == pytest.approx(base_dcf, abs=1e-12)


def test_eer_invariant_under_role_swap_with_negation():
    rng = np.random.default_rng(8)
    scored = _random_scored(rng, n=61, ties=False)
    swapped = ScoredTrials(-scored.scores, ~scored.is_target)
    assert eer(swapped)[0] == pytest.approx(eer(scored)[0], abs=1e-12)


# ---------------------------------------------------------------------------
# file formats


def test_trial_file_round_trip(tmp_path):
    trials = (np.array([0, 2, 5]), np.array([3, 7, 1]), np.array([True, False, True]))
    path = tmp_path / "trials.txt"
    save_trials(path, trials)
    assert _trial_list(load_trials(path)) == _trial_list(trials)
    assert path.read_text() == "0 3 1\n2 7 0\n5 1 1\n"


def test_scored_file_round_trip(tmp_path):
    trials = (np.array([0, 2]), np.array([3, 7]), np.array([True, False]))
    scored = ScoredTrials(np.array([0.12345678901234567, -0.5]),
                          np.array([True, False]))
    path = tmp_path / "scores.txt"
    save_scored_trials(path, trials, scored)
    loaded_trials, loaded_scored = load_scored_trials(path)
    assert _trial_list(loaded_trials) == _trial_list(trials)
    assert np.array_equal(loaded_scored.scores, scored.scores)
    assert np.array_equal(loaded_scored.is_target, scored.is_target)
