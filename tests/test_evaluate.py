import contextlib
import re
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aamsupcon import evaluate

from aamsupcon.errors import ConfigError, IoError, NumericalError
from aamsupcon.evaluate import (
    DcfParams,
    ScoredTrials,
    roc_metrics,
    score_and_save,
    score_trials,
    trial_blocks,
)
from aamsupcon.cli import main
from aamsupcon.model import (NetworkParams, encoder_embeddings, forward, init_params,
                             save_checkpoint)
from aamsupcon.synthdata import DatasetSpec, generate, save_dataset
import oracles
from oracles import (
    eer_threshold_sweep,
    load_scored_trials,
    load_trials,
    min_dcf_threshold_sweep,
)


def _eer(scored):
    """(eer, threshold) of roc_metrics."""
    return roc_metrics(scored)[:2]


def _min_dcf(scored, dcf=None):
    """(min_dcf, threshold) of roc_metrics."""
    return roc_metrics(scored, dcf)[2:]


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


def _joined(trials):
    """The (count, blocks) of trial_blocks joined into one (enroll, test,
    is_target) trial list."""
    _, blocks = trials
    return tuple(np.concatenate(column) for column in zip(*blocks))


def _blocks(trials, size=700):
    """A trial list as the (count, blocks) that score_trials and
    score_and_save take, in blocks of size trials."""
    enroll, test, flags = (np.asarray(a) for a in trials)
    return len(enroll), ((enroll[i:i + size], test[i:i + size], flags[i:i + size])
                         for i in range(0, len(enroll), size))


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


def test_trial_blocks_counts():
    _, speaker_ids, _ = generate(DatasetSpec(2, 2, 8, 0.1, seed=0))
    _, _, is_target = _joined(trial_blocks(speaker_ids, 1, seed=0))
    targets = [t for t in is_target if t]
    nontargets = [t for t in is_target if not t]
    assert len(targets) == 2 and len(nontargets) == 2


def test_target_trials_share_speaker():
    _, speaker_ids, _ = generate(DatasetSpec(5, 4, 8, 0.1, seed=1))
    for enroll, test, is_target in _trial_list(_joined(trial_blocks(speaker_ids, 6, seed=3))):
        same = speaker_ids[enroll] == speaker_ids[test]
        assert same == is_target
        assert enroll != test


def test_trial_blocks_deterministic():
    _, speaker_ids, _ = generate(DatasetSpec(4, 3, 8, 0.1, seed=2))

    def drawn(seed):
        return _trial_list(_joined(trial_blocks(speaker_ids, 5, seed=seed)))

    assert drawn(9) == drawn(9)
    assert drawn(9) != drawn(10)


def reference_trials(speaker_ids, trials_per_speaker, seed):
    """Per-trial reference for trial_blocks, spelling out its random draw
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


def test_trial_blocks_match_per_trial_reference():
    rng = np.random.default_rng(0)
    for seed in range(60):
        # unequal, shuffled speaker blocks; small speakers and large
        # trials_per_speaker push the target draws into the excess
        counts = rng.integers(2, 7, size=int(rng.integers(2, 6)))
        speaker_ids = rng.permutation(np.repeat(rng.choice(100, counts.size, replace=False),
                                                counts))
        per_speaker = int(rng.integers(1, 25))
        got = _joined(trial_blocks(speaker_ids, per_speaker, seed))
        assert _trial_list(got) == reference_trials(speaker_ids, per_speaker, seed), seed
        assert got[0].dtype == got[1].dtype == np.int64 and got[2].dtype == bool


@pytest.mark.parametrize("per_speaker", [1, 5, 400, 4095, 4096, 4097, 9000])
def test_trial_blocks_hold_whole_speakers_of_the_reference(per_speaker):
    """Each block holds whole speakers, as many as fit in _TRIAL_BLOCK
    trials and at least one, with their flags; joined, the blocks are the
    per-trial reference, and count counts them."""
    assert evaluate._TRIAL_BLOCK == 8192
    speaker_ids = np.random.default_rng(per_speaker).permutation(np.repeat(np.arange(7), 3))
    count, blocks = trial_blocks(speaker_ids, per_speaker, seed=per_speaker)
    blocks = list(blocks)
    speakers = max(1, 8192 // (2 * per_speaker))
    assert [len(b[0]) for b in blocks] == [2 * per_speaker * min(speakers, 7 - first)
                                           for first in range(0, 7, speakers)]
    one = [True] * per_speaker + [False] * per_speaker
    for enroll, test, flags in blocks:
        assert len(test) == len(enroll)
        assert flags.tolist() == one * (len(enroll) // (2 * per_speaker))
    joined = _joined((count, blocks))
    assert count == len(joined[0]) == 14 * per_speaker
    assert _trial_list(joined) == reference_trials(speaker_ids, per_speaker, per_speaker)


def test_trial_blocks_check_speakers_before_drawing():
    """The speaker checks run when trial_blocks is called, so a caller can
    refuse a trial list before it makes any output."""
    for ids, message in (([0, 0, 0], "non-target trials need at least 2 speakers"),
                         ([0, 0, 1], r"speaker 1 has 1 utterance\(s\), needs >= 2")):
        with pytest.raises(ConfigError, match=message):
            trial_blocks(np.array(ids), 3, seed=0)


@pytest.mark.parametrize("ids, first", [(np.repeat(np.arange(4), 3) + 0.5, "0 is 0.5"),
                                        (np.array([0, 0, 1, np.nan, 1]), "3 is nan")])
def test_trial_blocks_refuse_non_integer_speaker_ids(ids, first):
    """A fractional or NaN speaker id is refused, naming its row, not
    truncated into another speaker."""
    with pytest.raises(ConfigError, match=f"speaker id of row {first}, not an integer"):
        trial_blocks(ids, 2, 0)


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
    scored = score_trials(params, features, _blocks(trials))
    assert scored.scores[0] == 1.0
    assert scored.scores[1] == -1.0


def test_scores_lie_in_cosine_range():
    features, speaker_ids, _ = generate(DatasetSpec(10, 10, 12, 0.5, seed=3))
    params = init_params([12, 16], 16, 8, 10, seed=0)
    scored = score_trials(params, features, trial_blocks(speaker_ids, 50, seed=1))
    assert scored.scores.size == 1000
    assert np.all(scored.scores >= -1.0) and np.all(scored.scores <= 1.0)


def test_score_trials_checks_indices():
    """Of several bad trials, with each kind of bad index, the message
    names the first."""
    params = _antipodal_params()
    features = np.array([[1.0], [-1.0]])
    with pytest.raises(ConfigError, match=r"trial 0 \(0, 5\) outside dataset of 2"):
        score_trials(params, features,
                     _blocks((np.array([0]), np.array([5]), np.array([False]))))
    flags = np.array([True, False, True, False, True])
    for enroll, test, first in [((0, 1, 1, -1, 0), (1, 0, 2, 0, 9), r"trial 2 \(1, 2\)"),
                                ((0, -1, 1, 5, 0), (1, 1, 0, 0, 1), r"trial 1 \(-1, 1\)"),
                                ((0, 1, 1, 0, 2), (1, 1, 0, -2, 1), r"trial 3 \(0, -2\)"),
                                ((0, 1, 1, 0, 2), (1, 1, 0, 1, 1), r"trial 4 \(2, 1\)")]:
        for dtype in (np.int64, np.int32):
            trials = (np.array(enroll, dtype=dtype), np.array(test, dtype=dtype), flags)
            with pytest.raises(ConfigError, match=first + " outside dataset of 2"):
                score_trials(params, features, _blocks(trials))


@pytest.mark.parametrize("position", [0, 1, 2])
def test_score_trials_names_a_bad_trial_of_a_later_block_by_its_number(position):
    """An index outside the features in the second of three 3-trial blocks
    is found, although _cosines gathers in clip mode, and named by the
    trial's number in the whole list, not in its block."""
    params = _antipodal_params()
    features = np.array([[1.0], [-1.0]])
    enroll, test = np.zeros(9, dtype=np.int64), np.ones(9, dtype=np.int64)
    test[3 + position] = 7
    trials = (enroll, test, np.arange(9) % 2 == 0)
    with pytest.raises(ConfigError, match=rf"trial {3 + position} \(0, 7\) outside dataset of 2"):
        score_trials(params, features, _blocks(trials, size=3))


def test_score_trials_encoder_space():
    features, speaker_ids, _ = generate(DatasetSpec(6, 4, 12, 0.3, seed=9))
    params = init_params([12, 16], 16, 8, 6, seed=2)
    trials = _joined(trial_blocks(speaker_ids, 5, seed=4))
    proj = score_trials(params, features, _blocks(trials), space="projection")
    enc = score_trials(params, features, _blocks(trials), space="encoder")
    assert np.all(enc.scores >= -1.0) and np.all(enc.scores <= 1.0)
    assert not np.array_equal(proj.scores, enc.scores)
    with pytest.raises(ValueError):
        score_trials(params, features, _blocks(trials), space="latent")


# ---------------------------------------------------------------------------
# block scoring and the trial and score files against unblocked references


def _rows(trials):
    """The trials as Python scalars, which format faster than numpy ones."""
    return zip(*(np.asarray(a).tolist() for a in trials))


_FLOAT_FMT = "%.17g"


def _reference_files(trials, scores, trials_path, scores_path):
    """The trial and score files written line by line with f-strings."""
    with open(trials_path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines((f"{e} {t} {int(g)}\n" for e, t, g in _rows(trials)))
    with open(scores_path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines((f"{e} {t} {int(g)} " + (_FLOAT_FMT % s) + "\n"
                       for (e, t, g), s in zip(_rows(trials), scores.tolist())))


def _reference_outputs(emb, trials, trials_path, scores_path):
    """Scores of the whole trial list in one expression, and the trial and
    score files written line by line with f-strings."""
    enroll, test, _ = trials
    scores = np.clip(np.sum(emb[enroll] * emb[test], axis=1), -1.0, 1.0)
    _reference_files(trials, scores, trials_path, scores_path)
    return scores


def _assert_matches_reference(tmp_path, monkeypatch, params, features, trials, space, emb):
    """score_trials and score_and_save, given the trial list in blocks of
    700 trials, reproduce the reference bit for bit (scores compared as raw
    float64 bits, so a sign flip of a zero counts) and byte for byte, with
    is_target given as bools and as 0/1 ints. The score holder skips
    ScoredTrials' check for both classes, so a single trial can be
    scored."""
    monkeypatch.setattr(evaluate, "ScoredTrials",
                        lambda scores, is_target: SimpleNamespace(scores=scores))
    enroll, test, is_target = trials
    for flags in (is_target.astype(bool), is_target.astype(np.int64)):
        want = _reference_outputs(emb, (enroll, test, flags), tmp_path / "want_trials.txt",
                                  tmp_path / "want_scores.txt")
        for got in (score_trials(params, features, _blocks((enroll, test, flags)), space),
                    score_and_save(params, features, _blocks((enroll, test, flags)), space,
                                   tmp_path / "trials.txt", tmp_path / "scores.txt")):
            assert np.array_equal(got.scores, want)
            assert np.array_equal(got.scores.view(np.uint64), want.view(np.uint64))
        for name in ("trials.txt", "scores.txt"):
            assert (tmp_path / name).read_bytes() == (tmp_path / f"want_{name}").read_bytes()
    return want


@pytest.mark.parametrize("space", ["projection", "encoder"])
@pytest.mark.parametrize("dim", [2, 8, 9, 128, 129])
@pytest.mark.parametrize("num_trials", [1, 511, 512, 513, 5000])
def test_block_scoring_and_writers_match_unblocked(tmp_path, monkeypatch, num_trials,
                                                  dim, space):
    """Embeddings of width dim in either space; every fifth trial
    pairs a row with itself, whose score may round past 1 and be clipped."""
    rng = np.random.default_rng(1000 * num_trials + dim)
    params = init_params([6, dim], 16, dim, 3, seed=dim)
    params.encoder_layers[0][1][:] = 3.0  # no all-dead encoder row at dim = 2
    features = rng.standard_normal((50, 6))
    enroll = rng.integers(0, 50, num_trials)
    test = np.where(np.arange(num_trials) % 5 == 0, enroll, rng.integers(0, 50, num_trials))
    trace = forward(params, features)
    emb = trace.embeddings if space == "projection" else encoder_embeddings(trace)
    _assert_matches_reference(tmp_path, monkeypatch, params, features,
                              (enroll, test, rng.random(num_trials) < 0.5), space, emb)


@pytest.mark.parametrize("space", ["projection", "encoder"])
@pytest.mark.parametrize("rows, per_speaker", [(3, 1), (4, 300), (10, 4100), (400, 2)])
def test_score_and_save_equals_score_trials_and_reference_files(tmp_path, rows, per_speaker,
                                                                space):
    """Scoring and writing the trial blocks as they are drawn gives the
    scores and flags of score_trials, and the files hold the line-by-line
    reference of the joined trial list: with few trials over many rows
    (400 rows a speaker), with several speakers a block and with one, whose
    block of 8200 trials the writers split."""
    features, speaker_ids, _ = generate(DatasetSpec(8, rows, 6, 0.5, seed=rows))
    params = init_params([6, 16], 16, 8, 8, seed=1)
    want = score_trials(params, features, trial_blocks(speaker_ids, per_speaker, seed=3), space)
    _reference_files(_joined(trial_blocks(speaker_ids, per_speaker, seed=3)), want.scores,
                     tmp_path / "want_trials.txt", tmp_path / "want_scores.txt")
    got = score_and_save(params, features, trial_blocks(speaker_ids, per_speaker, seed=3),
                         space, tmp_path / "trials.txt", tmp_path / "scores.txt")
    assert got.scores.view(np.uint64).tolist() == want.scores.view(np.uint64).tolist()
    assert got.is_target.tolist() == want.is_target.tolist()
    for name in ("trials.txt", "scores.txt"):
        assert (tmp_path / name).read_bytes() == (tmp_path / f"want_{name}").read_bytes()


def _signed_params(dim):
    """d_in = dim network whose projection embedding is x / |x|: the
    encoder keeps (relu(x), relu(-x)) and the head subtracts them."""
    eye = np.eye(dim)
    encoder = [(np.vstack([eye, -eye]), np.zeros(2 * dim))]
    return NetworkParams(encoder, np.eye(2 * dim), np.hstack([eye, -eye]), np.eye(2, dim))


@pytest.mark.parametrize("dim", [2, 9, 129])
def test_block_scoring_keeps_clipped_and_zero_scores(tmp_path, monkeypatch, dim):
    """Self pairs that round past +1, antipodal pairs past -1, and
    orthogonal pairs whose every product is -0.0, spread over 3 blocks."""
    rng = np.random.default_rng(dim)
    base = rng.standard_normal((20, dim))
    half = dim // 2
    neg_low, neg_high = np.zeros((2, dim)), np.zeros((2, dim))
    neg_low[:, :half], neg_high[:, half:] = -1.0, -1.0
    features = np.vstack([base, -base, neg_low[:1], neg_high[:1]])
    kinds = rng.integers(0, 3, 1300)
    first = rng.integers(0, 20, 1300)
    enroll = np.where(kinds == 2, 40, first)
    test = np.choose(kinds, [first, first + 20, np.full(1300, 41)])
    params = _signed_params(dim)
    emb = forward(params, features).embeddings
    products = emb[enroll] * emb[test]
    raw = np.sum(products, axis=1)
    assert (raw > 1.0).any() and (raw < -1.0).any()
    assert np.signbit(products[kinds == 2]).all() and (raw[kinds == 2] == 0.0).all()
    want = _assert_matches_reference(tmp_path, monkeypatch, params, features,
                                     (enroll, test, kinds == 0), "projection", emb)
    assert want.max() == 1.0 and want.min() == -1.0


# scores whose %.17g text is short, signed, subnormal or needs all 17 digits
_SPECIAL_SCORES = [-0.0, 0.0, 1.0, -1.0, 5e-324, -5e-324, 1 / 3, -2 / 3, 0.1 + 0.2,
                   float(np.nextafter(1.0, 0.0)), float(np.nextafter(-1.0, 0.0)),
                   2.2250738585072014e-308, 1e300, 0.5]


@contextlib.contextmanager
def _given_scores(scores):
    """score_and_save with scores, in trial order, in place of the cosines,
    so that any float's text can be checked, and with the feature matrix as
    its own embedding, so that a zero-width broadcast one can stand for a
    dataset of a million rows. The score holder skips ScoredTrials' checks,
    so no trial or one class can be written."""
    left = iter(scores.tolist())

    def cosines(emb, enroll, test, out, buffers):
        out[:] = np.fromiter(left, np.float64, len(out))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate, "_cosines", cosines)
        patch.setattr(evaluate, "embed", lambda params, features, space: features)
        patch.setattr(evaluate, "ScoredTrials",
                      lambda scores, is_target: SimpleNamespace(scores=scores))
        yield


def _save(tmp, trials, scores, rows):
    """score_and_save of trials with the given scores (_given_scores) over a
    dataset of rows rows, to tmp / trials.txt and tmp / scores.txt."""
    features = np.broadcast_to(np.empty((1, 0)), (rows, 0))
    with _given_scores(scores):
        score_and_save(None, features, _blocks(trials), "projection",
                       tmp / "trials.txt", tmp / "scores.txt")


def _assert_writers_match_reference(rows, largest, rng, index_dtype):
    """A trial list of rows rows drawn from rng, whose indices lie in
    [0, largest], with index 0 and largest present, flags given as bools
    and as 0/1 ints, and a third of the scores drawn from _SPECIAL_SCORES:
    score_and_save, over a dataset of largest + 1 rows, writes the
    reference's bytes, one line per row. Returns the index columns."""
    both = rng.integers(0, largest + 1, (2, rows)).astype(index_dtype)
    if rows:
        both.flat[rng.choice(2 * rows, size=2, replace=False)] = 0, largest
    enroll, test = both
    scores = np.where(rng.random(rows) < 1 / 3, rng.choice(_SPECIAL_SCORES, rows),
                      rng.uniform(-1.0, 1.0, rows))
    flags = rng.random(rows) < 0.5
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for is_target in (flags, flags.astype(np.int64)):
            trials = (enroll, test, is_target)
            _reference_files(trials, scores, tmp / "want_trials.txt", tmp / "want_scores.txt")
            _save(tmp, trials, scores, largest + 1)
            for name in ("trials.txt", "scores.txt"):
                got = (tmp / name).read_bytes()
                assert got == (tmp / f"want_{name}").read_bytes()
                assert got.count(b"\n") == rows
    return enroll, test


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(rows=0, digits=1, seed=0, index_dtype=np.int64)
@example(rows=600, digits=3, seed=1, index_dtype=np.int64)
@example(rows=600, digits=6, seed=2, index_dtype=np.int32)
@given(rows=st.integers(0, 600), digits=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       index_dtype=st.sampled_from([np.int64, np.int32, np.uint32]))
def test_writers_match_line_by_line_reference(rows, digits, seed, index_dtype):
    """Trial lists of 0 to 600 rows whose indices have up to `digits`
    digits (_assert_writers_match_reference); an empty list gives an empty
    file."""
    rng = np.random.default_rng(seed)
    largest = int(rng.integers(10 ** (digits - 1), 10 ** digits))
    _assert_writers_match_reference(rows, largest, rng, index_dtype)


@pytest.mark.parametrize("wide", [False, True])
@pytest.mark.parametrize("chunks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_writers_match_reference_across_block_edges(chunks, extra, wide):
    """Row counts on each side of the writers' chunks of TEXT_FLOATS
    trials, with indices of up to rows // 2 and up to 999999 (wide)."""
    assert evaluate.TEXT_FLOATS == 4096 <= evaluate._TRIAL_BLOCK
    rows = chunks * evaluate.TEXT_FLOATS + extra
    largest = 999_999 if wide else rows // 2
    _assert_writers_match_reference(rows, largest, np.random.default_rng(rows), np.int64)


def test_writers_table_no_more_strings_than_cells(tmp_path):
    """Two trials over a dataset of a million rows: the index columns'
    digits are worked out per trial, with no table sized by the largest
    index."""
    trials = (np.array([0, 999_999]), np.array([999_999, 5]), np.array([True, False]))
    tracemalloc.start()
    try:
        _save(tmp_path, trials, np.array([0.5, -0.25]), 1_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "trials.txt").read_text() == "0 999999 1\n999999 5 0\n"
    assert (tmp_path / "scores.txt").read_text() == "0 999999 1 0.5\n999999 5 0 -0.25\n"
    assert peak < 2**20, f"peak {peak / 2**20:.1f} MB"


@pytest.fixture(scope="module")
def quickstart_scale():
    """The quickstart model, 1280 feature rows, a function that draws the
    trial_blocks of 102400 trials over them, and their scores."""
    features, speaker_ids, _ = generate(DatasetSpec(128, 10, 40, 0.2, seed=0))
    params = init_params([40, 64, 64], 128, 128, 128, seed=0)

    def trials():
        return trial_blocks(speaker_ids, 400, seed=0)

    return params, features, trials, score_trials(params, features, trials())


def _traced_peak(fn):
    """(fn's result, the tracemalloc peak of the call in bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("space", ["projection", "encoder"])
def test_block_scoring_peak_memory(quickstart_scale, space):
    """Blocks keep the scoring temporaries far below the (T, D) products of
    one pass, and the inference pass holds no forward trace: about 3.1 MiB
    in projection space and 2.0 MiB in encoder space, against 11.6 and
    12.9 MiB through forward's workspace."""
    params, features, trials, _ = quickstart_scale
    scored, peak = _traced_peak(lambda: score_trials(params, features, trials(), space))
    assert scored.scores.size == 102400
    assert peak < 6 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_writers_peak_memory(quickstart_scale, tmp_path):
    """The writers format TEXT_FLOATS lines at a time, so 102400 trials
    need no whole-file text: writing both files adds under 2 MiB to the
    peak of scoring alone."""
    params, features, trials, _ = quickstart_scale
    _, scoring = _traced_peak(lambda: score_trials(params, features, trials()))
    _, peak = _traced_peak(lambda: score_and_save(params, features, trials(), "projection",
                                                  tmp_path / "trials.txt",
                                                  tmp_path / "scores.txt"))
    assert peak - scoring < 2 * 2**20, f"writers add {(peak - scoring) / 2**20:.1f} MB"
    for name in ("trials", "scores"):
        assert (tmp_path / f"{name}.txt").read_bytes().count(b"\n") == 102400


def test_roc_metrics_peak_memory_and_bits_at_scale(quickstart_scale):
    """The curve at 102400 trials is built in place: under 4 MiB at its
    peak, with the bits of the two-curve reference."""
    scored = quickstart_scale[3]
    got, peak = _traced_peak(lambda: roc_metrics(scored))
    want = (*oracles.eer(scored), *oracles.min_dcf(scored, DcfParams()))
    assert [v.hex() for v in got] == [v.hex() for v in want]
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_evaluate_command_peak_memory(tmp_path):
    """The whole evaluate command at the benchmark's verify-large shape
    (128 speakers x 20 utterances, 10 held out, 400 trials a speaker, an
    untrained quickstart-shaped model) stays at or under 5 MiB traced: it
    reads the dataset in row blocks and keeps no whole trial list. numpy.ma
    is imported first, so that only the command is traced."""
    import numpy.ma  # noqa: F401

    spec = DatasetSpec(128, 20, 40, 0.2, seed=7)
    features, speaker_ids, _ = generate(spec)
    save_dataset(tmp_path / "dataset.txt", spec, features, speaker_ids)
    save_checkpoint(tmp_path / "checkpoint.bin", init_params([40, 64, 64], 128, 128, 128, seed=0))
    (tmp_path / "config.ini").write_text(
        "[dataset]\nnum_speakers = 128\nholdout_per_speaker = 10\n"
        "[eval]\ntrials_per_speaker = 400\n")
    argv = ["evaluate", "--config", str(tmp_path / "config.ini"),
            "--data", str(tmp_path / "dataset.txt"),
            "--checkpoint", str(tmp_path / "checkpoint.bin"), "--out", str(tmp_path / "eval")]
    assert main(argv) == 0
    code, peak = _traced_peak(lambda: main(argv))
    assert code == 0
    assert (tmp_path / "eval" / "scores.txt").read_bytes().count(b"\n") == 102400
    assert peak <= 5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# EER


def test_eer_perfect_separation():
    scored = ScoredTrials(np.array([0.9, 0.9, 0.9, -0.9, -0.9]),
                          np.array([True, True, True, False, False]))
    rate, threshold = _eer(scored)
    assert rate == 0.0
    assert -0.9 < threshold <= 0.9


def test_eer_handcrafted_four_trials():
    # frozen from the exhaustive sweep: one error per class at the crossing
    scored = ScoredTrials(np.array([0.8, 0.4, 0.6, 0.1]),
                          np.array([True, True, False, False]))
    rate, threshold = _eer(scored)
    assert rate == 0.5
    assert threshold == 0.6
    assert eer_threshold_sweep(scored) == (rate, threshold)


def test_eer_random_labels_near_half():
    rng = np.random.default_rng(4)
    scores = rng.normal(size=10000)
    flags = rng.random(10000) < 0.5
    rate, _ = _eer(ScoredTrials(scores, flags))
    assert abs(rate - 0.5) < 0.05


def test_eer_total_confusion_is_one():
    scored = ScoredTrials(np.array([0.1, 0.1, 0.9, 0.9]),
                          np.array([True, True, False, False]))
    rate, _ = _eer(scored)
    assert rate == 1.0


def test_eer_degenerate_scores():
    scored = ScoredTrials(np.array([0.5, 0.5, 0.5]),
                          np.array([True, False, True]))
    with pytest.raises(NumericalError, match="all trial scores are equal"):
        _eer(scored)
    with pytest.raises(NumericalError, match="all trial scores are equal"):
        eer_threshold_sweep(scored)


def test_scored_trials_need_both_classes():
    with pytest.raises(NumericalError, match="need at least one target and one non-target"):
        ScoredTrials(np.array([0.1, 0.2]), np.array([True, True]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scored_trials_refuse_non_finite_scores(bad):
    """A NaN or infinite score would give roc_metrics a curve without
    error; the first such trial is named."""
    with pytest.raises(NumericalError, match=rf"trial 1 has the non-finite score {bad}"):
        ScoredTrials(np.array([0.1, bad, 0.3, bad]), np.array([True, False, True, False]))


# ---------------------------------------------------------------------------
# minDCF


def test_min_dcf_perfect_separation_is_zero():
    scored = ScoredTrials(np.array([0.9, 0.8, -0.8, -0.9]),
                          np.array([True, True, False, False]))
    value, threshold = _min_dcf(scored)
    assert value == 0.0
    assert -0.8 < threshold <= 0.9


def test_min_dcf_handcrafted_six_trials():
    # frozen from the brute-force sweep: best threshold 0.7 -> cost (1/3)*0.01
    scored = ScoredTrials(np.array([0.9, 0.7, 0.4, 0.6, 0.3, 0.1]),
                          np.array([True, True, True, False, False, False]))
    value, threshold = _min_dcf(scored)
    assert value == pytest.approx(0.3333333333333333, abs=1e-15)
    assert threshold == 0.7
    oracle_value, oracle_threshold = min_dcf_threshold_sweep(scored)
    assert value == pytest.approx(oracle_value, abs=1e-15)
    assert threshold == oracle_threshold


def test_min_dcf_bounded_by_one():
    rng = np.random.default_rng(5)
    for _ in range(20):
        scored = _random_scored(rng)
        value, _ = _min_dcf(scored)
        assert 0.0 <= value <= 1.0


def test_min_dcf_zero_iff_separable():
    separable = ScoredTrials(np.array([0.5, 0.4, 0.3, 0.2]),
                             np.array([True, True, False, False]))
    assert _min_dcf(separable)[0] == 0.0
    overlapping = ScoredTrials(np.array([0.5, 0.2, 0.4, 0.1]),
                               np.array([True, True, False, False]))
    assert _min_dcf(overlapping)[0] > 0.0


def test_min_dcf_custom_costs():
    scored = ScoredTrials(np.array([0.9, 0.1, 0.5, 0.2]),
                          np.array([True, True, False, False]))
    params = DcfParams(p_target=0.5, c_miss=10.0, c_fa=1.0)
    fast = _min_dcf(scored, params)
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
            fast_rate, fast_thr = _eer(scored)
        except NumericalError:
            continue
        brute_rate, brute_thr = eer_threshold_sweep(scored)
        assert abs(fast_rate - brute_rate) < 1e-12
        assert abs(fast_thr - brute_thr) < 1e-12
        fast_dcf, fast_dthr = _min_dcf(scored)
        brute_dcf, brute_dthr = min_dcf_threshold_sweep(scored)
        assert abs(fast_dcf - brute_dcf) < 1e-12
        assert fast_dthr == brute_dthr


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@example(n=2, digits=0, seed=0, p_target=0.01, c_miss=1.0, c_fa=1.0)
@example(n=200, digits=1, seed=1, p_target=0.5, c_miss=10.0, c_fa=0.1)
@given(n=st.integers(2, 300), digits=st.integers(0, 17), seed=st.integers(0, 2**32 - 1),
       p_target=st.floats(1e-6, 1.0 - 1e-6), c_miss=st.floats(1e-3, 1e3),
       c_fa=st.floats(1e-3, 1e3))
def test_roc_metrics_matches_two_curve_routes_bit_for_bit(n, digits, seed, p_target,
                                                          c_miss, c_fa):
    """roc_metrics gives the bits of the two-curve eer and min_dcf it
    replaced, on scores rounded to digits decimals (few digits: many ties)
    and random costs."""
    rng = np.random.default_rng(seed)
    scores = np.round(rng.normal(size=n), digits)
    flags = np.arange(n) < int(rng.integers(1, n))
    rng.shuffle(flags)
    scored, dcf = ScoredTrials(scores, flags), DcfParams(p_target, c_miss, c_fa)
    if np.all(scores == scores[0]):
        with pytest.raises(NumericalError, match="all trial scores are equal"):
            roc_metrics(scored, dcf)
        return
    want = (*oracles.eer(scored), *oracles.min_dcf(scored, dcf))
    assert [v.hex() for v in roc_metrics(scored, dcf)] == [v.hex() for v in want]


def test_metrics_invariant_under_increasing_transforms():
    rng = np.random.default_rng(7)
    scored = _random_scored(rng, n=60, ties=False)
    base_eer, _ = _eer(scored)
    base_dcf, _ = _min_dcf(scored)
    for transform in (lambda s: 2.0 * s + 1.0, np.tanh):
        mapped = ScoredTrials(transform(scored.scores), scored.is_target)
        assert _eer(mapped)[0] == pytest.approx(base_eer, abs=1e-12)
        assert _min_dcf(mapped)[0] == pytest.approx(base_dcf, abs=1e-12)


def test_eer_invariant_under_role_swap_with_negation():
    rng = np.random.default_rng(8)
    scored = _random_scored(rng, n=61, ties=False)
    swapped = ScoredTrials(-scored.scores, ~scored.is_target)
    assert _eer(swapped)[0] == pytest.approx(_eer(scored)[0], abs=1e-12)


# ---------------------------------------------------------------------------
# file formats


def _round_trip(tmp_path, trials):
    """The scores score_and_save writes for trials over 8 generated rows."""
    features, _, _ = generate(DatasetSpec(4, 2, 6, 0.5, seed=0))
    params = init_params([6, 8], 8, 4, 4, seed=0)
    return score_and_save(params, features, _blocks(trials), "projection",
                          tmp_path / "trials.txt", tmp_path / "scores.txt")


def test_trial_file_round_trip(tmp_path):
    trials = (np.array([0, 2, 5]), np.array([3, 7, 1]), np.array([True, False, True]))
    path = tmp_path / "trials.txt"
    _round_trip(tmp_path, trials)
    assert _trial_list(load_trials(path)) == _trial_list(trials)
    assert path.read_text() == "0 3 1\n2 7 0\n5 1 1\n"


def test_scored_file_round_trip(tmp_path):
    trials = (np.array([0, 2]), np.array([3, 7]), np.array([True, False]))
    scored = _round_trip(tmp_path, trials)
    loaded_trials, loaded_scored = load_scored_trials(tmp_path / "scores.txt")
    assert _trial_list(loaded_trials) == _trial_list(trials)
    assert np.array_equal(loaded_scored.scores, scored.scores)
    assert np.array_equal(loaded_scored.is_target, scored.is_target)
