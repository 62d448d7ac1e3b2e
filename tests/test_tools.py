"""Smoke tests for the scripts under tools/: each is loaded by path and its
rows run once, or its configs loaded, so that a signature or config change
in the package fails here rather than leaving a script broken. The
benchmark's table of traced function names is held against the package the
same way."""

import importlib.util
import json
import types
from pathlib import Path

import numpy as np
import pytest

from aamsupcon import training
from aamsupcon.cli import load_config

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"

# Span names perfbench/spans.py reads that name no function of the package,
# so their per-layer metrics read 0. Item 9 of ROADMAP.md renames or drops
# them; until then a rename of any other traced function fails here instead
# of reading 0 too.
UNRESOLVED_SPANS = ["batching.augment", "batching.build_batch", "evaluate.build_trials",
                    "evaluate.eer", "evaluate.min_dcf", "evaluate.save_scored_trials",
                    "evaluate.save_trials", "losses.arcface_loss", "losses.build_index_sets",
                    "losses.supcon_loss"]


def _load(name, directory=TOOLS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def layergrid():
    return _load("layergrid")


@pytest.fixture(scope="module")
def runset():
    return _load("runset")


def test_layergrid_times_every_training_row_once(layergrid):
    rows = layergrid.train_rows((0, 1))
    layers = [f"train.{phase}" for phase in training.PHASES] + ["train"]
    want = [(layer, 2 * speakers * layergrid.VIEWS, space) for space in layergrid.SPACES
            for speakers in layergrid.SPEAKERS for layer in layers]
    assert [row[:3] for row in rows] == want
    assert all(seconds > 0 and faults >= 0 for *_, seconds, faults in rows)


def test_layergrid_reads_the_training_rows_from_train(layergrid, monkeypatch):
    """Each (N, space) is one training.train call, and its rows are that
    run's clock: after one warm-up step, the mean of each column over the
    timed steps and the mean timed step, in seconds."""
    runs = []
    train = training.train

    def kept(config, *data):
        result = train(config, *data)
        runs.append((config, result[1]))
        return result

    monkeypatch.setattr(training, "train", kept)
    rows = layergrid.train_rows((1, 2))
    assert [(config.steps, config.batch_speakers, config.classifier_space)
            for config, _ in runs] \
        == [(3, speakers, space) for space in layergrid.SPACES for speakers in layergrid.SPEAKERS]
    phases = len(training.PHASES)
    for k, (_, log) in enumerate(runs):
        steps = log.clock[1:] / 1e9
        got = [seconds for *_, seconds, _ in rows[k * (phases + 1):][:phases + 1]]
        assert got == steps.mean(axis=0).tolist() + [steps.sum(axis=1).mean()]


def test_layergrid_times_every_evaluation_row_once(layergrid):
    rows = layergrid.eval_rows((0, 1, 1))
    trials = 2 * layergrid.EVAL_SPEAKERS * layergrid.TRIALS_PER_SPEAKER
    dataset_rows = layergrid.EVAL_UTTERANCES * layergrid.EVAL_SPEAKERS
    sizes = {**dict.fromkeys(layergrid.DATASET_LAYERS, dataset_rows),
             "save_runlog": layergrid.RUNLOG_STEPS}
    assert [row[:3] for row in rows] == [(layer, sizes.get(layer, trials), "projection")
                                         for layer in layergrid.EVAL_LAYERS]
    assert layergrid.DATASET_LAYERS == ("save_dataset", "load_dataset")
    assert layergrid.RUNLOG_STEPS == 1000
    assert layergrid.EVAL_LAYERS == ("trial_blocks", "score_trials", "roc_metrics",
                                     "score_and_save", "write_trial_files", "save_dataset",
                                     "load_dataset", "save_runlog", "evaluate")
    assert all(seconds > 0 and faults >= 0 and peak > 0 for *_, seconds, faults, peak in rows)


def test_layergrid_measures_each_part_in_its_own_interpreter(layergrid, monkeypatch):
    """A round of any checkout runs this grid file once per part, training
    then evaluation, against that checkout's src/, and joins their rows."""
    commands = []

    def run(argv, **kwargs):
        commands.append(argv)
        part = argv[argv.index("--part") + 1]
        return types.SimpleNamespace(
            stdout=json.dumps({"rows": [[part, 1, "projection", 1.0, 0.0]], "minflt": len(part)}))

    monkeypatch.setattr(layergrid.subprocess, "run", run)
    older = Path("/older")
    got = layergrid.run_round(older, "quick")
    assert got == {"rows": [["train", 1, "projection", 1.0, 0.0],
                            ["eval", 1, "projection", 1.0, 0.0]],
                   "minflt": {"train": 5, "eval": 4}}
    assert [argv[1:] for argv in commands] == [
        [str(TOOLS / "layergrid.py"), "--measure", str(older / "src"), "--part", part,
         "--mode", "quick"] for part in ("train", "eval")]


def test_layergrid_gives_a_package_without_a_clock_no_training_rows(layergrid, monkeypatch):
    monkeypatch.delattr(training, "PHASES")
    assert layergrid.train_rows((0, 1)) == []


def test_runset_configs_load(runset, tmp_path):
    """Every config the byte-identity run set writes loads: a renamed key or
    a tightened domain that would break the set fails here, where the set
    itself is too slow to run."""
    runset.write_configs(tmp_path / "config")
    paths = sorted((tmp_path / "config").glob("*.ini"))
    assert [path.stem for path in paths] == sorted(runset.CONFIGS)
    for path in paths:
        load_config(path)


def test_perfbench_reads_one_wall_time_per_step():
    """perfbench's step_ms_p50 and p99 pool what run_pass in perfbench/run.py
    reads from each RunLog that train returns; a RunLog its reader cannot
    see into would read as no steps, or as steps of 0 s."""
    cfg = training.TrainConfig(steps=5, batch_speakers=2, encoder_hidden=(8,), proj_hidden=8,
                               embedding_dim=4)
    features = np.random.default_rng(0).standard_normal((12, 6))
    results = [training.train(cfg, features, np.repeat(np.arange(4), 3))]
    # run_pass's expression, verbatim:
    step_s = [getattr(r, "wall_time", 0.0) for result in results
              for r in getattr(result[1], "records", ())]
    assert len(step_s) == cfg.steps
    assert all(isinstance(s, float) and s > 0 for s in step_s)


def test_perfbench_span_names_resolve_but_the_known_stale_ones():
    spans = _load("spans", ROOT / "perfbench")

    def resolves(name):
        module, function = name.split(".")
        value = getattr(importlib.import_module(f"aamsupcon.{module}"), function, None)
        # the tracer names a span after the defining module and __name__
        return (isinstance(value, types.FunctionType) and value.__name__ == function
                and value.__module__ == f"aamsupcon.{module}")

    assert [name for name in spans.expected_functions() if not resolves(name)] \
        == UNRESOLVED_SPANS
