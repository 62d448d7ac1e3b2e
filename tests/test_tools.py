"""Smoke tests for the scripts under tools/: each is loaded by path and its
rows run once, so that a signature change in the package fails here rather
than leaving a script broken."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def layergrid():
    spec = importlib.util.spec_from_file_location("layergrid", TOOLS / "layergrid.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layergrid_times_every_training_row_once(layergrid):
    rows = layergrid.train_rows((0, 1, 1))
    want = [(layer, 2 * speakers * layergrid.VIEWS, space) for space in layergrid.SPACES
            for speakers in layergrid.SPEAKERS for layer in layergrid.TRAIN_LAYERS]
    assert [row[:3] for row in rows] == want
    assert all(seconds > 0 and faults >= 0 for *_, seconds, faults in rows)


def test_layergrid_times_every_evaluation_row_once(layergrid):
    rows = layergrid.eval_rows((0, 1, 1))
    trials = 2 * layergrid.EVAL_SPEAKERS * layergrid.TRIALS_PER_SPEAKER
    assert [row[:3] for row in rows] == [(layer, trials, "projection")
                                         for layer in layergrid.EVAL_LAYERS]
    assert all(seconds > 0 and faults >= 0 for *_, seconds, faults in rows)
