"""Layer grid: the time each phase of a training step and each part of an
evaluation takes, per call.

    python3 tools/layergrid.py OUT.json [--before CHECKOUT] [--rounds R] [--quick]

Training rows, at N = 32, 128 and 256 rows (8, 32 and 64 speakers, 2 views
each, from a 64-speaker, 20-utterance, 40-dimensional generated dataset)
with the quickstart model, augmentation and loss, in both classifier spaces,
each from one training.train call: after its warm-up steps, the mean over
every timed step of its clock (RunLog.clock) gives a row per phase of
training.PHASES, "train.<phase>", per step, and the mean timed step gives
the row "train". train draws its batches a block at a time and charges a
block's draws to the step that draws it, so the timed steps are whole
blocks: 96 warm-up and 480 timed steps are whole blocks of 32, 24 and 12
batches, the block sizes at N = 32, 128 and 256. All six rows get the
call's minor page faults per step.

Evaluation rows, at 102400 trials (128 speakers with 10 of their 20
utterances held out, 400 target and 400 non-target trials per speaker) with
an untrained quickstart-shaped model: trial_blocks (drained, each block
dropped once drawn), score_trials, roc_metrics, and score_and_save, which
also writes the trial and score files (score_trials and score_and_save are
given blocks drawn before the timed calls); write_trial_files, the writing
of both files alone, from those blocks scored before the timed calls;
save_dataset and load_dataset of the whole 2560-row dataset they are drawn
from; save_runlog of a RUNLOG_STEPS-step run log; and the whole evaluate
command on that dataset and model (cli.main, with the config, dataset and
checkpoint files written before the timed calls). Each is timed with
perf_counter in blocks of calls after untimed warm-up calls, keeping the
fastest block and the minor page faults of its timed calls, and gets the
tracemalloc peak of one more call, made after the timed ones, so that
tracing slows no timed call.

A round of a checkout runs this file twice, each time in a fresh
interpreter with single-threaded BLAS that imports the package from that
checkout's src/: once for the training rows and once for the evaluation
rows, so that neither part's heap decides the other's page faults, and both
checkouts are measured by the same code. Page faults are counted with
resource.getrusage, this process only. With --before, the rounds alternate
between that older checkout and the one this file sits in, which goes
first in even rounds, and rows are paired by layer, size and space; the
older checkout needs the evaluation API measured here, a row whose part
it lacks (the writers of score_and_save alone) is measured on this side
only, and one whose training has no PHASES (no clock) gets the evaluation
rows only. OUT.json gets, per side and row, the fastest and the median
round in microseconds per call, the median minor page faults per call
and, for an evaluation row, the median tracemalloc peak in KiB, the
minor page faults of each round's training and evaluation part, and the
environment. --quick runs 3 rounds of fewer calls, in under 30 s on a
2-core host with --before.
"""

import argparse
import collections
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
from pathlib import Path

import numpy as np

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
GRID = Path(__file__).resolve()
ROOT = GRID.parent.parent
PARTS = ("train", "eval")  # measured in this order, each in its own interpreter
SPEAKERS = (8, 32, 64)
VIEWS = 2
SPACES = ("projection", "encoder")
EVAL_LAYERS = ("trial_blocks", "score_trials", "roc_metrics", "score_and_save",
               "write_trial_files", "save_dataset", "load_dataset", "save_runlog", "evaluate")
DATASET_LAYERS = ("save_dataset", "load_dataset")  # sized in dataset rows, not trials
EVAL_SPEAKERS, EVAL_UTTERANCES, EVAL_HELD_OUT, TRIALS_PER_SPEAKER = 128, 20, 10, 400
RUNLOG_STEPS = 1000  # save_runlog's row is sized in steps
# (warm-up, timed) steps of a training run, and (warm-up, timed blocks, per
# block) calls of an evaluation row
CALLS = {"full": ((96, 480), (2, 5, 2)), "quick": ((96, 96), (1, 2, 1))}


def timed(fn, warmup: int, blocks: int, calls: int):
    """(seconds per call, minor page faults per call) of fn: the fastest of
    blocks timed blocks of calls calls each, after warmup untimed calls,
    and the faults of all timed calls. Taking the fastest block keeps a
    moment of contention on a shared host out of the row."""
    for _ in range(warmup):
        fn()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fastest = float("inf")
    for _ in range(blocks):
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        fastest = min(fastest, time.perf_counter() - started)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return fastest / calls, faults / (blocks * calls)


def traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of one call of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def train_rows(calls):
    """[(layer, N, space, seconds, faults)] of one train call per (N, space):
    each phase's mean seconds per step over the steps after the warm-up,
    then the mean of those steps, all with the call's faults per step. A
    package whose training has no PHASES keeps no clock and gives none."""
    from aamsupcon import training
    from aamsupcon.batching import batch_layout
    from aamsupcon.synthdata import DatasetSpec, generate

    if not hasattr(training, "PHASES"):
        return []
    warmup, steps = calls
    data, speaker_ids, _ = generate(DatasetSpec(64, 20, 40, 0.2, 7))
    out = []
    for space in SPACES:
        for speakers in SPEAKERS:
            config = training.TrainConfig(steps=warmup + steps, batch_speakers=speakers,
                                          views_per_speaker=VIEWS, classifier_space=space)
            logs = []
            _, faults = timed(
                lambda: logs.append(training.train(config, data, speaker_ids)[1]), 0, 1, 1)
            timed_steps = logs[0].clock[warmup:] / 1e9
            n, faults = batch_layout(speakers, VIEWS).size, faults / config.steps
            out += [(f"train.{phase}", n, space, s, faults)
                    for phase, s in zip(training.PHASES, timed_steps.mean(axis=0).tolist())]
            out.append(("train", n, space, float(timed_steps.sum(axis=1).mean()), faults))
    return out


def eval_rows(calls):
    """[(layer, size, space, seconds, faults, peak bytes)] of the
    evaluation's parts; the size is the number of trials, of dataset rows
    for the DATASET_LAYERS, or of steps for save_runlog. A package without
    evaluate._trial_texts, the writers of score_and_save, gives no
    write_trial_files row."""
    from aamsupcon import cli, evaluate, training
    from aamsupcon.errors import write_files
    from aamsupcon.model import init_params, save_checkpoint
    from aamsupcon.synthdata import (DatasetSpec, generate, load_dataset, save_dataset,
                                     split_holdout)

    spec = DatasetSpec(EVAL_SPEAKERS, EVAL_UTTERANCES, 40, 0.2, 7)
    data, ids, _ = generate(spec)
    held = split_holdout(ids, EVAL_HELD_OUT)[1]
    features, speaker_ids = data[held], ids[held]
    params = init_params([40, 64, 64], 128, 128, EVAL_SPEAKERS, seed=0)
    count, blocks = evaluate.trial_blocks(speaker_ids, TRIALS_PER_SPEAKER, seed=1)
    blocks = list(blocks)
    scored = evaluate.score_trials(params, features, (count, iter(blocks)))
    ends = np.cumsum([len(block[0]) for block in blocks]).tolist()
    scored_blocks = [(*block, scored.scores[end - len(block[0]):end])
                     for block, end in zip(blocks, ends)]
    rng = np.random.default_rng(0)
    # save_runlog reads a log's records alone
    log = types.SimpleNamespace(records=np.rec.fromarrays(
        [rng.uniform(0.0, 10.0, RUNLOG_STEPS), rng.uniform(0.0, 100.0, RUNLOG_STEPS),
         np.zeros(RUNLOG_STEPS)], names="loss,grad_norm,wall_time"))
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_dataset(tmp / "evaluated.txt", spec, data, ids)
        save_checkpoint(tmp / "checkpoint.bin", params)
        (tmp / "config.ini").write_text(
            f"[dataset]\nnum_speakers = {EVAL_SPEAKERS}\n"
            f"utterances_per_speaker = {EVAL_UTTERANCES}\nholdout_per_speaker = {EVAL_HELD_OUT}\n"
            f"[eval]\ntrials_per_speaker = {TRIALS_PER_SPEAKER}\nseed = 1\n")
        argv = ["evaluate", "--config", str(tmp / "config.ini"),
                "--data", str(tmp / "evaluated.txt"), "--checkpoint", str(tmp / "checkpoint.bin"),
                "--out", str(tmp / "eval")]

        def evaluate_command():
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0

        parts = (lambda: collections.deque(
                     evaluate.trial_blocks(speaker_ids, TRIALS_PER_SPEAKER, seed=1)[1], maxlen=0),
                 lambda: evaluate.score_trials(params, features, (count, iter(blocks))),
                 lambda: evaluate.roc_metrics(scored),
                 lambda: evaluate.score_and_save(params, features, (count, iter(blocks)),
                                                 "projection", tmp / "trials.txt",
                                                 tmp / "scores.txt"),
                 lambda: write_files([(tmp / "trials.txt", "trials"),
                                      (tmp / "scores.txt", "scores")],
                                     evaluate._trial_texts(iter(scored_blocks))),
                 lambda: save_dataset(tmp / "dataset.txt", spec, data, ids),
                 lambda: load_dataset(tmp / "evaluated.txt"),
                 lambda: training.save_runlog(tmp / "runlog.txt", log),
                 evaluate_command)
        for layer, fn in zip(EVAL_LAYERS, parts):
            if layer == "write_trial_files" and not hasattr(evaluate, "_trial_texts"):
                continue
            size = (len(data) if layer in DATASET_LAYERS
                    else RUNLOG_STEPS if layer == "save_runlog" else count)
            out.append((layer, size, "projection", *timed(fn, *calls), traced_peak(fn)))
    return out


def measure(src: str, mode: str, part: str) -> dict:
    """One part of a round, from the package in src: the rows of train_rows
    or eval_rows, and the minor page faults of the whole part."""
    sys.path.insert(0, src)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train_calls, eval_calls = CALLS[mode]
    rows = train_rows(train_calls) if part == "train" else eval_rows(eval_calls)
    return {"rows": [list(row) for row in rows],
            "minflt": resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults}


def run_round(checkout: Path, mode: str) -> dict:
    """One round of checkout: each of PARTS measured by this file in a fresh
    interpreter, with single-threaded BLAS, against checkout's src/. Its
    rows, and the minor page faults of each part."""
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    rows, faults = [], {}
    for part in PARTS:
        done = subprocess.run([sys.executable, str(GRID), "--measure", str(checkout / "src"),
                               "--part", part, "--mode", mode],
                              env=env, capture_output=True, text=True, check=True)
        measured = json.loads(done.stdout)
        rows += measured["rows"]
        faults[part] = measured["minflt"]
    return {"rows": rows, "minflt": faults}


def summarize(times: dict) -> list:
    """One record per row of the after side: fastest and median round of
    each side that has the row (the same layer, size and space), in us per
    call, the median minor page faults per call and, where the row has
    one, the median tracemalloc peak in KiB."""
    keyed = {side: [{tuple(row[:3]): row[3:] for row in r["rows"]} for r in rounds]
             for side, rounds in times.items()}
    records = []
    for key in keyed["after"][0]:
        record = dict(zip(("layer", "size", "space"), key))
        for side, rounds in keyed.items():
            if key not in rounds[0]:
                continue
            seconds, faults, *peak = zip(*(r[key] for r in rounds))
            record[f"{side}_best_us"] = round(min(seconds) * 1e6, 1)
            record[f"{side}_median_us"] = round(statistics.median(seconds) * 1e6, 1)
            record[f"{side}_minflt_per_call"] = round(statistics.median(faults), 2)
            if peak:
                record[f"{side}_peak_kib"] = round(statistics.median(peak[0]) / 1024, 1)
        if "before_best_us" in record:
            record["after_over_before_best"] = round(
                record["after_best_us"] / record["before_best_us"], 3)
            if "after_peak_kib" in record:
                record["after_over_before_peak"] = round(
                    record["after_peak_kib"] / record["before_peak_kib"], 3)
        records.append(record)
    return records


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="the JSON file to write")
    parser.add_argument("--before", type=Path, help="an older checkout to time as well")
    parser.add_argument("--rounds", type=int, help="rounds per side (default 7, 3 with --quick)")
    parser.add_argument("--quick", action="store_true", help="3 rounds of fewer calls")
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=sorted(CALLS), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--part", choices=PARTS, default="train", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure, args.mode, args.part)))
        return 0
    mode = "quick" if args.quick else "full"
    rounds = args.rounds if args.rounds is not None else 3 if args.quick else 7
    if args.out is None or rounds < 1:
        parser.error("give OUT.json and --rounds >= 1")
    sides = {"after": ROOT} if args.before is None else {"before": args.before.resolve(),
                                                        "after": ROOT}
    times = {side: [] for side in sides}
    for r in range(rounds):
        for side in sorted(sides, reverse=r % 2 == 1):
            times[side].append(run_round(sides[side], mode))
    record = {
        "what": "microseconds per call or training step of each layer (a training row's mean "
                "timed step, an evaluation row's fastest block of a round), fastest and median "
                "of the rounds, and minor page faults per call (median of the rounds); for "
                "evaluation rows, the tracemalloc peak of one untimed call in KiB (median of "
                "the rounds)",
        "rounds": rounds, "mode": mode,
        "calls": {"training_warmup_timed_steps": CALLS[mode][0],
                  "evaluation_warmup_blocks_calls": CALLS[mode][1]},
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "machine": platform.machine(), "nproc": os.cpu_count(),
                "blas_threads": 1},
        "round_minflt": {side: {part: [r["minflt"][part] for r in rs] for part in PARTS}
                         for side, rs in times.items()},
        "rows": summarize(times),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for row in record["rows"]:
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
