"""Batch-draw timing: the time one training step spends drawing its batch.

    python3 tools/batchbench.py OUT.json [--before CHECKOUT] [--rounds R]

For N = 32, 128 and 256 rows (8, 32 and 64 speakers, 2 views each, drawn
from a 64-speaker, 20-utterance, 40-dimensional generated dataset with the
quickstart augmentation), times the call train makes once per step:
BatchSampler.draw where the package has it, else build_batch. Each round
runs in a fresh interpreter importing the package from a checkout's src/,
with single-threaded BLAS, and times 200 draws per N in-process with
perf_counter after 20 untimed ones. With --before, the rounds alternate
between that older checkout and the one this file sits in, which goes
first in even rounds. OUT.json gets the fastest and the median round per
side and N, in microseconds per draw, and the environment.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SPEAKERS = (8, 32, 64)
VIEWS = 2
DRAWS, WARMUP = 200, 20


def measure(src: str) -> dict:
    """{N: seconds per draw} for each of SPEAKERS, from the package in src."""
    sys.path.insert(0, src)
    from aamsupcon import batching
    from aamsupcon.synthdata import DatasetSpec, generate

    features, speaker_ids, _ = generate(DatasetSpec(64, 20, 40, 0.2, 7))
    rows = batching.speaker_rows(batching.group_by_speaker(speaker_ids)[1])
    policy = batching.AugmentPolicy(0.1, None)
    out = {}
    for speakers in SPEAKERS:
        rng = np.random.default_rng(speakers)
        if hasattr(batching, "BatchSampler"):
            draw = batching.BatchSampler(features, rows, speakers, VIEWS, policy).draw
        else:
            def draw(rng, speakers=speakers):
                return batching.build_batch(features, rows, speakers, VIEWS, policy, rng)
        for _ in range(WARMUP):
            draw(rng)
        started = time.perf_counter()
        for _ in range(DRAWS):
            draw(rng)
        out[2 * speakers * VIEWS] = (time.perf_counter() - started) / DRAWS
    return out


def run_round(checkout: Path) -> dict:
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "1")}
    done = subprocess.run([sys.executable, __file__, "--measure", str(checkout / "src")],
                          env=env, capture_output=True, text=True, check=True)
    return {int(n): seconds for n, seconds in json.loads(done.stdout).items()}


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="the JSON file to write")
    parser.add_argument("--before", type=Path, help="an older checkout to time as well")
    parser.add_argument("--rounds", type=int, default=7)
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if args.out is None or args.rounds < 1:
        parser.error("give OUT.json and --rounds >= 1")
    sides = {"after": ROOT} if args.before is None else {"before": args.before.resolve(),
                                                        "after": ROOT}
    times = {side: [] for side in sides}
    for r in range(args.rounds):
        for side in (sorted(sides, reverse=r % 2 == 1)):
            times[side].append(run_round(sides[side]))
    rows = []
    for n in (2 * speakers * VIEWS for speakers in SPEAKERS):
        row = {"layer": "batch draw", "rows": n}
        for side, rounds in times.items():
            per_draw = [r[n] * 1e6 for r in rounds]
            row[f"{side}_best_us"] = round(min(per_draw), 1)
            row[f"{side}_median_us"] = round(statistics.median(per_draw), 1)
        if "before" in times:
            row["after_over_before_best"] = round(row["after_best_us"] / row["before_best_us"], 3)
        rows.append(row)
    record = {
        "what": "microseconds per batch draw, fastest and median of the rounds",
        "rounds": args.rounds, "draws_per_round": DRAWS,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "machine": platform.machine(), "nproc": os.cpu_count(),
                "blas_threads": 1},
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    for row in rows:
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
