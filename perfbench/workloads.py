"""The benchmark's workloads. Each one writes its config in set-up from the
workload seed (and, where the timed commands need them, its dataset and
checkpoint), names the CLI commands of one timed pass, and checks what a pass
wrote. Every config starts from the shipped configs/quickstart.ini, so all
three train the quickstart model.
"""

import configparser
import json
import shutil
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIG = ROOT / "configs" / "quickstart.ini"

# Acceptance criterion 5 of the test suite: held-out EER of the quickstart run.
QUICKSTART_EER_GATE_PERCENT = 5.0


def derived_seeds(seed: int, count: int) -> list:
    """count independent seeds in [0, 2**31) drawn from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count) % 2**31]


class Workload:
    name = ""
    train_command = None     # command timed for train_rows_per_s, if any
    eval_command = None      # command timed for eval_trials_per_s, if any

    def __init__(self, seed: int):
        self.seed = seed
        self.config = None
        self.config_path = None

    def overrides(self):
        """{section: {key: value}} applied to the shipped config, or None to
        use the shipped file byte for byte."""
        return None

    def write_config(self, setup_dir: Path) -> None:
        self.config = configparser.ConfigParser(interpolation=None)
        with open(SHIPPED_CONFIG, encoding="utf-8") as fh:
            self.config.read_file(fh)
        self.config_path = setup_dir / "config.ini"
        overrides = self.overrides()
        if overrides is None:
            shutil.copyfile(SHIPPED_CONFIG, self.config_path)
            return
        for section, values in overrides.items():
            for key, value in values.items():
                self.config[section][key] = str(value)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            self.config.write(fh)

    def get(self, section, key, cast=int):
        return cast(self.config[section][key])

    @property
    def steps(self) -> int:
        return self.get("training", "steps")

    def rows_of(self, batch_speakers: int) -> int:
        return 2 * batch_speakers * self.get("training", "views_per_speaker")

    def setup_commands(self, setup_dir: Path) -> list:
        """CLI argument lists run in set-up, after the config is written."""
        return []

    def pass_commands(self, setup_dir: Path, out: Path) -> list:
        """(command, argv) pairs of one timed pass writing under out."""
        raise NotImplementedError

    def rows_per_train_call(self) -> list:
        """Batch rows of each training.train call a pass makes, in order."""
        return []

    def check(self, out: Path) -> list:
        """Problems with a pass's outputs beyond exit codes and checksums."""
        return []

    def eer_percent(self, out: Path) -> float:
        return _read_json(out / "eval" / "metrics.json")["eer_percent"]

    def trials(self, out: Path) -> int:
        return _read_json(out / "eval" / "metrics.json")["num_trials"]

    def dataset_path(self, setup_dir: Path, out: Path) -> Path:
        return setup_dir / "data" / "dataset.txt"


def _read_json(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


class Quickstart(Workload):
    """generate -> train -> evaluate with configs/quickstart.ini as shipped.
    The shipped dataset (dataset.seed) is kept, because the 5% EER gate is
    set for it; the workload seed draws the training and trial seeds."""

    name = "quickstart"
    train_command = "train"
    eval_command = "evaluate"

    def __init__(self, seed):
        super().__init__(seed)
        self.train_seed, self.trial_seed = derived_seeds(seed, 2)

    def pass_commands(self, setup_dir, out):
        cfg, data = str(self.config_path), str(out / "data" / "dataset.txt")
        return [
            ("generate", ["generate", "--config", cfg, "--out", str(out / "data")]),
            ("train", ["train", "--config", cfg, "--data", data, "--out", str(out / "run"),
                       "--seed", str(self.train_seed)]),
            ("evaluate", ["evaluate", "--config", cfg, "--data", data,
                          "--checkpoint", str(out / "run" / "checkpoint.bin"),
                          "--out", str(out / "eval"), "--seed", str(self.trial_seed)]),
        ]

    def rows_per_train_call(self):
        return [self.rows_of(self.get("training", "batch_speakers"))]

    def check(self, out):
        eer = self.eer_percent(out)
        if not eer < QUICKSTART_EER_GATE_PERCENT:
            return [f"quickstart EER {eer}% is not under {QUICKSTART_EER_GATE_PERCENT}%"]
        return []

    def dataset_path(self, setup_dir, out):
        return out / "data" / "dataset.txt"


class SweepWide(Workload):
    """sweep-batch at N = 64, 128 and 256 rows on a 64-speaker dataset made
    in set-up; the O(N^2) contrastive path grows with N."""

    name = "sweep-wide"
    train_command = "sweep-batch"
    sizes = (16, 32, 64)

    def overrides(self):
        data_seed, train_seed, trial_seed = derived_seeds(self.seed, 3)
        return {"dataset": {"num_speakers": 64, "seed": data_seed},
                "training": {"steps": 150, "seed": train_seed},
                "eval": {"seed": trial_seed}}

    def setup_commands(self, setup_dir):
        return [["generate", "--config", str(self.config_path),
                 "--out", str(setup_dir / "data")]]

    def pass_commands(self, setup_dir, out):
        return [("sweep-batch", ["sweep-batch", "--config", str(self.config_path),
                                 "--data", str(setup_dir / "data" / "dataset.txt"),
                                 "--out", str(out / "sweep"),
                                 "--sizes", *map(str, self.sizes)])]

    def rows_per_train_call(self):
        return [self.rows_of(size) for size in self.sizes]

    def check(self, out):
        rows = _read_json(out / "sweep" / "sweep.json")["rows"]
        got = [row["batch_size"] for row in rows]
        if got != self.rows_per_train_call():
            return [f"sweep rows have batch sizes {got}"]
        return []

    def eer_percent(self, out):
        return _read_json(out / "sweep" / "sweep.json")["rows"][-1]["eer_percent"]


class VerifyLarge(Workload):
    """evaluate only, on 128 speakers x 10 held-out utterances and 102400
    trials; the dataset and a 300-step checkpoint are made in set-up."""

    name = "verify-large"
    eval_command = "evaluate"
    speakers, held_out, trials_per_speaker = 128, 10, 400

    def overrides(self):
        data_seed, train_seed, trial_seed = derived_seeds(self.seed, 3)
        return {"dataset": {"num_speakers": self.speakers, "utterances_per_speaker": 20,
                            "holdout_per_speaker": self.held_out, "seed": data_seed},
                "training": {"steps": 300, "seed": train_seed},
                "eval": {"trials_per_speaker": self.trials_per_speaker, "seed": trial_seed}}

    def setup_commands(self, setup_dir):
        cfg, data = str(self.config_path), str(setup_dir / "data" / "dataset.txt")
        return [["generate", "--config", cfg, "--out", str(setup_dir / "data")],
                ["train", "--config", cfg, "--data", data, "--out", str(setup_dir / "run")]]

    def pass_commands(self, setup_dir, out):
        return [("evaluate", ["evaluate", "--config", str(self.config_path),
                              "--data", str(setup_dir / "data" / "dataset.txt"),
                              "--checkpoint", str(setup_dir / "run" / "checkpoint.bin"),
                              "--out", str(out / "eval")])]

    def check(self, out):
        metrics = _read_json(out / "eval" / "metrics.json")
        expected = (2 * self.speakers * self.trials_per_speaker, self.speakers * self.held_out)
        got = (metrics["num_trials"], metrics["evaluated_samples"])
        return [] if got == expected else [f"(trials, samples) {got} != {expected}"]


WORKLOADS = {w.name: w for w in (Quickstart, SweepWide, VerifyLarge)}
