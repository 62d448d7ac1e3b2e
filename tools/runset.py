"""The byte-identity run set: CLI runs whose artifacts a refactor must leave
unchanged, bit for bit.

    python3 tools/runset.py OUT

Runs 23 commands of the aamsupcon CLI in one process, from the src/ of the
checkout this file sits in, with single-threaded BLAS, writing under OUT
(created; it must not exist yet). Every path is relative to OUT, so the
printout does not depend on where OUT is. Prints each command with its exit
code and stdout, then the sha256 of every artifact in a sorted listing,
then the sha256 of that listing. Run it on two checkouts (copy it into the
older one if it predates this file) and compare the printouts.

The runs: the quickstart generate, train and evaluate, also with --seed;
300-step trains of supcon, arcface, softmax (with mask_max = 3), strict
negatives, lambda = 0, the encoder classifier space (also with lambda = 0
and with softmax), 3 views of 5 speakers and learning_rate = 0, and the
encoder-space evaluation; sweep-batch over 16, 32 and 64 of 64 speakers;
gradcheck; 128 speakers with 10 held out each; generate on an empty config.
"""

import configparser
import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIG = ROOT / "configs" / "quickstart.ini"

# config name -> {section: {key: value}} set over configs/quickstart.ini;
# "empty" is an empty file
_TRAIN_300 = {"steps": 300}
CONFIGS = {
    "quick": {},
    "strict": {"training": {**_TRAIN_300, "convention": "strict_negatives"}},
    "supcon": {"training": {**_TRAIN_300, "loss": "supcon"}},
    "softmax": {"training": {**_TRAIN_300, "loss": "softmax"}, "augment": {"mask_max": 3}},
    "arcface": {"training": {**_TRAIN_300, "loss": "arcface"}},
    "enc": {"training": {**_TRAIN_300, "classifier_space": "encoder"},
            "eval": {"space": "encoder"}},
    "enc_lam0": {"training": {**_TRAIN_300, "classifier_space": "encoder", "lambda": 0}},
    "enc_softmax": {"training": {**_TRAIN_300, "classifier_space": "encoder",
                                 "loss": "softmax"}},
    "lam0": {"training": {**_TRAIN_300, "lambda": 0}},
    "v3b5": {"training": {**_TRAIN_300, "views_per_speaker": 3, "batch_speakers": 5}},
    "lr0": {"training": {**_TRAIN_300, "learning_rate": 0}},
    "wide": {"dataset": {"num_speakers": 64}, "training": {"steps": 150}},
    "large": {"dataset": {"num_speakers": 128, "holdout_per_speaker": 10},
              "training": _TRAIN_300, "eval": {"trials_per_speaker": 400}},
    "empty": None,
}


def _train(out, config, data="gen", extra=()):
    return (out, ["train", "--config", f"config/{config}.ini",
                  "--data", f"{data}/dataset.txt", *extra])


def _evaluate(out, config, run, data="gen", extra=()):
    return (out, ["evaluate", "--config", f"config/{config}.ini",
                  "--data", f"{data}/dataset.txt",
                  "--checkpoint", f"{run}/checkpoint.bin", *extra])


# (output directory, argv without --out), run in this order
COMMANDS = [
    ("gen", ["generate", "--config", "config/quick.ini"]),
    _train("train", "quick"),
    _evaluate("eval", "quick", "train"),
    _train("train_s5", "quick", extra=["--seed", "5"]),
    _evaluate("eval_s9", "quick", "train", extra=["--seed", "9"]),
    *[_train(f"train_{name}", name) for name in
      ("strict", "supcon", "softmax", "arcface", "enc", "enc_lam0", "enc_softmax",
       "lam0", "v3b5", "lr0")],
    _evaluate("eval_enc", "enc", "train_enc"),
    ("wide_gen", ["generate", "--config", "config/wide.ini"]),
    ("sweep", ["sweep-batch", "--config", "config/wide.ini",
               "--data", "wide_gen/dataset.txt", "--sizes", "16", "32", "64"]),
    ("gc", ["gradcheck", "--config", "config/quick.ini"]),
    ("large_gen", ["generate", "--config", "config/large.ini"]),
    _train("large_train", "large", data="large_gen"),
    _evaluate("large_eval", "large", "large_train", data="large_gen"),
    ("empty_gen", ["generate", "--config", "config/empty.ini"]),
]


def write_configs(config_dir: Path) -> None:
    config_dir.mkdir()
    for name, overrides in CONFIGS.items():
        path = config_dir / f"{name}.ini"
        if overrides is None:
            path.write_text("")
            continue
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(SHIPPED_CONFIG, encoding="utf-8")
        for section, values in overrides.items():
            for key, value in values.items():
                parser[section][key] = str(value)
        with open(path, "w", encoding="utf-8") as fh:
            parser.write(fh)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(out: Path) -> int:
    """Run every command under out and print the record; 1 if a command
    did not exit 0, else 0. Imports the package from ROOT/src, so call it
    after BLAS is pinned to one thread and before numpy is imported."""
    sys.path.insert(0, str(ROOT / "src"))
    from aamsupcon.cli import main

    out.mkdir(parents=True)
    os.chdir(out)
    write_configs(Path("config"))
    failed = 0
    for out_dir, argv in COMMANDS:
        argv = [*argv, "--out", out_dir]
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = main(argv)
        failed += code != 0
        print(f"$ aamsupcon {' '.join(argv)}  [exit {code}]")
        print(printed.getvalue(), end="")
    # the format of `find . -type f | sort | xargs sha256sum`, config/ left out
    files = sorted(f"./{path.as_posix()}" for out_dir, _ in COMMANDS
                   for path in Path(out_dir).rglob("*") if path.is_file())
    listing = "".join(f"{sha256(Path(path))}  {path}\n" for path in files)
    print(listing, end="")
    print(f"listing sha256 {hashlib.sha256(listing.encode()).hexdigest()} "
          f"({listing.count(chr(10))} files, {len(COMMANDS)} commands, {failed} failed)")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    if os.path.exists(sys.argv[1]):
        sys.exit(f"{sys.argv[1]} exists; runset.py writes into a new directory")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(run(Path(sys.argv[1]).resolve()))
