"""Command-line entry point.

Subcommands: generate, train, evaluate, gradcheck, sweep-batch. Every run
reads one INI-style config file (flat key = value lines under per-module
sections), writes its artifacts plus a manifest.json into --out, and is
bit-reproducible under a fixed config and seed.

Exit codes: 0 success; otherwise the exit code of the error's kind: 1
usage or config error (ConfigError; also out of memory, or a sweep-batch
worker process that dies); 2 numerical failure (NumericalError:
divergence, gradient tolerance, degenerate trials); 3 I/O failure
(IoError).
"""

import argparse
import configparser
import contextlib
import enum
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .errors import (AamSupConError, ConfigError, IoError, NumericalError, check_domains,
                     check_in, file_sha256, read_file, write_file)
from .evaluate import DcfParams, roc_metrics, score_and_save, score_trials, trial_blocks
from .batching import batch_layout, group_by_speaker
from .geometry import normalize_rows
from .losses import LossInputs, LossKind, grad_check
from .model import SPACES, load_checkpoint, param_layout, save_checkpoint
from .synthdata import DatasetSpec, generate, load_dataset, save_dataset, split_holdout
from .training import PHASES, TrainConfig, end_to_end_grad_check, save_runlog, train

# Published full-scale reference point quoted in sweep reports.
SWEEP_FOOTER = ("full-scale anchor (not reproducible at this scale): "
                "batch 128 -> EER 13.64%, minDCF 0.71")


@dataclass(frozen=True)
class _Holdout:
    """dataset.holdout_per_speaker: the last k utterances of every speaker
    are kept out of training and evaluated (k = 0 evaluates every row)."""

    holdout_per_speaker: int = field(default=0, metadata={"domain": "[0, inf)"})

    def __post_init__(self):
        check_domains(self, "dataset")


@dataclass(frozen=True)
class _Trials:
    """The [eval] keys that build and score the trial list."""

    trials_per_speaker: int = field(default=40, metadata={"domain": "[1, inf)"})
    seed: int = field(default=100, metadata={"domain": "[0, inf)"})
    space: str = field(default="projection", metadata={"domain": SPACES})

    def __post_init__(self):
        check_domains(self, "eval")


@dataclass(frozen=True)
class _GradCheck:
    """The [gradcheck] section."""

    seed: int = field(default=0, metadata={"domain": "[0, inf)"})
    # From 1e-2 up the truncation error of the central difference alone
    # exceeds every tolerance on the gradcheck batches.
    step: float = field(default=1e-6, metadata={"domain": "(0, 1e-2)"})
    tolerance: float = field(default=1e-5, metadata={"domain": "(0, inf)"})
    e2e_tolerance: float = field(default=1e-4, metadata={"domain": "(0, inf)"})

    def __post_init__(self):
        check_domains(self, "gradcheck")


# Every config key is one field of one of these classes. Its key is
# <section>.<field>, unless the field's metadata names another key.
_SECTIONS = (("dataset", DatasetSpec), ("dataset", _Holdout), ("training", TrainConfig),
             ("eval", DcfParams), ("eval", _Trials), ("gradcheck", _GradCheck))
# key -> (class, field)
_KEYS = {f.metadata.get("key", f"{section}.{f.name}"): (cls, f)
         for section, cls in _SECTIONS for f in fields(cls)}


def _int64(value: int) -> int:
    """value, refused outside the int64 range that numpy sizes and seeds take."""
    if not -2**63 <= value < 2**63:
        raise ValueError(f"{value} is outside the int64 range")
    return value


def _parse(key, raw, kind):
    """raw as a value of the field type kind."""
    try:
        if kind == int | None:
            return None if raw.strip() == "" else _int64(int(raw))
        if kind == tuple[int, ...]:
            if not raw.split():
                raise ValueError("empty list")
            return tuple(_int64(int(tok)) for tok in raw.split())
        if kind is int:
            return _int64(int(raw))
        # an enum value is resolved, or refused, by check_domains
        return raw if isinstance(kind, enum.EnumMeta) else kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from exc


def _echo(value):
    """value as the config echo of a manifest writes it."""
    if isinstance(value, enum.Enum):
        return value.value
    return list(value) if isinstance(value, tuple) else value


def load_config(path):
    """Read, parse, default and check every key of a config file.

    Unknown sections or keys, unparsable values and values outside their
    domain are ConfigErrors naming the key. Returns ({class: checked
    instance} for every class of _SECTIONS, the config echo {section: {key:
    value}} with the defaults filled in)."""
    text = read_file(path, "config", "utf-8")
    # no header names "\n": [DEFAULT] is an unknown section, not spread over all
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    values = {cls: {} for _, cls in _SECTIONS}
    for sect in parser.sections():
        if not any(key.startswith(f"{sect}.") for key in _KEYS):
            raise ConfigError(f"unknown config section [{sect}]")
        for name, raw in parser.items(sect):
            key = f"{sect}.{name}"
            if key not in _KEYS:
                raise ConfigError(f"unknown config key {key}")
            cls, f = _KEYS[key]
            values[cls][f.name] = _parse(key, raw, f.type)
    config = {cls: cls(**values[cls]) for _, cls in _SECTIONS}  # each checks itself
    echo = {}
    for key, (cls, f) in _KEYS.items():
        sect, name = key.split(".")
        echo.setdefault(sect, {})[name] = _echo(getattr(config[cls], f.name))
    return config, echo


def _seeded(obj, seed):
    """obj with --seed, when given, as its seed."""
    if seed is None:
        return obj
    if not 0 <= seed < 2**63:
        raise ConfigError(f"--seed must be in [0, 2**63), got {seed}")
    return replace(obj, seed=seed)


def _check_bytes(keys: str, items: int) -> None:
    """Refuse, naming keys, an array of items 8-byte values past numpy's limit
    of 2**63 - 1 bytes before numpy is asked for it: a size product past it
    can wrap in int64 first, and np.repeat then writes out of bounds."""
    if 8 * items >= 2**63:
        raise ConfigError(f"{keys}: an array of {items} 8-byte values exceeds numpy's "
                          "limit of 2**63 - 1 bytes")


def _check_data_fit(cfg: TrainConfig, features, speaker_ids, sizes=None) -> None:
    """Check the keys whose valid range depends on the training rows, and
    the --sizes of a sweep in place of training.batch_speakers."""
    # the widest array a run allocates per step is its clock, one int64 per phase
    _check_bytes("training.steps", len(PHASES) * cfg.steps)
    d_in = features.shape[1]
    if cfg.mask_max is not None:
        check_in(cfg.mask_max, f"[0, {d_in}]", "augment.mask_max")
    _, groups = group_by_speaker(speaker_ids)
    layout = param_layout([d_in, *cfg.encoder_hidden], cfg.proj_hidden, cfg.embedding_dim,
                          len(groups), cfg.class_dim())
    _check_bytes("model.encoder_hidden, model.proj_hidden and model.embedding_dim",
                 sum(math.prod(shape) for _, shape in layout))
    eligible = sum(len(rows) >= cfg.views_per_speaker for rows in groups)
    fit = (f"speakers with training.views_per_speaker = {cfg.views_per_speaker} "
           f"or more training utterances; the data has {eligible}")
    if sizes is None and eligible < cfg.batch_speakers:
        raise ConfigError(f"training.batch_speakers = {cfg.batch_speakers} needs that many {fit}")
    least = cfg.least_batch_speakers()
    for size in sizes or ():
        if not least <= size <= eligible:
            floor = "2 under training.convention = strict_negatives" if least == 2 else "1"
            raise ConfigError(f"--sizes {size}: each size must be in [{least}, {eligible}], "
                              f"at least {floor} and at most the number of {fit}")


def _write_json(path, payload) -> None:
    write_file(path, json.dumps(payload, sort_keys=True, indent=2) + "\n", "JSON")


def _write_manifest(out_dir, command, config, seed_override, inputs, outputs,
                    metrics=None) -> str:
    """One manifest per run: config echo, basenames of inputs/outputs,
    sha256 of every output artifact, and metric results. No timestamps, so
    reruns with equal config and seed are byte-identical."""
    manifest = {
        "command": command,
        "config": config,
        "seed_override": seed_override,
        "inputs": {name: os.path.basename(str(p)) for name, p in inputs.items()},
        "outputs": {name: os.path.basename(str(p)) for name, p in outputs.items()},
        "checksums": {os.path.basename(str(p)): file_sha256(p, "output")
                      for p in outputs.values()},
        "metrics": metrics,
    }
    path = os.path.join(out_dir, "manifest.json")
    _write_json(path, manifest)
    return path


def _ensure_out(out_dir) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out_dir}: {exc}") from exc


def cmd_generate(args) -> int:
    config, echo = load_config(args.config)
    spec = _seeded(config[DatasetSpec], args.seed)
    _check_bytes("dataset.num_speakers x dataset.utterances_per_speaker x dataset.d_in",
                 spec.num_speakers * spec.utterances_per_speaker * spec.d_in)
    features, speaker_ids, _ = generate(spec)
    _ensure_out(args.out)
    dataset_path = os.path.join(args.out, "dataset.txt")
    save_dataset(dataset_path, spec, features, speaker_ids)
    _write_manifest(args.out, "generate", echo, args.seed, {},
                    {"dataset": dataset_path})
    print(f"wrote {dataset_path}: {len(speaker_ids)} samples, "
          f"{spec.num_speakers} speakers, d_in={spec.d_in}")
    return 0


def _load_split(config, data_path):
    """((features, speaker_ids) to train on, (features, speaker_ids) to
    evaluate): the held-out rows are evaluated, or every row when nothing
    is held out."""
    _, features, speaker_ids = load_dataset(data_path)
    try:
        train_rows, held_rows = split_holdout(
            speaker_ids, config[_Holdout].holdout_per_speaker)
    except ConfigError as exc:
        raise ConfigError(f"dataset.holdout_per_speaker: {exc}") from exc
    eval_rows = held_rows if held_rows.size else train_rows
    return ((features[train_rows], speaker_ids[train_rows]),
            (features[eval_rows], speaker_ids[eval_rows]))


def _trial_blocks(config, speaker_ids, trial_spec):
    """The (count, blocks) of evaluate.trial_blocks over the evaluated rows
    of _load_split, checked before any block is drawn."""
    if config[_Holdout].holdout_per_speaker == 1:
        raise ConfigError("dataset.holdout_per_speaker = 1 leaves one evaluated "
                          "utterance per speaker, so no target trial; evaluating "
                          "needs 0 or >= 2")
    count, blocks = trial_blocks(speaker_ids, trial_spec.trials_per_speaker, trial_spec.seed)
    _check_bytes("eval.trials_per_speaker", count)
    return count, blocks


def cmd_train(args) -> int:
    config, echo = load_config(args.config)
    cfg = _seeded(config[TrainConfig], args.seed)
    train_set = _load_split(config, args.data)[0]
    _check_data_fit(cfg, *train_set)
    _ensure_out(args.out)
    params, log = train(cfg, *train_set)
    ckpt_path = os.path.join(args.out, "checkpoint.bin")
    runlog_path = os.path.join(args.out, "runlog.txt")
    save_checkpoint(ckpt_path, params)
    save_runlog(runlog_path, log)
    _write_manifest(args.out, "train", echo, args.seed, {"dataset": args.data},
                    {"checkpoint": ckpt_path, "runlog": runlog_path})
    loss = log.records.loss
    if loss.size:
        print(f"trained {cfg.steps} steps: loss {loss[0]:.6g} -> {loss[-1]:.6g}")
    else:
        print("trained 0 steps: checkpoint is the seeded initialization")
    print(f"wrote {ckpt_path}")
    return 0


def cmd_evaluate(args) -> int:
    config, echo = load_config(args.config)
    trial_spec = _seeded(config[_Trials], args.seed)
    dcf = config[DcfParams]
    params = load_checkpoint(args.checkpoint)
    features, speaker_ids = _load_split(config, args.data)[1]  # the evaluated rows only
    if features.shape[1] != params.d_in:
        raise ConfigError(f"checkpoint {args.checkpoint} takes d_in = {params.d_in}, "
                          f"but dataset {args.data} has d_in = {features.shape[1]}")
    trials = _trial_blocks(config, speaker_ids, trial_spec)
    _ensure_out(args.out)
    trials_path = os.path.join(args.out, "trials.txt")
    scores_path = os.path.join(args.out, "scores.txt")
    metrics_path = os.path.join(args.out, "metrics.json")
    outputs = {"trials": trials_path, "scores": scores_path, "metrics": metrics_path}
    try:
        scored = score_and_save(params, features, trials, trial_spec.space,
                                trials_path, scores_path)
        eer_value, eer_thr, dcf_value, dcf_thr = roc_metrics(scored, dcf)
        metrics = {
            "eer": eer_value,
            "eer_percent": 100.0 * eer_value,
            "threshold": eer_thr,
            "min_dcf": dcf_value,
            "min_dcf_threshold": dcf_thr,
            "num_target": int(np.sum(scored.is_target)),
            "num_nontarget": int(np.sum(~scored.is_target)),
            "num_trials": scored.scores.size,
            "evaluated_samples": len(speaker_ids),
        }
        _write_json(metrics_path, metrics)
        _write_manifest(args.out, "evaluate", echo, args.seed,
                        {"checkpoint": args.checkpoint, "dataset": args.data},
                        outputs, metrics)
    except BaseException:
        # the files are written before the scores are known to be usable, so
        # a failed evaluate removes them and leaves no partial artifact
        for path in (*outputs.values(), os.path.join(args.out, "manifest.json")):
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    print(f"EER = {metrics['eer_percent']:.3f}% (threshold {eer_thr:.4f})")
    print(f"minDCF(p_target={dcf.p_target}) = {dcf_value:.4f} "
          f"(threshold {dcf_thr:.4f})")
    print(f"{metrics['num_target']} target / {metrics['num_nontarget']} "
          f"non-target trials")
    return 0


def _gradcheck_batch(rng, n_per_class, num_classes, dim):
    labels = np.repeat(np.arange(num_classes), n_per_class)
    z = normalize_rows(rng.standard_normal((labels.size, dim)))
    w = normalize_rows(rng.standard_normal((num_classes, dim)))
    return LossInputs(z, labels, w)


def cmd_gradcheck(args) -> int:
    config, echo = load_config(args.config)
    g = _seeded(config[_GradCheck], args.seed)
    if args.out:
        _ensure_out(args.out)
    rng = np.random.default_rng(g.seed)
    rows = []
    for kind in LossKind:
        # np.max, unlike max, keeps a NaN error, which then fails the row
        worst = float(np.max([grad_check(kind, _gradcheck_batch(rng, *shape), step=g.step)
                              for shape in ((2, 2, 4), (4, 3, 8), (2, 5, 16))]))
        rows.append({"check": kind.value, "max_rel_error": worst,
                     "tolerance": g.tolerance, "passed": worst < g.tolerance})

    e2e_cfg = TrainConfig(loss_kind=LossKind.AAMSUPCON, encoder_hidden=(16,),
                          proj_hidden=16, embedding_dim=8, batch_speakers=3,
                          views_per_speaker=2, seed=g.seed)
    e2e_features, e2e_ids, _ = generate(DatasetSpec(4, 4, 10, 0.3, seed=g.seed + 1))
    e2e = end_to_end_grad_check(e2e_cfg, e2e_features, e2e_ids, step=g.step,
                                batch_seed=g.seed)
    rows.append({"check": "end_to_end", "max_rel_error": e2e,
                 "tolerance": g.e2e_tolerance, "passed": e2e < g.e2e_tolerance})

    for row in rows:
        print(f"{row['check']:12s} max rel error {row['max_rel_error']:.3e} "
              f"(tolerance {row['tolerance']:.0e}) "
              f"{'ok' if row['passed'] else 'FAIL'}")
    if args.out:
        report_path = os.path.join(args.out, "gradcheck.json")
        _write_json(report_path, {"rows": rows})
        _write_manifest(args.out, "gradcheck", echo, args.seed, {},
                        {"report": report_path})
    failed = [row["check"] for row in rows if not row["passed"]]
    if failed:
        raise NumericalError(f"gradient check failed for: {', '.join(failed)}")
    return 0


def _sweep_row(job, size):
    """The sweep-batch row of one --sizes entry: train at batch_speakers =
    size, then score the trials, drawn here from the evaluated speaker ids.
    Runs in a pool worker; job is (base TrainConfig, training set,
    evaluated features, evaluated speaker ids, _Trials, DcfParams), and only
    the row goes back."""
    base, train_set, eval_features, eval_ids, trial_spec, dcf = job
    cfg = replace(base, batch_speakers=size)
    params, _ = train(cfg, *train_set)
    trials = trial_blocks(eval_ids, trial_spec.trials_per_speaker, trial_spec.seed)
    scored = score_trials(params, eval_features, trials, trial_spec.space)
    eer_value, _, dcf_value, _ = roc_metrics(scored, dcf)
    return {"batch_speakers": size,
            "batch_size": batch_layout(size, cfg.views_per_speaker).size,
            "eer_percent": 100.0 * eer_value,
            "min_dcf": dcf_value}


def cmd_sweep_batch(args) -> int:
    # imported here: the other commands do not pay for them at start-up
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    config, echo = load_config(args.config)
    base = _seeded(config[TrainConfig], args.seed)
    train_set, (eval_features, eval_ids) = _load_split(config, args.data)
    _check_data_fit(base, *train_set, sizes=args.sizes)
    _trial_blocks(config, eval_ids, config[_Trials])  # its checks; each worker draws its own
    _ensure_out(args.out)

    # Each distinct size is one independent run with the bits of a run of its
    # own; the largest (slowest) go first so that the workers finish together.
    job = (base, train_set, eval_features, eval_ids, config[_Trials], config[DcfParams])
    sizes = sorted(set(args.sizes), reverse=True)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    with ProcessPoolExecutor(min(len(sizes), cpus or 1)) as pool:
        futures = {size: pool.submit(_sweep_row, job, size) for size in sizes}
        rows = []
        for size in args.sizes:  # the first failure in --sizes order is reported
            try:
                rows.append(futures[size].result())
            except BrokenProcessPool as exc:
                raise ConfigError(f"a sweep-batch worker process ended abruptly (killed, "
                                  f"or out of memory): {exc}") from None
            except Exception as exc:
                pool.shutdown(cancel_futures=True)
                exc.args = (f"--sizes {size}: {exc}",)
                raise

    print(f"{'speakers':>8s} {'batch':>6s} {'EER(%)':>8s} {'minDCF':>8s}")
    for row in rows:
        print(f"{row['batch_speakers']:8d} {row['batch_size']:6d} "
              f"{row['eer_percent']:8.2f} {row['min_dcf']:8.3f}")
    print(SWEEP_FOOTER)

    sweep_path = os.path.join(args.out, "sweep.json")
    _write_json(sweep_path, {"rows": rows, "footer": SWEEP_FOOTER,
                             "steps": base.steps, "seed": base.seed})
    _write_manifest(args.out, "sweep-batch", echo, args.seed,
                    {"dataset": args.data}, {"sweep": sweep_path},
                    {"rows": rows})
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="aamsupcon",
                     description="margin-contrastive embedding trainer and "
                                 "speaker-verification evaluator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=False, checkpoint=False, out_required=True):
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the command-relevant seed")
        if data:
            p.add_argument("--data", required=True, help="dataset file")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint file")
        if out_required:
            p.add_argument("--out", required=True, help="output directory")

    common(sub.add_parser("generate", help="write a synthetic dataset"))
    common(sub.add_parser("train", help="train a model"), data=True)
    common(sub.add_parser("evaluate", help="score trials and report EER/minDCF"),
           data=True, checkpoint=True)
    p = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    common(p, out_required=False)
    p.add_argument("--out", default=None, help="optional report directory")
    p = sub.add_parser("sweep-batch", help="train/evaluate across batch sizes")
    common(p, data=True)
    p.add_argument("--sizes", type=int, nargs="+", required=True,
                   help="batch sizes in speakers per batch")
    return parser


_HANDLERS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "gradcheck": cmd_gradcheck,
    "sweep-batch": cmd_sweep_batch,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _HANDLERS[args.command](args)
    except AamSupConError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:  # a size key too large for this host
        print(f"{ConfigError.label}: out of memory: {exc}", file=sys.stderr)
        return ConfigError.exit_code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
