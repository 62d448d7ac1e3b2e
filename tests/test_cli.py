import configparser
import contextlib
import dataclasses
import enum
import hashlib
import importlib
import inspect
import io
import itertools
import json
import math
import multiprocessing
import os
import pickle
import pkgutil
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aamsupcon
from aamsupcon import cli, errors, evaluate, losses
from aamsupcon.batching import BatchSampler
from aamsupcon.cli import SWEEP_FOOTER, main
from aamsupcon.model import embed, init_params, load_checkpoint, save_checkpoint
from oracles import corrupted, sweep_rows_sequential

BASE_CONFIG = """\
[dataset]
num_speakers = 6
utterances_per_speaker = 6
d_in = 16
spread = 0.15
seed = 5
holdout_per_speaker = {holdout}

[model]
encoder_hidden = 24 24
proj_hidden = 24
embedding_dim = 12

[training]
steps = {steps}
batch_speakers = 3
views_per_speaker = 2
seed = 3
{training_extra}

[eval]
trials_per_speaker = 10
seed = 9
"""


# Every config key and its default, as a manifest echoes them.
DEFAULTS = {
    ("dataset", "num_speakers"): 16,
    ("dataset", "utterances_per_speaker"): 20,
    ("dataset", "d_in"): 40,
    ("dataset", "spread"): 0.2,
    ("dataset", "seed"): 7,
    ("dataset", "holdout_per_speaker"): 0,
    ("augment", "noise_sigma"): 0.1,
    ("augment", "mask_max"): None,
    ("model", "encoder_hidden"): [64, 64],
    ("model", "proj_hidden"): 128,
    ("model", "embedding_dim"): 128,
    ("training", "loss"): "aamsupcon",
    ("training", "temperature"): 0.07,
    ("training", "margin"): 0.2,
    ("training", "scale"): 30.0,
    ("training", "lambda"): 1.0,
    ("training", "convention"): "all_non_anchor",
    ("training", "learning_rate"): 0.003,
    ("training", "momentum"): 0.9,
    ("training", "steps"): 1000,
    ("training", "batch_speakers"): 8,
    ("training", "views_per_speaker"): 2,
    ("training", "seed"): 0,
    ("training", "classifier_space"): "projection",
    ("eval", "trials_per_speaker"): 40,
    ("eval", "seed"): 100,
    ("eval", "p_target"): 0.01,
    ("eval", "c_miss"): 1.0,
    ("eval", "c_fa"): 1.0,
    ("eval", "space"): "projection",
    ("gradcheck", "seed"): 0,
    ("gradcheck", "step"): 1e-6,
    ("gradcheck", "tolerance"): 1e-5,
    ("gradcheck", "e2e_tolerance"): 1e-4,
}


def write_config(tmp_path, steps=60, holdout=0, training_extra="", name="config.ini"):
    path = tmp_path / name
    path.write_text(BASE_CONFIG.format(steps=steps, holdout=holdout,
                                       training_extra=training_extra))
    return str(path)


def override(src, dst, key, value):
    """Write config src to dst with the line `name = value` set in the
    section that key (section.name) names; returns dst as a str."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(src)
    section, name = key.split(".")
    if not parser.has_section(section):
        parser.add_section(section)
    parser[section][name] = value
    with open(dst, "w") as fh:
        parser.write(fh)
    return str(dst)


def command_argv(command, cfg, data, checkpoint, out):
    """argv running command with every input it needs."""
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if command in ("train", "evaluate", "sweep-batch"):
        argv += ["--data", str(data)]
    if command == "evaluate":
        argv += ["--checkpoint", str(checkpoint)]
    if command == "sweep-batch":
        argv += ["--sizes", "2"]
    return argv


def run_pipeline(tmp_path, tag, cfg):
    gen = tmp_path / f"gen{tag}"
    run = tmp_path / f"run{tag}"
    ev = tmp_path / f"eval{tag}"
    assert main(["generate", "--config", cfg, "--out", str(gen)]) == 0
    assert main(["train", "--config", cfg, "--data", str(gen / "dataset.txt"),
                 "--out", str(run)]) == 0
    assert main(["evaluate", "--config", cfg,
                 "--checkpoint", str(run / "checkpoint.bin"),
                 "--data", str(gen / "dataset.txt"), "--out", str(ev)]) == 0
    return gen, run, ev


def test_generate_writes_dataset_and_manifest(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "gen"
    assert main(["generate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "dataset.txt").read_text().splitlines()
    assert len(lines) == 1 + 6 * 6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert "dataset.txt" in manifest["checksums"]
    assert manifest["config"]["dataset"]["num_speakers"] == 6


def test_generate_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    for tag in ("a", "b"):
        assert main(["generate", "--config", cfg, "--out", str(tmp_path / tag)]) == 0
    assert (tmp_path / "a" / "dataset.txt").read_bytes() \
        == (tmp_path / "b" / "dataset.txt").read_bytes()
    assert (tmp_path / "a" / "manifest.json").read_bytes() \
        == (tmp_path / "b" / "manifest.json").read_bytes()


def test_generate_seed_override_changes_data(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["generate", "--config", cfg, "--seed", "99",
                 "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "dataset.txt").read_bytes() \
        != (tmp_path / "b" / "dataset.txt").read_bytes()


def test_config_error_names_field_and_writes_nothing(tmp_path, capsys):
    cfg = write_config(tmp_path)
    bad = (tmp_path / "bad.ini")
    bad.write_text((tmp_path / "config.ini").read_text()
                   .replace("num_speakers = 6", "num_speakers = 1"))
    out = tmp_path / "never"
    assert main(["generate", "--config", str(bad), "--out", str(out)]) == 1
    assert "num_speakers" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[dataset]\nnum_speaker = 6\n")
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert "dataset.num_speaker" in capsys.readouterr().err


@pytest.mark.parametrize("content, named", [
    (None, "cannot read config from"),
    (b"[dataset]\nseed = 5\n# \xff\n", "not utf-8 text (byte 21)"),
], ids=["missing", "not-utf-8"])
def test_unreadable_config_exits_3_naming_it(tmp_path, capsys, content, named):
    """A config that does not exist or is not UTF-8: exit 3 naming the file
    (and the first bad byte), before --out is created."""
    path = tmp_path / "bad.ini"
    if content is not None:
        path.write_bytes(content)
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "x")]) == 3
    err = capsys.readouterr().err
    assert str(path) in err and named in err, err
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_train_zero_steps_equals_fresh_init(tmp_path):
    cfg = write_config(tmp_path, steps=0)
    gen, run, _ = run_pipeline(tmp_path, "0", cfg)
    params = load_checkpoint(run / "checkpoint.bin")
    fresh = init_params([16, 24, 24], 24, 12, 6, seed=3)
    assert params.seed == 3
    for (w, b), (w2, b2) in zip(params.encoder_layers, fresh.encoder_layers):
        assert np.array_equal(w, w2) and np.array_equal(b, b2)
    assert np.array_equal(params.class_weights, fresh.class_weights)


def test_pipeline_reproducible_and_metrics_schema(tmp_path):
    cfg = write_config(tmp_path, steps=40, holdout=2)
    gen1, run1, ev1 = run_pipeline(tmp_path, "1", cfg)
    gen2, run2, ev2 = run_pipeline(tmp_path, "2", cfg)

    for name, d1, d2 in (("dataset.txt", gen1, gen2),
                         ("checkpoint.bin", run1, run2),
                         ("runlog.txt", run1, run2),
                         ("manifest.json", run1, run2),
                         ("trials.txt", ev1, ev2),
                         ("scores.txt", ev1, ev2),
                         ("metrics.json", ev1, ev2)):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    metrics = json.loads((ev1 / "metrics.json").read_text())
    for field in ("eer_percent", "min_dcf", "threshold", "num_target",
                  "num_nontarget"):
        assert field in metrics
    assert metrics["num_target"] == metrics["num_nontarget"] == 60
    # holdout of 2 utterances x 6 speakers is what gets scored
    assert metrics["evaluated_samples"] == 12

    runlog = (run1 / "runlog.txt").read_text().splitlines()
    assert runlog[0] == "step loss grad_norm"
    assert len(runlog) == 41
    assert all(np.isfinite(float(line.split()[1])) for line in runlog[1:])


def test_holdout_is_bounded_by_the_data_not_the_config(tmp_path):
    """train and evaluate hold out rows of the data file they read, so its
    count bounds dataset.holdout_per_speaker, not the config's
    dataset.utterances_per_speaker, which sizes what generate writes: 7 of
    a 10-utterance file train and evaluate under a 6-utterance config."""
    cfg = write_config(tmp_path, steps=2)
    ten = override(cfg, tmp_path / "ten.ini", "dataset.utterances_per_speaker", "10")
    assert main(["generate", "--config", ten, "--out", str(tmp_path / "gen")]) == 0
    held = override(cfg, tmp_path / "held.ini", "dataset.holdout_per_speaker", "7")
    data = str(tmp_path / "gen" / "dataset.txt")
    assert main(["train", "--config", held, "--data", data, "--out", str(tmp_path / "run")]) == 0
    assert main(["evaluate", "--config", held, "--data", data,
                 "--checkpoint", str(tmp_path / "run" / "checkpoint.bin"),
                 "--out", str(tmp_path / "ev")]) == 0
    metrics = json.loads((tmp_path / "ev" / "metrics.json").read_text())
    assert metrics["evaluated_samples"] == 6 * 7


def test_untrained_checkpoint_on_unstructured_data_scores_near_chance(tmp_path):
    cfg = write_config(tmp_path, steps=0, name="chance.ini")
    txt = (tmp_path / "chance.ini").read_text()
    (tmp_path / "chance.ini").write_text(
        txt.replace("spread = 0.15", "spread = 50.0")
           .replace("trials_per_speaker = 10", "trials_per_speaker = 40"))
    _, _, ev = run_pipeline(tmp_path, "c", cfg)
    metrics = json.loads((ev / "metrics.json").read_text())
    assert 25.0 < metrics["eer_percent"] < 75.0


def test_train_divergence_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, steps=20,
                       training_extra="learning_rate = 1e80")
    gen = tmp_path / "gen"
    assert main(["generate", "--config", cfg, "--out", str(gen)]) == 0
    rc = main(["train", "--config", cfg, "--data", str(gen / "dataset.txt"),
               "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "step" in capsys.readouterr().err


def test_collapsed_row_at_scoring_exits_2_naming_it(tmp_path, capsys):
    # with one projection unit and no training step, the seeded initial
    # weights map evaluated row 8 to the zero vector
    cfg = override(write_config(tmp_path, steps=0), tmp_path / "narrow.ini",
                   "model.proj_hidden", "1")
    gen = tmp_path / "gen"
    assert main(["generate", "--config", cfg, "--out", str(gen)]) == 0
    capsys.readouterr()
    assert main(command_argv("sweep-batch", cfg, gen / "dataset.txt", None,
                             tmp_path / "sweep")) == 2
    err = capsys.readouterr().err
    assert "row 8 has norm 0" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("spread", ["1e154", "1e200", "1e308"])
def test_spread_whose_norm_overflows_exits_1_naming_it(tmp_path, capsys, spread):
    """At d_in = 40 an utterance's norm overflows from about spread = 1e154
    on: generate refuses it rather than writing rows of zeros or NaN."""
    cfg = tmp_path / "huge.ini"
    cfg.write_text(f"[dataset]\nspread = {spread}\n")
    assert main(["generate", "--config", str(cfg), "--out", str(tmp_path / "gen")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.count("dataset.spread") == 1, err
    assert not (tmp_path / "gen" / "dataset.txt").exists()


def test_overflowing_forward_pass_at_scoring_exits_2_naming_row(clean_dataset,
                                                                clean_checkpoint,
                                                                tmp_path, capsys):
    """Finite weights whose forward pass overflows: evaluate exits 2 naming
    the first row, and writes no metrics.json (a NaN threshold is not
    JSON)."""
    checkpoint = tmp_path / "checkpoint.bin"
    checkpoint.write_bytes(clean_checkpoint)
    params = load_checkpoint(checkpoint)
    params.proj_w2 *= 1e300
    params.proj_w1 *= 1e10
    save_checkpoint(checkpoint, params)
    cfg, text = clean_dataset
    data = tmp_path / "dataset.txt"
    data.write_text(text)
    capsys.readouterr()
    assert main(command_argv("evaluate", cfg, data, checkpoint, tmp_path / "eval")) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.rstrip().endswith("evaluated row 0 has norm inf"), err
    assert not (tmp_path / "eval" / "metrics.json").exists()


_EVAL_OUTPUTS = ("trials.txt", "scores.txt", "metrics.json", "manifest.json")


def test_equal_scores_leave_no_evaluate_outputs(clean_dataset, clean_checkpoint, tmp_path,
                                                capsys):
    """A network that maps every row to one point scores every trial 1.0:
    evaluate exits 2, and removes the trial and score files it wrote before
    the scores were known to be unusable, and the outputs of an earlier run
    into the same directory."""
    cfg, text = clean_dataset
    data, checkpoint = tmp_path / "dataset.txt", tmp_path / "checkpoint.bin"
    out = tmp_path / "eval"
    data.write_text(text)
    checkpoint.write_bytes(clean_checkpoint)
    assert main(command_argv("evaluate", cfg, data, checkpoint, out)) == 0
    assert all((out / name).exists() for name in _EVAL_OUTPUTS)
    params = load_checkpoint(checkpoint)
    for w, b in params.encoder_layers:
        w[:] = 0.0
        b[:] = 1.0
    save_checkpoint(checkpoint, params)
    capsys.readouterr()
    assert main(command_argv("evaluate", cfg, data, checkpoint, out)) == 2
    err = capsys.readouterr().err
    assert err == "numerical failure: all trial scores are equal\n", err
    assert sorted(p.name for p in out.iterdir()) == []


def test_unwritable_score_file_leaves_no_evaluate_outputs(clean_dataset, clean_checkpoint,
                                                          tmp_path, capsys):
    """scores.txt cannot be opened (a directory of that name): evaluate
    exits 3 naming it and leaves no trial file behind."""
    cfg, text = clean_dataset
    data, checkpoint = tmp_path / "dataset.txt", tmp_path / "checkpoint.bin"
    out = tmp_path / "eval"
    data.write_text(text)
    checkpoint.write_bytes(clean_checkpoint)
    (out / "scores.txt").mkdir(parents=True)
    assert main(command_argv("evaluate", cfg, data, checkpoint, out)) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"i/o failure: cannot write scores to {out / 'scores.txt'}: "), err
    assert sorted(p.name for p in out.iterdir()) == ["scores.txt"]


def test_commands_do_not_import_numpy_ma(tmp_path):
    """generate, train, evaluate and sweep-batch in a fresh interpreter leave
    numpy.ma unimported: a plain np.unique imports it on first use (through
    np.ma.is_masked), at about 12 ms and 1.2 MB of RSS per process."""
    cfg = write_config(tmp_path, steps=2, holdout=2)
    script = f"""
import sys
from aamsupcon.cli import main
cfg, root = {cfg!r}, {str(tmp_path)!r}
data, ckpt = root + "/gen/dataset.txt", root + "/run/checkpoint.bin"
for argv in (["generate", "--out", root + "/gen"],
             ["train", "--data", data, "--out", root + "/run"],
             ["evaluate", "--data", data, "--checkpoint", ckpt, "--out", root + "/eval"],
             ["sweep-batch", "--data", data, "--sizes", "2", "3", "--out", root + "/sweep"]):
    assert main([*argv, "--config", cfg]) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[:2] == ["numpy", "ma"]))
"""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]", proc.stdout


@pytest.mark.parametrize("training_extra, setting, key", [
    ("learning_rate = nan", "", "training.learning_rate"),
    ("momentum = -5", "", "training.momentum"),
    ("", "noise_sigma = -1", "augment.noise_sigma"),
    ("", "mask_max = 999", "augment.mask_max"),
    ("", "batch_speakers = 7", "training.batch_speakers"),
    ("", "batch_speakers = 0", "training.batch_speakers"),
    ("", "views_per_speaker = 99", "training.views_per_speaker"),
    ("convention = strict_negatives", "batch_speakers = 1", "training.convention"),
    ("", "embedding_dim = 1", "model.embedding_dim"),
    ("", "proj_hidden = 0", "model.proj_hidden"),
    ("", "encoder_hidden = 24 0", "model.encoder_hidden"),
    ("classifier_space = encoder", "encoder_hidden = 24 1", "model.encoder_hidden"),
    ("temperature = inf", "", "training.temperature"),
    ("scale = inf", "", "training.scale"),
    ("lambda = nan", "", "training.lambda"),
    ("lambda = -3", "", "training.lambda"),
])
def test_train_rejects_out_of_domain_value(tmp_path, capsys, training_extra,
                                           setting, key):
    """setting is one `name = value` line for the section that key names."""
    gen = tmp_path / "gen"
    assert main(["generate", "--config", write_config(tmp_path),
                 "--out", str(gen)]) == 0
    bad = write_config(tmp_path, training_extra=training_extra, name="bad.ini")
    if setting:
        name, value = (part.strip() for part in setting.split("=", 1))
        override(bad, bad, f"{key.split('.')[0]}.{name}", value)
    capsys.readouterr()
    assert main(["train", "--config", bad, "--data", str(gen / "dataset.txt"),
                 "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert key in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_empty_config_echoes_every_default(tmp_path):
    empty = tmp_path / "empty.ini"
    empty.write_text("")
    assert main(["generate", "--config", str(empty), "--out", str(tmp_path / "gen")]) == 0
    echo = json.loads((tmp_path / "gen" / "manifest.json").read_text())["config"]
    flat = {(section, key): value for section, keys in echo.items()
            for key, value in keys.items()}
    # repr tells 30.0 from 30 and a list from a tuple
    assert {k: repr(v) for k, v in flat.items()} == {k: repr(v) for k, v in DEFAULTS.items()}


def _shown_domain(f):
    """The domain of a config field as README and the error messages show it."""
    if isinstance(f.type, enum.EnumMeta):
        return "{" + ", ".join(member.value for member in f.type) + "}"
    domain = f.metadata["domain"]
    return domain if isinstance(domain, str) else "{" + ", ".join(domain) + "}"


def test_readme_key_table_matches_the_config_fields():
    """README's table of config keys: one row per key of cli._KEYS, its
    default parsed as a config value equals the field default, and its
    domain is the field's."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| key | default | domain |") + 2
    rows = {}
    for line in itertools.takewhile(str.strip, lines[start:]):
        key, default, domain = (cell.strip() for cell in line.strip("|").split("|"))
        rows[key.strip("`")] = (default, domain.strip("`"))
    assert sorted(rows) == sorted(cli._KEYS)
    for key, (_, f) in cli._KEYS.items():
        default, domain = rows[key]
        raw = "" if default.startswith("empty") else default.strip("`")
        assert cli._parse(key, raw, f.type) == f.default, key
        assert domain == _shown_domain(f), key


def test_every_key_but_an_enum_declares_a_domain():
    for key, (_, f) in cli._KEYS.items():
        assert isinstance(f.type, enum.EnumMeta) != ("domain" in f.metadata), key


def test_readme_module_names_resolve():
    """Every backticked module.name in README.md whose module is one of the
    package's modules names an attribute of that module, or is a config
    key."""
    modules = "|".join(m.name for m in pkgutil.iter_modules(aamsupcon.__path__))
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    stale = []
    for name in re.findall(rf"`((?:{modules})\.\w+(?:\.\w+)*)", text):
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"aamsupcon.{module}")
        try:
            for attr in attrs:
                obj = getattr(obj, attr)
        except AttributeError:
            if name not in cli._KEYS:
                stale.append(name)
    assert stale == []


# Values of every kind a config field may be given in code: a str (an enum's
# value, an allowed string, a number as text), a bool, None, a float, an int,
# a list and an enum member. Each field takes some kinds and refuses the rest.
_ANY_KIND = st.one_of(
    st.sampled_from([*(m.value for m in [*losses.LossKind, *losses.DenominatorConvention]),
                     "projection", "encoder", "0.5", "8", ""]),
    st.booleans(), st.none(), st.floats(), st.integers(-3, 2**64),
    st.lists(st.one_of(st.integers(-1, 300), st.booleans(), st.floats(0, 9)), max_size=3),
    st.sampled_from([*losses.LossKind, *losses.DenominatorConvention]))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(value=_ANY_KIND)
@pytest.mark.parametrize("key", sorted(cli._KEYS))
def test_a_config_object_built_in_code_resolves_or_names_the_key(key, value):
    """Each of the six config classes, built in code with one field set to
    any value, holds the value resolved (an enum member for its value, a
    tuple for a list) or raises a ConfigError naming the key, never another
    error: the library refuses what the CLI refuses."""
    cls, f = cli._KEYS[key]
    try:
        obj = cls(**{f.name: value})
    except errors.ConfigError as exc:
        assert str(exc).startswith(f"{key} "), (value, str(exc))
        return
    got = getattr(obj, f.name)
    if isinstance(f.type, enum.EnumMeta):
        assert got is f.type(value)
    elif isinstance(value, list):
        assert got == tuple(value)
    else:
        assert got is value


@pytest.mark.parametrize("cls", sorted({cls for _, cls in cli._SECTIONS}, key=repr),
                         ids=lambda cls: cls.__name__)
def test_a_config_object_refuses_assignment(cls):
    """A config object is checked when built, so none of its fields can be
    set afterwards, past that check."""
    obj = cls()
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, f.name, getattr(obj, f.name))


@pytest.mark.parametrize("call, message", [
    (lambda: BatchSampler(np.zeros((4, 2)), np.arange(4), 0, 1, 0.1, None),
     "batch_speakers and views_per_speaker must be >= 1"),
    (lambda: BatchSampler(np.zeros((4, 2)), np.arange(4), 2, 1, 0.1, 3),
     "mask_max 3 outside [0, 2]"),
    (lambda: evaluate.trial_blocks(np.repeat(np.arange(2), 2), 0, 0),
     "trials_per_speaker must be >= 1, got 0"),
    (lambda: losses.fd_report(lambda: 0.0, [], [], 0.0), "step must be > 0, got 0.0"),
    (lambda: embed(init_params([2, 4], 4, 2, 2, 0), np.ones((1, 2)), "both"),
     "space must be projection|encoder, got 'both'"),
])
def test_library_input_guards_raise_config_errors(call, message):
    """A public input guard raises a ConfigError, which main() reports as a
    config error with exit code 1, not a bare ValueError."""
    with pytest.raises(errors.ConfigError, match=re.escape(message)):
        call()


def _boundary_cases():
    """(key, value, loads) at every finite bound of every interval domain:
    a closed bound loads, and the value just outside it (np.nextafter, or
    the next int) does not; an open bound itself does not load, nor inf
    for a float key. Each allowed string of a set loads, another does
    not, and so does one bad model.encoder_hidden entry."""
    cases = [("model.encoder_hidden", "8 1", True), ("model.encoder_hidden", "8 0", False)]
    for key, (_, f) in cli._KEYS.items():
        domain = f.metadata.get("domain")
        if isinstance(domain, tuple):
            cases += [(key, value, True) for value in domain] + [(key, "middle", False)]
            continue
        if domain is None:
            continue
        integral = f.type is not float
        bounds = [math.pi / 2 if b == "pi/2" else float(b) for b in domain[1:-1].split(", ")]
        for bound, closed, away in zip(bounds, (domain[0] == "[", domain[-1] == "]"),
                                       (-np.inf, np.inf)):
            if not math.isfinite(bound):
                if not integral:
                    cases.append((key, repr(bound), False))
                continue
            outside = bound
            if closed:
                cases.append((key, str(int(bound)) if integral else repr(bound), True))
                outside = bound + np.sign(away) if integral else np.nextafter(bound, away)
            cases.append((key, str(int(outside)) if integral else repr(float(outside)), False))
    return cases


@pytest.mark.parametrize("key, value, loads", _boundary_cases())
def test_domain_boundary_loads_or_exits_1_naming_key(tmp_path, capsys, key, value, loads):
    section, name = key.split(".")
    cfg = tmp_path / "config.ini"
    cfg.write_text(f"[{section}]\n{name} = {value}\n")
    if loads:
        cli.load_config(cfg)
        return
    out = tmp_path / "out"
    assert main(["generate", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count(key) == 1 and len(err.splitlines()) == 1, err
    assert "must be in" in err, err
    assert not out.exists()


@pytest.fixture(scope="module")
def holdout_one_run(tmp_path_factory):
    """(config, dataset, checkpoint): a config holding nothing out, its
    dataset, and a checkpoint that train wrote with holdout_per_speaker = 1,
    which training accepts (only evaluating the held-out rows needs two)."""
    root = tmp_path_factory.mktemp("holdout")
    cfg = write_config(root, steps=2)
    data = root / "gen" / "dataset.txt"
    assert main(["generate", "--config", cfg, "--out", str(root / "gen")]) == 0
    held = override(cfg, root / "held.ini", "dataset.holdout_per_speaker", "1")
    assert main(["train", "--config", held, "--data", str(data),
                 "--out", str(root / "run")]) == 0
    return cfg, data, root / "run" / "checkpoint.bin"


@pytest.mark.parametrize("command, key, value", [
    ("evaluate", "eval.trials_per_speaker", "0"),
    ("generate", "dataset.seed", "-1"),
    ("generate", "dataset.spread", "1e154"),
    ("train", "training.seed", "-1"),
    ("evaluate", "eval.seed", "-1"),
    ("gradcheck", "gradcheck.seed", "-1"),
    ("evaluate", "eval.c_miss", "nan"),
    ("evaluate", "eval.c_fa", "inf"),
    ("gradcheck", "gradcheck.step", "0"),
    ("gradcheck", "gradcheck.step", "nan"),
    ("gradcheck", "gradcheck.step", "0.5"),
    ("gradcheck", "gradcheck.step", "1"),
    ("gradcheck", "gradcheck.step", "99"),
    ("gradcheck", "gradcheck.tolerance", "nan"),
    ("gradcheck", "gradcheck.tolerance", "-1"),
    ("gradcheck", "gradcheck.e2e_tolerance", "nan"),
    ("gradcheck", "gradcheck.e2e_tolerance", "-1"),
    ("evaluate", "dataset.holdout_per_speaker", "1"),
    ("sweep-batch", "dataset.holdout_per_speaker", "1"),
    ("train", "dataset.holdout_per_speaker", "6"),
    ("generate", "--seed", "-1"),
    ("train", "--seed", "-1"),
    ("evaluate", "--seed", "-1"),
    ("gradcheck", "--seed", "-1"),
    ("sweep-batch", "--seed", "-1"),
    ("train", "model.proj_hidden", str(10**19)),
    ("generate", "dataset.num_speakers", str(10**19)),
    ("generate", "--seed", str(2**63)),
    # 2**62 8-byte values exceed numpy's limit of 2**63 - 1 bytes
    ("generate", "dataset.num_speakers", str(2**62)),
    ("generate", "dataset.utterances_per_speaker", str(2**62)),
    ("generate", "dataset.d_in", str(2**62)),
    ("train", "model.proj_hidden", str(2**62)),
    ("train", "model.embedding_dim", str(2**62)),
    ("train", "model.encoder_hidden", str(2**62)),
    ("train", "training.steps", str(2**62)),
    # 2**58 steps of the clock's five int64 columns pass the limit too
    ("train", "training.steps", str(2**58)),
    ("sweep-batch", "training.steps", str(2**62)),
    ("sweep-batch", "model.proj_hidden", str(2**62)),
    ("evaluate", "eval.trials_per_speaker", str(2**62)),
    ("sweep-batch", "eval.trials_per_speaker", str(2**62)),
])
def test_bad_value_exits_1_naming_key_before_writing(holdout_one_run, tmp_path, capsys,
                                                     command, key, value):
    """key is a config key (section.name) or a command-line flag."""
    cfg, data, checkpoint = holdout_one_run
    out = tmp_path / "out"
    if key.startswith("--"):
        argv = command_argv(command, cfg, data, checkpoint, out) + [key, value]
    else:
        bad = override(cfg, tmp_path / "bad.ini", key, value)
        argv = command_argv(command, bad, data, checkpoint, out)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count(key) == 1 and len(err.splitlines()) == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("train", "model.proj_hidden", str(10**13)),
    ("train", "training.steps", str(10**14)),
    ("generate", "dataset.num_speakers", str(10**13)),
    ("evaluate", "eval.trials_per_speaker", str(10**14)),
])
def test_oversized_value_exits_1_out_of_memory(holdout_one_run, tmp_path, capsys,
                                               command, key, value):
    """A size whose first array exceeds 2**48 bytes, more address space than
    a 64-bit process gets by default, so the allocation fails under any
    overcommit setting before memory is touched: exit 1 with numpy's
    message on one stderr line."""
    cfg, data, checkpoint = holdout_one_run
    bad = override(cfg, tmp_path / "bad.ini", key, value)
    capsys.readouterr()
    assert main(command_argv(command, bad, data, checkpoint, tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("config error: out of memory: Unable to allocate"), err


@pytest.mark.parametrize("text", [
    "[DEFAULT]\nsteps = 5\n",
    "[DEFAULT]\nseed = 3\n\n[training]\nsteps = 5\n",
    "[DEFAULT]\n",
], ids=["alone", "beside-training", "empty"])
def test_default_section_exits_1_naming_it(holdout_one_run, tmp_path, capsys, text):
    """configparser would read [DEFAULT] as defaults for every section: ignored
    alone, spread into [training] beside it. It is an unknown section instead."""
    _, data, _ = holdout_one_run
    cfg = tmp_path / "default.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: unknown config section [DEFAULT]\n", err
    assert not out.exists()


def test_size_that_wraps_in_int64_exits_1_naming_key(tmp_path):
    """16 speakers x 2**60 rows wrap to 0 in int64, and np.repeat then writes
    past the array it sized: the interpreter dies with SIGSEGV unless the
    size is refused first, so the run is a subprocess."""
    cfg = override(write_config(tmp_path), tmp_path / "16.ini", "dataset.num_speakers", "16")
    bad = override(cfg, tmp_path / "bad.ini", "dataset.utterances_per_speaker", str(2**60))
    proc = subprocess.run([sys.executable, "-m", "aamsupcon", "generate", "--config", bad,
                           "--out", str(tmp_path / "out")], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])})
    assert proc.returncode == 1, proc
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "dataset.utterances_per_speaker" in proc.stderr, proc.stderr


def test_gradcheck_seed_flag_sets_gradcheck_seed(tmp_path):
    cfg = write_config(tmp_path)
    keyed = override(cfg, tmp_path / "keyed.ini", "gradcheck.seed", "1")
    assert main(["gradcheck", "--config", cfg, "--seed", "1",
                 "--out", str(tmp_path / "flag")]) == 0
    assert main(["gradcheck", "--config", keyed, "--out", str(tmp_path / "key")]) == 0
    assert (tmp_path / "flag" / "gradcheck.json").read_bytes() \
        == (tmp_path / "key" / "gradcheck.json").read_bytes()


def test_evaluate_bad_checkpoint_is_io_error(tmp_path):
    cfg = write_config(tmp_path)
    gen = tmp_path / "gen"
    assert main(["generate", "--config", cfg, "--out", str(gen)]) == 0
    fake = tmp_path / "fake.bin"
    fake.write_bytes(b"not a checkpoint at all")
    rc = main(["evaluate", "--config", cfg, "--checkpoint", str(fake),
               "--data", str(gen / "dataset.txt"), "--out", str(tmp_path / "ev")])
    assert rc == 3


def test_gradcheck_report_and_corrupt_hook(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path)
    out = tmp_path / "gc"
    assert main(["gradcheck", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "gradcheck.json").read_text())
    names = [row["check"] for row in report["rows"]]
    assert names == ["softmax", "arcface", "supcon", "aamsupcon", "end_to_end"]
    assert all(row["passed"] for row in report["rows"])
    capsys.readouterr()

    # a corrupted loss_terms perturbs the analytic loss gradients; the four
    # loss rows must fail and force exit code 2 (training imports loss_terms
    # by name, so the end-to-end row still passes)
    monkeypatch.setattr(losses, "loss_terms", corrupted(losses.loss_terms))
    assert main(["gradcheck", "--config", cfg]) == 2
    printed = capsys.readouterr().out
    assert printed.count("FAIL") >= 4


def test_gradcheck_fails_a_nan_gradient(tmp_path, capsys, monkeypatch):
    """A NaN analytic gradient gives a NaN error, which fails its row rather
    than reading as 0."""
    cfg = write_config(tmp_path)
    monkeypatch.setattr(losses, "loss_terms", corrupted(losses.loss_terms, np.nan))
    assert main(["gradcheck", "--config", cfg]) == 2
    rows = capsys.readouterr().out.splitlines()[:4]
    assert all("max rel error nan" in row and row.endswith("FAIL") for row in rows), rows


def test_gradcheck_uncreatable_out_fails_before_any_check(tmp_path, capsys):
    cfg = write_config(tmp_path)
    report = tmp_path / "file" / "report"
    (tmp_path / "file").write_text("")
    capsys.readouterr()
    assert main(["gradcheck", "--config", cfg, "--out", str(report)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(report) in captured.err


def test_sweep_batch_table_and_footer(tmp_path, capsys):
    cfg = write_config(tmp_path, steps=30)
    gen = tmp_path / "gen"
    assert main(["generate", "--config", cfg, "--out", str(gen)]) == 0
    out = tmp_path / "sweep"
    assert main(["sweep-batch", "--config", cfg, "--data",
                 str(gen / "dataset.txt"), "--out", str(out),
                 "--sizes", "2", "3"]) == 0
    printed = capsys.readouterr().out
    assert "13.64" in printed and "0.71" in printed

    sweep = json.loads((out / "sweep.json").read_text())
    assert [row["batch_speakers"] for row in sweep["rows"]] == [2, 3]
    assert sweep["footer"] == SWEEP_FOOTER

    assert main(["sweep-batch", "--config", cfg, "--data",
                 str(gen / "dataset.txt"), "--out", str(tmp_path / "one"),
                 "--sizes", "2"]) == 0
    one = json.loads((tmp_path / "one" / "sweep.json").read_text())
    assert len(one["rows"]) == 1


@pytest.mark.parametrize("size, training_extra", [
    ("0", ""),
    ("99", ""),
    ("1", "convention = strict_negatives"),
])
def test_sweep_batch_bad_size_names_the_flag(tmp_path, capsys, size, training_extra):
    """A --sizes entry that the config or the 6-speaker data rule out: exit
    1 naming --sizes and that entry, not the training.batch_speakers key it
    stands in for, before --out is created."""
    cfg = write_config(tmp_path, steps=2, training_extra=training_extra)
    gen = tmp_path / "gen"
    assert main(["generate", "--config", cfg, "--out", str(gen)]) == 0
    out = tmp_path / "sweep"
    capsys.readouterr()
    assert main(["sweep-batch", "--config", cfg, "--data", str(gen / "dataset.txt"),
                 "--out", str(out), "--sizes", "2", size]) == 1
    err = capsys.readouterr().err
    assert f"--sizes {size}:" in err, err
    assert "training.batch_speakers" not in err and "Traceback" not in err
    assert not out.exists()


def _sweep(cfg, gen, out, *sizes):
    return main(["sweep-batch", "--config", cfg, "--data", str(gen / "dataset.txt"),
                 "--out", str(out), "--sizes", *map(str, sizes)])


def test_sweep_batch_pool_rows_equal_the_sequential_loop(tmp_path, monkeypatch):
    """Unsorted --sizes with a duplicate: the pool's rows, in --sizes order,
    are the rows of the sequential loop, and one usable CPU writes the same
    bytes as two. No worker outlives the command."""
    cfg = write_config(tmp_path, steps=20, holdout=2)
    gen = tmp_path / "gen"
    assert main(["generate", "--config", cfg, "--out", str(gen)]) == 0
    assert _sweep(cfg, gen, tmp_path / "two", 3, 2, 3) == 0
    assert multiprocessing.active_children() == []
    rows = json.loads((tmp_path / "two" / "sweep.json").read_text())["rows"]

    config, _ = cli.load_config(cfg)
    train_set, (eval_features, eval_ids) = cli._load_split(config, gen / "dataset.txt")
    assert rows == sweep_rows_sequential(
        config[cli.TrainConfig], train_set, eval_features, eval_ids,
        config[cli._Trials], config[cli.DcfParams], [3, 2, 3])

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _sweep(cfg, gen, tmp_path / "one", 3, 2, 3) == 0
    for name in ("sweep.json", "manifest.json"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_sweep_batch_rows_equal_train_then_evaluate(tmp_path):
    """With the same config and --seed, the sweep-batch row of each size s
    holds the eer_percent and min_dcf of the metrics.json of train, at
    training.batch_speakers = s, then evaluate (whose --seed would reseed
    the trials, so it gets none)."""
    cfg = write_config(tmp_path, steps=20, holdout=2)
    gen = tmp_path / "gen"
    data = str(gen / "dataset.txt")
    assert main(["generate", "--config", cfg, "--out", str(gen)]) == 0
    assert main(["sweep-batch", "--config", cfg, "--data", data, "--out", str(tmp_path / "sweep"),
                 "--seed", "4", "--sizes", "2", "3"]) == 0
    rows = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["rows"]
    for row in rows:
        size = row["batch_speakers"]
        sized = override(cfg, tmp_path / f"b{size}.ini", "training.batch_speakers", str(size))
        run, ev = tmp_path / f"run{size}", tmp_path / f"eval{size}"
        assert main(["train", "--config", sized, "--data", data, "--out", str(run),
                     "--seed", "4"]) == 0
        assert main(["evaluate", "--config", sized, "--data", data, "--out", str(ev),
                     "--checkpoint", str(run / "checkpoint.bin")]) == 0
        metrics = json.loads((ev / "metrics.json").read_text())
        assert (row["eer_percent"], row["min_dcf"]) == (metrics["eer_percent"],
                                                         metrics["min_dcf"])
    assert [row["batch_speakers"] for row in rows] == [2, 3]


def test_sweep_batch_divergence_names_the_first_size(tmp_path, capsys):
    """Both sizes diverge: the first in --sizes order is reported, as one
    stderr line naming it and the step, with the exit code of its class."""
    cfg = write_config(tmp_path, steps=20, training_extra="learning_rate = 1e80")
    gen = tmp_path / "gen"
    assert main(["generate", "--config", cfg, "--out", str(gen)]) == 0
    capsys.readouterr()
    assert _sweep(cfg, gen, tmp_path / "sweep", 3, 2) == 2
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith("numerical failure: --sizes 3: ") and "at step" in err, err
    assert "Traceback" not in err


def _dying_row(job, size):
    """A sweep row whose worker process dies, as under the OOM killer."""
    os._exit(1)


def test_sweep_batch_dead_worker_exits_1(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, steps=2)
    gen = tmp_path / "gen"
    assert main(["generate", "--config", cfg, "--out", str(gen)]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "_sweep_row", _dying_row)
    assert _sweep(cfg, gen, tmp_path / "sweep", 2, 3) == 1
    assert multiprocessing.active_children() == []
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "worker process" in err, err
    assert "Traceback" not in err


def _row_failing_at_6(job, size):
    """Size 6 fails at once; every other size leaves a file named after it
    in $SWEEP_MARKERS, then takes 0.3 s."""
    if size == 6:
        raise errors.NumericalError("diverged")
    (Path(os.environ["SWEEP_MARKERS"]) / str(size)).touch()
    time.sleep(0.3)


def test_sweep_batch_failure_cancels_sizes_not_started(tmp_path, capsys, monkeypatch):
    """One worker, sizes 6 (fails) then 5, 4, 3, 2: the failure is reported
    without running every size behind it."""
    cfg = write_config(tmp_path, steps=2)
    gen = tmp_path / "gen"
    assert main(["generate", "--config", cfg, "--out", str(gen)]) == 0
    capsys.readouterr()
    markers = tmp_path / "markers"
    markers.mkdir()
    monkeypatch.setenv("SWEEP_MARKERS", str(markers))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli, "_sweep_row", _row_failing_at_6)
    assert _sweep(cfg, gen, tmp_path / "sweep", 6, 5, 4, 3, 2) == 2
    assert multiprocessing.active_children() == []
    assert capsys.readouterr().err == "numerical failure: --sizes 6: diverged\n"
    assert len(list(markers.iterdir())) < 4


_ERRORS = [errors.ConfigError("training.steps must be in [0, inf), got -1"),
           errors.NumericalError("gradient check failed for: supcon"),
           errors.IoError("cannot read dataset from x: gone"),
           errors.ZeroVector("row 21 has norm 0.000e+00"),
           errors.DivergenceDetected(3),
           errors.DivergenceDetected(4, "class weights overflowed at step 4: row 0")]


def test_errors_cover_every_error_class():
    classes = {cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.AamSupConError)}
    assert classes - {errors.AamSupConError} == {type(exc) for exc in _ERRORS}


@pytest.mark.parametrize("exc", _ERRORS, ids=lambda exc: type(exc).__name__)
def test_error_survives_pickling(exc):
    """A sweep worker's error reaches its parent pickled: type, message,
    exit code and step come back unchanged."""
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc) and back.exit_code == exc.exit_code
    assert getattr(back, "step", None) == getattr(exc, "step", None)


def test_encoder_space_pipeline(tmp_path):
    extra = "classifier_space = encoder"
    cfg = write_config(tmp_path, steps=40, training_extra=extra)
    txt = (tmp_path / "config.ini").read_text()
    (tmp_path / "config.ini").write_text(txt + "space = encoder\n")
    _, _, ev = run_pipeline(tmp_path, "enc", cfg)
    metrics = json.loads((ev / "metrics.json").read_text())
    assert 0.0 <= metrics["eer"] <= 1.0


def test_bad_space_value_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, training_extra="classifier_space = middle")
    assert main(["generate", "--config", cfg, "--out", str(tmp_path / "x")]) == 1
    assert "training.classifier_space" in capsys.readouterr().err


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 1
    assert main(["train", "--config"]) == 1


# The three kinds of package error, with the exit code and stderr label
# that README documents for each.
_KINDS = {errors.ConfigError: (1, "config error"),
          errors.NumericalError: (2, "numerical failure"),
          errors.IoError: (3, "i/o failure")}


@pytest.mark.parametrize("cls", [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                                 if cls.__module__ == errors.__name__
                                 and cls is not errors.AamSupConError],
                         ids=lambda cls: cls.__name__)
def test_every_package_error_exits_with_its_kind(monkeypatch, capsys, cls):
    """Every class in aamsupcon.errors is of exactly one kind, and main()
    reports it with that kind's label and exit code, without a traceback."""
    kinds = [kind for kind in _KINDS if issubclass(cls, kind)]
    assert len(kinds) == 1, kinds
    code, label = _KINDS[kinds[0]]

    def handler(args):
        raise cls("contract probe")

    monkeypatch.setitem(cli._HANDLERS, "generate", handler)
    assert main(["generate", "--config", "unused.ini", "--out", "unused"]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"{label}: "), err
    assert "Traceback" not in err


def test_write_file_writes_chunks_in_order(tmp_path):
    """str and bytes chunks, from any iterable, go out as their
    concatenation; a lone str or bytes is one chunk."""
    path = tmp_path / "out.txt"
    errors.write_file(path, (c for c in ["ab", b"cd", "", b"", "e\n"]), "chunks")
    assert path.read_bytes() == b"abcde\n"
    errors.write_file(path, iter([]), "chunks")
    assert path.read_bytes() == b""
    for data in ("plain\n", b"plain\n"):
        errors.write_file(path, data, "chunks")
        assert path.read_bytes() == b"plain\n"


def test_write_file_unwritable_path_names_the_file(tmp_path):
    path = tmp_path / "missing" / "out.txt"
    for data in (["ab", b"cd"], "ab"):
        with pytest.raises(errors.IoError, match=re.escape(f"cannot write chunks to {path}: ")):
            errors.write_file(path, data, "chunks")
    with pytest.raises(errors.IoError, match=re.escape(f"cannot read output from {path}: ")):
        errors.file_sha256(path, "output")


@pytest.mark.parametrize("size", [0, 2**20 - 1, 2**20, 2**20 + 1])
def test_manifest_checksum_is_sha256_of_the_file(tmp_path, size):
    """Files on each side of file_sha256's 1 MiB block get the sha256 of
    their bytes in the manifest."""
    blob = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    path = tmp_path / "blob.bin"
    path.write_bytes(blob)
    manifest = cli._write_manifest(tmp_path, "probe", {}, None, {}, {"blob": path})
    checksums = json.loads(Path(manifest).read_text())["checksums"]
    assert checksums == {"blob.bin": hashlib.sha256(blob).hexdigest()}


def test_module_entry_point_runs():
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "aamsupcon", "--version"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


@pytest.fixture(scope="module")
def clean_dataset(tmp_path_factory):
    """(config path, dataset text) of a small generated dataset."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = write_config(root, steps=2)
    assert main(["generate", "--config", cfg, "--out", str(root / "gen")]) == 0
    return cfg, (root / "gen" / "dataset.txt").read_text()


# tokens that parse as numbers but break the format, or do not parse at all
_GARBAGE = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e999", "-1", "0", "5", "99", "2.5",
                     "0x10", "1_0", "=", "seed=x", "d_in=0", "num_speakers=600",
                     "augmented", "original"]),
    st.text(min_size=0, max_size=6))


@st.composite
def _corrupt(draw, text):
    """Drop or duplicate a line, replace one token with garbage, or truncate."""
    lines = text.splitlines(keepends=True)
    kind = draw(st.sampled_from(["drop", "duplicate", "replace", "truncate"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        tokens = lines[i].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(_GARBAGE)
        lines[i] = " ".join(tokens) + "\n"
    return "".join(lines)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_corrupted_dataset_is_trained_or_named(clean_dataset, data):
    cfg, text = clean_dataset
    corrupted = data.draw(_corrupt(text))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.txt"
        path.write_bytes(corrupted.encode("utf-8"))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["train", "--config", cfg, "--data", str(path),
                         "--out", str(Path(tmp) / "run")])
    assert code in (0, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert str(path) in err.getvalue()


@pytest.mark.parametrize("sid", ["99999999999999999999999", "-99999999999999999999999"])
def test_speaker_id_past_int64_exits_3_naming_line(clean_dataset, tmp_path, capsys, sid):
    """An id past int64 is refused as outside [0, N), like any other, rather
    than overflowing the id array."""
    cfg, text = clean_dataset
    lines = text.splitlines(keepends=True)
    lines[3] = sid + lines[3][lines[3].index(" "):]
    path = tmp_path / "dataset.txt"
    path.write_text("".join(lines))
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--data", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [f"i/o failure: {path}:4: speaker id outside [0, 6)"], err
    assert not out.exists()


def _retoken(line, index, new):
    """line with its token at index replaced by new(token)."""
    tokens = line.split()
    tokens[index] = new(tokens[index])
    return " ".join(tokens) + "\n"


# (form, line, edit): number forms that int and float read but that %d and
# %.17g never write; edit rewrites the dataset line of that 1-based number
_LOOSE_FORMS = [
    ("plus sign", 4, lambda line: "+" + line),
    ("plus sign", 4, lambda line: _retoken(line, 2, lambda t: "+" + t.lstrip("-"))),
    ("upper-case E", 4, lambda line: _retoken(line, 3, lambda t: t + "E0")),
    ("underscore", 4, lambda line: _retoken(line, 4, lambda t: t[:4] + "_" + t[4:])),
    ("leading zero", 4, lambda line: "0" + line),
    ("leading zero", 4, lambda line: _retoken(line, 2, lambda t: "-00." + t.split(".")[1])),
    ("dot without a digit on each side", 4,
     lambda line: _retoken(line, 2, lambda t: t.replace("0.", "."))),
    ("dot without a digit on each side", 4, lambda line: _retoken(line, 3, lambda t: "5.")),
    ("plus sign", 1, lambda line: line.replace("seed=", "seed=+")),
    ("leading zero", 1, lambda line: line.replace("seed=", "seed=0")),
    ("dot without a digit on each side", 1, lambda line: line.replace("spread=0.", "spread=.")),
    ("upper-case E", 1, lambda line: line.replace("spread=0.1", "spread=1E-1")),
    ("underscore", 1, lambda line: line.replace("d_in=1", "d_in=1_")),
]


@pytest.mark.parametrize("form, ln, edit", _LOOSE_FORMS,
                         ids=[f"{form}-line{ln}-{i}" for i, (form, ln, _) in
                              enumerate(_LOOSE_FORMS)])
def test_loose_number_form_exits_3_naming_line(clean_dataset, tmp_path, capsys, form, ln,
                                               edit):
    """Each number form that Python's int and float read but save_dataset
    never writes is refused by name at its line, in the body and in the
    header, before --out is made; the same file with the line as written
    loads."""
    cfg, text = clean_dataset
    lines = text.splitlines(keepends=True)
    lines[ln - 1] = edit(lines[ln - 1])
    path = tmp_path / "dataset.txt"
    path.write_text("".join(lines))
    out = tmp_path / "run"
    assert main(["train", "--config", cfg, "--data", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"i/o failure: {path}:{ln}: {form} in "), err
    assert not out.exists()


def test_exponents_as_written_load(clean_dataset, tmp_path, capsys):
    """%.17g writes exponents with a sign and at least two digits ("e-05",
    "e+20"); the form check passes them, and they load to their values."""
    cfg, text = clean_dataset
    lines = text.splitlines(keepends=True)
    values = [1e-05, 1e+20, -2.5e-300, 5e-324]
    lines[3] = _retoken(lines[3], 2, lambda t: "%.17g %.17g %.17g %.17g" % tuple(values))
    lines[3] = " ".join(lines[3].split()[:-3]) + "\n"  # keep d_in features
    path = tmp_path / "dataset.txt"
    path.write_text("".join(lines))
    assert "e-05 1e+20 -2.5e-300 4.9406564584124654e-324 " in lines[3]
    _, features, _ = cli.load_dataset(path)
    assert features[2, :4].tolist() == values


# boundary and garbage values for any key
_CONFIG_TOKENS = ["0", "-1", "1", "2", "99", "nan", "inf", "1e999", "", "x", "0.5"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(key=("eval", "trials_per_speaker"), value="0")
@example(key=("training", "seed"), value="-1")
@given(key=st.sampled_from(sorted(DEFAULTS)), value=st.sampled_from(_CONFIG_TOKENS))
def test_config_value_is_run_or_named(clean_dataset, key, value):
    """One key set to one boundary or garbage value: train, then evaluate
    the checkpoint, then sweep-batch end in a documented exit code without a
    traceback, and a config error names the key."""
    cfg, text = clean_dataset
    _assert_run_or_named(cfg, text, ".".join(key), value,
                         ["train", "evaluate", "sweep-batch"])


_GRADCHECK_KEYS = sorted(key for key in DEFAULTS if key[0] == "gradcheck")


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@example(key=("gradcheck", "seed"), value="5")
@example(key=("gradcheck", "step"), value="0.5")
@example(key=("gradcheck", "tolerance"), value="nan")
@example(key=("gradcheck", "e2e_tolerance"), value="1")
@given(key=st.sampled_from(_GRADCHECK_KEYS), value=st.sampled_from(_CONFIG_TOKENS))
def test_gradcheck_value_is_run_or_named(clean_dataset, key, value):
    """The same for gradcheck and one [gradcheck] key."""
    cfg, text = clean_dataset
    _assert_run_or_named(cfg, text, ".".join(key), value, ["gradcheck"])


def _assert_run_or_named(cfg, text, name, value, commands):
    """Run commands in turn, while each exits 0, with key name set to value
    in cfg: the last exit code is a documented one, stderr holds no
    traceback, and a config error names the key."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "dataset.txt").write_text(text)
        bad = override(cfg, tmp / "config.ini", name, value)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            for command in commands:
                code = main(command_argv(command, bad, tmp / "dataset.txt",
                                         tmp / "train" / "checkpoint.bin", tmp / command))
                if code != 0:
                    break
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert name in err.getvalue()


@pytest.fixture(scope="module")
def clean_checkpoint(clean_dataset, tmp_path_factory):
    """Bytes of a checkpoint that train wrote for clean_dataset's config."""
    cfg, text = clean_dataset
    root = tmp_path_factory.mktemp("ckpt")
    (root / "dataset.txt").write_text(text)
    assert main(command_argv("train", cfg, root / "dataset.txt", None, root / "run")) == 0
    return (root / "run" / "checkpoint.bin").read_bytes()


_CKPT_ARRAYS = ["encoder.0.weight", "encoder.0.bias", "encoder.1.weight", "encoder.1.bias",
                "proj_w1", "proj_w2", "class_weights"]
_CKPT_KEYS = ["version", "seed", "encoder_dims", "proj_hidden", "d_out", "num_classes",
              "arrays"]


def _mutate(blob, mutation):
    """blob with one mutation: ("truncate", n) keeps n bytes (mod size);
    ("flip", i, mask) xors header byte i (mod header end); ("drop_key", key)
    and ("drop_entry_key", k, key) delete a header key or one of array entry
    k's; ("nan", name, i, value) writes value over element i of that array;
    ("header", obj) replaces the header with obj."""
    kind, *args = mutation
    hlen = int.from_bytes(blob[8:12], "little")
    header, body = json.loads(blob[12:12 + hlen]), bytearray(blob[12 + hlen:])
    if kind == "truncate":
        return blob[:args[0] % len(blob)]
    if kind == "flip":
        out = bytearray(blob)
        out[args[0] % (12 + hlen)] ^= args[1]
        return bytes(out)
    if kind == "drop_key":
        del header[args[0]]
    elif kind == "drop_entry_key":
        del header["arrays"][args[0] % len(header["arrays"])][args[1]]
    elif kind == "header":
        header = args[0]
    elif kind == "nan":
        name, i, value = args
        sizes = [int(np.prod(m["shape"])) for m in header["arrays"]]
        k = [m["name"] for m in header["arrays"]].index(name)
        at = 8 * (sum(sizes[:k]) + i % sizes[k])
        body[at:at + 8] = np.float64(value).tobytes()
    text = json.dumps(header).encode("ascii")
    return blob[:8] + len(text).to_bytes(4, "little") + text + bytes(body)


def _evaluate_checkpoint(clean_dataset, blob, tmp):
    """(exit code, stderr, checkpoint path) of evaluate on blob."""
    cfg, text = clean_dataset
    (tmp / "dataset.txt").write_text(text)
    path = tmp / "checkpoint.bin"
    path.write_bytes(blob)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(command_argv("evaluate", cfg, tmp / "dataset.txt", path, tmp / "eval"))
    return code, err.getvalue(), path


@pytest.mark.parametrize("mutation, named", [
    (("drop_key", "encoder_dims"), "'encoder_dims'"),
    (("drop_key", "arrays"), "'arrays'"),
    (("drop_entry_key", 0, "name"), "entry 0"),
    (("header", []), "not a JSON object"),
    (("nan", "proj_w2", 0, float("nan")), "proj_w2"),
    (("nan", "class_weights", 3, float("nan")), "class_weights"),
], ids=["no-encoder-dims", "no-arrays", "entry-without-name", "list-header",
        "nan-proj-w2", "nan-class-weights"])
def test_malformed_checkpoint_exits_3_naming_it(clean_dataset, clean_checkpoint, tmp_path,
                                                mutation, named):
    code, err, path = _evaluate_checkpoint(clean_dataset, _mutate(clean_checkpoint, mutation),
                                           tmp_path)
    assert code == 3, err
    assert str(path) in err and named in err
    assert "Traceback" not in err


_CKPT_MUTATIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 2**20)),
    st.tuples(st.just("flip"), st.integers(0, 2**20), st.integers(1, 255)),
    st.tuples(st.just("drop_key"), st.sampled_from(_CKPT_KEYS)),
    st.tuples(st.just("drop_entry_key"), st.integers(0, 6), st.sampled_from(["name", "shape"])),
    st.tuples(st.just("nan"), st.sampled_from(_CKPT_ARRAYS), st.integers(0, 2**20),
              st.sampled_from([float("nan"), float("inf"), float("-inf")])))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@example(mutation=("drop_key", "encoder_dims"))
@example(mutation=("drop_key", "arrays"))
@example(mutation=("drop_entry_key", 0, "name"))
@example(mutation=("header", []))
@example(mutation=("nan", "proj_w2", 0, float("nan")))
@example(mutation=("nan", "class_weights", 3, float("nan")))
@given(mutation=_CKPT_MUTATIONS)
def test_corrupted_checkpoint_is_evaluated_or_named(clean_dataset, clean_checkpoint, mutation):
    """A truncated checkpoint, a flipped header byte, a dropped header key or
    a non-finite array entry: evaluate runs it or exits 3 naming the file,
    never with a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        code, err, path = _evaluate_checkpoint(clean_dataset, _mutate(clean_checkpoint, mutation),
                                               Path(tmp))
    assert code in (0, 3), err
    assert "Traceback" not in err
    if code == 3:
        assert str(path) in err


def test_evaluate_rejects_checkpoint_of_another_width(clean_dataset, clean_checkpoint,
                                                      tmp_path, capsys):
    """A checkpoint trained on d_in = 16 and a d_in = 24 dataset: exit 1
    naming both files and both widths, before --out is created."""
    cfg, _ = clean_dataset
    wide = override(cfg, tmp_path / "wide.ini", "dataset.d_in", "24")
    assert main(["generate", "--config", wide, "--out", str(tmp_path / "gen")]) == 0
    checkpoint, data = tmp_path / "checkpoint.bin", tmp_path / "gen" / "dataset.txt"
    checkpoint.write_bytes(clean_checkpoint)
    capsys.readouterr()
    assert main(command_argv("evaluate", cfg, data, checkpoint, tmp_path / "eval")) == 1
    err = capsys.readouterr().err
    assert str(checkpoint) in err and str(data) in err
    assert "d_in = 16" in err and "d_in = 24" in err
    assert "Traceback" not in err
    assert not (tmp_path / "eval").exists()
