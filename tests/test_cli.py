import configparser
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aamsupcon.cli import SWEEP_FOOTER, main
from aamsupcon.model import init_params, load_checkpoint

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


def test_missing_config_is_io_error(tmp_path):
    assert main(["generate", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "x")]) == 3


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
    # with two projection units, evaluated row 21 maps to the zero vector
    # after two steps of training
    cfg = override(write_config(tmp_path, steps=2), tmp_path / "narrow.ini",
                   "model.proj_hidden", "2")
    gen = tmp_path / "gen"
    assert main(["generate", "--config", cfg, "--out", str(gen)]) == 0
    capsys.readouterr()
    assert main(command_argv("sweep-batch", cfg, gen / "dataset.txt", None,
                             tmp_path / "sweep")) == 2
    err = capsys.readouterr().err
    assert "row 21 has norm 0" in err
    assert "Traceback" not in err


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
    ("generate", "--seed", "-1"),
    ("train", "--seed", "-1"),
    ("evaluate", "--seed", "-1"),
    ("gradcheck", "--seed", "-1"),
    ("sweep-batch", "--seed", "-1"),
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
    assert err.count(key) == 1, err
    assert not out.exists()


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


def test_gradcheck_report_and_corrupt_hook(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "gc"
    assert main(["gradcheck", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "gradcheck.json").read_text())
    names = [row["check"] for row in report["rows"]]
    assert names == ["softmax", "arcface", "supcon", "aamsupcon", "end_to_end"]
    assert all(row["passed"] for row in report["rows"])
    capsys.readouterr()

    # the corruption hook perturbs the analytic loss gradients; the four
    # loss rows must fail and force exit code 2
    assert main(["gradcheck", "--config", cfg, "--corrupt"]) == 2
    printed = capsys.readouterr().out
    assert printed.count("FAIL") >= 4


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


def test_module_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "aamsupcon", "--version"],
                          capture_output=True, text=True)
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


# boundary and garbage values for any key
_CONFIG_TOKENS = ["0", "-1", "1", "2", "99", "nan", "inf", "1e999", "", "x", "0.5"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@example(key=("eval", "trials_per_speaker"), value="0")
@example(key=("training", "seed"), value="-1")
@given(key=st.sampled_from(sorted(DEFAULTS)), value=st.sampled_from(_CONFIG_TOKENS))
def test_config_value_is_run_or_named(clean_dataset, key, value):
    """One key set to one boundary or garbage value: train, then evaluate
    the checkpoint, end in a documented exit code without a traceback, and
    a config error names the key."""
    cfg, text = clean_dataset
    name = ".".join(key)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "dataset.txt").write_text(text)
        bad = override(cfg, tmp / "config.ini", name, value)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(command_argv("train", bad, tmp / "dataset.txt", None, tmp / "run"))
            if code == 0:
                code = main(command_argv("evaluate", bad, tmp / "dataset.txt",
                                         tmp / "run" / "checkpoint.bin", tmp / "eval"))
    assert code in (0, 1, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert name in err.getvalue()
