"""Benchmark of the aamsupcon command-line pipeline: one workload, one seed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 25 --trace 0

The workload's inputs are made from --seed in set-up. The timed passes then
drive the public CLI (aamsupcon.cli.main, in-process, one command at a time,
single-threaded BLAS) until --seconds have passed, and every pass is checked.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, the per-layer metrics with --trace 1. The full record of the run
(environment, every pass, host drift, spans) goes to perfbench/.work/.
perfbench/README.md describes the workloads and metrics.
"""

import os

# BLAS reads these when numpy loads, so they are set before anything imports it.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import probes
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
# Set-up runs SETUP_REPEATS times, and each repetition imports the package in
# IMPORTS_PER_SETUP fresh interpreters. Set-up time is the fastest of these
# imports plus the fastest time to write the inputs. On a shared host one
# import or one input preparation takes up to 2x longer during slow spells of
# several seconds, and the medians over the repetitions moved by up to a
# quarter between two sets of runs of the same code (see README.md).
SETUP_REPEATS = 5
IMPORTS_PER_SETUP = 3
# Pass times are also reported scaled to a host on which the reference kernel
# takes this long (its fastest time on the 2-core host the bounds were set on).
NOMINAL_REF_MS = 20.0
# Run in fresh interpreters in set-up, so that set-up time holds imports
# measured in the run rather than this process's single one.
IMPORT_PROBE = ("import time; started = time.perf_counter(); import numpy, aamsupcon.cli; "
                "print(time.perf_counter() - started)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate untraced and traced passes, report per-layer metrics")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


@contextlib.contextmanager
def tracing(tracer, run_id):
    """Spans on for the block when tracer is given; yields the tracer or None."""
    if tracer is None:
        yield None
        return
    tracer.run_id = run_id
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def run_command(cli, argv, tracer):
    """One CLI command in-process: (exit code, seconds, stderr text). With a
    tracer, the call is the span cli.<command>."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.call(f"cli.{argv[0]}", cli.main, argv)
        seconds = time.perf_counter() - started
    return code, seconds, err.getvalue().strip()


def file_digests(directory: Path) -> dict:
    return {str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def manifest_problems(directory: Path, digests: dict) -> list:
    """Every sha256 a manifest.json records must match the file on disk."""
    problems = []
    for rel in digests:
        if Path(rel).name != "manifest.json":
            continue
        with open(directory / rel, encoding="ascii") as fh:
            checksums = json.load(fh)["checksums"]
        for name, sha in checksums.items():
            if digests.get(str(Path(rel).parent / name)) != sha:
                problems.append(f"{rel}: checksum of {name} does not match the file")
    return problems


@contextlib.contextmanager
def capture_train_results(cli, results):
    """Keep what every training.train call the CLI makes returns: its RunLog
    records carry the per-step wall_time the trainer measures."""
    original = getattr(cli, "train", None)
    if original is None:
        yield
        return

    def train(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    cli.train = train
    try:
        yield
    finally:
        cli.train = original


def run_pass(workload, setup_dir, out, cli, tracer):
    """Run the workload's timed commands once and check what they wrote.
    Returns (record, digests of the outputs or None when a command failed)."""
    shutil.rmtree(out, ignore_errors=True)
    record = {"commands": {}, "problems": []}
    results = []
    try:
        with capture_train_results(cli, results):
            for command, argv in workload.pass_commands(setup_dir, out):
                code, seconds, err = run_command(cli, argv, tracer)
                record["commands"][command] = seconds
                if code != 0:
                    record["problems"].append(f"{command} exited {code}: {err}")
                    break
    except Exception:  # a pass that raises is a failed pass, not a dead run
        record["problems"].append(traceback.format_exc())
    record["wall_s"] = sum(record["commands"].values())
    record["step_s"] = [getattr(r, "wall_time", 0.0) for result in results
                        for r in getattr(result[1], "records", ())]
    if record["problems"]:
        return record, None
    digests = file_digests(out)
    record["problems"] += manifest_problems(out, digests)
    try:
        record["problems"] += workload.check(out)
        record["eer_percent"] = workload.eer_percent(out)
        record["trials"] = workload.trials(out) if workload.eval_command else 0
    except (OSError, KeyError, IndexError, ValueError) as exc:
        record["problems"].append(f"cannot read the pass outputs: {exc!r}")
    return record, digests


def import_seconds() -> float:
    """Seconds to import numpy and aamsupcon.cli in a fresh interpreter."""
    paths = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
                          timeout=120, check=True)
    return float(done.stdout)


def run_setups(workload, setup_dir, cli, tracer):
    """Set up SETUP_REPEATS times, the last one traced when tracing. Each
    repetition imports the package in IMPORTS_PER_SETUP fresh interpreters
    and writes the workload's inputs; all must write the same bytes. Returns
    ({"import_s": [...], "prepare_s": [...]}, digests of the set-up files,
    problems)."""
    seconds, first, problems = {"import_s": [], "prepare_s": []}, None, []
    for rep in range(SETUP_REPEATS):
        shutil.rmtree(setup_dir, ignore_errors=True)
        seconds["import_s"] += [import_seconds() for _ in range(IMPORTS_PER_SETUP)]
        started = time.perf_counter()
        setup_dir.mkdir(parents=True)
        workload.write_config(setup_dir)
        traced = tracer if rep == SETUP_REPEATS - 1 else None
        with tracing(traced, "setup") as active:
            for argv in workload.setup_commands(setup_dir):
                code, _, err = run_command(cli, argv, active)
                if code != 0:
                    raise RuntimeError(f"set-up command {argv[0]} exited {code}: {err}")
        seconds["prepare_s"].append(time.perf_counter() - started)
        digests = file_digests(setup_dir)
        if first is None:
            first = digests
        elif digests != first:
            problems.append(f"set-up repetition {rep} wrote different bytes")
    return seconds, first, problems


def reference_key(env) -> str:
    """What the artifacts of a workload and seed depend on besides the seed:
    the package sources and configs, the benchmark's own files (which hold
    the workload overrides and seed derivation), Python, numpy and BLAS."""
    digest = hashlib.sha256(json.dumps([env["source_sha256"], env["python"], env["numpy"],
                                        env["blas"]], sort_keys=True).encode())
    for path in sorted(BENCH.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def run_passes(workload, setup_dir, out, cli, tracer, seconds, reference, drift_ms):
    """Timed passes until `seconds` have passed; with a tracer, untraced and
    traced passes alternate, at least one of each. Every pass's artifacts
    must equal reference["pass"], which the first clean pass fills when the
    reference is new. The reference kernel is timed before every pass and
    after the last (appended to drift_ms); each pass records the mean of the
    two samples around it as ref_ms."""
    passes, samples = [], []
    deadline = time.perf_counter() + seconds
    while (not passes or time.perf_counter() < deadline
           or (tracer is not None and len(passes) < 2)):
        traced = tracer is not None and len(passes) % 2 == 1
        samples.append(probes.reference_kernel_ms())
        with tracing(tracer if traced else None, f"pass{len(passes)}") as active:
            record, digests = run_pass(workload, setup_dir, out, cli, active)
        record["traced"] = traced
        if digests is not None:
            if "pass" not in reference and not record["problems"]:
                reference["pass"] = digests
            elif "pass" in reference and digests != reference["pass"]:
                changed = sorted(k for k in set(digests) | set(reference["pass"])
                                 if digests.get(k) != reference["pass"].get(k))
                record["problems"].append(f"artifacts differ from the first run: {changed}")
        for problem in record["problems"]:
            print(f"perfbench: pass {len(passes)}: {problem}", file=sys.stderr)
        passes.append(record)
    samples.append(probes.reference_kernel_ms())
    for record, before, after in zip(passes, samples, samples[1:]):
        record["ref_ms"] = (before + after) / 2
    drift_ms.extend(samples)
    return passes


def host_scaled_wall(passes):
    """Median over passes of the pass time scaled to the nominal host: other
    tenants slow the host by up to 2x for seconds to minutes, and the
    reference kernel timed around each pass slows with it (see README.md)."""
    return statistics.median(p["wall_s"] * NOMINAL_REF_MS / p["ref_ms"] for p in passes)


def percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def spread(values):
    """Interquartile range over median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def untraced_figures(workload, passes, setup, drift_ms, peak_gflops):
    """{name: (value, unit)} of the end-to-end figures, from the clean
    untraced passes (all untraced passes if none is clean)."""
    plain = [p for p in passes if not p["traced"]]
    good = [p for p in plain if not p["problems"]] or plain
    failed = sum(1 for p in passes if p["problems"])

    def command_seconds(command):
        times = [p["commands"][command] for p in good if command in p["commands"]]
        return statistics.median(times) if times else 0.0

    step_ms = [s * 1e3 for p in good for s in p["step_s"]]
    train_s = command_seconds(workload.train_command)
    eval_s = command_seconds(workload.eval_command)
    rows_per_pass = workload.steps * sum(workload.rows_per_train_call())
    trials = next((p["trials"] for p in good if "trials" in p), 0)
    figures = {
        "setup_s": (min(setup["import_s"]) + min(setup["prepare_s"]), "s"),
        "wall_norm_s": (host_scaled_wall(good), "s"),
        "wall_s": (statistics.median([p["wall_s"] for p in good]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "train_rows_per_s": (rows_per_pass / train_s if train_s else 0.0, "1/s"),
        "step_ms_p50": (statistics.median(step_ms) if step_ms else 0.0, "ms"),
        "step_ms_p99": (percentile(step_ms, 99), "ms"),
        "eval_trials_per_s": (trials / eval_s if eval_s else 0.0, "1/s"),
        "eer_percent": (next((p["eer_percent"] for p in good if "eer_percent" in p), 0.0), "%"),
        "fail_frac": (failed / len(passes), "ratio"),
        "host.ref_kernel_ms": (statistics.median(drift_ms), "ms"),
        "host.ref_kernel_spread": (spread(drift_ms), "ratio"),
        "probe.dgemm_peak_gflops": (peak_gflops, "GFLOP/s"),
    }
    figures.update(computed_figures(workload, step_ms, peak_gflops))
    return figures


def computed_figures(workload, step_ms, peak_gflops):
    """Matmul MFLOP of one training step computed from the array shapes,
    averaged over the pass's train calls, and the rate the measured steps
    achieve against the dgemm peak."""
    rows_per_call = workload.rows_per_train_call()
    mflop = dict.fromkeys(("model.forward", "model.backward", "losses.supcon",
                           "losses.margin_softmax"), 0.0)
    for rows in rows_per_call:
        counts = probes.step_mflop(
            workload.get("dataset", "d_in"),
            [int(v) for v in workload.config["model"]["encoder_hidden"].split()],
            workload.get("model", "proj_hidden"), workload.get("model", "embedding_dim"),
            workload.get("dataset", "num_speakers"), rows, workload.config["training"]["loss"])
        for key, value in counts.items():
            mflop[key] += value / len(rows_per_call)
    step_mflop = sum(mflop.values())
    achieved = step_mflop / statistics.fmean(step_ms) if step_ms else 0.0
    figures = {f"computed.{key}.mflop_per_step": (value, "MFLOP") for key, value in mflop.items()}
    figures["computed.step.mflop"] = (step_mflop, "MFLOP")
    figures["computed.step.ms_at_peak"] = (step_mflop / peak_gflops, "ms")
    figures["computed.step.achieved_gflops"] = (achieved, "GFLOP/s")
    figures["computed.step.achieved_over_peak"] = (achieved / peak_gflops, "ratio")
    return figures


def traced_figures(workload, passes, tracer, setup_dir, out, untraced_norm_s, record):
    """Per-layer figures from the spans; adds the span details to record."""
    traced_ids = {f"pass{i}" for i, p in enumerate(passes) if p["traced"]}
    pass_stats = spans.summarize(tracer.spans, traced_ids)
    all_stats = spans.summarize(tracer.spans, traced_ids | {"setup"})
    rows_per_call = workload.rows_per_train_call()
    dataset = workload.dataset_path(setup_dir, out)
    figures = spans.layer_metrics(
        pass_stats, all_stats, workload.steps * len(rows_per_call) * len(traced_ids),
        dataset.stat().st_size if dataset.is_file() else 0)
    traced_norm_s = host_scaled_wall([p for p in passes if p["traced"]])
    figures["trace.overhead_frac"] = (traced_norm_s / untraced_norm_s - 1.0, "ratio")
    record["absent_functions"] = [n for n in spans.expected_functions()
                                  if n not in tracer.wrapped]
    record["wrapped_functions"] = sorted(tracer.wrapped)
    record["step_split_ms"] = spans.step_split(tracer.spans, traced_ids, rows_per_call,
                                               workload.steps)
    record["span_calls"] = {name: stat.calls for name, stat in sorted(pass_stats.items())}
    return figures


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "aamsupcon" / "cli.py").is_file():
        print(f"perfbench: no src/aamsupcon under {ROOT}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from aamsupcon import cli
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "aamsupcon":
        print(f"perfbench: imported aamsupcon from {cli.__file__}, not from {ROOT}/src",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    run_dir = WORK / f"{workload.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    setup_dir, out = run_dir / "setup", run_dir / "pass"
    env = probes.environment(ROOT, BLAS_THREAD_VARS)
    tracer = spans.Tracer() if args.trace else None
    drift_ms = [probes.reference_kernel_ms()]

    try:
        setup, setup_digests, problems = run_setups(workload, setup_dir, cli, tracer)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError):
        print(traceback.format_exc(), file=sys.stderr)
        return 1
    peak_gflops = probes.dgemm_peak_gflops()

    # Artifacts must be byte-identical to the first run of this workload and
    # seed on the same inputs, across runs as well as across passes.
    reference_path = WORK / "digests" / f"{workload.name}-s{args.seed}-{reference_key(env)}.json"
    reference = {"setup": setup_digests}
    if reference_path.is_file():
        reference = json.loads(reference_path.read_text(encoding="ascii"))
        if reference["setup"] != setup_digests:
            problems.append("set-up artifacts differ from the first run of this seed")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    new_reference = "pass" not in reference

    passes = run_passes(workload, setup_dir, out, cli, tracer, args.seconds, reference,
                        drift_ms)
    if new_reference and "pass" in reference:
        reference_path.parent.mkdir(parents=True, exist_ok=True)
        reference_path.write_text(json.dumps(reference, indent=1, sort_keys=True),
                                  encoding="ascii")

    figures = untraced_figures(workload, passes, setup, drift_ms, peak_gflops)
    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup": setup, "problems": problems,
        "passes": [{k: v for k, v in p.items() if k != "step_s"} for p in passes],
        "host_drift": {"reference_kernel_ms": drift_ms},
    }
    if tracer is not None:
        figures.update(traced_figures(workload, passes, tracer, setup_dir, out,
                                      figures["wall_norm_s"][0], record))
        (WORK / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / "spans" / f"{workload.name}-s{args.seed}.tsv")
    record["figures"] = {name: {"value": v, "unit": u} for name, (v, u) in figures.items()}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    results_path = WORK / "results" / f"{workload.name}-s{args.seed}-t{args.trace}.json"
    results_path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="ascii")

    declared_names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in declared_names if name not in figures]
    if missing:
        print(f"perfbench: BENCHMARK.json names metrics this run does not compute: {missing}",
              file=sys.stderr)
        return 2
    failed = sum(1 for p in passes if p["problems"])
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {failed} failed; numpy {env['numpy']}, "
          f"python {env['python']}, nproc {env['nproc']}, "
          f"commit {env['git_commit'] or 'unknown'} (sources {env['source_sha256'][:12]})")
    for name, (value, unit) in figures.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  full record: {results_path.relative_to(ROOT)}")
    metrics = {name: {"value": figures[name][0], "unit": figures[name][1]}
               for name in declared_names}
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(passes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
