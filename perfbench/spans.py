"""Outside-in span recording for the aamsupcon modules.

Tracer.install() replaces every public function attribute of the package's
modules with a wrapper that records one span per call: run id, name, start
and end (perf_counter_ns) and the index of the enclosing span. Names a module
imported from another one (training.forward, cli.train, evaluate.forward, ...)
are wrapped too, under the name of the module that defines the function, so a
call is seen whichever attribute it goes through. Spans stay in memory until
write() at the end of the run. Nothing under src/ is edited; uninstall()
restores the original attributes.
"""

import functools
import importlib
import time
import types

PACKAGE = "aamsupcon"
MODULES = ("batching", "model", "losses", "geometry", "training", "synthdata",
           "evaluate", "cli")


class Tracer:
    def __init__(self):
        self.spans = []          # (run_id, name, start_ns, end_ns, parent index)
        self.run_id = ""
        self.wrapped = set()     # span names of every function ever wrapped
        self._stack = []
        self._wrappers = {}      # original function -> its wrapper
        self._installed = []     # (module, attribute, original)

    def call(self, name, fn, *args, **kwargs):
        """Call fn inside a span named name (for the benchmark's own calls)."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (tracer.run_id, name, start, end, parent)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every package module.

        cli's own functions are left alone: the benchmark wraps each whole
        command (its call into cli.main), so that command's self time holds
        the CLI's config parsing, manifest hashing and glue."""
        for short in MODULES:
            try:
                module = importlib.import_module(f"{PACKAGE}.{short}")
            except ModuleNotFoundError:  # its functions then read as absent
                continue
            for attr, value in list(vars(module).items()):
                if not (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__.startswith(PACKAGE + ".")
                        and value.__module__ != f"{PACKAGE}.cli"):
                    continue
                name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                wrapper = self._wrappers.get(value)
                if wrapper is None:
                    wrapper = self._wrappers[value] = self._wrap(name, value)
                self.wrapped.add(name)
                setattr(module, attr, wrapper)
                self._installed.append((module, attr, value))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("run_id\tname\tstart_ns\tend_ns\tparent\n")
            for span in self.spans:
                fh.write("%s\t%s\t%d\t%d\t%d\n" % span)


class Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = 0


def summarize(spans, run_ids) -> dict:
    """name -> Stat (calls, total and self nanoseconds) over the spans whose
    run id is in run_ids. Self time is the span's duration minus the time its
    direct children cover."""
    child_ns = [0] * len(spans)
    for run_id, _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats = {}
    for index, (run_id, name, start, end, _) in enumerate(spans):
        if run_id not in run_ids:
            continue
        stat = stats.get(name) or stats.setdefault(name, Stat())
        stat.calls += 1
        stat.total_ns += end - start
        stat.self_ns += end - start - child_ns[index]
    return stats


# Per-layer metrics: (metric, unit, span name, statistic, divisor,
# include_setup). statistic is "calls", "total" or "self" (milliseconds), or
# "mb_per_s" (dataset megabytes over the mean call time). divisor "step" divides
# by the training steps of the traced passes, "call" by the span's own call
# count. Dataset generation and I/O run in set-up on two workloads, so the
# synthdata metrics count the spans of the traced set-up as well; the others
# count only the timed passes.
LAYER_METRICS = (
    ("batching.build_batch.self_ms_per_step", "ms", "batching.build_batch", "self", "step", False),
    ("batching.augment.calls_per_step", "count", "batching.augment", "calls", "step", False),
    ("batching.augment.ms_per_step", "ms", "batching.augment", "total", "step", False),
    ("model.forward.ms_per_call", "ms", "model.forward", "total", "call", False),
    ("model.backward.ms_per_call", "ms", "model.backward", "total", "call", False),
    ("losses.evaluate_loss.ms_per_step", "ms", "losses.evaluate_loss", "total", "step", False),
    ("losses.evaluate_loss.self_ms_per_step", "ms", "losses.evaluate_loss", "self", "step", False),
    ("losses.supcon_loss.self_ms_per_step", "ms", "losses.supcon_loss", "self", "step", False),
    ("losses.build_index_sets.ms_per_step", "ms", "losses.build_index_sets", "total", "step",
     False),
    ("losses.arcface_loss.self_ms_per_step", "ms", "losses.arcface_loss", "self", "step", False),
    ("losses.validate_inputs.calls_per_step", "count", "losses.validate_inputs", "calls", "step",
     False),
    ("geometry.normalize_rows.calls_per_step", "count", "geometry.normalize_rows", "calls",
     "step", False),
    ("training.train.self_ms_per_step", "ms", "training.train", "self", "step", False),
    ("synthdata.generate.ms", "ms", "synthdata.generate", "total", "call", True),
    ("synthdata.save_dataset.mb_per_s", "MB/s", "synthdata.save_dataset", "mb_per_s", "call",
     True),
    ("synthdata.load_dataset.mb_per_s", "MB/s", "synthdata.load_dataset", "mb_per_s", "call",
     True),
    ("evaluate.build_trials.ms", "ms", "evaluate.build_trials", "total", "call", False),
    ("evaluate.score_trials.ms", "ms", "evaluate.score_trials", "total", "call", False),
    ("evaluate.eer.ms", "ms", "evaluate.eer", "total", "call", False),
    ("evaluate.min_dcf.ms", "ms", "evaluate.min_dcf", "total", "call", False),
    ("evaluate.save_trials.ms", "ms", "evaluate.save_trials", "total", "call", False),
    ("evaluate.save_scored_trials.ms", "ms", "evaluate.save_scored_trials", "total", "call",
     False),
    ("cli.generate.self_ms", "ms", "cli.generate", "self", "call", False),
    ("cli.train.self_ms", "ms", "cli.train", "self", "call", False),
    ("cli.evaluate.self_ms", "ms", "cli.evaluate", "self", "call", False),
    ("cli.sweep-batch.self_ms", "ms", "cli.sweep-batch", "self", "call", False),
)


def layer_metrics(pass_stats, all_stats, steps, dataset_bytes):
    """{metric: (value, unit)} for LAYER_METRICS. A function that was never
    called reads 0, as does a per-step metric when no step ran."""
    out = {}
    for metric, unit, name, statistic, divisor, include_setup in LAYER_METRICS:
        stat = (all_stats if include_setup else pass_stats).get(name)
        count = (steps if divisor == "step" else stat.calls) if stat else 0
        if not count:
            value = 0.0
        elif statistic == "calls":
            value = stat.calls / count
        elif statistic == "mb_per_s":
            value = dataset_bytes / 1e6 / (stat.total_ns / 1e9 / count) if stat.total_ns else 0.0
        else:
            value = (stat.total_ns if statistic == "total" else stat.self_ns) / 1e6 / count
        out[metric] = (value, unit)
    return out


def expected_functions():
    """Span names LAYER_METRICS reads that come from wrapped functions."""
    return sorted({name for _, _, name, *_ in LAYER_METRICS if not name.startswith("cli.")})


def step_split(spans, run_ids, rows_per_train_call, steps_per_train_call):
    """Milliseconds per training step by batch rows N, from the given runs:
    the whole training.train span (batch building included), and its direct
    children for batch building, forward, loss and backward. The k-th train
    call of a run trained at rows_per_train_call[k]."""
    # loss_ms matches the trainer's _trace_loss: index sets plus the loss call
    parts = {"batching.build_batch": "batch_ms", "model.forward": "forward_ms",
             "losses.build_index_sets": "loss_ms", "losses.evaluate_loss": "loss_ms",
             "model.backward": "backward_ms"}
    rows_of_train, calls_seen, totals = {}, {}, {}
    for index, (run_id, name, start, end, parent) in enumerate(spans):
        if run_id not in run_ids:
            continue
        ms = (end - start) / 1e6
        if name == "training.train":
            k = calls_seen.get(run_id, 0)
            calls_seen[run_id] = k + 1
            rows = rows_of_train[index] = rows_per_train_call[k % len(rows_per_train_call)]
            row = totals.setdefault(rows, dict.fromkeys(
                ("step_ms", "batch_ms", "forward_ms", "loss_ms", "backward_ms"), 0.0))
            row["steps"] = row.get("steps", 0) + steps_per_train_call
            row["step_ms"] += ms
        elif parent in rows_of_train and name in parts:
            totals[rows_of_train[parent]][parts[name]] += ms
    return {rows: {key: value if key == "steps" else value / row["steps"]
                   for key, value in row.items()}
            for rows, row in sorted(totals.items())}
