"""Host and environment records kept beside every benchmark run: the software
environment, a fixed reference kernel timed between passes (host drift), a
single-thread dgemm probe (peak arithmetic rate), and the per-step
floating-point operation counts computed from array shapes."""

import hashlib
import os
import platform
import statistics
import subprocess
import time

import numpy as np


def source_digest(root) -> str:
    """sha256 over the package sources and the shipped configs, in path
    order: identifies the code measured when no git commit is available."""
    digest = hashlib.sha256()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "configs").glob("*.ini")]):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit(root):
    """HEAD of the repository at root, or None when root is not the top of a
    git work tree (an exported checkout) or git is unavailable."""
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != str(root):
        return None
    return lines[1]


def environment(root, thread_vars) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in thread_vars},
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }


def reference_kernel_ms() -> float:
    """A fixed mix of small matmuls and elementwise ops, shaped like one
    quickstart layer, timed once. The same work on every call and in every
    commit, so its spread across passes and runs is host drift."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((32, 128))
    w = rng.standard_normal((128, 128)) / np.sqrt(128.0)
    started = time.perf_counter()
    for _ in range(500):
        x = np.maximum(x @ w, 0.0) + 0.01
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    return (time.perf_counter() - started) * 1e3


def dgemm_peak_gflops(n: int = 384, repeats: int = 9) -> float:
    """Median rate of an n x n x n float64 matmul on the BLAS as configured
    (one thread in the benchmark)."""
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a @ b
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - started)
    return 2.0 * n ** 3 / statistics.median(times) / 1e9


def step_mflop(d_in, encoder_hidden, proj_hidden, embedding_dim, num_classes, rows,
               loss) -> dict:
    """Matmul MFLOP of one training step at `rows` batch rows, computed from
    the array shapes (2 flops per multiply-add), classifier in projection
    space. Backward forms a weight gradient and an input gradient per layer,
    twice the forward count. The supervised contrastive term forms the (N, N)
    Gram matrix and the (N, N) x (N, d) gradient; the margin softmax forms
    the (N, C) logits and the two gradients of z W^T."""
    dims = [d_in, *encoder_hidden, proj_hidden, embedding_dim]
    forward = sum(2.0 * rows * a * b for a, b in zip(dims, dims[1:]))
    contrastive = loss in ("supcon", "aamsupcon")
    classifier = loss in ("softmax", "arcface", "aamsupcon")
    return {
        "model.forward": forward / 1e6,
        "model.backward": 2.0 * forward / 1e6,
        "losses.supcon": 4.0 * rows * rows * embedding_dim / 1e6 if contrastive else 0.0,
        "losses.margin_softmax": (6.0 * rows * num_classes * embedding_dim / 1e6
                                  if classifier else 0.0),
    }
