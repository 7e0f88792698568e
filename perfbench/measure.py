"""Statistics, clocks and machine metadata shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, sample count) for the highest percentile that has
    at least ten samples above it. With fewer than eleven samples no such
    percentile exists and the maximum is reported as percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 100.0, 0
    if n < 11:
        return ordered[-1], 100.0, n
    idx = n - 11  # ten samples lie strictly above this one
    return ordered[idx], 100.0 * (idx + 1) / n, n


def latency_metrics(prefix: str, values_ms) -> dict:
    """The .p50 and .tail metrics of one latency series, with the tail's
    percentile and sample count alongside."""
    value, pct, n = tail(values_ms)
    return {
        f"{prefix}.p50": (median(values_ms), "ms"),
        f"{prefix}.tail": (value, "ms"),
        f"{prefix}.tail_percentile": (pct, "%"),
        f"{prefix}.samples": (n, "count"),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ms_since(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def speed_probe_ms() -> float:
    """Median time of a fixed numpy-and-dict kernel. Recorded at the start
    and end of each run, it shows how fast the shared machine was running,
    which explains outliers between runs; no metric is scaled by it."""
    import numpy as np

    rng = np.random.default_rng(0)
    grid = rng.normal(size=(196, 2048))
    weights = rng.normal(size=(16, 2048))
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        for _ in range(5):
            grid @ weights.T
        table: dict[int, int] = {}
        for i in range(5000):
            table[i % 97] = table.get(i % 97, 0) + i
        times.append(ms_since(t0))
    return median(times)


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when the checkout is not itself the
    top of a git work tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, which identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _blas_name() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def machine_metadata(root: Path, seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_name(),
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }
