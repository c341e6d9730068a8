"""Latency statistics and the environment block of a result."""

from __future__ import annotations

import os
import platform

TAIL_BEYOND = 10


def tail(latencies) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count).  With n sorted samples that
    is the nearest-rank percentile of rank n - 10.
    """
    values = sorted(latencies)
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"the tail needs more than {TAIL_BEYOND} samples, got {n}")
    rank = n - TAIL_BEYOND
    return values[rank - 1], 100.0 * rank / n, n


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in range(8):
        level = _read(f"{base}/index{index}/level")
        kind = _read(f"{base}/index{index}/type")
        size = _read(f"{base}/index{index}/size")
        if level is None or size is None:
            break
        if kind and kind.strip() != "Instruction" and level.strip() in ("2", "3"):
            sizes[f"L{level.strip()}"] = size.strip()
    return sizes


def environment(thread_vars) -> dict:
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in thread_vars},
    }
