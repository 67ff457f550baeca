"""Host fingerprint and same-host reference measurements.

Every benchmark output records the host it ran on (cores, Python, numpy,
the BLAS library and its thread count) and two references measured in the
same process: ``ref.matmul_gflops`` — an ``np.matmul`` at the conv-GEMM
shape and dtype of ``fig2_cnn`` — and ``ref.memcpy_gbps``.  A layer
throughput such as ``nn.conv2d.gflops_per_s`` is printed beside its
reference, so the distance to what this host can achieve is explicit.

The BLAS thread count is only read, never set.
"""

from __future__ import annotations

import ctypes
import os
import platform
import time
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["fingerprint", "references", "cpu_times", "steal_share", "CONV_GEMM"]

#: fig2_cnn's largest conv GEMM: PaperCNN conv2 (16 -> 32 channels, 3x3,
#: padding 1) over a 64-sample batch of 28x28 images, at float32 —
#: weight (32, 16*3*3) @ columns (16*3*3, 64*28*28).
CONV_GEMM = (32, 16 * 3 * 3, 64 * 28 * 28)


def _blas_library() -> Optional[str]:
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "blas" in line.lower()}
    except OSError:
        return None
    paths = sorted(p for p in paths if p.startswith("/"))
    return paths[0] if paths else None


def _blas_threads(path: Optional[str]) -> Optional[int]:
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for symbol in (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
        "MKL_Get_Max_Threads",
    ):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            return int(fn())
    return None


def fingerprint() -> Dict[str, object]:
    """Cores, interpreter, numpy and BLAS of this process."""
    try:
        blas_cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_cfg.get('name')} {blas_cfg.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        blas = "unknown"
    path = _blas_library()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(path),
        "machine": platform.machine(),
    }


def cpu_times() -> Optional[Tuple[int, int]]:
    """``(steal, total)`` jiffies of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(x) for x in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def steal_share(before, after) -> Optional[float]:
    """Share of CPU time the hypervisor gave to others between two
    :func:`cpu_times` readings — host contention the run could not see."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def _best_seconds(fn, calls: int, budget_s: float) -> float:
    """Fastest of up to ``calls`` calls made within about ``budget_s``."""
    best = float("inf")
    deadline = time.perf_counter() + budget_s
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        t1 = time.perf_counter()
        best = min(best, t1 - t0)
        if t1 > deadline:
            break
    return best


def references() -> Dict[str, float]:
    """``ref.matmul_gflops`` and ``ref.memcpy_gbps`` measured now, each from
    the fastest of repeated calls: what this host achieves at best."""
    m, k, n = CONV_GEMM
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    out = np.empty((m, n), dtype=np.float32)
    # This GEMM was bimodal on a 2-core host: ~5 ms a call, or ~24 ms in
    # 4 ms steps for a second or more at a time; the fastest call is the
    # achievable rate.
    gemm = _best_seconds(lambda: np.matmul(a, b, out=out), calls=100, budget_s=1.0)
    src = np.ones(8 << 20, dtype=np.float64)  # 64 MiB
    dst = np.empty_like(src)
    copy = _best_seconds(lambda: np.copyto(dst, src), calls=10, budget_s=0.5)
    return {
        "ref.matmul_gflops": 2.0 * m * k * n / gemm / 1e9,
        "ref.memcpy_gbps": src.nbytes / copy / 1e9,
    }
