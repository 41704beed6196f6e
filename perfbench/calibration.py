"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the throughput of one core drifts by up to 2x
over seconds to minutes, in wall and CPU time alike, with steal time under
1%.  The drift hits kinds of work differently: interpreter-bound code and
vectorized code on large arrays speed up and slow down independently.
Every timed run therefore also times a fixed kernel of the same kind of
work as its workload's hot loop, built from numpy alone so that no engine
change can alter it.  A time t measured while the kernel takes c seconds is
reported as t * reference / c: the time on a machine where the kernel
takes its reference time.  The raw wall-clock times are printed beside.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(12345)
_Z = _RNG.standard_normal(256) + 1j * _RNG.standard_normal(256)
_A = _RNG.standard_normal((96, 96))
_GRID = _RNG.standard_normal((256, 256)) + 1j * _RNG.standard_normal((256, 256))
_PATHS = _RNG.standard_normal(20_000)


def small_ops() -> None:
    """Interpreter work and small complex numpy calls, like the fast CVA
    path's Newton search and restricted-interval products."""
    acc = 0.0
    for i in range(200):
        acc += float((np.exp(0.01 * _Z[: 32 + i]) * (1.0 + 0.5j)).real.sum())
    acc += float(np.abs(np.fft.fft(_Z, 512)).sum()) + float((_A @ _A).trace())
    for i in range(2000):
        acc += i * 0.5


def dense_complex() -> None:
    """Complex exp and arithmetic on a 256 x 256 array, like a node-kernel
    build."""
    w = np.exp(0.01 * _GRID)
    w = (w * _GRID - 0.5j * _GRID**2) * w
    np.real(w * np.exp(-1j * _GRID.imag))


def path_step() -> None:
    """Elementwise float work on 2e4 paths, like an Euler step."""
    x = _PATHS
    for _ in range(8):
        lam = 0.2 * np.exp(-2.0 * x)
        x = np.clip(x + (0.05 - 0.01 * np.exp(-4.0 * x) - lam * 0.01) * 0.01
                    + 0.1 * np.sqrt(np.abs(x)) * 0.1, -3.0, 3.0)


def matvec() -> None:
    """DCTs and dense matrix-vector products, like a theta step."""
    import scipy.fft

    for _ in range(8):
        h = scipy.fft.dct(_PATHS[:512], type=2)
        _GRID.real @ h[:256]
        np.maximum(h, 0.0)


# Reference time of each kernel: its typical median between requests on the
# 2-vCPU, 2.1 GHz VM where the benchmark was defined (OpenBLAS 0.3.31,
# numpy 2.4.6, one BLAS thread).  They only fix the scale of the reported
# times.
KERNELS = {
    "small_ops": (small_ops, 2.1e-3),
    "dense_complex": (dense_complex, 5.8e-3),
    "path_step": (path_step, 1.5e-3),
    "matvec": (matvec, 0.7e-3),
}


def kernel_seconds(name: str, reps: int = 3) -> float:
    """Median wall time of ``reps`` runs of a kernel, after one untimed run
    that refills the caches the engine evicted."""
    kernel = KERNELS[name][0]
    kernel()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
