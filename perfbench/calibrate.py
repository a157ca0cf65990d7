"""Host-speed calibration: a fixed kernel timed inside every benchmark child.

On a shared VM the speed of a vCPU drifts by tens of percent over minutes
with other tenants' load, and the drift slows every kind of work at once.
The hypervisor also takes the vCPU away at times (steal), which stretches
wall time but not the CPU time the guest counts.  ``kernel_parts`` times
fixed pieces of work that stand for what qkac does: an interpreter loop,
small complex matrix products, a Hermitian ``eigh`` and a pair
contraction on a 4 MB tensor.  It times each part in wall and in CPU
seconds.  ``kernel_s`` is the geometric mean of the parts' times.
``run.py`` multiplies each child's wall times by ``REF_S`` over the wall
kernel time, and its CPU times by ``REF_S`` over the CPU kernel time: the
result is the time the child would have taken on a host where the kernel
takes ``REF_S``, so the drift cancels and a change in qkac does not.

The kernel uses only the standard library and numpy, never qkac, so no
change to the package can move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# kernel time, in seconds, of the reference host that normalised times
# refer to: about the median on a shared 2-vCPU Xeon VM with one BLAS thread
REF_S = 0.015

_RNG = np.random.default_rng(12345)
_A = _RNG.standard_normal((96, 96)) + 1j * _RNG.standard_normal((96, 96))
_H = _A[:64, :64] + _A[:64, :64].conj().T
_PAIR = _A[:4, :4]
_T = (_RNG.standard_normal(2**18) + 1j * _RNG.standard_normal(2**18)).reshape(64, 4, 1024)


def _interpreter() -> None:
    s = 0
    for i in range(160_000):
        s += (i * i) % 7


def _products() -> None:
    m = _A
    for _ in range(80):
        m = (_A @ m) * 0.01


def _eigh() -> None:
    for _ in range(16):
        np.linalg.eigh(_H)


def _pair_contraction() -> None:
    for _ in range(12):
        _PAIR @ _T


PARTS = (_interpreter, _products, _eigh, _pair_contraction)


def kernel_parts() -> dict:
    """Each part's ``wall`` and ``cpu`` time, in seconds."""
    times = {"wall": [], "cpu": []}
    for part in PARTS:
        start, cpu_start = time.perf_counter(), time.process_time()
        part()
        times["cpu"].append(time.process_time() - cpu_start)
        times["wall"].append(time.perf_counter() - start)
    return times


def kernel_s(parts: list) -> float:
    """The geometric mean of the parts' times."""
    return math.exp(sum(map(math.log, parts)) / len(parts))
