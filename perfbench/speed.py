"""Machine speed, sampled through a run, to scale its timings.

A shared host changes speed by 10-40% for seconds to minutes at a time,
while the benchmark's process runs alone on its CPU: the same fixed loop
takes longer in wall and in CPU time alike. A run of 30 s cannot average
that away, so its raw seconds spread as much as the host drifts.

`SpeedProbe` runs a fixed reference kernel, which does not touch the
`nfdlm` package, every `PERIOD_S` seconds of wall time for the whole run
(from a SIGALRM handler, so it interleaves with the package's own code at
sub-second grain). `clock()` is `time.perf_counter()` minus the time spent
in the handler, so timed work excludes the kernel. `scale(start, end)` is
the kernel's reference duration over its mean duration between two
readings: a timing multiplied by the scale of the period it ran in reads
as seconds on a host running at the reference speed. Work the package does
faster or slower moves a scaled timing exactly as it moves the raw one;
only the host's speed is divided out.

Host slowdowns hit kinds of work unequally, so each workload names the
kernel closest to its own work (see perfbench/README.md for the
recordings behind each choice).
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

PERIOD_S = 0.15

_rng = np.random.default_rng(0)
_SMALL_X = _rng.standard_normal((20, 30))
_SMALL_W = _rng.standard_normal((30, 30))
_SMALL_OUT = _rng.standard_normal((30, 1))
_GATE_X = _rng.standard_normal((32, 128))
_GATE_W = _rng.standard_normal((128, 512))
_CSV_LINES = [",".join(repr(v) for v in _rng.standard_normal(36).tolist()) for _ in range(12)]
_COLUMNS = _rng.standard_normal((1000, 36))


def _small_steps(steps: int) -> float:
    """A Python loop of batch-20 MLP-sized products and updates."""
    w, out = _SMALL_W.copy(), _SMALL_OUT.copy()
    m = np.zeros_like(w)
    for _ in range(steps):
        h = np.maximum(_SMALL_X @ w, 0.0)
        g = h.T @ (h @ out - 1.0)
        m = 0.9 * m + 0.1 * (_SMALL_X.T @ (h @ (out @ out.T)))
        w -= 1e-4 * m / (np.sqrt(m * m) + 1e-8)
        out -= 1e-4 * g
    return float(w.sum())


def small_step_kernel() -> float:
    """Tiny-batch training alone: interpreter and per-call numpy cost."""
    return _small_steps(30)


def mixed_kernel() -> float:
    """Tiny-batch steps, LSTM-gate-sized products and activations, and
    parsing CSV text plus column statistics."""
    total = _small_steps(15)
    c = np.zeros((32, 128))
    for _ in range(3):
        z = _GATE_X @ _GATE_W
        gate = 1.0 / (1.0 + np.exp(-z[:, :128]))
        c = 0.5 * c + np.tanh(z[:, 128:256]) * gate
    rows = np.array([[float(cell) for cell in line.split(",")] for line in _CSV_LINES])
    spread = (_COLUMNS - _COLUMNS.mean(axis=0)).std(axis=0)
    return total + float(np.tanh(c).sum() + rows.sum() + spread.sum())


@dataclass(frozen=True)
class Kernel:
    run: Callable[[], float]
    # Mean seconds of a timed pass on the 2-CPU Xeon VM that measured the
    # baseline (numpy 2.4, OpenBLAS, 1 thread), with nothing else running.
    reference_s: float


SMALL_STEPS = Kernel(small_step_kernel, 0.00115)
MIXED = Kernel(mixed_kernel, 0.0019)


class SpeedProbe:
    """Samples a reference kernel every PERIOD_S seconds inside a `with`
    block; see the module docstring."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.samples: list[tuple[float, float]] = []  # (taken at, seconds)
        self.busy_s = 0.0  # wall time spent inside the handler
        self._saved = None

    def clock(self) -> float:
        return time.perf_counter() - self.busy_s

    def _tick(self, signum, frame) -> None:
        entered = time.perf_counter()
        # An untimed pass first restores what the package's work disturbed
        # (caches, allocator state), so the timed pass sees the host's speed
        # and not how much memory the work touches: after a 3.8 MB update
        # loop a lone pass of MIXED ran 18% slower than after a 0.3 MB one,
        # the second pass 0.3% slower. A change to the package that shrinks
        # its working set then leaves the scale alone.
        self.kernel.run()
        timed = time.perf_counter()
        self.kernel.run()
        self.samples.append((entered, time.perf_counter() - timed))
        self.busy_s += time.perf_counter() - entered

    def scale(self, start: float, end: float) -> float:
        """Scale for work timed between two `time.perf_counter()` readings:
        from the samples taken between them, or all samples if none were."""
        inside = [d for t, d in self.samples if start <= t <= end]
        return self.kernel.reference_s / statistics.fmean(inside or [d for _, d in self.samples])

    def __enter__(self) -> "SpeedProbe":
        self.kernel.run()  # warm up
        self._tick(signal.SIGALRM, None)  # a first sample, so scale() has one
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
