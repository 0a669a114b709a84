"""A fixed reference workload that gauges how fast the machine runs right now.

On a shared host the speed a process gets swings by tens of percent within
a second, alike for every CPU-bound Python and numpy program on it. The
benchmark interleaves passes of this reference loop with the program's work
and scales the work's CPU time by the passes next to it, so that the gated
figures follow the program's own cost rather than the host's load. The loop
mirrors the fitters' mix of work (seeded generator construction, Gaussian
draws through a Cholesky factor, membership arithmetic on 1000-sample
columns, and small forward-backward recursions in Python) but uses nothing
from the package, so a change to the package cannot move it.

A paced time is CPU seconds times PACE_REF_S over the reference pass's CPU
seconds measured next to them: the CPU time the work would take on a
machine where one pass of the loop takes PACE_REF_S.
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter, process_time

import numpy as np

# the loop's CPU time per pass on a quiet 2-vCPU Xeon VM; only a scale, so
# that paced times read like the seconds they stand for
PACE_REF_S = 0.020
# work CPU time between passes: on that VM the host's load changes within a
# second, and 0.1 s stretches paced by their neighbouring passes kept fixed
# work within 1-2% from minute to minute, where passes a second apart left
# 5-7% and unpaced CPU time 8-13%
STRETCH_S = 0.1

_CHOL_T = np.linalg.cholesky(np.array([[0.30, 0.05], [0.05, 0.20]])).T
_MEAN = np.array([0.4, -0.2])
_TRANS = np.array([[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]])
_LIK = np.random.default_rng(7).uniform(0.05, 1.0, size=(40, 3))


def _draws(k: int) -> float:
    rng = np.random.default_rng([k, 0x6D61, 3, 1, k % 7, 11])
    samples = _MEAN + rng.standard_normal((1000, 2)) @ _CHOL_T
    values = np.column_stack([
        np.exp(-0.5 * ((samples[:, 0] - 0.3) / 0.4) ** 2),
        np.exp(-0.5 * ((samples[:, 1] + 0.1) / 0.5) ** 2),
    ])
    return float(values.prod(axis=1).mean())


def _recursion() -> float:
    alpha = np.full(3, 1.0 / 3.0)
    total = 0.0
    for lik in _LIK:
        alpha = (alpha @ _TRANS) * lik
        norm = alpha.sum()
        alpha = alpha / norm
        total += float(np.log(norm))
    return total


def pace_once() -> float:
    """CPU seconds for one pass of the reference loop."""
    start = process_time()
    acc = 0.0
    for k in range(64):
        acc += _draws(k)
        acc += _recursion()
    elapsed = process_time() - start
    if not np.isfinite(acc):  # keeps the work from being optimized into nothing
        raise RuntimeError("reference loop produced a non-finite value")
    return elapsed


class PacedClock:
    """The process's work time and the same time at the reference pace.

    Work time is the process's CPU time less the time spent in reference
    passes. A pass is taken by `sample`, and by `tick` once STRETCH_S of work
    time has gone by since the last one; the work between two consecutive
    passes is paced by their mean. `paced(t0, t1)` is the paced length of
    the work-time interval [t0, t1].
    """

    def __init__(self, stretch_s: float = STRETCH_S):
        self.stretch_s = stretch_s
        self.samples: list[float] = []  # CPU seconds of each pass
        self.marks: list[float] = []  # work time at each pass
        self._paced_marks: list[float] = []  # paced work time at each pass
        self.cost_s = 0.0  # wall time spent in passes
        self.cpu_cost_s = 0.0  # CPU time spent in passes

    def now(self) -> float:
        return process_time() - self.cpu_cost_s

    def sample(self) -> int:
        """Take a pass now; returns its index."""
        start, cpu_start = perf_counter(), process_time()
        self._record(cpu_start - self.cpu_cost_s, pace_once())
        self.cost_s += perf_counter() - start
        self.cpu_cost_s += process_time() - cpu_start
        return len(self.samples) - 1

    def _record(self, mark: float, pass_s: float) -> None:
        if self.marks:
            speed = PACE_REF_S / ((self.samples[-1] + pass_s) / 2)
            self._paced_marks.append(self._paced_marks[-1] + (mark - self.marks[-1]) * speed)
        else:
            self._paced_marks.append(0.0)
        self.marks.append(mark)
        self.samples.append(pass_s)

    def tick(self) -> None:
        if not self.marks or self.now() - self.marks[-1] >= self.stretch_s:
            self.sample()

    def _paced_at(self, t: float) -> float:
        k = bisect_right(self.marks, t) - 1
        if k < 0:  # before the first pass: paced by it alone
            return (t - self.marks[0]) * PACE_REF_S / self.samples[0]
        if k == len(self.marks) - 1:  # after the last pass
            return self._paced_marks[k] + (t - self.marks[k]) * PACE_REF_S / self.samples[k]
        speed = PACE_REF_S / ((self.samples[k] + self.samples[k + 1]) / 2)
        return self._paced_marks[k] + (t - self.marks[k]) * speed

    def paced(self, t0: float, t1: float) -> float:
        """Paced seconds of the work done between work times t0 and t1."""
        return self._paced_at(t1) - self._paced_at(t0)
