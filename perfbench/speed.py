"""The machine's current speed, from a fixed reference kernel timed during the run.

On a shared machine the same code runs 30-70% slower for stretches of
seconds to minutes.  The benchmark times this kernel every SAMPLE_EVERY
seconds of a run and reports every time metric scaled to a machine on which
the kernel takes REFERENCE_MS: a time t becomes t * REFERENCE_MS / kernel_ms,
where kernel_ms is the median of the kernel times taken just before t ended.
The same code slows by nearly the same share as the kernel, so the scaled
times hold still while the machine's speed drifts.  The kernel is pure Python in
the benchmark's own files (stabilization on a grid, fraction-free integer
elimination and a recurrent orbit, the kinds of work the library does), so a change to the
library does not move it.
"""

from __future__ import annotations

import statistics
import time

# Median kernel time on a 2-core x86-64 VM with CPython 3.11, in quiet spells.
REFERENCE_MS = 3.5
SAMPLE_EVERY = 0.25
WINDOW = 5

_SIDE = 12


def _grid():
    n = _SIDE * _SIDE
    nbrs = []
    for i in range(_SIDE):
        for j in range(_SIDE):
            nbrs.append([(i + di) * _SIDE + j + dj for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1))
                         if 0 <= i + di < _SIDE and 0 <= j + dj < _SIDE])
    return n, nbrs


_N, _NBRS = _grid()
_MATRIX = [[(7 * i * i + 13 * j + 5 * i * j) % 97 - 48 + (300 if i == j else 0)
            for j in range(22)] for i in range(22)]


def _orbit() -> int:
    """Recurrent orbit of the 6-cycle cone (320 configurations): closure of
    the maximal stable configuration under add-a-chip-and-stabilize."""
    n = 6
    start = (2,) * n
    seen = {start}
    todo = [start]
    while todo:
        c = todo.pop()
        for v in range(n):
            x = list(c)
            x[v] += 1
            queue = [v] if x[v] >= 3 else []
            while queue:
                i = queue.pop()
                if x[i] >= 3:
                    x[i] -= 3
                    for j in ((i - 1) % n, (i + 1) % n):
                        x[j] += 1
                        if x[j] >= 3:
                            queue.append(j)
                    if x[i] >= 3:
                        queue.append(i)
            t = tuple(x)
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return len(seen)


def kernel() -> int:
    """Topple a 600-chip pile on a 12x12 grid wired to a sink, take a 22x22
    determinant by Bareiss elimination, and enumerate a small recurrent
    orbit; returns a checksum."""
    c = [0] * _N
    c[_N // 2 + _SIDE // 2] = 600
    stack = [_N // 2 + _SIDE // 2]
    while stack:
        i = stack.pop()
        k = c[i] // 4
        if k:
            c[i] -= 4 * k
            for j in _NBRS[i]:
                before = c[j]
                c[j] = before + k
                if before < 4 <= c[j]:
                    stack.append(j)
    m = [row[:] for row in _MATRIX]
    prev = 1
    n = len(m)
    for k in range(n - 1):
        pivot = m[k][k]
        for i in range(k + 1, n):
            mi, mk = m[i], m[k]
            mik = mi[k]
            for j in range(k + 1, n):
                mi[j] = (mi[j] * pivot - mik * mk[j]) // prev
        prev = pivot
    return sum(c) + m[n - 1][n - 1] % 1000003 + _orbit()


class Speed:
    """Kernel times collected over a run, and the scale they give at each moment."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append(1000 * (end - start))
        self._last = end

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY:
            self.sample()

    def scale(self) -> float:
        """Factor that turns a time measured now into a reference-machine time:
        REFERENCE_MS over the median of the last WINDOW kernel times."""
        return REFERENCE_MS / statistics.median(self.samples[-WINDOW:])
