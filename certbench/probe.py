"""Machine-speed probe that runs alongside a worker's set-up and timed operations.

On a shared host the speed at which one core runs Python drifts by a
fifth or more over seconds to minutes (other tenants on the sibling
hyperthread, frequency changes, stolen time), and the workloads slow
with it. SpeedProbe samples that speed while the workload runs: every
EVERY_S of wall time a SIGALRM handler times one pass of a fixed loop
shaped like ramseycert's three hot paths:

- a recursive census of the independent sets of size <= 3 in the
  circulant graph C_64(1, 3, ..., 31), as in the DFS census;
- method calls that color the pairs of 40 points through divmod and
  table look-ups, and OR the result into bit rows, as in class building;
- a greedy coloring of 200 vertices of the circulant graph
  C_640(1, 3, 7, ..., 255), whose rows are 640-bit integers, as in the
  clique search's bound.

The loop is benchmark code, so its time moves with the machine and never
with ramseycert. The handler runs between the workload's bytecodes, so
the samples spread evenly over its wall time, and their mean is
proportional to the workload's mean slowdown over that time. Timed
back to back with the probe on a 2-vCPU VM, the hot paths' time varied
by 8-14% between 20-second windows (coefficient of variation), and,
divided by the probe's, by 1% (census), 2% (class building) and 3-6%
(clique search).

A worker reports its times with the probe's own time taken out and
multiplied by `speed` = NOMINAL_S / mean sample, which gives them at the
speed of a machine on which one sample takes NOMINAL_S.
"""

from __future__ import annotations

import signal
import time

EVERY_S = 0.1
NOMINAL_S = 3.0e-3  # typical sample on an idle 2-vCPU Intel Xeon VM, Python 3.11


def _circulant(n: int, steps) -> list[int]:
    return [sum(1 << (v + d) % n | 1 << (v - d) % n for d in steps) for v in range(n)]


CENSUS_N = 64
CENSUS_ADJ = _circulant(CENSUS_N, range(1, 32, 2))
GREEDY_N = 640
GREEDY_ADJ = _circulant(GREEDY_N, (1, 3, 7, 15, 31, 63, 127, 255))
GREEDY_CAND = (1 << 200) - 1
PAIRS_N = 40
EXPECTED = (10976, 279, 2)  # census nodes, color-1 pairs, greedy classes


class _Pairs:
    """A two-level pair coloring, looked up like EdgeColoring.color_of."""

    def __init__(self, block: int, table: list[int]):
        self.block = block
        self._table = table

    def color_of(self, x: int, y: int) -> int:
        a1, b1 = divmod(x, self.block)
        a2, b2 = divmod(y, self.block)
        if a1 != a2:
            return self._table[(a1 * 31 + a2) % len(self._table)]
        return 1 + self._table[(b1 * 17 + b2) % len(self._table)]


PAIRS = _Pairs(9, [1, 2, 3, 1, 2, 3, 2, 1, 3, 3, 1])


def _census(adj: list[int], n: int, max_size: int) -> int:
    nodes = 0

    def extend(cand: int, size: int) -> None:
        nonlocal nodes
        while cand:
            low = cand & -cand
            cand ^= low
            nodes += 1
            if size + 1 < max_size:
                child = cand & ~adj[low.bit_length() - 1]
                if child:
                    extend(child, size + 1)

    extend((1 << n) - 1, 0)
    return nodes


def _pair_rows(pairs: _Pairs, n: int) -> int:
    rows = [0] * n
    color_of = pairs.color_of
    for x in range(n):
        for y in range(x + 1, n):
            if color_of(x, y) == 1:
                rows[x] |= 1 << y
                rows[y] |= 1 << x
    return sum(row.bit_count() for row in rows) // 2


def _greedy_classes(adj: list[int], cand: int) -> int:
    order: list[int] = []  # unused, but built as the clique search's bound builds it
    color = 0
    while cand:
        color += 1
        q = cand
        while q:
            low = q & -q
            order.append(low.bit_length() - 1)
            q &= ~(adj[low.bit_length() - 1] | low)
            cand ^= low
    return color


def sample_seconds() -> float:
    """Wall time of one pass of the probe loop."""
    start = time.perf_counter()
    got = (
        _census(CENSUS_ADJ, CENSUS_N, 3),
        _pair_rows(PAIRS, PAIRS_N),
        _greedy_classes(GREEDY_ADJ, GREEDY_CAND),
    )
    elapsed = time.perf_counter() - start
    if got != EXPECTED:
        raise RuntimeError(f"probe loop gave {got}, expected {EXPECTED}")
    return elapsed


class SpeedProbe:
    """Samples sample_seconds() every EVERY_S of wall time until stopped."""

    def __init__(self):
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(sample_seconds())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, since: int = 0, until: int | None = None) -> float:
        """Seconds spent in samples[since:until]."""
        return sum(self.samples[since:until])

    def speed(self) -> float:
        """NOMINAL_S / mean sample: above 1 on a machine faster than nominal."""
        samples = self.samples or [sample_seconds()]  # a run shorter than EVERY_S
        return NOMINAL_S * len(samples) / sum(samples)
