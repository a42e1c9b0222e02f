"""Probes of the machine's speed, for pacing the benchmark's timings.

The benchmark's host changes speed all the time: on the 2-vCPU virtual
machine of NOTES.md a fixed piece of pure-Python work takes either about 5
or about 8 ms, flipping every 0.1 s or so, and the mix drifts over minutes.
A probe times one pass of such work (``_pace_work``).  An in-process
operation takes probes every PROBE_EVERY_S of its CPU time, from a signal
handler, and one before and one after it; a child interpreter takes them
itself (``child_main``).  An operation's time is its wall time less the
probes' own time; multiplied by a speed (PACE_REF_S / probe time) it gives
seconds at the reference speed.  run.py says which speed each timing gets.
"""

from __future__ import annotations

import json
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import mpmath  # imported here so that no probe imports it

PACE_REF_S = 0.003  # about a probe's time on that machine when it runs fast
PROBE_EVERY_S = 0.1  # probes during an operation, one per this much CPU time
_PACE_MATRIX = [
    [Fraction(random.Random(f"pace:{i}:{j}").randint(-9, 9)) for j in range(6)]
    for i in range(6)
]


def _pace_work() -> None:
    """Exact elimination, 128-bit complex arithmetic and dictionary work,
    like the program's own, outside the program so that no change to the
    program changes it."""
    a = [row[:] for row in _PACE_MATRIX]
    for i in range(len(a)):
        p = next(k for k in range(i, len(a)) if a[k][i])
        a[i], a[p] = a[p], a[i]
        for k in range(i + 1, len(a)):
            f = a[k][i] / a[i][i]
            for j in range(i, len(a)):
                a[k][j] -= f * a[i][j]
    with mpmath.workprec(128):
        z, w = mpmath.mpc(1, 2) / 7, mpmath.mpc(-3, 1) / 11
        terms: dict = {}
        for k in range(100):
            terms[k % 17] = terms.get(k % 17, 0) + (z * w + k) / (w - k)


class Probes:
    """The probes' speeds around and during one operation, and their time."""

    def __init__(self, before: float | None = None):
        """``before``: the speed of the probe taken after the previous
        operation on this CPU, if it ran right before; else one is taken."""
        self.speeds: list = []
        self.spent = 0.0
        if before is None:
            self.take()
        else:
            self.speeds.append(before)

    def take(self, *_signal) -> float:
        start = perf_counter()
        _pace_work()
        seconds = perf_counter() - start
        self.spent += seconds
        self.speeds.append(PACE_REF_S / seconds)
        return self.speeds[-1]

    def start(self) -> None:
        """Take probes every PROBE_EVERY_S of this process's CPU time."""
        signal.signal(signal.SIGVTALRM, self.take)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def speed(self) -> float:
        return statistics.fmean(self.speeds)


def child_main(out_path: str, argv: list[str]) -> int:
    """Run the CLI once in this interpreter, taking probes all the while,
    and write their speeds and time to ``out_path``."""
    probes = Probes()
    probes.start()
    try:
        from residuum.cli import main

        return main(argv)
    finally:
        probes.stop()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"speeds": probes.speeds, "spent": probes.spent}, fh)
