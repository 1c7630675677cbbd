"""Machine-speed readings that turn verdict times into adjusted times.

On a shared host the speed of identical code swings by tens of percent for
stretches of seconds to minutes, so raw times from two runs are hard to
compare.  A reading is the mean CPU time of one fixed kernel of the same
grain as qxwit's work (small LAPACK calls, numpy calls on 2- to 8-vectors,
interpreter work on dicts and JSON), run back to back for a burst in the
benchmark process between verdicts, when none of the program's threads is
running.  The mean, not the median, because a verdict's time is the sum of
fast and slow stretches alike.

A one-core verdict's adjusted time is its wall time times
``REFERENCE_S / reading``, where ``reading`` is the mean of the readings just
before and just after it.  A reading is reused for ``EVERY`` seconds, so a
stream of short verdicts shares one.  A burst lasts ``SHARE`` of the time since the previous burst
ended, so the kernel takes a fixed share of the run, and a long verdict gets
a long burst on each side.

A verdict that runs on every core (the exposedness prune pool) is not
described by a one-core reading.  Its time is stretched mostly by the
hypervisor taking the CPUs away (steal time), which CPU-time readings do not
see.  Its adjusted time is its wall time times the share of the CPUs'
runnable time that was not stolen while it ran (``unstolen``).  That share
is the chance that a runnable CPU runs, so it does not depend on how many
CPUs the program keeps busy.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((24, 8)) + 1j * rng.standard_normal((24, 8))
        self.h = self.a.conj().T @ self.a
        self.v = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        self.doc = {"re": self.h.real.tolist(), "im": self.h.imag.tolist()}

    def __call__(self) -> None:
        for _ in range(2):
            np.linalg.svd(self.a, compute_uv=False)
            np.linalg.eigvalsh(self.h)
        x, y, z = self.v
        for _ in range(6):
            v = np.kron(np.kron(x, y), z)
            m = np.outer(v, v.conj())
            np.max(np.abs(m - m.conj().T))
        json.loads(json.dumps(self.doc, sort_keys=True))
        d = {str(i): (i, 2 * i, f"x{i}") for i in range(100)}
        sorted(d.items(), key=lambda kv: -kv[1][1])

    def cpu_s(self) -> float:
        c0 = time.thread_time()
        self()
        return time.thread_time() - c0


class Speed:
    #: Maximum age, in seconds, of a reading that is reused.
    EVERY = 0.5
    #: Share of the elapsed time spent in bursts.
    SHARE = 0.05
    #: Length, in seconds, of the first burst.
    FIRST_S = 0.5
    #: Kernel CPU time of the reference machine.
    REFERENCE_S = 5e-4

    def __init__(self):
        self.kernel = Kernel()
        self.readings: list = []
        self._last = None

    def current(self) -> float:
        """Reading no older than EVERY seconds."""
        now = time.perf_counter()
        if self._last is None or now - self._last >= self.EVERY:
            length = self.FIRST_S if self._last is None else self.SHARE * (now - self._last)
            runs = [self.kernel.cpu_s()]
            while time.perf_counter() - now < length:
                runs.append(self.kernel.cpu_s())
            self.readings.append(statistics.fmean(runs))
            self._last = time.perf_counter()
        return self.readings[-1]

    def adjust(self, seconds: float, before: float, after: float) -> float:
        """Adjusted time of a one-core verdict between readings ``before`` and
        ``after``."""
        return seconds * self.REFERENCE_S / (0.5 * (before + after))

    @staticmethod
    def ticks() -> tuple:
        """(busy, stolen) clock ticks of all CPUs so far, from /proc/stat;
        (0, 0) where that is missing."""
        try:
            with open("/proc/stat", encoding="ascii") as fh:
                f = [int(x) for x in fh.readline().split()[1:9]]
        except (OSError, ValueError):
            return 0, 0
        user, nice, system, _idle, _iowait, irq, softirq, steal = f + [0] * (8 - len(f))
        return user + nice + system + irq + softirq, steal

    @staticmethod
    def unstolen(seconds: float, before: tuple, after: tuple) -> float:
        """Adjusted time of an all-core verdict: wall time ``seconds`` times
        the share of runnable CPU time not stolen between ticks() readings
        ``before`` and ``after``."""
        busy, stolen = after[0] - before[0], after[1] - before[1]
        return seconds * busy / (busy + stolen) if busy + stolen > 0 else seconds
