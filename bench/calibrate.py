"""Fixed reference work that measures how fast the host runs right now.

On a small shared host the speed of a core flips between a fast and a
slow state (the same work takes up to twice as long in the slow one),
within a second and over minutes, so raw wall times of the same code
measured minutes apart differ by more than any useful regression bound.
The benchmark therefore times reference work next to the work it
measures, on the same core, and reports every timing metric in
*reference seconds*: wall seconds scaled by ``nominal / t_ref``, where
``t_ref`` is the reference's wall time measured around the work.  A
reference second is a wall second on a host that runs the reference in
its nominal time.  A slower or faster host moves the work and the
reference together and cancels; a slower program moves only the work.

There are two references, because warm code and fresh processes slow
down by different factors on the same host:

- ``Reference``, a chunk of in-process work that mixes the three kinds
  of cost the in-process workloads have: interpreted Python, many small
  numpy calls (bundle-fleet) and a dense complex ``eigh`` (graded-large,
  twisted-flux);
- ``ProcessReference``, a fresh interpreter importing a fixed set of
  standard modules together with one chunk, for whole processes: set-up,
  ``import torsionlab``, the suite and the CLI commands of cli-cold.

Neither shares any code with torsionlab.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REF_S = 0.008          # nominal duration of one reference chunk, in seconds
PROCESS_REF_S = 0.1    # nominal wall time of one reference process, in seconds

_SMALL = 40     # 8 x 8 Hermitian eigensolves and products per chunk
_LARGE_N = 120  # order of the one dense Hermitian eigensolve per chunk
_LOOP = 20000   # interpreted dictionary updates per chunk
_PROCESS_IMPORTS = "import json, decimal, fractions, email.message, argparse, dataclasses, typing, inspect"


def _hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a + a.conj().T


class Reference:
    """One chunk of in-process work: ``run()`` times it and returns the
    seconds.  It scales operations that run inside a warm process."""

    nominal = REF_S

    def __init__(self) -> None:
        rng = np.random.default_rng(912_2184)
        self._small = [_hermitian(rng, 8) for _ in range(_SMALL)]
        self._large = _hermitian(rng, _LARGE_N)
        for _ in range(3):  # warm the code paths and the buffers
            self.run()

    def _chunk(self) -> None:
        counts: dict[int, int] = {}
        for i in range(_LOOP):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for m in self._small:
            np.linalg.eigh(m)
            m @ m
        np.linalg.eigh(self._large)

    def run(self) -> float:
        t = time.perf_counter()
        self._chunk()
        return time.perf_counter() - t


class ProcessReference:
    """A fresh interpreter that imports a fixed set of standard modules,
    and one in-process chunk: ``run()`` times both and returns their
    geometric mean, in the units of ``nominal`` (each is divided by its
    own nominal time first).  It scales whole processes (set-up, import,
    the suite and CLI commands), which spend part of their time starting
    up on cold caches, tracked by the fresh interpreter, and part in warm
    computation, tracked by the chunk: a fresh process slows with the
    host by a different factor than warm code does."""

    nominal = PROCESS_REF_S

    def __init__(self, env: dict[str, str], cwd: Path) -> None:
        self._cmd = [sys.executable, "-c", _PROCESS_IMPORTS]
        self._env, self._cwd = env, cwd
        self._chunk = Reference()
        self.run()  # the first start reads the modules from disk

    def run(self) -> float:
        t = time.perf_counter()
        subprocess.run(self._cmd, env=self._env, cwd=self._cwd, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=60)
        process = time.perf_counter() - t
        chunk = self._chunk.run()
        return PROCESS_REF_S * math.sqrt(process / PROCESS_REF_S * chunk / REF_S)


def scale(ref_seconds: list[float], nominal: float = REF_S) -> float:
    """Factor from wall seconds to reference seconds, given the reference
    times measured around the work.  The mean, not the median: the host
    flips between a fast and a slow state within a second, and the mean
    weighs the states as the work around them met them."""
    return nominal / statistics.fmean(ref_seconds)
