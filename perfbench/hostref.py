"""Host-speed reference: a fixed computation timed next to the ops.

The machine this benchmark runs on changes speed by tens of percent
within minutes (shared cores, neighbours' load).  Process CPU time
moves with wall time, so it is no cure.  Instead a fixed reference
computation is timed right before every op, and every op time is
divided by the reference's slowness relative to its nominal time.
Scaled times keep their units: they read as the time the op would
have taken on a host that runs the reference in its nominal time.

The reference never calls the program and allocates nothing through
the C heap per pass: a pass that freed a large temporary would raise
glibc's dynamic mmap threshold and so change how fast the program's own
large arrays are allocated (see README.md).  It has four parts,
because the workloads lean on the host in different ways:

* ``ints`` -- interpreter-bound integer work: cube-mask algebra on
  Python ints, dict updates, a keyed sort;
* ``objects`` -- interpreter-bound object work: small instances,
  attribute access, method calls, comprehensions and keyed sorts, the
  make-up of espresso's cube lists and the annealer's bookkeeping;
* ``arrays`` -- uint64 bitwise passes and a popcount over 8 MiB arrays
  (beyond the per-core cache) into preallocated buffers, the make-up of
  the arena's exhaustive evaluation.  Its buffers (25 MiB) are
  allocated only for the workloads that weigh it;
* ``faults`` -- first touches of a fresh 6 MiB anonymous mapping made
  with ``mmap`` directly (not through malloc): the kernel's page-fault
  and page-zeroing work that the arena's large numpy temporaries pay.

Each workload weighs the parts by what its ops do (``WEIGHTS``); a part
with weight 0 is not run.  The weights were chosen from runs of every
workload on a host whose speed swung by tens of percent between runs:
they are the simple make-ups under which the scaled figures spread
least (see README.md).  A pass runs right before every op, so every op lies
between two passes, and its slowness factor is the mean of the two:
the host's speed interpolated across the op.  Set-up (imports, input
generation, a warm-up op) is interpreter work on every workload and is
scaled by ``SETUP_WEIGHTS``.
"""

from __future__ import annotations

import mmap
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

PARTS = ("ints", "objects", "arrays", "faults")

#: Nominal seconds of one pass per part: a host that runs a part in
#: its nominal time has slowness 1 for it.
NOMINAL_S = {"ints": 0.005, "objects": 0.005, "arrays": 0.005,
             "faults": 0.005}

#: Weights of (ints, objects, arrays, faults) per workload; each sums
#: to 1.
WEIGHTS: Dict[str, Tuple[float, ...]] = {
    "compile_cells": (0.5, 0.5, 0.0, 0.0),
    "table2_flow": (0.4, 0.4, 0.2, 0.0),
    "yield_repair": (0.7, 0.3, 0.0, 0.0),
    "yield_verify": (0.0, 0.0, 0.6, 0.4),
}

#: Weights that scale the set-up time, whatever the workload.
SETUP_WEIGHTS = (0.5, 0.5, 0.0, 0.0)

#: Passes whose median scales the set-up time.
WINDOW = 9

_MASK64 = (1 << 64) - 1
_FAULT_BYTES = 6 << 20
_PAGE = mmap.PAGESIZE


def _ints_part(rounds: int = 7000) -> int:
    x = 0x9E3779B97F4A7C15
    cubes: List[int] = []
    for _ in range(48):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK64
        cubes.append(x | (x >> 1) & 0x5555555555555555)
    counts: Dict[int, int] = {}
    acc = 0
    for i in range(rounds):
        meet = cubes[i % 48] & cubes[(i * 7 + 3) % 48]
        # a cube is void when some two-bit field is 00
        if not ~(meet | (meet >> 1)) & 0x5555555555555555:
            acc += bin(meet).count("1")
        key = (meet >> 40) & 0xFF
        counts[key] = counts.get(key, 0) + 1
        if i % 64 == 0:
            cubes.sort(key=lambda c: (c & 0xFFFF, c >> 48))
    return acc + len(counts)


class _Cube:
    __slots__ = ("inputs", "outputs")

    def __init__(self, inputs: int, outputs: int):
        self.inputs = inputs
        self.outputs = outputs

    def meet(self, other: "_Cube"):
        inputs = self.inputs & other.inputs
        if ~(inputs | (inputs >> 1)) & 0x5555:
            return None
        return _Cube(inputs, self.outputs | other.outputs)


def _objects_part(rounds: int = 30) -> int:
    x = 0x2545F4914F6CDD1D
    cover = []
    for _ in range(40):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK64
        cover.append(_Cube((x | (x >> 1)) & 0xFFFF, x >> 60))
    total = 0
    for _ in range(rounds):
        meets = [c.meet(d) for c in cover[:12] for d in cover]
        kept = sorted((m for m in meets if m is not None),
                      key=lambda m: (bin(m.inputs).count("1"), m.outputs))
        total += len(kept)
        cover = cover[1:] + cover[:1]
    return total


def _faults_part() -> int:
    mapping = mmap.mmap(-1, _FAULT_BYTES)
    view = np.frombuffer(mapping, dtype=np.uint8)
    view[::_PAGE] = 1
    touched = int(view[::_PAGE].sum())
    del view
    mapping.close()
    return touched


class Reference:
    """The fixed reference computation and its rolling measurements."""

    def __init__(self, workload: str):
        self.weights = WEIGHTS[workload]
        if self.weights[PARTS.index("arrays")]:
            rng = np.random.default_rng(12345)
            self._a = rng.integers(0, 2 ** 63, size=1 << 20,
                                   dtype=np.uint64)
            self._b = rng.integers(0, 2 ** 63, size=1 << 20,
                                   dtype=np.uint64)
            self._out = np.empty_like(self._a)
            self._counts = np.empty(self._a.shape, dtype=np.uint8)
        #: raw seconds per pass and part, 0 where the part did not run
        self.samples: List[Tuple[float, ...]] = []

    def _arrays_part(self) -> int:
        a, b, out = self._a, self._b, self._out
        np.right_shift(a, np.uint64(3), out=out)
        np.bitwise_or(out, b, out=out)
        np.bitwise_and(out, a, out=out)
        np.bitwise_count(out, out=self._counts)
        return int(self._counts.sum(dtype=np.int64))

    def _pass(self, weights) -> Tuple[float, ...]:
        parts = (_ints_part, _objects_part, self._arrays_part, _faults_part)
        sample = []
        for run, weight in zip(parts, weights):
            if not weight:
                sample.append(0.0)
                continue
            start = time.perf_counter()
            run()
            sample.append(time.perf_counter() - start)
        return tuple(sample)

    def measure(self) -> int:
        """Time one pass of every weighted part; returns its index."""
        self.samples.append(self._pass(self.weights))
        return len(self.samples) - 1

    def setup_factor(self) -> float:
        """Host slowness for the set-up: the median of ``WINDOW`` passes
        of the set-up make-up."""
        return statistics.median(
            _slowness(SETUP_WEIGHTS, self._pass(SETUP_WEIGHTS))
            for _ in range(WINDOW))

    def factor_between(self, before: int) -> float:
        """Slowness across an op that ran between pass ``before`` and
        the next pass.  Op times are divided by it."""
        return (_slowness(self.weights, self.samples[before]) +
                _slowness(self.weights, self.samples[before + 1])) / 2

    def raw_ms(self) -> float:
        """Median raw duration of one reference pass, in ms."""
        return 1e3 * statistics.median(sum(s) for s in self.samples)


def _slowness(weights, sample) -> float:
    return sum(w * s / NOMINAL_S[p]
               for p, w, s in zip(PARTS, weights, sample))
