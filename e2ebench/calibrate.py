"""Host-speed calibration for the gated timings.

The host's speed swings by tens of percent, from one second to the next
and from one minute to the next: a fixed pure-Python loop ran between
3.9 and 6.9 ms per call in 1 s windows on a 2-vCPU Xeon virtual machine
with no steal time, and a whole SP2Bench Engine pass between 0.16 and
0.32 s in 5 s windows.  No run is long enough to average the minute-scale
swings out, so raw times often spread over ten runs by more than any
bound the benchmark may set (at most 0.25 of the median).

So the measured process also times :func:`kernel`, a fixed piece of
pure-Python work shaped like the engines' inner loops (frozen-dataclass
terms hashed into dicts and sets, a hash join through a generator, a
sort), between the operations of its loop: before an operation, when
``EVERY_S`` have passed since the last sample.  Each operation's time is
scaled by ``REFERENCE_S`` over the mean of the ``WINDOW`` latest kernel
samples: the time the operation would have taken on a host where the
kernel takes ``REFERENCE_S``.  Scaled this way, the 5 s medians of
single SP2Bench queries spread by 0.02 of their median instead of 0.08.
The kernel does not touch ``repro``, so a change to the program moves
the scaled times by the same factor as the raw ones.  The raw times are
printed beside the scaled ones.

Neither the kernel nor ``REFERENCE_S`` may change once a baseline has
been measured with them: both define the unit of every gated time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter
from typing import List, Tuple

#: The kernel's nominal time: about its time on the machine named above.
REFERENCE_S = 0.006
#: Sample the kernel (~6 ms) at most this often: ~6% of a run.
EVERY_S = 0.1
#: Scale each time by the mean of this many latest kernel samples.
WINDOW = 5


@dataclass(frozen=True, order=True)
class _Node:
    value: str


def _edges() -> List[Tuple[_Node, _Node]]:
    rng = random.Random("e2ebench-calibration")
    nodes = [_Node("n%d" % index) for index in range(500)]
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(700)]


def kernel(edges: List[Tuple[_Node, _Node]]) -> int:
    """Two-hop join of ``edges`` without self-pairs, deduplicated and sorted."""
    index = {}
    for subject, target in edges:
        index.setdefault(subject, []).append(target)

    def joined():
        for subject, middle in edges:
            for target in index.get(middle, ()):
                if subject != target:
                    yield subject, target

    return len(sorted(set(joined())))


class Calibrator:
    """Kernel times sampled across a run, and the scale they give."""

    def __init__(self) -> None:
        self._edges = _edges()
        self._due = 0.0
        self.samples: List[float] = []

    def tick(self) -> float:
        """Sample the kernel if it is due; return the factor from a time
        measured now to that time at the reference host speed."""
        if perf_counter() >= self._due:
            start = perf_counter()
            kernel(self._edges)
            end = perf_counter()
            self.samples.append(end - start)
            self._due = end + EVERY_S
        latest = self.samples[-WINDOW:]
        return REFERENCE_S * len(latest) / sum(latest)
