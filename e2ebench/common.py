"""Helpers shared by the measured process, the oracle and ``run.py``.

Answers are compared as multisets through an order-insensitive digest:
every row becomes the N-Triples form of its terms (unbound as the empty
string), each row is hashed, and the row hashes are summed modulo 2**64.
Equal multisets give equal digests whatever order an engine returns its
rows in.
"""

from __future__ import annotations

import hashlib
import math
import resource
from typing import Dict, Iterable, List, Sequence, Tuple

_MASK = (1 << 64) - 1


def _row_hash(text: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


def rows_digest(rows: Iterable[Sequence]) -> Tuple[int, str]:
    """``(row count, checksum)`` of a multiset of row tuples."""
    count = 0
    total = 0
    for row in rows:
        count += 1
        text = "\x1f".join("" if term is None else term.n3() for term in row)
        total = (total + _row_hash(text)) & _MASK
    return count, "%016x" % total


def answer_digest(result) -> Tuple[int, str]:
    """``(row count, checksum)`` of a query answer.

    ``result`` is a ``SolutionSequence`` (SELECT; columns in variable-name
    order) or a ``bool`` (ASK).
    """
    if isinstance(result, bool):
        return int(result), "ask:%d" % int(result)
    variables = sorted(result.variables, key=lambda variable: variable.name)
    return rows_digest(
        tuple(binding.get(variable) for variable in variables)
        for binding in result.bindings
    )


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of ``values`` (need not be sorted)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def merge_answers(into: Dict[str, Dict[str, int]], key: str, digest) -> None:
    """Count one observed answer ``digest`` for the answer slot ``key``."""
    slot = into.setdefault(key, {})
    label = "%d:%s" % digest
    slot[label] = slot.get(label, 0) + 1


def mismatches(observed: Dict[str, Dict[str, int]], expected: Dict[str, List]) -> int:
    """Executions whose answer differs from the oracle's (or has none)."""
    failed = 0
    for key, answers in observed.items():
        want = expected.get(key)
        label = None if want is None else "%d:%s" % tuple(want)
        failed += sum(n for got, n in answers.items() if got != label)
    return failed
