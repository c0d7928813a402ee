"""A fixed, stdlib-only reference job that paces the benchmark's timings.

The host this benchmark was tuned on switches between a fast and a slow
state for spells from a second to longer than a run.  The slow state slows
allocation-heavy interpreter work (JSON encoding, ``Fraction`` arithmetic,
small objects) by up to 1.7 times, while a tight integer loop barely moves,
so no fastest or median time of a run is steady when a whole run falls in
one state.  The reference job does the same kinds of work as ``fanocert``:
a recursive type walk and ``json.dumps(indent=2)`` of a report-shaped
document, ``Fraction`` arithmetic and frozen dataclasses.  Timed next to the
program's ops, it slows with them; their ratio stays put (within about 5%
between the two states, against 1.7 times for the raw times).

The job is built from a fixed seed and does not depend on the run's
``--seed`` or on ``fanocert``, so a change to the program cannot move it.
``REFERENCE_MS`` scales the ratios back to milliseconds: about the job's
fastest time in the fast state of the tuning host (Intel Xeon, 2 vCPUs,
Python 3.11).

Run as a script, a fresh interpreter does the job ``CHILD_ROUNDS`` more
times after importing it.  This *reference child* paces the cold ``cli``
children, whose time is mostly interpreter start, imports and page faults
of a new process, which the job in process does not see.
``REFERENCE_CHILD_MS`` is about its fastest wall time on the same host.

    python3 bench/reference.py
"""
from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

REFERENCE_MS = 6.0
REFERENCE_CHILD_MS = 80.0
CHILD_ROUNDS = 4


@dataclass(frozen=True)
class _Point:
    a: int
    b: int

    def pair(self, other: "_Point") -> int:
        return self.a * other.a - self.b * other.b


def _document(rng: random.Random) -> list:
    return [{"case_id": row, "family": rng.choice(("q", "v4", "v5", "x14")),
             "d": rng.randrange(1, 30), "g": rng.randrange(15),
             "expected": "realizable", "computed": "realizable",
             "checks": [{"name": f"check-{col}", "passed": rng.random() < 0.9,
                         "detail": f"value {rng.randrange(10 ** 6)}",
                         "values": [rng.randrange(100) for _ in range(3)]}
                        for col in range(20)],
             "discrepancies": []} for row in range(12)]


_RNG = random.Random(20111)
_DOCUMENT = _document(_RNG)
_FRACTIONS = [Fraction(_RNG.randrange(1, 60), _RNG.randrange(1, 60)) for _ in range(120)]
_POINTS = [(_RNG.randrange(-20, 20), _RNG.randrange(-20, 20)) for _ in range(450)]


def _walk(node) -> int:
    if isinstance(node, dict):
        return sum(_walk(value) for value in node.values())
    if isinstance(node, list):
        return sum(_walk(value) for value in node)
    return 1


def _row(row: dict) -> int:
    return _walk(row) + len(json.dumps(row, indent=2))


def _fractions(values: list) -> int:
    total = Fraction(0)
    for value in values:
        total = total + value * value - value / 3
    return total.denominator % 997


def _points(pairs: list) -> int:
    points = [_Point(a, b) for a, b in pairs]
    return sum(p.pair(q) for p, q in zip(points, points[1:]))


# The job in pieces of a few tenths of a millisecond, each timed on its own.
PIECES = ([functools.partial(_row, row) for row in _DOCUMENT]
          + [functools.partial(_fractions, _FRACTIONS[i:i + 30]) for i in range(0, 120, 30)]
          + [functools.partial(_points, _POINTS[i:i + 150]) for i in range(0, 450, 150)])


# What each piece returns, the same on every call.
RESULTS = [piece() for piece in PIECES]


if __name__ == "__main__":
    for _ in range(CHILD_ROUNDS):
        if [piece() for piece in PIECES] != RESULTS:
            raise SystemExit("reference job returned other results")
