"""A fixed stdlib-only task whose time tracks how fast the host runs now.

The host this benchmark was written on (2 cores of an Intel Xeon, in a
container that shares the machine) runs the same code up to 1.3 times
slower for minutes at a time.  run.py times this task in a fresh
process next to every set-up and every CLI run and divides by its
time, which cancels most of that swing; no change to poplab can move
the task.  It does what a poplab set-up does, in miniature: imports
the standard modules poplab uses, then builds and parses a synthetic
stripped-style text of ROWS rows.

    python3 bench/calibrate.py    # prints the task's time in seconds
"""

from __future__ import annotations

import time

ROWS = 6000
TERMS = 20
CHECKSUM = 3018336896  # sum of the first term of every row


def reference_seconds() -> float:
    t0 = time.perf_counter()
    import argparse, concurrent.futures, dataclasses, fractions, itertools, json, math, re, warnings  # noqa: E401,F401

    lines = []
    x = 12345
    for i in range(ROWS):
        terms = []
        for _ in range(TERMS):
            x = (x * 1103515245 + 12345) % 2147483648
            terms.append(str(x % 1_000_000))
        lines.append(f"A{i:06d} ," + ",".join(terms) + ",")
    rows = {}
    for line in "\n".join(lines).splitlines():
        name, _, body = line.partition(" ")
        rows[name] = tuple(int(v) for v in body.strip(",").split(","))
    seconds = time.perf_counter() - t0
    first = sum(terms[0] for terms in rows.values())
    if len(rows) != ROWS or first != CHECKSUM:
        raise ArithmeticError(f"reference task built {len(rows)} rows, first-term sum {first}")
    return seconds


if __name__ == "__main__":
    print(repr(reference_seconds()))
