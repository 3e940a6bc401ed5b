"""Rebuild ``reference.json``, the stored answers the benchmark checks against.

Run from the repository root:

    PYTHONPATH=src python3 bench/make_reference.py

Nothing here comes from the counting engine under test.  Scan counts
come from ``naive_count_avoiders``, the filter over all of S_n; verify
values come from each catalogue entry's own formula, or its stored
prefix where it has none; the parallel count comes from the thm-3.15
formula.  The file is committed so that a later change to the program
cannot move the answers it is checked against.
"""

from __future__ import annotations

import json
from pathlib import Path

from poplab import (
    THEOREMS,
    all_theorem_ids,
    canonical_class,
    enumerate_pops,
    naive_count_avoiders,
    theorem_sequence,
)

VERIFY_NMAX = 8
SCAN_NMAX = {3: 7, 4: 7}
COUNT_POP = "k=4; 3>1, 1>2, 3>4"
COUNT_THEOREM = "thm-3.15"
COUNT_N = 10


def verify_reference() -> list[dict]:
    """Expected a(0..n) for every report ``verify --theorem all`` makes."""
    out = []
    for theorem_id in all_theorem_ids():
        entry = THEOREMS[theorem_id]
        for k in entry.registered_ks() if entry.family else (entry.k_default,):
            if entry.has_formula:
                values = entry.sequence(VERIFY_NMAX, k)
            else:
                stored = entry.prefix(k)
                values = [1, *stored[: min(VERIFY_NMAX, len(stored))]]
            out.append({"id": theorem_id, "k": k, "values": values})
    return out


def scan_reference(length: int, n_max: int) -> list[dict]:
    """Symmetry orbits of every POP of one length, counted by brute force."""
    orbits: dict[int, list] = {}
    for pop in enumerate_pops(length):
        orbits.setdefault(canonical_class(pop).code, []).append(pop)
    out = []
    for code in sorted(orbits):
        members = orbits[code]
        rep = min(members, key=lambda p: p.encode())
        counts = [naive_count_avoiders(rep, n) for n in range(n_max + 1)]
        out.append(
            {
                "pop": rep.to_text(),
                "members": sorted(p.to_text() for p in members),
                "counts": counts,
            }
        )
    return out


def main() -> None:
    reference = {
        "verify": {"n_max": VERIFY_NMAX, "reports": verify_reference()},
        "count": {
            "pop": COUNT_POP,
            "theorem": COUNT_THEOREM,
            "counts": theorem_sequence(COUNT_THEOREM, COUNT_N),
        },
        "scan": {
            str(length): {"n_max": n_max, "orbits": scan_reference(length, n_max)}
            for length, n_max in SCAN_NMAX.items()
        },
    }
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
