"""Workload definitions, seeded inputs and reference checks.

Every answer is checked against ``reference.json`` (see
``make_reference.py``) or against this file's own sequence matcher,
never against the counting engine under test.  Nothing here imports
poplab, so the untraced benchmark observes the program only through
its command line.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
BUNDLED_DB = SRC / "poplab" / "data" / "stripped"
OUT_DIR = ROOT / ".bench_build"
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text())

# The scan's sequence matcher needs at least this many terms and may
# skip up to MAX_SHIFT leading stored terms (poplab.oeis defaults).
MIN_OVERLAP = 7
MAX_SHIFT = 4
NEAR_MISSES_PER_CLASS = 3
SYNTHETIC_A_NUMBERS = range(9_000_000, 10_000_000)


@dataclass(frozen=True)
class Size:
    """How large each workload's command is."""

    verify_nmax: int
    scan_length: int
    scan_nmax: int
    db_rows: int
    count_n: int


# FULL is what the benchmark measures.  TINY exercises every metric and
# every check in seconds; the traced run also replays it as a coverage
# pass (see tracing.py).  20000 rows make sequence matching the largest
# share of a length-4 scan while one CLI run stays under 10 s.  Verify
# stops at n=7 and the count at n=9, one to two seconds each, so that a
# run holds ten or more CLI runs of each: with two or three, the medians
# of ten runs spread by 20% on the host this was written on.
FULL = Size(verify_nmax=7, scan_length=4, scan_nmax=7, db_rows=20_000, count_n=9)
TINY = Size(verify_nmax=5, scan_length=3, scan_nmax=7, db_rows=400, count_n=7)

COUNT_JOBS = 2
# Processes each workload keeps busy, so as many reference tasks run at once.
PROCESSES = {"verify_catalogue": 1, "scan_oeis": 1, "count_parallel": COUNT_JOBS}


@dataclass(frozen=True)
class Database:
    """A generated stripped file and what was planted in it."""

    path: Path
    seed: int
    rows: dict[str, tuple[int, ...]]
    planted: dict[str, tuple[int, ...]]
    expected: dict[tuple[int, ...], list[dict]]

    def describe(self) -> str:
        return (
            f"db seed {self.seed}, {len(self.rows)} rows, "
            f"{len(self.planted)} planted, {self.path.name}"
        )


def scan_reference(size: Size) -> dict:
    ref = REFERENCE["scan"][str(size.scan_length)]
    if ref["n_max"] != size.scan_nmax:
        raise ValueError(f"reference.json holds length {size.scan_length} only to n={ref['n_max']}")
    return ref


def class_terms(size: Size) -> list[tuple[int, ...]]:
    """The distinct count sequences, from n = 1, of the scanned length."""
    return sorted({tuple(o["counts"][1:]) for o in scan_reference(size)["orbits"]})


def _parse_row(line: str) -> tuple[str, tuple[int, ...]]:
    a_number, payload = line.split(None, 1)
    return a_number, tuple(int(t) for t in payload.strip().strip(",").split(","))


def _continue(rng: random.Random, last: int, count: int) -> list[int]:
    out = []
    for _ in range(count):
        last = last * rng.randint(2, 4) + rng.randint(0, 9)
        out.append(last)
    return out


def reference_matches(
    rows: dict[str, tuple[int, ...]], queries: list[tuple[int, ...]]
) -> dict[tuple[int, ...], list[dict]]:
    """The matches ``scan`` must report for each query.

    With exactly MIN_OVERLAP computed terms no leading term can be
    dropped, so a row matches when some shift s <= MAX_SHIFT gives
    ``row[s:s + 7] == terms``; the smallest such s is reported.  This
    indexes the row windows instead of scanning rows per query, so it
    shares no logic with ``poplab.oeis.match_sequence``.
    """
    if any(len(q) != MIN_OVERLAP for q in queries):
        raise ValueError(f"reference matching needs exactly {MIN_OVERLAP} terms")
    wanted = {q: [] for q in queries}
    for a_number in sorted(rows):
        stored = rows[a_number]
        seen = set()
        for shift in range(MAX_SHIFT + 1):
            window = stored[shift : shift + MIN_OVERLAP]
            if len(window) < MIN_OVERLAP:
                break
            if window in wanted and window not in seen:
                seen.add(window)
                wanted[window].append(
                    {"a_number": a_number, "shift": shift, "dropped": 0, "overlap": MIN_OVERLAP}
                )
    for found in wanted.values():
        found.sort(key=lambda m: (m["shift"], m["a_number"]))
    return wanted


def build_database(size: Size, seed: int, out_dir: Path) -> Database:
    """Write a seeded stripped file of ``size.db_rows`` rows.

    It holds the bundled rows; each count sequence of the scan planted
    once, behind 0-4 leading zeros so every shift is used; near misses
    that agree with a planted sequence on its first 3-6 terms; and
    random filler.
    """
    rng = random.Random(seed)
    bundled = dict(
        _parse_row(line)
        for line in BUNDLED_DB.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    )
    classes = class_terms(size)
    synthetic = [
        f"A{n:07d}"
        for n in rng.sample(SYNTHETIC_A_NUMBERS, size.db_rows - len(bundled))
    ]
    rows = dict(bundled)
    planted = {}
    for i, terms in enumerate(classes):
        a_number = synthetic.pop()
        row = (0,) * (i % (MAX_SHIFT + 1)) + terms
        rows[a_number] = row + tuple(_continue(rng, max(terms[-1], 1), rng.randint(0, 4)))
        planted[a_number] = terms
    for terms in classes:
        for _ in range(NEAR_MISSES_PER_CLASS):
            keep = rng.randint(3, MIN_OVERLAP - 1)
            head = (0,) * rng.randint(0, MAX_SHIFT) + terms[:keep]
            head += (terms[keep] + rng.randint(1, 9),)
            rows[synthetic.pop()] = head + tuple(_continue(rng, head[-1], rng.randint(3, 8)))
    while synthetic:
        length = rng.randint(8, 20)
        rows[synthetic.pop()] = (1, *_continue(rng, 1, length - 1))
    if len(rows) != size.db_rows:
        raise ValueError(f"database has {len(rows)} rows, wanted {size.db_rows}")

    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"stripped-len{size.scan_length}-{size.db_rows}-seed{seed}"
    lines = [
        f"# synthetic stripped file: seed={seed} rows={len(rows)} planted={len(planted)}"
    ]
    lines += [
        f"{a} ,{','.join(str(t) for t in rows[a])}," for a in sorted(rows)
    ]
    path.write_text("\n".join(lines) + "\n")
    return Database(path, seed, rows, planted, reference_matches(rows, classes))


# ----------------------------------------------------------------------
# Commands and checks.  A check returns a list of problems, empty when
# the output is right.


def command(workload: str, size: Size, db: Database | None) -> list[str]:
    if workload == "verify_catalogue":
        return ["verify", "--theorem", "all", "--nmax", str(size.verify_nmax), "--json"]
    if workload == "scan_oeis":
        return [
            "scan", "--length", str(size.scan_length), "--nmax", str(size.scan_nmax),
            "--json", "--oeis", str(db.path),
        ]
    if workload == "count_parallel":
        return [
            "count", "--pop", REFERENCE["count"]["pop"], "--n", str(size.count_n),
            "--jobs", str(COUNT_JOBS), "--json",
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _check_verify(doc: dict, size: Size, db: Database | None) -> list[str]:
    expected = REFERENCE["verify"]["reports"]
    reports = doc["reports"]
    if [(r["id"], r["k"]) for r in reports] != [(e["id"], e["k"]) for e in expected]:
        return ["verify reported a different list of entries"]
    problems = []
    for report, ref in zip(reports, expected):
        values = ref["values"][: size.verify_nmax + 1]
        rows = report["rows"]
        if not report["passed"]:
            problems.append(f"{report['id']} k={report['k']} not passed")
        if [r["n"] for r in rows] != list(range(len(values))):
            problems.append(f"{report['id']} k={report['k']} checked other lengths")
        elif any(r["brute_value"] != v or r["formula_value"] != v for r, v in zip(rows, values)):
            problems.append(f"{report['id']} k={report['k']} values differ from reference")
    return problems


def _check_count(doc: dict, size: Size, db: Database | None) -> list[str]:
    want = REFERENCE["count"]["counts"][size.count_n]
    if doc.get("n") != size.count_n or doc.get("count") != want:
        return [f"count gave {doc.get('count')} at n={doc.get('n')}, reference {want}"]
    return []


def _check_scan(doc: dict, size: Size, db: Database | None) -> list[str]:
    ref = scan_reference(size)
    orbits = {o["pop"]: o for o in ref["orbits"]}
    problems = []
    summary = (doc["length"], doc["n_max"], doc["pop_count"], doc["orbit_count"], doc["wilf_class_count"])
    want = (
        size.scan_length,
        size.scan_nmax,
        sum(len(o["members"]) for o in ref["orbits"]),
        len(orbits),
        len(class_terms(size)),
    )
    if summary != want:
        problems.append(f"scan summary {summary}, reference {want}")
    if sorted(e["pop"] for e in doc["orbits"]) != sorted(orbits):
        return problems + ["scan reported other orbit representatives"]
    classes: dict[tuple[int, ...], set[int]] = {}
    found_planted = set()
    for entry in doc["orbits"]:
        ref_orbit = orbits[entry["pop"]]
        if entry["counts"] != ref_orbit["counts"] or entry["members"] != ref_orbit["members"]:
            problems.append(f"orbit {entry['pop']} differs from reference")
        classes.setdefault(tuple(entry["counts"]), set()).add(entry["wilf_class"])
        want_matches = db.expected[tuple(ref_orbit["counts"][1:])]
        if entry["oeis_matches"] != want_matches:
            problems.append(f"orbit {entry['pop']} matches differ from reference")
        found_planted.update(m["a_number"] for m in entry["oeis_matches"] if m["a_number"] in db.planted)
    labels = [c for group in classes.values() for c in group]
    if any(len(group) != 1 for group in classes.values()) or len(set(labels)) != len(labels):
        problems.append("wilf classes do not follow the counts")
    if found_planted != set(db.planted):
        problems.append(f"found {len(found_planted)} of {len(db.planted)} planted rows")
    return problems


CHECKS = {
    "verify_catalogue": _check_verify,
    "scan_oeis": _check_scan,
    "count_parallel": _check_count,
}
WORKLOADS = tuple(CHECKS)


def check_output(workload: str, size: Size, db: Database | None, returncode: int, stdout: str) -> list[str]:
    """Problems with one run's exit code and JSON output."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["output is not JSON"]
    try:
        return CHECKS[workload](doc, size, db)
    except (KeyError, TypeError) as exc:
        return [f"output lacks an expected field: {exc!r}"]
