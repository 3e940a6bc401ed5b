"""Command line interface.

Subcommands:
    expand       print the classical patterns a POP stands for
    count        count the permutations of one length avoiding a POP
    verify       check catalogue entries against brute force
    scan         enumerate all POPs of one length, count, and match
    conjectures  recheck the conjectured identifications

Exit codes: 0 success, 1 a verification or conjecture mismatch or an
entry or conjecture with no evidence (n below k), 2 usage error
(including a count past the ceiling), 3 I/O error, 141 stdout closed by
its reader before the output was written (128 + SIGPIPE, as a shell
reports for a writer that the signal stopped).

Run as a command, ``main()`` with no list (the ``poplab`` script and
``python -m``) calls ``gc.freeze()`` first, so interpreter exit does not
collect the ~12,000 objects that imports made, several ms of a short run;
``main(argv)`` called in-process leaves the caller's collector as it was.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .counting import (
    DEFAULT_CEILING,
    _check_jobs,
    _check_length,
    _pool_map,
    count_avoiders,
    count_avoiders_prefix,
)
from .posets import (
    canonical_class,
    enumerate_pops,
    linear_extensions,
    parse_pop,
    symmetry_orbit,
)

if TYPE_CHECKING:
    from .oeis import OeisDb


def _emit(args: argparse.Namespace, payload: dict, lines: list[str]) -> None:
    """JSON to ``--out`` or, under ``--json``, stdout; text lines unless ``--json``."""
    if args.json or args.out:
        text = json.dumps(payload, indent=2) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            Path(args.out).write_text(text)
    if not args.json:
        for line in lines:
            print(line)


def _pop_text_arg(args: argparse.Namespace) -> str:
    if args.pop is not None and args.pop_positional is not None:
        raise ValueError("give the POP either positionally or with --pop, not both")
    text = args.pop if args.pop is not None else args.pop_positional
    if text is None:
        raise ValueError("a POP is required, e.g. 'k=4; 1>2, 1>3'")
    return text


def cmd_expand(args: argparse.Namespace) -> int:
    pop = parse_pop(_pop_text_arg(args))
    if pop.k > DEFAULT_CEILING:
        raise ValueError(
            f"refusing to list up to k! patterns at k={pop.k} beyond ceiling {DEFAULT_CEILING}"
        )
    patterns = [str(p) for p in linear_extensions(pop)]
    label = "pattern" if len(patterns) == 1 else "patterns"
    _emit(
        args,
        {"schema": 1, "pop": pop.to_text(), "k": pop.k, "patterns": patterns},
        patterns + [f"{len(patterns)} {label}"],
    )
    return 0


def _jobs_arg(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    return args.jobs


def cmd_count(args: argparse.Namespace) -> int:
    pop = parse_pop(_pop_text_arg(args))
    jobs = _jobs_arg(args)
    if (args.n is None) == (args.nmax is None):
        raise ValueError("give exactly one of --n and --nmax")
    if args.n is not None:
        count = count_avoiders(pop, args.n, ceiling=args.ceiling, jobs=jobs)
        payload = {"schema": 1, "pop": pop.to_text(), "n": args.n, "count": count}
        text = str(count)
    else:
        seq = count_avoiders_prefix(pop, args.nmax, ceiling=args.ceiling, jobs=jobs)
        counts = list(seq.counts)
        payload = {"schema": 1, "pop": pop.to_text(), "n_max": args.nmax, "counts": counts}
        text = ",".join(str(c) for c in counts)
    _emit(args, payload, [text])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .theorems import verify_all, verify_theorem

    if args.theorem is not None and args.theorem_positional is not None:
        raise ValueError("give the entry id either positionally or with --theorem")
    theorem = args.theorem if args.theorem is not None else args.theorem_positional
    if theorem is None:
        raise ValueError("an entry id (or 'all') is required")
    if theorem == "all":
        reports = verify_all(args.nmax)
    else:
        reports = [verify_theorem(theorem, args.nmax)]
    failed = [r for r in reports if not r.passed]
    _emit(
        args,
        {"schema": 1, "reports": [r.to_json() for r in reports]},
        [r.to_text() for r in reports]
        + [f"{len(reports) - len(failed)}/{len(reports)} entries verified"],
    )
    return 1 if failed else 0


def cmd_conjectures(args: argparse.Namespace) -> int:
    from .theorems import check_all_conjectures

    reports = check_all_conjectures(args.nmax)
    _emit(
        args,
        {"schema": 1, "conjectures": [r.to_json() for r in reports]},
        [r.to_text() for r in reports],
    )
    return 0 if all(r.supported for r in reports) else 1


# Length 6 has 130023 POPs; length 7 has too many to hold in memory as a list.
MAX_SCAN_LENGTH = 6


def scan_pops(
    length: int, n_max: int, *, db: OeisDb | None = None, jobs: int = 1
) -> dict:
    """Count every POP of the given length, one orbit representative at
    a time, and match the results against the sequence database.

    Grouping a symmetry orbit under one count sequence is exact; POPs
    in one orbit trade places under reversal and complementation of the
    permutations.  Grouping different orbits with equal counts is only
    empirical at the computed range.
    """
    _check_jobs(jobs)
    if length > MAX_SCAN_LENGTH:
        raise ValueError(
            f"scan supports POP lengths up to {MAX_SCAN_LENGTH}, got {length}; "
            f"length 7 alone has 6129859 labelled posets"
        )
    _check_length(n_max, DEFAULT_CEILING)
    pops = enumerate_pops(length)
    orbits: dict[int, list] = {}
    for pop in pops:
        orbits.setdefault(canonical_class(pop).code, []).append(pop)
    codes = sorted(orbits)
    reps = [min(orbits[code], key=lambda p: p.encode()) for code in codes]
    for code, rep in zip(codes, reps):
        if set(symmetry_orbit(rep)) != set(orbits[code]):
            raise AssertionError(f"orbit mismatch for {rep.to_text()}")
    texts = [sorted(p.to_text() for p in orbits[code]) for code in codes]

    # The orbits share one pool; passing jobs on would start a pool per orbit.
    # Each maps to its counts, as marshal cannot write a CountSequence's Pop.
    all_counts = _pool_map(lambda pop: count_avoiders_prefix(pop, n_max).counts, reps, jobs)

    distinct = sorted(set(all_counts))
    class_index = {counts: i + 1 for i, counts in enumerate(distinct)}
    all_matches = [[] for _ in all_counts]
    if db is not None:
        from .oeis import DEFAULT_MIN_OVERLAP, match_sequences

        if n_max >= DEFAULT_MIN_OVERLAP:
            all_matches = match_sequences(db, [counts[1:] for counts in all_counts])
    entries = []
    for code, rep, members, counts, matches in zip(codes, reps, texts, all_counts, all_matches):
        entries.append(
            {
                "pop": rep.to_text(),
                "class_key": code,
                "orbit_size": len(members),
                "members": members,
                "counts": list(counts),
                "wilf_class": class_index[counts],
                "oeis_matches": [m._asdict() for m in matches],
            }
        )
    entries.sort(key=lambda e: (e["wilf_class"], e["class_key"]))
    seen_classes: set[int] = set()
    for entry in entries:
        entry["representative"] = entry["wilf_class"] not in seen_classes
        seen_classes.add(entry["wilf_class"])
    return {
        "schema": 1,
        "length": length,
        "n_max": n_max,
        "pop_count": len(pops),
        "orbit_count": len(reps),
        "wilf_class_count": len(distinct),
        "orbit_grouping": "proved for every length",
        "wilf_grouping": f"empirical at n <= {n_max}",
        "orbits": entries,
    }


def cmd_scan(args: argparse.Namespace) -> int:
    from .oeis import resolve_db

    jobs = _jobs_arg(args)
    db = resolve_db(args.oeis)
    result = scan_pops(args.length, args.nmax, db=db, jobs=jobs)
    lines = [
        f"{result['pop_count']} POPs of length {result['length']}: "
        f"{result['orbit_count']} symmetry orbits (exact), "
        f"{result['wilf_class_count']} distinct count sequences "
        f"at n <= {result['n_max']} (empirical)"
    ]
    for entry in result["orbits"]:
        marker = "*" if entry["representative"] else " "
        ids = ",".join(m["a_number"] for m in entry["oeis_matches"]) or "-"
        terms = ",".join(str(c) for c in entry["counts"][1:])
        lines.append(
            f"{marker} class {entry['wilf_class']:3d}  "
            f"{entry['pop']:<40s} [{terms}] {ids}"
        )
    _emit(args, result, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poplab",
        description="Exact enumeration of permutations avoiding partially ordered patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print the patterns a POP stands for")
    p.add_argument("pop_positional", nargs="?", metavar="POP", help="POP text")
    p.add_argument("--pop", help="POP text, e.g. 'k=4; 1>2, 1>3'")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("count", help="count the avoiders of a POP")
    p.add_argument("pop_positional", nargs="?", metavar="POP", help="POP text")
    p.add_argument("--pop", help="POP text, e.g. 'k=4; 1>2, 1>3'")
    p.add_argument("--n", type=int, help="count one length only")
    p.add_argument("--nmax", type=int, help="print counts for n = 0..nmax")
    p.add_argument("--ceiling", type=int, default=DEFAULT_CEILING)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("verify", help="check catalogue entries against brute force")
    p.add_argument(
        "theorem_positional", nargs="?", metavar="ID", help="an entry id or 'all'"
    )
    p.add_argument("--theorem", help="an entry id or 'all'")
    p.add_argument("--nmax", type=int, default=8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="enumerate, count, and match all POPs of one length")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--oeis", help="stripped file to match against")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("conjectures", help="recheck the conjectured identifications")
    p.add_argument("--nmax", type=int, default=8)
    p.set_defaults(func=cmd_conjectures)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
        p.add_argument("--out", help="write JSON to this path")
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
        return status
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # interpreter's final flush writes nothing, and exit as a shell
        # reports a writer stopped by SIGPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # CeilingExceeded, PopError and OeisError among them
        print(f"error: {exc}", file=sys.stderr)
        # Only scan imports poplab.oeis, so only scan can raise its OeisError.
        oeis = sys.modules.get("poplab.oeis")
        return 3 if oeis is not None and isinstance(exc, oeis.OeisError) else 2


if __name__ == "__main__":
    sys.exit(main())
