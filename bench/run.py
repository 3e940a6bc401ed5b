"""poplab benchmark: three command-line workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload verify_catalogue --seed 1 --seconds 36 --trace 0

Workloads (each runs ``python -m poplab.cli`` in a fresh process):

    verify_catalogue  verify --theorem all --nmax 7 --json
    scan_oeis         scan --length 4 --nmax 7 --json --oeis <seeded file>
    count_parallel    count --pop "k=4; 3>1, 1>2, 3>4" --n 9 --jobs 2 --json

With ``--trace 0`` the benchmark times one workload in a closed loop,
one CLI run after another for ``--seconds``, and reports:

    wall_cal, cpu_cal  median over CLI runs of the run's wall and CPU
                       time (user plus system, pool workers included)
                       divided by the median time of the reference
                       task (calibrate.py) run just before and after it
    setup_s            median over fresh processes of the time to
                       import poplab and load the workload's database,
                       divided by the time of a reference task run just
                       before it, times REFERENCE_TASK_S: the set-up
                       time on a host that runs the task that fast
    peak_rss_mb        median peak resident memory of a CLI run

The raw wall_s, cpu_s and set-up seconds are printed and recorded too.
They are not the gated figures because the host this was written on
runs the same code up to 1.3 times slower for minutes at a time, which
moves them by more than any bound a benchmark may set; the reference
task slows with it.

With ``--trace 1`` it makes one untraced and one traced in-process run
and reports the per-layer metrics described in tracing.py.  ``--tiny``
shrinks every command so that a run checks every metric and every
answer in seconds.

The seed chooses the scan's database (see workloads.build_database)
and the probes' inputs; the verify and count commands are fixed by the
catalogue.  Every run's output is checked against reference.json or
the benchmark's own matcher.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` counts checked runs of the workload's command and
``failed`` those whose exit code or output was wrong; their ratio is
the error rate, printed above it.  The 1-minute load average and one
reference task time are recorded before and after every run as
context.  Generated inputs, the run record and the trace's spans go
to ``.bench_build/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import FULL, OUT_DIR, ROOT, SRC, TINY, WORKLOADS

SETUP_PAIRS = 2
REFERENCES_PER_SIDE = 2
# The reference task's median time on the host described in calibrate.py.
REFERENCE_TASK_S = 0.15
CALIBRATE = [sys.executable, str(Path(__file__).with_name("calibrate.py"))]

SETUP_SNIPPET = """\
import sys, time
t0 = time.perf_counter()
import poplab
if sys.argv[1]:
    poplab.resolve_db(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""


def reference_s(processes: int = 1) -> float:
    """Mean time of the reference task run in ``processes`` fresh processes at once.

    A workload that keeps two processes busy is compared with two
    tasks running side by side, so both cores' speed is sampled.
    """
    procs = [subprocess.Popen(CALIBRATE, stdout=subprocess.PIPE, text=True) for _ in range(processes)]
    times = [float(p.communicate()[0]) for p in procs]
    if any(p.returncode for p in procs):
        raise RuntimeError("reference task failed")
    return statistics.mean(times)


def context() -> dict:
    return {"loadavg_1m": os.getloadavg()[0], "reference_s": reference_s()}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(argv: list[str], out_dir: Path) -> dict:
    """One fresh ``python -m poplab.cli`` process, timed from start to exit.

    ``os.wait4`` reports the child's resource use together with that
    of the pool workers it reaped; ru_maxrss is then the peak of the
    largest of those processes, in KiB.
    """
    stdout_path = out_dir / "cli.stdout"
    stderr_path = out_dir / "cli.stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "poplab.cli", *argv],
            stdout=out, stderr=err, cwd=ROOT, env=child_env(),
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "returncode": proc.returncode,
        "stdout": stdout_path.read_text(),
        "stderr": stderr_path.read_text()[-2000:],
    }


def setup_time(db: workloads.Database | None) -> float:
    """Seconds a fresh process takes to import poplab and load the database."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(db.path) if db else ""]
    done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True)
    return float(done.stdout)


def measure(workload: str, size: workloads.Size, db, seconds: float, out_dir: Path) -> tuple[dict, dict, list[dict]]:
    """Closed loop of CLI runs for ``seconds``; medians of each metric.

    Each round times SETUP_PAIRS set-ups, each just after a reference
    task, then one CLI run with REFERENCES_PER_SIDE reference tasks on
    either side of it.  Every set-up and every CLI run is divided by
    its own neighbouring reference times, so a slow spell of the host
    slows both sides of each ratio; dividing medians over the whole
    loop instead spread the verify and count figures twice as much.
    A round is started only when a median round so far still fits in
    the time left.
    """
    processes = workloads.PROCESSES[workload]
    setup_time(db)
    reference_s()
    argv = workloads.command(workload, size, db)
    setup, setup_ratio, runs, rounds = [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for _ in range(SETUP_PAIRS):
            reference = reference_s()
            setup.append(setup_time(db))
            setup_ratio.append(setup[-1] / reference)
        references = [reference_s(processes) for _ in range(REFERENCES_PER_SIDE)]
        record = run_cli(argv, out_dir)
        references += [reference_s(processes) for _ in range(REFERENCES_PER_SIDE)]
        record["reference_s"] = statistics.median(references)
        record["problems"] = workloads.check_output(
            workload, size, db, record["returncode"], record.pop("stdout")
        )
        runs.append(record)
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break

    base = f"median of {len(runs)} CLI runs"
    per_reference = f"{base}, each over its {2 * REFERENCES_PER_SIDE} reference tasks"
    setups = f"median of {len(setup)} fresh processes"

    def median_of(key: str) -> float:
        return statistics.median(r[key] for r in runs)

    metrics = {
        "wall_cal": (statistics.median(r["wall_s"] / r["reference_s"] for r in runs), "cal", per_reference),
        "cpu_cal": (statistics.median(r["cpu_s"] / r["reference_s"] for r in runs), "cal", per_reference),
        "setup_s": (
            statistics.median(setup_ratio) * REFERENCE_TASK_S, "s",
            f"{setups}, each over its reference task, x {REFERENCE_TASK_S} s",
        ),
        "peak_rss_mb": (median_of("peak_rss_mb"), "MB", base),
    }
    raw = {
        "wall_s": (median_of("wall_s"), "s", base),
        "cpu_s": (median_of("cpu_s"), "s", base + ", pool workers included"),
        "setup_raw_s": (statistics.median(setup), "s", setups),
        "reference_s": (median_of("reference_s"), "s", f"{base}' reference tasks, {processes} at a time"),
    }
    return metrics, raw, runs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes, for a quick self-check")
    args = parser.parse_args(argv)
    if not (SRC / "poplab" / "cli.py").is_file():
        print(f"error: no poplab sources under {SRC}", file=sys.stderr)
        return 2

    size = TINY if args.tiny else FULL
    out_dir = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    before = context()
    db = workloads.build_database(size, args.seed, out_dir) if args.workload == "scan_oeis" or args.trace else None
    if args.trace:
        import tracing

        metrics, runs, extra_problems = tracing.traced_run(args.workload, size, db, args.seed, out_dir)
        raw = {}
    else:
        metrics, raw, runs = measure(args.workload, size, db, args.seconds, out_dir)
        extra_problems = []
    after = context()

    failed = sum(1 for r in runs if r["problems"])
    problems = extra_problems + [p for r in runs for p in r["problems"]]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "database": db.describe() if db else None,
        "context_before": before, "context_after": after,
        "runs": runs, "problems": problems,
        "metrics": {name: value for name, (value, _, _) in {**metrics, **raw}.items()},
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}"
          + (f", {db.describe()}" if db else ""))
    print(f"context: loadavg_1m {before['loadavg_1m']:.2f} -> {after['loadavg_1m']:.2f}, "
          f"reference_s {before['reference_s']:.4f} -> {after['reference_s']:.4f}")
    for name, (value, unit, base) in {**metrics, **raw}.items():
        print(f"  {name:28s} {value:.6g} {unit}" + (f"  ({base})" if base else ""))
    print(f"  {'error_rate':28s} {failed / len(runs):.6g} ({failed} of {len(runs)} runs)")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
