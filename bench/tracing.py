"""The traced run: spans around poplab's public functions, plus probes.

Spans are recorded from the benchmark's side only.  ``Tracer.install``
replaces every public function of the layer modules (``cli``,
``theorems``, ``counting``, ``perms``, ``posets``, ``series``,
``oeis``) in the namespace of each module that binds it, and
``TheoremEntry.sequence`` on its class, with a wrapper that records
(name, start, end, parent) in memory.  Nothing under ``src/`` changes.
Calls that bypass a module namespace, such as the residual checks that
``theorems`` keeps in a dict, are not seen; series are timed by probes.

A traced run of one workload goes:

1. after a warm-up with its TINY command, three untraced and three
   traced in-process runs of the workload's command, in the order
   ABBAAB so that warming up favours neither; ``trace.overhead`` is
   the median traced time over the median untraced time, and
   ``counting.worker_utilization`` the median over the untraced runs;
2. the spans of the last traced run are kept;
3. the TINY commands of the other two workloads, traced by a second
   Tracer (the coverage pass);
4. micro probes with seeded inputs and a fixed warm-up.

Span metrics come from step 2.  Only a figure whose functions the
workload never calls (the cycle oracle on a scan, sequence matching
on a verify) is taken from the coverage pass, and its base says so;
such a figure times code the workload bypasses.  A layer's self time
is the time of its spans minus the time of their child spans;
``<layer>.self_share`` is that over the time of the root ``cli.main``
spans of the same tracer.  ``perms`` gets no share: the counting
engine matches through its own code and no command calls ``perms``'
public functions, so ``perms.ends_at_last_us`` measures that layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import workloads
from workloads import COUNT_JOBS, REFERENCE, SRC, TINY, Size

LAYERS = ("cli", "theorems", "counting", "perms", "posets", "series", "oeis")
SHARE_LAYERS = tuple(layer for layer in LAYERS if layer != "perms")
WARMUP = 1
TRACE_ORDER = (False, True, True, False, False, True)
PROBE_REPEATS = 5
MATCHER_PREFIXES_PER_POP = 40
SERIES_ORDER = 16
SERIES_BATCH = 20


class Tracer:
    """In-memory spans for calls through wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": open_[-1] if open_ else None, "args": args}
            open_.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                span["result"] = fn(*args, **kwargs)
                return span["result"]
            finally:
                span["end"] = time.perf_counter()
                open_.pop()

        return traced

    def install(self, modules: dict[str, types.ModuleType]) -> None:
        """Wrap each public layer function wherever a layer module binds it."""
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                package, _, layer = value.__module__.rpartition(".")
                if package == "poplab" and layer in modules:
                    self._replace(module, attr, f"{layer}.{attr}")
        self._replace(modules["theorems"].TheoremEntry, "sequence", "theorems.TheoremEntry.sequence")

    def _replace(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Derived figures

    def duration(self, span: dict) -> float:
        return span["end"] - span["start"]

    def outermost(self, *names: str) -> list[dict]:
        """Spans of these names that no other span of these names encloses."""
        return [s for s in self.spans if s["name"] in names and not self._inside(s, names)]

    def time_in(self, *names: str) -> float:
        """Time inside spans of these names, nested ones counted once."""
        return sum(self.duration(s) for s in self.outermost(*names))

    def _inside(self, span: dict, names: tuple[str, ...]) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] in names:
                return True
            parent = self.spans[parent]["parent"]
        return False

    def self_times(self) -> dict[str, float]:
        """Self time of each span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += self.duration(span)
        out: dict[str, float] = {}
        for span, children in zip(self.spans, child_time):
            out[span["name"]] = out.get(span["name"], 0.0) + self.duration(span) - children
        return out

    def layer_shares(self) -> dict[str, float]:
        """Self time of each layer over the time of the root ``cli.main`` spans."""
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_times().items():
            layer_self[name.partition(".")[0]] += seconds
        total = self.time_in("cli.main")
        return {layer: seconds / total for layer, seconds in layer_self.items()}

    def calls_any(self, *names: str) -> bool:
        return any(s["name"] in names for s in self.spans)

    def dump(self, path: Path) -> None:
        t0 = self.spans[0]["start"] if self.spans else 0.0
        rows = [
            [s["name"], s["start"] - t0, s["end"] - t0, s["parent"]] for s in self.spans
        ]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"], "spans": rows}) + "\n")


def import_layers() -> dict[str, types.ModuleType]:
    sys.path.insert(0, str(SRC))
    return {layer: importlib.import_module(f"poplab.{layer}") for layer in LAYERS}


def run_in_process(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cpu_now() -> float:
    """User plus system time of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def tree_nodes(counts: list[int], n: int) -> int:
    """Avoiding prefixes in the search tree for length n.

    The avoiders of length n have C(n, m) * a(m) distinct prefixes of
    length m, all of them avoiders, so the base depends only on the
    counts and stays fixed when the engine changes.
    """
    return sum(math.comb(n, m) * counts[m] for m in range(1, n + 1))


# ----------------------------------------------------------------------
# Probes.  Each returns {metric: (value, unit, base)}; each times its work
# after WARMUP untimed rounds and reports a median.


def _median_time(fn, repeats: int = PROBE_REPEATS) -> float:
    for _ in range(WARMUP):
        fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_matcher(poplab, rng: random.Random, problems: list[str]) -> dict:
    """``contains_pop_ending_at_last`` per call on seeded prefixes.

    The POPs are those the workloads count: every catalogue entry and
    every length-4 orbit representative.  Prefixes are random
    permutations of length k..9.
    """
    pops = [
        poplab.get_theorem(r["id"]).pop(r["k"]) for r in REFERENCE["verify"]["reports"]
    ] + [poplab.parse_pop(o["pop"]) for o in REFERENCE["scan"]["4"]["orbits"]]
    cases = []
    for pop in pops:
        for _ in range(MATCHER_PREFIXES_PER_POP):
            values = list(range(1, rng.randint(pop.k, 9) + 1))
            rng.shuffle(values)
            cases.append((poplab.Permutation(values), pop))
    # The oracle's matcher answers the same question, more slowly.
    for perm, pop in cases:
        ends_last = any(occ[-1] == perm.n for occ in perm.pop_occurrences(pop))
        if poplab.contains_pop_ending_at_last(perm, pop) != ends_last:
            problems.append(f"matcher disagrees with pop_occurrences on {perm} / {pop}")
            break
    matcher = poplab.contains_pop_ending_at_last
    seconds = _median_time(lambda: [matcher(p, q) for p, q in cases])
    return {"perms.ends_at_last_us": (seconds / len(cases) * 1e6, "us", f"per call, {len(cases)} calls on {len(pops)} POPs")}


def probe_series(poplab, rng: random.Random, problems: list[str]) -> dict:
    """Series multiply, divide and sqrt at order 16; the two residuals."""
    def series():
        return poplab.TruncatedSeries(
            [1] + [rng.randint(-9, 9) for _ in range(SERIES_ORDER)], SERIES_ORDER
        )

    pairs = [(series(), series()) for _ in range(SERIES_BATCH)]
    out = {}
    for name, op in (
        ("series.mul_us", lambda a, b: a * b),
        ("series.div_us", lambda a, b: a / b),
        ("series.sqrt_us", lambda a, b: a.sqrt()),
    ):
        seconds = _median_time(lambda: [op(a, b) for a, b in pairs])
        out[name] = (seconds / len(pairs) * 1e6, "us", f"per operation at order {SERIES_ORDER}")
    a, b = pairs[0]
    if (a * b) / b != a or a.sqrt() * a.sqrt() != a:
        problems.append("series arithmetic does not round-trip")

    by_id = {r["id"]: r["values"] for r in REFERENCE["verify"]["reports"]}
    s314 = poplab.TruncatedSeries(by_id["thm-3.14"])
    s316 = poplab.TruncatedSeries(by_id["thm-3.16"])
    if not (poplab.residual_thm314(s314).is_zero() and poplab.residual_thm316(s316).is_zero()):
        problems.append("a catalogue residual is not zero on reference counts")
    seconds = _median_time(lambda: (poplab.residual_thm314(s314), poplab.residual_thm316(s316)))
    out["series.residual_s"] = (seconds, "s", "both residuals on the reference counts to n=8")
    return out


def probe_posets(poplab) -> dict:
    seconds = _median_time(lambda: (poplab.enumerate_pops(4), poplab.enumerate_pops(5)), 3)
    return {"posets.enumerate_s": (seconds, "s", "enumerate_pops(4) and enumerate_pops(5)")}


def probe_pool(poplab, problems: list[str]) -> dict:
    """``count_avoiders(pop, n=k, jobs=2)``: the pool costs all but nothing."""
    pop = poplab.parse_pop(REFERENCE["count"]["pop"])
    want = REFERENCE["count"]["counts"][pop.k]
    if poplab.count_avoiders(pop, pop.k, jobs=COUNT_JOBS) != want:
        problems.append("pool probe count differs from reference")
    seconds = _median_time(lambda: poplab.count_avoiders(pop, pop.k, jobs=COUNT_JOBS))
    return {"counting.pool_startup_s": (seconds, "s", f"count_avoiders(n={pop.k}, jobs={COUNT_JOBS})")}


def probe_oeis(poplab, db: workloads.Database, problems: list[str]) -> dict:
    """Load the seeded database; match the scan's count sequences per row."""
    loaded = []
    seconds = _median_time(lambda: loaded.append(poplab.load_stripped(db.path)), 3)
    oeis_db = loaded[-1]
    if len(oeis_db) != len(db.rows):
        problems.append(f"loaded {len(oeis_db)} rows of {len(db.rows)}")
    queries = list(db.expected)
    poplab.match_sequence(oeis_db, queries[0])
    found = {}
    t0 = time.perf_counter()
    for terms in queries:
        found[terms] = poplab.match_sequence(oeis_db, terms)
    match_seconds = time.perf_counter() - t0
    planted = set()
    for terms, matches in found.items():
        as_dicts = [
            {"a_number": m.a_number, "shift": m.shift, "dropped": m.dropped, "overlap": m.overlap}
            for m in matches
        ]
        if as_dicts != db.expected[terms]:
            problems.append(f"match_sequence differs from reference on {terms}")
        planted.update(m.a_number for m in matches if m.a_number in db.planted)
    if len(planted) != len(db.planted):
        problems.append(f"probe found {len(planted)} of {len(db.planted)} planted rows")
    return {
        "oeis.load_rows_per_s": (len(db.rows) / seconds, "1/s", f"load_stripped of {len(db.rows)} rows"),
        "oeis.match_us_per_row": (
            match_seconds / (len(queries) * len(db.rows)) * 1e6, "us",
            f"{len(queries)} queries x {len(db.rows)} rows",
        ),
        "oeis.matches_found": (len(planted), "count", f"of {len(db.planted)} planted rows"),
    }


# ----------------------------------------------------------------------


def traced_run(workload: str, size: Size, db, seed: int, out_dir: Path):
    """Returns (metrics, checked runs, other problems)."""
    layers = import_layers()
    import poplab

    cli = layers["cli"]
    tiny_db = workloads.build_database(TINY, seed, out_dir)
    argv = workloads.command(workload, size, db)
    runs: list[dict] = []
    problems: list[str] = []

    def checked(name: str, run_size: Size, run_db, command: list[str]) -> float:
        t0 = time.perf_counter()
        code, out = run_in_process(cli, command)
        seconds = time.perf_counter() - t0
        runs.append({
            "workload": name, "argv": command, "wall_s": seconds,
            "problems": workloads.check_output(name, run_size, run_db, code, out),
        })
        return seconds

    tiny_own_db = tiny_db if workload == "scan_oeis" else None
    run_in_process(cli, workloads.command(workload, TINY, tiny_own_db))  # warm-up
    untraced, traced, utilizations = [], [], []
    for with_trace in TRACE_ORDER:
        if with_trace:
            tracer = Tracer()
            tracer.install(layers)
            try:
                traced.append(checked(workload, size, db, argv))
            finally:
                tracer.uninstall()
        else:
            cpu0 = cpu_now()
            untraced.append(checked(workload, size, db, argv))
            utilizations.append((cpu_now() - cpu0) / (COUNT_JOBS * untraced[-1]))
    coverage = Tracer()
    coverage.install(layers)
    try:
        for other in workloads.WORKLOADS:
            if other != workload:
                other_db = tiny_db if other == "scan_oeis" else None
                checked(other, TINY, other_db, workloads.command(other, TINY, other_db))
    finally:
        coverage.uninstall()
    tracer.dump(out_dir / "spans.json")
    coverage.dump(out_dir / "coverage-spans.json")

    rng = random.Random(seed)
    metrics: dict[str, tuple[float, str, str]] = {}
    metrics.update(probe_matcher(poplab, rng, problems))
    metrics.update(probe_series(poplab, rng, problems))
    metrics.update(probe_posets(poplab))
    metrics.update(probe_pool(poplab, problems))
    metrics.update(probe_oeis(poplab, db, problems))

    count_text = poplab.parse_pop(REFERENCE["count"]["pop"]).to_text()
    nodes = 0
    for span in tracer.outermost("counting.count_avoiders_prefix", "counting.count_avoiders"):
        if span["name"] == "counting.count_avoiders_prefix":
            counts = span["result"].counts
            nodes += sum(tree_nodes(counts, n) for n in range(len(counts)))
        elif span["args"][0].to_text() == count_text:
            nodes += tree_nodes(REFERENCE["count"]["counts"], span["args"][1])
        else:
            problems.append(f"no reference counts for {span['args'][0].to_text()}")
    counting_s = tracer.time_in("counting.count_avoiders_prefix", "counting.count_avoiders")

    def spans_of(*names: str) -> tuple[Tracer, str]:
        if tracer.calls_any(*names):
            return tracer, "traced run"
        return coverage, "coverage pass; the workload makes no such call"

    def time_in(*names: str) -> tuple[float, str, str]:
        source, base = spans_of(*names)
        return source.time_in(*names), "s", base

    def direct_counts(source: Tracer) -> list[dict]:
        """count_avoiders spans not inside the prefix loop, which calls it per length."""
        outer = source.outermost("counting.count_avoiders_prefix", "counting.count_avoiders")
        return [s for s in outer if s["name"] == "counting.count_avoiders"]

    count_spans, count_base = direct_counts(tracer), "traced run, direct calls"
    if not count_spans:
        count_spans, count_base = direct_counts(coverage), "coverage pass, direct calls; the workload makes none"
    count_s = sum(s["end"] - s["start"] for s in count_spans)
    scan_source, scan_base = spans_of("cli.scan_pops")
    metrics.update({
        "counting.prefix_s": time_in("counting.count_avoiders_prefix"),
        "counting.count_s": (count_s, "s", count_base),
        "counting.tree_nodes_per_s": (nodes / counting_s, "1/s", f"{nodes} avoiding prefixes, traced run"),
        "counting.worker_utilization": (
            statistics.median(utilizations), "share", f"cpu / ({COUNT_JOBS} x wall), median of {len(untraced)} untraced runs"
        ),
        "counting.cycle_oracle_s": time_in("counting.count_cycle_interval_perms"),
        "theorems.formula_s": time_in("theorems.TheoremEntry.sequence"),
        "posets.orbit_s": time_in("posets.canonical_class", "posets.symmetry_orbit"),
        "oeis.load_s": time_in("oeis.resolve_db", "oeis.load_stripped"),
        "oeis.match_s": time_in("oeis.match_sequence"),
        "cli.scan_pops_self_s": (scan_source.self_times()["cli.scan_pops"], "s", scan_base),
        "trace.overhead": (
            statistics.median(traced) / statistics.median(untraced), "ratio",
            f"median of {len(traced)} traced / median of {len(untraced)} untraced runs",
        ),
    })
    shares = tracer.layer_shares()
    coverage_shares = coverage.layer_shares()
    for layer in SHARE_LAYERS:
        if shares[layer] > 0:
            metrics[f"{layer}.self_share"] = (shares[layer], "share", f"of {traced[-1]:.3f} s traced")
        else:
            metrics[f"{layer}.self_share"] = (coverage_shares[layer], "share", "coverage pass; the workload does not enter it")
    return metrics, runs, problems
