from __future__ import annotations

import gc
import importlib.metadata
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poplab.cli as cli
import poplab.theorems as theorems
from poplab.cli import main, scan_pops
from poplab.oeis import bundled_path, load_stripped
from poplab.theorems import all_theorem_ids, get_theorem

REPO_ROOT = Path(__file__).resolve().parents[1]

# ----------------------------------------------------------------------
# expand


def test_expand_prints_patterns(capsys):
    assert main(["expand", "--pop", "k=4; 1>2, 1>3, 4>2, 4>3"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["3124", "3214", "4123", "4213", "4 patterns"]


def test_expand_accepts_positional_pop(capsys):
    assert main(["expand", "k=2; 1>2"]) == 0
    assert capsys.readouterr().out.splitlines() == ["21", "1 pattern"]


def test_expand_past_ceiling_is_usage_error(monkeypatch, capsys):
    # Refused before any of the k! orders is listed.
    def linear_extensions(pop):
        raise AssertionError("listed the patterns of a POP past the ceiling")

    monkeypatch.setattr(cli, "linear_extensions", linear_extensions)
    assert main(["expand", "k=11;"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: refusing to list up to k! patterns at k=11 beyond ceiling 10\n"
    )


def test_pop_given_twice_is_usage_error(capsys):
    assert main(["expand", "k=2; 1>2", "--pop", "k=2; 1>2"]) == 2
    assert "not both" in capsys.readouterr().err


def test_expand_json(capsys):
    assert main(["expand", "--pop", "k=3; 1>3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["pop"] == "k=3; 1>3"
    assert doc["patterns"] == ["231", "312", "321"]


# ----------------------------------------------------------------------
# count


def test_count_prints_bare_integer(capsys):
    assert main(["count", "--pop", "k=4; 1>2, 1>3, 4>2, 4>3", "--n", "6"]) == 0
    assert capsys.readouterr().out.strip() == "232"


def test_count_json(capsys):
    assert main(["count", "--pop", "k=3; 1>3", "--n", "7", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"schema": 1, "pop": "k=3; 1>3", "n": 7, "count": 21}


def test_count_respects_jobs(capsys):
    assert main(["count", "--pop", "k=3; 1>2, 2>3", "--n", "7", "--jobs", "2"]) == 0
    assert capsys.readouterr().out.strip() == "429"


def test_count_in_process_leaves_the_collector_unfrozen(capsys):
    # Only a run as the process's own command, main() with no list, freezes.
    frozen = gc.get_freeze_count()
    assert main(["count", "k=3; 1>3", "--n", "5"]) == 0
    assert capsys.readouterr().out.strip() == "8"
    assert gc.get_freeze_count() == frozen


def test_count_nmax_prints_sequence(capsys):
    assert main(["count", "k=4;", "--nmax", "4"]) == 0
    assert capsys.readouterr().out.strip() == "1,1,2,6,0"


def test_count_nmax_json(capsys):
    assert main(["count", "k=3; 1>3", "--nmax", "5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "schema": 1,
        "pop": "k=3; 1>3",
        "n_max": 5,
        "counts": [1, 1, 2, 3, 5, 8],
    }


def test_count_needs_exactly_one_range_flag(capsys):
    assert main(["count", "k=3; 1>3"]) == 2
    assert main(["count", "k=3; 1>3", "--n", "4", "--nmax", "4"]) == 2
    capsys.readouterr()


def test_count_ceiling_is_usage_error(capsys):
    assert main(["count", "--pop", "k=3; 1>3", "--n", "12"]) == 2
    assert "ceiling" in capsys.readouterr().err


def test_count_past_matcher_label_limit_is_usage_error(capsys):
    chain = "k=22; " + ", ".join(f"{i}>{i + 1}" for i in range(1, 22))
    assert main(["count", chain, "--n", "22", "--ceiling", "22"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "at most 21 labels" in captured.err


@pytest.mark.parametrize(
    "length_args", [["--n", "1500"], ["--nmax", "1500", "--jobs", "2"]], ids=["n", "nmax-jobs-2"]
)
def test_count_past_the_length_bound_is_usage_error(capsys, length_args):
    # A tree node stores each entry in one byte; a high ceiling must not
    # let n pass what that holds.
    assert main(["count", "k=2; 1>2", *length_args, "--ceiling", "2000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: refusing to count at n=1500")
    assert "above 256" in captured.err


@pytest.mark.parametrize("pop_text, count", [("k=2; 1>2", 1), ("k=3;", 0)])
def test_count_at_the_length_bound(capsys, pop_text, count):
    # n = 256 stores nodes of up to 255 entries, each value at most 255.
    assert main(["count", pop_text, "--n", "256", "--ceiling", "256"]) == 0
    assert capsys.readouterr().out == f"{count}\n"
    assert main(["count", pop_text, "--n", "257", "--ceiling", "257"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: refusing to count at n=257")
    assert "above 256" in captured.err


def test_count_nmax_passes_jobs_on(monkeypatch, capsys):
    seen = []
    real = cli.count_avoiders_prefix

    def spy(*args, **kwargs):
        seen.append(kwargs.get("jobs"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "count_avoiders_prefix", spy)
    assert main(["count", "k=3; 1>3", "--nmax", "6", "--jobs", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1,1,2,3,5,8,13"
    assert seen == [2]


def test_count_jobs_below_one_is_usage_error(capsys):
    assert main(["count", "k=3; 1>3", "--n", "5", "--jobs", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--jobs" in captured.err


def test_bad_pop_is_usage_error(capsys):
    assert main(["count", "--pop", "k=3; 1>2, 2>1", "--n", "4"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "k=3; 1>3", "--n", "5"],
        ["count", "k=3; 1>3", "--nmax", "5"],
        ["expand", "k=3;"],
    ],
)
def test_out_without_json_writes_the_json_document(tmp_path, capsys, argv):
    assert main(argv + ["--json"]) == 0
    document = capsys.readouterr().out
    assert main(argv) == 0
    text = capsys.readouterr().out
    out_file = tmp_path / "out.json"
    assert main(argv + ["--out", str(out_file)]) == 0
    assert out_file.read_text() == document
    # Text still goes to stdout when --json was not passed.
    assert capsys.readouterr().out == text


# ----------------------------------------------------------------------
# verify


def test_verify_single_entry(capsys):
    assert main(["verify", "--theorem", "thm-2.3", "--nmax", "6"]) == 0
    out = capsys.readouterr().out
    assert "thm-2.3" in out
    assert "PASS" in out
    assert "1/1 entries verified" in out


def test_verify_accepts_positional_id(capsys):
    assert main(["verify", "thm-3.1", "--nmax", "8"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "1 1 2 6 12 25 57 124 268" in " ".join(out.split())


def test_verify_json_document(capsys):
    assert main(["verify", "--theorem", "thm-2.6", "--nmax", "5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert len(doc["reports"]) == 1
    assert doc["reports"][0]["id"] == "thm-2.6"
    assert doc["reports"][0]["passed"] is True


def test_verify_writes_out_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(
        ["verify", "--theorem", "thm-2.2", "--nmax", "5", "--out", str(out_file)]
    ) == 0
    doc = json.loads(out_file.read_text())
    assert doc["schema"] == 1
    # Text still goes to stdout when --json was not passed.
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "nmax, status, code", [(3, "NO EVIDENCE (n <= 3 < k = 4)", 1), (4, "PASS", 0)]
)
def test_verify_below_k_reports_no_evidence(capsys, nmax, status, code):
    # thm-3.15 is a k = 4 entry, and every count below n = 4 is n!.
    assert main(["verify", "thm-3.15", "--nmax", str(nmax)]) == code
    out = capsys.readouterr().out
    assert f"thm-3.15 [linear-recurrence] k=4: {status}\n" in out
    assert f"{1 - code}/1 entries verified" in out
    assert main(["verify", "thm-3.15", "--nmax", str(nmax), "--json"]) == code
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["passed"] is (code == 0)
    assert [row["n"] for row in report["rows"]] == list(range(nmax + 1))


def test_verify_unknown_id_is_usage_error(capsys):
    assert main(["verify", "--theorem", "thm-9.1"]) == 2
    assert "unknown theorem id" in capsys.readouterr().err


def test_verify_past_ceiling_is_usage_error(capsys):
    assert main(["verify", "thm-3.15", "--nmax", "11"]) == 2
    err = capsys.readouterr().err
    assert "ceiling 10" in err
    # Only count has --ceiling, so the error offers no larger one.
    assert "larger ceiling" not in err


@pytest.mark.parametrize(
    "argv", [["verify", "thm-3.17", "--nmax", "11"], ["conjectures", "--nmax", "11"]]
)
def test_stored_prefix_checks_past_ceiling_are_usage_errors(capsys, argv):
    # Checks against stored terms stop at the ceiling, not at the terms' end.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ceiling 10" in captured.err


def test_verify_past_cycle_filter_ceiling_is_usage_error(capsys):
    # The bijection's S_n filter stops at the engine's ceiling, n = 10.
    assert main(["verify", "thm-2.6", "--nmax", "11"]) == 2
    assert "ceiling 10" in capsys.readouterr().err


def test_verify_past_the_tree_walk_length_bound_names_the_ceiling(capsys):
    # The byte bound belongs to the tree walk; the catalogue refuses first.
    assert main(["verify", "thm-2.6", "--nmax", "257"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: refusing exhaustive count at n=257 beyond ceiling 10\n"


def test_verify_failure_gives_exit_one(monkeypatch, capsys):
    report = theorems.verify_theorem("thm-2.2", 5)
    failing = type(report)(
        theorem_id=report.theorem_id,
        method=report.method,
        k=report.k,
        rows=report.rows,
        prefix_consistent=False,
        residual_zero=report.residual_zero,
        notes=report.notes,
    )
    monkeypatch.setattr(theorems, "verify_theorem", lambda *a, **kw: failing)
    assert main(["verify", "--theorem", "thm-2.2", "--nmax", "5"]) == 1


def test_unwritable_out_is_io_error(capsys):
    code = main(
        ["verify", "--theorem", "thm-2.2", "--nmax", "4", "--out", "/no/dir/x.json"]
    )
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_closed_stdout_exits_141_quietly(tmp_path, monkeypatch, capsys):
    # A reader such as `head -1` has closed the pipe.  The stub's descriptor is
    # a scratch file's, so pointing it at devnull leaves the test's stdout alone.
    with open(tmp_path / "stdout", "wb") as target:

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return target.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["expand", "k=3;"]) == 141
        os.write(target.fileno(), b"dropped")
    assert capsys.readouterr().err == ""
    assert (tmp_path / "stdout").read_bytes() == b""


# ----------------------------------------------------------------------
# conjectures


def test_conjectures_text(capsys):
    assert main(["conjectures", "--nmax", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("SUPPORTED") == 6
    assert "A216879" in out


def test_conjectures_json(capsys):
    assert main(["conjectures", "--nmax", "5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert len(doc["conjectures"]) == 6


@pytest.mark.parametrize("nmax", [0, 4])
def test_conjectures_below_k_report_no_evidence(capsys, nmax):
    # Every count below n = k is n!, so it supports nothing.
    assert main(["conjectures", "--nmax", str(nmax)]) == 1
    out = capsys.readouterr().out
    assert "SUPPORTED" not in out
    assert out.count(f"NO EVIDENCE (n <= {nmax} < k = 5)") == 6
    assert main(["conjectures", "--nmax", str(nmax), "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert not any(c["supported"] for c in doc["conjectures"])


def test_conjecture_mismatch_gives_exit_one(monkeypatch, capsys):
    real = theorems.check_all_conjectures(6)[0]
    rows = list(real.rows)
    rows[5] = rows[5]._replace(formula_value=rows[5].brute_value + 1, match=False)
    failing = real._replace(rows=tuple(rows))
    assert failing.status == "MISMATCH at n = 5"
    assert failing.supported is False
    monkeypatch.setattr(theorems, "check_all_conjectures", lambda n: [failing])
    assert main(["conjectures", "--nmax", "6"]) == 1
    out = capsys.readouterr().out
    assert out == f"conjecture {real.a_number}  {real.pop_text}  MISMATCH at n = 5\n"
    assert main(["conjectures", "--nmax", "6", "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["conjectures"][0]["status"] == "MISMATCH at n = 5"


# ----------------------------------------------------------------------
# scan


def test_scan_text_header(capsys):
    assert main(["scan", "--length", "3", "--nmax", "6"]) == 0
    out = capsys.readouterr().out
    assert "19 POPs of length 3" in out
    assert "7 symmetry orbits" in out


def test_scan_json_document(capsys):
    assert main(["scan", "--length", "3", "--nmax", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 1
    assert doc["pop_count"] == 19
    assert doc["orbit_count"] == 7
    assert doc["wilf_class_count"] == 5
    assert sum(e["orbit_size"] for e in doc["orbits"]) == 19
    for entry in doc["orbits"]:
        assert entry["counts"][0] == 1
        assert entry["pop"] in entry["members"]
    # Exactly one representative orbit per empirical count class.
    reps = [e for e in doc["orbits"] if e["representative"]]
    assert len(reps) == doc["wilf_class_count"]
    assert sorted(e["wilf_class"] for e in reps) == list(
        range(1, doc["wilf_class_count"] + 1)
    )


def test_scan_is_deterministic():
    first = scan_pops(3, 6)
    second = scan_pops(3, 6)
    assert json.dumps(first) == json.dumps(second)


def test_scan_parallel_equals_serial():
    assert scan_pops(3, 6, jobs=2) == scan_pops(3, 6)


def test_scan_maps_its_orbits_through_one_pool(forks):
    serial = scan_pops(3, 6)
    assert scan_pops(3, 6, jobs=2) == serial
    # The parent is one of a pool's processes, so it forks one fewer.
    assert forks == [1]
    # At most one process per orbit, however many jobs are asked for.
    assert scan_pops(3, 6, jobs=1000) == serial
    assert forks == [1, serial["orbit_count"] - 1]


def test_scan_uses_database_argument(tmp_path, capsys):
    db_file = tmp_path / "stripped"
    db_file.write_text("A000045 ,1,1,2,3,5,8,13,21,34,55,\n")
    code = main(
        ["scan", "--length", "3", "--nmax", "7", "--oeis", str(db_file), "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    hits = [
        m["a_number"] for e in doc["orbits"] for m in e["oeis_matches"]
    ]
    assert hits == ["A000045"]


def test_scan_env_override(tmp_path, monkeypatch, capsys):
    db_file = tmp_path / "stripped"
    db_file.write_text("A000045 ,1,1,2,3,5,8,13,21,34,55,\n")
    monkeypatch.setenv("POPLAB_OEIS", str(db_file))
    assert main(["scan", "--length", "3", "--nmax", "7", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    hits = [m["a_number"] for e in doc["orbits"] for m in e["oeis_matches"]]
    assert hits == ["A000045"]


def test_scan_missing_database_is_io_error(capsys):
    assert main(["scan", "--length", "3", "--nmax", "6", "--oeis", "/no/file"]) == 3
    assert "error:" in capsys.readouterr().err


def test_scan_jobs_below_one_is_usage_error(capsys):
    assert main(["scan", "--length", "3", "--nmax", "4", "--jobs", "-2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--jobs" in captured.err


@pytest.mark.parametrize("jobs", [0, -2, 1.5])
def test_scan_pops_refuses_a_bad_jobs_before_enumerating(jobs, monkeypatch):
    def enumerate_pops(length):
        raise AssertionError("scan enumerated POPs")

    monkeypatch.setattr(cli, "enumerate_pops", enumerate_pops)
    with pytest.raises(ValueError, match=f"jobs must be an int of at least 1, got {jobs}"):
        scan_pops(3, 5, jobs=jobs)


def test_scan_length_seven_is_refused_before_enumerating(monkeypatch, capsys):
    def enumerate_pops(length):
        raise AssertionError("scan enumerated POPs")

    monkeypatch.setattr(cli, "enumerate_pops", enumerate_pops)
    assert main(["scan", "--length", "7", "--nmax", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: scan supports POP lengths up to 6, got 7" in captured.err


def test_jobs_without_fork_is_usage_error(monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    # At n = 7 the cut, at depth 2, holds two keys, so a pool would start.
    assert main(["count", "k=3; 1>3", "--n", "7", "--jobs", "2"]) == 2
    assert "os.fork" in capsys.readouterr().err
    assert main(["count", "k=3; 1>3", "--n", "7", "--jobs", "1"]) == 0


def test_scan_past_ceiling_is_usage_error(monkeypatch, capsys):
    # Refused before any POP is enumerated or any worker is started.
    def enumerate_pops(length):
        raise AssertionError("enumerated POPs past the ceiling")

    monkeypatch.setattr(cli, "enumerate_pops", enumerate_pops)
    for jobs in ("1", "2"):
        assert main(["scan", "--length", "5", "--nmax", "11", "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert "ceiling 10" in err and "larger ceiling" not in err


def test_scan_negative_nmax_is_refused_before_enumerating(monkeypatch, capsys):
    def enumerate_pops(length):
        raise AssertionError("enumerated POPs for a negative n_max")

    monkeypatch.setattr(cli, "enumerate_pops", enumerate_pops)
    assert main(["scan", "--length", "5", "--nmax", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nonnegative" in captured.err


def test_scan_length_four_recovers_every_catalogued_sequence():
    db = load_stripped(bundled_path())
    doc = scan_pops(4, 8, db=db, jobs=2)
    assert doc["pop_count"] == 219
    assert sum(e["orbit_size"] for e in doc["orbits"]) == 219
    found = {
        m["a_number"] for e in doc["orbits"] for m in e["oeis_matches"]
    }
    catalogued = set()
    for theorem_id in all_theorem_ids():
        entry = get_theorem(theorem_id)
        if 4 in entry.registered_ks():
            catalogued.update(entry.oeis(4))
    assert catalogued <= found


# ----------------------------------------------------------------------
# usage


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


def test_console_script_is_registered(tmp_path):
    # The metadata is built from pyproject.toml by the build backend, so the
    # check holds whether or not the package is installed.  egg_info needs
    # neither the network nor the ``wheel`` package, and --egg-base keeps its
    # output out of the source tree.
    pytest.importorskip("setuptools")
    built = subprocess.run(
        [
            sys.executable,
            "-c",
            "from setuptools import setup; setup()",
            "egg_info",
            "--egg-base",
            str(tmp_path),
        ],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert built.returncode == 0, built.stderr
    dist = importlib.metadata.PathDistribution(tmp_path / "poplab.egg-info")
    assert dist.metadata["Name"] == "poplab"
    scripts = list(dist.entry_points.select(group="console_scripts", name="poplab"))
    assert [e.value for e in scripts] == ["poplab.cli:main"]
    assert scripts[0].load() is cli.main

    try:
        installed = importlib.metadata.distribution("poplab")
    except importlib.metadata.PackageNotFoundError:
        return
    installed_scripts = installed.entry_points.select(
        group="console_scripts", name="poplab"
    )
    assert [e.value for e in installed_scripts] == ["poplab.cli:main"]


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "poplab", "count", "k=3; 1>3", "--nmax", "5"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "1,1,2,3,5,8"
