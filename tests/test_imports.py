"""What each entry point imports, checked in a fresh interpreter.

``import poplab`` loads no submodule, and a command loads only what it
runs: ``count`` and ``scan`` do not load the catalogue (``theorems``,
``series``), and only ``scan`` loads the sequence database
(``poplab.oeis``). No command loads ``concurrent.futures`` or
``multiprocessing``, with any number of jobs: the pool forks its workers
itself. No command loads ``pickle``: pool workers report by ``marshal``.
Only ``expand``, which lists a POP's patterns as ``Permutation``s, loads
``poplab.perms``. No command loads ``dataclasses`` or ``inspect``: the
records are ``NamedTuple`` classes. ``verify all`` and ``conjectures`` load no
``fractions`` (nor ``decimal``, which it imports): the catalogue's series
have integer coefficients, which stay ints. Every annotation resolves
when ``TYPE_CHECKING`` is true, as a static checker reads it. Every
submodule imports when it is the first one loaded, so no import cycle
hides behind the order the other tests load them in, and ``perms``
loads no other submodule. ``main()`` run on ``sys.argv``, as the
console script and ``python -m`` run it, loads the same modules as
``main(argv)`` and freezes the import-time heap; ``main(argv)`` does not.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = sorted(
    path.stem
    for path in (REPO_ROOT / "src" / "poplab").glob("*.py")
    if not path.stem.startswith("_")
)


def run_fresh(script: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_import_poplab_loads_no_submodule():
    run_fresh(
        """
        import sys
        import poplab
        loaded = [m for m in sys.modules if m.startswith("poplab.")]
        assert not loaded, loaded
        """
    )


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_imports_first(name):
    run_fresh(
        f"""
        import sys
        import poplab.{name}
        loaded = sorted(m for m in sys.modules if m.startswith("poplab."))
        assert {name!r} != "perms" or loaded == ["poplab.perms"], loaded
        """
    )


COUNT_JOBS_2 = ["count", "k=4; 3>1, 1>2, 3>4", "--n", "9", "--jobs", "2"]


@pytest.mark.parametrize(
    "argv, entry",
    [
        (["count", "k=3; 1>3", "--n", "6", "--jobs", "1"], False),
        (["scan", "--length", "3", "--nmax", "5", "--jobs", "1"], False),
        (COUNT_JOBS_2, False),
        (COUNT_JOBS_2, True),
    ],
    ids=["count", "scan", "count-jobs-2", "count-jobs-2-entry"],
)
def test_command_loads_neither_catalogue_nor_pool(argv, entry):
    # The entry case runs main() on sys.argv, as the console script and
    # python -m do, which freezes the import-time heap; a list does not.
    run_fresh(
        f"""
        import contextlib, gc, io, sys
        import poplab.cli
        sys.argv = ["poplab", *{argv!r}]
        with contextlib.redirect_stdout(io.StringIO()):
            code = poplab.cli.main() if {entry!r} else poplab.cli.main({argv!r})
        assert code == 0
        assert (gc.get_freeze_count() > 0) == {entry!r}, gc.get_freeze_count()
        unwanted = ["poplab.theorems", "poplab.series", "fractions", "concurrent.futures", "multiprocessing"]
        loaded = [m for m in unwanted if m in sys.modules]
        assert not loaded, loaded
        """
    )


def test_verify_loads_no_pool():
    run_fresh(
        """
        import contextlib, io, sys
        import poplab.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = poplab.cli.main(["verify", "thm-2.2", "--nmax", "5"])
        assert code == 0
        assert "poplab.theorems" in sys.modules
        assert "concurrent.futures" not in sys.modules
        assert "multiprocessing" not in sys.modules
        """
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["expand", "k=4; 1>2, 1>3"],
        ["count", "k=3; 1>3", "--nmax", "6"],
        ["count", "k=4; 3>1, 1>2, 3>4", "--n", "9", "--jobs", "2"],
        ["scan", "--length", "3", "--nmax", "7"],
        ["scan", "--length", "3", "--nmax", "7", "--jobs", "2"],
        ["verify", "all", "--nmax", "5"],
        ["conjectures", "--nmax", "5"],
    ],
    ids=["expand", "count", "count-jobs-2", "scan", "scan-jobs-2", "verify", "conjectures"],
)
def test_command_loads_no_dataclasses_and_only_scan_loads_oeis(argv):
    # Also: only expand, which builds Permutations, loads poplab.perms, and
    # no command loads pickle, as pool workers report by marshal.
    run_fresh(
        f"""
        import contextlib, io, sys
        import poplab.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = poplab.cli.main({argv!r})
        assert code == 0
        loaded = [m for m in ("dataclasses", "inspect", "pickle") if m in sys.modules]
        assert not loaded, loaded
        assert ("poplab.oeis" in sys.modules) == ({argv[0]!r} == "scan")
        assert ("poplab.perms" in sys.modules) == ({argv[0]!r} == "expand")
        """
    )


@pytest.mark.parametrize(
    "argv",
    [["verify", "all", "--nmax", "7"], ["conjectures", "--nmax", "8"]],
    ids=["verify-all", "conjectures"],
)
def test_catalogue_commands_load_no_fractions(argv):
    run_fresh(
        f"""
        import contextlib, io, sys
        import poplab.cli
        with contextlib.redirect_stdout(io.StringIO()):
            code = poplab.cli.main({argv!r})
        assert code == 0
        assert "poplab.series" in sys.modules
        loaded = [m for m in ("fractions", "decimal") if m in sys.modules]
        assert not loaded, loaded
        """
    )


def test_every_public_name_resolves_to_its_submodule():
    run_fresh(
        """
        import importlib
        import poplab
        assert set(poplab.__all__) <= set(dir(poplab))
        names = [name for name in poplab.__all__ if name != "__version__"]
        for name in names:
            module = importlib.import_module(f"poplab.{poplab._EXPORTS[name]}")
            value = getattr(poplab, name)
            assert value is getattr(module, name), name
            assert getattr(value, "__module__", module.__name__) == module.__name__, name
        star = {}
        exec("from poplab import *", star)
        assert all(star[name] is getattr(poplab, name) for name in poplab.__all__)
        try:
            poplab.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("unknown attribute resolved")
        """
    )


def test_every_annotation_resolves_as_a_type_checker_reads_it():
    # A name imported only under TYPE_CHECKING must still be imported there,
    # or a static checker flags it; so run each module again with it true.
    run_fresh(
        """
        import importlib, importlib.util, pkgutil, typing
        import poplab
        names = [i.name for i in pkgutil.iter_modules(poplab.__path__) if i.name != "__main__"]
        for name in names:
            importlib.import_module(f"poplab.{name}")
        typing.TYPE_CHECKING = True
        for name in names:
            spec = importlib.util.find_spec(f"poplab.{name}")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            for obj in vars(module).values():
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                members = vars(obj).values() if isinstance(obj, type) else ()
                for target in (obj, *members):
                    target = getattr(target, "fget", getattr(target, "__func__", target))
                    if callable(target):
                        typing.get_type_hints(target)
        """
    )
