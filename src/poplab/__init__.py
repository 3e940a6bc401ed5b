"""Exact enumeration of permutations avoiding partially ordered patterns.

A partially ordered pattern (POP) of length k is a partial order on the
labels 1..k.  A permutation contains the POP if some subsequence of k
entries realizes every order relation; it avoids the POP otherwise.
The package provides the combinatorial objects (:class:`Pop`,
:class:`Permutation`), a pruned exact counter for avoiders, truncated
power series with exact rational coefficients, a catalogue of counting
results with brute-force verification, and matching of computed counts
against a sequence database in the standard ``stripped`` format.

``import poplab`` loads no submodule: each public name below loads its
submodule on first use (PEP 562), so a command loads only what it runs.
"""

from __future__ import annotations

import importlib

_SUBMODULE_NAMES = {
    "counting": """CeilingExceeded CountSequence contains_pop_ending_at_last
        count_avoiders count_avoiders_pattern_set count_avoiders_prefix
        count_cycle_interval_perms naive_count_avoiders""",
    "oeis": """Match OeisDb OeisError OeisFormatWarning bundled_path
        load_stripped match_sequence match_sequences resolve_db""",
    "perms": "Permutation has_cycle_interval_property standardize",
    "posets": """ClassKey Pop PopError antichain canonical_class dual
        enumerate_pops label_complement linear_extensions parse_pop
        symmetry_orbit""",
    "series": """TruncatedSeries from_rational monomial
        residual_thm314 residual_thm316""",
    "theorems": """CONJECTURES THEOREMS ConjectureReport Report
        all_theorem_ids check_all_conjectures check_conjecture get_theorem
        theorem_sequence verify_all verify_theorem""",
}
# Each public name and the submodule that defines it.
_EXPORTS = {
    name: module for module, names in _SUBMODULE_NAMES.items() for name in names.split()
}

__version__ = "0.1.0"

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
