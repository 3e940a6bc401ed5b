"""Exact enumeration of permutations avoiding partially ordered patterns.

A partially ordered pattern (POP) of length k is a partial order on the
labels 1..k.  A permutation contains the POP if some subsequence of k
entries realizes every order relation; it avoids the POP otherwise.
The package provides the combinatorial objects (:class:`Pop`,
:class:`Permutation`), a pruned exact counter for avoiders, truncated
power series with exact rational coefficients, a catalogue of counting
results with brute-force verification, and matching of computed counts
against a sequence database in the standard ``stripped`` format.
"""

from __future__ import annotations

from .counting import (
    CeilingExceeded,
    CountSequence,
    count_avoiders,
    count_avoiders_pattern_set,
    count_avoiders_prefix,
    count_cycle_interval_perms,
    naive_count_avoiders,
)
from .oeis import (
    Match,
    OeisDb,
    OeisError,
    OeisFormatWarning,
    bundled_path,
    load_stripped,
    match_sequence,
    match_sequences,
    resolve_db,
)
from .perms import (
    Permutation,
    contains_pop_ending_at_last,
    has_cycle_interval_property,
    standardize,
)
from .posets import (
    ClassKey,
    Pop,
    PopError,
    antichain,
    canonical_class,
    dual,
    enumerate_pops,
    label_complement,
    linear_extensions,
    parse_pop,
    symmetry_orbit,
)
from .series import (
    IntPolynomial,
    TruncatedSeries,
    from_rational,
    monomial,
    residual_thm314,
    residual_thm316,
)
from .theorems import (
    CONJECTURES,
    THEOREMS,
    ConjectureReport,
    Report,
    all_theorem_ids,
    check_all_conjectures,
    check_conjecture,
    get_theorem,
    theorem_sequence,
    verify_all,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "CONJECTURES",
    "CeilingExceeded",
    "ClassKey",
    "ConjectureReport",
    "CountSequence",
    "IntPolynomial",
    "Match",
    "OeisDb",
    "OeisError",
    "OeisFormatWarning",
    "Permutation",
    "Pop",
    "PopError",
    "Report",
    "THEOREMS",
    "TruncatedSeries",
    "all_theorem_ids",
    "antichain",
    "bundled_path",
    "canonical_class",
    "check_all_conjectures",
    "check_conjecture",
    "contains_pop_ending_at_last",
    "count_avoiders",
    "count_avoiders_pattern_set",
    "count_avoiders_prefix",
    "count_cycle_interval_perms",
    "dual",
    "enumerate_pops",
    "from_rational",
    "get_theorem",
    "has_cycle_interval_property",
    "label_complement",
    "linear_extensions",
    "load_stripped",
    "match_sequence",
    "match_sequences",
    "monomial",
    "naive_count_avoiders",
    "parse_pop",
    "residual_thm314",
    "residual_thm316",
    "resolve_db",
    "standardize",
    "symmetry_orbit",
    "theorem_sequence",
    "verify_all",
    "verify_theorem",
    "__version__",
]
