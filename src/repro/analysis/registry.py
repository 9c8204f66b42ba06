"""Central catalogue of every diagnostic family and code.

The analyzers in :mod:`repro.analysis` each own a code family; this
module is the single registry tying a stable code (``DET003``,
``FLT002``, ...) to its family, default severity and one-line summary.
The registry feeds three consumers:

* the SARIF emitter (:mod:`repro.analysis.sarif`) publishes each entry
  as a SARIF ``reportingDescriptor`` so CI annotation UIs can show rule
  help inline;
* the audit driver (:mod:`repro.analysis.audit`) validates that every
  emitted diagnostic carries a registered code — an analyzer inventing
  an undocumented code is itself a bug;
* ``docs/static_analysis.md`` mirrors this table (the test suite keeps
  the two in sync by checking each registered code appears there).

Families
--------
========  =============================================================
family    analyzer
========  =============================================================
SCH       :mod:`~repro.analysis.schedule_verifier` (symbolic dataflow)
MAP/TOP   :mod:`~repro.analysis.mapping_checker` (invariants)
REP       :mod:`~repro.analysis.lint` (repo-convention AST lint)
DET       :mod:`~repro.analysis.det` (determinism lint)
PAR       :mod:`~repro.analysis.par` (concurrency / fork-safety)
CCH       :mod:`~repro.analysis.cch` (cache-key soundness)
FLT       :mod:`~repro.analysis.flt` (fault-plan verifier)
PRC       :mod:`~repro.analysis.prc` (pricing-table invariants)
========  =============================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.diagnostics import Severity

__all__ = ["DiagnosticRule", "FAMILIES", "RULES", "rules_for_family", "is_registered"]


@dataclass(frozen=True)
class DiagnosticRule:
    """One catalogued diagnostic code."""

    code: str
    family: str
    summary: str
    severity: str = Severity.ERROR


#: Family prefix -> human description (used in reports and SARIF).
FAMILIES: Dict[str, str] = {
    "SCH": "schedule verification (symbolic block dataflow)",
    "MAP": "mapping invariants (bijectivity, distance-matrix structure)",
    "TOP": "topology invariants (cluster arithmetic, ladder, fat-tree)",
    "REP": "repo-convention lint (AST pass)",
    "DET": "determinism lint (AST pass)",
    "PAR": "concurrency / fork-safety lint (AST pass)",
    "CCH": "cache-key soundness (signature reflection + probes)",
    "FLT": "fault-plan verification (symbolic round clock)",
    "PRC": "pricing-table invariants (envelope + identity probes)",
}

_RULE_TABLE = [
    # --- schedule verifier -------------------------------------------------
    ("SCH001", "schedule has zero stages or an unusable communicator size"),
    ("SCH002", "message references a rank outside [0, p)"),
    ("SCH003", "units / blocks length mismatch on a message"),
    ("SCH004", "causality violation: a rank sends a block it does not own yet"),
    ("SCH005", "intra-stage port contention (duplicate sender or receiver)"),
    ("SCH006", "duplicate transfer (same src -> dst twice in one stage)"),
    ("SCH007", "redundant transfer (every carried block already owned)", Severity.WARNING),
    ("SCH008", "incomplete collective (a rank ends without required blocks)"),
    # --- mapping / topology ------------------------------------------------
    ("MAP001", "mapping is not a bijection"),
    ("MAP002", "distance matrix is not square 2-D"),
    ("MAP003", "distance matrix is not symmetric"),
    ("MAP004", "distance matrix has a non-zero diagonal"),
    ("MAP005", "distance matrix has negative entries"),
    ("MAP006", "triangle-inequality violation (opt-in audit)", Severity.WARNING),
    ("TOP001", "cluster arithmetic inconsistency (cores / nodes / sockets)"),
    ("TOP002", "cluster distance structure broken (ladder or matrix)"),
    ("TOP003", "network capacity / fat-tree configuration inconsistency"),
    # --- repo-convention lint ---------------------------------------------
    ("REP000", "file-level failure (syntax error, unreadable file)"),
    ("REP001", "direct random / numpy.random use outside util/rng.py"),
    ("REP002", "unregistered or default-named CollectiveAlgorithm subclass"),
    ("REP003", "in-place mutation of a distance-matrix parameter in mapping/"),
    ("REP004", "Mapper.map() returns without permutation validation"),
    # --- determinism lint --------------------------------------------------
    ("DET001", "unseeded or global RNG state (make_rng(None), *.seed())"),
    ("DET002", "iteration over a set feeds order-dependent output"),
    ("DET003", "wall-clock value flows into a fingerprint / cache key / journal"),
    ("DET004", "unsorted os.listdir / glob in a scan or resume path"),
    ("DET005", "executor completion order can leak into persisted output"),
    # --- concurrency / fork-safety ----------------------------------------
    ("PAR001", "module-global mutation in an executor-using module"),
    ("PAR002", "non-atomic file write on a persistence path (use util.atomicio)"),
    ("PAR003", "lambda / closure / live resource submitted to a process pool"),
    # --- cache-key soundness ----------------------------------------------
    ("CCH001", "result-influencing parameter omitted from the cache-key payload"),
    ("CCH002", "cache-key payload field or kwarg exclusion drifted from the contract"),
    ("CCH003", "vectorised pool does not match the CorePool oracle"),
    ("CCH004", "disk-tier cache entry malformed, torn, or collision-prone"),
    ("CCH005", "pricing-cache fingerprint misses a schedule/stage field"),
    # --- fault-plan verifier ----------------------------------------------
    ("FLT001", "fault onset beyond the schedule's round clock (never activates)"),
    ("FLT002", "fault targets missing hardware or leaves < 2 surviving nodes"),
    ("FLT003", "surviving process count violates pow2 heuristic constraints", Severity.WARNING),
    ("FLT004", "degradation factor out of range (non-finite, no-op, or absurd)"),
    ("FLT005", "activation order differs between round clock and seconds clock"),
    # --- pricing-table invariants ------------------------------------------
    ("PRC001", "pricing not monotone in block size (negative drain)"),
    ("PRC002", "negative or non-finite alpha / drain term in a pricing table"),
    ("PRC003", "malformed Pareto envelope (order or dominance broken)"),
    ("PRC004", "pricing-table structure invalid (repeat, messages, loads)"),
    ("PRC005", "batched pricing disagrees with the per-size oracle"),
]

RULES: Dict[str, DiagnosticRule] = {}
for _entry in _RULE_TABLE:
    _code, _summary = _entry[0], _entry[1]
    _severity = _entry[2] if len(_entry) > 2 else Severity.ERROR
    RULES[_code] = DiagnosticRule(
        code=_code, family=_code[:3], summary=_summary, severity=_severity
    )
del _entry, _code, _summary, _severity


def rules_for_family(family: str) -> List[DiagnosticRule]:
    """Every registered rule of one family prefix, code-ordered."""
    return [RULES[c] for c in sorted(RULES) if RULES[c].family == family]


def is_registered(code: str) -> bool:
    """True iff ``code`` is in the catalogue."""
    return code in RULES
