"""Cache-key soundness checks (``CCH0xx``).

The mapping cache (:mod:`repro.mapping.cache`) and the engine's pricing
cache (:mod:`repro.simmpi.engine`) address results by content hashes.
A cache is only sound when *everything that influences the result* is in
the key; a parameter added to :func:`repro.mapping.reorder.reorder_ranks`
or a field added to :class:`~repro.collectives.schedule.Stage` that is
not folded into the corresponding key silently serves stale results.
These checks reflect over the live signatures so the gap is caught the
moment it is introduced, not when a cache hit goes wrong:

``CCH001``
    A parameter of ``reorder_ranks`` has no declared *role* — it is
    neither mapped into the sha256 payload (pattern, layout, D →
    fingerprint, rng → seed, ``**mapper_kwargs`` → kwargs) nor declared
    result-neutral (``cache``).  Whoever adds a parameter must extend
    :data:`REORDER_PARAM_ROLES` *and* the key payload together.

``CCH002``
    The key payload drifted from the contract: ``mapping_cache_key``
    lost a payload parameter a role points at, or its kwarg exclusion
    set no longer equals the documented
    :data:`DOCUMENTED_KWARG_EXCLUSIONS` (empty: every mapper kwarg is
    content).

``CCH003``
    The key names the topology, not the placement executor that ran:
    the distance backend picks :class:`~repro.mapping.base.
    HierarchicalFreePool` or the :class:`~repro.mapping.base.CorePool`
    oracle, and a cached mapping is only sound while the two agree.  The
    probe runs every fine-tuned heuristic on a small cluster through both
    (implicit vs. dense backend) and compares the permutations
    element-wise: the vectorised pool must match the ``CorePool`` oracle.

``CCH004``
    Disk-tier hygiene: every ``<key>.json`` in a cache directory must
    have a 64-char lowercase-hex stem (anything else is foreign or
    collision-prone on case-insensitive filesystems) and parse into a
    valid mapping record (mapping is a permutation of the layout).

``CCH005``
    The engine pricing cache fingerprints a schedule via
    ``_schedule_fingerprint``; every dataclass field of ``Schedule`` /
    ``Stage`` must either be folded into that hash or be declared
    pricing-irrelevant (:data:`PRICING_IRRELEVANT_FIELDS`: ``blocks``
    feeds only the data executor, ``label`` is cosmetic).  Adding a
    field to the schedule IR without deciding its cache fate is an
    error.

Signature findings are anchored to the inspected function's ``def``
line, so ``# noqa: CCH00x`` works there like for any AST pass; the
probe/scan findings accept ``ignore=`` suppression (see
:mod:`repro.analysis.suppress`).
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional

import numpy as np

from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.suppress import NoqaFilter, apply_suppressions

__all__ = [
    "DOCUMENTED_KWARG_EXCLUSIONS",
    "PRICING_IRRELEVANT_FIELDS",
    "REORDER_PARAM_ROLES",
    "check_cache_keys",
    "check_cache_dir",
    "check_pricing_fingerprint_coverage",
    "check_reorder_key_coverage",
    "probe_engine_identity",
]

#: ``reorder_ranks`` parameter -> cache-key payload field.  ``None``
#: declares the parameter result-neutral (documented non-content).
REORDER_PARAM_ROLES: Dict[str, Optional[str]] = {
    "pattern": "pattern",
    "layout": "layout",
    "D": "fingerprint",
    "kind": "kind",
    "rng": "seed",
    "cache": None,  # selects *where* to look, never what is computed
    "mapper_kwargs": "kwargs",
}

#: Mapper kwargs deliberately dropped from the key (each one needs a
#: bit-identity proof); none today.
DOCUMENTED_KWARG_EXCLUSIONS = frozenset()

#: Schedule/Stage dataclass fields that legitimately stay out of the
#: pricing fingerprint.
PRICING_IRRELEVANT_FIELDS = frozenset({"blocks", "label"})


# ----------------------------------------------------------------------
# source anchoring + noqa
# ----------------------------------------------------------------------
def _anchor(func: Callable) -> Dict[str, object]:
    """``path``/``line`` location of a function's ``def`` (may be empty)."""
    try:
        path = inspect.getsourcefile(func)
        _, line = inspect.getsourcelines(func)
    except (OSError, TypeError):
        return {}
    return {"path": path, "line": line}


def _apply_noqa(report: DiagnosticReport) -> DiagnosticReport:
    """Honour ``# noqa`` markers at the anchored source lines."""
    filters: Dict[str, NoqaFilter] = {}
    kept = DiagnosticReport(subject=report.subject)
    for diag in report.diagnostics:
        if diag.path and diag.line:
            if diag.path not in filters:
                try:
                    filters[diag.path] = NoqaFilter(Path(diag.path).read_text())
                except OSError:
                    filters[diag.path] = NoqaFilter("")
            if filters[diag.path].suppressed(diag.line, diag.code):
                continue
        kept.diagnostics.append(diag)
    return kept


# ----------------------------------------------------------------------
# CCH001 / CCH002 — signature reflection
# ----------------------------------------------------------------------
def _extract_string_exclusions(func: Callable) -> Optional[frozenset]:
    """String constants a key function compares kwarg names against.

    Reads the function's AST and collects every string that appears on
    the right of a ``!=`` / ``not in`` test — the idiom
    ``if k != "name"`` (or ``k not in {...}``) used to drop kwargs
    from the payload.  Returns ``None`` when the source is unavailable.
    """
    try:
        source = textwrap.dedent(inspect.getsource(func))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError):
        return None
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        for op, comparator in zip(node.ops, node.comparators):
            if isinstance(op, (ast.NotEq, ast.NotIn, ast.Eq, ast.In)):
                if isinstance(comparator, ast.Constant) and isinstance(
                    comparator.value, str
                ):
                    found.add(comparator.value)
                elif isinstance(comparator, (ast.Set, ast.Tuple, ast.List)):
                    for elt in comparator.elts:
                        if isinstance(elt, ast.Constant) and isinstance(
                            elt.value, str
                        ):
                            found.add(elt.value)
    return frozenset(found)


def check_reorder_key_coverage(
    func: Optional[Callable] = None,
    key_func: Optional[Callable] = None,
    roles: Optional[Dict[str, Optional[str]]] = None,
    documented_exclusions: Iterable[str] = DOCUMENTED_KWARG_EXCLUSIONS,
) -> DiagnosticReport:
    """CCH001/CCH002: every ``func`` parameter reaches ``key_func``'s payload."""
    if func is None:
        from repro.mapping.reorder import reorder_ranks as func  # type: ignore
    if key_func is None:
        from repro.mapping.cache import mapping_cache_key as key_func  # type: ignore
    roles = dict(REORDER_PARAM_ROLES if roles is None else roles)
    documented = frozenset(documented_exclusions)
    report = DiagnosticReport(subject="cache-key coverage")
    anchor = _anchor(func)

    sig = inspect.signature(func)
    for name, param in sig.parameters.items():
        if param.kind is inspect.Parameter.VAR_KEYWORD and name not in roles:
            # a renamed **kwargs catch-all still plays the kwargs role
            roles[name] = "kwargs"
        if name not in roles:
            report.add(
                "CCH001",
                f"{func.__name__}() parameter {name!r} has no cache-key role: "
                "it influences results but is absent from the sha256 payload "
                "(extend REORDER_PARAM_ROLES and the key together, or declare "
                "it result-neutral)",
                **anchor,
            )

    key_params = set(inspect.signature(key_func).parameters)
    if "mapper_kwargs" in key_params:
        # mapping_cache_key folds its mapper_kwargs dict into the "kwargs"
        # payload field; a key function without that parameter cannot.
        key_params.discard("mapper_kwargs")
        key_params.add("kwargs")
    for name, field in roles.items():
        if field is not None and field not in key_params:
            report.add(
                "CCH002",
                f"cache-key payload field {field!r} (role of parameter "
                f"{name!r}) is not accepted by {key_func.__name__}(); the key "
                "no longer covers it",
                **_anchor(key_func) or anchor,
            )

    coded = _extract_string_exclusions(key_func)
    if coded is not None and coded != documented:
        undeclared = sorted(coded - documented)
        unenforced = sorted(documented - coded)
        bits = []
        if undeclared:
            bits.append(
                f"excludes undeclared kwarg(s) {undeclared} from the payload"
            )
        if unenforced:
            bits.append(f"no longer enforces documented exclusion(s) {unenforced}")
        report.add(
            "CCH002",
            f"{key_func.__name__}() {' and '.join(bits)}; keep the code and "
            "DOCUMENTED_KWARG_EXCLUSIONS in lockstep (each exclusion needs a "
            "bit-identity proof)",
            **_anchor(key_func) or anchor,
        )
    return _apply_noqa(report)


# ----------------------------------------------------------------------
# CCH003 — the vectorised pool must match the CorePool oracle
# ----------------------------------------------------------------------
def probe_engine_identity(n_nodes: int = 2, seed: int = 0) -> DiagnosticReport:
    """Run every heuristic on the dense and the implicit backend and compare.

    The dense matrix runs the :class:`~repro.mapping.base.CorePool`
    oracle, the implicit backend the vectorised
    :class:`~repro.mapping.base.HierarchicalFreePool`; the mapping-cache
    key records neither, so the two must be bit-identical.
    """
    from repro.mapping.initial import make_layout
    from repro.mapping.reorder import HEURISTICS, reorder_ranks
    from repro.topology.gpc import gpc_cluster

    report = DiagnosticReport(subject="placement bit-identity probe")
    cluster = gpc_cluster(n_nodes=n_nodes)
    p = cluster.n_cores
    dense = cluster.distance_matrix()
    implicit = cluster.implicit_distances()
    layout = make_layout("cyclic-bunch", cluster, p)
    for pattern in sorted(HEURISTICS):
        oracle = reorder_ranks(
            pattern, layout, dense, kind="heuristic", rng=seed, cache="off"
        )
        vectorized = reorder_ranks(
            pattern, layout, implicit, kind="heuristic", rng=seed, cache="off"
        )
        if not np.array_equal(oracle.mapping, vectorized.mapping):
            diff = int(np.count_nonzero(oracle.mapping != vectorized.mapping))
            report.add(
                "CCH003",
                f"pattern {pattern!r}: the vectorised pool differs from the "
                f"CorePool oracle at {diff}/{p} ranks — cached mappings are "
                "unsound until the two are bit-identical again",
            )
    return report


# ----------------------------------------------------------------------
# CCH004 — disk-tier hygiene
# ----------------------------------------------------------------------
def check_cache_dir(directory) -> DiagnosticReport:
    """Validate every entry of an on-disk mapping-cache tier."""
    import json

    from repro.mapping.cache import MappingCache

    report = DiagnosticReport(subject="mapping-cache disk tier")
    directory = Path(directory)
    if not directory.is_dir():
        return report
    seen_lower: Dict[str, str] = {}
    for path in sorted(directory.glob("*.json")):
        stem = path.stem
        if len(stem) != 64 or stem != stem.lower() or any(
            c not in "0123456789abcdef" for c in stem.lower()
        ):
            report.add(
                "CCH004",
                f"{path.name}: cache filename is not a 64-char lowercase "
                "sha256 hex key (foreign file, or collision-prone on "
                "case-insensitive filesystems)",
                path=str(path),
            )
            continue
        if stem.lower() in seen_lower and seen_lower[stem.lower()] != stem:
            report.add(
                "CCH004",
                f"{path.name}: collides with {seen_lower[stem.lower()]}.json "
                "modulo case",
                path=str(path),
            )
        seen_lower[stem.lower()] = stem
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            report.add(
                "CCH004",
                f"{path.name}: torn or unreadable cache entry ({exc})",
                path=str(path),
            )
            continue
        if not MappingCache._valid(entry):
            report.add(
                "CCH004",
                f"{path.name}: entry is not a valid mapping record "
                "(mapping must be a permutation of the cached layout)",
                path=str(path),
            )
    return report


# ----------------------------------------------------------------------
# CCH005 — pricing fingerprint covers the schedule IR
# ----------------------------------------------------------------------
def check_pricing_fingerprint_coverage(
    fingerprint_func: Optional[Callable] = None,
    schedule_cls=None,
    stage_cls=None,
    irrelevant: Iterable[str] = PRICING_IRRELEVANT_FIELDS,
) -> DiagnosticReport:
    """CCH005: every Schedule/Stage field is hashed or declared irrelevant."""
    if fingerprint_func is None:
        from repro.simmpi.engine import _schedule_fingerprint as fingerprint_func
    if schedule_cls is None or stage_cls is None:
        from repro.collectives.schedule import Schedule, Stage

        schedule_cls = schedule_cls or Schedule
        stage_cls = stage_cls or Stage
    irrelevant = frozenset(irrelevant)
    report = DiagnosticReport(subject="pricing fingerprint coverage")
    anchor = _anchor(fingerprint_func)

    try:
        source = textwrap.dedent(inspect.getsource(fingerprint_func))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError):
        report.add(
            "CCH005",
            f"cannot read the source of {fingerprint_func.__name__}() to "
            "verify its field coverage",
            **anchor,
        )
        return _apply_noqa(report)

    hashed = {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }
    # f-string payloads also count: "{schedule.p}|..." appears as Attribute
    # nodes inside the JoinedStr, so the walk above already collects them.
    for cls in (schedule_cls, stage_cls):
        for field in dataclass_fields(cls):
            if field.name in hashed or field.name in irrelevant:
                continue
            report.add(
                "CCH005",
                f"{cls.__name__}.{field.name} is neither folded into "
                f"{fingerprint_func.__name__}() nor declared "
                "pricing-irrelevant; the pricing cache would serve stale "
                "tables when it changes",
                **anchor,
            )
    return _apply_noqa(report)


# ----------------------------------------------------------------------
def check_cache_keys(
    probe_engines: bool = True,
    cache_dir=None,
    n_nodes: int = 2,
    ignore: Iterable[str] = (),
) -> DiagnosticReport:
    """Run every CCH check; the one-call entry point used by the audit."""
    report = DiagnosticReport(subject="cache-key soundness")
    report.extend(check_reorder_key_coverage())
    report.extend(check_pricing_fingerprint_coverage())
    if probe_engines:
        report.extend(probe_engine_identity(n_nodes=n_nodes))
    if cache_dir:
        report.extend(check_cache_dir(cache_dir))
    return apply_suppressions(report, ignore)
