"""Concurrency / fork-safety lint (``PAR0xx``): AST pass over sources.

The checkpointed sweep runner fans cells out over
``ProcessPoolExecutor`` workers and journals them while other
processes may be reading them.  Three statically checkable contracts
keep that safe:

``PAR001``
    Assignment to a module-level name (via a ``global`` statement) inside
    a function of a module that uses ``concurrent.futures``.  Worker
    functions run in forked/spawned children: mutating module globals is
    at best a per-worker cache (each child has its own copy — fine, but
    it must be *intentional* and marked with a justified ``# noqa``) and
    at worst an aliasing bug when the same function also runs in the
    parent.  The deliberate per-worker evaluator cache in
    ``bench/runner.py`` carries exactly such a suppression.

``PAR002``
    Direct (non-atomic) file writes on persistence paths — packages
    ``bench/``, ``mapping/``, ``faults/``, ``simmpi/``, ``topology/``,
    ``serve/`` (the daemon must never tear a file a client or a
    restarted instance then reads):
    ``open(..., "w"/"a"/"x")``, ``Path.write_text`` / ``write_bytes``,
    ``json.dump`` / ``pickle.dump``, ``np.save*``.  A process killed
    mid-write leaves a torn file that a concurrent or resuming reader
    then chokes on; every persistent artefact must go through
    :mod:`repro.util.atomicio` (tmp file + ``os.replace``).

``PAR003``
    Unpicklable / fork-captured callables handed to a process pool:
    a ``lambda`` or a function defined inside the submitting function
    passed to ``submit`` / ``map`` / ``initializer=``.  Closures capture
    live parent state (open handles, ``numpy.random.Generator`` objects)
    that silently diverges — or fails to pickle at all — in the child.
    Also flags raw ``os.fork()``.

Suppress per line with ``# noqa: PAR00x`` plus a justification.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence

from repro.analysis.astpass import (
    SourceVisitor,
    dotted_name,
    parse_or_flag,
    run_source_pass,
)
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport

__all__ = ["check_concurrency_source", "check_concurrency_paths", "main"]

#: Path fragments marking the packages whose files are persistence paths.
_PERSIST_PKGS = (
    "repro/bench/",
    "repro/mapping/",
    "repro/faults/",
    "repro/simmpi/",
    "repro/topology/",
    "repro/serve/",
)

#: Module references that mark a module as executor-using (PAR001 scope).
_EXECUTOR_MARKERS = ("ProcessPoolExecutor", "concurrent.futures")

#: Direct-write method names on path-like objects.
_WRITE_METHODS = {"write_text", "write_bytes"}

#: Direct-write module functions (dotted tails).
_WRITE_FUNCS = {"json.dump", "pickle.dump", "np.save", "np.savez", "np.savetxt",
                "numpy.save", "numpy.savez", "numpy.savetxt"}

#: Pool entry points whose callable argument must be module-level.
_SUBMIT_METHODS = {"submit", "map", "apply_async", "map_async"}


def _mode_is_writing(node: ast.Call) -> bool:
    """True iff an ``open(...)`` call's mode constant writes."""
    mode = None
    if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
        mode = node.args[1].value
    for kw in node.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            mode = kw.value.value
    return isinstance(mode, str) and any(c in mode for c in "wax+")


class _ParVisitor(SourceVisitor):
    def __init__(self, path: str, source: str) -> None:
        super().__init__(path, source)
        norm = path.replace("\\", "/")
        self.uses_executor = any(m in source for m in _EXECUTOR_MARKERS)
        self.in_persist_pkg = any(frag in norm for frag in _PERSIST_PKGS)
        #: Names of functions defined *inside* the current function stack.
        self._nested_defs: List[set] = []

    # ------------------------------------------------------------------
    # PAR001 — global mutation in executor-using modules
    # ------------------------------------------------------------------
    def visit_Global(self, node: ast.Global) -> None:
        if self.uses_executor and self._func_stack:
            func = self._func_stack[-1]
            assigned = {
                t.id
                for stmt in ast.walk(func)
                for t in getattr(stmt, "targets", [])
                if isinstance(t, ast.Name)
            }
            mutated = [n for n in node.names if n in assigned]
            if mutated:
                self.flag(
                    "PAR001",
                    node,
                    f"{getattr(func, 'name', '<fn>')}() assigns module global(s) "
                    f"{', '.join(sorted(mutated))} in an executor-using module; "
                    "per-worker caches must be justified with a # noqa: PAR001",
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------
    # function nesting bookkeeping for PAR003
    # ------------------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._nested_defs:
            self._nested_defs[-1].add(node.name)
        self._nested_defs.append(set())
        super().visit_FunctionDef(node)
        self._nested_defs.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        if self._nested_defs:
            self._nested_defs[-1].add(node.name)
        self._nested_defs.append(set())
        super().visit_AsyncFunctionDef(node)
        self._nested_defs.pop()

    def _is_local_closure(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Lambda):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in defs for defs in self._nested_defs)
        return False

    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func) or ""
        tail = name.split(".")[-1]

        # PAR002 — non-atomic writes on persistence paths
        if self.in_persist_pkg:
            if tail == "open" and _mode_is_writing(node):
                self.flag(
                    "PAR002",
                    node,
                    "open() in write mode on a persistence path; route the "
                    "write through repro.util.atomicio",
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _WRITE_METHODS
            ):
                self.flag(
                    "PAR002",
                    node,
                    f".{node.func.attr}() is a torn-write hazard on a "
                    "persistence path; use atomic_write_text / atomic_write_json",
                )
            elif name in _WRITE_FUNCS:
                self.flag(
                    "PAR002",
                    node,
                    f"{name}() writes directly on a persistence path; "
                    "serialise first and write through repro.util.atomicio",
                )

        # PAR003 — closures into pools, raw fork
        if name == "os.fork":
            self.flag(
                "PAR003",
                node,
                "os.fork() captures all live parent state; use a "
                "ProcessPoolExecutor with module-level workers",
            )
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SUBMIT_METHODS
            and self.uses_executor
        ):
            for arg in node.args[:1]:
                if self._is_local_closure(arg):
                    self.flag(
                        "PAR003",
                        arg,
                        f"{node.func.attr}() given a lambda/closure: it "
                        "fork-captures live parent state and cannot pickle; "
                        "submit a module-level function",
                    )
        for kw in node.keywords:
            if kw.arg == "initializer" and self._is_local_closure(kw.value):
                self.flag(
                    "PAR003",
                    kw.value,
                    "pool initializer is a lambda/closure; use a module-level "
                    "function so spawn-based pools can import it",
                )

        self.generic_visit(node)


# ----------------------------------------------------------------------
def check_concurrency_source(source: str, path: str = "<string>") -> List[Diagnostic]:
    """PAR findings for one module's source text."""
    tree, errors = parse_or_flag(source, path)
    if tree is None:
        return errors
    visitor = _ParVisitor(path, source)
    visitor.visit(tree)
    return sorted(visitor.findings, key=lambda d: (d.path, d.line or 0, d.col or 0))


def check_concurrency_paths(paths: Sequence[str]) -> DiagnosticReport:
    """Run the PAR pass over every ``.py`` file under ``paths``."""
    return run_source_pass(paths, check_concurrency_source, subject="concurrency lint")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.analysis.par [paths...]``."""
    import sys

    args = list(sys.argv[1:] if argv is None else argv)
    paths = args or ["src"]
    report = check_concurrency_paths(paths)
    for diag in report.diagnostics:
        print(diag)
    print(f"par: {len(report)} finding(s) in {', '.join(paths)}")
    return 1 if len(report) else 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
