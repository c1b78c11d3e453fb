"""The project-wide index behind :mod:`repro.lint` phase 2.

Phase 1 turns every source file into a picklable :class:`FilePayload`
(per-module findings + suppressions + env uses + a
:class:`ModuleSummary` of symbols and per-function effects).  Payload
construction is embarrassingly parallel — the engine fans it out over a
process pool — and cacheable: payloads are pickled under
``<root>/.repro-lint-cache/`` keyed by the source digest plus a
fingerprint of the lint package itself, so a warm run re-parses only
files whose content (or whose analyzer) changed.

Phase 2 merges the payloads into a :class:`ProjectIndex` — module
table, class table, declared AccessSet write footprints, ungated
observer hooks — over which
:mod:`repro.lint.callgraph` resolves an approximate call graph and the
cross-module rule families run.
"""

from __future__ import annotations

import ast
import os
import pickle
from dataclasses import dataclass, field

from repro._util import sha256_hex
from repro.lint.astutil import const_str, walk_calls
from repro.lint.effects import (FunctionSummary, extract_functions,
                                ungated_obs_calls)

__all__ = ["ClassSummary", "ModuleSummary", "FilePayload", "ProjectIndex",
           "summarize_module", "build_index", "module_name_for",
           "lint_code_fingerprint", "cache_load", "cache_store",
           "CACHE_DIR_NAME"]

CACHE_DIR_NAME = ".repro-lint-cache"


@dataclass(frozen=True)
class ClassSummary:
    """One class definition: its base-class texts and method names."""

    name: str
    bases: tuple[str, ...]           # unparsed base expressions
    methods: tuple[str, ...]         # method qnames ("Cls.meth")


@dataclass
class ModuleSummary:
    """Symbol table + effect summaries of one module."""

    relpath: str
    module: str                      # dotted name ("repro.serve.http")
    imports: dict[str, str] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    declared_writes: frozenset[str] = frozenset()
    uses_access_sets: bool = False
    ungated_obs: tuple[tuple[int, str], ...] = ()  # (line, handle text)


@dataclass
class FilePayload:
    """Everything phase 1 produces for one file (picklable)."""

    relpath: str
    lines: list[str]
    findings: list = field(default_factory=list)       # Finding
    suppressions: list = field(default_factory=list)   # Suppression
    env_uses: list = field(default_factory=list)       # EnvUse
    summary: ModuleSummary | None = None

    def line_at(self, lineno: int) -> str:
        """Stripped source text of 1-based line *lineno*."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def module_name_for(relpath: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/serve/http.py`` → ``repro.serve.http``;
    ``repro/kernels/x.py`` (test fixtures) → ``repro.kernels.x``;
    ``__init__`` collapses onto the package.
    """
    path = relpath
    if path.startswith("src/"):
        path = path[len("src/"):]
    if path.endswith(".py"):
        path = path[:-3]
    parts = [p for p in path.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _import_map(tree: ast.Module, module: str) -> dict[str, str]:
    """Local alias → fully dotted target for module-level imports.

    ``import os`` → ``{"os": "os"}``; ``from repro.campaign.journal
    import Journal`` → ``{"Journal": "repro.campaign.journal.Journal"}``;
    relative imports resolve against *module*'s package.
    """
    out: dict[str, str] = {}
    package = module.rsplit(".", 1)[0] if "." in module else ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else \
                    alias.name.split(".")[0]
                out.setdefault(local, target)
                if alias.asname:
                    out[local] = alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = module.split(".")
                # level 1 = current package, 2 = parent, ...
                anchor = parts[:len(parts) - node.level]
                base = ".".join(anchor + ([base] if base else []))
            elif not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                out[local] = f"{base}.{alias.name}" if base else alias.name
    return out


def _declared_writes(tree: ast.Module) -> tuple[frozenset[str], bool]:
    """(string-literal names handed to ``.writes(...)`` in AccessSet
    builder chains, whether the module builds an AccessSet at all).

    ``.benign_race(...)`` declares no cells — it annotates races on an
    array — so it does not count as a write declaration.
    """
    writes: set[str] = set()
    uses = False
    for call in walk_calls(tree):
        func = call.func
        if isinstance(func, ast.Name) and func.id == "AccessSet":
            uses = True
        elif isinstance(func, ast.Attribute) and func.attr == "writes" \
                and call.args:
            name = const_str(call.args[0])
            if name is not None:
                writes.add(name)
    return frozenset(writes), uses


def summarize_module(tree: ast.Module, relpath: str,
                     import_bound: set[str]) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for one parsed module."""
    module = module_name_for(relpath)
    functions = extract_functions(tree, import_bound)
    classes: dict[str, ClassSummary] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        methods = tuple(sorted(
            q for q, fn in functions.items()
            if fn.class_name == node.name
            and q.startswith(f"{node.name}.")))
        bases = []
        for base in node.bases:
            try:
                bases.append(ast.unparse(base))
            except Exception:        # pragma: no cover - defensive
                pass
        classes[node.name] = ClassSummary(
            name=node.name, bases=tuple(bases), methods=methods)
    writes, uses = _declared_writes(tree)
    return ModuleSummary(
        relpath=relpath, module=module, imports=_import_map(tree, module),
        classes=classes, functions=functions, declared_writes=writes,
        uses_access_sets=uses,
        ungated_obs=ungated_obs_calls(tree, import_bound))


@dataclass
class ProjectIndex:
    """The merged whole-program view phase-2 rules run over."""

    modules: dict[str, ModuleSummary] = field(default_factory=dict)
    by_module_name: dict[str, str] = field(default_factory=dict)

    def function_at(self, key: tuple[str, str]) -> FunctionSummary | None:
        """The summary for ``(relpath, qname)``, or None."""
        mod = self.modules.get(key[0])
        return mod.functions.get(key[1]) if mod else None

    def methods_named(self, name: str) -> list[tuple[str, str]]:
        """Every ``(relpath, qname)`` whose method name is *name*,
        sorted — the unique-name fallback tier of call resolution."""
        out = []
        for relpath in sorted(self.modules):
            mod = self.modules[relpath]
            for qname in sorted(mod.functions):
                fn = mod.functions[qname]
                if fn.name == name and fn.class_name:
                    out.append((relpath, qname))
        return out


def build_index(payloads: list[FilePayload]) -> ProjectIndex:
    """Merge per-file payload summaries into one :class:`ProjectIndex`."""
    index = ProjectIndex()
    for payload in sorted(payloads, key=lambda p: p.relpath):
        if payload.summary is None:
            continue
        index.modules[payload.relpath] = payload.summary
        index.by_module_name.setdefault(payload.summary.module,
                                        payload.relpath)
    return index


# ----- payload cache -------------------------------------------------------

_CODE_FINGERPRINT: str | None = None


def lint_code_fingerprint() -> str:
    """Digest of the lint package source: cache-salt so every analyzer
    change invalidates every cached payload."""
    global _CODE_FINGERPRINT
    if _CODE_FINGERPRINT is not None:
        return _CODE_FINGERPRINT
    pkg_dir = os.path.dirname(os.path.abspath(__file__))
    chunks: list[bytes] = []
    for dirpath, dirnames, filenames in os.walk(pkg_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if not fn.endswith(".py"):
                continue
            full = os.path.join(dirpath, fn)
            with open(full, "rb") as fh:
                chunks.append(os.path.relpath(full, pkg_dir)
                              .encode("utf-8"))
                chunks.append(fh.read())
    _CODE_FINGERPRINT = sha256_hex(b"\x00".join(chunks))[:16]
    return _CODE_FINGERPRINT


def _cache_path(cache_dir: str, relpath: str) -> str:
    return os.path.join(cache_dir, f"{sha256_hex(relpath)[:24]}.pkl")


def cache_key(source: bytes) -> str:
    """The validity key of a payload: source digest + analyzer digest."""
    return f"{sha256_hex(source)[:24]}:{lint_code_fingerprint()}"


def cache_load(cache_dir: str | None, relpath: str,
               key: str) -> FilePayload | None:
    """The cached payload for *relpath* if it matches *key*, else None."""
    if not cache_dir:
        return None
    try:
        with open(_cache_path(cache_dir, relpath), "rb") as fh:
            stored_key, payload = pickle.load(fh)
    except (OSError, pickle.PickleError, EOFError, ValueError,
            AttributeError, ImportError):
        return None
    if stored_key != key or not isinstance(payload, FilePayload):
        return None
    return payload


def cache_store(cache_dir: str | None, relpath: str, key: str,
                payload: FilePayload) -> None:
    """Persist *payload*; failures are silent (cache is best-effort)."""
    if not cache_dir:
        return
    try:
        os.makedirs(cache_dir, exist_ok=True)
        path = _cache_path(cache_dir, relpath)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            pickle.dump((key, payload), fh,
                        protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except OSError:                  # pragma: no cover - best-effort
        pass
