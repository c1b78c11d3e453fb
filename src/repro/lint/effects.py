"""Per-function effect summaries: the phase-1 data of whole-program lint.

One :class:`FunctionSummary` per ``def``/``async def`` captures, as
plain picklable data (no AST nodes survive), everything the phase-2
cross-module rules reason about:

* every call site, with enough of the callee expression to resolve it
  against the project call graph (:mod:`repro.lint.callgraph`) and the
  plain-``Name`` arguments so array footprints map through helpers;
* subscripted writes (``x[i] = ...``, ``x[i] += ...``,
  ``np.add.at(x, ...)``), nested closures included — the raw material
  of static :class:`~repro.kernels.base.AccessSet` inference;
* ``open(...)`` sites with their mode and a tmp-file heuristic — the
  raw material of the crash-safety write-protocol rule;
* calls through instrument handles that are *not* behind the
  ``is not None`` gate — the raw material of the observer-gating
  rule (:func:`ungated_obs_calls` lists them for a whole module,
  module-level and class-body code included).

Extraction is purely syntactic and intentionally approximate; the
DESIGN.md analyzer section documents the imprecision sources.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.astutil import (call_name, const_str,
                                guards_with_not_none, handle_base,
                                walk_calls)

__all__ = ["CallArg", "CallSite", "OpenOp", "FunctionSummary",
           "extract_functions", "ungated_obs_calls", "BLOCKING_OS_NAMES",
           "blocking_kind"]

#: ``os.<name>`` calls the asyncio-hygiene rule treats as blocking I/O.
#: ``os.path.*`` stats are deliberately absent: they are treated as
#: cheap (documented imprecision).
BLOCKING_OS_NAMES = frozenset({
    "listdir", "walk", "scandir", "fsync", "fdatasync", "replace",
    "rename", "truncate", "makedirs", "removedirs", "remove", "unlink",
    "rmdir", "link", "symlink", "system", "popen",
})


@dataclass(frozen=True)
class CallArg:
    """One call argument: keyword (or None) and the plain-Name text of
    the value when the argument is a bare name, else None."""

    keyword: str | None
    name: str | None


@dataclass(frozen=True)
class CallSite:
    """One call inside a function body, pre-digested for resolution.

    ``base`` is ``""`` for bare calls (``foo(...)``), ``"self"`` /
    ``"cls"`` for method self-calls, and otherwise the unparsed text of
    the attribute base (``"os"``, ``"Journal"``, ``"self._journal"``).
    """

    name: str
    base: str
    line: int
    args: tuple[CallArg, ...] = ()


@dataclass(frozen=True)
class OpenOp:
    """One builtin ``open(...)`` call with a write-capable mode."""

    line: int
    mode: str
    target: str          # unparsed path expression (locals resolved)
    tmpish: bool         # target smells like a tmp/scratch file


@dataclass(frozen=True)
class FunctionSummary:
    """Picklable effect summary of one function definition."""

    qname: str                       # "f", "Class.meth", "outer.inner"
    name: str                        # last qname segment
    line: int
    is_async: bool
    class_name: str                  # "" for module-level functions
    params: tuple[str, ...]          # signature order, *args in, no self/cls
    calls: tuple[CallSite, ...] = ()
    sub_writes: tuple[tuple[str, int], ...] = ()   # (name, line)
    opens: tuple[OpenOp, ...] = ()
    ungated_obs: tuple[tuple[int, str], ...] = ()  # (line, handle text)


def blocking_kind(call: CallSite) -> str | None:
    """The blocking-I/O label for *call*, or None when not blocking.

    Textual classification (``import time as t`` defeats it — a
    documented imprecision): ``time.sleep``, ``subprocess.*``,
    ``shutil.*``, ``socket.*`` and the :data:`BLOCKING_OS_NAMES`
    subset of ``os.*``.  Builtin ``open`` is classified separately via
    :class:`OpenOp` (any mode: sync file I/O blocks the loop).
    """
    if call.base == "time" and call.name == "sleep":
        return "time.sleep"
    if call.base in ("subprocess", "shutil", "socket"):
        return f"{call.base}.{call.name}"
    if call.base == "os" and call.name in BLOCKING_OS_NAMES:
        return f"os.{call.name}"
    if call.base == "" and call.name == "open":
        return "open"
    return None


#: Substrings marking a path expression as a scratch/tmp target that
#: is published later via ``os.replace`` (or never published at all).
_TMPISH = ("tmp", "partial", "compact", "scratch")


def _is_tmpish(text: str) -> bool:
    low = text.lower()
    return any(tok in low for tok in _TMPISH)


def _call_args(call: ast.Call) -> tuple[CallArg, ...]:
    out: list[CallArg] = []
    for arg in call.args:
        out.append(CallArg(
            keyword=None,
            name=arg.id if isinstance(arg, ast.Name) else None))
    for kw in call.keywords:
        if kw.arg is None:        # **kwargs — opaque
            continue
        out.append(CallArg(
            keyword=kw.arg,
            name=kw.value.id if isinstance(kw.value, ast.Name) else None))
    return tuple(out)


def _split_call(call: ast.Call) -> tuple[str, str] | None:
    """(base, name) of the called expression, or None when unnameable."""
    func = call.func
    if isinstance(func, ast.Name):
        return "", func.id
    if isinstance(func, ast.Attribute):
        try:
            return ast.unparse(func.value), func.attr
        except Exception:           # pragma: no cover - defensive
            return None
    return None


def _open_mode(call: ast.Call) -> str | None:
    """The literal mode of a builtin ``open`` call ("r" when omitted)."""
    for kw in call.keywords:
        if kw.arg == "mode":
            return const_str(kw.value)
    if len(call.args) >= 2:
        return const_str(call.args[1])
    return "r" if call.args else None


def _ungated_handle(call: ast.Call, import_bound: set[str]) -> str | None:
    """The handle text of an observer hook call missing its ``is not
    None`` gate, else None.

    A bare name bound by an import (``from repro.sim import hooks``) is
    a module alias, not a handle.
    """
    handle = handle_base(call)
    if handle is None or guards_with_not_none(call, handle):
        return None
    if isinstance(handle, ast.Name) and handle.id in import_bound:
        return None
    return ast.unparse(handle)


def ungated_obs_calls(tree: ast.Module,
                      import_bound: set[str]) -> tuple[tuple[int, str], ...]:
    """``(line, handle text)`` of every ungated hook call in *tree*."""
    out = []
    for call in walk_calls(tree):
        handle = _ungated_handle(call, import_bound)
        if handle is not None:
            out.append((call.lineno, handle))
    return tuple(out)


def _subscript_writes(fn: ast.FunctionDef | ast.AsyncFunctionDef
                      ) -> tuple[tuple[str, int], ...]:
    """``(name, line)`` of every ``name[...] = ...``, ``name[...] op=
    ...`` and in-place scatter ``np.<op>.at(name, ...)`` in *fn*, in
    source order.

    Nested defs are walked too: closures are the chunk bodies, and a
    closure's write to a captured parameter writes the enclosing
    function's array.
    """
    out: list[tuple[str, int]] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            if call_name(node) == "at" and node.args \
                    and isinstance(node.args[0], ast.Name):
                out.append((node.args[0].id, node.lineno))
            continue
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Tuple):
                targets.extend(target.elts)
            elif isinstance(target, ast.Subscript) \
                    and isinstance(target.value, ast.Name):
                out.append((target.value.id, target.lineno))
    return tuple(sorted(out, key=lambda write: write[1]))


class _FnVisitor:
    """Collects one function's calls, opens and ungated hooks, skipping
    nested defs (each nested def gets its own summary; calls are
    attributed to the innermost enclosing function)."""

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef,
                 import_bound: set[str]):
        self.fn = fn
        self.import_bound = import_bound
        self.calls: list[CallSite] = []
        self.opens: list[OpenOp] = []
        self.ungated: list[tuple[int, str]] = []
        # Simple local string assignments, for resolving
        # ``tmp = f"{path}.tmp"; open(tmp, "w")`` at the open site.
        self.locals_text: dict[str, str] = {}

    def run(self) -> None:
        for stmt in self.fn.body:
            self._visit(stmt)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return                   # separate summary
        if isinstance(node, ast.Assign):
            self._record_assign(node)
        elif isinstance(node, ast.Call):
            self._record_call(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _record_assign(self, node: ast.Assign) -> None:
        targets = list(node.targets)
        for target in targets:
            if isinstance(target, ast.Tuple):
                targets.extend(target.elts)
            elif isinstance(target, ast.Name):
                try:
                    self.locals_text[target.id] = ast.unparse(node.value)
                except Exception:    # pragma: no cover - defensive
                    pass

    def _record_call(self, call: ast.Call) -> None:
        split = _split_call(call)
        if split is not None:
            base, name = split
            self.calls.append(CallSite(
                name=name, base=base, line=call.lineno,
                args=_call_args(call)))
            if base == "" and name == "open":
                self._record_open(call)
        handle = _ungated_handle(call, self.import_bound)
        if handle is not None:
            self.ungated.append((call.lineno, handle))

    def _record_open(self, call: ast.Call) -> None:
        mode = _open_mode(call)
        if mode is None or not call.args:
            return
        arg = call.args[0]
        try:
            target = ast.unparse(arg)
        except Exception:            # pragma: no cover - defensive
            return
        resolved = target
        if isinstance(arg, ast.Name) and arg.id in self.locals_text:
            resolved = self.locals_text[arg.id]
        self.opens.append(OpenOp(
            line=call.lineno, mode=mode, target=target,
            tmpish=_is_tmpish(target) or _is_tmpish(resolved)))


@dataclass
class _Scope:
    prefix: str
    class_name: str


def extract_functions(tree: ast.Module,
                      import_bound: set[str]) -> dict[str, FunctionSummary]:
    """All function summaries of a module, keyed by qualified name."""
    out: dict[str, FunctionSummary] = {}

    def walk(body: list[ast.stmt], scope: _Scope) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = f"{scope.prefix}{node.name}"
                args = node.args
                vararg = [args.vararg] if args.vararg else []
                params = tuple(
                    a.arg for a in (args.posonlyargs + args.args + vararg
                                    + args.kwonlyargs)
                    if a.arg not in ("self", "cls"))
                visitor = _FnVisitor(node, import_bound)
                visitor.run()
                summary = FunctionSummary(
                    qname=qname, name=node.name, line=node.lineno,
                    is_async=isinstance(node, ast.AsyncFunctionDef),
                    class_name=scope.class_name, params=params,
                    calls=tuple(visitor.calls),
                    sub_writes=_subscript_writes(node),
                    opens=tuple(visitor.opens),
                    ungated_obs=tuple(visitor.ungated))
                if qname not in out:     # first def wins (overloads)
                    out[qname] = summary
                walk(node.body, _Scope(prefix=f"{qname}.",
                                       class_name=scope.class_name))
            elif isinstance(node, ast.ClassDef):
                walk(node.body, _Scope(prefix=f"{scope.prefix}{node.name}.",
                                       class_name=node.name))
            else:
                # Compound statements: defs under if/try/except/with/
                # for/while/match are functions too.
                for sub in ast.iter_child_nodes(node):
                    if isinstance(sub, ast.stmt):
                        walk([sub], scope)
                    elif isinstance(sub, (ast.excepthandler,
                                          ast.match_case)):
                        walk(sub.body, scope)
    walk(tree.body, _Scope(prefix="", class_name=""))
    return out
