"""Static AccessSet inference: the whole-program footprint rules.

The happens-before checker (:mod:`repro.check`) only sees races on
arrays a kernel *declares* in its AccessSet; an undeclared shared
array is silently unchecked.  A chunk body may write such an array
itself or delegate the write to a helper — ``_replay(...)`` calling
``_wave_step(..., colors, ...)`` which does ``colors[verts] = ...`` —
which is exactly the under-declared speculative access Rokos et al.
(arXiv:1505.04086) identify as where coloring implementations go
wrong.  Two rules check the declarations over the project call graph:

* ``fp-undeclared-write`` (error) — a function in an
  AccessSet-declaring kernel module subscript-writes one of its
  parameter arrays, itself (every write site, closures included) or
  through a callee in any module at any depth, and no ``.writes(...)``
  in the kernel module covers that array name.  A direct write anchors
  at the write; a delegated one anchors at the call site and carries
  the full chain down to the concrete write.  Parameter arrays are the
  shared state handed into chunk bodies, locals are scratch; annotate
  genuine bookkeeping arrays (replay timestamps) with an inline
  ``# repro: ignore[fp-undeclared-write] <why>``.
* ``fp-overbroad-footprint`` (warning) — a ``.writes("name", ...)``
  declaration whose array is never written anywhere in the module,
  directly or through any resolved callee: dead weight that makes the
  race checker look stronger than it is.

Both match arrays by *name* (the AccessSet convention: the declared
label is the chunk-function parameter name) — a renamed pass-through
parameter defeats the diff and is the documented imprecision here.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.callgraph import CallGraph, Chain, infer_transitive_writes
from repro.lint.findings import (SEV_ERROR, SEV_WARNING, ChainHop,
                                 Finding, render_chain)
from repro.lint.index import FilePayload, ProjectIndex
from repro.lint.registry import Project, declare_rule, index_rule

__all__: list[str] = []

_KERNEL_FRAGMENT = "repro/kernels/"

declare_rule("fp-undeclared-write", SEV_ERROR,
             "a kernel function writes a parameter array, itself or "
             "through a helper, but no AccessSet .writes(...) in the "
             "kernel module declares the array — the race checker is "
             "blind to races on it")
declare_rule("fp-overbroad-footprint", SEV_WARNING,
             "an AccessSet declares .writes(...) on an array nothing "
             "in the module writes (directly or through helpers); "
             "over-broad footprints hide real gaps in checker "
             "coverage")


def _chain_hops(chain: Chain) -> tuple[ChainHop, ...]:
    return tuple(ChainHop(path=p, line=ln, note=note)
                 for p, ln, note in chain)


@index_rule
def check_transitive_footprints(index: ProjectIndex,
                                project: Project) -> Iterator[Finding]:
    """Diff direct and transitively inferred parameter writes against
    each kernel module's declared AccessSet write footprints."""
    kernel_mods = [rel for rel in sorted(index.modules)
                   if _KERNEL_FRAGMENT in rel
                   and index.modules[rel].uses_access_sets]
    if not kernel_mods:
        return
    graph = CallGraph(index)
    inferred = infer_transitive_writes(index, graph)

    for relpath in kernel_mods:
        mod = index.modules[relpath]
        declared = mod.declared_writes
        written_names: set[str] = set()
        for qname in sorted(mod.functions):
            fn = mod.functions[qname]
            writes = inferred.get((relpath, qname), {})
            written_names.update(writes)
            # Every direct write site, then every delegated write (a
            # directly written name's inferred chain is its first site).
            chains = [(name, ((relpath, line, f"writes {name}[...]"),))
                      for name, line in sorted(set(fn.sub_writes))]
            chains += [(name, writes[name]) for name in sorted(writes)
                       if len(writes[name]) > 1]
            for name, chain in chains:
                if name not in fn.params or name in declared:
                    continue
                hops = _chain_hops(chain)
                if len(hops) == 1:
                    what = f"'{qname}' writes parameter array '{name}'"
                else:
                    what = (f"'{qname}' passes parameter array '{name}' "
                            f"down a call chain that writes it "
                            f"({render_chain(hops)})")
                yield Finding(
                    rule="fp-undeclared-write", path=relpath,
                    line=hops[0].line, chain=hops,
                    message=(f"{what}, but no AccessSet in this module "
                             f"declares .writes({name!r}, ...)"))
        for name in sorted(declared - written_names):
            line = _declaration_line(project, relpath, name)
            yield Finding(
                rule="fp-overbroad-footprint", path=relpath, line=line,
                severity=SEV_WARNING,
                message=(
                    f"AccessSet declares .writes({name!r}, ...) but "
                    f"nothing in this module writes '{name}', directly "
                    "or through any resolved helper; narrow the "
                    "declaration or name the array after the parameter "
                    "that carries it"))


def _declaration_line(project: Project, relpath: str, name: str) -> int:
    """Best-effort line of the ``.writes("name"`` declaration."""
    payload = _payload_for(project, relpath)
    if payload is None:
        return 1
    needles = (f'.writes("{name}"', f".writes('{name}'")
    for i, text in enumerate(payload.lines, start=1):
        if any(needle in text for needle in needles):
            return i
    return 1


def _payload_for(project: Project, relpath: str) -> FilePayload | None:
    for payload in project.modules:
        if getattr(payload, "relpath", None) == relpath:
            return payload
    return None
