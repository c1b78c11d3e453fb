"""Observer gating: instrument hooks stay one comparison when off.

The tracer and the checker reach the simulated core through one hook
handle (``self.hooks = _hooks.active()``, :mod:`repro.sim.hooks`), the
metrics layer through ``registry = _obs_metrics.active()``; every call
through either sits behind a single ``is not None`` test.  A call that
skips it crashes every uninstrumented run — or worse, gets "fixed" with
a try/except that hides the cost asymmetry.

``obs-ungated`` enforces the idiom for the simulated core
(``SIM_SCOPE``) over the call graph.  It reports every ungated hook
call written in a ``SIM_SCOPE`` module — in a function, a class body or
module-level code — at the call.  It also walks call edges from every
function in such a module into out-of-scope modules, and reports paths
that reach an ungated handle call there, with the full chain as
evidence: a hot-path function may delegate to a helper outside the
scope.

In-scope callees are deliberately not traversed: their ungated calls
are already reported where they are written, and reporting the same
site twice would force double suppressions.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.callgraph import CallGraph, FnKey
from repro.lint.findings import (SEV_ERROR, ChainHop, Finding,
                                 render_chain)
from repro.lint.index import ProjectIndex
from repro.lint.registry import SIM_SCOPE, Project, declare_rule, \
    index_rule

__all__: list[str] = []

_MAX_DEPTH = 6

declare_rule("obs-ungated", SEV_ERROR,
             "calls through instrument handles (hooks, tracer, metrics "
             "registry) reached from the simulated core, directly or "
             "through out-of-scope helpers, must sit behind the single "
             "`is not None` null check so the off path stays one "
             "comparison and uninstrumented runs cannot crash")


def _in_sim_scope(relpath: str) -> bool:
    return any(frag in relpath for frag in SIM_SCOPE)


@index_rule
def check_transitive_gating(index: ProjectIndex,
                            project: Project) -> Iterator[Finding]:
    """Report ungated obs calls in SIM_SCOPE modules, then walk SIM_SCOPE
    → out-of-scope call edges to ungated obs calls."""
    sim_mods = [rel for rel in sorted(index.modules)
                if _in_sim_scope(rel)]
    if not sim_mods:
        return
    graph = CallGraph(index)

    for relpath in sim_mods:
        mod = index.modules[relpath]
        for line, handle in mod.ungated_obs:
            yield Finding(
                rule="obs-ungated", path=relpath, line=line,
                message=(f"hook call through {handle} is not guarded "
                         f"by `if {handle} is not None:`"))
        for qname in sorted(mod.functions):
            root: FnKey = (relpath, qname)
            root_fn = mod.functions[qname]
            reported: set[tuple[str, int]] = set()
            queue: list[tuple[FnKey, tuple[ChainHop, ...]]] = []
            seen: set[FnKey] = {root}
            for call, target in graph.edges(root):
                if _in_sim_scope(target[0]) or target in seen:
                    continue
                tfn = index.function_at(target)
                if tfn is None:
                    continue
                seen.add(target)
                queue.append((target, (ChainHop(
                    relpath, call.line,
                    f"{root_fn.qname} → {tfn.qname}"),)))
            depth = 0
            while queue and depth <= _MAX_DEPTH:
                next_queue: list[tuple[FnKey,
                                       tuple[ChainHop, ...]]] = []
                for key, hops in queue:
                    fn = index.function_at(key)
                    if fn is None:
                        continue
                    for line, handle in fn.ungated_obs:
                        terminal = (key[0], line)
                        if terminal in reported:
                            continue
                        reported.add(terminal)
                        chain = (*hops, ChainHop(
                            key[0], line, f"{handle}.<hook>(...)"))
                        yield Finding(
                            rule="obs-ungated",
                            path=relpath, line=hops[0].line,
                            message=(
                                f"'{root_fn.qname}' reaches an "
                                f"ungated observer-handle call "
                                f"({handle}) in an out-of-scope "
                                "helper; gate the helper or hoist the "
                                "null check to the hot path; chain: "
                                f"{render_chain(chain)}"),
                            chain=chain)
                    for call, target in graph.edges(key):
                        if _in_sim_scope(target[0]) or target in seen:
                            continue
                        tfn = index.function_at(target)
                        if tfn is None:
                            continue
                        seen.add(target)
                        next_queue.append((target, (*hops, ChainHop(
                            key[0], call.line, tfn.qname))))
                queue = next_queue
                depth += 1
