"""Footprint presence: the static half of :mod:`repro.check`.

The happens-before checker can only see races on arrays a kernel
*declares* in its :class:`~repro.kernels.base.AccessSet`; an
undeclared shared array is silently unchecked — exactly the blind spot
Çatalyürek et al. (arXiv:1205.3809) warn about for speculative kernels.
``fp-missing-access`` flags a kernel ``parallel_for`` without an
``access=`` footprint: it simulates shared work the checker cannot
see.  Whether a declared footprint covers every write is the
whole-program ``fp-undeclared-write`` rule's question
(:mod:`repro.lint.rules.static_footprints`).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.astutil import walk_calls
from repro.lint.findings import SEV_ERROR, Finding
from repro.lint.registry import KERNEL_SCOPE, ModuleContext, rule

__all__: list[str] = []


@rule("fp-missing-access", SEV_ERROR,
      "a kernel parallel_for without access= simulates shared work the "
      "repro.check happens-before checker cannot audit; declare the "
      "chunk footprint (or annotate why the loop shares nothing)",
      scope=KERNEL_SCOPE)
def check_missing_access(ctx: ModuleContext) -> Iterator[Finding]:
    """Flag ``*.parallel_for(...)`` calls that pass no ``access=``."""
    for call in walk_calls(ctx.tree):
        func = call.func
        if not (isinstance(func, ast.Attribute)
                and func.attr == "parallel_for"):
            continue
        if any(kw.arg == "access" for kw in call.keywords):
            continue
        yield ctx.finding(
            "fp-missing-access", call,
            "parallel_for(...) without access=: the concurrency checker "
            "sees no footprint for this region")
