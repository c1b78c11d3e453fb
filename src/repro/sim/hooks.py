"""The simulated core's one instrumentation handle.

Each region's :class:`~repro.sim.engine.Engine` captures the installed
instrument once as ``Engine.hooks`` (``None`` when nothing is installed);
the loop context and the resources read it from there, and every site
makes one call behind one ``if hooks is not None:`` test.

:class:`Hooks` declares the event vocabulary as no-ops.  The
:mod:`repro.obs` tracer overrides it into Perfetto spans and the
:mod:`repro.check` checker into happens-before edges; neither feeds back
into the simulation.  The one install slot holds at most one instrument,
so installing a second raises :class:`RuntimeError`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Sequence, TypeVar

if TYPE_CHECKING:
    from repro.sim.engine import Barrier, Condition
    from repro.sim.resources import AtomicVar, MemoryChannel, TicketLock

__all__ = ["Hooks", "active", "install", "uninstall", "installed"]


class Hooks:
    """No-op base of every instrument: the simulated core's events.

    Times are region-local simulated cycles; ``tid`` is a simulated
    software-thread id (``None`` for a process spawned without one).
    """

    def begin_loop(self, label: str, n_threads: int, access: object,
                   items: int) -> None:
        """A parallel region labelled *label* starts."""

    def end_loop(self, label: str, end: float, span: float) -> None:
        """The region's engine drained at *end*; *span* adds fork cost."""

    def on_timeout(self, now: float, kind: str,
                   blocked: Sequence[str]) -> None:
        """The watchdog's *kind* budget ("events" or "time") ran out."""

    def on_deadlock(self, now: float, blocked: Sequence[str]) -> None:
        """The event heap drained with processes still blocked."""

    def on_kill(self, tid: int | None, now: float) -> None:
        """A simulated thread was killed (fault injection)."""

    def on_barrier_wait(self, tid: int | None, now: float) -> None:
        """Thread *tid* blocks at a barrier."""

    def on_barrier(self, barrier: Barrier, tids: list[int], now: float,
                   release: float) -> None:
        """A barrier released *tids*; they resume at *release*."""

    def on_cond_wait(self, tid: int | None, now: float) -> None:
        """Thread *tid* blocks on a condition that has not fired."""

    def on_cond_wake(self, cond: Condition, tid: int | None) -> None:
        """Thread *tid* waited on an already-fired condition."""

    def on_cond_fire(self, cond: Condition, tid: int | None,
                     waiters: list[int], now: float) -> None:
        """Thread *tid* fired a condition, waking *waiters*."""

    def on_rmw(self, var: AtomicVar, tid: int | None, now: float,
               start: float, done: float) -> None:
        """An atomic RMW issued at *now* was served over ``[start, done)``."""

    def on_lock(self, lock: TicketLock, tid: int | None, now: float,
                start: float, done: float) -> None:
        """A lock requested at *now* was held over ``[start, done)``."""

    def on_xfer(self, channel: MemoryChannel, bank: int, now: float,
                start: float, done: float, lines: float) -> None:
        """A DRAM transfer of *lines* held *bank* over ``[start, done)``."""

    def on_chunk(self, tid: int, lo: int, hi: int, start: float,
                 end: float) -> None:
        """Thread *tid* executed items ``[lo, hi)`` over ``[start, end)``."""

    def on_hang(self, tid: int, start: float, end: float) -> None:
        """Thread *tid*'s SMT context was frozen over ``[start, end)``."""

    def on_tls(self, tid: int, start: float, end: float, lazy: bool) -> None:
        """Thread *tid* initialised its thread-local scratch state."""

    def on_deal(self, wid: int) -> None:
        """An initial range was dealt to worker *wid*'s deque."""

    def on_push(self, wid: int) -> None:
        """Worker *wid* pushed a split-off range onto its own deque."""

    def on_pop(self, wid: int) -> None:
        """Worker *wid* popped the bottom of its own deque."""

    def on_steal(self, thief: int, victim: int, now: float) -> None:
        """*thief* stole the top of *victim*'s deque."""


H = TypeVar("H", bound=Hooks)

#: The installed instrument (None = uninstrumented; the common case).
_ACTIVE: Hooks | None = None


def active() -> Hooks | None:
    """The installed instrument, or None."""
    return _ACTIVE


def install(hooks: Hooks, kind: type[Hooks] = Hooks) -> None:
    """Install *hooks*, which must be a *kind* (fails if the slot is taken)."""
    global _ACTIVE
    if not isinstance(hooks, kind):
        raise TypeError(f"expected a {kind.__name__}, got {hooks!r}")
    if _ACTIVE is not None:
        raise RuntimeError(f"a {type(_ACTIVE).__name__} is already "
                           "installed; the simulated core has one slot")
    _ACTIVE = hooks


def uninstall(kind: type[Hooks] = Hooks) -> None:
    """Empty the slot if it holds a *kind* (no-op otherwise)."""
    global _ACTIVE
    if isinstance(_ACTIVE, kind):
        _ACTIVE = None


@contextmanager
def installed(hooks: H, kind: type[Hooks] = Hooks) -> Iterator[H]:
    """Context manager: :func:`install` *hooks* for the block, yield it."""
    install(hooks, kind)
    try:
        yield hooks
    finally:
        uninstall(type(hooks))
