"""Span/event tracer for the simulated machine (``repro.obs``).

Records *what happened when* during a simulation as begin/end spans and
instant events on named tracks, in a form that exports losslessly to the
Chrome trace-event JSON consumed by Perfetto / ``chrome://tracing``
(:mod:`repro.obs.export`).

Design constraints (DESIGN.md "Observability"):

* **Off by default, null-check cheap.**  A :class:`Tracer` is a
  :class:`~repro.sim.hooks.Hooks` instrument in the simulated core's one
  install slot: every site makes one semantic call (``on_chunk``,
  ``on_rmw``, ...) behind one ``if hooks is not None`` test, and the
  overrides below are the only code choosing span names, ``PID_*``
  tracks, track keys and event args.
* **Purely observational.**  The tracer never feeds back into the
  simulation: enabling it cannot change a single simulated cycle (a
  property the tests assert).
* **Deterministic.**  Timestamps are simulated cycles, events are
  appended in engine delivery order, and the engine is deterministic —
  so two traces of the same configuration are byte-identical.

Each parallel region runs its own :class:`~repro.sim.engine.Engine`
starting at ``t = 0``; the tracer keeps a kernel-global ``offset`` that
:meth:`advance` moves past every finished region (mirroring the fault
injector's kernel-global clock), so spans from consecutive loops line up
on one timeline.

Tracks are addressed as ``(pid, tid)``: *pid* selects a process group
(:data:`PID_THREADS` — one track per simulated software thread,
:data:`PID_RESOURCES` — one track per named resource, :data:`PID_ENGINE`
— region lifecycle and watchdog/deadlock events); *tid* is a software
thread id (int) or a resource name (str, mapped to a stable integer at
export time).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ContextManager, Sequence

from repro.sim import hooks as _hooks
from repro.sim.hooks import Hooks

if TYPE_CHECKING:
    from repro.sim.engine import Barrier, Condition
    from repro.sim.resources import AtomicVar, MemoryChannel, TicketLock

__all__ = ["Tracer", "active", "install", "uninstall", "tracing",
           "PID_THREADS", "PID_RESOURCES", "PID_ENGINE", "PROCESS_NAMES",
           "SPAN_BUCKETS", "span_bucket"]

#: Process-group ids of the exported trace (one Perfetto process each).
PID_THREADS = 1      # simulated software threads (chunks, waits, TLS, steals)
PID_RESOURCES = 2    # serialised resources (atomics, locks, DRAM banks)
PID_ENGINE = 3       # region lifecycle, watchdog and deadlock events

#: Human-readable names for the process groups (export metadata).
PROCESS_NAMES = {PID_THREADS: "sim-threads",
                 PID_RESOURCES: "resources",
                 PID_ENGINE: "engine"}

#: Canonical ``span label -> subsystem bucket`` mapping.  These bucket
#: names are the shared vocabulary between the two observability layers:
#: the simulated-cycle spans recorded here and the wall-clock attribution
#: in :mod:`repro.bench.profiler` report under the *same* labels, so a
#: hot-spot table and a Perfetto track name the same subsystem.
SPAN_BUCKETS = {
    "barrier-wait": "engine:barrier-wait",
    "cond-wait": "engine:cond-wait",
    "watchdog-timeout": "engine:events",
    "deadlock": "engine:events",
    "killed": "engine:events",
    "chunk": "runtime:chunk",
    "tls-init": "runtime:tls",
    "hang": "runtime:hang",
    "steal": "runtime:steal",
    "rmw": "resources:atomic",
    "lock": "resources:atomic",
    "xfer": "resources:dram",
}


def span_bucket(name: str) -> str:
    """The subsystem bucket of a recorded span label.

    ``loop:<prefix>`` spans (one per parallel region) collapse to
    ``runtime:loop``; unknown labels fall back to ``other:<name>`` so a
    newly instrumented span is visible (and nameable) before it gets a
    canonical bucket here.
    """
    if name.startswith("loop:"):
        return "runtime:loop"
    return SPAN_BUCKETS.get(name, f"other:{name}")


def active() -> "Tracer | None":
    """The installed tracer (None when off or a checker is installed)."""
    hooks = _hooks.active()
    return hooks if isinstance(hooks, Tracer) else None


def install(tracer: "Tracer") -> None:
    """Install *tracer* in the simulated core's one hook slot."""
    _hooks.install(tracer, Tracer)


def uninstall() -> None:
    """Remove the installed tracer (no-op when none is installed)."""
    _hooks.uninstall(Tracer)


def tracing(tracer: "Tracer | None" = None) -> ContextManager["Tracer"]:
    """Context manager: install a (new by default) tracer, yield it."""
    return _hooks.installed(tracer if tracer is not None else Tracer(),
                            Tracer)


class Tracer(Hooks):
    """Append-only recorder of spans and instant events.

    Events are stored as plain dicts already shaped like Chrome
    trace-event entries (``name``/``ph``/``ts``/``pid``/``tid`` plus
    optional ``args``); :mod:`repro.obs.export` adds track metadata and
    closes any spans left open by a crashed/deadlocked region.
    """

    def __init__(self):
        self.events: list[dict] = []
        self.offset = 0.0        # kernel-global cycles of finished regions
        self._depth: dict = {}   # (pid, tid) -> currently open span count

    def __len__(self) -> int:
        return len(self.events)

    # ----- clock ------------------------------------------------------------

    def ts(self, now: float) -> float:
        """Kernel-global timestamp for region-local time *now*."""
        return self.offset + now

    def advance(self, span: float) -> None:
        """Move the global clock past a finished region of length *span*."""
        if span < 0:
            raise ValueError(f"span must be >= 0, got {span}")
        self.offset += span

    # ----- recording --------------------------------------------------------

    def begin(self, name: str, pid: int, tid, now: float, **args) -> None:
        """Open a span *name* on track ``(pid, tid)`` at region-local *now*."""
        ev = {"name": name, "ph": "B", "ts": self.offset + now,
              "pid": pid, "tid": tid}
        if args:
            ev["args"] = args
        self.events.append(ev)
        key = (pid, tid)
        self._depth[key] = self._depth.get(key, 0) + 1

    def end(self, name: str, pid: int, tid, now: float, **args) -> None:
        """Close the innermost open span on track ``(pid, tid)``."""
        ev = {"name": name, "ph": "E", "ts": self.offset + now,
              "pid": pid, "tid": tid}
        if args:
            ev["args"] = args
        self.events.append(ev)
        key = (pid, tid)
        self._depth[key] = self._depth.get(key, 0) - 1

    def span(self, name: str, pid: int, tid, start: float, end: float,
             **args) -> None:
        """Record a completed span ``[start, end]`` as a balanced B/E pair."""
        if end < start:
            raise ValueError(f"span end {end} precedes start {start}")
        self.begin(name, pid, tid, start, **args)
        self.end(name, pid, tid, end)

    def instant(self, name: str, pid: int, tid, now: float, **args) -> None:
        """Record a zero-duration event (``ph: "i"``, thread scope)."""
        ev = {"name": name, "ph": "i", "s": "t", "ts": self.offset + now,
              "pid": pid, "tid": tid}
        if args:
            ev["args"] = args
        self.events.append(ev)

    def open_spans(self) -> dict:
        """``(pid, tid) -> open span count`` for tracks with unclosed spans."""
        return {k: d for k, d in self._depth.items() if d > 0}

    # ----- hook events: the only place span names and tracks are chosen -----

    def begin_loop(self, label: str, n_threads: int, access: object,
                   items: int) -> None:
        self.begin(f"loop:{label}", PID_ENGINE, 0, 0.0,
                   threads=n_threads, items=items)

    def end_loop(self, label: str, end: float, span: float) -> None:
        self.end(f"loop:{label}", PID_ENGINE, 0, end)
        self.advance(span)

    def on_timeout(self, now: float, kind: str,
                   blocked: Sequence[str]) -> None:
        self.instant("watchdog-timeout", PID_ENGINE, 0, now, kind=kind,
                     blocked=list(blocked))

    def on_deadlock(self, now: float, blocked: Sequence[str]) -> None:
        self.instant("deadlock", PID_ENGINE, 0, now, blocked=list(blocked))

    def on_kill(self, tid: int | None, now: float) -> None:
        if tid is not None:
            self.instant("killed", PID_THREADS, tid, now)

    def on_barrier_wait(self, tid: int | None, now: float) -> None:
        if tid is not None:
            self.begin("barrier-wait", PID_THREADS, tid, now)

    def on_barrier(self, barrier: Barrier, tids: list[int], now: float,
                   release: float) -> None:
        for tid in tids:
            self.end("barrier-wait", PID_THREADS, tid, release)

    def on_cond_wait(self, tid: int | None, now: float) -> None:
        if tid is not None:
            self.begin("cond-wait", PID_THREADS, tid, now)

    def on_cond_fire(self, cond: Condition, tid: int | None,
                     waiters: list[int], now: float) -> None:
        for waiter in waiters:
            self.end("cond-wait", PID_THREADS, waiter, now)

    def on_rmw(self, var: AtomicVar, tid: int | None, now: float,
               start: float, done: float) -> None:
        self.span("rmw", PID_RESOURCES, var.label, start, done,
                  wait=start - now)

    def on_lock(self, lock: TicketLock, tid: int | None, now: float,
                start: float, done: float) -> None:
        self.span("lock", PID_RESOURCES, lock.label, start, done,
                  wait=start - now)

    def on_xfer(self, channel: MemoryChannel, bank: int, now: float,
                start: float, done: float, lines: float) -> None:
        # One track per bank: service intervals on a bank are disjoint,
        # so the B/E spans nest trivially.
        self.span("xfer", PID_RESOURCES, f"{channel.label}-bank{bank}",
                  start, done, lines=lines, wait=start - now)

    def on_chunk(self, tid: int, lo: int, hi: int, start: float,
                 end: float) -> None:
        self.span("chunk", PID_THREADS, tid, start, end, lo=lo, hi=hi)

    def on_hang(self, tid: int, start: float, end: float) -> None:
        self.span("hang", PID_THREADS, tid, start, end)

    def on_tls(self, tid: int, start: float, end: float, lazy: bool) -> None:
        self.span("tls-init", PID_THREADS, tid, start, end, lazy=lazy)

    def on_steal(self, thief: int, victim: int, now: float) -> None:
        self.instant("steal", PID_THREADS, thief, now, victim=victim)

    def request_span(self, route: str, start: float, end: float) -> None:
        """A served HTTP request on *route* (not a simulated-core event)."""
        self.span(f"serve:{route}", 0, "serve", start, end)
