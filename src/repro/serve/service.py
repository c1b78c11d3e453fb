"""The campaign service core: jobs, dedup, dispatch, persistence.

:class:`CampaignService` is the framework-free heart of ``repro serve``
— the HTTP layer (:mod:`repro.serve.http`) is a thin adapter over it,
and the test suite drives it directly.  One service owns:

* a **job table** — every accepted :class:`~repro.campaign.spec.CampaignSpec`
  becomes a :class:`Job` with a deterministic id
  (``<spec-hash[:8]>-<seq>``, the same shape as journal run ids);
* a **cell-task table** keyed by cell id — the dedup point.  A submitted
  cell that hashes to an already-queued or running computation *attaches*
  to it instead of enqueueing a duplicate; every subscribed job receives
  the one result.  Cells whose result is already in the sharded store
  are served as warm hits at submit time and never touch the queue;
* the **priority work queue** (:class:`~repro.serve.queue.PriorityWorkQueue`)
  with per-client quota admission control;
* a **dispatcher** coroutine that drains cell batches and hands them to
  the supervised campaign executor
  (:func:`repro.campaign.executor.execute` — the
  :class:`~repro.campaign.supervise.Supervisor` process pool when
  ``jobs > 1``) on a dedicated thread via ``run_in_executor``, so the
  event loop keeps serving requests while cells compute;
* the **journal** — every accepted job and every settled cell is
  write-ahead-logged through :class:`repro.campaign.journal.Journal`
  into ``<store>/journals/serve/``.  A SIGKILL'd server replays it on
  restart: unfinished jobs are requeued under their original ids (zero
  lost jobs), finished cells are served from the store/journal without
  recomputation.

Determinism contract: cells run through the exact executor/runner path
``repro campaign run`` uses, and :meth:`Job.results_bytes` serialises
through :func:`repro.campaign.cli.campaign_results_dict` with the same
``sort_keys``/``indent`` — a job's results are byte-identical to the
``--output`` file of a serial CLI run of the same spec.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from repro._util import canonical_json, sha256_hex
from repro.campaign.journal import (JOURNAL_FILENAME, Journal, JournalError,
                                    JournalState, encode_record)
from repro.campaign.spec import CampaignSpec
from repro.serve.queue import PriorityWorkQueue, QuotaExceeded

__all__ = ["CampaignService", "Job", "ServiceDraining", "UnknownJob",
           "serve_journal_dir", "QuotaExceeded"]

#: The service journal lives beside campaign run journals but under a
#: name the campaign CLI's run-id regex never matches, so ``repro
#: campaign resume`` does not offer it.
SERVE_JOURNAL_NAME = "serve"


class ServiceDraining(Exception):
    """The server is draining and no longer accepts submissions."""


class UnknownJob(KeyError):
    """No job with the requested id."""


def serve_journal_dir(store_root: str) -> str:
    """The server's journal directory under *store_root*."""
    from repro.campaign.journal import journal_dir
    return journal_dir(store_root, SERVE_JOURNAL_NAME)


class Job:
    """One accepted campaign submission and its per-cell progress."""

    def __init__(self, job_id: str, spec: CampaignSpec, cells: list,
                 client: str, priority: int, created: float):
        self.job_id = job_id
        self.spec = spec
        self.cells = cells
        self.client = client
        self.priority = priority
        self.created = created
        self.finished: float | None = None
        self.values: dict[str, float] = {}    # cell-id -> cycles (NaN=failed)
        self.errors: dict[str, str] = {}      # cell-id -> error string
        self.pending: set[str] = set()        # cell-ids not yet settled
        self.hits = 0          # served from the sharded store at submit
        self.resumed = 0       # served from the journal replay at submit
        self.attached = 0      # deduped onto an in-flight computation
        self.computed = 0      # settled by a dispatch this job subscribed to
        self.failed = 0        # settled as NaN after retries
        self.done = asyncio.Event()
        self._watchers: list[asyncio.Queue] = []

    # ----- progress --------------------------------------------------------

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def completed(self) -> int:
        return len(self.values)

    def watch(self) -> asyncio.Queue:
        """Subscribe to this job's event stream (None = end of stream)."""
        queue: asyncio.Queue = asyncio.Queue()
        if self.done.is_set():
            queue.put_nowait(None)
        else:
            self._watchers.append(queue)
        return queue

    def unwatch(self, queue: asyncio.Queue) -> None:
        if queue in self._watchers:
            self._watchers.remove(queue)

    def _emit(self, event: dict) -> None:
        for queue in self._watchers:
            queue.put_nowait(event)

    def _close_watchers(self) -> None:
        for queue in self._watchers:
            queue.put_nowait(None)
        self._watchers.clear()

    # ----- rendering -------------------------------------------------------

    def status_dict(self, now: float, rate: float) -> dict:
        """The job's live status (poll endpoint)."""
        pending = len(self.pending)
        if self.done.is_set():
            eta = 0.0
        elif rate > 0:
            eta = pending / rate
        else:
            eta = None
        elapsed = (self.finished if self.finished is not None else now) \
            - self.created
        return {
            "job": self.job_id,
            "campaign": self.spec.name,
            "client": self.client,
            "priority": self.priority,
            "done": self.done.is_set(),
            "elapsed_seconds": max(0.0, elapsed),
            "eta_seconds": eta,
            "cells": {
                "total": self.total,
                "completed": self.completed,
                "pending": pending,
                "hits": self.hits,
                "resumed": self.resumed,
                "attached": self.attached,
                "computed": self.computed,
                "failed": self.failed,
            },
        }

    def results_bytes(self) -> bytes:
        """The results document, byte-identical to ``repro campaign run
        --output`` for the same spec and code fingerprint."""
        from repro.campaign.cli import campaign_results_dict
        from repro.campaign.executor import ExecutionReport
        report = ExecutionReport()
        for cell in self.cells:
            cid = cell.cell_id
            if cid in self.values:
                report.values[cell] = self.values[cid]
            if cid in self.errors:
                report.errors[cell] = self.errors[cid]
        payload = campaign_results_dict(self.spec, self.cells, report)
        return (json.dumps(payload, sort_keys=True, indent=1) + "\n") \
            .encode("utf-8")


class _CellTask:
    """One queued-or-running cell and the jobs subscribed to it."""

    __slots__ = ("cell", "state", "jobs")

    def __init__(self, cell):
        self.cell = cell
        self.state = "queued"       # -> "running"
        self.jobs: list[str] = []   # subscriber job ids, in attach order


class CampaignService:
    """The campaign service core (see module docstring).

    All state mutation happens on the owning event loop; the dispatch
    thread reports completions back via ``call_soon_threadsafe``.

    Parameters
    ----------
    store
        A store with the executor's store interface — normally a
        :class:`~repro.serve.shards.ShardedResultStore`.
    jobs
        Compute width handed to the campaign executor per batch
        (1 = serial in the dispatch thread, N = supervised fork pool).
    quota
        Per-client pending-cell admission limit
        (default ``REPRO_SERVE_QUOTA``).
    retries
        Per-cell retry budget (default ``REPRO_RETRIES``, like the CLI).
    runner
        ``cell -> cycles`` (default the campaign runner registry's
        :func:`~repro.campaign.runners.run_cell`; injectable for tests).
    batch
        Maximum cells drained per dispatch round (default
        ``max(8, 4 * jobs)``) — smaller batches settle jobs sooner,
        larger ones amortise pool startup.
    journal_root
        Directory for the service journal (default
        ``<store.root>/journals/serve/``; None disables journaling).
    retain_done
        Keep at most this many finished jobs — in memory and through the
        startup journal compaction (default ``REPRO_SERVE_RETAIN``;
        0 = keep everything forever).  Unfinished jobs are never evicted.
    """

    def __init__(self, store, *, jobs: int | None = None,
                 quota: int | None = None, retries: int | None = None,
                 runner=None, batch: int | None = None,
                 journal_root: str | None = None,
                 retain_done: int | None = None, clock=time.time):
        from repro._util import env_int
        from repro.serve.config import serve_jobs, serve_quota, serve_retain

        self.store = store
        self.jobs = jobs if jobs is not None else serve_jobs()
        self.retries = retries if retries is not None \
            else (env_int("REPRO_RETRIES", 1, lo=0) or 0)
        if runner is None:
            from repro.campaign.runners import run_cell
            runner = run_cell
        self._runner = runner
        self.batch = batch if batch is not None else max(8, 4 * self.jobs)
        self.queue = PriorityWorkQueue(quota if quota is not None
                                       else serve_quota())
        self._journal_root = journal_root if journal_root is not None \
            else (serve_journal_dir(store.root)
                  if getattr(store, "root", None) else None)
        self.retain_done = retain_done if retain_done is not None \
            else serve_retain()
        self._clock = clock
        self._journal: Journal | None = None
        self._tasks: dict[str, _CellTask] = {}
        self._jobs: dict[str, Job] = {}
        self._resume_values: dict[str, float] = {}
        self._ended_in_journal: set[str] = set()
        self._seq = 0
        self._rate = 0.0            # EMA of computed cells/second
        self._dispatcher: asyncio.Task | None = None
        self._inflight = 0          # cells inside the current batch
        self._pool: ThreadPoolExecutor | None = None
        self.draining = False
        self.drained = asyncio.Event()
        self.started_at = clock()
        self.requeued_jobs: list[str] = []  # journal-replayed on startup

    # ----- lifecycle -------------------------------------------------------

    # repro: ignore[async-blocking] startup runs before the server
    # accepts traffic: journal replay, compaction and requeue journaling
    # block the loop deliberately — nothing is concurrent with them yet.
    async def start(self, *, dispatch: bool = True) -> None:
        """Open/replay the journal, requeue unfinished jobs, start the
        dispatcher.

        ``dispatch=False`` accepts and journals jobs but never computes
        a cell — the crash-simulation seam the resume tests use to model
        a server killed between acknowledgement and dispatch.
        """
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-dispatch")
        state = self._open_journal()
        if state is not None:
            self._resume(state)
        if dispatch:
            self._dispatcher = asyncio.get_running_loop().create_task(
                self._dispatch_loop())

    async def stop(self) -> None:
        """Cancel the dispatcher and release the compute pool."""
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        if self._journal is not None:
            self._journal.close()
            self._journal = None

    def _open_journal(self) -> JournalState | None:
        """Replay, sanitize, and compact the service journal on startup.

        The journal is long-lived across restarts, so opening it is not
        a bare append:

        * **stale fingerprints** — completions journaled under a
          different code fingerprint are discarded (serving them would
          break byte-identity with a fresh run; the campaign CLI's
          resume refuses the same case).  The jobs themselves survive:
          they requeue and recompute under the current code.
        * **compaction** — the file is atomically rewritten from the
          replayed state: a fresh ``begin`` under the current
          fingerprint, the completions still worth caching, and the job
          records (live ones, plus the last :attr:`retain_done` finished
          ones).  Rewriting also discards any torn tail or mid-file
          corruption replay stopped at, so appends never land after
          partial bytes, and bounds restart replay time.
        * an unreplayable file (``kill -9`` tore the ``begin`` record
          itself) is set aside as ``journal.jsonl.corrupt`` rather than
          wedging every future startup.
        """
        if self._journal_root is None:
            return None
        path = os.path.join(self._journal_root, JOURNAL_FILENAME)
        fingerprint = getattr(self.store, "fingerprint", "")
        state: JournalState | None = None
        if os.path.isfile(path):
            try:
                state = Journal.open(self._journal_root).replay()
            except JournalError as exc:
                print(f"repro serve: journal unreplayable ({exc}); "
                      f"setting it aside", file=sys.stderr)
                os.replace(path, path + ".corrupt")
        if state is None:
            self._journal = Journal.create(
                self._journal_root, run_id=SERVE_JOURNAL_NAME,
                campaign="__serve__", spec={"service": "repro.serve"},
                fingerprint=fingerprint)
            return None
        if state.fingerprint != fingerprint:
            print(f"repro serve: journal fingerprint {state.fingerprint} "
                  f"!= code fingerprint {fingerprint}; discarding "
                  f"{len(state.completed)} journaled completion(s) — "
                  f"replayed jobs will recompute", file=sys.stderr)
            state.completed.clear()
            state.failed.clear()
        self._retire_old_jobs(state)
        self._compact_journal(state, fingerprint)
        self._journal = Journal.open(self._journal_root)
        return state

    def _retire_old_jobs(self, state: JournalState) -> None:
        """Apply the :attr:`retain_done` retention policy to *state*.

        Finished jobs beyond the cap are dropped oldest-first (journal
        order); completions that no surviving job's cells can use are
        dropped with them, so the compacted journal and the in-memory
        resume table stay bounded together.  Unfinished jobs always
        survive — zero lost jobs is the contract retention must not
        bend.
        """
        cap = self.retain_done
        ended = [jid for jid in state.jobs if jid in state.ended_jobs]
        if cap and len(ended) > cap:
            for jid in ended[:-cap]:
                del state.jobs[jid]
                state.ended_jobs.discard(jid)
        keep: set[str] = set()
        for record in state.jobs.values():
            try:
                cells = CampaignSpec.from_dict(record["spec"]).expand()
            except (ValueError, KeyError, TypeError):
                continue
            keep.update(cell.cell_id for cell in cells)
        for cid in [c for c in state.completed if c not in keep]:
            del state.completed[cid]

    def _compact_journal(self, state: JournalState,
                         fingerprint: str) -> None:
        """Atomically rewrite the journal file from replayed *state*."""
        lines = [encode_record({"type": "begin", "run": SERVE_JOURNAL_NAME,
                                "campaign": "__serve__",
                                "spec": {"service": "repro.serve"},
                                "fingerprint": fingerprint})]
        for cid, value in state.completed.items():
            lines.append(encode_record({"type": "completed", "cell": cid,
                                        "value": float(value)}))
        for job_id, record in state.jobs.items():
            lines.append(encode_record(
                {"type": "job", "job": job_id,
                 "campaign": record.get("campaign"),
                 "spec": record.get("spec"),
                 "client": record.get("client", "anonymous"),
                 "priority": int(record.get("priority", 0))}))
            if job_id in state.ended_jobs:
                lines.append(encode_record({"type": "job-end",
                                            "job": job_id}))
        path = os.path.join(self._journal_root, JOURNAL_FILENAME)
        tmp = f"{path}.compact"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("".join(lines))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    def _resume(self, state: JournalState) -> None:
        """Rebuild the job table from a replayed journal.

        Jobs without a ``job-end`` record are requeued under their
        original ids; ended jobs are rebuilt too (their cells come back
        as store/journal hits) so clients can still poll and fetch them
        after a restart.  Journaled cell completions serve as a fallback
        value source when the store misses.
        """
        self._resume_values = dict(state.completed)
        self._ended_in_journal = set(state.ended_jobs)
        for job_id, record in state.jobs.items():
            suffix = job_id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                self._seq = max(self._seq, int(suffix))
            try:
                spec = CampaignSpec.from_dict(record["spec"])
            except (ValueError, KeyError, TypeError):
                continue  # stale spec from an older code version
            job = self._admit(spec, client=record.get("client", "anonymous"),
                              priority=record.get("priority", 0),
                              job_id=job_id, journal_record=False)
            self.requeued_jobs.append(job.job_id)

    # ----- submission ------------------------------------------------------

    def new_job_id(self, spec: CampaignSpec) -> str:
        """Deterministic job id: ``<spec-hash[:8]>-<seq>``."""
        self._seq += 1
        prefix = sha256_hex(canonical_json(spec.to_dict()))[:8]
        return f"{prefix}-{self._seq}"

    def submit(self, spec_data: dict | CampaignSpec, *,
               client: str = "anonymous", priority: int = 0) -> Job:
        """Accept one campaign submission; returns its :class:`Job`.

        Raises :class:`ValueError` on an invalid spec,
        :class:`~repro.serve.queue.QuotaExceeded` over quota, and
        :class:`ServiceDraining` while draining — the HTTP layer maps
        these to 400/429/503.
        """
        if self.draining:
            raise ServiceDraining("server is draining; submit rejected")
        spec = spec_data if isinstance(spec_data, CampaignSpec) \
            else CampaignSpec.from_dict(spec_data)
        return self._admit(spec, client=client, priority=priority)

    def _admit(self, spec: CampaignSpec, *, client: str, priority: int,
               job_id: str | None = None, journal_record: bool = True) -> Job:
        cells = spec.expand()
        # Plan first (no queue mutation): which cells are warm, which
        # attach to in-flight work, which need computing.  A spec with
        # duplicate axis values expands to the same cell twice; it is
        # one unit of work and one result, so the plan dedupes by id.
        plan = []           # (cell, disposition, value)
        planned: set[str] = set()
        pending_cells = 0
        for cell in cells:
            cid = cell.cell_id
            if cid in planned:
                continue
            planned.add(cid)
            if cid in self._tasks:
                plan.append((cell, "attach", None))
                pending_cells += 1
                continue
            value = self.store.get(cell.to_dict()) \
                if self.store is not None else None
            if value is not None:
                plan.append((cell, "hit", value))
                continue
            if cid in self._resume_values:
                plan.append((cell, "resume", self._resume_values[cid]))
                continue
            plan.append((cell, "queue", None))
            pending_cells += 1
        # Admission control before any mutation: a rejected submission
        # leaves no partial footprint.  Journal-replayed jobs were
        # admitted under quota once, so resume charges without the cap.
        if journal_record:
            self.queue.reserve(client, pending_cells)
        else:
            self.queue.charge(client, pending_cells)
        if job_id is None:
            job_id = self.new_job_id(spec)
        if journal_record and self._journal is not None:
            self._journal.job(job_id, campaign=spec.name,
                              spec=spec.to_dict(), client=client,
                              priority=priority)
        job = Job(job_id, spec, cells, client, priority, self._clock())
        self._jobs[job_id] = job
        for cell, disposition, value in plan:
            cid = cell.cell_id
            if disposition == "hit":
                job.values[cid] = value
                job.hits += 1
                self._count_cell("hit")
            elif disposition == "resume":
                job.values[cid] = value
                job.resumed += 1
                self._count_cell("resumed")
            elif disposition == "attach":
                task = self._tasks.get(cid)
                if task is None:    # settled between plan and commit
                    job.pending.add(cid)
                    self._enqueue(cell, job_id, priority)
                else:
                    task.jobs.append(job_id)
                    job.pending.add(cid)
                    job.attached += 1
                    self._count_cell("attached")
            else:
                job.pending.add(cid)
                self._enqueue(cell, job_id, priority)
        if not job.pending:
            self._finish_job(job)
        return job

    def _enqueue(self, cell, job_id: str, priority: int) -> None:
        task = _CellTask(cell)
        task.jobs.append(job_id)
        self._tasks[cell.cell_id] = task
        self.queue.push(cell.cell_id, priority)
        self._count_cell("queued")

    def _count_cell(self, status: str) -> None:
        from repro.obs import metrics as _obs_metrics
        registry = _obs_metrics.active()
        if registry is not None:
            registry.incr("serve.cells", status=status)

    # ----- dispatch --------------------------------------------------------

    # repro: ignore[async-blocking] durability-before-acknowledgement by
    # design: settle-path journal appends fsync on the loop so a crash
    # can never acknowledge a cell the journal has not yet seen; batch
    # compute itself runs in the executor.
    async def _dispatch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            self._check_drained()
            drained = await self.queue.drain(self.batch)
            cells = []
            for cid in drained:
                task = self._tasks.get(cid)
                if task is not None and task.state == "queued":
                    task.state = "running"
                    cells.append(task.cell)
            if not cells:
                continue
            self._inflight = len(cells)
            try:
                report = await loop.run_in_executor(
                    self._pool, self._run_batch, cells, loop)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 — a broken batch
                # (store OSError, runner import failure, pool breakage)
                # must not kill the dispatcher silently: settle its
                # cells as failed so jobs finish with errors instead of
                # hanging forever, then keep dispatching.
                self._inflight = 0
                self._fail_batch(cells, exc)
                continue
            try:
                self._finalize_batch(cells, report)
            finally:
                self._inflight = 0

    def _run_batch(self, cells, loop):
        """Execute one batch on the dispatch thread (supervised pool
        when ``jobs > 1``); per-cell progress is marshalled back onto
        the event loop as cells settle."""
        from repro.campaign.executor import execute

        def on_cell(cell, value):
            loop.call_soon_threadsafe(self._progress, cell, value)

        return execute(
            self._runner, cells, jobs=self.jobs, retries=self.retries,
            store=self.store, spec_for=lambda c: c.to_dict(),
            key_id=lambda c: c.cell_id, family_for=lambda c: c.experiment,
            on_cell=on_cell, desc="cells (serve)")

    def _fail_batch(self, cells, exc: BaseException) -> None:
        """Settle a batch whose *dispatch* blew up (not a cell failure —
        the executor turns those into NaN values inside the report)."""
        message = f"dispatch failed: {type(exc).__name__}: {exc}"
        print(f"repro serve: {message}", file=sys.stderr)
        from repro.obs import metrics as _obs_metrics
        registry = _obs_metrics.active()
        if registry is not None:
            registry.incr("serve.dispatch_errors")
        for cell in cells:
            self._settle_cell(cell, float("nan"), message)
        self._check_drained()

    def _progress(self, cell, value) -> None:
        """Per-cell completion from inside a running batch (loop thread).

        Finite values settle immediately — subscribers see the cell the
        moment it computes, not at batch end.  NaN (failed) cells wait
        for the batch report, which carries their error strings.
        """
        if math.isfinite(value):
            self._settle_cell(cell, float(value), None)

    def _finalize_batch(self, cells, report) -> None:
        """Settle whatever the per-cell progress path did not."""
        for cell in cells:
            if cell.cell_id not in self._tasks:
                continue
            value = report.values.get(cell, float("nan"))
            self._settle_cell(cell, float(value), report.errors.get(cell))
        worked = report.computed + report.failed
        if worked and report.elapsed > 0:
            rate = worked / report.elapsed
            self._rate = rate if self._rate == 0.0 \
                else 0.5 * self._rate + 0.5 * rate
        self._check_drained()

    def _settle_cell(self, cell, value: float, error: str | None) -> None:
        cid = cell.cell_id
        task = self._tasks.pop(cid, None)
        if task is None:
            return
        failed = error is not None or not math.isfinite(value)
        if self._journal is not None:
            if failed:
                self._journal.failed(cid, error or "failed")
            else:
                self._journal.completed(cid, value)
        self._count_cell("failed" if failed else "computed")
        for job_id in task.jobs:
            job = self._jobs.get(job_id)
            if job is None:
                continue
            job.values[cid] = value
            if failed:
                job.errors[cid] = error or "failed"
                job.failed += 1
            else:
                job.computed += 1
            job.pending.discard(cid)
            self.queue.release(job.client, 1)
            event = {"event": "cell", "job": job_id, "cell": cid,
                     "completed": job.completed, "total": job.total}
            if failed:
                event["error"] = job.errors[cid]
            else:
                event["value"] = value
            job._emit(event)
            if not job.pending:
                self._finish_job(job)

    def _finish_job(self, job: Job) -> None:
        job.finished = self._clock()
        job.done.set()
        if self._journal is not None \
                and job.job_id not in self._ended_in_journal:
            self._journal.job_end(job.job_id)
            self._ended_in_journal.add(job.job_id)
        job._emit({"event": "done", "job": job.job_id,
                   "failed": job.failed, "total": job.total})
        job._close_watchers()
        self._evict_done()

    def _evict_done(self) -> None:
        """Drop the oldest finished jobs beyond :attr:`retain_done`.

        Keeps a long-running server's job table (and the journal it
        compacts to on the next restart) bounded; an evicted job's
        status/results return 404, exactly as after a restart beyond
        the retention window.  Unfinished jobs are never evicted.
        """
        cap = self.retain_done
        if not cap:
            return
        done = [job for job in self._jobs.values() if job.done.is_set()]
        for job in done[:max(0, len(done) - cap)]:
            del self._jobs[job.job_id]
            self._ended_in_journal.discard(job.job_id)

    # ----- inspection ------------------------------------------------------

    def job(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJob(job_id) from None

    def jobs_list(self) -> list[Job]:
        """Every known job, oldest first."""
        return list(self._jobs.values())

    @property
    def rate(self) -> float:
        """Smoothed compute throughput (cells/second; 0 = unknown)."""
        return self._rate

    @property
    def inflight(self) -> int:
        """Cells inside the batch being computed right now."""
        return self._inflight

    def health(self) -> dict:
        """The server/store health document (``GET /healthz``)."""
        now = self._clock()
        jobs = self._jobs.values()
        active = sum(not j.done.is_set() for j in jobs)
        store_block = self.store.health() if hasattr(self.store, "health") \
            else {"root": getattr(self.store, "root", None),
                  **self.store.stats.to_dict()}
        return {
            "status": "draining" if self.draining else "ok",
            "uptime_seconds": max(0.0, now - self.started_at),
            "jobs": {"total": len(self._jobs), "active": active,
                     "done": len(self._jobs) - active,
                     "requeued_on_start": len(self.requeued_jobs)},
            "queue": {"depth": self.queue.depth,
                      "inflight": self._inflight,
                      "pushed": self.queue.pushed,
                      "popped": self.queue.popped,
                      "quota": self.queue.quota,
                      "loads": self.queue.loads()},
            "dispatch": {"jobs": self.jobs, "batch": self.batch,
                         "retries": self.retries,
                         "rate_cells_per_second": self._rate},
            "store": store_block,
            "graphs": self._graphs_block(),
            "journal": {"path": self._journal.path
                        if self._journal is not None else None},
        }

    @staticmethod
    def _graphs_block() -> dict | None:
        """Graph-registry health (None when ``REPRO_GRAPH_DIR`` unset).

        ``count_objects`` is a single listdir — cheap enough to poll —
        and the stats come from the process-wide registry the dispatch
        path shares, so warm traffic shows up as mmap hits here.
        """
        from repro.graphstore.registry import registry_from_env
        registry = registry_from_env()
        if registry is None:
            return None
        return {"root": registry.root,
                # repro: ignore[async-blocking] health-poll listdir over
                # a flat object directory: documented-cheap, and /health
                # is an operator endpoint, not the dispatch hot path.
                "objects": registry.count_objects(),
                **registry.stats.to_dict()}

    # ----- drain -----------------------------------------------------------

    def drain(self) -> dict:
        """Stop accepting submissions; report what is left to finish."""
        self.draining = True
        self._check_drained()
        return {"draining": True, "queued": self.queue.depth,
                "inflight": self._inflight,
                "active_jobs": sum(not j.done.is_set()
                                   for j in self._jobs.values())}

    def _check_drained(self) -> None:
        if self.draining and not self._tasks and self.queue.depth == 0 \
                and self._inflight == 0:
            self.drained.set()
