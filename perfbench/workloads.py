"""The benchmark's workloads, run one pass per child process.

A child builds its inputs (imports, suite graphs and orderings, and for the
served workload a result store and a bound server), then times one cold
pass and a fixed number of warm resubmissions of the same sweep:

* a *sweep* pass is the figure sweep a ``repro figN`` invocation runs,
  serial and with no result store; its warm resubmission reruns the sweep
  against a result store that already holds every cell, as
  ``repro figN --store DIR`` does on a second invocation;
* the *served* pass is one cold campaign job submitted over HTTP to an
  in-process server; its warm resubmissions send the same spec again and
  are answered from the server's store.

The environment (``REPRO_*`` pins) is set by ``run.py``; everything else
the program sees is the input seed and the generated inputs below.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import shutil
import tempfile
import time

from perfbench.speed import Speedometer

#: Warm resubmissions per child: >= 30 samples lie beyond p90.
WARM_OPS = 300

#: The served campaign: 3 models x 2 graphs x 3 thread counts = 18 cells.
SERVED_SPEC = {
    "name": "perfbench-served",
    "experiment": "irregular",
    "variants": ["OpenMP", "CilkPlus", "TBB"],
    "machine": "KNF",
    "params": {"iterations": 1},
}


def digest(document) -> str:
    """sha256 of a JSON document in canonical form."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _floats(values) -> list[str]:
    return [repr(float(v)) for v in values]


def _panel_document(panels) -> dict:
    """Everything a sweep's panels report, in canonical form."""
    return {p.title: {"threads": list(p.thread_counts),
                      "baselines": {g: repr(float(b))
                                    for g, b in p.baselines.items()},
                      "series": {k: _floats(s) for k, s in p.series.items()},
                      "per_graph": {f"{v}|{g}": _floats(s)
                                    for (v, g), s in p.per_graph.items()},
                      "failures": sorted(map(str, p.failures))}
            for p in panels}


# ----- sweeps ----------------------------------------------------------------

#: Sweep workload -> (figure module, its driver, the cell runner the driver
#: looks up in its module at call time).
SWEEPS = {
    "coloring-sweep": ("repro.experiments.fig1_coloring", "run_fig1",
                       "coloring_cycles"),
    "irregular-sweep": ("repro.experiments.fig3_irregular", "run_fig3",
                        "irregular_cycles"),
    "bfs-sweep": ("repro.experiments.fig4_bfs", "run_fig4", "bfs_cycles"),
}


class SeededCells:
    """Routes a figure driver's cells through the input seed.

    The ``run_figN`` drivers take no seed but look their cell runner up
    in their module when they run, so replacing that module attribute
    hands every cell the input seed and records its simulated cycles.
    With ``replay`` set, cells are answered from the recorded cycles and
    only counted: a warm pass that reaches one has missed the store.
    """

    def __init__(self, workload: str, seed: int, tracer=None, speed=None):
        module, driver, runner = SWEEPS[workload]
        self.module = importlib.import_module(module)
        self.driver = getattr(self.module, driver)
        self.runner = runner
        self.original = getattr(self.module, runner)
        self.seed = seed
        self.cycles: dict[str, float] = {}
        self.errors: list[str] = []
        self.calls = 0
        self.replay = False
        cell = self._cell
        if tracer is not None:
            cell = tracer.wrap(cell, "campaign.cell")
        if speed is not None:
            timed = cell

            def cell(*args, **kwargs):
                speed.tick()            # outside the traced cell span
                return timed(*args, **kwargs)
        self._installed = cell

    def _cell(self, *args, **kwargs):
        self.calls += 1
        key = "|".join([*map(str, args)]
                       + [f"{k}={getattr(v, 'name', v)}"
                          for k, v in sorted(kwargs.items())])
        if not self.replay:
            try:
                self.cycles[key] = self.original(*args, seed=self.seed,
                                                 **kwargs)
            except Exception:
                self.errors.append(key)
                raise
        return self.cycles[key]

    def __enter__(self):
        setattr(self.module, self.runner, self._installed)
        return self

    def __exit__(self, *exc):
        setattr(self.module, self.runner, self.original)

    def run_pass(self, store=None) -> dict:
        """One run of the figure driver; returns its output document."""
        return _panel_document(self.driver(store=store).values())

    def digest(self) -> str:
        return digest(sorted([k, repr(float(v))]
                             for k, v in self.cycles.items()))


def _sweep_graphs(workload: str, speed: Speedometer) -> None:
    """Build the suite graphs (and orderings) a sweep's cells read."""
    from repro.experiments.harness import ordered_suite_graph, panel_graphs
    from repro.graph.suite import suite_graph
    graphs = panel_graphs()
    if workload == "bfs-sweep":   # panels (a) and (b) name their graph
        graphs += [g for g in ("pwtk", "inline_1") if g not in graphs]
    for g in graphs:
        speed.tick()
        if workload == "coloring-sweep":
            ordered_suite_graph(g, "natural")
        else:
            suite_graph(g)


# ----- one child -------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_time(speed: Speedometer) -> tuple[dict, int]:
    """Set-up time since the parent started this child, in nominal and
    host seconds, and the mark that ends it (and starts the pass)."""
    span, end = speed.since_start()
    return {"setup_s": span["nominal_s"], "setup_wall_s": span["wall_s"],
            "ref_ms": speed.get(end, "ref") * 1e3}, end


def _pass_time(speed: Speedometer, start: int) -> dict:
    """The timed pass since mark *start*, in host and nominal seconds."""
    span = speed.between(start, speed.mark())
    return {"sweep_s": span["nominal_s"], "sweep_cpu_s": span["nominal_cpu_s"],
            "sweep_wall_s": span["wall_s"]}


def run_sweep_child(workload: str, seed: int, speed: Speedometer,
                    workdir: str, tracer=None) -> dict:
    """Set up, then one cold pass and its :data:`WARM_OPS` warm passes."""
    from repro.campaign.store import ResultStore
    _sweep_graphs(workload, speed)
    out, start = _setup_time(speed)
    marks = {"setup": tracer.snapshot() if tracer else {}}
    with SeededCells(workload, seed, tracer, speed) as cells:
        try:
            cold_doc = cells.run_pass()
        except Exception as exc:  # noqa: BLE001 - reported as a failed pass
            out["error"] = f"cold pass: {type(exc).__name__}: {exc}"
            return out
        out.update(_pass_time(speed, start))
        marks["cold"] = tracer.snapshot() if tracer else {}
        if cells.errors:
            out["error"] = f"cold pass: {len(cells.errors)} failed cell(s)"
            return out
        out["digest"] = cells.digest()

        cells.replay = True
        root = tempfile.mkdtemp(prefix="store-", dir=workdir)
        try:
            store = ResultStore(root)
            cells.run_pass(store)                  # fills the store
            out["warm_ms"], out["warm_failed"] = [], 0
            for _ in range(WARM_OPS):
                cells.calls = 0
                start = time.perf_counter()
                try:
                    ok = cells.run_pass(store) == cold_doc
                except Exception:  # noqa: BLE001 - a failed warm pass
                    ok = False
                out["warm_ms"].append((time.perf_counter() - start) * 1e3)
                if not ok or cells.calls:
                    out["warm_failed"] += 1
        finally:
            shutil.rmtree(root, ignore_errors=True)
    marks["end"] = tracer.snapshot() if tracer else {}
    out["peak_rss_mb"] = _peak_rss_mb()
    out["marks"] = marks
    return out


# ----- the served campaign ---------------------------------------------------


def served_spec(seed: int) -> dict:
    from repro.experiments.harness import panel_graphs, panel_threads
    return dict(SERVED_SPEC, graphs=panel_graphs(), threads=panel_threads(),
                seeds=[seed])


def _stream_until_done(url: str, job_id: str) -> dict:
    """Follow the job's NDJSON progress stream to its ``done`` event."""
    import urllib.request
    with urllib.request.urlopen(f"{url}/jobs/{job_id}/stream",
                                timeout=120) as resp:
        for line in resp:
            event = json.loads(line)
            if event.get("event") == "done":
                return event
    raise RuntimeError(f"stream of job {job_id} ended without a done event")


def run_served_child(seed: int, speed: Speedometer, workdir: str,
                     tracer=None) -> dict:
    """Fresh store and server, one cold job, :data:`WARM_OPS` warm ones."""
    from repro.campaign import runners
    from repro.graph.suite import suite_graph
    from repro.serve import client
    from repro.serve.http import BackgroundServer
    from repro.serve.service import CampaignService
    from repro.serve.shards import ShardedResultStore
    spec = served_spec(seed)

    def run_cell(cell):
        speed.tick()                    # in the dispatch thread, between cells
        return runners.run_cell(cell)   # looked up per call: traced or not
    for g in spec["graphs"]:
        speed.tick()
        suite_graph(g)
    root = tempfile.mkdtemp(prefix="served-", dir=workdir)
    out: dict = {}
    marks: dict = {}
    try:
        store = ShardedResultStore(root)
        with BackgroundServer(lambda: CampaignService(
                store, jobs=1, runner=run_cell)) as url:
            setup, start = _setup_time(speed)
            out.update(setup)
            marks["setup"] = tracer.snapshot() if tracer else {}
            status, doc = client.submit_job(url, spec)
            if status != 202:
                out["error"] = f"cold submit: HTTP {status}: {doc}"
                return out
            done = _stream_until_done(url, doc["job"])
            status, cold_bytes = client.job_results(url, doc["job"])
            out.update(_pass_time(speed, start))
            marks["cold"] = tracer.snapshot() if tracer else {}
            if status != 200 or done.get("failed"):
                out["error"] = f"cold results: HTTP {status}, {done}"
                return out
            out["digest"] = hashlib.sha256(cold_bytes).hexdigest()
            out["warm_ms"], out["warm_failed"] = [], 0
            for _ in range(WARM_OPS):
                start = time.perf_counter()
                status, doc = client.submit_job(url, spec)
                cells = doc.get("cells", {})
                ok = (status == 202 and doc.get("done")
                      and cells.get("hits") == cells.get("total"))
                if ok:
                    status, body = client.job_results(url, doc["job"])
                    ok = status == 200 and body == cold_bytes
                out["warm_ms"].append((time.perf_counter() - start) * 1e3)
                if not ok:
                    out["warm_failed"] += 1
            marks["end"] = tracer.snapshot() if tracer else {}
    finally:
        shutil.rmtree(root, ignore_errors=True)
    out["peak_rss_mb"] = _peak_rss_mb()
    out["marks"] = marks
    return out


def run_child(workload: str, seed: int, t0: float, workdir: str,
              trace: bool) -> dict:
    """One child's measurements (with per-span totals when *trace*).
    *t0* is the parent's ``time.monotonic()`` when it started the child."""
    speed = Speedometer(t0)
    # Import every module that holds a traced name before wrapping, so
    # that uninstall() restores each reference.
    import repro.campaign.runners  # noqa: F401
    import repro.experiments.fig1_coloring  # noqa: F401
    import repro.experiments.fig3_irregular  # noqa: F401
    import repro.experiments.fig4_bfs  # noqa: F401
    import repro.serve.client  # noqa: F401
    import repro.serve.http  # noqa: F401
    import repro.serve.shards  # noqa: F401
    from perfbench import tracing
    tracer = None
    if trace:
        tracer = tracing.LayerTracer()
        tracer.install()
    else:
        tracing.assert_untraced()
    try:
        if workload == "served-campaign":
            out = run_served_child(seed, speed, workdir, tracer)
        else:
            out = run_sweep_child(workload, seed, speed, workdir, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not trace:
        out.pop("marks", None)
    return out

