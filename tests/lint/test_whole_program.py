"""Whole-program analysis: cross-module rules, chains, cache, jobs.

Each rule family gets a seeded-violation fixture that must (a) fail
with a finding naming the full call chain and (b) pass once a reasoned
suppression lands at one end of that chain.  The engine-level tests
pin the determinism and caching contracts: byte-identical output for
any worker count, fingerprints stable when a callee moves files, and
warm runs served from the payload cache.
"""

import json

from repro.lint.baseline import entries_for, save_baseline
from repro.lint.engine import lint_paths
from tests.lint.conftest import rules_fired

# ----------------------------------------------------------------- fixtures

#: Kernel module whose chunk body delegates the write to a helper in a
#: different (non-kernel) module — invisible to the per-file rule.
_KERNEL_CALLER = """\
    from repro.support import scatter


    def footprint(n):
        return AccessSet("alpha").writes("out", None)


    def chunk(lo, hi, colors, out):
        out[lo] = 0
        scatter(colors, lo, hi)
    """

_KERNEL_HELPER = """\
    def scatter(arr, lo, hi):
        arr[lo:hi] = 1
    """

_ASYNC_CALLER = """\
    from repro.jobs import load_all


    async def handle(request):
        return load_all(request)
    """

_ASYNC_HELPER = """\
    import os


    def load_all(request):
        return os.listdir(".")
    """

_OBS_CALLER = """\
    from repro.telemetry import note


    def step(state):
        note(None, 1)
        return state
    """

_OBS_HELPER = """\
    def note(trace, value):
        trace.hit(value)
    """


# ------------------------------------------------- static footprints family


def test_transitive_undeclared_write_names_full_chain(run_lint):
    result = run_lint({"repro/kernels/alpha.py": _KERNEL_CALLER,
                       "repro/support.py": _KERNEL_HELPER})
    hits = [f for f in result.findings
            if f.rule == "fp-undeclared-write"]
    assert len(hits) == 1
    finding = hits[0]
    assert finding.path == "repro/kernels/alpha.py"
    assert "'colors'" in finding.message
    assert [h.path for h in finding.chain] == [
        "repro/kernels/alpha.py", "repro/support.py"]
    assert "repro/support.py" in finding.message   # chain is rendered


def test_transitive_footprint_suppressed_at_caller(run_lint):
    caller = """\
        from repro.support import scatter


        def footprint(n):
            return AccessSet("alpha").writes("out", None)


        def chunk(lo, hi, colors, out):
            out[lo] = 0
            # repro: ignore[fp-undeclared-write] replay
            # bookkeeping, not simulated shared state
            scatter(colors, lo, hi)
        """
    result = run_lint({"repro/kernels/alpha.py": caller,
                       "repro/support.py": _KERNEL_HELPER})
    assert "fp-undeclared-write" not in rules_fired(result)
    assert any(f.rule == "fp-undeclared-write"
               for f in result.suppressed)


def test_overbroad_footprint_warns_on_dead_declaration(run_lint):
    result = run_lint({"repro/kernels/beta.py": """\
        def footprint(n):
            return AccessSet("beta").writes("ghost", None)


        def chunk(lo, hi):
            return lo + hi
        """})
    hits = [f for f in result.findings
            if f.rule == "fp-overbroad-footprint"]
    assert len(hits) == 1
    assert "'ghost'" in hits[0].message
    assert result.ok                              # warning, not error


# ----------------------------------------------------- crash-safety family


def test_bare_write_under_durable_root_fails(run_lint):
    result = run_lint({"repro/campaign/saver.py": """\
        def save(path, text):
            with open(path, "w") as fh:
                fh.write(text)
        """})
    assert "crash-bare-write" in rules_fired(result)


def test_unfenced_replace_carries_open_and_replace_hops(run_lint):
    result = run_lint({"repro/graphstore/saver.py": """\
        import os


        def publish(path, text):
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        """})
    hits = [f for f in result.findings
            if f.rule == "crash-unfenced-replace"]
    assert len(hits) == 1
    assert [h.note for h in hits[0].chain][-1] == "os.replace"


def test_fsync_fence_and_append_mode_pass(run_lint):
    result = run_lint({"repro/graphstore/saver.py": """\
        import os


        def publish(path, text):
            tmp = path + ".tmp"
            with open(tmp, "w") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)


        def journal_append(path, line):
            with open(path, "a") as fh:
                fh.write(line)
        """})
    assert not result.findings


def test_crash_rule_suppressed_with_reason(run_lint):
    result = run_lint({"repro/campaign/saver.py": """\
        def save(path, text):
            # repro: ignore[crash-bare-write] chaos harness corrupts
            # stored objects on purpose
            with open(path, "w") as fh:
                fh.write(text)
        """})
    assert "crash-bare-write" not in rules_fired(result)
    assert len(result.suppressed) == 1


# --------------------------------------------------- asyncio-hygiene family


def test_blocking_call_reachable_from_coroutine(run_lint):
    result = run_lint({"repro/serve/web.py": _ASYNC_CALLER,
                       "repro/jobs.py": _ASYNC_HELPER})
    hits = [f for f in result.findings if f.rule == "async-blocking"]
    assert len(hits) == 1
    finding = hits[0]
    assert finding.path == "repro/serve/web.py"
    assert finding.snippet.startswith("async def handle")
    notes = [h.note for h in finding.chain]
    assert notes[0] == "async def handle"
    assert notes[-1] == "os.listdir"


def test_async_blocking_suppressed_at_root_end(run_lint):
    caller = """\
        from repro.jobs import load_all


        # repro: ignore[async-blocking] startup-only path
        async def handle(request):
            return load_all(request)
        """
    result = run_lint({"repro/serve/web.py": caller,
                       "repro/jobs.py": _ASYNC_HELPER})
    assert "async-blocking" not in rules_fired(result)


def test_async_blocking_suppressed_at_blocking_end(run_lint):
    helper = """\
        import os


        def load_all(request):
            # repro: ignore[async-blocking] flat dir, documented cheap
            return os.listdir(".")
        """
    result = run_lint({"repro/serve/web.py": _ASYNC_CALLER,
                       "repro/jobs.py": helper})
    assert "async-blocking" not in rules_fired(result)
    assert any(f.rule == "async-blocking" for f in result.suppressed)


def test_run_in_executor_escapes_reachability(run_lint):
    result = run_lint({"repro/serve/web.py": """\
        import asyncio

        from repro.jobs import load_all


        async def handle(request):
            loop = asyncio.get_running_loop()
            return await loop.run_in_executor(None, load_all, request)
        """, "repro/jobs.py": _ASYNC_HELPER})
    assert "async-blocking" not in rules_fired(result)


# ----------------------------------------------- observer-gating family


def test_ungated_helper_reached_from_sim_scope(run_lint):
    result = run_lint({"repro/sim/engine.py": _OBS_CALLER,
                       "repro/telemetry.py": _OBS_HELPER})
    hits = [f for f in result.findings
            if f.rule == "obs-ungated"]
    assert len(hits) == 1
    finding = hits[0]
    assert finding.path == "repro/sim/engine.py"
    assert [h.path for h in finding.chain] == [
        "repro/sim/engine.py", "repro/telemetry.py"]


def test_gated_helper_is_clean(run_lint):
    result = run_lint({"repro/sim/engine.py": _OBS_CALLER,
                       "repro/telemetry.py": """\
        def note(trace, value):
            if trace is not None:
                trace.hit(value)
        """})
    assert "obs-ungated" not in rules_fired(result)


def test_obs_transitive_suppressed_at_helper_end(run_lint):
    helper = """\
        def note(trace, value):
            # repro: ignore[obs-ungated] caller owns the gate
            trace.hit(value)
        """
    result = run_lint({"repro/sim/engine.py": _OBS_CALLER,
                       "repro/telemetry.py": helper})
    assert "obs-ungated" not in rules_fired(result)


# ------------------------------------------- fingerprints, baseline, chains


def test_fingerprint_stable_when_callee_moves_files(run_lint, tmp_path):
    first = run_lint({"repro/kernels/alpha.py": _KERNEL_CALLER,
                      "repro/support.py": _KERNEL_HELPER})
    fp_a = [f.fingerprint for f in first.findings
            if f.rule == "fp-undeclared-write"]

    moved_caller = _KERNEL_CALLER.replace("repro.support",
                                          "repro.other.helpers")
    (tmp_path / "repro/support.py").unlink()
    second = run_lint({"repro/kernels/alpha.py": moved_caller,
                       "repro/other/helpers.py": _KERNEL_HELPER})
    fp_b = [f.fingerprint for f in second.findings
            if f.rule == "fp-undeclared-write"]
    assert fp_a and fp_a == fp_b     # chain is not part of the identity


def test_baseline_roundtrip_covers_cross_module_findings(run_lint,
                                                         tmp_path):
    files = {"repro/serve/web.py": _ASYNC_CALLER,
             "repro/jobs.py": _ASYNC_HELPER}
    first = run_lint(files)
    assert not first.ok
    bl_path = tmp_path / "baseline.json"
    save_baseline(str(bl_path), entries_for(first.errors, "pre-dates "
                                            "the asyncio rule"))
    second = run_lint(files, baseline_path=str(bl_path))
    assert second.ok
    assert len(second.baselined) == len(first.errors)
    assert not second.stale_baseline


def test_chain_survives_json_roundtrip(run_lint):
    result = run_lint({"repro/serve/web.py": _ASYNC_CALLER,
                       "repro/jobs.py": _ASYNC_HELPER})
    payload = result.to_dict()
    chains = [f["chain"] for f in payload["findings"]
              if f["rule"] == "async-blocking"]
    assert chains and chains[0][0]["note"] == "async def handle"
    json.dumps(payload)              # must be serialisable as-is


# ------------------------------------------------- determinism and caching


def _many_files():
    """Enough files to clear the process-pool threshold."""
    files = {"repro/serve/web.py": _ASYNC_CALLER,
             "repro/jobs.py": _ASYNC_HELPER,
             "repro/kernels/alpha.py": _KERNEL_CALLER,
             "repro/support.py": _KERNEL_HELPER}
    for i in range(16):
        files[f"repro/filler/mod_{i:02d}.py"] = f"VALUE = {i}\n"
    return files


def test_output_identical_across_job_counts(run_lint, tmp_path):
    serial = run_lint(_many_files(), jobs=1, cache_dir="off")
    parallel = run_lint(_many_files(), jobs=4, cache_dir="off")
    dump = lambda r: json.dumps(r.to_dict(), sort_keys=True)  # noqa: E731
    assert dump(serial) == dump(parallel)
    assert not serial.ok             # the seeded violations are present


def test_warm_run_is_served_from_cache(run_lint, tmp_path):
    cache_dir = tmp_path / "cache"
    cold = run_lint(_many_files(), jobs=1, cache_dir=str(cache_dir))
    cached = list(cache_dir.glob("*.pkl"))
    assert len(cached) == len(_many_files())

    # Poison analyze_one: a warm run must not need it.
    import repro.lint.engine as engine_mod

    def _boom(*a, **kw):             # pragma: no cover - failure path
        raise AssertionError("cache miss on a warm run")

    original = engine_mod.analyze_one
    engine_mod.analyze_one = _boom
    try:
        warm = lint_paths([str(tmp_path)], root=str(tmp_path),
                          baseline_path=None, env_doc_path=None,
                          jobs=1, cache_dir=str(cache_dir))
    finally:
        engine_mod.analyze_one = original
    dump = lambda r: json.dumps(r.to_dict(), sort_keys=True)  # noqa: E731
    assert dump(cold) == dump(warm)


def test_cache_invalidated_by_source_change(run_lint, tmp_path):
    cache_dir = tmp_path / "cache"
    first = run_lint({"repro/jobs.py": "VALUE = 1\n"},
                     cache_dir=str(cache_dir))
    assert first.files_checked == 1
    second = run_lint({"repro/jobs.py": "import time\n\n\n"
                       "def f():\n    return time.time()\n"},
                      cache_dir=str(cache_dir))
    # Edited file re-analyzed, not served stale from the cache.
    assert second.files_checked == 1
    assert not any(f.rule == "det-wallclock" for f in second.findings), \
        "repro/jobs.py is outside SIM_SCOPE; sanity check"
