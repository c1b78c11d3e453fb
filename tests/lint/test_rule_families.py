"""One seeded violation per rule family, asserting detection.

This is the gate the CI step relies on: if a rule silently stops
firing, these tests fail before the repo can quietly accumulate the
violations the rule exists to catch.  Each test also includes the
clean twin of the seeded violation, so rules cannot pass by flagging
everything.
"""

import pytest

from tests.lint.conftest import rules_fired

# ---------------------------------------------------------------- determinism


def test_det_wallclock_fires_in_sim_scope(run_lint):
    result = run_lint({"repro/sim/clock.py": """\
        import time

        def stamp():
            return time.time()
        """})
    assert "det-wallclock" in rules_fired(result)


def test_det_wallclock_ignores_non_sim_code(run_lint):
    result = run_lint({"repro/experiments/bench.py": """\
        import time

        def stamp():
            return time.time()
        """})
    assert "det-wallclock" not in rules_fired(result)


def test_det_unseeded_rng_fires(run_lint):
    result = run_lint({"repro/kernels/shuffle.py": """\
        import numpy as np

        def pick(n):
            return np.random.default_rng().integers(n)
        """})
    assert "det-unseeded-rng" in rules_fired(result)


def test_det_seeded_rng_is_clean(run_lint):
    result = run_lint({"repro/kernels/shuffle.py": """\
        import numpy as np

        def pick(n, seed):
            return np.random.default_rng(seed).integers(n)
        """})
    assert "det-unseeded-rng" not in rules_fired(result)


def test_det_urandom_fires(run_lint):
    result = run_lint({"repro/machine/entropy.py": """\
        import os

        def salt():
            return os.urandom(8)
        """})
    assert "det-urandom" in rules_fired(result)


def test_det_set_order_fires(run_lint):
    result = run_lint({"repro/runtime/order.py": """\
        def visit(out):
            for x in {3, 1, 2}:
                out.append(x)
        """})
    assert "det-set-order" in rules_fired(result)


def test_det_set_order_accepts_sorted(run_lint):
    result = run_lint({"repro/runtime/order.py": """\
        def visit(out):
            for x in sorted({3, 1, 2}):
                out.append(x)
        """})
    assert "det-set-order" not in rules_fired(result)


# --------------------------------------------------------------- env hygiene


def test_env_raw_read_fires_anywhere(run_lint):
    result = run_lint({"repro/experiments/knobs.py": """\
        import os

        def fast():
            return os.environ.get("REPRO_FAST") == "1"
        """})
    assert "env-raw-read" in rules_fired(result)


def test_env_parser_read_is_clean_and_registered(run_lint):
    result = run_lint({"repro/experiments/knobs.py": """\
        from repro._util import env_bool

        def fast():
            return env_bool("REPRO_FAST")
        """})
    assert "env-raw-read" not in rules_fired(result)
    assert "REPRO_FAST" in result.env_registry


def test_env_undocumented_fires_against_env_doc(run_lint, tmp_path):
    doc = tmp_path / "ENV.md"
    doc.write_text("| `REPRO_DOCUMENTED` | ... |\n", encoding="utf-8")
    result = run_lint({"repro/experiments/knobs.py": """\
        from repro._util import env_int

        def knob():
            return env_int("REPRO_MYSTERY", 3)
        """}, env_doc_path=str(doc))
    fired = rules_fired(result)
    assert "env-undocumented" in fired


def test_env_unread_write_fires(run_lint):
    result = run_lint({"repro/experiments/pin.py": """\
        import os

        def pin():
            os.environ["REPRO_DEAD_KNOB"] = "1"
        """})
    assert "env-unread-write" in rules_fired(result)


def test_env_write_with_reader_is_clean(run_lint):
    result = run_lint({
        "repro/experiments/pin.py": """\
            import os

            def pin():
                os.environ["REPRO_LIVE_KNOB"] = "1"
            """,
        "repro/experiments/read.py": """\
            from repro._util import env_bool

            def live():
                return env_bool("REPRO_LIVE_KNOB")
            """})
    assert "env-unread-write" not in rules_fired(result)


# ------------------------------------------------------------ observer gating


@pytest.mark.parametrize("source", [
    """\
        class Engine:
            def step(self):
                self._trace.on_event("step", 1.0)
        """,
    # module-level code runs in no function body
    """\
        from repro.obs.tracer import active

        trace = active()
        trace.on_event("import", 0.0)
        """,
    # neither does a class body
    """\
        class Engine:
            trace.on_event("define", 0.0)
        """,
], ids=["method", "module-level", "class-body"])
def test_obs_ungated_fires(run_lint, source):
    result = run_lint({"repro/sim/hooks.py": source})
    assert "obs-ungated" in rules_fired(result)


def test_obs_gated_call_is_clean(run_lint):
    result = run_lint({"repro/sim/hooks.py": """\
        class Engine:
            def step(self):
                if self._trace is not None:
                    self._trace.on_event("step", 1.0)
        """})
    assert "obs-ungated" not in rules_fired(result)


def test_obs_early_return_guard_is_clean(run_lint):
    result = run_lint({"repro/sim/hooks.py": """\
        class Engine:
            def step(self):
                if self._trace is None:
                    return
                self._trace.on_event("step", 1.0)
        """})
    assert "obs-ungated" not in rules_fired(result)


# ------------------------------------------------------------------ footprints


def test_fp_missing_access_fires(run_lint):
    result = run_lint({"repro/kernels/sweep.py": """\
        def simulate(spec, config, n_threads, work):
            return spec.parallel_for(config, n_threads, work)
        """})
    assert "fp-missing-access" in rules_fired(result)


def test_fp_with_access_is_clean(run_lint):
    result = run_lint({"repro/kernels/sweep.py": """\
        def simulate(spec, config, n_threads, work, acc):
            return spec.parallel_for(config, n_threads, work, access=acc)
        """})
    assert "fp-missing-access" not in rules_fired(result)


_FP_FOOTPRINT = """\
    from repro.kernels.base import AccessSet

    def footprint():
        return AccessSet("k").writes("colors", lambda lo, hi: [])
    """


@pytest.mark.parametrize("source, undeclared", [
    ("""\
        from repro.kernels.base import AccessSet

        def footprint():
            return AccessSet("k").writes("colors", lambda lo, hi: [])

        def replay(colors, write_time, idx):
            colors[idx] = 1
            write_time[idx] = 2.0
        """, "write_time"),
    # a chunk-body closure writes its enclosing function's parameter
    (_FP_FOOTPRINT + """
    def simulate(colors, stamp):
        def body(lo, hi):
            colors[lo:hi] = 1
            stamp[lo:hi] = 2
        return body
    """, "stamp"),
    # a *args parameter is a parameter too
    (_FP_FOOTPRINT + """
    def replay(colors, *stamps):
        colors[0] = 1
        stamps[0] = 2
    """, "stamps"),
    # benign_race annotates races; it declares no written cells
    ("""\
        from repro.kernels.base import AccessSet

        def footprint():
            return (AccessSet("k").writes("colors", lambda lo, hi: [])
                    .benign_race("flags", "idempotent flag set"))

        def replay(colors, flags, idx):
            colors[idx] = 1
            flags[idx] = 1
        """, "flags"),
    # a def inside an except handler is still a function
    (_FP_FOOTPRINT + """
    try:
        from fastpath import replay
    except ImportError:
        def replay(colors, stamp, idx):
            colors[idx] = 1
            stamp[idx] = 2
    """, "stamp"),
], ids=["direct", "closure", "varargs", "benign-race", "except-handler"])
def test_fp_undeclared_write_fires(run_lint, source, undeclared):
    result = run_lint({"repro/kernels/replay.py": source})
    findings = [f for f in result.findings
                if f.rule == "fp-undeclared-write"]
    assert len(findings) == 1            # colors is declared, the other not
    assert undeclared in findings[0].message


def test_fp_write_inference_skips_modules_without_access_sets(run_lint):
    result = run_lint({"repro/kernels/seq.py": """\
        def greedy(colors, order):
            for v in order:
                colors[v] = 1
        """})
    assert "fp-undeclared-write" not in rules_fired(result)


# ---------------------------------------------------------- lock/barrier rules


def test_lock_discarded_release_fires(run_lint):
    result = run_lint({"repro/sim/crit.py": """\
        def section(lock, now):
            lock.acquire(now, 5.0)
            return now
        """})
    assert "lock-discarded-release" in rules_fired(result)


def test_lock_used_release_is_clean(run_lint):
    result = run_lint({"repro/sim/crit.py": """\
        def section(lock, now):
            release = lock.acquire(now, 5.0)
            return release
        """})
    assert "lock-discarded-release" not in rules_fired(result)


def test_lock_barrier_arity_fires_on_literal(run_lint):
    result = run_lint({"repro/sim/region.py": """\
        def region(engine, Barrier):
            return Barrier(engine, 4)
        """})
    assert "lock-barrier-arity" in rules_fired(result)


def test_lock_barrier_arity_accepts_derived_count(run_lint):
    result = run_lint({"repro/sim/region.py": """\
        def region(engine, Barrier, n_threads):
            return Barrier(engine, n_threads)
        """})
    assert "lock-barrier-arity" not in rules_fired(result)
