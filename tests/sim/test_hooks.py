"""The one instrument slot of the simulated core (repro.sim.hooks)."""

import pytest

from repro.check import checker as check_slot
from repro.check.checker import Checker, checking
from repro.obs import Observer
from repro.obs import metrics as obs_metrics
from repro.obs import tracer as trace_slot
from repro.obs.tracer import Tracer, tracing
from repro.sim import hooks
from repro.sim.engine import Engine


def test_slot_empty_by_default():
    assert hooks.active() is None
    assert Engine().hooks is None


def test_engine_captures_installed_instrument():
    with tracing() as tracer:
        assert Engine().hooks is tracer
    with checking() as checker:
        assert Engine().hooks is checker


def test_tracer_rejected_while_checker_installed():
    with checking():
        with pytest.raises(RuntimeError, match="Checker is already installed"):
            trace_slot.install(Tracer())
        with pytest.raises(RuntimeError):
            with tracing():
                pass


def test_checker_rejected_while_tracer_installed():
    with tracing():
        with pytest.raises(RuntimeError, match="Tracer is already installed"):
            check_slot.install(Checker())
        with pytest.raises(RuntimeError):
            with checking():
                pass


def test_typed_views_see_only_their_kind():
    with checking() as checker:
        assert trace_slot.active() is None
        assert check_slot.active() is checker
    with tracing() as tracer:
        assert check_slot.active() is None
        assert trace_slot.active() is tracer


def test_typed_uninstall_leaves_the_other_kind():
    with checking() as checker:
        trace_slot.uninstall()
        assert check_slot.active() is checker
    with tracing() as tracer:
        check_slot.uninstall()
        assert trace_slot.active() is tracer


def test_observer_inside_checking_raises_without_registry():
    with checking() as checker:
        with pytest.raises(RuntimeError):
            with Observer(trace=True):
                pass
        assert obs_metrics.active() is None
        assert check_slot.active() is checker
    assert hooks.active() is None


def test_base_rejects_non_instruments():
    with pytest.raises(TypeError):
        hooks.install(object())


@pytest.mark.parametrize("kind", [Tracer, Checker])
def test_instruments_speak_only_the_declared_vocabulary(kind):
    events = {name for name in vars(kind)
              if name.startswith("on_") or name.endswith("_loop")}
    assert events <= set(vars(hooks.Hooks))
