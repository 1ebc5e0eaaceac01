"""Self-time accounting of the layer tracer on synthetic nested calls."""

from __future__ import annotations

import sys
import tracemalloc
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracing import Tracer  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def layer_module():
    """A throwaway module holding an optimizer hierarchy and a caller."""
    clock = FakeClock()
    module = types.ModuleType("perfbench_fake_layer")

    class Optimizer:
        def step(self):
            clock.advance(1.0)
            return "stepped"

    class Adam(Optimizer):
        def step(self):
            clock.advance(2.0)
            result = super().step()
            clock.advance(0.5)
            return result

    class Plain(Optimizer):
        pass

    class Factory:
        @classmethod
        def build(cls, fail=False):
            clock.advance(0.125)
            if fail:
                raise ValueError("boom")
            return cls

    def train():
        clock.advance(0.25)
        Adam().step()
        Plain().step()
        clock.advance(0.25)
        return "trained"

    module.Optimizer, module.Adam, module.Plain, module.Factory = Optimizer, Adam, Plain, Factory
    module.train = train
    sys.modules[module.__name__] = module
    yield module, clock
    del sys.modules[module.__name__]


def install(module, clock):
    tracer = Tracer(clock=clock)
    tracer.install(
        targets=[
            (module.__name__, "train", "loop_s", None, None),
            (module.__name__, "Optimizer.step", "optim.step_s", "optim.steps", lambda r: 1),
            (module.__name__, "Factory.build", "build_s", None, None),
        ],
        preload=(),
    )
    return tracer


def test_nested_self_time_with_super_call(layer_module):
    module, clock = layer_module
    tracer = install(module, clock)
    assert module.train() == "trained"
    # train: 0.25 + Adam(2.0 + Optimizer 1.0 + 0.5) + Plain(Optimizer 1.0) + 0.25
    assert tracer.self_seconds["loop_s"] == pytest.approx(0.5)
    assert tracer.self_seconds["optim.step_s"] == pytest.approx(4.5)
    assert sum(tracer.self_seconds.values()) == pytest.approx(clock.now)
    assert tracer.counts["optim.steps"] == 3
    spans = {span[3]: span for span in tracer.spans}
    by_id = {span[0]: span for span in tracer.spans}
    assert by_id[spans["layer_module.<locals>.Adam.step"][1]][3].endswith("train")
    inner = [span for span in tracer.spans if span[3].endswith("Optimizer.step")]
    assert {by_id[span[1]][3].rsplit(".", 1)[-1] for span in inner} == {"step", "train"}
    assert len({span[0] for span in tracer.spans}) == len(tracer.spans)


def test_tracing_never_turns_on_allocation_tracing(layer_module):
    module, clock = layer_module
    install(module, clock)
    module.train()
    assert not tracemalloc.is_tracing()


def test_classmethod_and_exception_keep_accounting(layer_module):
    module, clock = layer_module
    tracer = install(module, clock)
    assert module.Factory.build() is module.Factory
    with pytest.raises(ValueError):
        module.Factory.build(fail=True)
    assert tracer.self_seconds["build_s"] == pytest.approx(0.25)
    assert not tracer._stack()
    assert tracer.window(["build_s"]) == pytest.approx(0.25)


def test_uninstall_restores_every_attribute(layer_module):
    module, clock = layer_module
    originals = (module.train, module.Optimizer.__dict__["step"], module.Adam.__dict__["step"],
                 module.Factory.__dict__["build"])
    tracer = install(module, clock)
    assert module.train is not originals[0]
    assert "step" not in module.Plain.__dict__
    held = module.train
    tracer.uninstall()
    held()
    assert tracer.spans == []
    assert (module.train, module.Optimizer.__dict__["step"], module.Adam.__dict__["step"],
            module.Factory.__dict__["build"]) == originals


def test_table_lists_every_metric(layer_module):
    table = Tracer().table()
    assert table["models.optim.step_s"] == 0.0
    assert table["eval.score_s.other"] == 0.0
    assert table["rules.amie.rules"] == 0
