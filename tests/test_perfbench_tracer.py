"""The benchmark tracer's entry points all resolve in the library.

``perfbench/tracer.py`` times the simulator's layers by swapping named
entry points for wrappers: a method is looked up in its class ``__dict__``
(so it must be defined in that class body, not inherited), a module-level
function as a module attribute.  A rename or a method moved to a base class
breaks a traced benchmark run; these tests catch it in the unit suite.
The tracer is loaded by path because ``perfbench`` is not a package.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "layer, module_name, path, kind",
    tracer.ENTRY_POINTS,
    ids=[f"{module}:{path}" for _, module, path, _ in tracer.ENTRY_POINTS],
)
def test_entry_point_resolves(layer, module_name, path, kind):
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    if not owner_name:
        assert callable(getattr(module, attr, None)), (
            f"{module_name} has no function {attr!r}"
        )
        return
    owner = getattr(module, owner_name, None)
    assert owner is not None, f"{module_name} has no class {owner_name!r}"
    assert attr in owner.__dict__, (
        f"{owner_name}.{attr} is not defined in the class body of "
        f"{module_name}.{owner_name}"
    )
    if kind == "probe":
        assert isinstance(owner.__dict__[attr], property)


def test_instrument_installs_and_restores_every_entry_point():
    def originals():
        found = []
        for _, module_name, path, _ in tracer.ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                found.append(getattr(module, owner_name).__dict__[attr])
            else:
                found.append(getattr(module, attr))
        return found

    before = originals()
    with tracer.instrument(tracer.Tracer(run=0, label="entry points")):
        during = originals()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, originals()))
