"""The benchmark's tracer can still find every function it wraps.

``perfbench/tracing.py`` wraps package functions by name, at the module or
class that owns them; a renamed or moved function would make every traced
benchmark run fail. The tracer module is loaded from its file and only read.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracing()


@pytest.mark.parametrize(
    "path, attr, name", TRACER.SPANS + TRACER.COUNTS, ids=lambda x: str(x)
)
def test_traced_name_resolves(path, attr, name):
    owner = TRACER._resolve(path)
    # install() reads the owner's own __dict__, not inherited attributes
    assert attr in owner.__dict__, f"{name}: liese_nav.{path}.{attr} is gone"
    assert callable(owner.__dict__[attr])


def test_install_and_uninstall_restore_every_name():
    tracer = TRACER.Tracer()
    before = [
        TRACER._resolve(path).__dict__[attr]
        for path, attr, _ in TRACER.SPANS + TRACER.COUNTS
    ]
    tracer.install()
    tracer.uninstall()
    after = [
        TRACER._resolve(path).__dict__[attr]
        for path, attr, _ in TRACER.SPANS + TRACER.COUNTS
    ]
    assert all(a is b for a, b in zip(before, after, strict=True))
