"""Every span binding of the benchmark tracer resolves to code that exists.

``perfbench/tracing.py`` finds the functions it times by name, and it
silently skips a method binding that no class defines in its own
``__dict__`` — so a rename or a moved method in ``src/`` would quietly drop
a span.  These checks resolve every binding directly, without running a
traced workload.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
TRACING = REPO_ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_under_test", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


BINDINGS = [
    (name, binding)
    for name, bindings, _, _ in _load_tracing().SPANS
    for binding in bindings
]


def _class_and_subclasses(root):
    found, pending = [], [root]
    while pending:
        klass = pending.pop()
        if klass not in found:
            found.append(klass)
            pending.extend(klass.__subclasses__())
    return found


@pytest.mark.parametrize("name, binding", BINDINGS, ids=[binding for _, binding in BINDINGS])
def test_binding_resolves(name, binding):
    module_name, target = binding.split(":")
    module = importlib.import_module(module_name)
    if "." not in target:
        assert callable(getattr(module, target, None)), f"{name}: {binding} is not a function"
        return
    class_name, attr = target.split(".")
    root = getattr(module, class_name)
    assert any(attr in vars(klass) for klass in _class_and_subclasses(root)), (
        f"{name}: neither {class_name} nor a subclass defines {attr}"
    )
