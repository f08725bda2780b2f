"""The benchmark's tracer binds symcone functions by name.

``perfbench/tracing.py`` wraps every ``module.fn`` in its ``LAYERS`` with
``getattr``; a name deleted or renamed in the package breaks ``--trace 1``
with an ``AttributeError``.  The file is read here, not imported, so nothing
is written next to it.
"""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_function_resolves():
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    missing = []
    for layer, (modname, fns) in namespace["LAYERS"].items():
        module = importlib.import_module(f"symcone.{modname}")
        missing += [f"{layer}.{fn}" for fn in fns if not callable(getattr(module, fn, None))]
    assert not missing
