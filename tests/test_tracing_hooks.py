"""The benchmark's span hooks name attributes the program still defines.

``perfbench/tracing.py`` wraps each ``(owner, attr)`` of its ``HOOKS`` table
by replacing ``owner.__dict__[attr]``, so a renamed or moved function would
only surface in a traced benchmark run; this test catches it first.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_attribute_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.HOOKS
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, *_ in tracing.HOOKS
               if attr not in owner.__dict__]
    assert missing == []
