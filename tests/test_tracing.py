"""Every function the benchmark's trace wraps still exists under its name.

``bench/tracing.py`` replaces each SPANS and COUNTERS entry by looking it up
with ``owner.__dict__[attr]``, so renaming or deleting one of them in
``src/wrapcat`` would end a traced benchmark run (``bench/run.py --trace 1``)
in a KeyError.  This test imports the tracing module unchanged and fails
first.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402

TRACED = ([("span", module, path) for _, module, path in tracing.SPANS]
          + [("count", module, path)
             for _, module, path, _ in tracing.COUNTERS])


@pytest.mark.parametrize("kind,module,path", TRACED,
                         ids=[f"{k}-{m}.{p}" for k, m, p in TRACED])
def test_traced_attribute_is_defined_by_its_owner(kind, module, path):
    assert module in tracing.MODULES
    owner, attr = tracing._resolve(
        importlib.import_module(f"wrapcat.{module}"), path)
    assert attr in owner.__dict__, f"{kind} {module}.{path}"
