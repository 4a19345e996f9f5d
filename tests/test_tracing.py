"""Every function the benchmark's trace wraps still exists under its name,
and a traced benchmark call runs end to end.

``bench/tracing.py`` replaces each SPANS and COUNTERS entry by looking it up
with ``owner.__dict__[attr]``, so renaming or deleting one of them in
``src/wrapcat`` would end a traced benchmark run (``bench/run.py --trace 1``)
in a KeyError.  This test imports the tracing module unchanged and fails
first.  The counter hooks also read attributes of the objects they see
(``bar.chains``, ``bar.module``, ``bar.differential.blocks``), so two calls
run ``bench/child.py`` unchanged in a fresh process, once per trace kind.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wrapcat import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402

TOYB = str(Path(cli.__file__).parent / "fixtures" / "toyb.json")

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


def run_child(argv, trace):
    """The trace summary ``bench/child.py`` records for one CLI call, which
    must end with exit code 0 and no exception."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), str(BENCH)]))
    out = subprocess.run(
        [sys.executable, str(BENCH / "child.py"),
         json.dumps({"argv": argv, "trace": trace})],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    record = json.loads(out.stdout)
    assert (record["error"], record["rc"]) == (None, 0)
    return record["trace"]


def test_traced_counts_see_the_bars():
    counts = run_child(["compute", TOYB, "--what", "localize", "--depth", "2"],
                       "counts")["counts"]
    for key in ("chains", "useful_chains", "differential_nnz",
                "dense_entries"):
        assert counts.get(f"quotient.{key}", 0) > 0, key


def test_traced_spans_see_the_entanglement_layer():
    spans = run_child(["entangle", TOYB, "--level", "1", "--compare"],
                      "spans")["spans"]
    assert {"sss.entangle", "sss.bridge", "sss.tau", "posets.build"} <= \
        set(spans)


def test_traced_spans_see_validation_and_the_envelope():
    # compute validates on the envelope it builds once: both layers keep
    # their spans, so neither metric reads zero unnoticed
    spans = run_child(["compute", TOYB, "--what", "hw"], "spans")["spans"]
    assert {"floer.validate", "floer.envelope"} <= set(spans)


def test_traced_spans_see_the_bars():
    # the bar layer's spans, not only its counters, reach the trace: a
    # claim about quotient.bar_build_s rests on this span
    spans = run_child(["compute", TOYB, "--what", "localize", "--depth", "2"],
                      "spans")["spans"]
    assert {"quotient.bar_build", "quotient.truncate", "linalg.check"} <= \
        set(spans)
