"""End-to-end checks of the command-line entry point on bundled fixtures.

Fields of the report are pinned, not its bytes, so the tests survive a
change of the report's value encoding.
"""

import json
from pathlib import Path

import pytest

from wrapcat import cli
from wrapcat.cli import main

FIXTURES = Path(cli.__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    """(exit code, parsed JSON report) of one CLI call."""
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


class TestLocalize:
    def test_invalid_continuation_set_fails_before_cones(self, capsys):
        code, rep = run_cli(capsys, "compute", str(FIXTURES / "ore_break.json"),
                            "--what", "localize")
        assert code == 1
        assert rep["verdict"] == "fail"
        cond = rep["sections"]["continuation_conditions"]
        assert not cond["passed"]
        assert cond["failures"]["iii"]
        assert "quotient_h0" not in rep["sections"]


class TestEntangleCompare:
    def test_toyb_tau_and_bridges_pass(self, capsys):
        code, rep = run_cli(capsys, "entangle", str(FIXTURES / "toyb.json"),
                            "--level", "1", "--compare")
        assert code == 0
        assert rep["verdict"] == "pass"
        sections = rep["sections"]
        assert sorted(sections["bridges"]) == ["E0->E1", "E_delta->E0"]
        for bridge in sections["bridges"].values():
            assert bridge["passed"]
            assert bridge["hom_stability_failures"] == []
            assert bridge["essential_surjectivity_failures"] == []
        assert sections["tau"] == {"passed": True,
                                   "fully_faithful_failures": [],
                                   "essential_surjectivity_failures": []}

    def test_ore_break_tau_and_bridge_fail(self, capsys):
        code, rep = run_cli(capsys, "entangle", str(FIXTURES / "ore_break.json"),
                            "--level", "1", "--compare")
        assert code == 1
        assert rep["verdict"] == "fail"
        tau = rep["sections"]["tau"]
        assert not tau["passed"]
        assert tau["fully_faithful_failures"] == [{"iso": False,
                                                   "pair": ["p0", "p1"]}]
        assert tau["essential_surjectivity_failures"] == []
        bridges = rep["sections"]["bridges"]
        assert bridges["E_delta->E0"]["passed"]
        assert not bridges["E0->E1"]["passed"]
        assert bridges["E0->E1"]["hom_stability_failures"] == []
        assert ([r["vertex"] for r in
                 bridges["E0->E1"]["essential_surjectivity_failures"]]
                == ["b1.X", "b1.Y", "b1.Z"])


COMPUTE_ERRORS = [(fixture, what, "SystemInvalid")
                  for fixture in ("ore_break", "toyc_break_closure")
                  for what in ("hw", "dfcat", "agree")]
ENTANGLE_ERRORS = [("dsq_break", "NotAComplex"),
                   ("micro2datum", "DecorationInconsistent"),
                   ("micro2_break_beta", "DecorationInconsistent")]


class TestEngineErrorsEndInReports:
    """An engine error ends in a failing report that names it, not a
    traceback."""

    @pytest.mark.parametrize("fixture,what,error", COMPUTE_ERRORS)
    def test_compute(self, capsys, fixture, what, error):
        code, rep = run_cli(capsys, "compute", str(FIXTURES / f"{fixture}.json"),
                            "--what", what)
        assert (code, rep["verdict"], rep["sections"]["error"]["type"]) == \
            (1, "fail", error)
        assert rep["command"] == f"compute:{what}"
        assert rep["fixture"] == fixture

    @pytest.mark.parametrize("fixture,error", ENTANGLE_ERRORS)
    def test_entangle(self, capsys, fixture, error):
        code, rep = run_cli(capsys, "entangle", str(FIXTURES / f"{fixture}.json"),
                            "--level", "1", "--compare")
        assert (code, rep["verdict"], rep["sections"]["error"]["type"]) == \
            (1, "fail", error)
        assert rep["sections"]["error"]["message"]
        assert rep["fixture"] == fixture
