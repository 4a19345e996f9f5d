"""End-to-end checks of the command-line entry point on bundled fixtures.

Fields of the report are pinned, not its bytes, so the tests survive a
change of the report's value encoding.
"""

import json
from pathlib import Path

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
