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


def _dup_generator(doc):
    doc["hom"]["K,Kp"].append({"degree": 0, "name": "dp"})


def _bad_degree(doc):
    doc["hom"]["K,Kp"][0]["degree"] = "x"


def _scalar_lagrangians(doc):
    doc["lagrangians"] = 5


def _op_without_output(doc):
    del doc["operations"][0]["output"]


def _undeclared_continuation_source(doc):
    doc["continuation"][0]["source"] = "NOPE"


def _integer_coefficients(doc):
    doc["coefficients"] = "Z"


# (edit of toyb.json, a fragment the error message must contain)
MALFORMED = [(_dup_generator, "hom 'K,Kp'"), (_bad_degree, "hom 'K,Kp'"),
             (_scalar_lagrangians, "lagrangians"),
             (_op_without_output, "'output'"),
             (_undeclared_continuation_source, "'NOPE'"),
             (_integer_coefficients, "'Z'")]


class TestInputErrors:
    @pytest.mark.parametrize("edit,fragment", MALFORMED,
                             ids=[e.__name__.lstrip("_") for e, _ in MALFORMED])
    def test_malformed_setup_is_an_input_error(self, capsys, tmp_path, edit,
                                               fragment):
        doc = json.loads((FIXTURES / "toyb.json").read_text())
        edit(doc)
        path = tmp_path / "setup.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error:")
        assert fragment in err


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
