"""Self-test of the benchmark's checks: python3 bench/selftest.py

Shows that a wrong H^0 rank, a passing verdict on a _break fixture and a
traceback each count as a failed operation, and that correct reports do
not.  It runs no wrapcat command, so it takes well under a second; its name
keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import json
import unittest

import checks
from run import WORKLOADS


def _op(workload, op_id_part):
    (op,) = [o for o in WORKLOADS[workload] if op_id_part in o["id"]]
    return op


def _localize_report(fixture, rank=None):
    objs = checks.OBJECTS[fixture]
    rows = [{"pair": [a, b], "stabilized": True,
             "h0_rank": (rank or checks.LOCALIZED_H0[fixture])(a, b)}
            for a in objs for b in objs]
    return json.dumps({"fixture": fixture, "verdict": "pass",
                       "sections": {"quotient_h0": rows}})


class ClassifyTest(unittest.TestCase):

    def test_correct_localize_report_passes(self):
        op = _op("localize-f2", "toyb:")
        rec = {"rc": 0, "error": None, "report": _localize_report("toyb")}
        self.assertEqual(checks.classify(op, rec), (False, False))

    def test_wrong_h0_rank_fails(self):
        op = _op("localize-f2", "toyb:")
        wrong = _localize_report(
            "toyb", lambda a, b: 2 if (a, b) == ("L", "K") else
            checks.LOCALIZED_H0["toyb"](a, b))
        rec = {"rc": 0, "error": None, "report": wrong}
        self.assertEqual(checks.classify(op, rec), (True, False))
        self.assertIn("['L', 'K'] is 2", rec["check"])

    def test_unstabilized_pair_is_not_compared(self):
        op = _op("localize-f2", "toyc:")
        doc = json.loads(_localize_report("toyc"))
        row = doc["sections"]["quotient_h0"][3]
        row.update(stabilized=False, h0_rank=7)
        doc["verdict"] = "fail"
        rec = {"rc": 1, "error": None, "report": json.dumps(doc)}
        self.assertEqual(checks.classify(op, rec), (False, False))

    def test_known_false_plateau_is_failed_and_known(self):
        op = _op("localize-q", "toyc:")
        rec = {"rc": 0, "error": None, "report": _localize_report(
            "toyc", lambda a, b: 0 if (a, b) == ("L0", "L3") else
            checks.LOCALIZED_H0["toyc"](a, b))}
        self.assertEqual(checks.classify(op, rec), (True, True))

    def test_known_plateau_with_another_wrong_pair_is_not_known(self):
        op = _op("localize-q", "toyc:")
        rec = {"rc": 0, "error": None, "report": _localize_report(
            "toyc", lambda a, b: 0 if (a, b) in (("L0", "L3"), ("K", "K"))
            else checks.LOCALIZED_H0["toyc"](a, b))}
        self.assertEqual(checks.classify(op, rec), (True, False))
        self.assertIn("['K', 'K'] is 0", rec["check"])

    def test_agree_quotient_side_is_checked(self):
        op = _op("pipeline", "toyc:F2:compute --what agree")
        table = checks.LOCALIZED_H0["toyc"]
        rows = [{"pair": [a, b], "hw_stabilized": (a, b) != ("L0", "L3"),
                 "quotient_stabilized": True, "hw_h0": table(a, b),
                 "quotient_h0": table(a, b), "agree": True}
                for a in checks.OBJECTS["toyc"] for b in checks.OBJECTS["toyc"]]
        doc = {"fixture": "toyc", "verdict": "pass", "sections": {
            "agreement": {"passed": True, "pairs": rows,
                          "comparison_maps": []}}}
        rows[3].update(agree=None, quotient_h0=0)    # the known plateau
        rec = {"rc": 0, "error": None, "report": json.dumps(doc)}
        self.assertEqual(checks.classify(op, rec), (True, True))
        rows[4].update(agree=None, hw_stabilized=False, quotient_h0=1)
        rec = {"rc": 0, "error": None, "report": json.dumps(doc)}
        self.assertEqual(checks.classify(op, rec), (True, False))
        self.assertIn("quotient H0 rank of ['L0', 'K'] is 1", rec["check"])

    def test_break_fixture_verdict(self):
        op = _op("pipeline", "ore_break:F2:validate")
        doc = {"fixture": "ore_break", "verdict": "pass", "sections": {}}
        rec = {"rc": 0, "error": None, "report": json.dumps(doc)}
        self.assertEqual(checks.classify(op, rec), (True, False))
        doc["verdict"] = "fail"
        rec = {"rc": 1, "error": None, "report": json.dumps(doc)}
        self.assertEqual(checks.classify(op, rec), (False, False))

    def test_badscalar_must_be_an_input_error(self):
        op = _op("pipeline", "badscalar:F2:validate")
        self.assertEqual(checks.classify(op, {"rc": 2, "report": ""}),
                         (False, False))
        doc = {"fixture": "badscalar", "verdict": "pass", "sections": {}}
        rec = {"rc": 0, "error": None, "report": json.dumps(doc)}
        self.assertEqual(checks.classify(op, rec), (True, False))

    def test_traceback_fails(self):
        op = _op("pipeline", "toyb:F2:compute --what hw")
        rec = {"rc": None, "error": "SystemInvalid", "report": ""}
        self.assertEqual(checks.classify(op, rec), (True, False))
        op = _op("pipeline", "ore_break:F2:compute --what hw")
        self.assertEqual(checks.classify(op, rec), (True, True))

    def test_stage_sizes(self):
        self.assertEqual(checks.stage_sizes(4)["E1"]["simplices"],
                         {"1": 48, "2": 192, "3": 384})
        self.assertEqual(checks.stage_sizes(5)["E0"]["simplices"],
                         {"1": 20, "2": 60, "3": 120})

    def test_workload_sizes(self):
        self.assertEqual([len(WORKLOADS[w]) for w in sorted(WORKLOADS)],
                         [2, 2, 45])
        self.assertEqual(len(checks.KNOWN_FAULTS), 9)
        self.assertEqual(len(checks.KNOWN_WRONG), 2)


if __name__ == "__main__":
    unittest.main()
