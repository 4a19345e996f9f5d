"""End-to-end checks of the command-line entry point on bundled fixtures.

Most tests pin fields of the report.  The sha256 pins of whole reports
(``REPORT_SHA256``, ``RATIONAL_REPORT_SHA256``, ``F3_REPORTS``) hold the bytes still; a
change of the report's value encoding regenerates them.
"""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fixture_builders import (build_toyc_chain, fixture_doc_over,
                              rational_fixture_doc)
from wrapcat import cli, floer
from wrapcat.ainf import AInfCategory
from wrapcat.cli import main
from wrapcat.matrices import Matrix
from wrapcat.rings import CoefficientRing
from wrapcat.setupfile import canonical_json, setup_to_dict

FIXTURES = Path(cli.__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    """(exit code, parsed JSON report) of one CLI call."""
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def stdout_of(capsys, argv):
    main(list(argv))
    return capsys.readouterr().out


def fixture_path(name, tmp_path):
    """A bundled fixture, or toyc_4 (``build_toyc_chain(4)``) written out."""
    if name != "toyc_4":
        return FIXTURES / f"{name}.json"
    path = tmp_path / "toyc_4.json"
    path.write_text(canonical_json(setup_to_dict(build_toyc_chain(4))))
    return path


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


def _undeclared_hom_end(doc):
    doc["hom"]["Q9,L"] = [{"degree": 0, "name": "q"}]


def _op_input_not_a_generator(doc):
    # yp -> c: c is a generator of hom(Lp, L), not of hom(L, Kp)
    doc["operations"][0]["inputs"][0] = "c"


def _op_output_not_a_generator(doc):
    doc["operations"][0]["output"] = "zz"


def _datum_output_not_a_generator(doc):
    doc["floer_data"]["mu"]["A,B|d1"][0]["output"] = "zz"


def _alpha_input_not_a_generator(doc):
    doc["floer_data"]["alpha"]["A,B|a11"][0]["input"] = "zz"


def _alpha_output_not_a_generator(doc):
    doc["floer_data"]["alpha"]["A,B|a12"][1]["output"] = "zz"


def _beta_input_not_a_generator(doc):
    doc["floer_data"]["beta"]["A,B|s2"][0]["input"] = "zz"


def _beta_output_not_a_generator(doc):
    doc["floer_data"]["beta"]["A,B|s2"][0]["output"] = "zz"


def _gamma_input_not_a_generator(doc):
    doc["floer_data"]["gamma"]["A,B,A|0|g0"] = [
        {"inputs": ["zz", "p"], "output": "p", "scalar": "1"}]


def _gamma_wrong_arity(doc):
    doc["floer_data"]["gamma"]["A,B,A|0|g0"] = [
        {"inputs": ["p"], "output": "p", "scalar": "1"}]


def _continuation_loop(doc):
    # hom(L, L) is no CF module of the envelope, which has only the unit there
    doc["hom"]["L,L"] = [{"degree": 0, "name": "zz"}]
    doc["continuation"].append({"source": "L", "target": "L",
                                "combo": {"zz": "1"}})


def _dsecond_id_not_in_dprime(doc):
    pairs = doc["floer_data"]["Dprime"]["A,B"]
    pairs[:] = [p for p in pairs if p["id"] != "a12"]


def _dprime_pair_of_one(doc):
    doc["floer_data"]["Dprime"]["A,B"][1]["pair"] = ["d1"]


def _dthird(doc, key, datum="zz", dprime="a11"):
    doc["floer_data"]["Dthird"] = {key: [{"id": "g0", "datum": datum,
                                          "datum_i": datum,
                                          "dprime": dprime}]}


def _dthird_datum_not_in_d(doc):
    _dthird(doc, "A,B,A|0")


def _dthird_dprime_not_of_its_pair(doc):
    doc["floer_data"]["D"]["A,B,A"] = ["t1"]
    _dthird(doc, "A,B,A|0", datum="t1", dprime="zz")


def _dthird_slot_out_of_range(doc):
    _dthird(doc, "A,B,A|5")


def _dthird_key_of_a_pair(doc):
    _dthird(doc, "A,B|0")


def _composable_mode_unknown(doc):
    doc["composable"]["mode"] = "explicitly"


def _composable_tuple(extra):
    def edit(doc):
        doc["composable"]["tuples"]["1"].append(extra)
    edit.__name__ = f"_composable_1_tuple_{'_'.join(extra)}"
    return edit


def _composable_key(key, tuples):
    def edit(doc):
        doc["composable"]["tuples"][key] = tuples
    edit.__name__ = f"_composable_key_{key}"
    return edit


def _max_arity(value):
    def edit(doc):
        doc["composable"]["max_arity"] = value
    edit.__name__ = f"_max_arity_{json.dumps(value)}"
    return edit


def _datum_of_a_repeated_triple(doc):
    # no triple is composable on micro2datum (max_arity 1), so its Dthird
    # entry would pass axiom (viii) vacuously
    doc["floer_data"]["D"]["A,B,A"] = ["t1"]
    _dthird(doc, "A,B,A|0", datum="t1")


def _f_key_not_in_d(doc):
    doc["floer_data"]["f"]["A,B"]["zz"] = "a11"


def _f_value_not_a_dprime_id(doc):
    doc["floer_data"]["f"]["A,B"]["d1"] = "zz"


def _restriction(doc, table):
    doc["floer_data"]["D"]["A,B,A"] = ["t1"]
    doc["floer_data"]["restrictions"] = {"A,B,A|A,B": table}


def _restriction_key_not_in_d(doc):
    _restriction(doc, {"zz": "d1"})


def _restriction_value_not_in_d(doc):
    _restriction(doc, {"t1": "zz"})


def _section_witness_not_in_d(doc):
    doc["floer_data"]["D"]["A,B,A"] = ["t1"]
    doc["floer_data"]["sections"] = {"A,B,A": {"A,B=d1": "zz"}}


def _hom_of_a_loop(doc):
    doc["hom"]["L,L"] = [{"name": "e", "degree": 0}]


def _op_above_max_arity(doc):
    # max_arity 1: no triple is composable, so the entry would be dropped
    doc["operations"].append({"inputs": ["cp", "x"], "output": "y",
                              "scalar": "1 mod 2", "tuple": ["L", "Lp", "K"]})


def _unknown_profile(doc):
    doc["profile"] = "banana"


def _wrap_chain_not_an_array(doc):
    doc["wrap_chains"]["L0"] = 5


def _wrap_chain_of_an_undeclared_lagrangian(doc):
    doc["wrap_chains"]["Z"] = ["Z"]


def _wrap_chain_through_an_undeclared_lagrangian(doc):
    doc["wrap_chains"]["L0"] = ["L0", "Z"]


def _hom_degree(key, degree):
    def edit(doc):
        doc["hom"][key][0]["degree"] = degree
    edit.__name__ = f"_hom_{key.replace(',', '_')}_degree_{json.dumps(degree)}"
    return edit


def _gamma_of_degree_zero(doc):
    # gamma has degree -1: p and s of degree 0 cannot go to t of degree 0
    doc["lagrangians"].append("C")
    doc["hom"]["B,C"] = [{"degree": 0, "name": "s"}]
    doc["hom"]["A,C"] = [{"degree": 0, "name": "t"}]
    doc["floer_data"]["gamma"]["A,B,C|0|g0"] = [
        {"inputs": ["p", "s"], "output": "t", "scalar": "1"}]


def _d_id_not_a_string(doc):
    doc["floer_data"]["D"]["A,B"][1] = ["d2"]


def _dprime_id_not_a_string(doc):
    doc["floer_data"]["Dprime"]["A,B"][1]["id"] = ["a12"]


def _dprime_pair_id_not_a_string(doc):
    doc["floer_data"]["Dprime"]["A,B"][1]["pair"][1] = ["d2"]


def _dsecond_id_a_list(doc):
    doc["floer_data"]["Dsecond"]["A,B"][3]["id"] = ["s3"]


def _dsecond_id_an_object(doc):
    doc["floer_data"]["Dsecond"]["A,B"][3]["id"] = {"a": 1}


def _dsecond_triple_id_not_a_string(doc):
    doc["floer_data"]["Dsecond"]["A,B"][3]["triple"][0] = ["a12"]


def _dthird_field_not_a_string(field, value):
    def edit(doc):
        doc["floer_data"]["D"]["A,B,A"] = ["t1"]
        _dthird(doc, "A,B,A|0", datum="t1")
        doc["floer_data"]["Dthird"]["A,B,A|0"][0][field] = [value]
    edit.__name__ = f"_dthird_{field}_not_a_string"
    return edit


def _restriction_value_not_a_string(doc):
    _restriction(doc, {"t1": ["d1"]})


def _f_value_not_a_string(doc):
    doc["floer_data"]["f"]["A,B"]["d1"] = ["a11"]


def _section_witness_not_a_string(doc):
    doc["floer_data"]["D"]["A,B,A"] = ["t1"]
    doc["floer_data"]["sections"] = {"A,B,A": {"A,B=d1": ["t1"]}}


def _rekey(table, old, new):
    """An edit that moves floer_data ``table``'s entry ``old`` to ``new``."""
    def edit(doc):
        tab = doc["floer_data"][table]
        tab[new] = tab.pop(old)
    edit.__name__ = (f"_{table.lower()}_key_"
                     f"{new.replace(',', '_').replace('|', '_')}")
    return edit


def _with_triples(table, key, value):
    """An edit that adds C and max_arity 2, so (A, B, C) is composable, and
    the entry ``key`` to floer_data ``table``."""
    def edit(doc):
        doc["lagrangians"].append("C")
        doc["composable"]["max_arity"] = 2
        doc["floer_data"][table][key] = value
    edit.__name__ = f"_{table.lower()}_key_of_a_composable_triple"
    return edit


def _dprime_pair_id_not_in_d(doc):
    doc["floer_data"]["Dprime"]["A,B"][1]["pair"] = ["zz", "d2"]


def _d_id_repeated(doc):
    doc["floer_data"]["D"]["A,B"].append("d1")


def _dprime_id_repeated(doc):
    doc["floer_data"]["Dprime"]["A,B"].append({"id": "a11",
                                                "pair": ["d1", "d2"]})


def _dsecond_id_repeated(doc):
    doc["floer_data"]["Dsecond"]["A,B"].append(
        {"id": "s0", "triple": ["a11", "a11", "a11"]})


def _dthird_id_repeated(doc):
    _datum_of_a_repeated_triple(doc)
    elems = doc["floer_data"]["Dthird"]["A,B,A|0"]
    elems.append(dict(elems[0]))


def _gamma_slot_not_a_digit(doc):
    doc["floer_data"]["gamma"]["A,B,A|x|g0"] = []


def _gamma_without_its_dthird(doc):
    _datum_of_a_repeated_triple(doc)
    doc["floer_data"]["gamma"]["A,B,A|0|zz"] = []



# A string where an array of names is required was once split into its
# characters: each of these documents read like the one with arrays.
def _composable_tuple_a_string(doc):
    doc["composable"]["tuples"]["1"].append("KL")


def _op_tuple_a_string(doc):
    doc["operations"][0]["tuple"] = "AB"


def _op_inputs_a_string(doc):
    doc["operations"][0]["inputs"] = "u"


def _mu_inputs_a_string(doc):
    doc["floer_data"]["mu"]["A,B|d1"][0]["inputs"] = "p"


def _gamma_inputs_a_string(doc):
    doc["floer_data"]["gamma"]["A,B,A|0|g0"] = [
        {"inputs": "pp", "output": "p", "scalar": "1"}]

# (edit of a bundled fixture, a fragment the error message must contain,
# the fixture)
MALFORMED = [(_dup_generator, "hom 'K,Kp'", "toyb"),
             (_bad_degree, "hom 'K,Kp'", "toyb"),
             (_scalar_lagrangians, "lagrangians", "toyb"),
             (_op_without_output, "'output'", "toyb"),
             (_undeclared_continuation_source, "'NOPE'", "toyb"),
             (_integer_coefficients, "'Z'", "toyb"),
             (_undeclared_hom_end, "hom 'Q9,L'", "toyb"),
             (_op_input_not_a_generator, "operations[0]: 'c'", "toyb"),
             (_op_output_not_a_generator, "operations[0]: 'zz'", "toyb"),
             (_datum_output_not_a_generator, "mu 'A,B|d1': 'zz'",
              "micro2datum"),
             (_alpha_input_not_a_generator, "alpha 'A,B|a11': 'zz'",
              "micro2datum"),
             (_alpha_output_not_a_generator, "alpha 'A,B|a12': 'zz'",
              "micro2datum"),
             (_beta_input_not_a_generator, "beta 'A,B|s2': 'zz'",
              "micro2datum"),
             (_beta_output_not_a_generator, "beta 'A,B|s2': 'zz'",
              "micro2datum"),
             (_gamma_input_not_a_generator, "gamma 'A,B,A|0|g0': 'zz'",
              "micro2datum"),
             (_gamma_wrong_arity, "gamma 'A,B,A|0|g0': op entry arity",
              "micro2datum"),
             (_continuation_loop, "continuation[2]: (L, L) is not a "
              "composable pair of distinct Lagrangians", "toyb"),
             (_dsecond_id_not_in_dprime, "floer_data: Dsecond 'A,B': 'a12' "
              "is not a Dprime id", "micro2datum"),
             (_dprime_pair_of_one, "floer_data: Dprime 'A,B': pair ['d1'] "
              "does not have 2 ids", "micro2datum"),
             (_dthird_datum_not_in_d, "floer_data: Dthird 'A,B,A|0': 'zz' "
              "is not in D(A,B,A)", "micro2datum"),
             (_dthird_dprime_not_of_its_pair, "floer_data: Dthird 'A,B,A|0': "
              "'zz' is not a Dprime id of 'A,B'", "micro2datum"),
             (_dthird_slot_out_of_range, "floer_data: Dthird 'A,B,A|5': key "
              "is not a triple", "micro2datum"),
             (_dthird_key_of_a_pair, "floer_data: Dthird 'A,B|0': key is not "
              "a triple", "micro2datum"),
             (_composable_mode_unknown, "composable: unknown mode "
              "'explicitly'", "toyb_break_permutation"),
             (_composable_tuple(["L"]), "composable: 1-tuple ['L'] does not "
              "have 2 declared Lagrangians", "toyb_break_permutation"),
             (_composable_tuple(["L", "K", "Kp"]), "composable: 1-tuple ['L', "
              "'K', 'Kp'] does not", "toyb_break_permutation"),
             (_composable_tuple(["L", "Z"]), "composable: 1-tuple ['L', 'Z'] "
              "does not", "toyb_break_permutation"),
             (_composable_key("-1", [[]]), "composable: tuples key '-1' is "
              "not an integer >= 1", "toyb_break_permutation"),
             (_composable_key("0", [["L"]]), "composable: tuples key '0' is "
              "not an integer >= 1", "toyb_break_permutation"),
             *[(_max_arity(value), f"composable: max_arity must be an "
                f"integer >= 1, not {shown}", "toyb")
               for value, shown in [(2.5, "2.5"), (True, "True"), (0, "0"),
                                    (-2, "-2"), ("3", "'3'")]],
             (_datum_of_a_repeated_triple, "floer_data: D 'A,B,A': A,B,A is "
              "not composable", "micro2datum"),
             (_f_key_not_in_d, "floer_data: f 'A,B': 'zz' is not in D(A,B)",
              "micro2datum"),
             (_f_value_not_a_dprime_id, "floer_data: f 'A,B': 'zz' is not a "
              "Dprime id of 'A,B'", "micro2datum"),
             (_restriction_key_not_in_d, "floer_data: restrictions "
              "'A,B,A|A,B': 'zz' is not in D(A,B,A)", "micro2datum"),
             (_restriction_value_not_in_d, "floer_data: restrictions "
              "'A,B,A|A,B': 'zz' is not in D(A,B)", "micro2datum"),
             (_section_witness_not_in_d, "floer_data: sections 'A,B,A': 'zz' "
              "is not in D(A,B,A)", "micro2datum"),
             (_hom_of_a_loop, "hom 'L,L': L,L is not composable", "toyb"),
             (_op_above_max_arity, "operations[0]: L,Lp,K is not composable",
              "toyb_break_permutation"),
             (_unknown_profile, "profile must be 'envelope' or 'full', not "
              "'banana'", "toyb"),
             (_wrap_chain_not_an_array, "wrap_chains 'L0': 5 is not an array "
              "of declared Lagrangians", "toyc"),
             (_wrap_chain_of_an_undeclared_lagrangian, "wrap_chains 'Z': 'Z' "
              "is not a declared Lagrangian", "toyc"),
             (_wrap_chain_through_an_undeclared_lagrangian, "wrap_chains "
              "'L0': ['L0', 'Z'] is not an array of declared Lagrangians",
              "toyc"),
             (_hom_degree("L,Kp", 1), "operations[0]: 'y' does not have "
              "degree 1", "toyb"),
             (_hom_degree("L0,K", 1), "operations[0]: 'b1' does not have "
              "degree 1", "toyc"),
             *[(_hom_degree("K,Kp", value), "hom 'K,Kp': generator "
                f"{{'degree': {shown}, 'name': 'dp'}} needs a string name and "
                "an integer degree", "toyb")
               for value, shown in [(True, "True"), (2.5, "2.5"),
                                    ("0", "'0'")]],
             (_gamma_of_degree_zero, "gamma 'A,B,C|0|g0': 't' does not have "
              "degree -1", "micro2datum"),
             (_d_id_not_a_string, "floer_data: D 'A,B': id ['d2'] is not a "
              "string", "micro2datum"),
             (_dprime_id_not_a_string, "floer_data: Dprime 'A,B': id ['a12'] "
              "is not a string", "micro2datum"),
             (_dprime_pair_id_not_a_string, "floer_data: Dprime 'A,B': id "
              "['d2'] is not a string", "micro2datum"),
             (_dsecond_id_a_list, "floer_data: Dsecond 'A,B': id ['s3'] is "
              "not a string", "micro2datum"),
             (_dsecond_id_an_object, "floer_data: Dsecond 'A,B': id {'a': 1} "
              "is not a string", "micro2datum"),
             (_dsecond_triple_id_not_a_string, "floer_data: Dsecond 'A,B': "
              "id ['a12'] is not a string", "micro2datum"),
             *[(_dthird_field_not_a_string(field, value), "floer_data: "
                f"Dthird 'A,B,A|0': id ['{value}'] is not a string",
                "micro2datum")
               for field, value in [("id", "g0"), ("datum", "t1"),
                                    ("datum_i", "t1"), ("dprime", "a11")]],
             (_restriction_value_not_a_string, "floer_data: restrictions "
              "'A,B,A|A,B': id ['d1'] is not a string", "micro2datum"),
             (_f_value_not_a_string, "floer_data: f 'A,B': id ['a11'] is not "
              "a string", "micro2datum"),
             (_section_witness_not_a_string, "floer_data: sections 'A,B,A': "
              "id ['t1'] is not a string", "micro2datum"),
             (_rekey("mu", "A,B|d1", "A,B"), "floer_data: mu 'A,B': key is "
              "not a tuple and an id", "micro2datum"),
             (_rekey("alpha", "A,B|a11", "A,B|a11|x"), "floer_data: alpha "
              "'A,B|a11|x': key is not a pair and an id", "micro2datum"),
             (_rekey("beta", "A,B|s2", "A,B"), "floer_data: beta 'A,B': key "
              "is not a pair and an id", "micro2datum"),
             (_gamma_slot_not_a_digit, "floer_data: gamma 'A,B,A|x|g0': key "
              "is not a triple, a slot 0, 1 or 2 and an id", "micro2datum"),
             (_with_triples("Dprime", "A,B,C", []), "floer_data: Dprime "
              "'A,B,C': key is not a pair", "micro2datum"),
             (_with_triples("Dsecond", "A,B,C", []), "floer_data: Dsecond "
              "'A,B,C': key is not a pair", "micro2datum"),
             (_with_triples("f", "A,B,C", {}), "floer_data: f 'A,B,C': key is "
              "not a pair", "micro2datum"),
             (_dprime_pair_id_not_in_d, "floer_data: Dprime 'A,B': 'zz' is "
              "not in D(A,B)", "micro2datum"),
             (_d_id_repeated, "floer_data: D 'A,B': id 'd1' repeats",
              "micro2datum"),
             (_dprime_id_repeated, "floer_data: Dprime 'A,B': id 'a11' "
              "repeats", "micro2datum"),
             (_dsecond_id_repeated, "floer_data: Dsecond 'A,B': id 's0' "
              "repeats", "micro2datum"),
             (_dthird_id_repeated, "floer_data: Dthird 'A,B,A|0': id 'g0' "
              "repeats", "micro2datum"),
             (_rekey("mu", "B,A|e1", "B,A|zz"), "floer_data: mu 'B,A|zz': "
              "'zz' is not in D(B,A)", "micro2datum"),
             (_rekey("alpha", "B,A|b11", "B,A|zz"), "floer_data: alpha "
              "'B,A|zz': 'zz' is not a Dprime id of 'B,A'", "micro2datum"),
             (_rekey("beta", "A,B|s3", "A,B|zz"), "floer_data: beta 'A,B|zz': "
              "'zz' is not a Dsecond id of 'A,B'", "micro2datum"),
             (_gamma_without_its_dthird, "floer_data: gamma 'A,B,A|0|zz': "
              "'zz' is not a Dthird id of 'A,B,A|0'", "micro2datum"),
             (_composable_tuple_a_string, "composable: 'KL' is not an array "
              "of names", "toyb_break_permutation"),
             (_op_tuple_a_string, "operations[0]: 'AB' is not an array of "
              "names", "dsq_break"),
             (_op_inputs_a_string, "operations[0]: 'u' is not an array of "
              "names", "dsq_break"),
             (_mu_inputs_a_string, "floer_data: mu 'A,B|d1': 'p' is not an "
              "array of names", "micro2datum"),
             (_gamma_inputs_a_string, "floer_data: gamma 'A,B,A|0|g0': 'pp' "
              "is not an array of names", "micro2datum")]


class TestInputErrors:
    @pytest.mark.parametrize("edit,fragment,fixture", MALFORMED,
                             ids=[e.__name__.lstrip("_") for e, *_ in MALFORMED])
    def test_malformed_setup_is_an_input_error(self, capsys, tmp_path, edit,
                                               fragment, fixture):
        doc = json.loads((FIXTURES / f"{fixture}.json").read_text())
        edit(doc)
        path = tmp_path / "setup.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error:")
        assert fragment in err


def test_a_huge_max_arity_validates_at_once_and_alike(capsys, tmp_path):
    # no tuple of distinct Lagrangians is longer than the setup, and the
    # relations are checked up to arity 4 at most
    doc = json.loads((FIXTURES / "toyb.json").read_text())
    doc["composable"]["max_arity"] = 10 ** 9
    path = tmp_path / "toyb.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["validate", str(path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert elapsed < 0.5
    assert (code, out) == (0, stdout_of(capsys, ["validate",
                                                 str(FIXTURES / "toyb.json")]))


def _toyb_h0(a, b):
    # K and Kp have no homs into L or Lp; every other pair has rank 1
    return 0 if a.startswith("K") and b.startswith("L") else 1


def _toyc_h0(a, b):
    # L0..L3 are all isomorphic to L3: hom(L3, Li) has rank 1 and
    # hom(L3, K) rank 2; hom(K, K) has rank 1 and hom(K, Li) = 0
    if a == "K":
        return int(b == "K")
    return 2 if b == "K" else 1


# H^0 ranks of the localized homs, derived by hand in bench/README.md
LOCALIZED_H0 = {"toyb": (_toyb_h0, 4), "toyc": (_toyc_h0, 5)}


class TestLocalize:
    @pytest.mark.parametrize("fixture", sorted(LOCALIZED_H0))
    def test_default_depth_matches_hand_derived_ranks(self, capsys, fixture):
        table, n_objects = LOCALIZED_H0[fixture]
        code, rep = run_cli(capsys, "compute", str(FIXTURES / f"{fixture}.json"),
                            "--what", "localize")
        assert (code, rep["verdict"]) == (0, "pass")
        rows = rep["sections"]["quotient_h0"]
        assert len(rows) == n_objects ** 2
        for row in rows:
            assert row["stabilized"], row["pair"]
            assert row["h0_rank"] == table(*row["pair"]), row["pair"]

    def test_toyc_chain_four_reaches_the_far_end(self, capsys, tmp_path):
        # L0 <- .. <- L4: hom(L0, L4) becomes hom(L4, L4) after localizing,
        # and the bars first see it through four cones
        _, rep = run_cli(capsys, "compute", str(fixture_path("toyc_4", tmp_path)),
                         "--what", "localize", "--depth", "4")
        rows = {tuple(r["pair"]): r for r in rep["sections"]["quotient_h0"]}
        assert len(rows) == 36
        assert rows[("L0", "L4")]["h0_rank"] == 1

    def test_toyc_chain_four_certifies_every_pair_at_depth_five(self, capsys,
                                                              tmp_path):
        code, rep = run_cli(capsys, "compute",
                            str(fixture_path("toyc_4", tmp_path)),
                            "--what", "localize", "--depth", "5")
        assert (code, rep["verdict"]) == (0, "pass")
        rows = {tuple(r["pair"]): r for r in rep["sections"]["quotient_h0"]}
        assert len(rows) == 36
        assert all(r["stabilized"] for r in rows.values())
        assert rows[("L0", "L4")]["h0_rank"] == 1

    def test_invalid_continuation_set_fails_before_cones(self, capsys):
        code, rep = run_cli(capsys, "compute", str(FIXTURES / "ore_break.json"),
                            "--what", "localize")
        assert code == 1
        assert rep["verdict"] == "fail"
        cond = rep["sections"]["continuation_conditions"]
        assert not cond["passed"]
        assert cond["failures"]["iii"]
        assert "quotient_h0" not in rep["sections"]


class TestHWIgnoresDepth:
    """HW ranks and flags come from the finite slices and the cofinality of
    the wrapping chains, so no --depth moves a byte of hw or dfcat."""

    @pytest.mark.parametrize("what", ["hw", "dfcat"])
    @pytest.mark.parametrize("fixture",
                             ["micro2datum", "toyb", "toyc", "toyc_4"])
    def test_reports_identical_at_every_depth(self, capsys, tmp_path,
                                              fixture, what):
        path = str(fixture_path(fixture, tmp_path))
        outs = []
        for depth in (["--depth", "1"], [], ["--depth", "5"]):
            code = main(["compute", path, "--what", what] + depth)
            outs.append((code, capsys.readouterr().out))
        assert outs[0][1]
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_toyc_hw_passes_at_the_default_depth(self, capsys):
        code, rep = run_cli(capsys, "compute", str(FIXTURES / "toyc.json"),
                            "--what", "hw")
        assert (code, rep["verdict"]) == (0, "pass")
        assert rep["sections"]["unstabilized_pairs"] == []
        assert "error" not in rep["sections"]


class TestAgreeComparesTheFarPair:
    """Every HW pair is certified, so a quotient plateau that disagrees
    with HW is re-deepened up to --depth."""

    def agreement_rows(self, capsys, path, *depth):
        code, rep = run_cli(capsys, "compute", str(path), "--what", "agree",
                            *depth)
        assert (code, rep["verdict"]) == (0, "pass")
        return {tuple(r["pair"]): r for r in rep["sections"]["agreement"]["pairs"]}

    def test_toyc(self, capsys):
        # (L0, L3) reads H^0 0, 0, 1, 1 at depths 1-4: its depth-2 plateau
        # disagrees with HW, so it is re-deepened and agrees at depth 4
        far = self.agreement_rows(capsys, FIXTURES / "toyc.json")[("L0", "L3")]
        assert (far["hw_stabilized"], far["quotient_h0"], far["depth"],
                far["agree"]) == (True, 1, 4, True)

    def test_toyc_4_refuted_plateau_is_not_reported(self, capsys, tmp_path):
        # (L0, L4) reads 0 at depths 2 and 3 and 1 at depth 4: depth 4
        # refutes the plateau and cannot certify 1, so no quotient rank is
        # claimed for it
        rows = self.agreement_rows(capsys, fixture_path("toyc_4", tmp_path))
        assert (rows[("L0", "L3")]["depth"], rows[("L0", "L3")]["agree"]) == \
            (4, True)
        assert rows[("L0", "L4")] == {
            "pair": ["L0", "L4"], "hw_h0": 1, "hw_stabilized": True,
            "quotient_stabilized": False, "agree": None}

    def test_toyc_4_far_pair_agrees_at_depth_five(self, capsys, tmp_path):
        far = self.agreement_rows(capsys, fixture_path("toyc_4", tmp_path),
                                  "--depth", "5")[("L0", "L4")]
        assert (far["depth"], far["quotient_h0"], far["agree"]) == (5, 1, True)


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


    def test_toyc_fails_only_on_new_vertex_without_class(self, capsys):
        # Pins the verdict the engine gives today, so that a refactor of the
        # colimit comparisons cannot move it unnoticed; whether b1.K (K has
        # no continuation class) should pass is still undecided.
        code, rep = run_cli(capsys, "entangle", str(FIXTURES / "toyc.json"),
                            "--level", "1", "--compare")
        assert (code, rep["verdict"]) == (1, "fail")
        assert rep["sections"]["tau"] == {"passed": True,
                                          "fully_faithful_failures": [],
                                          "essential_surjectivity_failures": []}
        bridges = rep["sections"]["bridges"]
        assert bridges["E_delta->E0"]["passed"]
        assert bridges["E_delta->E0"]["hom_stability_failures"] == []
        assert bridges["E_delta->E0"]["essential_surjectivity_failures"] == []
        assert not bridges["E0->E1"]["passed"]
        assert bridges["E0->E1"]["hom_stability_failures"] == []
        assert bridges["E0->E1"]["essential_surjectivity_failures"] == [
            {"passed": False, "vertex": "b1.K"}]

    def test_micro2datum_poset_is_decorated_from_the_collection(self,
                                                                capsys):
        # the bundled poset's chains carry the chosen collection's data, so
        # a full profile reaches tau; neither E0->E1 nor tau passes yet
        code, rep = run_cli(capsys, "entangle",
                            str(FIXTURES / "micro2datum.json"), "--level", "1",
                            "--compare")
        assert (code, rep["verdict"]) == (1, "fail")
        assert sorted(rep["sections"]) == ["bridges", "stages", "tau"]
        bridges = rep["sections"]["bridges"]
        assert bridges["E_delta->E0"]["passed"]
        assert bridges["E0->E1"]["hom_stability_failures"] == []
        assert bridges["E0->E1"]["essential_surjectivity_failures"] == [
            {"passed": False, "vertex": "b1.A"},
            {"passed": False, "vertex": "b1.B"}]
        assert rep["sections"]["tau"] == {
            "passed": False,
            "fully_faithful_failures": [{"iso": False, "pair": ["p0", "p1"]}],
            "essential_surjectivity_failures": []}

    def test_depth_is_not_an_entangle_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["entangle", str(FIXTURES / "toyb.json"), "--depth", "2"])
        assert exc.value.code == 2
        assert "--depth" in capsys.readouterr().err


def assert_usage_error(capsys, argv, fragment):
    """main(argv) exits 2, writes nothing to stdout and names ``fragment``."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert fragment in err


TOYB = str(FIXTURES / "toyb.json")

# a negative depth once ended localize in a KeyError and let agree pass
# without comparing any pair; a negative level once passed as entangle:-1.
# (command line, the option the message names); FILE goes first, last or
# in the middle, and an option is spelled whole, by a prefix or with "="
NEGATIVE_COUNTS = [
    (("compute", TOYB, "--what", "localize", "--depth", "-1"), "--depth"),
    (("compute", TOYB, "--what", "agree", "--depth", "-1"), "--depth"),
    (("entangle", TOYB, "--level", "-1"), "--level"),
    (("compute", TOYB, "--what", "hw", "--depth", "-1"), "--depth"),
    (("compute", TOYB, "--what", "dfcat", "--depth", "-1"), "--depth"),
    (("compute", "--depth=-1", TOYB), "--depth"),
    (("compute", "--dep", "-1", "--what", "hw", TOYB), "--depth"),
    (("entangle", "--lev=-1", TOYB, "--compare"), "--level"),
    (("compute", "--depth", "3", TOYB, "--depth", "-1"), "--depth")]


@pytest.mark.parametrize("argv,option", NEGATIVE_COUNTS,
                         ids=["localize-depth", "agree-depth", "entangle-level",
                              "hw-depth", "dfcat-depth", "depth-equals",
                              "depth-prefix", "level-prefix-equals",
                              "depth-repeated"])
def test_negative_count_is_a_usage_error(capsys, argv, option):
    assert_usage_error(capsys, argv, f"argument {option}: must be >= 0, not -1")


@pytest.mark.parametrize("argv,option,value",
                         [(("compute", TOYB, "--depth", "two"), "--depth", "two"),
                          (("entangle", TOYB, "--level", "1.5"), "--level", "1.5"),
                          (("compute", "--depth=3x", TOYB), "--depth", "3x"),
                          (("entangle", "--le", "", TOYB), "--level", "")],
                         ids=["depth", "level", "depth-equals", "level-prefix"])
def test_non_integer_count_is_a_usage_error(capsys, argv, option, value):
    assert_usage_error(capsys, argv,
                       f"argument {option}: invalid nonnegative value: {value!r}")


USAGE_ERRORS = [
    (("compute",), "the following arguments are required: file"),
    (("entangle", "--level", "2"), "the following arguments are required: file"),
    ((), "the following arguments are required: command"),
    (("localize", TOYB), "argument command: invalid choice: 'localize'"),
    (("compute", TOYB, "--what", "bars"),
     "argument --what: invalid choice: 'bars' (choose from 'hw', 'dfcat', "
     "'localize', 'agree')"),
    (("validate", "--mode=lenient", TOYB), "argument --mode: invalid choice"),
    (("compute", TOYB, "--depth"), "argument --depth: expected one argument"),
    (("compute", "--what", "--text", TOYB),
     "argument --what: expected one argument"),
    (("entangle", TOYB, "--compare=yes"),
     "argument --compare: ignored explicit argument 'yes'"),
    (("validate", TOYB, TOYB), f"unrecognized arguments: {TOYB}"),
    (("validate", TOYB, "--what", "hw"), "unrecognized arguments: --what hw"),
    (("--text", "validate", TOYB), "unrecognized arguments: --text"),
    (("validate", TOYB, "--text", "--"), "unrecognized arguments: --")]


@pytest.mark.parametrize("argv,fragment", USAGE_ERRORS,
                         ids=["compute-no-file", "entangle-no-file",
                              "no-command", "unknown-command", "unknown-what",
                              "unknown-mode", "depth-without-value",
                              "what-without-value", "flag-with-value",
                              "two-files", "option-of-another-command",
                              "option-before-command", "stray-separator"])
def test_usage_error_exits_2_with_nothing_on_stdout(capsys, argv, fragment):
    assert_usage_error(capsys, argv, fragment)


@pytest.mark.parametrize("argv", [("-h",), ("--help",), ("--he",),
                                  ("validate", "-h"), ("compute", "--help"),
                                  ("entangle", TOYB, "--level", "2", "-h"),
                                  ("compute", "--h", "--depth", "-1", TOYB)],
                         ids=["top-h", "top-help", "top-prefix", "validate",
                              "compute", "entangle-after-file",
                              "before-a-later-error"])
def test_help_exits_0_with_the_grammar(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out == cli.__doc__ and err == ""
    assert "usage: wrapcat validate FILE" in out


# spellings of one command line: option before or after FILE, "=" or a
# separate value, a unique prefix, a repeated option (the last wins), "--"
SPELLINGS = {
    ("compute", TOYB, "--what", "dfcat"): [
        ("compute", "--what", "dfcat", TOYB),
        ("compute", TOYB, "--what=dfcat"),
        ("compute", "--wh", "dfcat", TOYB, "--dep", "2"),
        ("compute", "--what", "hw", TOYB, "--what", "dfcat"),
        ("compute", "--what", "dfcat", "--", TOYB)],
    ("entangle", TOYB, "--level", "0", "--text"): [
        ("entangle", "--level=0", "--te", TOYB),
        ("entangle", "--lev", "0", TOYB, "--text", "--text"),
        ("entangle", "--level", "0", "--text", "--", TOYB),
        ("entangle", "--level", "2", "--text", TOYB, "--level=0")],
}


@pytest.mark.parametrize("canonical", sorted(SPELLINGS))
def test_every_spelling_runs_the_same_command(capsys, canonical):
    want = (main(list(canonical)), capsys.readouterr().out)
    assert want[1]
    for argv in SPELLINGS[canonical]:
        assert (main(list(argv)), capsys.readouterr().out) == want, argv


def test_a_run_imports_no_argparse():
    # building argparse parsers cost about 3 ms of a few-ms call, most of it
    # gettext lookups and the locale import they trigger
    code = ("import sys\n"
            "from wrapcat.cli import main\n"
            f"rc = main(['validate', {TOYB!r}])\n"
            "print(rc, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)),"
            " file=sys.stderr)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stderr.split() == ["0", "[]"]


# every computation localizes, so each refuses a continuation set that is
# no right multiplicative system with the section localize writes
COMPUTE_ERRORS = [(fixture, what)
                  for fixture in ("ore_break", "toyc_break_closure")
                  for what in ("hw", "dfcat", "agree", "localize")]
FAILED_CONDITION = {"ore_break": "iii", "toyc_break_closure": "ii"}


def _pairs_of_abc(tmp_path):
    """Explicit mode on A, B, C: all six pairs composable, no triple, and
    max_arity 2, so the bundled poset A < B < C has a chain of three."""
    path = tmp_path / "abc_pairs.json"
    path.write_text(json.dumps({
        "schema": "wrapcat/1", "name": "abc_pairs", "coefficients": "F2",
        "lagrangians": ["A", "B", "C"], "profile": "envelope",
        "composable": {"mode": "explicit", "max_arity": 2, "tuples": {
            "1": [[a, b] for a in "ABC" for b in "ABC" if a != b]}}}))
    return path


# (setup writer, error type, message) of an entangle --compare that ends in
# an engine error
ENTANGLE_ERRORS = [(_pairs_of_abc, "DecorationInconsistent",
                    "chain ('p2', 'p1', 'p0') maps to non-composable tuple "
                    "('C', 'B', 'A')")]


@pytest.mark.parametrize("fixture,what", COMPUTE_ERRORS)
def test_invalid_continuation_set_fails_every_computation(capsys, fixture,
                                                          what):
    path = str(FIXTURES / f"{fixture}.json")
    code, rep = run_cli(capsys, "compute", path, "--what", what)
    _, localize = run_cli(capsys, "compute", path, "--what", "localize")
    assert (code, rep["verdict"]) == (1, "fail")
    assert rep["command"] == f"compute:{what}"
    assert list(rep["sections"]) == ["continuation_conditions"]
    assert rep["sections"] == localize["sections"]
    cond = rep["sections"]["continuation_conditions"]
    assert not cond["passed"]
    assert cond["failures"][FAILED_CONDITION[fixture]]


@pytest.mark.parametrize("compare", [[], ["--compare"]],
                         ids=["stages", "compare"])
@pytest.mark.parametrize("fixture", ["dsq_break", "micro2_break_beta",
                                     "toyb_break_permutation"])
def test_entangle_refuses_a_setup_whose_axioms_fail(capsys, fixture, compare):
    # the stages are built only on a setup that compute would accept
    path = str(FIXTURES / f"{fixture}.json")
    code, rep = run_cli(capsys, "entangle", path, *compare)
    _, hw = run_cli(capsys, "compute", path)
    assert (code, rep["verdict"]) == (1, "fail")
    assert list(rep["sections"]) == ["validation"]
    assert rep["sections"] == hw["sections"]


# the exit code of every bundled fixture under each command, in the order
# of PINNED_COMMANDS: 0 is a passing report, 1 a failing one, 2 an input
# error with nothing on stdout
PINNED_COMMANDS = {"validate": ("validate",),
                   "hw": ("compute", "--what", "hw"),
                   "dfcat": ("compute", "--what", "dfcat"),
                   "localize": ("compute", "--what", "localize"),
                   "agree": ("compute", "--what", "agree"),
                   "entangle": ("entangle", "--level", "1", "--compare"),
                   "entangle2": ("entangle", "--level", "2", "--compare")}
PINNED_EXITS = {"badscalar": "2222222", "dsq_break": "1111111",
                "micro2_break_beta": "1111111", "micro2datum": "0000011",
                "ore_break": "1111111", "toyb": "0000000",
                "toyb_break_permutation": "1111111", "toyc": "0000011",
                "toyc_break_closure": "1111111"}


def test_pinned_exits_cover_every_bundled_fixture():
    assert sorted(PINNED_EXITS) == sorted(p.stem
                                          for p in FIXTURES.glob("*.json"))


@pytest.mark.parametrize("command", PINNED_COMMANDS)
@pytest.mark.parametrize("fixture", sorted(PINNED_EXITS))
def test_every_fixture_and_command_has_a_pinned_exit_and_verdict(
        capsys, fixture, command):
    name, *options = PINNED_COMMANDS[command]
    code = main([name, str(FIXTURES / f"{fixture}.json"), *options])
    out = capsys.readouterr().out
    assert code == int(PINNED_EXITS[fixture][list(PINNED_COMMANDS)
                                             .index(command)])
    if code == 2:
        assert out == ""
    else:
        assert json.loads(out)["verdict"] == ("pass" if code == 0 else "fail")


# sha256 of the stdout of every bundled fixture under each command, in the
# order of PINNED_COMMANDS, and of toyb and toyc re-coefficiented to Q under
# each of RATIONAL_COMMANDS: a change of the report schema regenerates them
REPORT_SHA256 = {
    "badscalar": (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dsq_break": (
        "ca11bd74192315e6b5cbab44d31deca828e844323c6afc8f7095e6247ad7fbf9",
        "d13fb60a5b58db089b6bcae27ce4b03d313d216c93da871eacd14d3bc54b13aa",
        "2482d459fd505e663e2ef5d2b01150989539a2966059cd0bb39c6283b51b9764",
        "b3e01e8221903d773eac3bac1b4a89a3bd0f7d9de0eb36a47cc341fe9e5a98e1",
        "4644016e69b493530950a0ae45f5d72a6bea134f32ca4bd48bc2603676b8b2a8",
        "a9dc43ced731012fbe8626cfde0f5b083380d7570a0f1325c5668d011a1f9d8d",
        "ac89813b1dcbce231db2150575f3ed6d48997901785da774178d434fdd3325bc"),
    "micro2_break_beta": (
        "e6f4d1302569b01e8ff9ad0e15cf3f03e00b16a565f39b3b5acf119ed81dcded",
        "736b221b093ce828e431df3bcb27df688b067ad1393af7fb4fc1c5162a47cb7e",
        "6cfebffc41214507884d073d7ff0a9ea2932b1fe164a465cf424d1277dbaa0c4",
        "7e28c902baf693c9a06d78842b27edfba93d13c43efe0940c8895915f51ac57f",
        "5f22a7dbcfc5999e4fe10c2f13fe5e8d1d262d6d41a400f8961e8495df33844d",
        "54f0a168f086b52d41ce4cc7fdab96d57ba4996e22355a3f8a325e2202f97825",
        "7dfbedea8d1fe38f580e41f40dbcee41ecd5b828b3ed2f7c980efb5ce2cfae1c"),
    "micro2datum": (
        "0133ee2a6afc067d0080ec24fac791725d1871782b64f299dc9cfdea46241cbe",
        "e5cc31f23c303690e54ae2864793d494479c5d7adad9468649e8a68a418e5f5b",
        "ec9bc1fbb7fd5a2dc3de1f0450a4e57d2997c3570cf272569b564ad2567c7c2d",
        "2cc04eb980f75b03649a3894d040b0179f88d33f53639975326e3ea23294b7ae",
        "ad7351edc014c970d799555980ea94a5019c1dffb684b4eadf188132f7b151ad",
        "4ee8fde077c660897daf0b30e784694ed136b915a242e08ecdbc5524479c6c4f",
        "faaefca0d4dcdeeec0778ebe09284ec49ba6dda30f5e3e097d0326ff55be1fa0"),
    "ore_break": (
        "cbb0f57713cf01e60c1e744731ba843cf023e89962cfb84f4d5592fd21c3ac9b",
        "4fa3c17adebb65a3c6c4e97090cac2217352f1098b6695d84aa50b297ebde083",
        "6ecc8a00a93854382c052c9ba05881e8c5deb23dea4e4faec59bee17a71bea96",
        "b6e1af7081e646ea236782bb489c84e513d62c861eaa62d96f6c227093da8bdc",
        "60312a6e7f06b096fbaa6b653f59566d12e28bf279297c4fab02c17502e48ac0",
        "b2f334c6107e403824d879ab7e5376245b4448af7b80902994a4b7a11bf2f6d2",
        "483d126123d0ca912a39f920990eca8f0dbf18f34b9a83405a12e5350f7f3203"),
    "toyb": (
        "912977d6446b66bf23b75c777370f283974cb31e05fd8738bf0212051526bf6f",
        "734799a4cf8deb8fc6fdcf1c93b3d3cbd348fd61c474f3bd27407c4df9e2666b",
        "3d54aaa556ae3a2076f1feba0001861c4682202892a7eedde30dd4d3fae5eb3e",
        "dbed62d3840271798eb82f89eaafb3781fba089b90d3d23f88ac5a9dea82fa4b",
        "135233a6b25c6562b9569f654cf643a953f69d1435658ecd4c08eee8c04fee49",
        "3948c583c666c411763c969367164acf7114f3c5ae873da423ad0e8fb9ffb1bb",
        "cf970bd9e827d2a8814d07ca2b8f9b75e50214acd8fa9847c9d352e04af68e60"),
    "toyb_break_permutation": (
        "5d0b9a7090f0114276a061fbd1246551ddbaf032baaa3543ec2b96e07cecd340",
        "40198778aeeb15a1ea67a682dec6c51e6c1ccc9f048f81d4ff0850883df4c01e",
        "42ccca9b360e82119c803d39de4ec3c4b4e48937b22594c689a145c2f69ef681",
        "42040677d3e5b1b822dffe5e3312d16aac8b7fdd7d9a92a31bb364412e3f2446",
        "2f69776914eedabebde76c8ab13b2fe6e2f44e518196d44c28132bfc586761e0",
        "d7464519467b57517b1dfa9fe5002cc54677b60aa35b5d873fe639353c6869ac",
        "d8f4da991d1d26fff092ebb3b67a3f9d4e165d26d3b3f9700fa44fa8525cb46c"),
    "toyc": (
        "e7182cab67e711fb7d59437fb5ed4f856cd2e7904cf87e9020e9c53ac09234ba",
        "6b54aa7b0e6b0fa5ab8334b979e60f87408bf4ce8eb2b68717d9e30963c802dd",
        "9fa207a0ac2b5eaab8b27ba7ba48b33c7812c4c2e33af9cf236ead9f739441ca",
        "3f86b4da208177f4b91d02fdf6db355d0cae71e51aecbc568a13d535c9faf6db",
        "05733d5c0247aee0d728aa44158cd3547936825ee40f7d7e9350a77b1827fabe",
        "cab36f1fb15c2bf70c0b4e663cb077e41808eb60c596ccc79e0aac6b6c9de3ec",
        "1ea24f869d460fec636ca602357400e866b0479d855e7e54a5cfaee885a40673"),
    "toyc_break_closure": (
        "1be033747e25cd5da42275ea8e3dc7e3fc3b19b63b8b3c80f770ba9edb36adaf",
        "49294143dbdc0c1a5260b9b02a726b1c905697e5d7258e1136b4fd697b8ceedf",
        "60fcfaef20402e9dfb88764411001ae27c40ef5c7e84900db2edffe44c88dbff",
        "1bd203b046856c69d4e618058cdcccfef46737bbd81050100e7751405994d818",
        "243c40e7643df2508e0d62ad05d853e96506f42027df61f05b88ac58c72f62ce",
        "d9ad890b21e0fa71f21e309281fb7ed74d4a9d03ca6bd22a617bab7ac598ff63",
        "53e743df820da82867b3c108175447810abfdd347c98f0114cd11656498f1f6e")}
RATIONAL_REPORT_SHA256 = {
    "toyb": (
        "142f229bdd749562357e558060c831455e385ebc3529deb950f46610f54ed9fe",
        "734799a4cf8deb8fc6fdcf1c93b3d3cbd348fd61c474f3bd27407c4df9e2666b",
        "3d54aaa556ae3a2076f1feba0001861c4682202892a7eedde30dd4d3fae5eb3e",
        "78d1c53235e1f66945864a02f1cd0dd0788f533d4519c7c70a48da5238a0d311",
        "3948c583c666c411763c969367164acf7114f3c5ae873da423ad0e8fb9ffb1bb"),
    "toyc": (
        "cb9b8459c396a57e12b20663378c4f4733e6bd812aaec47ed97c838c812e6cf1",
        "6b54aa7b0e6b0fa5ab8334b979e60f87408bf4ce8eb2b68717d9e30963c802dd",
        "9fa207a0ac2b5eaab8b27ba7ba48b33c7812c4c2e33af9cf236ead9f739441ca",
        "a27f5dd677a8b775b3768868683ccca2457e16311691b5cab6d7966f060910f3",
        "cab36f1fb15c2bf70c0b4e663cb077e41808eb60c596ccc79e0aac6b6c9de3ec")}
RATIONAL_COMMANDS = {"localize": ("compute", "--what", "localize",
                                  "--depth", "2"),
                     "hw": PINNED_COMMANDS["hw"],
                     "dfcat": PINNED_COMMANDS["dfcat"],
                     "agree": PINNED_COMMANDS["agree"],
                     "entangle": PINNED_COMMANDS["entangle"]}


def stdout_sha256(capsys, argv):
    return hashlib.sha256(stdout_of(capsys, argv).encode()).hexdigest()


@pytest.mark.parametrize("command", PINNED_COMMANDS)
@pytest.mark.parametrize("fixture", sorted(PINNED_EXITS))
def test_every_fixture_and_command_has_pinned_report_bytes(capsys, fixture,
                                                           command):
    name, *options = PINNED_COMMANDS[command]
    assert stdout_sha256(capsys, [name, str(FIXTURES / f"{fixture}.json"),
                                  *options]) == \
        REPORT_SHA256[fixture][list(PINNED_COMMANDS).index(command)]


@pytest.mark.parametrize("command", RATIONAL_COMMANDS)
@pytest.mark.parametrize("fixture", sorted(RATIONAL_REPORT_SHA256))
def test_rational_fixtures_have_pinned_report_bytes(capsys, tmp_path, fixture,
                                                    command):
    path = tmp_path / f"{fixture}_q.json"
    path.write_text(json.dumps(rational_fixture_doc(fixture)))
    name, *options = RATIONAL_COMMANDS[command]
    assert stdout_sha256(capsys, [name, str(path), *options]) == \
        RATIONAL_REPORT_SHA256[fixture][list(RATIONAL_COMMANDS).index(command)]


# (exit code, sha256 of the stdout) of toyb and toyc re-coefficiented to F3
# under each of F3_COMMANDS, where composition meets signs of odd
# characteristic
F3_COMMANDS = {k: PINNED_COMMANDS[k] for k in ("hw", "dfcat", "agree", "entangle")}
F3_REPORTS = {
    "toyb": (
        (0, "734799a4cf8deb8fc6fdcf1c93b3d3cbd348fd61c474f3bd27407c4df9e2666b"),
        (0, "3d54aaa556ae3a2076f1feba0001861c4682202892a7eedde30dd4d3fae5eb3e"),
        (0, "135233a6b25c6562b9569f654cf643a953f69d1435658ecd4c08eee8c04fee49"),
        (0, "3948c583c666c411763c969367164acf7114f3c5ae873da423ad0e8fb9ffb1bb")),
    "toyc": (
        (0, "6b54aa7b0e6b0fa5ab8334b979e60f87408bf4ce8eb2b68717d9e30963c802dd"),
        (0, "9fa207a0ac2b5eaab8b27ba7ba48b33c7812c4c2e33af9cf236ead9f739441ca"),
        (0, "05733d5c0247aee0d728aa44158cd3547936825ee40f7d7e9350a77b1827fabe"),
        (1, "cab36f1fb15c2bf70c0b4e663cb077e41808eb60c596ccc79e0aac6b6c9de3ec"))}


@pytest.mark.parametrize("command", F3_COMMANDS)
@pytest.mark.parametrize("fixture", sorted(F3_REPORTS))
def test_f3_fixtures_have_pinned_exits_and_report_bytes(capsys, tmp_path,
                                                        fixture, command):
    path = tmp_path / f"{fixture}_f3.json"
    path.write_text(json.dumps(fixture_doc_over(
        fixture, CoefficientRing.prime_field(3))))
    name, *options = F3_COMMANDS[command]
    code = main([name, str(path), *options])
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == F3_REPORTS[fixture][list(F3_COMMANDS).index(command)]


@pytest.mark.parametrize("depth", ["0", "1"])
def test_agree_that_compares_no_pair_fails(capsys, depth):
    # no pair is certified below depth 2, so nothing is compared
    code, rep = run_cli(capsys, "compute", str(FIXTURES / "toyb.json"),
                        "--what", "agree", "--depth", depth)
    assert (code, rep["verdict"]) == (1, "fail")
    assert all(r["agree"] is None
               for r in rep["sections"]["agreement"]["pairs"])


class TestEngineErrorsEndInReports:
    """An engine error ends in a failing report that names it, not a
    traceback."""

    @pytest.mark.parametrize("write,error,message", ENTANGLE_ERRORS,
                             ids=[w.__name__.lstrip("_")
                                  for w, *_ in ENTANGLE_ERRORS])
    def test_entangle(self, capsys, tmp_path, write, error, message):
        path = write(tmp_path)
        code, rep = run_cli(capsys, "entangle", str(path), "--level", "1",
                            "--compare")
        assert (code, rep["verdict"]) == (1, "fail")
        assert rep["sections"] == {"error": {"type": error,
                                             "message": message}}
        assert rep["fixture"] == path.stem


class TestRepeatedCalls:
    """Caches live on objects built for one call: a second identical call in
    the same process prints the same bytes and exits the same way."""

    def test_second_call_repeats_the_first(self, capsys, tmp_path):
        toyb_q = tmp_path / "toyb_q.json"
        toyb_q.write_text(json.dumps(rational_fixture_doc("toyb")))
        calls = [["compute", str(FIXTURES / "toyc.json"), "--what", "dfcat"],
                 ["entangle", str(FIXTURES / "toyc.json"), "--level", "1",
                  "--compare"],
                 ["compute", str(toyb_q), "--what", "dfcat"]]
        for argv in calls:
            first = (main(list(argv)), capsys.readouterr().out)
            second = (main(list(argv)), capsys.readouterr().out)
            assert first[1]
            assert second == first, argv

    def test_fraction_composition_eliminates_once_per_block(self, capsys,
                                                            monkeypatch):
        # toyc dfcat composes 1,762 roofs through 21 distinct structure-map
        # blocks: eliminating per call rather than per block costs thousands
        calls = []
        rref = Matrix.rref

        def counted(self):
            calls.append(None)
            return rref(self)
        monkeypatch.setattr(Matrix, "rref", counted)
        code, rep = run_cli(capsys, "compute", str(FIXTURES / "toyc.json"),
                            "--what", "dfcat")
        assert (code, rep["verdict"]) == (0, "pass")
        assert len(calls) < 100

    @pytest.mark.parametrize("fixture", ["toyb", "toyc"])
    def test_compute_builds_the_envelope_once(self, capsys, monkeypatch,
                                              fixture):
        # validation checks the relations on the envelope the command reads
        builds = []
        unital_category = floer.unital_category

        def counted(*args, **kwargs):
            builds.append(None)
            return unital_category(*args, **kwargs)
        monkeypatch.setattr(floer, "unital_category", counted)
        code, rep = run_cli(capsys, "compute",
                            str(FIXTURES / f"{fixture}.json"), "--what", "hw")
        assert (code, rep["verdict"]) == (0, "pass")
        assert len(builds) == 1

    def test_bar_contractions_evaluate_each_run_once(self, capsys,
                                                      monkeypatch):
        # toyc localize at depth 3 visits 17,209 consecutive runs of its bar
        # chains, 454 of them distinct up to arity 2: evaluating per visit
        # rather than per distinct run costs thousands of calls
        calls = []
        mu = AInfCategory.mu

        def counted(self, chain, inputs):
            calls.append(None)
            return mu(self, chain, inputs)
        monkeypatch.setattr(AInfCategory, "mu", counted)
        code, rep = run_cli(capsys, "compute", str(FIXTURES / "toyc.json"),
                            "--what", "localize", "--depth", "3")
        assert (code, rep["sections"]["error"]) == (1, "NotStabilized")
        assert len(calls) < 8000
