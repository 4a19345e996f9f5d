"""Cone extensions: the frozen sign convention's verification battery.

Every test here is part of the contract pinning the twist signs: the
A-infinity relations of cone extensions over the rationals with odd degrees,
strict diagonal units, acyclicity of identity cones, untwisted zero cones,
and the two-term-filtration rank oracle.
"""

import pytest

from conv_fixtures_support import dg_path_cat, mu3_cat
from fixture_builders import build_toyb
from oracles import nonzero_above_arity, unit_is_strict
from wrapcat.ainf import (check_ainf_relations, cohomology_category, cone,
                          cone_of_class)
from wrapcat.errors import NotClosed, NotDegreeZero, ShapeMismatch
from wrapcat.floer import canonical_envelope
from wrapcat.linalg import Complex, GradedMap, GradedModule, cohomology
from wrapcat.rings import CoefficientRing

F2 = CoefficientRing.prime_field(2)
Q = CoefficientRing.rationals()


class TestConventionBattery:
    def test_dg_cone_relations_arity_4(self):
        ext = cone(dg_path_cat(), "Cb", "o1", "o2", {"b": 1})
        assert check_ainf_relations(ext, 4)["passed"]

    def test_identity_cone_relations_and_acyclicity(self):
        cat = dg_path_cat()
        ext = cone(cat, "Cid", "o1", "o1", {"1_o1": 1})
        assert check_ainf_relations(ext, 3)["passed"]
        h = cohomology_category(ext)
        for t in ext.objects:
            assert h.pres("Cid", t).degrees() == []
            assert h.pres(t, "Cid").degrees() == []

    def test_mu3_cone_relations(self):
        for name, f in (("Cg2", {"g2": 1}), ("Cw", {"w": 1})):
            ext = cone(mu3_cat(), name, "p1", "p2", f)
            assert check_ainf_relations(ext, 4)["passed"]

    def test_double_cone(self):
        cat = dg_path_cat()
        ext = cone(cat, "C1", "o1", "o2", {"b": 1})
        ext2 = cone(ext, "C2", "o1", "o2", {"b": 1})
        assert check_ainf_relations(ext2, 3)["passed"]
        assert all(unit_is_strict(ext2, x) for x in ext2.objects)

    def test_cone_units_strict(self):
        ext = cone(dg_path_cat(), "Cb", "o1", "o2", {"b": 1})
        assert all(unit_is_strict(ext, x) for x in ext.objects)


class TestConeSemantics:
    def test_zero_cone_untwisted(self):
        cat = dg_path_cat()
        ext = cone(cat, "C0", "o0", "o3", {})
        assert check_ainf_relations(ext, 3)["passed"]
        # untwisted: hom(o1, C0) is the direct sum of the shifted homs
        h = cohomology_category(ext)
        direct = {}
        h_plain = cohomology_category(cat)
        for d in (-2, -1, 0, 1, 2, 3):
            r = (h_plain.pres("o1", "o0").rank(d + 1)
                 + h_plain.pres("o1", "o3").rank(d))
            if r:
                direct[d] = r
        assert {d: h.pres("o1", "C0").rank(d)
                for d in direct} == direct

    def test_toyb_cone_of_continuation_acyclic_against_k(self):
        env = canonical_envelope(build_toyb())
        h = cohomology_category(env)
        ext = cone_of_class(env, h, "Cc", "Lp", "L",
                            h.project_dict("Lp", "L", 0, {"c": 1}))
        assert check_ainf_relations(ext, 4)["passed"]
        hx = cohomology_category(ext)
        # c is invertible after wrapping: hom(cone(c), K) is acyclic
        assert hx.pres("Cc", "K").degrees() == []
        assert hx.pres("Cc", "Kp").degrees() == []

    def test_filtration_rank_oracle(self):
        # H hom(cone(f), T) of the explicit two-term twisted complex,
        # assembled independently of the cone machinery
        cat = dg_path_cat()
        ext = cone(cat, "Cb", "o1", "o2", {"b": 1})
        hx = cohomology_category(ext)
        for t in ("o3",):
            m1 = cat.hom("o1", t)
            m2 = cat.hom("o2", t)
            gens = []
            for d in m2.degrees():
                for lab in m2.labels(d):
                    gens.append((f"2:{lab}", d))
            for d in m1.degrees():
                for lab in m1.labels(d):
                    gens.append((f"1:{lab}", d + 1))
            tot = GradedModule.from_generators(Q, gens)
            entries = []
            for d in m2.degrees():
                for lab in m2.labels(d):
                    for out, v in cat.mu((("o2", t)), (lab,)).items():
                        entries.append((f"2:{lab}", f"2:{out}", v))
                    for out, v in cat.mu(("o1", "o2", t), ("b", lab)).items():
                        entries.append((f"2:{lab}", f"1:{out}", v))
            for d in m1.degrees():
                for lab in m1.labels(d):
                    for out, v in cat.mu(("o1", t), (lab,)).items():
                        entries.append((f"1:{lab}", f"1:{out}", -v))
            diff = GradedMap.from_entries(tot, tot, 1, entries)
            oracle = cohomology(Complex(tot, diff))
            got = hx.pres("Cb", t)
            assert {d: oracle.rank(d) for d in oracle.degrees()} == \
                {d: got.rank(d) for d in got.degrees()}

    def test_errors(self):
        cat = dg_path_cat()
        with pytest.raises(NotClosed):
            cone(cat, "Ce", "o1", "o2", {"e": 1})
        with pytest.raises(NotDegreeZero):
            cone(cat, "Cf", "o1", "o2", {"f": 1})
        ext = cone(cat, "C", "o1", "o2", {"b": 1})
        with pytest.raises(ShapeMismatch):
            cone(ext, "CC", "C", "o2", {})


def _toyb_cone():
    env = canonical_envelope(build_toyb())
    h = cohomology_category(env)
    return cone_of_class(env, h, "Cc", "Lp", "L",
                         h.project_dict("Lp", "L", 0, {"c": 1}))


# every cone extension built above
CONES = {
    "dg-Cb": lambda: cone(dg_path_cat(), "Cb", "o1", "o2", {"b": 1}),
    "dg-Cid": lambda: cone(dg_path_cat(), "Cid", "o1", "o1", {"1_o1": 1}),
    "mu3-Cg2": lambda: cone(mu3_cat(), "Cg2", "p1", "p2", {"g2": 1}),
    "mu3-Cw": lambda: cone(mu3_cat(), "Cw", "p1", "p2", {"w": 1}),
    "dg-double": lambda: cone(cone(dg_path_cat(), "C1", "o1", "o2", {"b": 1}),
                              "C2", "o1", "o2", {"b": 1}),
    "dg-zero": lambda: cone(dg_path_cat(), "C0", "o0", "o3", {}),
    "toyb-Cc": _toyb_cone,
}


class TestArityBound:
    """A twisted mu^k only inserts twists into host operations of arity at
    least k, so above ``max_arity()`` every mu^k is zero; the contraction
    index and the relation check skip those arities."""

    @pytest.mark.parametrize("name", sorted(CONES))
    def test_no_operation_above_max_arity(self, name):
        ext = CONES[name]()
        assert nonzero_above_arity(ext) == []
