import pytest

from conv_fixtures_support import dg_path_cat, mu3_cat
from fixture_builders import build_toyb
from wrapcat.ainf import (AInfCategory, NaiveFunctor, check_ainf_relations,
                          check_quasi_equivalence, classify_unitality,
                          cohomology_category)
from wrapcat.errors import InvalidFunctor, RelationFailure
from wrapcat.floer import canonical_envelope
from wrapcat.linalg import GradedModule
from wrapcat.rings import CoefficientRing

F2 = CoefficientRing.prime_field(2)
Q = CoefficientRing.rationals()


def associative_algebra_cat(ring):
    """Two objects, an associative composition table, mu^1 = 0, higher zero."""
    homs = {
        ("X", "X"): GradedModule.from_generators(ring, [("1x", 0)]),
        ("Y", "Y"): GradedModule.from_generators(ring, [("1y", 0)]),
        ("X", "Y"): GradedModule.from_generators(ring, [("f", 0), ("g", 0)]),
    }
    cat = AInfCategory(ring, ["X", "Y"], homs,
                       {"X": {"1x": ring.one()}, "Y": {"1y": ring.one()}})
    cat.add_unit_entries()
    return cat


class TestRelations:
    def test_associative_algebra_passes(self):
        for ring in (F2, Q):
            rep = check_ainf_relations(associative_algebra_cat(ring), 4)
            assert rep["passed"] and rep["checked"] > 0

    def test_toyb_envelope_passes_arity_4(self):
        env = canonical_envelope(build_toyb())
        assert check_ainf_relations(env, 4)["passed"]

    def test_broken_associativity_reports_witness(self):
        env = canonical_envelope(build_toyb())
        # flip one mu^2 entry: (c, y) -> x becomes (c, y) -> 0
        env.set_op_entry(("Lp", "L", "K"), ("c", "y"), "x", 0)
        rep = check_ainf_relations(env, 4)
        assert not rep["passed"]
        chains = {tuple(v["chain"]) for v in rep["violations"]}
        assert any("Lp" in ch and "K" in ch for ch in chains)

    def test_rational_dg_category_with_odd_degrees(self):
        assert check_ainf_relations(dg_path_cat(), 4)["passed"]

    def test_mu3_category(self):
        assert check_ainf_relations(mu3_cat(), 4)["passed"]


class TestUnitality:
    def test_envelope_is_strict(self):
        env = canonical_envelope(build_toyb())
        assert classify_unitality(env)["global"] == "strict"

    def test_witnessed_unital(self):
        # e acts as identity up to the homotopy h with d h(x) = e.x - x
        ring = Q
        homs = {("X", "X"): GradedModule.from_generators(
            ring, [("e", 0), ("x", 0), ("hx", -1)])}
        cat = AInfCategory(ring, ["X"], homs, {"X": {"e": 1}})
        cat.add_op_entry(("X", "X"), ("hx",), "x", 1)       # d(hx) = x
        cat.add_op_entry(("X", "X", "X"), ("e", "e"), "e", 1)
        cat.add_op_entry(("X", "X", "X"), ("e", "x"), "x", 2)  # e.x = x + d(hx)
        cat.add_op_entry(("X", "X", "X"), ("x", "e"), "x", 1)
        cat.add_op_entry(("X", "X", "X"), ("x", "hx"), "hx", 0)
        rep = check_ainf_relations(cat, 3)
        if rep["passed"]:
            cl = classify_unitality(cat)
            assert cl["per_object"]["X"] in ("unital (witnessed)", "strict")

    def test_non_unital(self):
        ring = F2
        homs = {("X", "X"): GradedModule.from_generators(ring, [("x", 0)])}
        cat = AInfCategory(ring, ["X"], homs, {})
        cl = classify_unitality(cat)
        assert cl["per_object"]["X"] == "non-unital"


class TestHCategory:
    def test_zero_differential_recovers_mu2_tables(self):
        cat = associative_algebra_cat(F2)
        h = cohomology_category(cat)
        assert h.class_count("X", "Y", 0) == 2
        assert h.verify_category_axioms()["passed"]

    def test_toyb_h_tables(self):
        env = canonical_envelope(build_toyb())
        h = cohomology_category(env)
        assert h.class_count("Lp", "K", 0) == 1
        assert h.class_count("L", "K", 0) == 1
        assert h.class_count("K", "L", 0) == 0
        # c . y = x on classes
        cy = h.compose("Lp", "L", "K", 0, h.project_dict("Lp", "L", 0, {"c": 1}),
                       0, h.project_dict("L", "K", 0, {"y": 1}))
        assert cy == h.project_dict("Lp", "K", 0, {"x": 1})
        assert h.verify_category_axioms()["passed"]

    def test_relation_failure_raised(self):
        env = canonical_envelope(build_toyb())
        env.set_op_entry(("Lp", "L", "K"), ("c", "y"), "x", 0)
        with pytest.raises(RelationFailure):
            cohomology_category(env)


class TestQuasiEquivalence:
    def test_identity_functor(self):
        env = canonical_envelope(build_toyb())
        F = NaiveFunctor.inclusion(env, env)
        rep = check_quasi_equivalence(F)
        assert rep["passed"]

    def test_inclusion_of_isomorphic_pair(self):
        ring = F2
        homs = {
            ("A", "A"): GradedModule.from_generators(ring, [("1a", 0)]),
            ("B", "B"): GradedModule.from_generators(ring, [("1b", 0)]),
            ("A", "B"): GradedModule.from_generators(ring, [("u", 0)]),
            ("B", "A"): GradedModule.from_generators(ring, [("v", 0)]),
        }
        cat = AInfCategory(ring, ["A", "B"], homs,
                           {"A": {"1a": 1}, "B": {"1b": 1}})
        cat.add_op_entry(("A", "B", "A"), ("u", "v"), "1a", 1)
        cat.add_op_entry(("B", "A", "B"), ("v", "u"), "1b", 1)
        cat.add_unit_entries()
        assert check_ainf_relations(cat, 3)["passed"]
        sub_homs = {("A", "A"): homs[("A", "A")]}
        sub = AInfCategory(ring, ["A"], sub_homs, {"A": {"1a": 1}})
        sub.add_unit_entries()
        F = NaiveFunctor.inclusion(sub, cat)
        rep = check_quasi_equivalence(F)
        assert rep["passed"]
        assert rep["witnesses"]["B"]["object"] == "A"

    def test_missing_object_fails_with_name(self):
        env = canonical_envelope(build_toyb())
        sub_homs = {("L", "L"): env.hom("L", "L")}
        sub = AInfCategory(F2, ["L"], sub_homs, {"L": env.unit_of("L")})
        sub.add_unit_entries()
        F = NaiveFunctor.inclusion(sub, env)
        rep = check_quasi_equivalence(F)
        assert not rep["essentially_surjective"]
        failed = {f["object"] for f in rep["ess_failures"]}
        # K and Kp have no continuation into the L-family, hence no witness
        assert "K" in failed and "Kp" in failed

    def test_invalid_functor_raises(self):
        env = canonical_envelope(build_toyb())
        F = NaiveFunctor.inclusion(env, env)
        bad = dict(F.hom_maps)
        from wrapcat.linalg import GradedMap
        bad[("Lp", "L")] = GradedMap.zero(env.hom("Lp", "L"), env.hom("Lp", "L"))
        G = NaiveFunctor(env, env, F.object_map, bad)
        with pytest.raises(InvalidFunctor):
            G.validate()
