from collections import Counter
from itertools import permutations

import pytest

from fixture_builders import (build_dsq_break, build_micro2_break_beta,
                              build_micro2datum, build_toyb,
                              build_toyb_break_permutation, build_toyc,
                              build_toyc_chain, build_triples)
from oracles import unit_is_strict
from wrapcat.ainf import check_ainf_relations, cohomology_category
from wrapcat.errors import NoSection
from wrapcat.floer import (CompatibleCollection, FloerDataSystem,
                           WeakFloerSetup, canonical_envelope,
                           choose_compatible_collection, subsequences,
                           validate_setup)
from wrapcat.linalg import GradedModule
from wrapcat.rings import CoefficientRing

F2 = CoefficientRing.prime_field(2)
Q = CoefficientRing.rationals()


class TestValidation:
    def test_toyb_passes(self):
        rep = validate_setup(build_toyb())
        assert rep["passed"]

    def test_toyc_passes(self):
        assert validate_setup(build_toyc())["passed"]

    def test_micro2_full_profile_passes(self):
        rep = validate_setup(build_micro2datum())
        assert rep["passed"]
        assert rep["axioms"]["viii-homotopy-data"]["passed"]
        assert rep["axioms"]["ix-diagonal"]["passed"]

    def test_permutation_closure_failure_names_pair(self):
        # explicit tuples are checked one by one
        rep = validate_setup(build_toyb_break_permutation())
        assert not rep["passed"]
        assert rep["axioms"]["ii-composability"]["failures"] == [
            {"tuple": ["L", "K"], "missing-permutation": ["K", "L"]}]

    def test_dsq_break_fails_relations(self):
        rep = validate_setup(build_dsq_break())
        assert not rep["passed"]
        assert rep["axioms"]["vi-relations"]["failures"]

    def test_beta_break_fails(self):
        rep = validate_setup(build_micro2_break_beta())
        assert not rep["passed"]
        assert rep["axioms"]["viii-homotopy-data"]["failures"]

    def test_validation_monotone_on_subsetup(self):
        s = build_toyb()
        sub = WeakFloerSetup(
            s.ring, ["L", "Lp"], composable_mode="all-distinct", max_arity=1,
            cf={k: v for k, v in s.cf.items() if set(k) <= {"L", "Lp"}},
            profile="envelope",
            envelope_ops={},
            continuation=[c for c in s.continuation
                          if {c[0], c[1]} <= {"L", "Lp"}],
            name="toyb_sub")
        assert validate_setup(sub)["passed"]

    def test_strict_mode_notes_reinterpretation(self):
        rep = validate_setup(build_toyb(), mode="strict")
        assert any("finiteness" in n for n in rep.get("notes", []))

    def test_repeated_labels_keep_the_closure_check(self):
        # all-distinct tuples are closed by construction only over
        # distinct labels
        s = WeakFloerSetup(F2, ["A", "B", "A"], max_arity=2, name="repeated")
        assert failures(s, "ii-composability") == [
            {"tuple": ["A", "A"], "reason": "repeated Lagrangian"},
            {"tuple": ["A", "A", "B"], "reason": "repeated Lagrangian"},
            {"tuple": ["A", "B", "A"], "reason": "repeated Lagrangian"},
            {"tuple": ["B", "A", "A"], "reason": "repeated Lagrangian"}]

    @pytest.mark.parametrize("build", [build_toyb, build_toyc,
                                       build_micro2datum,
                                       lambda: build_toyc_chain(4)])
    def test_all_distinct_tuples_are_closed(self, build):
        # what lets validate_setup skip the closure loop in this mode
        s = build()
        assert s.composable_mode == "all-distinct"
        for k in s.composable:
            for t in s.composable[k]:
                assert len(set(t)) == len(t)
                assert all(sub in s.composable[len(sub) - 1]
                           for sub in subsequences(t))
                assert all(perm in s.composable[k] for perm in permutations(t))
        assert failures(s, "ii-composability") == []


class TestCompatibleCollections:
    def test_unique_collection_when_singleton(self):
        col = choose_compatible_collection(build_toyb())
        assert col.datum(("Lp", "L")) is None  # envelope profile: unique

    def test_lexicographic(self):
        m2 = build_micro2datum()
        assert choose_compatible_collection(m2).datum(("A", "B")) == "d1"

    def test_no_section_raises(self):
        m2 = build_micro2datum()
        m2.data_system.D[("B", "A")] = []
        with pytest.raises(NoSection):
            choose_compatible_collection(m2)


class TestCanonicalEnvelope:
    def test_hom_rules(self):
        env = canonical_envelope(build_toyb())
        assert env.hom("L", "L").rank(0) == 1
        mod = env.hom("L", "L")
        assert sum(mod.rank(d) for d in mod.degrees()) == 1
        assert env.hom("K", "L").is_zero()  # zero CF on a composable pair
        assert env.hom("L", "K").rank(0) == 1

    def test_envelope_strict_and_sound(self):
        for build in (build_toyb, build_toyc, build_micro2datum):
            env = canonical_envelope(build())
            assert check_ainf_relations(env, 4)["passed"]
            assert all(unit_is_strict(env, x) for x in env.objects)

    def test_toyb_h_composition(self):
        env = canonical_envelope(build_toyb())
        h = cohomology_category(env)
        got = h.compose("Lp", "L", "K", 0,
                        h.project_dict("Lp", "L", 0, {"c": 1}),
                        0, h.project_dict("L", "K", 0, {"y": 1}))
        assert got == h.project_dict("Lp", "K", 0, {"x": 1})


def failures(s, axiom):
    return validate_setup(s)["axioms"][axiom]["failures"]


class TestIndependenceAxioms:
    """Envelope independence follows from axioms (vii)-(ix): breaking one of
    them fails validation, and on micro2datum the other datum of (A, B)
    gives the same cohomology."""

    def test_other_collection_gives_isomorphic_h(self):
        m2 = build_micro2datum()
        col1 = choose_compatible_collection(m2)
        col2 = CompatibleCollection({**col1.delta, ("A", "B"): "d2"})
        h1 = cohomology_category(canonical_envelope(m2, col1))
        h2 = cohomology_category(canonical_envelope(m2, col2))
        for a in m2.lagrangians:
            for b in m2.lagrangians:
                assert ({d: h1.class_count(a, b, d) for d in (-1, 0, 1, 2)}
                        == {d: h2.class_count(a, b, d) for d in (-1, 0, 1, 2)})
        assert h1.class_count("A", "B", 0) == 1
        assert h1.class_count("A", "B", 1) == 0
        # the swap alpha a12 sends the class of q under d1 to that of p
        # under d2, both nonzero
        zero = (m2.ring.zero(),)
        assert h1.project_dict("A", "B", 0, {"q": 1}) != zero
        assert h2.project_dict("A", "B", 0, {"p": 1}) != zero

    def test_missing_structure_datum_fails_vii(self):
        m2 = build_micro2datum()
        ds = m2.data_system
        ds.Dprime[("A", "B")] = [x for x in ds.Dprime[("A", "B")]
                                 if x[0] != "a12"]
        ds.Dsecond[("A", "B")] = [x for x in ds.Dsecond[("A", "B")]
                                  if "a12" not in x[1]]
        assert failures(m2, "vii-structure-surjectivity") == [
            {"pair": ["A", "B"], "missing-Dprime-over": ["d1", "d2"]}]

    def test_alpha_that_is_no_chain_map_fails_viii(self):
        m2 = build_micro2datum()
        one = m2.ring.one()
        m2.data_system.alpha[(("A", "B"), "a12")] = [
            ("p", "p", one), ("q", "q", one), ("r", "r", one)]
        assert {"pair": ["A", "B"], "alpha": "a12",
                "defect": "alpha fails to intertwine the differentials"} in (
            failures(m2, "viii-homotopy-data"))

    def test_f_off_the_diagonal_fails_ix(self):
        m2 = build_micro2datum()
        m2.data_system.f[("A", "B")]["d1"] = "a12"
        reasons = {f["reason"] for f in failures(m2, "ix-diagonal")}
        assert reasons == {"f does not hit the diagonal",
                           "alpha over f(datum) is not the identity"}

    def test_alpha_over_f_not_the_identity_fails_ix(self):
        m2 = build_micro2datum()
        two = m2.ring.parse_scalar("2")
        m2.data_system.alpha[(("A", "B"), "a11")] = [
            ("p", "p", two), ("q", "q", two), ("r", "r", two)]
        assert failures(m2, "ix-diagonal") == [
            {"pair": ["A", "B"], "datum": "d1",
             "reason": "alpha over f(datum) is not the identity"}]


class TestFullProfileTriples:
    """Axioms (v) and (viii) on setups with composable triples."""

    def test_mixed_families_have_no_section_witness(self):
        # each triple's pairs carry p0 or p1: 8 families, of which only
        # the all-p0 and all-p1 ones have a witness
        fails = failures(build_triples(), "v-contractibility")
        assert {f["reason"] for f in fails} == {"no section witness"}
        assert Counter(tuple(f["tuple"]) for f in fails) == {
            t: 6 for t in permutations("ABC")}

    def test_one_datum_per_pair_is_contractible(self):
        assert failures(build_triples(1), "v-contractibility") == []

    @staticmethod
    def gamma_setup(mu2_of_t1=True):
        """CF(A,B) = <x>, CF(B,C) = <y>, CF(A,C) = <z> in degree 0 over Q,
        (A, B, C) the one composable triple, with data t0 and t1 whose mu^2
        sends (x, y) to z, and one Dthird element over the pair (A, B):
        gamma g0 = 0 between t0 and t1, through an identity alpha a."""
        one = Q.one()
        mu2 = [(("x", "y"), "z", one)]
        cf = {pair: GradedModule.from_generators(Q, [(gen, 0)])
              for pair, gen in [(("A", "B"), "x"), (("B", "C"), "y"),
                                (("A", "C"), "z")]}
        ds = FloerDataSystem(
            D={("A", "B", "C"): ["t0", "t1"]},
            mu={(("A", "B", "C"), "t0"): mu2,
                (("A", "B", "C"), "t1"): mu2 if mu2_of_t1 else []},
            alpha={(("A", "B"), "a"): [("x", "x", one)]},
            Dthird={(("A", "B", "C"), 0): [("g0", "t0", "t1", "a")]})
        return WeakFloerSetup(
            Q, ["A", "B", "C"], composable_mode="explicit", max_arity=2,
            composable_tuples={1: list(cf), 2: [("A", "B", "C")]}, cf=cf,
            profile="full", data_system=ds, name="gamma")

    def test_zero_gamma_between_equal_mu2_passes_viii(self):
        assert failures(self.gamma_setup(), "viii-homotopy-data") == []

    def test_zero_gamma_against_a_missing_mu2_fails_viii(self):
        assert failures(self.gamma_setup(mu2_of_t1=False),
                        "viii-homotopy-data") == [
            {"triple": ["A", "B", "C"], "i": 0, "gamma": "g0",
             "defect": "gamma identity fails on (x,y)"}]

    @staticmethod
    def homotopy_setup(slot, mu2_of_t0):
        """CF(A,B) = <x0, x1>, CF(B,C) = <y0, y1>, CF(A,C) = <z0, z1> over Q
        (subscript = degree) with differentials x0 -> x1, y0 -> y1, z0 -> z1
        from t0's restrictions p; t1's mu^2 sends (x0, y0) to z0, and the
        Dthird element in ``slot`` joins t0 to t1 through alpha a = slot + 2
        times the identity of the slot's pair and gamma g0 of degree -1:
        (x1, y0) -> 2 z0, (x0, y1) -> 3 z0, (x1, y1) -> 5 z1.  Axiom (viii)
        asks for every basis pair (x, y), with mu, mu' the mu^2 of t0, t1,

            d g0(x, y) + g0(dx, y) + (-1)^|x| g0(x, dy)
                = mu(x, y) - [mu'(ax, y) | mu'(x, ay) | a mu'(x, y)]."""
        q = Q.normalize
        triple = ("A", "B", "C")
        cf = {pair: GradedModule.from_generators(Q, [(f"{g}0", 0), (f"{g}1", 1)])
              for pair, g in [(("A", "B"), "x"), (("B", "C"), "y"),
                              (("A", "C"), "z")]}
        pair_of = list(cf)[slot]
        ds = FloerDataSystem(
            D={triple: ["t0", "t1"]},
            restrictions={(triple, pair): {"t0": "p"} for pair in cf},
            mu={(triple, "t0"): [(xy, z, q(v)) for xy, z, v in mu2_of_t0],
                (triple, "t1"): [(("x0", "y0"), "z0", q(1))],
                **{(pair, "p"): [((f"{g}0",), f"{g}1", q(1))]
                   for pair, g in zip(cf, "xyz")}},
            alpha={(pair_of, "a"): [(lab, lab, q(slot + 2))
                                    for lab in cf[pair_of].labels(0)
                                    + cf[pair_of].labels(1)]},
            Dthird={(triple, slot): [("g0", "t0", "t1", "a")]},
            gamma={(triple, slot, "g0"): [(("x1", "y0"), "z0", q(2)),
                                          (("x0", "y1"), "z0", q(3)),
                                          (("x1", "y1"), "z1", q(5))]})
        return WeakFloerSetup(
            Q, ["A", "B", "C"], composable_mode="explicit", max_arity=2,
            composable_tuples={1: list(cf), 2: [triple]}, cf=cf,
            profile="full", data_system=ds, name="homotopy")

    # The left side on (x0, y0), (x0, y1), (x1, y0), (x1, y1) is
    # 0 + 2 z0 + 3 z0 = 5 z0, 3 z1 + 5 z1 + 0 = 8 z1, 2 z1 + 0 - 5 z1 = -3 z1
    # and 0; the alpha-twisted mu' is (slot + 2) z0 on (x0, y0), 0 elsewhere.
    @pytest.mark.parametrize("slot", [0, 1, 2])
    def test_gamma_with_differentials_passes_viii(self, slot):
        mu2 = [(("x0", "y0"), "z0", 5 + slot + 2), (("x0", "y1"), "z1", 8),
               (("x1", "y0"), "z1", -3)]
        assert failures(self.homotopy_setup(slot, mu2),
                        "viii-homotopy-data") == []

    def test_gamma_without_the_koszul_sign_fails_viii(self):
        # read without (-1)^|x|, the left side on (x1, y0) is 2 z1 + 5 z1
        mu2 = [(("x0", "y0"), "z0", 7), (("x0", "y1"), "z1", 8),
               (("x1", "y0"), "z1", 7)]
        assert failures(self.homotopy_setup(0, mu2),
                        "viii-homotopy-data") == [
            {"triple": ["A", "B", "C"], "i": 0, "gamma": "g0",
             "defect": "gamma identity fails on (x1,y0)"}]
