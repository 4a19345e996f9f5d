import pytest

from conv_fixtures_support import dg_path_cat
from fixture_builders import build_toyb, build_toyc
from wrapcat.ainf import AInfCategory, cohomology_category
from wrapcat.errors import HypothesisFailed, NotClosedRepresentative
from wrapcat.floer import canonical_envelope
from wrapcat.linalg import GradedModule
from wrapcat.localization import CSet, gz_localize
from wrapcat.quotient import BarQuotient, hom_via_wrapping_colimit, localize_by_cones
from wrapcat.rings import CoefficientRing
from wrapcat.wrap import continuation_cset, generating_subset

F2 = CoefficientRing.prime_field(2)


def one_arrow():
    homs = {("A", "A"): GradedModule.from_generators(F2, [("1A", 0)]),
            ("B", "B"): GradedModule.from_generators(F2, [("1B", 0)]),
            ("A", "B"): GradedModule.from_generators(F2, [("c", 0)])}
    cat = AInfCategory(F2, ["A", "B"], homs, {"A": {"1A": 1}, "B": {"1B": 1}})
    cat.add_unit_entries()
    return cat


class TestBarQuotient:
    def test_empty_w_preserves_h(self):
        env = canonical_envelope(build_toyb())
        h = cohomology_category(env, check_arity=0)
        quo, ext = localize_by_cones(env, h, [], depth=2, check_relations=False)
        for a in env.objects:
            for b in env.objects:
                assert quo.h_ranks(a, b) == \
                    {d: h.pres(a, b).rank(d) for d in h.pres(a, b).degrees()
                     if h.pres(a, b).rank(d)}

    def test_unit_class_cone_keeps_h0(self):
        env = canonical_envelope(build_toyb())
        h = cohomology_category(env, check_arity=0)
        W = [("L", "L", h.identity_coords["L"])]
        quo, ext = localize_by_cones(env, h, W, depth=2, check_relations=False)
        for a in env.objects:
            for b in env.objects:
                assert quo.h0_rank(a, b) == h.pres(a, b).rank(0)

    def test_one_arrow_quotient_matches_fraction(self):
        cat = one_arrow()
        h = cohomology_category(cat)
        W = [("A", "B", h.project_dict("A", "B", 0, {"c": 1}))]
        quo, ext = localize_by_cones(cat, h, W, depth=2, check_relations=False)
        cset = CSet(h, W)
        frac = gz_localize(h, cset)
        for a in cat.objects:
            for b in cat.objects:
                assert quo.h0_rank(a, b) == frac.class_count(a, b, 0) == 1

    def test_differential_squares_to_zero_over_Q(self):
        from wrapcat.ainf import cone
        cat = dg_path_cat()
        ext = cone(cat, "Cb", "o1", "o2", {"b": 1})
        bar = BarQuotient(ext, ["Cb"], "o0", "o3", 2)
        bar.complex.check()  # raises NotAComplex on failure

    def test_cross_oracle_toyb(self):
        s = build_toyb()
        env = canonical_envelope(s)
        h = cohomology_category(env, check_arity=0)
        cset = continuation_cset(s, h)
        frac = gz_localize(h, cset)
        W = [(c.src, c.tgt, c.coords) for c in generating_subset(h, cset)]
        quo, _ = localize_by_cones(env, h, W, depth=2, check_relations=False)
        for a in env.objects:
            for b in env.objects:
                assert quo.stabilized(a, b)
                assert quo.h0_rank(a, b) == frac.class_count(a, b, 0)

    def test_not_closed_representative(self):
        env = canonical_envelope(build_toyb())
        h = cohomology_category(env, check_arity=0)
        with pytest.raises(NotClosedRepresentative):
            localize_by_cones(env, h, [("L", "K", ())], depth=1,
                              check_relations=False)


class TestWrappingColimit:
    def test_constant_identity_chain(self):
        env = canonical_envelope(build_toyb())
        h = cohomology_category(env, check_arity=0)
        res = hom_via_wrapping_colimit(env, [], h, ["L", "L", "L"],
                                       [env.unit_of("L"), env.unit_of("L")], "K")
        assert res["stabilized"]
        assert res["cohomology"].rank(0) == h.pres("L", "K").rank(0)

    def test_toyc_telescope_rank_two(self):
        s = build_toyc()
        env = canonical_envelope(s)
        h = cohomology_category(env, check_arity=0)
        cset = continuation_cset(s, h)
        W = [(c.src, c.tgt, c.coords) for c in cset if not cset.is_identity(c)]
        res = hom_via_wrapping_colimit(env, W, h,
                                       ["L0", "L1", "L2", "L3"],
                                       [{"c0": 1}, {"c1": 1}, {"c2": 1}], "K")
        assert res["stabilized"] and res["hypothesis_ok"]
        assert res["cohomology"].rank(0) == 2

    def test_hypothesis_failure_named(self):
        s = build_toyb()
        env = canonical_envelope(s)
        h = cohomology_category(env, check_arity=0)
        # cp: L -> Lp dies after wrapping, so its colimit comparison is zero
        W = [("L", "Lp", h.project_dict("L", "Lp", 0, {"cp": 1}))]
        with pytest.raises(HypothesisFailed):
            hom_via_wrapping_colimit(env, W, h, ["L", "Lp"], [{"c": 1}], "Kp")

    def test_not_closed_chain_representative(self):
        cat = dg_path_cat()
        h = cohomology_category(cat, check_arity=0)
        # e lives in hom(o1, o2), so it is no element of hom(o2, o1)
        with pytest.raises(NotClosedRepresentative,
                           match=r"'e'.*\('o2', 'o1'\)"):
            hom_via_wrapping_colimit(cat, [], h, ["o1", "o2"],
                                     [{"e": 1}], "o3")
        # documented direction: e is in hom(o1, o2) but d(e) = f != 0
        with pytest.raises(NotClosedRepresentative, match="not closed"):
            hom_via_wrapping_colimit(cat, [], h, ["o2", "o1"],
                                     [{"e": 1}], "o3")
        # f is closed but of degree 1
        with pytest.raises(NotClosedRepresentative, match="'f'.*degree 1"):
            hom_via_wrapping_colimit(cat, [], h, ["o2", "o1"],
                                     [{"f": 1}], "o3")
