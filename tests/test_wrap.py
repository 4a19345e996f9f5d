import pytest

from fixture_builders import build_toyb, build_toyc
from wrapcat import localization
from wrapcat.ainf import cohomology_category
from wrapcat.cli import cmd_compute
from wrapcat.errors import NonCofinalPrefix
from wrapcat.floer import WeakFloerSetup, canonical_envelope, validate_setup
from wrapcat.linalg import GradedModule
from wrapcat.localization import CSet, SliceCategory
from wrapcat.rings import CoefficientRing
from wrapcat.wrap import (certified_tail, check_localization_agreement,
                          continuation_cset, generating_subset,
                          validate_continuation_system, wrapped_df_category)

F2 = CoefficientRing.prime_field(2)


def prepare(build):
    s = build()
    env = canonical_envelope(s)
    h = cohomology_category(env)
    return s, env, h, continuation_cset(s, h)


class TestContinuationValidation:
    def test_toyb_strict_fails_v_at_outermost(self):
        s, env, h, cset = prepare(build_toyb)
        rep = validate_continuation_system(s, h, cset, "strict")
        assert not rep["passed"]
        failed = {f["object"] for f in rep["conditions"]["v"]["failures"]}
        assert failed == {"Lp", "Kp"}
        for key in ("i", "ii", "iii", "iv", "vi"):
            assert rep["conditions"][key]["passed"]

    def test_toyb_finite_waives(self):
        s, env, h, cset = prepare(build_toyb)
        rep = validate_continuation_system(s, h, cset, "finite")
        assert rep["passed"]
        assert len(rep["waivers"]) == 2

    # L0's chain cut at L1 is no certificate, the chain for which hw reports
    # NotStabilized (TestWrappedDF); a hint through K is refused outright
    @pytest.mark.parametrize("hint,reason", [
        (["L0", "L1"], "no finite cofinal chain"),
        (["L0", "K"], "no continuation class K -> L0 in the data")])
    def test_vi_reads_the_hinted_chain(self, hint, reason):
        s = build_toyc()
        s.wrap_chains["L0"] = hint
        _, _, h, cset = prepare(lambda: s)
        vi = validate_continuation_system(s, h, cset)["conditions"]["vi"]
        assert vi["failures"] == [{"object": "L0", "reason": reason}]

    def test_toyc_strict_v_fails_at_top(self):
        s, env, h, cset = prepare(build_toyc)
        rep = validate_continuation_system(s, h, cset, "strict")
        assert not rep["passed"]
        failed = {f["object"] for f in rep["conditions"]["v"]["failures"]}
        assert "L3" in failed

    def test_missing_composite_fails_ii(self):
        s, env, h, _ = prepare(build_toyc)
        classes = [(a, b, h.project_dict(a, b, 0, combo))
                   for (a, b, combo) in s.continuation if "c01" not in combo]
        cset = CSet(h, classes)
        rep = validate_continuation_system(s, h, cset, "finite")
        assert not rep["passed"]
        assert rep["conditions"]["ii"]["failures"]


class TestCertifiedTail:
    def test_identities_only_single_object(self):
        s, env, h, _ = prepare(build_toyb)
        sl = SliceCategory(h, CSet(h, []), "L")
        assert len(sl.objects) == 1
        assert certified_tail(sl) == (0, True)

    def test_toyb_slice_objects(self):
        s, env, h, cset = prepare(build_toyb)
        sl = SliceCategory(h, cset, "L")
        assert {c.src for c in sl.objects} == {"L", "Lp"}
        t, certified = certified_tail(sl)
        assert (sl.objects[t].src, certified) == ("Lp", True)

    def test_toyc_chain_linear(self):
        s, env, h, cset = prepare(build_toyc)
        sl = SliceCategory(h, cset, "L0")
        t, certified = certified_tail(sl, s.wrap_chains["L0"])
        assert (sl.objects[t].src, certified) == ("L3", True)

    def test_hint_without_a_class_is_refused(self):
        s, env, h, cset = prepare(build_toyc)
        with pytest.raises(NonCofinalPrefix,
                           match="no continuation class K -> L0 in the data"):
            certified_tail(SliceCategory(h, cset, "L0"), ["L0", "K"])

    def test_hw_builds_one_slice_per_object(self, monkeypatch):
        built = []
        init = SliceCategory.__init__

        def counted(self, hcat, cset, obj):
            built.append(obj)
            init(self, hcat, cset, obj)
        monkeypatch.setattr(localization.SliceCategory, "__init__", counted)
        s = build_toyc()
        assert cmd_compute(s, what="hw").passed
        assert sorted(built) == sorted(s.lagrangians)

    def test_hw_modules(self):
        s, env, h, cset = prepare(build_toyb)
        assert wrapped_df_category(s, h, cset).hw_rank_map("L", "K")[0] == 1
        s2, env2, h2, cset2 = prepare(build_toyc)
        wdf2 = wrapped_df_category(s2, h2, cset2)
        assert wdf2.hw_rank_map("L0", "K")[0] == 2

    def test_identities_only_hw_equals_hf(self):
        s, env, h, _ = prepare(build_toyb)
        wdf = wrapped_df_category(s, h, CSet(h, []))
        for a in env.objects:
            for b in env.objects:
                assert wdf.hw_rank_map(a, b) == \
                    {d: h.pres(a, b).rank(d) for d in h.pres(a, b).degrees()
                     if h.pres(a, b).rank(d)}


class TestWrappedDF:
    def test_toyb_table_and_axioms(self):
        s, env, h, cset = prepare(build_toyb)
        wdf = wrapped_df_category(s, h, cset)
        for a in env.objects:
            for b in env.objects:
                ranks = wdf.hw_rank_map(a, b)
                assert set(ranks.values()) <= {1}
        assert wdf.hw_rank_map("L", "K") == {0: 1}
        assert wdf.hw_rank_map("K", "L") == {}
        assert wdf.verify_category_axioms()["passed"]
        assert wdf.check_right_locality()["passed"]
        assert wdf.check_canonical_functor()["passed"]

    def test_toyc_right_locality_on_stabilized(self):
        # L0's chain L0 <- L1 <- L2 <- L3 is cofinal, so every pair is
        # certified, (L0, L3) included, and right locality holds on all
        s, env, h, cset = prepare(build_toyc)
        wdf = wrapped_df_category(s, h, cset)
        assert all(wdf.stabilization.values())
        assert wdf.stabilized("L0", "L3")
        assert wdf.check_right_locality()["passed"]

    def test_not_stabilized_error(self):
        # cut L0's chain at L1: L2 and L3 do not map to that tail, so the
        # chain is no certificate and every (L0, k) is left unstabilized
        s = build_toyc()
        s.wrap_chains["L0"] = ["L0", "L1"]
        rep = cmd_compute(s, what="hw")
        assert not rep.passed
        sections = rep.doc["sections"]
        assert sections["error"] == "NotStabilized"
        assert sections["unstabilized_pairs"] == sorted(
            str(("L0", k)) for k in s.lagrangians)

    def test_class_that_dies_after_wrapping_breaks_right_locality(self):
        # cp: L -> Lp dies after wrapping into Kp, so post-composition with
        # it is no bijection out of L: the localization refuses the class
        s, env, h, _ = prepare(build_toyb)
        classes = [(a, b, h.project_dict(a, b, 0, combo))
                   for (a, b, combo) in s.continuation]
        classes.append(("L", "Lp", h.project_dict("L", "Lp", 0, {"cp": 1})))
        wdf = wrapped_df_category(s, h, CSet(h, classes))
        loc = wdf.check_right_locality()
        assert not loc["passed"]
        assert {"class": "ContClass(L->Lp, [1])", "object": "L",
                "degree": 0} in loc["failures"]

    def test_generating_subset(self):
        s, env, h, cset = prepare(build_toyc)
        gens = {(c.src, c.tgt) for c in generating_subset(cset)}
        assert gens == {("L1", "L0"), ("L2", "L1"), ("L3", "L2")}


def extend_toyb_with_disjoint_pair():
    s = build_toyb()
    ring = s.ring
    cf = dict(s.cf)
    cf[("Np", "N")] = GradedModule.from_generators(ring, [("en", 0)])
    return WeakFloerSetup(ring, list(s.lagrangians) + ["N", "Np"],
                          composable_mode="all-distinct", max_arity=3, cf=cf,
                          profile="envelope", envelope_ops=dict(s.envelope_ops),
                          continuation=list(s.continuation)
                          + [("Np", "N", {"en": ring.one()})],
                          name="toyb_ext")


class TestDisjointExtension:
    def test_wrapped_homs_of_toyb_are_unchanged(self):
        # adjoining a pair with no CF to or from toyb's objects leaves every
        # HW among those objects as it was, and adds none across the two
        t = extend_toyb_with_disjoint_pair()
        assert validate_setup(t)["passed"]
        s, _, h, cset = prepare(build_toyb)
        _, _, th, tcset = prepare(lambda: t)
        wdf = wrapped_df_category(s, h, cset)
        twdf = wrapped_df_category(t, th, tcset)
        for a in s.lagrangians:
            for b in s.lagrangians:
                assert twdf.hw_rank_map(a, b) == wdf.hw_rank_map(a, b)
            for n in ("N", "Np"):
                assert twdf.hw_rank_map(a, n) == twdf.hw_rank_map(n, a) == {}
        assert twdf.hw_rank_map("Np", "N") == {0: 1}
        assert twdf.verify_category_axioms()["passed"]


class TestAgreement:
    def test_toyb(self):
        s, env, h, cset = prepare(build_toyb)
        wdf = wrapped_df_category(s, h, cset)
        ag = check_localization_agreement(env, h, cset, wdf)
        assert ag["passed"]
        assert all(r["agree"] for r in ag["pairs"] if r["agree"] is not None)
        assert all(r["kernels_match"] for r in ag["comparison_maps"])

    def test_toyc(self):
        s, env, h, cset = prepare(build_toyc)
        wdf = wrapped_df_category(s, h, cset)
        ag = check_localization_agreement(env, h, cset, wdf)
        assert ag["passed"]
        compared = [r for r in ag["pairs"] if r["agree"] is not None]
        assert len(compared) >= 24

    def test_kernels_are_compared_as_subspaces(self, monkeypatch):
        # over F2 the quotient of toyc kills no class of H^0(L3, K), of rank
        # 2; a gamma that sends both basis classes u1, u2 to one class kills
        # u1 + u2 alone, which no test on basis classes sees
        s, env, h, cset = prepare(build_toyc)
        wdf = wrapped_df_category(s, h, cset)
        gamma = wdf.frac.gamma

        def merged(l, k, d, coords):
            if (l, k, d) == ("L3", "K", 0):
                return (sum(coords) % 2, 0)
            return gamma(l, k, d, coords)
        monkeypatch.setattr(wdf.frac, "gamma", merged)
        ag = check_localization_agreement(env, h, cset, wdf)
        assert not ag["passed"]
        assert [r["pair"] for r in ag["comparison_maps"]
                if not r["kernels_match"]] == [["L3", "K"]]
