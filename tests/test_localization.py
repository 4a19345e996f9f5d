import random
from collections import Counter

import pytest

from fixture_builders import build_toyb, build_toyc, build_ore_break
from oracles import random_path_instance, zigzag_localization_ranks
from pathcat_support import instance_to_category, wrap_cset
from wrapcat import localization
from wrapcat.ainf import AInfCategory, cohomology_category
from wrapcat.floer import canonical_envelope
from wrapcat.linalg import GradedMap, GradedModule
from wrapcat.localization import (CSet, FractionCategory,
                                  check_right_multiplicative_system,
                                  ore_complete)
from wrapcat.rings import CoefficientRing
from wrapcat.wrap import continuation_cset

F2 = CoefficientRing.prime_field(2)


def toyb_data():
    s = build_toyb()
    env = canonical_envelope(s)
    h = cohomology_category(env)
    return s, env, h, continuation_cset(s, h)


def toyc_fractions():
    s = build_toyc()
    h = cohomology_category(canonical_envelope(s))
    return FractionCategory(h, continuation_cset(s, h))


class TestMultiplicativeSystem:
    def test_identities_only_pass(self):
        s, env, h, _ = toyb_data()
        cset = CSet(h, [])
        rep = check_right_multiplicative_system(h, cset)
        assert rep["passed"]

    def test_toyb_system_passes(self):
        s, env, h, cset = toyb_data()
        rep = check_right_multiplicative_system(h, cset)
        assert rep["passed"] and not rep["warnings"]

    def test_closure_failure_named(self):
        s = build_toyc()
        env = canonical_envelope(s)
        h = cohomology_category(env)
        classes = [(a, b, h.project_dict(a, b, 0, combo))
                   for (a, b, combo) in s.continuation if "c01" not in combo]
        cset = CSet(h, classes)
        rep = check_right_multiplicative_system(h, cset)
        assert not rep["passed"]
        assert rep["failures"]["ii"], "missing composite must be reported"

    def test_ore_square_failure_witness(self):
        s = build_ore_break()
        env = canonical_envelope(s)
        h = cohomology_category(env)
        cset = continuation_cset(s, h)
        rep = check_right_multiplicative_system(h, cset)
        assert not rep["passed"]
        assert rep["failures"]["iii"]

    def test_ore_completion_deterministic(self):
        s, env, h, cset = toyb_data()
        c = [x for x in cset if x.src == "Lp" and x.tgt == "L"][0]
        g = h.project_dict("L", "L", 0, env.unit_of("L"))
        cp1, gw1 = ore_complete(h, cset, c, "L", 0, g)
        cp2, gw2 = ore_complete(h, cset, c, "L", 0, g)
        assert cp1 == cp2 and gw1 == gw2 and cp1 is not None


def three_line_category(ring, classes=3):
    """Post-composition with c: K -> Kp kills H(L, K) = span(a, b), and each
    class c_i: L_i -> L kills one line of it under precomposition: c_1 the
    line of a, c_2 the line of b, c_3 the line of a + b.  A nilpotent n_i on
    L_i kills z_i = u.c_i, so (iv) holds at every L_i.  The continuation
    set holds c, every n_i and the first ``classes`` of the c_i."""
    gens = {("K", "Kp"): ["c"], ("L", "K"): ["a", "b"]}
    units = {x: {f"1{x}": 1} for x in ("K", "Kp", "L", "L1", "L2", "L3")}
    for i in (1, 2, 3):
        li = f"L{i}"
        gens[(li, "L")] = [f"c{i}"]
        gens[(li, "K")] = [f"z{i}"]
        gens[(li, li)] = [f"1{li}", f"n{i}"]
    homs = {pair: GradedModule.from_generators(ring, [(g, 0) for g in names])
            for pair, names in gens.items()}
    for x in ("K", "Kp", "L"):
        homs[(x, x)] = GradedModule.from_generators(ring, [(f"1{x}", 0)])
    cat = AInfCategory(ring, list(units), homs, units)
    cat.add_unit_entries()
    for i, kills in ((1, "a"), (2, "b"), (3, None)):
        li = f"L{i}"
        for u in ("a", "b"):
            if u != kills:
                cat.add_op_entry((li, "L", "K"), (f"c{i}", u), f"z{i}", 1)
    h = cohomology_category(cat)

    def cls(src, tgt, label):
        return (src, tgt, h.project_dict(src, tgt, 0, {label: 1}))
    cset = CSet(h, [cls("K", "Kp", "c")]
                + [cls(f"L{i}", f"L{i}", f"n{i}") for i in (1, 2, 3)]
                + [cls(f"L{i}", "L", f"c{i}") for i in range(1, classes + 1)])
    return h, cset


class TestCoveringConditions:
    """Conditions (iii) and (iv) ask whether a span lies in the union of
    subspaces, one per continuation class into the test object."""

    def test_ore_break_pins_the_first_uncovered_g(self):
        s = build_ore_break()
        h = cohomology_category(canonical_envelope(s))
        rep = check_right_multiplicative_system(h, continuation_cset(s, h))
        assert rep["failures"]["iii"] == [{"class": "ContClass(Y->Z, [1])",
                                           "object": "X", "degree": 0,
                                           "witness": {"g": ["1 mod 2"]}}]
        assert not rep["failures"]["iv"]

    def test_union_of_lines_covers_by_enumeration(self):
        h, cset = three_line_category(F2)
        c = [x for x in cset if x.tgt == "Kp"][0]
        post = h.postcompose_matrix("L", "K", "Kp", 0, c.coords, 0)
        U = post.kernel_basis()
        assert len(U) == 2
        # no single class kills the kernel ...
        for cp in cset.with_target("L"):
            pre = h.precompose_matrix(cp.src, "L", "K", 0, cp.coords, 0)
            assert any(any(x != 0 for x in pre.apply(u)) for u in U)
        # ... but the three lines cover F2^2, so the system holds
        rep = check_right_multiplicative_system(h, cset)
        assert rep["passed"], rep["failures"]

    def test_two_lines_leave_a_difference_uncovered(self):
        h, cset = three_line_category(F2, classes=2)
        rep = check_right_multiplicative_system(h, cset)
        assert rep["failures"]["iv"] == [
            {"class": "ContClass(K->Kp, [1])", "object": "L", "degree": 0,
             "witness": {"difference": ["1 mod 2", "1 mod 2"]}}]
        assert not rep["failures"]["iii"]

    def test_over_q_an_uncovered_kernel_ends_in_the_reason(self):
        h, cset = three_line_category(CoefficientRing.rationals())
        c = [x for x in cset if x.tgt == "Kp"][0]
        rep = check_right_multiplicative_system(h, cset)
        assert rep["failures"]["iv"] == [
            {"class": repr(c), "object": "L", "degree": 0,
             "witness": {"reason": "no single class kills the equalizer "
                                   "kernel"}}]

    @pytest.mark.parametrize("ring", [F2, CoefficientRing.rationals()],
                             ids=["F2", "Q"])
    def test_empty_kernel_passes(self, ring):
        # post-composition with c: A -> B is injective on H(A, A) and on
        # H(X, A), so (iv) holds at X although X has no unit and so no
        # class into it
        homs = {("A", "A"): GradedModule.from_generators(ring, [("1A", 0)]),
                ("B", "B"): GradedModule.from_generators(ring, [("1B", 0)]),
                ("A", "B"): GradedModule.from_generators(ring, [("c", 0)]),
                ("X", "A"): GradedModule.from_generators(ring, [("x", 0)]),
                ("X", "B"): GradedModule.from_generators(ring, [("y", 0)])}
        cat = AInfCategory(ring, ["A", "B", "X"], homs,
                           {"A": {"1A": 1}, "B": {"1B": 1}})
        cat.add_unit_entries()
        cat.add_op_entry(("X", "A", "B"), ("x", "c"), "y", 1)
        h = cohomology_category(cat)
        cset = CSet(h, [("A", "B", h.project_dict("A", "B", 0, {"c": 1}))])
        rep = check_right_multiplicative_system(h, cset)
        assert rep["failures"]["i"] == [{"object": "X",
                                         "reason": "unit class missing"}]
        assert rep["failures"]["iv"] == []

class TestFractionCategory:
    def test_identities_only_recovers_h(self):
        s, env, h, _ = toyb_data()
        frac = FractionCategory(h, CSet(h, []))
        for a in env.objects:
            for b in env.objects:
                assert frac.rank_map(a, b) == h.pres(a, b).rank_map()

    @pytest.mark.parametrize("build", [build_toyb, build_toyc])
    def test_slice_colimits_join_the_h_presentations(self, build):
        # each colimit's objects are H's own presentations, the shared zero
        # one included: no module is built for a slice object
        s = build()
        h = cohomology_category(canonical_envelope(s))
        frac = FractionCategory(h, continuation_cset(s, h))
        for l in h.objects:
            for k in h.objects:
                colim = frac.colim(l, k)
                for i, c in enumerate(frac.slices[l].objects):
                    assert colim.objects[i] is h.pres(c.src, k)

    def test_postcomposition_iso_and_non_iso(self):
        # identities only: each localized hom is H itself, so post-composing
        # with c: Lp -> L is c o - on H(l, Lp) -> H(l, L)
        s, env, h, cset = toyb_data()
        c = [x for x in cset if x.src == "Lp" and x.tgt == "L"][0]
        frac = FractionCategory(h, CSet(h, []))
        assert frac.postcomposition("Lp", c).is_isomorphism()
        out_of_l = frac.postcomposition("L", c)
        for colim in (out_of_l.source, out_of_l.target):
            assert colim.rank_map() == {0: 1}
        assert out_of_l == GradedMap.zero(out_of_l.source, out_of_l.target)
        assert not out_of_l.is_isomorphism()

    def test_one_arrow_category(self):
        homs = {("A", "A"): GradedModule.from_generators(F2, [("1A", 0)]),
                ("B", "B"): GradedModule.from_generators(F2, [("1B", 0)]),
                ("A", "B"): GradedModule.from_generators(F2, [("c", 0)])}
        cat = AInfCategory(F2, ["A", "B"], homs, {"A": {"1A": 1}, "B": {"1B": 1}})
        cat.add_unit_entries()
        h = cohomology_category(cat)
        cset = CSet(h, [("A", "B", h.project_dict("A", "B", 0, {"c": 1}))])
        assert check_right_multiplicative_system(h, cset)["passed"]
        frac = FractionCategory(h, cset)
        for pair in (("A", "A"), ("A", "B"), ("B", "A"), ("B", "B")):
            assert frac.class_count(*pair, 0) == 1
        c = [x for x in cset if not cset.is_identity(x)][0]
        assert frac.check_inverts(c)

    def test_toyb_hw_rank_one(self):
        s, env, h, cset = toyb_data()
        frac = FractionCategory(h, cset)
        assert frac.class_count("L", "K", 0) == 1
        assert frac.verify_axioms()["passed"]
        for c in cset:
            if not cset.is_identity(c):
                assert frac.check_inverts(c)

    def test_memoized_composites_match_a_fresh_category(self):
        # every composite verify_axioms asks for on toyc, nested ones too,
        # recomputed on a category that has composed nothing before
        frac = toyc_fractions()
        assert frac.verify_axioms()["passed"]
        fresh = FractionCategory(frac.hcat, frac.cset)
        assert len(frac._composites) > 100
        for args, composite in frac._composites.items():
            assert fresh._compose(*args) == composite, args
        assert not fresh._composites

    def test_each_composite_reaches_the_ore_completion_once(self,
                                                            monkeypatch):
        # toyc's axiom check makes 1,762 compositions of 105 distinct
        # argument sets; solving an Ore square per call costs 1,239 solves
        frac = toyc_fractions()
        computed, ore_calls = Counter(), []
        compose, ore = FractionCategory._compose, localization.ore_complete

        def counted_compose(self, *args):
            computed[args] += 1
            return compose(self, *args)

        def counted_ore(*args):
            ore_calls.append(args)
            return ore(*args)
        monkeypatch.setattr(FractionCategory, "_compose", counted_compose)
        monkeypatch.setattr(localization, "ore_complete", counted_ore)
        assert frac.verify_axioms()["passed"]
        assert max(computed.values()) == 1
        assert 0 < len(ore_calls) <= len(computed)

    def test_invalid_system_raises(self):
        # the fraction category leaves the conditions to its caller: it
        # builds on ore_break, and the check the caller runs fails
        s = build_ore_break()
        env = canonical_envelope(s)
        h = cohomology_category(env)
        cset = continuation_cset(s, h)
        FractionCategory(h, cset)
        assert not check_right_multiplicative_system(h, cset)["passed"]

    def test_roof_independence_exhaustive(self):
        # recompute one composition across every admissible Ore square and
        # every solution of the completion system; all answers must agree
        s, env, h, cset = toyb_data()
        frac = FractionCategory(h, cset)
        ring = h.ring
        l, k, m = "L", "K", "Kp"
        d1 = d2 = 0
        u = frac.gamma(l, k, 0, h.project_dict(l, k, 0, {"y": 1}))
        v = frac.gamma(k, m, 0, h.project_dict(k, m, 0, {"dp": 1}))
        baseline = frac.compose(l, k, m, d1, u, d2, v)
        t1 = frac.tail_index(l)
        g = frac.represent_at(l, k, d1, u, t1)
        t_obj = frac.slices[l].objects[t1].src
        t2 = frac.tail_index(k)
        hrep = frac.represent_at(k, m, d2, v, t2)
        dcls = frac.slices[k].objects[t2]
        answers = set()
        for cp in cset.with_target(t_obj):
            Qm = h.postcompose_matrix(cp.src, dcls.src, dcls.tgt, 0,
                                      dcls.coords, d1)
            Pm = h.precompose_matrix(cp.src, t_obj, dcls.tgt, 0, cp.coords, d1)
            sol = Qm.solve(Pm.apply(g))
            if sol is None:
                continue
            for extra in [None] + Qm.kernel_basis():
                gw = list(sol)
                if extra is not None:
                    gw = [ring.add(a, b) for a, b in zip(gw, extra)]
                num = h.compose(cp.src, dcls.src, m, d1, tuple(gw), d2, hrep)
                idx = frac.slice_index(l, cset.compose(cp, frac.slices[l].objects[t1]))
                if idx is None:
                    continue
                answers.add(frac.colim(l, m).project(d1 + d2, idx, num))
        assert answers == {baseline}


class TestZigzagOracle:
    def test_twenty_random_instances(self):
        """The fraction calculus against the zigzag oracle over F2, F3 and Q;
        the oracle's ranks count classes of words, so they hold over every
        field."""
        for ring in (F2, CoefficientRing.prime_field(3), CoefficientRing.rationals()):
            rng = random.Random(42)
            valid = 0
            tried = 0
            while valid < 20 and tried < 300:
                tried += 1
                inst = random_path_instance(rng)
                if not inst.wrap_edges:
                    continue
                cat = instance_to_category(inst, ring)
                h = cohomology_category(cat)
                cset = wrap_cset(inst, h)
                if not check_right_multiplicative_system(h, cset)["passed"]:
                    continue
                frac = FractionCategory(h, cset)
                oracle = zigzag_localization_ranks(inst, max_word=6)
                for i, oi in enumerate(inst.objects):
                    for j, oj in enumerate(inst.objects):
                        assert frac.class_count(oi, oj, 0) == oracle.get((i, j), 0), \
                            (ring.token(), inst.edges, sorted(inst.wrap_edges), (i, j))
                valid += 1
            assert valid >= 20, ring.token()
