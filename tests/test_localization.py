import random

import pytest

from fixture_builders import build_toyb, build_toyc, build_ore_break
from oracles import random_path_instance, zigzag_localization_ranks
from pathcat_support import instance_to_category, wrap_cset
from wrapcat.ainf import AInfCategory, cohomology_category
from wrapcat.errors import SystemInvalid
from wrapcat.floer import canonical_envelope
from wrapcat.linalg import GradedModule
from wrapcat.localization import (CSet, check_right_multiplicative_system,
                                  gz_localize, ore_complete)
from wrapcat.rings import CoefficientRing
from wrapcat.wrap import continuation_cset

F2 = CoefficientRing.prime_field(2)


def toyb_data():
    s = build_toyb()
    env = canonical_envelope(s)
    h = cohomology_category(env, check_arity=0)
    return s, env, h, continuation_cset(s, h)


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
        h = cohomology_category(env, check_arity=0)
        classes = [(a, b, h.project_dict(a, b, 0, combo))
                   for (a, b, combo) in s.continuation if "c01" not in combo]
        cset = CSet(h, classes)
        rep = check_right_multiplicative_system(h, cset)
        assert not rep["passed"]
        assert rep["failures"]["ii"], "missing composite must be reported"

    def test_ore_square_failure_witness(self):
        s = build_ore_break()
        env = canonical_envelope(s)
        h = cohomology_category(env, check_arity=0)
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


class TestFractionCategory:
    def test_identities_only_recovers_h(self):
        s, env, h, _ = toyb_data()
        frac = gz_localize(h, CSet(h, []))
        for a in env.objects:
            for b in env.objects:
                assert frac.rank_map(a, b) == \
                    {d: h.pres(a, b).rank(d) for d in h.pres(a, b).degrees()
                     if h.pres(a, b).rank(d)}

    def test_one_arrow_category(self):
        homs = {("A", "A"): GradedModule.from_generators(F2, [("1A", 0)]),
                ("B", "B"): GradedModule.from_generators(F2, [("1B", 0)]),
                ("A", "B"): GradedModule.from_generators(F2, [("c", 0)])}
        cat = AInfCategory(F2, ["A", "B"], homs, {"A": {"1A": 1}, "B": {"1B": 1}})
        cat.add_unit_entries()
        h = cohomology_category(cat)
        cset = CSet(h, [("A", "B", h.project_dict("A", "B", 0, {"c": 1}))])
        assert check_right_multiplicative_system(h, cset)["passed"]
        frac = gz_localize(h, cset)
        for pair in (("A", "A"), ("A", "B"), ("B", "A"), ("B", "B")):
            assert frac.class_count(*pair, 0) == 1
        c = [x for x in cset if not cset.is_identity(x)][0]
        assert frac.check_inverts(c)["passed"]

    def test_toyb_hw_rank_one(self):
        s, env, h, cset = toyb_data()
        frac = gz_localize(h, cset)
        assert frac.class_count("L", "K", 0) == 1
        assert frac.verify_axioms()["passed"]
        for c in cset:
            if not cset.is_identity(c):
                assert frac.check_inverts(c)["passed"]

    def test_invalid_system_raises(self):
        s = build_ore_break()
        env = canonical_envelope(s)
        h = cohomology_category(env, check_arity=0)
        cset = continuation_cset(s, h)
        with pytest.raises(SystemInvalid):
            gz_localize(h, cset)

    def test_roof_independence_exhaustive(self):
        # recompute one composition across every admissible Ore square and
        # every solution of the completion system; all answers must agree
        s, env, h, cset = toyb_data()
        frac = gz_localize(h, cset)
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
                denom = frac._compose_classes(cp, frac.slices[l].objects[t1])
                idx = frac._slice_index(l, denom)
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
                h = cohomology_category(cat, check_arity=0)
                cset = wrap_cset(inst, h)
                if not check_right_multiplicative_system(h, cset)["passed"]:
                    continue
                frac = gz_localize(h, cset)
                oracle = zigzag_localization_ranks(inst, max_word=6)
                for i, oi in enumerate(inst.objects):
                    for j, oj in enumerate(inst.objects):
                        assert frac.class_count(oi, oj, 0) == oracle.get((i, j), 0), \
                            (ring.token(), inst.edges, sorted(inst.wrap_edges), (i, j))
                valid += 1
            assert valid >= 20, ring.token()
