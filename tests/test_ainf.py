import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conv_fixtures_support import dg_path_cat, mu3_cat
from fixture_builders import (build_toyb, build_toyc, fixture_doc_over,
                              rational_fixture_doc)
from oracles import (nonzero_pairs, random_path_instance, reference_relations,
                     unit_is_strict, verify_category_axioms)
from pathcat_support import instance_to_category
from wrapcat import floer, setupfile
from wrapcat.ainf import (AInfCategory, check_ainf_relations,
                          cohomology_category, cone_of_class)
from wrapcat.errors import ShapeMismatch
from wrapcat.floer import canonical_envelope, validate_setup
from wrapcat.linalg import GradedModule
from wrapcat.matrices import Matrix
from wrapcat.rings import CoefficientRing
from wrapcat.setupfile import load_setup, setup_from_dict
from wrapcat.wrap import continuation_cset

F2 = CoefficientRing.prime_field(2)
F3 = CoefficientRing.prime_field(3)
Q = CoefficientRing.rationals()
FIXTURES = Path(setupfile.__file__).parent / "fixtures"


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


def random_case(ring, base, seed, n_mu3, with_cone, perturb):
    """A small category over ``ring`` for the relation check: a dg path
    category, the mu^3 category or a random path category (``base``), plus
    ``n_mu3`` random mu^3 entries on its chains, then, if asked, the cone
    over a random nonzero degree-0 class (``cone_of_class``) and a random
    mu^2 entry moved by one."""
    rng = random.Random(seed)
    if base == "path":
        cat = instance_to_category(
            random_path_instance(rng, max_objects=3, max_edges=4), ring)
    else:
        cat = {"dg": dg_path_cat, "mu3": mu3_cat}[base](ring)

    def labels(x, y):
        mod = cat.hom(x, y)
        return [lab for d in mod.degrees() for lab in mod.labels(d)]
    runs = [(a, b, c, d) for a in cat.objects for b in cat.objects
            for c in cat.objects for d in cat.objects
            if labels(a, b) and labels(b, c) and labels(c, d) and labels(a, d)]
    for _ in range(n_mu3 if runs else 0):
        chain = rng.choice(runs)
        cat.add_op_entry(chain, [rng.choice(labels(x, y))
                                 for x, y in zip(chain, chain[1:])],
                         rng.choice(labels(chain[0], chain[-1])),
                         rng.choice([1, 2, -1]))
    if with_cone:
        h = cohomology_category(cat)
        x, y = rng.choice([p for p in nonzero_pairs(h)
                           if h.class_count(*p, 0)])
        coords = [ring.normalize(rng.choice([0, 1, 2, -1]))
                  for _ in range(h.class_count(x, y, 0))]
        if not any(coords):
            coords[0] = ring.one()
        cat = cone_of_class(cat, h, "cone", x, y, tuple(coords))
    if perturb:
        chain, inputs, out = rng.choice(
            [(c, i, o) for c, t in cat.ops.items() if len(c) == 3
             for i, outs in t.items() for o in outs])
        cat.set_op_entry(chain, inputs, out,
                         ring.add(cat.ops[chain][inputs][out], ring.one()))
    return cat


# (base, seed, mu^3 entries, cone, perturbation) that break a relation
BROKEN = [("dg", 0, 0, True, True), ("dg", 1, 2, False, False),
          ("mu3", 3, 1, True, True), ("path", 3, 1, True, True)]


class TestSupportCheckMatchesReference:
    """The support-driven check writes the report of the exhaustive loop
    (``oracles.reference_relations``): the same tuple count, violations,
    order and residuals at every limit."""

    @staticmethod
    def assert_matches(cat):
        for limit in range(1, 5):
            assert check_ainf_relations(cat, limit) == \
                reference_relations(cat, limit)

    @settings(max_examples=20, deadline=None)
    @given(ring=st.sampled_from([F2, F3, Q]),
           base=st.sampled_from(["dg", "mu3", "path"]),
           seed=st.integers(0, 2 ** 16), n_mu3=st.integers(0, 2),
           with_cone=st.booleans(), perturb=st.booleans())
    @example(ring=Q, base="mu3", seed=0, n_mu3=1, with_cone=True, perturb=True)
    def test_random_categories(self, ring, base, seed, n_mu3, with_cone,
                               perturb):
        self.assert_matches(random_case(ring, base, seed, n_mu3, with_cone,
                                        perturb))

    @pytest.mark.parametrize("ring", [F2, F3, Q], ids=["F2", "F3", "Q"])
    @pytest.mark.parametrize("case", BROKEN,
                             ids=[f"{c[0]}-{c[1]}" for c in BROKEN])
    def test_broken_relations(self, ring, case):
        cat = random_case(ring, *case)
        assert not check_ainf_relations(cat, 4)["passed"]
        self.assert_matches(cat)

    @pytest.mark.parametrize("name,ring", [
        (name, ring) for name in ("dsq_break", "ore_break", "toyb",
                                  "toyb_break_permutation", "toyc",
                                  "toyc_break_closure")
        for ring in (F2, F3, Q)] + [("micro2datum", Q),
                                    ("micro2_break_beta", Q)],
        ids=lambda v: v if isinstance(v, str) else v.token())
    def test_validate_families_of_bundled_fixtures(self, monkeypatch, name,
                                                   ring):
        if ring == F2 or name.startswith("micro2"):
            setup = load_setup(FIXTURES / f"{name}.json")
        else:
            setup = setup_from_dict(fixture_doc_over(name, ring))
        families = []

        def check(cat, limit):
            families.append(cat)
            self.assert_matches(cat)
            return check_ainf_relations(cat, limit)
        monkeypatch.setattr(floer, "check_ainf_relations", check)
        validate_setup(setup)
        assert families


class TestOperationEntries:
    """An operation entry names generators of the homs along its chain."""

    @pytest.mark.parametrize("inputs,output,fragment", [
        (("g2", "g2", "g3"), "h", r"'g2' is not a generator of hom\(p0, p1\)"),
        (("g1", "g2", "g3"), "g1", r"'g1' is not a generator of hom\(p0, p3\)"),
        (("g1", "g2"), "h", "arity"),
    ], ids=["input", "output", "arity"])
    @pytest.mark.parametrize("setter", ["add_op_entry", "set_op_entry"])
    def test_non_generator_is_refused(self, setter, inputs, output, fragment):
        cat = mu3_cat()
        with pytest.raises(ShapeMismatch, match=fragment):
            getattr(cat, setter)(("p0", "p1", "p2", "p3"), inputs, output, 1)
        assert cat.mu(("p0", "p1", "p2", "p3"), ("g1", "g2", "g3")) == {"h": 1}


class TestUnitality:
    def test_envelope_is_strict(self):
        env = canonical_envelope(build_toyb())
        assert all(unit_is_strict(env, x) for x in env.objects)

    def test_unit_up_to_homotopy_is_not_strict(self):
        # e.x = x + d(hx): e is an identity on cohomology only
        homs = {("X", "X"): GradedModule.from_generators(
            Q, [("e", 0), ("x", 0), ("hx", -1)])}
        cat = AInfCategory(Q, ["X"], homs, {"X": {"e": 1}})
        cat.add_op_entry(("X", "X"), ("hx",), "x", 1)
        cat.add_op_entry(("X", "X", "X"), ("e", "e"), "e", 1)
        cat.add_op_entry(("X", "X", "X"), ("e", "x"), "x", 2)
        cat.add_op_entry(("X", "X", "X"), ("x", "e"), "x", 1)
        assert not unit_is_strict(cat, "X")

    def test_no_unit_is_not_strict(self):
        homs = {("X", "X"): GradedModule.from_generators(F2, [("x", 0)])}
        assert not unit_is_strict(AInfCategory(F2, ["X"], homs, {}), "X")


class TestHCategory:
    def test_zero_differential_recovers_mu2_tables(self):
        cat = associative_algebra_cat(F2)
        h = cohomology_category(cat)
        assert h.class_count("X", "Y", 0) == 2
        assert verify_category_axioms(h)["passed"]

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
        assert verify_category_axioms(h)["passed"]

    @pytest.mark.parametrize("setup", [build_toyc, lambda: setup_from_dict(
        rational_fixture_doc("toyb"))], ids=["toyc-F2", "toyb-Q"])
    def test_composition_matrices_are_built_once(self, setup):
        s = setup()
        h = cohomology_category(canonical_envelope(s))
        # each continuation class, and on the same objects the zero class and
        # every nonzero degree-0 class (over Q the basis classes and their
        # sum), so a key that drops the coordinates returns a wrong matrix
        for c in continuation_cset(s, h):
            n = len(c.coords)
            if h.ring.kind == "Fp":
                classes = [v for v in product(range(h.ring.p), repeat=n) if any(v)]
            else:
                classes = [h.ring.unit_vector(n, i) for i in range(n)]
                classes += [(h.ring.one(),) * n] if n > 1 else []
            for u in [c.coords, (h.ring.zero(),) * n] + classes:
                for k in h.objects:
                    for d in sorted(set(h.pres(k, c.src).degrees())
                                    | set(h.pres(c.tgt, k).degrees())):
                        self._check_memoized(h, c.src, c.tgt, k, u, d)

    @pytest.mark.parametrize("u", [(1,), (1, 0, 0)], ids=["short", "long"])
    def test_coordinates_of_the_wrong_length_are_refused(self, u):
        # H^0(L1, K) of toyc has two classes, so u is no class of it, on
        # either side of a composition
        h = cohomology_category(canonical_envelope(build_toyc()))
        assert h.class_count("L1", "K", 0) == 2
        eK, eL1 = h.identity_coords["K"], h.identity_coords["L1"]
        for call in (lambda: h.compose("L1", "K", "K", 0, u, 0, eK),
                     lambda: h.compose("L1", "L1", "K", 0, eL1, 0, u),
                     lambda: h.precompose_matrix("L1", "K", "K", 0, u, 0),
                     lambda: h.postcompose_matrix("L1", "L1", "K", 0, u, 0)):
            with pytest.raises(ShapeMismatch):
                call()

    @pytest.mark.parametrize("u", [(1,), (1, 0, 1)], ids=["short", "long"])
    def test_representative_of_the_wrong_length_is_refused(self, u):
        # zipped against the two classes of H^0(L1, K), both u gave the
        # representative b1; every cone is built from rep_dict
        h = cohomology_category(canonical_envelope(build_toyc()))
        with pytest.raises(ShapeMismatch):
            h.rep_dict("L1", "K", 0, u)
        with pytest.raises(ShapeMismatch):
            cone_of_class(h.source, h, "C", "L1", "K", u)

    @staticmethod
    def _check_memoized(h, x, y, k, u, d):
        """(- then u) on H^d(k, x) and (u then -) on H^d(y, k) against their
        columns from compose; repeated calls, with u as a list too, return
        the stored matrices."""
        post = h.postcompose_matrix(k, x, y, 0, u, d)
        n = h.class_count(k, x, d)
        assert post == Matrix.from_columns(h.ring, [
            h.compose(k, x, y, d, h.ring.unit_vector(n, i), 0, u)
            for i in range(n)], h.class_count(k, y, d))
        pre = h.precompose_matrix(x, y, k, 0, u, d)
        n = h.class_count(y, k, d)
        assert pre == Matrix.from_columns(h.ring, [
            h.compose(x, y, k, 0, u, d, h.ring.unit_vector(n, j))
            for j in range(n)], h.class_count(x, k, d))
        built = len(h._matrices)
        assert h.postcompose_matrix(k, x, y, 0, tuple(u), d) is post
        assert h.postcompose_matrix(k, x, y, 0, list(u), d) is post
        assert h.precompose_matrix(x, y, k, 0, tuple(u), d) is pre
        assert h.precompose_matrix(x, y, k, 0, list(u), d) is pre
        assert len(h._matrices) == built

