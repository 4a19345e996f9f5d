import random
from functools import partial
from itertools import product

import pytest

from conv_fixtures_support import dg_path_cat, mu3_cat
from fixture_builders import build_toyb, build_toyc_chain, fixture_doc_over
from oracles import (dense_cohomology, nonzero_above_arity,
                     random_path_instance, reference_bar, reference_mu)
from pathcat_support import instance_to_category, wrap_cset
from wrapcat.ainf import AInfCategory, cohomology_category, cone
from wrapcat.errors import NotClosedRepresentative
from wrapcat.floer import canonical_envelope
from wrapcat.linalg import GradedModule, cohomology
from wrapcat.localization import CSet, FractionCategory
from wrapcat.matrices import Matrix
from wrapcat.quotient import (BarQuotient, NullWords, TruncatedQuotient,
                              adjoin_cones)
from wrapcat.rings import CoefficientRing
from wrapcat.setupfile import setup_from_dict
from wrapcat.wrap import continuation_cset, generating_subset

F2 = CoefficientRing.prime_field(2)
F3 = CoefficientRing.prime_field(3)
RINGS = [(F2, 2), (F3, 3),
         (CoefficientRing.rationals(), 0)]


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
        h = cohomology_category(env)
        ext, nulls = adjoin_cones(env, h, [])
        quo = TruncatedQuotient(ext, nulls, 2, h)
        for a in env.objects:
            for b in env.objects:
                assert quo.h0_rank(a, b) == h.pres(a, b).rank(0)
                for n in set(ext.hom(a, b).degrees()) | set(h.pres(a, b).degrees()):
                    bar = BarQuotient(ext, [], a, b, 2, degree=n)
                    assert cohomology(bar.complex).rank(n) == \
                        h.pres(a, b).rank(n)

    def test_unit_class_cone_keeps_h0(self):
        env = canonical_envelope(build_toyb())
        h = cohomology_category(env)
        W = [("L", "L", h.identity_coords["L"])]
        quo = TruncatedQuotient(*adjoin_cones(env, h, W), 2, h)
        for a in env.objects:
            for b in env.objects:
                assert quo.h0_rank(a, b) == h.pres(a, b).rank(0)

    def test_one_arrow_quotient_matches_fraction(self):
        cat = one_arrow()
        h = cohomology_category(cat)
        W = [("A", "B", h.project_dict("A", "B", 0, {"c": 1}))]
        quo = TruncatedQuotient(*adjoin_cones(cat, h, W), 2, h)
        cset = CSet(h, W)
        frac = FractionCategory(h, cset)
        for a in cat.objects:
            for b in cat.objects:
                assert quo.h0_rank(a, b) == frac.class_count(a, b, 0) == 1

    def test_differential_squares_to_zero_over_Q(self):
        ext = cone(dg_path_cat(), "Cb", "o1", "o2", {"b": 1})
        # the complex spans degrees -1..5; window n holds d_n d_{n-1}
        for n in range(-1, 6):
            bar = BarQuotient(ext, ["Cb"], "o0", "o3", 2, degree=n)
            assert bar.module.rank(n)
            bar.complex.check()  # raises NotAComplex on failure

    # toyc_n: L0 <- .. <- Ln, whose far pair the bars first certify through
    # n cones, at depth n + 1
    @pytest.mark.parametrize("build,depth", [
        (build_toyb, 2),
        *((partial(build_toyc_chain, n), n + 1) for n in (2, 3, 4))],
        ids=["toyb", "toyc_2", "toyc_3", "toyc_4"])
    def test_cross_oracle(self, build, depth):
        s = build()
        env = canonical_envelope(s)
        h = cohomology_category(env)
        cset = continuation_cset(s, h)
        frac = FractionCategory(h, cset)
        W = [(c.src, c.tgt, c.coords) for c in generating_subset(cset)]
        quo = TruncatedQuotient(*adjoin_cones(env, h, W), depth, h)
        for a in env.objects:
            for b in env.objects:
                assert quo.stabilized(a, b)
                assert quo.h0_rank(a, b) == frac.class_count(a, b, 0)

    def test_not_closed_representative(self):
        env = canonical_envelope(build_toyb())
        h = cohomology_category(env)
        with pytest.raises(NotClosedRepresentative):
            adjoin_cones(env, h, [("L", "K", ())])


WINDOWS = range(-8, 9)


def check_windows(cat, nulls, x, y, depth, p):
    """Adjacent windows share their common degrees and block, and the H^n of
    each window is the dense cohomology of the complex assembled from the
    windows' blocks."""
    bars = {n: BarQuotient(cat, nulls, x, y, depth, degree=n) for n in WINDOWS}
    assert bars[WINDOWS[0]].module.is_zero()
    assert bars[WINDOWS[-1]].module.is_zero()
    for n in WINDOWS[:-1]:
        low, high = bars[n], bars[n + 1]
        for d in (n, n + 1):
            assert low.module.labels(d) == high.module.labels(d)
        assert low.differential.block(n) == high.differential.block(n)
    for n in WINDOWS[1:]:
        d_in = bars[n - 1].differential.block(n - 1).data
        d_out = bars[n].differential.block(n).data
        reps, _ = dense_cohomology(d_in, d_out, bars[n].module.rank(n), p)
        pres = cohomology(bars[n].complex).degree(n)
        assert pres.class_count == len(reps)
        assert list(pres.reps) == reps


def random_cone_extensions(ring):
    """Three small random path categories over ``ring``, each with the
    cones over (up to) two of its wrapping classes, as (extended category,
    nulls, original objects); one of them has two cones."""
    # small draws: the dense oracle over Q is slow on large complexes
    rng = random.Random(5)
    out = []
    while len(out) < 3:
        inst = random_path_instance(rng, max_objects=4, max_edges=5)
        if not inst.wrap_edges:
            continue
        cat = instance_to_category(inst, ring)
        h = cohomology_category(cat)
        cset = wrap_cset(inst, h)
        w = [(c.src, c.tgt, c.coords) for c in cset
             if not cset.is_identity(c)][:2]
        out.append((*adjoin_cones(cat, h, w), cat.objects))
    assert max(len(nulls) for _, nulls, _ in out) == 2
    return out


class TestDegreeWindows:
    @pytest.mark.parametrize("ring,p", RINGS, ids=["F2", "F3", "Q"])
    def test_dg_path_cone(self, ring, p):
        ext = cone(dg_path_cat(ring), "Cb", "o1", "o2", {"b": 1})
        check_windows(ext, ["Cb"], "o0", "o3", 2, p)

    @pytest.mark.parametrize("ring,p", RINGS, ids=["F2", "F3", "Q"])
    def test_random_path_instances_with_cones(self, ring, p):
        for ext, nulls, objects in random_cone_extensions(ring):
            for x in objects:
                for y in objects:
                    check_windows(ext, nulls, x, y, 2, p)


def assert_matches_reference(bar):
    """Chains and both differential blocks of ``bar`` are those of the
    per-run reference, and the basis of each degree is the reference's
    chains of that degree, in chain order."""
    chains, gens, blocks = reference_bar(bar.cat, bar.nulls, bar.x, bar.y,
                                         bar.depth, bar.degree)
    assert bar.chains == chains
    basis = {}
    for chain, (_, d) in zip(chains, gens):
        basis.setdefault(d, []).append(chain)
    assert {d: list(bar.module.labels(d)) for d in bar.module.degrees()} == basis
    for d, rows in blocks.items():
        assert bar.differential.block(d).data == tuple(map(tuple, rows))


def check_against_reference(cat, nulls, objects, depth, windows):
    """Every standalone window of every pair, and every bar built as a
    quotient builds it (sharing one set of null words) at the depth and,
    truncated, the depth below.  The quotient's rank-nullity H^0 ranks are
    those of the bars' cohomology presentations, and the subspace of
    H^0 hom(x, y) that the quotient kills is the kernel of the full bar's
    presentation on the zero-padded representatives.  The quotient reads
    its representatives from the H-category of ``cat``, which agrees with
    that of the category the cones extend on the pairs of ``objects``."""
    for x in objects:
        for y in objects:
            for n in windows:
                assert_matches_reference(
                    BarQuotient(cat, nulls, x, y, depth, degree=n))
    words = NullWords(cat, tuple(nulls), depth, 0, set(objects), set(objects))
    hcat = cohomology_category(cat)
    quo = TruncatedQuotient(cat, nulls, depth, hcat)
    pairs = {(x, y) for x in objects for y in objects}
    assert set(quo.ranks) == set(quo.killed) == pairs
    for x, y in sorted(pairs):
        bar = BarQuotient(cat, nulls, x, y, depth, words=words)
        subs = [bar] + ([bar.truncate(depth - 1)] if depth else [])
        ranks = quo.ranks[(x, y)]
        assert len(ranks) == 2 and (ranks[1] is None) == (depth == 0)
        for sub, rank in zip(subs, ranks):
            assert_matches_reference(sub)
            assert rank == cohomology(sub.complex).rank(0)
        h0 = cohomology(bar.complex).degree(0)
        src = cohomology(cat.hom_complex(x, y)).degree(0)
        assert hcat.pres(x, y).degree(0).reps == src.reps
        pad = (cat.ring.zero(),) * (h0.module_rank - src.module_rank)
        projection = Matrix.from_columns(
            cat.ring, [h0.project(rep + pad) for rep in src.reps],
            h0.class_count)
        assert quo.killed[(x, y)].kernel_basis() == projection.kernel_basis()


def fixture_cones(name, ring):
    """A bundled fixture over ``ring`` with the cones that ``compute --what
    localize`` adjoins: (extended category, nulls, original objects)."""
    setup = setup_from_dict(fixture_doc_over(name, ring))
    env = canonical_envelope(setup)
    h = cohomology_category(env)
    w = [(c.src, c.tgt, c.coords)
         for c in generating_subset(continuation_cset(setup, h))]
    ext, nulls = adjoin_cones(env, h, w)
    return ext, nulls, env.objects


class TestContractionIndex:
    """The indexed, word-sharing bar build against the per-run reference."""

    @pytest.mark.parametrize("name,depth", [("toyb", 3), ("toyc", 2)])
    @pytest.mark.parametrize("ring,p", RINGS, ids=["F2", "F3", "Q"])
    def test_fixtures(self, name, depth, ring, p):
        # cone homs sit in degrees -1..1, so chains in -2 * depth - 1..1
        ext, nulls, objects = fixture_cones(name, ring)
        check_against_reference(ext, nulls, objects, depth,
                                range(-2 * depth - 2, 3))

    @pytest.mark.parametrize("ring,p", RINGS, ids=["F2", "F3", "Q"])
    def test_toyc_at_the_benchmark_depth(self, ring, p):
        # localize runs toyc at depth 3: its words of three nulls are the
        # first whose own runs come from a prefix's and whose runs through
        # the last label are shared with other words
        ext, nulls, objects = fixture_cones("toyc", ring)
        check_against_reference(ext, nulls, objects, 3, (0,))

    @pytest.mark.parametrize("ring,p", RINGS, ids=["F2", "F3", "Q"])
    def test_dg_path_cone(self, ring, p):
        ext = cone(dg_path_cat(ring), "Cb", "o1", "o2", {"b": 1})
        check_against_reference(ext, ["Cb"], ext.objects[:-1], 2,
                                range(-2, 7))

    @pytest.mark.parametrize("ring,p", RINGS, ids=["F2", "F3", "Q"])
    def test_random_path_instances_with_cones(self, ring, p):
        for ext, nulls, objects in random_cone_extensions(ring):
            check_against_reference(ext, nulls, objects, 2, range(-5, 2))

    def test_genuine_mu3_through_the_cone(self):
        # mu^3(g1, g2, g3) = h is a run of three labels along p0, Cw, Cw, p3
        # (g2 between the cone's summands): an arity bound of 2 drops it
        ext = cone(mu3_cat(), "Cw", "p1", "p2", {"w": 1})
        assert ext.max_arity() == 3
        check_against_reference(ext, ["Cw"], ext.objects[:-1], 3,
                                range(-4, 5))
        bar = BarQuotient(ext, ["Cw"], "p0", "p3", 3, degree=0)
        three = [(o, l) for o, l in bar.chains
                 if len(l) == 3 and ext.contractions(o).get(l)]
        assert three

    def test_new_operation_entry_reaches_the_next_bar(self):
        ext = cone(mu3_cat(), "Cw", "p1", "p2", {"w": 1})
        before = BarQuotient(ext, ["Cw"], "p0", "p3", 2, degree=1)
        # mu^3(g1, w, g3) = h makes the twisted mu^2 along p0, Cw, p3 nonzero
        ext.add_op_entry(("p0", "p1", "p2", "p3"), ("g1", "w", "g3"), "h", 1)
        after = BarQuotient(ext, ["Cw"], "p0", "p3", 2, degree=1)
        assert after.chains == before.chains
        assert after.differential.blocks != before.differential.blocks
        assert_matches_reference(after)

    @pytest.mark.parametrize("ring,p", RINGS[:2], ids=["F2", "F3"])
    def test_each_table_is_evaluated_once(self, ring, p, monkeypatch):
        # the 25 bars of toyc at depth 3 read the same object tuples' tables
        # over and over; each tuple through cones is filled once, so each
        # (chain, inputs) on it is evaluated once, and none outside a table
        setup = setup_from_dict(fixture_doc_over("toyc", ring))
        env = canonical_envelope(setup)
        h = cohomology_category(env)
        ext, nulls = adjoin_cones(env, h, [
            (c.src, c.tgt, c.coords)
            for c in generating_subset(continuation_cset(setup, h))])
        fills, runs, reads, mus = [], [], [], []
        fill, contractions, mu = (AInfCategory._fill,
                                  AInfCategory.contractions, AInfCategory.mu)

        def counted_fill(self, chain):
            table = fill(self, chain)
            fills.append(chain)
            runs.extend((chain, inputs) for inputs in table)
            return table

        def counted_read(self, chain):
            reads.append(chain)
            return contractions(self, chain)

        def counted_mu(self, chain, inputs):
            mus.append((chain, inputs))
            return mu(self, chain, inputs)
        monkeypatch.setattr(AInfCategory, "_fill", counted_fill)
        monkeypatch.setattr(AInfCategory, "contractions", counted_read)
        monkeypatch.setattr(AInfCategory, "mu", counted_mu)
        TruncatedQuotient(ext, nulls, 3, h)
        assert fills and len(set(fills)) == len(fills)
        assert runs and len(set(runs)) == len(runs)
        assert all(any(o in nulls for o in chain) for chain in fills)
        assert len(reads) > 2 * len(fills)
        assert mus == []


def check_mu_against_reference(cat, nulls, objects, depth, windows):
    """``cat.mu`` equals ``reference_mu`` on every basis input tuple along
    every object tuple whose contraction table the bars of every pair of
    ``objects`` in the degree ``windows`` read, and some of those tuples
    run through a cone."""
    reached, contractions = set(), cat.contractions

    def recording(chain):
        reached.add(tuple(chain))
        return contractions(chain)
    cat.contractions = recording
    try:
        for n in windows:
            words = NullWords(cat, tuple(nulls), depth, n, set(objects),
                              set(objects))
            for x in objects:
                for y in objects:
                    BarQuotient(cat, nulls, x, y, depth, degree=n, words=words)
    finally:
        del cat.contractions
    assert any(o in nulls for chain in reached for o in chain)
    for chain in sorted(reached):
        mods = [cat.hom(a, b) for a, b in zip(chain, chain[1:])]
        for inputs in product(*[[lab for d in m.degrees() for lab in m.labels(d)]
                                for m in mods]):
            assert cat.mu(chain, inputs) == reference_mu(cat, chain, inputs), \
                (chain, inputs)


class TestTwistedMu:
    """Twisted operations on cones against the direct evaluation of
    ``oracles.reference_mu``, on everything the bars reach."""

    @pytest.mark.parametrize("name,depth", [("toyb", 4), ("toyc", 3)])
    @pytest.mark.parametrize("ring,p", RINGS, ids=["F2", "F3", "Q"])
    def test_fixtures(self, name, depth, ring, p):
        ext, nulls, objects = fixture_cones(name, ring)
        check_mu_against_reference(ext, nulls, objects, depth, (0,))

    @pytest.mark.parametrize("ring,p", RINGS, ids=["F2", "F3", "Q"])
    def test_dg_path_cone(self, ring, p):
        ext = cone(dg_path_cat(ring), "Cb", "o1", "o2", {"b": 1})
        check_mu_against_reference(ext, ["Cb"], ext.objects[:-1], 2,
                                   range(-2, 7))

    @pytest.mark.parametrize("ring,p", RINGS, ids=["F2", "F3", "Q"])
    def test_mu3_cone(self, ring, p):
        ext = cone(mu3_cat(ring), "Cw", "p1", "p2", {"w": 1})
        check_mu_against_reference(ext, ["Cw"], ext.objects[:-1], 3,
                                   range(-4, 5))

    @pytest.mark.parametrize("ring,p", RINGS, ids=["F2", "F3", "Q"])
    def test_random_path_instances_with_cones(self, ring, p):
        for ext, nulls, objects in random_cone_extensions(ring):
            check_mu_against_reference(ext, nulls, objects, 2, range(-5, 2))


def _toyb_generating_cones():
    ext, _, _ = fixture_cones("toyb", F3)
    return ext


def _toyc_generating_cones():
    ext, _, _ = fixture_cones("toyc", F3)
    return ext


def _toyb_unit_cone():
    env = canonical_envelope(build_toyb())
    h = cohomology_category(env)
    return adjoin_cones(env, h, [("L", "L", h.identity_coords["L"])])[0]


def _one_arrow_cone():
    cat = one_arrow()
    h = cohomology_category(cat)
    return adjoin_cones(
        cat, h, [("A", "B", h.project_dict("A", "B", 0, {"c": 1}))])[0]


def _mu3_cone_with_new_entry():
    ext = cone(mu3_cat(), "Cw", "p1", "p2", {"w": 1})
    ext.add_op_entry(("p0", "p1", "p2", "p3"), ("g1", "w", "g3"), "h", 1)
    return ext


# the cone extensions built above; the fixtures' generating cones are
# checked over F3, where signs can cancel, not over every ring
CONES = {
    "toyb-generating": _toyb_generating_cones,
    "toyc-generating": _toyc_generating_cones,
    "toyb-unit": _toyb_unit_cone,
    "one-arrow": _one_arrow_cone,
    "mu3-Cw": lambda: cone(mu3_cat(), "Cw", "p1", "p2", {"w": 1}),
    "mu3-Cw-new-entry": _mu3_cone_with_new_entry,
    **{f"dg-Cb-{ring.token()}":
       (lambda ring=ring: cone(dg_path_cat(ring), "Cb", "o1", "o2", {"b": 1}))
       for ring, _ in RINGS},
}


class TestArityBound:
    """Above ``max_arity()`` every mu^k of these extensions is zero on
    every basis tuple: the contraction index and the relation check skip
    those arities."""

    @pytest.mark.parametrize("name", sorted(CONES))
    def test_no_operation_above_max_arity(self, name):
        assert nonzero_above_arity(CONES[name]()) == []

    @pytest.mark.parametrize("ring,p", RINGS, ids=["F2", "F3", "Q"])
    def test_random_path_instances_with_cones(self, ring, p):
        for ext, _, _ in random_cone_extensions(ring):
            assert nonzero_above_arity(ext) == []
