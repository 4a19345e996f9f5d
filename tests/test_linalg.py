import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_cohomology, dense_kernel, dense_rref, dense_solve
from wrapcat.errors import EmptySequence, NotAComplex, NotChainMap, ShapeMismatch
from wrapcat.linalg import (Complex, GradedMap, GradedModule, cohomology,
                            compose_graded_maps, diagram_colimit,
                            induced_cohomology_map, sequence_colimit)
from wrapcat.matrices import Matrix
from wrapcat.rings import CoefficientRing

F2 = CoefficientRing.prime_field(2)
F3 = CoefficientRing.prime_field(3)
Q = CoefficientRing.rationals()


def mod(ring, *gens):
    return GradedModule.from_generators(ring, list(gens))


class TestCohomology:
    def test_acyclic_identity_cone(self):
        m = mod(F2, ("x", 0), ("y", 1))
        d = GradedMap.from_entries(m, m, 1, [("x", "y", 1)])
        assert cohomology(Complex(m, d)).is_zero()

    def test_zero_differential(self):
        m = mod(Q, ("a", 0), ("b", 0), ("c", 1))
        H = cohomology(Complex.with_zero_differential(m))
        assert H.rank(0) == 2 and H.rank(1) == 1

    def test_not_a_complex_names_witness(self):
        m = mod(F2, ("u", 0), ("v", 1), ("w", 2))
        d = GradedMap.from_entries(m, m, 1, [("u", "v", 1), ("v", "w", 1)])
        with pytest.raises(NotAComplex, match="u"):
            cohomology(Complex(m, d))

    def test_rank_bound_property(self):
        rng = random.Random(7)
        for _ in range(20):
            gens = [(f"g{i}", rng.randint(0, 2)) for i in range(rng.randint(1, 5))]
            m = GradedModule.from_generators(F2, gens)
            entries = []
            for d in m.degrees():
                for lab in m.labels(d):
                    for tgt in m.labels(d + 1):
                        if rng.random() < 0.4:
                            entries.append((lab, tgt, 1))
            dmap = GradedMap.from_entries(m, m, 1, entries)
            sq_ok = all(dmap.block(x + 1).mul(dmap.block(x)).is_zero()
                        for x in m.degrees())
            if not sq_ok:
                continue
            H = cohomology(Complex(m, dmap))
            for d in m.degrees():
                assert H.rank(d) <= m.rank(d)


class TestInducedMaps:
    def test_identity_induces_identity(self):
        m = mod(F2, ("a", 0), ("b", 1))
        cx = Complex.with_zero_differential(m)
        hm = induced_cohomology_map(GradedMap.identity(m), cx, cx)
        assert hm.is_isomorphism()

    def test_inclusion_of_zero_into_acyclic(self):
        zero = GradedModule.zero(F2)
        m = mod(F2, ("x", 0), ("y", 1))
        d = GradedMap.from_entries(m, m, 1, [("x", "y", 1)])
        cx = Complex(m, d)
        z = Complex.with_zero_differential(zero)
        hm = induced_cohomology_map(GradedMap.zero(zero, m), z, cx)
        assert hm.source.is_zero() and hm.target.is_zero()

    def test_not_chain_map_witness(self):
        m = mod(F2, ("x", 0), ("y", 1))
        d = GradedMap.from_entries(m, m, 1, [("x", "y", 1)])
        cx = Complex(m, d)
        triv = Complex.with_zero_differential(m)
        f = GradedMap.identity(m)
        with pytest.raises(NotChainMap):
            induced_cohomology_map(f, cx, triv)

    def test_homotopic_maps_agree_on_h(self):
        # f = id, g = id + d h + h d for a chosen h: equal induced maps
        m = mod(Q, ("p", 0), ("q", 1), ("r", 1), ("s", 2))
        d = GradedMap.from_entries(m, m, 1, [("p", "q", 1), ("r", "s", 1)])
        cx = Complex(m, d)
        h = GradedMap.from_entries(m, m, -1, [("q", "p", 1)])
        dh = compose_graded_maps(h, d)
        hd = compose_graded_maps(d, h)
        g = GradedMap.identity(m).add(dh).add(hd)
        hm_f = induced_cohomology_map(GradedMap.identity(m), cx, cx)
        hm_g = induced_cohomology_map(g, cx, cx)
        assert hm_f == hm_g


class TestComposition:
    def test_identity_neutral(self):
        m = mod(F3, ("a", 0), ("b", 2))
        f = GradedMap.from_entries(m, m, 2, [("a", "b", 2)])
        assert compose_graded_maps(GradedMap.identity(m), f) == f
        assert compose_graded_maps(f, GradedMap.identity(m)) == f

    def test_zero_absorbs(self):
        m = mod(F3, ("a", 0))
        n = mod(F3, ("b", 0))
        f = GradedMap.from_entries(m, n, 0, [("a", "b", 2)])
        z = GradedMap.zero(n, n)
        assert compose_graded_maps(f, z).is_zero()

    def test_matrix_product_oracle(self):
        rng = random.Random(11)
        m = mod(F3, ("a0", 0), ("a1", 0))
        for _ in range(5):
            fdat = [[rng.randrange(3) for _ in range(2)] for _ in range(2)]
            gdat = [[rng.randrange(3) for _ in range(2)] for _ in range(2)]
            f = GradedMap(m, m, 0, {0: Matrix(F3, fdat)})
            g = GradedMap(m, m, 0, {0: Matrix(F3, gdat)})
            comp = compose_graded_maps(f, g)
            assert comp.block(0) == Matrix(F3, gdat).mul(Matrix(F3, fdat))

    def test_shape_mismatch(self):
        m = mod(F3, ("a", 0))
        n = mod(F3, ("b", 0))
        f = GradedMap.zero(m, n)
        with pytest.raises(ShapeMismatch):
            compose_graded_maps(f, f)


class TestSequenceColimit:
    def test_constant_identity(self):
        m = mod(F2, ("u", 0))
        colim, _, stab = sequence_colimit([m, m, m], [GradedMap.identity(m)] * 2, 2)
        assert colim == m and stab

    def test_zero_maps_prefix(self):
        ms = [mod(F2, (f"e{i}", 0)) for i in range(3)]
        colim, _, stab = sequence_colimit(
            ms, [GradedMap.zero(ms[0], ms[1]), GradedMap.zero(ms[1], ms[2])], 2)
        assert colim.rank(0) == 1 and not stab

    def test_toyc_shape(self):
        ms = [GradedModule.from_generators(F2, [(f"g{i}{j}", 0) for j in range(r)])
              for i, r in enumerate((1, 2, 2, 2))]
        maps = [
            GradedMap.from_entries(ms[0], ms[1], 0, [("g00", "g10", 1)]),
            GradedMap.from_entries(ms[1], ms[2], 0,
                                   [("g10", "g20", 1), ("g11", "g21", 1)]),
            GradedMap.from_entries(ms[2], ms[3], 0,
                                   [("g20", "g30", 1), ("g21", "g31", 1)]),
        ]
        colim, structure, stab = sequence_colimit(ms, maps, 2)
        assert colim.rank(0) == 2 and stab

    def test_extension_by_isomorphism_is_canonical(self):
        ms = [mod(F2, ("a", 0)), mod(F2, ("b", 0))]
        f = GradedMap.from_entries(ms[0], ms[1], 0, [("a", "b", 1)])
        colim1, s1, _ = sequence_colimit(ms, [f], 0)
        ext = mod(F2, ("c", 0))
        g = GradedMap.from_entries(ms[1], ext, 0, [("b", "c", 1)])
        colim2, s2, _ = sequence_colimit(ms + [ext], [f, g], 0)
        assert colim1.rank_map() == colim2.rank_map()
        assert compose_graded_maps(s1[0], g).block(0) == s2[0].block(0)

    def test_empty_raises(self):
        with pytest.raises(EmptySequence):
            sequence_colimit([], [], 2)


class TestDiagramColimit:
    def test_pushout_identification(self):
        a = mod(F2, ("a", 0))
        b = mod(F2, ("b1", 0), ("b2", 0))
        f = GradedMap.from_entries(a, b, 0, [("a", "b1", 1)])
        g = GradedMap.from_entries(a, b, 0, [("a", "b2", 1)])
        dc = diagram_colimit([a, b], [(0, 1, f), (0, 1, g)])
        assert dc.rank(0) == 1

    def test_structure_maps_commute(self):
        a = mod(Q, ("a", 0))
        b = mod(Q, ("b", 0))
        f = GradedMap.from_entries(a, b, 0, [("a", "b", 3)])
        dc = diagram_colimit([a, b], [(0, 1, f)])
        s0, s1 = dc.structure_map(0), dc.structure_map(1)
        assert compose_graded_maps(f, s1).block(0) == s0.block(0)

    def test_single_arrow_collapses_to_target(self):
        a = mod(Q, ("a", 0))
        b = mod(Q, ("b", 0))
        f = GradedMap.from_entries(a, b, 0, [("a", "b", 3)])
        dc = diagram_colimit([a, b], [(0, 1, f)])
        pres = dc.degree(0)
        assert pres.class_count == 1
        (img_a,), (img_b,) = dc.project(0, 0, (1,)), dc.project(0, 1, (1,))
        assert img_b != 0 and img_a == 3 * img_b

RINGS = {"F2": (F2, 2), "F3": (F3, 3), "Q": (Q, 0)}


def _random_rows(rng, rows, cols):
    return [[rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(cols)]
            for _ in range(rows)]


def _combination(rng, ring, vectors, n):
    out = [ring.zero()] * n
    for v in vectors:
        c = rng.randint(-2, 2)
        out = [ring.add(a, ring.mul(c, b)) for a, b in zip(out, v)]
    return tuple(out)


class TestEliminationAgainstDenseReference:
    """The sparse elimination kernel against dense Gauss-Jordan elimination."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(RINGS)), st.integers(0, 5), st.integers(0, 6),
           st.integers(0, 10 ** 6))
    def test_rank_rref_kernel_solve(self, name, rows, cols, seed):
        ring, p = RINGS[name]
        rng = random.Random(seed)
        data = _random_rows(rng, rows, cols)
        m = Matrix(ring, data, cols=cols)
        red, pivots = dense_rref(data, p)
        assert m.rank() == len(pivots)
        if rows:
            got, got_pivots = m.rref()
            assert (got.data, got_pivots) == (tuple(map(tuple, red)), pivots)
        kernel = dense_kernel(data, cols, p)
        assert m.kernel_basis() == kernel
        x = [rng.randint(-2, 2) for _ in range(cols)]
        for b in (m.apply(tuple(ring.normalize(v) for v in x)),
                  tuple(ring.normalize(rng.randint(-2, 2)) for _ in range(rows))):
            assert m.solve(b) == dense_solve(data, b, cols, p)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(sorted(RINGS)), st.integers(1, 4), st.integers(1, 5),
           st.integers(1, 4), st.integers(0, 10 ** 6))
    def test_cohomology_reps_and_projection(self, name, r0, r1, r2, seed):
        ring, p = RINGS[name]
        rng = random.Random(seed)
        d0 = _random_rows(rng, r1, r0)
        left = dense_kernel([list(c) for c in zip(*d0)], r1, p)
        d1 = [list(_combination(rng, ring, left, r1)) for _ in range(r2)]
        ranks = (r0, r1, r2)
        gens = [(f"g{k}_{i}", k) for k in range(3) for i in range(ranks[k])]
        mod = GradedModule.from_generators(ring, gens)
        entries = [(f"g{k}_{i}", f"g{k + 1}_{j}", x)
                   for k, rows in ((0, d0), (1, d1))
                   for j, row in enumerate(rows) for i, x in enumerate(row) if x]
        H = cohomology(Complex(mod, GradedMap.from_entries(mod, mod, 1, entries)))
        blocks = {0: ([[] for _ in range(r0)], d0), 1: (d0, d1),
                  2: (d1, [])}
        for deg, (d_in, d_out) in blocks.items():
            dim = ranks[deg]
            reps, project = dense_cohomology(d_in, d_out, dim, p)
            pres = H.degree(deg)
            assert list(pres.reps) == reps
            cycle = _combination(rng, ring, dense_kernel(d_out, dim, p), dim)
            assert pres.project(cycle) == project(cycle)
            if reps:
                v = tuple(ring.normalize(rng.randint(-2, 2)) for _ in range(dim))
                want = project(v)
                if want is None:
                    with pytest.raises(NotAComplex):
                        pres.project(v)
                else:
                    assert pres.project(v) == want
