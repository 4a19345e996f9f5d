"""Exact graded linear algebra over a field: graded modules, chain complexes,
cohomology presentations, induced maps, sequence and diagram colimits.

Cohomology presentations are canonical for a fixed basis order: each class
representative is reduced against the echelon basis of the boundaries.  All
operations are deterministic pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (EmptySequence, NotAComplex, NotChainMap, ShapeMismatch)
from .matrices import Echelon, Matrix
from .rings import CoefficientRing

__all__ = [
    "GradedModule", "GradedMap", "Complex", "CohomologyPresentation", "HMap",
    "cohomology", "induced_cohomology_map", "compose_graded_maps",
    "sequence_colimit", "diagram_colimit",
]


class GradedModule:
    """Finitely supported Z-graded free module with named, ordered bases."""

    __slots__ = ("ring", "basis", "_locate")

    def __init__(self, ring: CoefficientRing, basis):
        self.ring = ring
        self.basis = {int(d): tuple(labels) for d, labels in sorted(basis.items())
                      if len(labels) > 0}
        self._locate = {}
        for d, labels in self.basis.items():
            for i, lab in enumerate(labels):
                if lab in self._locate:
                    raise ShapeMismatch(f"duplicate basis label {lab!r}")
                self._locate[lab] = (d, i)

    @staticmethod
    def zero(ring: CoefficientRing) -> "GradedModule":
        return GradedModule(ring, {})

    @staticmethod
    def from_generators(ring: CoefficientRing, gens) -> "GradedModule":
        """Build from an iterable of (label, degree) pairs, order preserved."""
        basis = {}
        for label, degree in gens:
            basis.setdefault(int(degree), []).append(label)
        return GradedModule(ring, basis)

    def degrees(self):
        return sorted(self.basis.keys())

    def rank(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def total_rank(self) -> int:
        return sum(len(v) for v in self.basis.values())

    def labels(self, d: int):
        return self.basis.get(d, ())

    def degree_of(self, label: str) -> int:
        return self._locate[label][0]

    def index_of(self, label: str) -> int:
        return self._locate[label][1]

    def has_label(self, label: str) -> bool:
        return label in self._locate

    def is_zero(self) -> bool:
        return not self.basis

    def __eq__(self, other):
        return (isinstance(other, GradedModule) and self.ring == other.ring
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.basis.items()))))

    def __repr__(self):
        return f"GradedModule({ {d: len(v) for d, v in self.basis.items()} })"

    def rank_map(self):
        return {d: len(v) for d, v in self.basis.items()}


class GradedMap:
    """Degree-homogeneous map between graded modules, stored blockwise.

    ``blocks[d]`` sends the degree-d part of the source into degree
    ``d + self.degree`` of the target; missing blocks are zero.
    """

    __slots__ = ("source", "target", "degree", "blocks")

    def __init__(self, source: GradedModule, target: GradedModule, degree: int, blocks):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.blocks = {}
        for d, blk in sorted(blocks.items()):
            if not isinstance(blk, Matrix):
                blk = Matrix(source.ring, blk)
            want = (target.rank(d + self.degree), source.rank(d))
            if (blk.rows, blk.cols) != want:
                raise ShapeMismatch(
                    f"block at degree {d}: got {blk.rows}x{blk.cols}, want {want[0]}x{want[1]}")
            if not blk.is_zero():
                self.blocks[int(d)] = blk

    @staticmethod
    def zero(source: GradedModule, target: GradedModule, degree: int = 0) -> "GradedMap":
        return GradedMap(source, target, degree, {})

    @staticmethod
    def identity(module: GradedModule) -> "GradedMap":
        return GradedMap(module, module, 0,
                         {d: Matrix.identity(module.ring, module.rank(d))
                          for d in module.degrees()})

    @staticmethod
    def from_entries(source: GradedModule, target: GradedModule, degree: int,
                     entries) -> "GradedMap":
        """Build from (source_label, target_label, scalar) triples."""
        ring = source.ring
        acc = {}
        for src_lab, tgt_lab, scalar in entries:
            d = source.degree_of(src_lab)
            dt = target.degree_of(tgt_lab)
            if dt != d + degree:
                raise ShapeMismatch(
                    f"entry {src_lab}->{tgt_lab} violates degree {degree}")
            blk = acc.setdefault(d, {})
            key = (target.index_of(tgt_lab), source.index_of(src_lab))
            blk[key] = ring.add(blk.get(key, ring.zero()), ring.normalize(scalar))
        blocks = {d: Matrix.from_sparse(ring, target.rank(d + degree),
                                        source.rank(d), ent)
                  for d, ent in acc.items()}
        return GradedMap(source, target, degree, blocks)

    def block(self, d: int) -> Matrix:
        if d in self.blocks:
            return self.blocks[d]
        return Matrix.zero(self.source.ring, self.target.rank(d + self.degree),
                           self.source.rank(d))

    def apply_label(self, label: str):
        """Image of a basis element as {target_label: scalar}."""
        d = self.source.degree_of(label)
        col = self.block(d).column(self.source.index_of(label))
        out = {}
        tlabels = self.target.labels(d + self.degree)
        for lab, x in zip(tlabels, col):
            if x != 0:
                out[lab] = x
        return out

    def apply_vector(self, d: int, vec):
        return self.block(d).apply(vec)

    def add(self, other: "GradedMap") -> "GradedMap":
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            raise ShapeMismatch("graded map addition mismatch")
        ds = sorted(set(self.blocks) | set(other.blocks))
        return GradedMap(self.source, self.target, self.degree,
                         {d: self.block(d).add(other.block(d)) for d in ds})

    def scale(self, c) -> "GradedMap":
        return GradedMap(self.source, self.target, self.degree,
                         {d: blk.scale(c) for d, blk in self.blocks.items()})

    def is_zero(self) -> bool:
        return all(blk.is_zero() for blk in self.blocks.values())

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return False
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            return False
        ds = set(self.blocks) | set(other.blocks)
        return all(self.block(d) == other.block(d) for d in ds)

    def __hash__(self):
        return hash((self.source, self.target, self.degree,
                     tuple(sorted(self.blocks.items(), key=lambda kv: kv[0]))))

    def is_isomorphism(self) -> bool:
        """Exact graded isomorphism test (square invertible blocks)."""
        degs = set(self.source.degrees()) | {d - self.degree for d in self.target.degrees()}
        return all(self.source.rank(d) == self.target.rank(d + self.degree)
                   and self.block(d).is_invertible() for d in degs)


def compose_graded_maps(f: GradedMap, g: GradedMap) -> GradedMap:
    """The composite g after f.  Degrees add; blocks are matrix products."""
    if f.target != g.source:
        raise ShapeMismatch("compose_graded_maps: target(f) != source(g)")
    degree = f.degree + g.degree
    blocks = {}
    for d in f.source.degrees():
        blk = g.block(d + f.degree).mul(f.block(d))
        if not blk.is_zero():
            blocks[d] = blk
    return GradedMap(f.source, g.target, degree, blocks)


@dataclass(frozen=True)
class Complex:
    """Graded module with a square-zero differential of degree +1."""

    module: GradedModule
    differential: GradedMap

    def __post_init__(self):
        if self.differential.source != self.module or self.differential.target != self.module:
            raise ShapeMismatch("differential endpoints must equal the module")
        if self.differential.degree != 1:
            raise ShapeMismatch("differential must have degree +1")

    def check(self):
        """Raise NotAComplex with the first offending basis element if d*d != 0."""
        d = self.differential
        for deg in self.module.degrees():
            sq = d.block(deg + 1).mul(d.block(deg))
            for lab, col in zip(self.module.labels(deg), sq.columns()):
                if any(col):
                    raise NotAComplex(f"d(d({lab})) != 0 at degree {deg}")
        return True

    @staticmethod
    def with_zero_differential(module: GradedModule) -> "Complex":
        return Complex(module, GradedMap.zero(module, module, 1))


class DegreePresentation:
    """Cohomology of one degree: class representatives and the projection
    of a cycle onto class coordinates.

    Internal data keeps exactly what the deterministic projection needs: the
    echelon of the boundaries and the echelon of the rows
    [representative | unit vector].
    """

    __slots__ = ("ring", "module_rank", "reps", "_echelons")

    def __init__(self, ring, module_rank, reps, echelons=None):
        self.ring = ring
        self.module_rank = module_rank
        self.reps = tuple(tuple(r) for r in reps)
        self._echelons = echelons

    @property
    def class_count(self) -> int:
        return len(self.reps)

    def project(self, cycle):
        """Class coordinates of a cycle vector (must be a cycle)."""
        if len(cycle) != self.module_rank:
            raise ShapeMismatch("projection: wrong vector length")
        if not self.reps:
            return ()
        bound, coords = self._echelons
        dim = self.module_rank
        rest = coords.unpack(coords.reduce(bound.reduce(bound.pack(
            tuple(self.ring.normalize(x) for x in cycle)))))
        if any(rest[:dim]):
            raise NotAComplex("vector is not a cycle")
        return tuple(self.ring.neg(x) for x in rest[dim:])


class CohomologyPresentation:
    """Graded cohomology with canonical representatives and projections."""

    __slots__ = ("ring", "module", "by_degree")

    def __init__(self, ring, module, by_degree):
        self.ring = ring
        self.module = module
        self.by_degree = dict(sorted(by_degree.items()))

    def degree(self, d: int) -> DegreePresentation:
        if d in self.by_degree:
            return self.by_degree[d]
        return DegreePresentation(self.ring, self.module.rank(d), ())

    def degrees(self):
        return [d for d, pres in self.by_degree.items() if pres.class_count]

    def rank(self, d: int) -> int:
        return self.degree(d).class_count

    def total_class_count(self) -> int:
        return sum(p.class_count for p in self.by_degree.values())

    def rank_map(self):
        return {d: p.class_count for d, p in self.by_degree.items() if p.class_count}

    def is_zero(self) -> bool:
        return self.total_class_count() == 0


def _presentation(ring, dim, rel_cols, candidates, reduce_reps):
    """ring^dim / span(rel_cols).  The representatives are the
    candidates (sparse vectors) independent modulo the relations and the
    candidates before them; with ``reduce_reps`` each is reduced to be zero at
    every relation pivot, so equal classes yield equal representatives."""
    bound = Echelon(ring, dim)
    for col in rel_cols:
        bound.insert(bound.pack(col))
    chooser = bound.copy()
    reps = [bound.reduce(z) if reduce_reps else z for z in candidates
            if chooser.insert(z)]
    # a class's coordinates c: a cycle reduced modulo the relations is
    # sum c_i rep_i, and [cycle | 0] reduces against [rep_i | e_i] to [0 | -c]
    coords = Echelon(ring, dim + len(reps))
    for i, rep in enumerate(reps):
        coords.insert(coords.axpy(bound.reduce(rep), 1, coords.unit(dim + i)))
    return DegreePresentation(ring, dim, [bound.unpack(r) for r in reps],
                              echelons=(bound, coords))


def cohomology(c: Complex) -> CohomologyPresentation:
    """Cohomology presentation of a complex; raises NotAComplex if d*d != 0."""
    c.check()
    ring = c.module.ring
    by_degree = {}
    for d in c.module.degrees():
        d_out = c.differential.block(d)
        by_degree[d] = _presentation(
            ring, d_out.cols, c.differential.block(d - 1).columns(),
            d_out.echelon().kernel(), True)
    return CohomologyPresentation(ring, c.module, by_degree)


class HMap:
    """Map of cohomology presentations, given degreewise on class coordinates."""

    __slots__ = ("source", "target", "degree", "matrices")

    def __init__(self, source: CohomologyPresentation, target: CohomologyPresentation,
                 degree: int, matrices):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.matrices = {int(d): m for d, m in sorted(matrices.items())}

    def matrix(self, d: int) -> Matrix:
        if d in self.matrices:
            return self.matrices[d]
        return Matrix.zero(self.source.ring, self.target.class_count(d + self.degree),
                           self.source.class_count(d))

    def apply(self, d: int, coords):
        return self.matrix(d).apply(coords)

    def is_isomorphism(self) -> bool:
        degs = set(self.source.degrees()) | set(d - self.degree for d in self.target.degrees())
        return all(self.matrix(d).is_invertible() for d in degs)

    def compose(self, other: "HMap") -> "HMap":
        """other after self."""
        mats = {}
        for d in set(self.matrices) | set(d - self.degree for d in other.matrices):
            mats[d] = other.matrix(d + self.degree).mul(self.matrix(d))
        return HMap(self.source, other.target, self.degree + other.degree, mats)

    def __eq__(self, other):
        if not isinstance(other, HMap):
            return False
        if self.degree != other.degree:
            return False
        degs = set(self.matrices) | set(other.matrices)
        return all(self.matrix(d) == other.matrix(d) for d in degs)

    def __hash__(self):
        return hash((self.degree, tuple(sorted(self.matrices.items(), key=lambda kv: kv[0]))))


def induced_cohomology_map(f: GradedMap, src: Complex, tgt: Complex,
                           src_h: CohomologyPresentation = None,
                           tgt_h: CohomologyPresentation = None) -> HMap:
    """H-level map induced by a chain map; raises NotChainMap with a witness."""
    if f.source != src.module or f.target != tgt.module:
        raise ShapeMismatch("induced map endpoints mismatch")
    for d in src.module.degrees():
        lhs = tgt.differential.block(d + f.degree).mul(f.block(d))
        rhs = f.block(d + 1).mul(src.differential.block(d))
        if lhs != rhs:
            for j, lab in enumerate(src.module.labels(d)):
                if any(lhs.data[i][j] != rhs.data[i][j] for i in range(lhs.rows)):
                    raise NotChainMap(f"f fails to commute with d on {lab!r}")
    src_h = src_h or cohomology(src)
    tgt_h = tgt_h or cohomology(tgt)
    matrices = {}
    for d in src_h.by_degree:
        sp = src_h.degree(d)
        if sp.class_count == 0:
            continue
        tp = tgt_h.degree(d + f.degree)
        cols = []
        for rep in sp.reps:
            img = f.apply_vector(d, rep)
            cols.append(tp.project(img))
        matrices[d] = Matrix.from_columns(src.module.ring, cols, tp.class_count)
    return HMap(src_h, tgt_h, f.degree, matrices)


def sequence_colimit(modules, maps, stabilization_window: int = 2):
    """Direct limit of a finite prefix M_0 -> M_1 -> ... -> M_{n-1}.

    The cokernel of (shift - identity) on the direct sum collapses onto the
    last term, so the colimit is presented on M_{n-1} with structure maps
    given by composite transition maps.  ``stabilized`` is true iff the last
    ``stabilization_window`` transition maps induce isomorphisms onto the
    colimit.
    """
    modules = list(modules)
    maps = list(maps)
    if not modules:
        raise EmptySequence("sequence_colimit of an empty sequence")
    if len(maps) != len(modules) - 1:
        raise ShapeMismatch("need exactly len(modules) - 1 transition maps")
    for i, f in enumerate(maps):
        if f.source != modules[i] or f.target != modules[i + 1]:
            raise ShapeMismatch(f"transition {i} endpoints mismatch")
        if f.degree != 0:
            raise ShapeMismatch(f"transition {i} must have degree 0")
    colim = modules[-1]
    structure = [None] * len(modules)
    structure[-1] = GradedMap.identity(colim)
    for i in range(len(modules) - 2, -1, -1):
        structure[i] = compose_graded_maps(maps[i], structure[i + 1])
    window = max(0, int(stabilization_window))
    if window == 0:
        stabilized = True
    elif len(maps) < window:
        stabilized = False
    else:
        stabilized = all(structure[j].is_isomorphism()
                         for j in range(len(maps) - window, len(maps)))
    return colim, structure, stabilized


class DiagramColimit:
    """Colimit of a finite diagram of graded modules, as an exact quotient.

    Presented per degree by a quotient of the direct sum of all object
    modules; representatives are chosen standard basis vectors.
    ``structure_map(i)`` embeds object ``i``.
    """

    __slots__ = ("ring", "objects", "offsets", "dims", "by_degree", "module")

    def __init__(self, ring, obj_modules, morphisms):
        """morphisms: iterable of (src_index, tgt_index, GradedMap)."""
        self.ring = ring
        self.objects = list(obj_modules)
        degrees = sorted({d for m in self.objects for d in m.degrees()})
        self.offsets = {}
        self.dims = {}
        for d in degrees:
            offs, total = [], 0
            for m in self.objects:
                offs.append(total)
                total += m.rank(d)
            self.offsets[d] = offs
            self.dims[d] = total
        self.by_degree = {}
        for d in degrees:
            rel_cols = []
            for (si, ti, f) in morphisms:
                src = self.objects[si]
                blk = f.block(d)
                for j in range(src.rank(d)):
                    col = [ring.zero()] * self.dims[d]
                    col[self.offsets[d][si] + j] = ring.normalize(-1)
                    for i in range(blk.rows):
                        col[self.offsets[d][ti] + i] = ring.add(
                            col[self.offsets[d][ti] + i], blk.data[i][j])
                    rel_cols.append(tuple(col))
            self.by_degree[d] = _quotient_of_free(ring, self.dims[d], rel_cols)
        gens = []
        for d in degrees:
            pres = self.by_degree[d]
            for i in range(pres.class_count):
                gens.append((f"colim:{d}:{i}", d))
        self.module = GradedModule.from_generators(ring, gens)

    def degree(self, d):
        if d in self.by_degree:
            return self.by_degree[d]
        return DegreePresentation(self.ring, 0, ())

    def rank(self, d):
        return self.degree(d).class_count

    def rank_map(self):
        return {d: p.class_count for d, p in self.by_degree.items() if p.class_count}

    def project(self, d, obj_index, vec):
        """Class coordinates of a vector sitting in object ``obj_index``."""
        if d not in self.by_degree:
            return ()
        full = [self.ring.zero()] * self.dims[d]
        off = self.offsets[d][obj_index]
        for i, x in enumerate(vec):
            full[off + i] = self.ring.normalize(x)
        return self.by_degree[d].project(full)

    def structure_map(self, obj_index) -> GradedMap:
        src = self.objects[obj_index]
        blocks = {}
        for d in src.degrees():
            cols = []
            for j in range(src.rank(d)):
                vec = [self.ring.zero()] * src.rank(d)
                vec[j] = self.ring.one()
                cols.append(self.project(d, obj_index, vec))
            blocks[d] = Matrix.from_columns(self.ring, cols,
                                            self.degree(d).class_count)
        return GradedMap(src, self.module, 0, blocks)


def _quotient_of_free(ring, dim, rel_cols):
    """Presentation of R^dim / span(rel_cols)."""
    units = Echelon(ring, dim)
    return _presentation(ring, dim, rel_cols,
                         [units.unit(i) for i in range(dim)], False)


def diagram_colimit(obj_modules, morphisms, ring=None) -> DiagramColimit:
    """Colimit of a finite diagram; morphisms are (src_idx, tgt_idx, GradedMap)."""
    obj_modules = list(obj_modules)
    if not obj_modules:
        raise EmptySequence("diagram_colimit of empty diagram")
    ring = ring or obj_modules[0].ring
    return DiagramColimit(ring, obj_modules, list(morphisms))
