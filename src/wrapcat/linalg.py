"""Exact graded linear algebra over a field: graded modules, chain complexes,
cohomology presentations, diagram colimits.

A graded object is anything with a ``ring``, ``rank(d)`` and ``degrees()``
(the degrees of nonzero rank, ascending): a labelled ``GradedModule`` or an
unlabelled ``CohomologyPresentation``, of which ``DiagramColimit`` is one.

Cohomology presentations are canonical for a fixed basis order: each class
representative is reduced against the echelon basis of the boundaries.  All
operations are deterministic pure functions.
"""

from __future__ import annotations

from .errors import NotAComplex, ShapeMismatch
from .matrices import Echelon, Matrix, vectors
from .rings import CoefficientRing

__all__ = [
    "GradedModule", "GradedMap", "Complex", "CohomologyPresentation",
    "DiagramColimit", "cohomology", "compose_graded_maps",
]


class GradedModule:
    """Finitely supported Z-graded free module with named, ordered bases."""

    __slots__ = ("ring", "basis", "_locate")

    def __init__(self, ring: CoefficientRing, basis):
        self.ring = ring
        self.basis = {int(d): tuple(labels) for d, labels in sorted(basis.items())
                      if len(labels) > 0}
        self._locate = None     # label -> (degree, index), on first lookup
        flat = [lab for labels in self.basis.values() for lab in labels]
        if len(set(flat)) < len(flat):
            dup = next(lab for i, lab in enumerate(flat) if lab in flat[:i])
            raise ShapeMismatch(f"duplicate basis label {dup!r}")

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
        return list(self.basis)

    def rank(self, d: int) -> int:
        return len(self.basis.get(d, ()))

    def labels(self, d: int):
        return self.basis.get(d, ())

    def _index(self):
        if self._locate is None:
            self._locate = {lab: (d, i) for d, labels in self.basis.items()
                            for i, lab in enumerate(labels)}
        return self._locate

    def degree_of(self, label: str) -> int:
        return self._index()[label][0]

    def index_of(self, label: str) -> int:
        return self._index()[label][1]

    def has_label(self, label: str) -> bool:
        return label in self._index()

    def is_zero(self) -> bool:
        return not self.basis

    def __eq__(self, other):
        return (isinstance(other, GradedModule) and self.ring == other.ring
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.basis.items()))))

    def __repr__(self):
        return f"GradedModule({ {d: len(v) for d, v in self.basis.items()} })"


class GradedMap:
    """Degree-homogeneous map between graded objects (``ring``,
    ``rank(d)``, ``degrees()``), stored blockwise.

    ``blocks[d]`` sends the degree-d part of the source into degree
    ``d + self.degree`` of the target; missing blocks are zero.  Only
    ``from_entries`` and ``apply_label`` read basis labels, so they need
    labelled ``GradedModule`` ends.
    """

    __slots__ = ("source", "target", "degree", "blocks")

    def __init__(self, source, target, degree: int, blocks):
        self.source = source
        self.target = target
        self.degree = int(degree)
        self.blocks = {}
        for d, blk in sorted(blocks.items()):
            want = (target.rank(d + self.degree), source.rank(d))
            if (blk.rows, blk.cols) != want:
                raise ShapeMismatch(
                    f"block at degree {d}: got {blk.rows}x{blk.cols}, want {want[0]}x{want[1]}")
            if not blk.is_zero():
                self.blocks[int(d)] = blk

    @staticmethod
    def zero(source, target, degree: int = 0) -> "GradedMap":
        return GradedMap(source, target, degree, {})

    @staticmethod
    def identity(module) -> "GradedMap":
        return GradedMap(module, module, 0,
                         {d: Matrix.identity(module.ring, module.rank(d))
                          for d in module.degrees()})

    @staticmethod
    def from_entries(source: GradedModule, target: GradedModule, degree: int,
                     entries) -> "GradedMap":
        """Build from (source_label, target_label, scalar) triples; entries
        at the same position add up."""
        ring = source.ring
        acc = {}    # source degree -> [(target index, source index, 0, scalar)]
        for src_lab, tgt_lab, scalar in entries:
            d = source.degree_of(src_lab)
            dt = target.degree_of(tgt_lab)
            if dt != d + degree:
                raise ShapeMismatch(
                    f"entry {src_lab}->{tgt_lab} violates degree {degree}")
            c = ring.normalize(scalar)
            if c:
                acc.setdefault(d, []).append(
                    (target.index_of(tgt_lab), source.index_of(src_lab), 0, c))
        return GradedMap(source, target, degree, {
            d: Matrix.from_entries(ring, es, target.rank(d + degree),
                                   source.rank(d))
            for d, es in acc.items()})

    def block(self, d: int) -> Matrix:
        if d in self.blocks:
            return self.blocks[d]
        return Matrix.zero(self.source.ring, self.target.rank(d + self.degree),
                           self.source.rank(d))

    def apply_label(self, label: str):
        """Image of a basis element as {target_label: scalar}."""
        d = self.source.degree_of(label)
        tlabels = self.target.labels(d + self.degree)
        return {tlabels[i]: x for i, x in
                self.block(d).column(self.source.index_of(label)).items()}

    def add(self, other: "GradedMap") -> "GradedMap":
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            raise ShapeMismatch("graded map addition mismatch")
        ds = sorted(set(self.blocks) | set(other.blocks))
        return GradedMap(self.source, self.target, self.degree,
                         {d: self.block(d).add(other.block(d)) for d in ds})

    def scale(self, c) -> "GradedMap":
        return GradedMap(self.source, self.target, self.degree,
                         {d: blk.scale(c) for d, blk in self.blocks.items()})

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return False
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            return False
        ds = set(self.blocks) | set(other.blocks)
        return all(self.block(d) == other.block(d) for d in ds)

    def is_isomorphism(self) -> bool:
        """Exact graded isomorphism test (square invertible blocks)."""
        degs = set(self.source.degrees()) | {d - self.degree for d in self.target.degrees()}
        return all(self.block(d).is_invertible() for d in degs)


def compose_graded_maps(f: GradedMap, g: GradedMap) -> GradedMap:
    """The composite g after f.  Degrees add; blocks are matrix products."""
    if f.target != g.source:
        raise ShapeMismatch("compose_graded_maps: target(f) != source(g)")
    degree = f.degree + g.degree
    blocks = {d: g.block(d + f.degree).mul(f.block(d)) for d in f.source.degrees()}
    return GradedMap(f.source, g.target, degree, blocks)


class Complex:
    """Graded module with a square-zero differential of degree +1."""

    __slots__ = ("module", "differential")

    def __init__(self, module: GradedModule, differential: GradedMap):
        if differential.source != module or differential.target != module:
            raise ShapeMismatch("differential endpoints must equal the module")
        if differential.degree != 1:
            raise ShapeMismatch("differential must have degree +1")
        self.module = module
        self.differential = differential

    def check(self):
        """Raise NotAComplex with the first offending basis element if d*d != 0."""
        d = self.differential
        for deg in self.module.degrees():
            j = d.block(deg + 1).mul(d.block(deg)).first_nonzero_column()
            if j is not None:
                lab = self.module.labels(deg)[j]
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
        space = vectors(self.ring, self.module_rank)
        return self.project_sparse(space.pack(
            tuple(self.ring.normalize(x) for x in cycle)))

    def project_sparse(self, cycle):
        """``project`` of a cycle given as a sparse vector."""
        if not self.reps:
            return ()
        bound, coords = self._echelons
        dim, neg = self.module_rank, self.ring.neg
        rest = coords.reduce(bound.reduce(cycle))
        if rest and coords.lead(rest) < dim:
            raise NotAComplex("vector is not a cycle")
        out = [self.ring.zero()] * len(self.reps)
        for j, x in coords.items(rest):
            out[j - dim] = neg(x)
        return tuple(out)


class CohomologyPresentation:
    """Graded quotient with canonical representatives and projections, one
    ``DegreePresentation`` per degree; a degree without one is zero.

    A graded object (``ring``, ``rank(d)``, ``degrees()``) whose rank in
    degree d is the class count there, so graded maps and colimits join
    presentations as they join modules.  It has no basis labels: a map
    built with ``from_entries`` or read with ``apply_label`` needs a
    labelled ``GradedModule``."""

    __slots__ = ("ring", "by_degree")

    def __init__(self, ring, by_degree):
        self.ring = ring
        self.by_degree = dict(sorted(by_degree.items()))

    def degree(self, d: int) -> DegreePresentation:
        if d in self.by_degree:
            return self.by_degree[d]
        return DegreePresentation(self.ring, 0, ())

    def degrees(self):
        return [d for d, pres in self.by_degree.items() if pres.class_count]

    def rank(self, d: int) -> int:
        return self.degree(d).class_count

    def rank_map(self):
        """{degree: rank} over the degrees of nonzero rank."""
        return {d: self.rank(d) for d in self.degrees()}


def _presentation(ring, dim, relations, candidates, reduce_reps):
    """ring^dim / span(relations).  The representatives are the candidates
    independent modulo the relations and the candidates before them (all
    sparse vectors); with ``reduce_reps`` each is reduced to be zero at
    every relation pivot, so equal classes yield equal representatives."""
    bound = Echelon(ring, dim)
    for rel in relations:
        bound.insert(rel)
    chooser = bound.copy()
    reps = [bound.reduce(z) if reduce_reps else z for z in candidates
            if chooser.insert(z) is not None]
    # a class's coordinates c: a cycle reduced modulo the relations is
    # sum c_i rep_i, and [cycle | 0] reduces against [rep_i | e_i] to [0 | -c]
    coords = Echelon(ring, dim + len(reps))
    for i, rep in enumerate(reps):
        coords.insert(coords.axpy(bound.reduce(rep), 1, coords.unit(dim + i)))
    return DegreePresentation(ring, dim, [bound.unpack(r) for r in reps],
                              echelons=(bound, coords))


def cohomology(c: Complex) -> CohomologyPresentation:
    """Cohomology presentation of a complex in every degree of its module;
    raises NotAComplex if d*d != 0."""
    c.check()
    ring = c.module.ring
    by_degree = {}
    for d in c.module.degrees():
        d_out = c.differential.block(d)
        by_degree[d] = _presentation(
            ring, d_out.cols, c.differential.block(d - 1).columns(),
            d_out.echelon().kernel(), True)
    return CohomologyPresentation(ring, by_degree)


class DiagramColimit(CohomologyPresentation):
    """Colimit of a finite diagram of graded objects (``ring``, ``rank(d)``,
    ``degrees()``), as an exact quotient.

    Presented per degree by a quotient of the direct sum of all objects;
    representatives are chosen standard basis vectors.  The colimit is
    itself a graded object: ``structure_map(i)`` embeds object ``i`` into
    it, and ``map_to`` maps it to another colimit.  The empty diagram has
    the zero colimit.
    """

    __slots__ = ("objects", "offsets", "dims", "_structure")

    def __init__(self, ring, objects, morphisms):
        """morphisms: a list of (src_index, tgt_index, GradedMap)."""
        self.objects = list(objects)
        self._structure = {}    # object index -> structure map, built once
        self.offsets, self.dims, by_degree = {}, {}, {}
        for d in sorted({d for m in self.objects for d in m.degrees()}):
            offs, total = [], 0
            for m in self.objects:
                offs.append(total)
                total += m.rank(d)
            self.offsets[d], self.dims[d] = offs, total
            sparse = vectors(ring, total).sparse
            relations = []      # f(v) - v for each basis vector v
            for (si, ti, f) in morphisms:
                blk = f.block(d)
                for j in range(blk.cols):
                    rel = {offs[si] + j: ring.normalize(-1)}
                    for i, x in blk.column(j).items():
                        k = offs[ti] + i
                        rel[k] = ring.add(rel.get(k, ring.zero()), x)
                    relations.append(sparse(rel))
            by_degree[d] = _quotient_of_free(ring, total, relations)
        super().__init__(ring, by_degree)

    def project(self, d, obj_index, vec):
        """Class coordinates of a vector sitting in object ``obj_index``."""
        rank = self.objects[obj_index].rank(d)
        if len(vec) != rank:
            raise ShapeMismatch(f"projection: object {obj_index} has rank {rank} "
                                f"in degree {d}, not {len(vec)}")
        if d not in self.by_degree:
            return ()
        off, normalize = self.offsets[d][obj_index], self.ring.normalize
        sparse = vectors(self.ring, self.dims[d]).sparse
        return self.by_degree[d].project_sparse(
            sparse({off + i: normalize(x) for i, x in enumerate(vec)}))

    def structure_map(self, obj_index) -> GradedMap:
        if obj_index in self._structure:
            return self._structure[obj_index]
        src = self.objects[obj_index]
        blocks = {}
        for d in src.degrees():
            pres, off = self.degree(d), self.offsets[d][obj_index]
            units = vectors(self.ring, self.dims[d])
            cols = [pres.project_sparse(units.unit(off + j))
                    for j in range(src.rank(d))]
            blocks[d] = Matrix.from_columns(self.ring, cols, pres.class_count)
        self._structure[obj_index] = GradedMap(src, self, 0, blocks)
        return self._structure[obj_index]

    def map_to(self, target: "DiagramColimit", levelwise):
        """The map colim(self) -> colim(target) induced by levelwise maps.

        ``levelwise(d, i, v)`` sends a nonzero degree-d vector ``v`` of
        object ``i`` to ``(j, w)``, a vector ``w`` of target object ``j``;
        each class representative is split over the objects.  None when any
        call returns None.
        """
        ring = self.ring
        blocks = {}
        for d, pres in self.by_degree.items():
            offs = self.offsets[d]
            cols = []
            for rep in pres.reps:
                acc = [ring.zero()] * target.rank(d)
                for i, obj in enumerate(self.objects):
                    chunk = rep[offs[i]:offs[i] + obj.rank(d)]
                    if not any(chunk):
                        continue
                    image = levelwise(d, i, chunk)
                    if image is None:
                        return None
                    acc = [ring.add(a, b)
                           for a, b in zip(acc, target.project(d, *image))]
                cols.append(acc)
            blocks[d] = Matrix.from_columns(ring, cols, target.rank(d))
        return GradedMap(self, target, 0, blocks)


def _quotient_of_free(ring, dim, relations):
    """Presentation of R^dim / span(relations)."""
    units = vectors(ring, dim)
    return _presentation(ring, dim, relations,
                         [units.unit(i) for i in range(dim)], False)
