"""Gabriel-Zisman right-fraction calculus at the cohomology level.

A continuation set is a finite collection of degree-0 classes in an
HCategory.  Validation checks the four right-multiplicative-system
conditions exhaustively (with witnesses); localization presents the
fraction category's homs as exact colimits over the continuation slices,
with roof composition through deterministically chosen Ore squares.

Conditions (iii) and (iv) are one covering question: for a class c and a
test object x, does a span of classes lie in the union of subspaces, one
per class c' into x?  For the Ore condition (iii) the span is H^d(x, L) and
the subspace of c' holds the g whose square c.g^w = g.c' is solvable, read
from the same maps as ``ore_complete``; for (iv) the span is the kernel of
post-composition with c and the subspace of c' holds the u with u.c' = 0.
The question is answered at once when one subspace holds the whole span,
by enumerating the span over F_p when p^dim <= 4096, and otherwise left
open with a reason.
"""

from __future__ import annotations

from functools import partial
from itertools import product

from .ainf import HCategory
from .errors import NonCofinalPrefix, SystemInvalid
from .linalg import DiagramColimit, GradedMap
from .matrices import Matrix


class ContClass:
    """A degree-0 morphism class, stored by canonical coordinates."""

    __slots__ = ("src", "tgt", "coords", "_key")

    def __init__(self, src, tgt, coords):
        self.src = src
        self.tgt = tgt
        self.coords = tuple(coords)
        self._key = (src, tgt, tuple(str(c) for c in self.coords))

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, ContClass) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"ContClass({self.src}->{self.tgt}, {list(self.coords)})"


class CSet:
    """Finite set of continuation classes with canonical ordering."""

    def __init__(self, hcat: HCategory, classes):
        self.hcat = hcat
        items = []
        for x in hcat.objects:
            e = hcat.identity_coords.get(x)
            if e is not None:
                items.append(ContClass(x, x, e))
        for c in classes:
            if not isinstance(c, ContClass):
                c = ContClass(*c)
            items.append(c)
        seen = set()
        self.classes = []
        self._between = {}  # (src, tgt) -> [class], in canonical order
        for c in sorted(items, key=ContClass.key):
            if c.key() not in seen and any(x != 0 for x in c.coords):
                seen.add(c.key())
                self.classes.append(c)
                self._between.setdefault((c.src, c.tgt), []).append(c)
        self._keys = seen

    def __iter__(self):
        return iter(self.classes)

    def contains(self, src, tgt, coords) -> bool:
        return ContClass(src, tgt, coords).key() in self._keys

    def with_target(self, tgt):
        return [c for c in self.classes if c.tgt == tgt]

    def between(self, src, tgt):
        """The classes src -> tgt, in canonical order."""
        return self._between.get((src, tgt), ())

    def is_identity(self, c: ContClass) -> bool:
        return (c.src == c.tgt
                and tuple(c.coords) == tuple(self.hcat.identity_coords.get(c.src) or ()))

    def compose(self, a: ContClass, b: ContClass) -> ContClass:
        """The composite class (a then b), a.src -> b.tgt."""
        return ContClass(a.src, b.tgt, self.hcat.compose(
            a.src, a.tgt, b.tgt, 0, a.coords, 0, b.coords))


# condition -> (witness key of an uncovered vector, reason when the span is
# too large to enumerate)
_WITNESS = {"iii": ("g", "no single completing class covers the hom space"),
            "iv": ("difference", "no single class kills the equalizer kernel")}


def check_right_multiplicative_system(hcat: HCategory, cset: CSet):
    """Exhaustive check of conditions (i)-(iv); each failure carries a witness.

    Zero composites of continuation classes are exempt from the closure
    condition and reported as warnings: a class set containing the zero
    class would collapse the localization.
    """
    ring = hcat.ring
    failures = {"i": [], "ii": [], "iii": [], "iv": []}
    warnings = []
    for x in hcat.objects:
        e = hcat.identity_coords.get(x)
        if e is None or not cset.contains(x, x, e):
            failures["i"].append({"object": x, "reason": "unit class missing"})
    for c1 in cset:
        for c2 in cset:
            if c1.tgt != c2.src:
                continue
            comp = cset.compose(c1, c2)
            if not any(x != 0 for x in comp.coords):
                if not cset.is_identity(c1) and not cset.is_identity(c2):
                    warnings.append({"condition": "ii",
                                     "note": "zero composite exempted",
                                     "pair": [repr(c1), repr(c2)]})
                continue
            if not cset.contains(comp.src, comp.tgt, comp.coords):
                failures["ii"].append({"pair": [repr(c1), repr(c2)],
                                       "composite": [ring.format_scalar(v)
                                                     for v in comp.coords]})
    for c in cset:
        if cset.is_identity(c):
            continue
        for x in hcat.objects:
            for cond, d, basis, members in _covering_questions(hcat, cset, c, x):
                covered, v = _covers(ring, basis, members)
                if not covered:
                    key, reason = _WITNESS[cond]
                    failures[cond].append({
                        "class": repr(c), "object": x, "degree": d,
                        "witness": ({"reason": reason} if v is None else
                                    {key: [ring.format_scalar(t) for t in v]})})
    passed = not any(failures.values())
    return {"passed": passed, "failures": failures, "warnings": warnings}


def _covering_questions(hcat: HCategory, cset: CSet, c: ContClass, x):
    """Conditions (iii) and (iv) for the class c at the test object x, as
    (condition, degree, basis, membership tests, one per class c' into x):
    the covering questions of the module docstring."""
    ring = hcat.ring
    for d in hcat.pres(x, c.tgt).degrees():
        n = hcat.class_count(x, c.tgt, d)
        yield ("iii", d, [ring.unit_vector(n, i) for i in range(n)],
               (partial(_completes, Q, P)
                for _, Q, P in _ore_maps(hcat, cset, c, x, d)))
    for d in hcat.pres(x, c.src).degrees():
        post = hcat.postcompose_matrix(x, c.src, c.tgt, 0, c.coords, d)
        yield ("iv", d, post.kernel_basis(),
               (partial(_kills, hcat.precompose_matrix(cp.src, x, c.src, 0,
                                                       cp.coords, d))
                for cp in cset.with_target(x)))


def _completes(Q: Matrix, P: Matrix, g):
    return Q.solve(P.apply(g)) is not None


def _kills(pre: Matrix, u):
    return not any(pre.apply(u))


def _covers(ring, basis, members):
    """Whether the span of ``basis`` lies in the union of the subspaces that
    the tests ``members`` decide, read lazily: (True, None) when the span is
    empty or one subspace holds the whole basis.  Otherwise, over F_p with
    p^dim <= 4096, the span is enumerated in product order of coefficients:
    (False, v) for the first v no test accepts, else (True, None).  Beyond
    that, (False, None)."""
    if not basis:
        return True, None
    tested = []
    for member in members:
        if all(member(b) for b in basis):
            return True, None
        tested.append(member)
    if ring.kind != "Fp" or ring.p ** len(basis) > 4096:
        return False, None
    zero = (ring.zero(),) * len(basis[0])
    for coeffs in product(range(ring.p), repeat=len(basis)):
        if not any(coeffs):
            continue
        v = zero
        for a, b in zip(coeffs, basis):
            v = tuple(ring.add(t, ring.mul(a, s)) for t, s in zip(v, b))
        if not any(member(v) for member in tested):
            return False, v
    return True, None


def _ore_maps(hcat: HCategory, cset: CSet, c: ContClass, k, d):
    """(c', Q, P) for each class c': k^w -> k, in canonical order: Q
    post-composes H^d(k^w, L^w) with c: L^w -> L, and P pre-composes
    H^d(k, L) with c'.  The Ore squares c.g^w = g.c' of g in H^d(k, L) are
    the solutions g^w of Q g^w = P g."""
    lw, l = c.src, c.tgt
    for cp in cset.with_target(k):
        yield (cp, hcat.postcompose_matrix(cp.src, lw, l, 0, c.coords, d),
               hcat.precompose_matrix(cp.src, k, l, 0, cp.coords, d))


def ore_complete(hcat: HCategory, cset: CSet, c: ContClass, k, d, g_coords):
    """Deterministic Ore square for the diagram k --g--> l <--c-- l^w.

    Returns (completing class c', g^w coordinates) with c.g^w = g.c' in
    H^d(src(c'), l); the first class in canonical order admitting an exact
    solution wins, and the solution is the canonical one.
    """
    for cp, Q, P in _ore_maps(hcat, cset, c, k, d):
        sol = Q.solve(P.apply(g_coords))
        if sol is not None:
            return cp, tuple(sol)
    return None, None


class SliceCategory:
    """The wrapping category of an object: continuation classes into it,
    with factorization morphisms and the first weakly terminal object."""

    def __init__(self, hcat: HCategory, cset: CSet, obj):
        self.hcat = hcat
        self.cset = cset
        self.obj = obj
        objs = []
        ident = None
        for c in cset.with_target(obj):
            if cset.is_identity(c):
                ident = c
            else:
                objs.append(c)
        if ident is None:
            e = hcat.identity_coords.get(obj)
            if e is None:
                raise SystemInvalid(f"object {obj} has no identity class")
            ident = ContClass(obj, obj, e)
        self.objects = [ident] + objs
        self.morphisms = {}  # (i, j) -> [ContClass e: src_j -> src_i with e.c_i = c_j]
        for i, ci in enumerate(self.objects):
            for j, cj in enumerate(self.objects):
                for e in cset.between(cj.src, ci.src):
                    if cset.compose(e, ci) == cj:
                        self.morphisms.setdefault((i, j), []).append(e)
        self.index = {}     # ContClass.key() -> index of its first slice object
        for i, c in enumerate(self.objects):
            self.index.setdefault(c.key(), i)
        n = len(self.objects)
        self._terminal = next((k for k in range(n)
                               if all((i, k) in self.morphisms for i in range(n))),
                              None)

    def weakly_terminal_index(self):
        """The first object every object maps to, or None."""
        return self._terminal


class FractionCategory:
    """The localized category at H level: objects of the host, homs the
    exact colimits over continuation slices, composition by right roofs.

    The right-multiplicative-system conditions are not checked here: the
    caller checks them (``check_right_multiplicative_system``) where it
    needs them, and where they fail somewhere (the entanglement stages)
    composition may raise NonCofinalPrefix."""

    def __init__(self, hcat: HCategory, cset: CSet):
        self.hcat = hcat
        self.cset = cset
        self.ring = hcat.ring
        self.objects = hcat.objects
        self.slices = {x: SliceCategory(hcat, cset, x) for x in hcat.objects}
        self._colims = {}
        self._composites = {}   # compose arguments -> composite

    # -- hom access -------------------------------------------------------------

    def colim(self, l, k):
        """The colimit of H(-, k) over the slice of l, built on first use:
        its objects are the presentations H(c.src, k) of the slice objects
        c, joined by precomposition with each slice morphism e, a map
        H(e.tgt, k) -> H(e.src, k)."""
        if (l, k) not in self._colims:
            hcat, sl = self.hcat, self.slices[l]
            objs = [hcat.pres(c.src, k) for c in sl.objects]
            morphs = [(i, j, GradedMap(objs[i], objs[j], 0, {
                          d: hcat.precompose_matrix(e.src, e.tgt, k, 0,
                                                    e.coords, d)
                          for d in objs[i].degrees()}))
                      for (i, j), es in sorted(sl.morphisms.items()) for e in es]
            self._colims[(l, k)] = DiagramColimit(self.ring, objs, morphs)
        return self._colims[(l, k)]

    def rank_map(self, l, k):
        return self.colim(l, k).rank_map()

    def gamma(self, l, k, d, h_coords):
        """Image of an H^d(l, k) class under the localization functor."""
        return self.colim(l, k).project(d, 0, h_coords)

    def class_count(self, l, k, d):
        return self.colim(l, k).rank(d)

    def postcomposition(self, l, c: ContClass) -> GradedMap:
        """Post-composition with c as the map colim(l, c.src) -> colim(l, c.tgt).

        Computed levelwise on the slice diagram of l (post-composition
        commutes with the precomposition transitions), so no Ore square is
        needed and the slices need not be filtered.
        """
        objs = self.slices[l].objects

        def levelwise(d, i, v):
            post = self.hcat.postcompose_matrix(objs[i].src, c.src, c.tgt, 0,
                                                c.coords, d)
            return i, post.apply(v)
        return self.colim(l, c.src).map_to(self.colim(l, c.tgt), levelwise)

    # -- representatives and composition -----------------------------------------

    def represent_at(self, l, k, d, coords, slice_index):
        """H-class at the given slice object mapping to the colimit element.
        The structure map is built once per colimit and its block keeps its
        factorization, so each call costs one sparse product."""
        return self.colim(l, k).structure_map(slice_index).block(d).solve(
            tuple(coords))

    def tail_index(self, l):
        t = self.slices[l].weakly_terminal_index()
        if t is None:
            raise NonCofinalPrefix(f"slice of {l} has no weakly terminal object")
        return t

    def compose(self, l, k, m, d1, coords1, d2, coords2):
        """Composite of colimit elements via a deterministic Ore square,
        computed once per argument set."""
        key = (l, k, m, d1, tuple(coords1), d2, tuple(coords2))
        out = self._composites.get(key)
        if out is None:
            out = self._composites[key] = self._compose(*key)
        return out

    def _compose(self, l, k, m, d1, coords1, d2, coords2):
        t1 = self.tail_index(l)
        g = self.represent_at(l, k, d1, coords1, t1)
        if g is None:
            raise NonCofinalPrefix(
                f"colimit element of ({l},{k}) has no representative at the tail")
        t_obj = self.slices[l].objects[t1].src
        t2 = self.tail_index(k)
        hrep = self.represent_at(k, m, d2, coords2, t2)
        if hrep is None:
            raise NonCofinalPrefix(
                f"colimit element of ({k},{m}) has no representative at the tail")
        dcls = self.slices[k].objects[t2]
        if self.cset.is_identity(dcls):
            comp = self.hcat.compose(t_obj, k, m, d1, g, d2, hrep)
            return self.colim(l, m).project(
                d1 + d2, self.slice_index(l, self.slices[l].objects[t1]), comp)
        cp, gw = ore_complete(self.hcat, self.cset, dcls, t_obj, d1, g)
        if cp is None:
            raise NonCofinalPrefix(
                f"no Ore completion for composition across {k}")
        num = self.hcat.compose(cp.src, dcls.src, m, d1, gw, d2, hrep)
        idx = self.slice_index(l, self.cset.compose(cp, self.slices[l].objects[t1]))
        if idx is None:
            raise NonCofinalPrefix(
                f"denominator composite left the continuation set over {l}")
        return self.colim(l, m).project(d1 + d2, idx, num)

    def slice_index(self, l, cls: ContClass):
        """Index of the first object of l's slice that is ``cls``, or None."""
        return self.slices[l].index.get(cls.key())

    def identity(self, l):
        e = self.hcat.identity_coords[l]
        return self.gamma(l, l, 0, e)

    # -- verification -------------------------------------------------------------

    def check_inverts(self, c: ContClass) -> bool:
        """Whether gamma(c) is invertible, its inverse the roof (c, id)."""
        img = self.gamma(c.src, c.tgt, 0, tuple(c.coords))
        idx = self.slice_index(c.tgt, c)
        if idx is None:
            return False
        inv = self.colim(c.tgt, c.src).project(
            0, idx, self.hcat.identity_coords[c.src])
        left = self.compose(c.src, c.tgt, c.src, 0, img, 0, inv)
        right = self.compose(c.tgt, c.src, c.tgt, 0, inv, 0, img)
        return left == self.identity(c.src) and right == self.identity(c.tgt)

    def verify_axioms(self):
        """Associativity and unitality on all colimit basis classes."""
        ring, failures = self.ring, []
        basis = {}  # (l, k) -> [(degree, class index, unit vector)]
        for l, k in product(self.objects, repeat=2):
            cl = self.colim(l, k)
            basis[l, k] = [(d, i, ring.unit_vector(cl.rank(d), i))
                           for d in sorted(cl.by_degree) for i in range(cl.rank(d))]
        for (l, k), classes in basis.items():
            for d, i, u in classes:
                lu = self.compose(l, l, k, 0, self.identity(l), d, u)
                ru = self.compose(l, k, k, d, u, 0, self.identity(k))
                if lu != u:
                    failures.append({"kind": "left-unit", "pair": [l, k],
                                     "degree": d, "class": i})
                if ru != u:
                    failures.append({"kind": "right-unit", "pair": [l, k],
                                     "degree": d, "class": i})
        for l, k, m, w in product(self.objects, repeat=4):
            for (d1, i, u), (d2, j, v), (d3, t, z) in product(
                    basis[l, k], basis[k, m], basis[m, w]):
                lhs = self.compose(l, m, w, d1 + d2,
                                   self.compose(l, k, m, d1, u, d2, v), d3, z)
                rhs = self.compose(l, k, w, d1, u, d2 + d3,
                                   self.compose(k, m, w, d2, v, d3, z))
                if lhs != rhs:
                    failures.append({"kind": "associativity",
                                     "objects": [l, k, m, w],
                                     "degrees": [d1, d2, d3],
                                     "classes": [i, j, t]})
        return {"passed": not failures, "failures": failures}
