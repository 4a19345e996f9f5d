"""Gabriel-Zisman right-fraction calculus at the cohomology level.

A continuation set is a finite collection of degree-0 classes in an
HCategory.  Validation checks the four right-multiplicative-system
conditions exhaustively (with witnesses); localization presents the
fraction category's homs as exact colimits over the continuation slices,
with roof composition through deterministically chosen Ore squares.
"""

from __future__ import annotations

from itertools import product

from .ainf import HCategory
from .errors import NonCofinalPrefix, SystemInvalid
from .linalg import GradedMap, GradedModule, diagram_colimit
from .matrices import Matrix


class ContClass:
    """A degree-0 morphism class, stored by canonical coordinates."""

    __slots__ = ("src", "tgt", "coords")

    def __init__(self, src, tgt, coords):
        self.src = src
        self.tgt = tgt
        self.coords = tuple(coords)

    def key(self):
        return (self.src, self.tgt, tuple(str(c) for c in self.coords))

    def __eq__(self, other):
        return isinstance(other, ContClass) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"ContClass({self.src}->{self.tgt}, {list(self.coords)})"


class CSet:
    """Finite set of continuation classes with canonical ordering."""

    def __init__(self, hcat: HCategory, classes, add_units=True):
        self.hcat = hcat
        items = []
        if add_units:
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
        for c in sorted(items, key=lambda z: z.key()):
            if c.key() not in seen and any(x != 0 for x in c.coords):
                seen.add(c.key())
                self.classes.append(c)
        self._keys = seen

    def __iter__(self):
        return iter(self.classes)

    def __len__(self):
        return len(self.classes)

    def contains(self, src, tgt, coords) -> bool:
        return ContClass(src, tgt, coords).key() in self._keys

    def with_target(self, tgt):
        return [c for c in self.classes if c.tgt == tgt]

    def is_identity(self, c: ContClass) -> bool:
        return (c.src == c.tgt
                and tuple(c.coords) == tuple(self.hcat.identity_coords.get(c.src) or ()))


def _left_null_space(ring, m: Matrix) -> Matrix:
    """Rows spanning {y : y m = 0}."""
    basis = m.transpose().kernel_basis()
    return Matrix(ring, [list(b) for b in basis], cols=m.rows)


def _subspace_covers(ring, constraint: Matrix, space_dim: int, subspace=None):
    """Whether ker(constraint) contains the given subspace (all of R^n if
    ``subspace`` is None)."""
    if subspace is None:
        return constraint.is_zero() or constraint.rows == 0
    for vec in subspace:
        img = constraint.apply(vec)
        if any(x != 0 for x in img):
            return False
    return True


def _enumerate_space(ring, basis):
    """All vectors in the span of ``basis`` over a small finite field."""
    if not basis:
        return [tuple()]
    n = len(basis[0])
    out = []
    for coeffs in product(*([range(ring.p)] * len(basis))):
        v = [ring.zero()] * n
        for c, b in zip(coeffs, basis):
            for i, x in enumerate(b):
                v[i] = ring.add(v[i], ring.mul(c, x))
        out.append(tuple(v))
    return out


def check_right_multiplicative_system(hcat: HCategory, cset: CSet):
    """Exhaustive check of conditions (i)-(iv); each failure carries a witness.

    Zero composites of continuation classes are exempt from the closure
    condition and reported as warnings (see the decisions ledger): a class
    set containing the zero class would collapse the localization.
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
            comp = hcat.compose(c1.src, c1.tgt, c2.tgt, 0, c1.coords, 0, c2.coords)
            if not any(x != 0 for x in comp):
                if not cset.is_identity(c1) and not cset.is_identity(c2):
                    warnings.append({"condition": "ii",
                                     "note": "zero composite exempted",
                                     "pair": [repr(c1), repr(c2)]})
                continue
            if not cset.contains(c1.src, c2.tgt, comp):
                failures["ii"].append({"pair": [repr(c1), repr(c2)],
                                       "composite": [ring.format_scalar(v)
                                                     for v in comp]})
    for c in cset:
        if cset.is_identity(c):
            continue
        lw, l = c.src, c.tgt
        for k in hcat.objects:
            for d in hcat.pres(k, l).degrees():
                ok, witness = _check_ore_square(hcat, cset, c, k, d)
                if not ok:
                    failures["iii"].append({"class": repr(c), "object": k,
                                            "degree": d, "witness": witness})
    for c in cset:
        if cset.is_identity(c):
            continue
        k, kp = c.src, c.tgt
        for l in hcat.objects:
            for d in hcat.pres(l, k).degrees():
                ok, witness = _check_equalization(hcat, cset, c, l, d)
                if not ok:
                    failures["iv"].append({"class": repr(c), "object": l,
                                           "degree": d, "witness": witness})
    passed = not any(failures.values())
    return {"passed": passed, "failures": failures, "warnings": warnings}


def _check_ore_square(hcat: HCategory, cset: CSet, c: ContClass, k, d):
    """Condition (iii) for the class c: L^w -> L, test object k, degree d."""
    ring = hcat.ring
    lw, l = c.src, c.tgt
    n = hcat.class_count(k, l, d)
    if n == 0:
        return True, None
    full_found = False
    kernels = []
    for cp in cset.with_target(k):
        kw = cp.src
        Q = hcat.postcompose_matrix(kw, lw, l, 0, c.coords, d)
        P = hcat.precompose_matrix(kw, k, l, 0, cp.coords, d)
        N = _left_null_space(ring, Q)
        A = N.mul(P) if N.rows else Matrix.zero(ring, 0, n)
        if A.rows == 0 or A.is_zero():
            full_found = True
            break
        kernels.append((cp, A))
    if full_found:
        return True, None
    if ring.kind == "Fp" and ring.p ** n <= 4096:
        for coeffs in product(*([range(ring.p)] * n)):
            g = tuple(ring.normalize(x) for x in coeffs)
            if not any(x != 0 for x in g):
                continue
            if not any(all(x == 0 for x in A.apply(g)) for _, A in kernels):
                return False, {"g": [ring.format_scalar(x) for x in g]}
        return True, None
    return False, {"reason": "no single completing class covers the hom space"}


def _check_equalization(hcat: HCategory, cset: CSet, c: ContClass, l, d):
    """Condition (iv) for c: K -> K', test object l, degree d."""
    ring = hcat.ring
    k, kp = c.src, c.tgt
    n = hcat.class_count(l, k, d)
    if n == 0:
        return True, None
    post = hcat.postcompose_matrix(l, k, kp, 0, c.coords, d)
    U = post.kernel_basis()
    if not U:
        return True, None
    for cp in cset.with_target(l):
        pre = hcat.precompose_matrix(cp.src, l, k, 0, cp.coords, d)
        if _subspace_covers(ring, pre, n, U):
            return True, None
    if ring.kind == "Fp" and ring.p ** len(U) <= 4096:
        for u in _enumerate_space(ring, U):
            if not any(x != 0 for x in u):
                continue
            killed = any(all(x == 0 for x in
                             hcat.precompose_matrix(cp.src, l, k, 0,
                                                    cp.coords, d).apply(u))
                         for cp in cset.with_target(l))
            if not killed:
                return False, {"difference": [ring.format_scalar(x) for x in u]}
        return True, None
    return False, {"reason": "no single class kills the equalizer kernel"}


def ore_complete(hcat: HCategory, cset: CSet, c: ContClass, k, d, g_coords):
    """Deterministic Ore square for the diagram k --g--> l <--c-- l^w.

    Returns (completing class c', g^w coordinates) with c.g^w = g.c' in
    H^d(src(c'), l); the first class in canonical order admitting an exact
    solution wins, and the solution is the canonical one.
    """
    ring = hcat.ring
    lw, l = c.src, c.tgt
    for cp in cset.with_target(k):
        kw = cp.src
        Q = hcat.postcompose_matrix(kw, lw, l, 0, c.coords, d)
        P = hcat.precompose_matrix(kw, k, l, 0, cp.coords, d)
        rhs = P.apply(g_coords)
        sol = Q.solve(rhs)
        if sol is not None:
            return cp, tuple(sol)
    return None, None


class SliceCategory:
    """The wrapping category of an object: continuation classes into it,
    with factorization morphisms, a weakly terminal object and a chosen
    cofinal chain (shortest factorization first, then lexicographic)."""

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
                for e in cset.classes:
                    if e.tgt != ci.src or e.src != cj.src:
                        continue
                    comp = hcat.compose(e.src, e.tgt, obj, 0, e.coords, 0, ci.coords)
                    if tuple(comp) == tuple(cj.coords):
                        self.morphisms.setdefault((i, j), []).append(e)

    def is_filtered(self):
        """Nonempty, pairwise cocones, and parallel-morphism equalization."""
        n = len(self.objects)
        notes = []
        for i in range(n):
            for j in range(n):
                if not any((i, k) in self.morphisms and (j, k) in self.morphisms
                           for k in range(n)):
                    notes.append({"kind": "no-cocone", "pair": [i, j]})
        for (i, j), es in sorted(self.morphisms.items()):
            if len(es) < 2:
                continue
            for a in range(len(es)):
                for b in range(a + 1, len(es)):
                    if not self._equalized(j, es[a], es[b]):
                        notes.append({"kind": "unequalized", "pair": [i, j]})
        return (not notes), notes

    def _equalized(self, j, e1, e2):
        for k in range(len(self.objects)):
            for f in self.morphisms.get((j, k), []):
                c1 = self.hcat.compose(f.src, f.tgt, e1.tgt, 0, f.coords, 0, e1.coords)
                c2 = self.hcat.compose(f.src, f.tgt, e2.tgt, 0, f.coords, 0, e2.coords)
                if tuple(c1) == tuple(c2):
                    return True
        return False

    def weakly_terminal_index(self):
        n = len(self.objects)
        for k in range(n):
            if all((i, k) in self.morphisms for i in range(n)):
                return k
        return None

    def chain(self, depth: int):
        """Cofinal chain of object indices with connecting morphisms.

        [identity, t, t, ..] where t is the first weakly terminal object;
        transitions: the canonically smallest connecting morphism, then
        identity endomorphisms.  Raises NonCofinalPrefix when no weakly
        terminal object exists.
        """
        t = self.weakly_terminal_index()
        if t is None:
            raise NonCofinalPrefix(
                f"slice of {self.obj} has no weakly terminal object")
        indices = [0]
        morphs = []
        if t != 0:
            e = sorted(self.morphisms[(0, t)], key=lambda z: z.key())[0]
            indices.append(t)
            morphs.append(e)
        eid = ContClass(self.objects[t].src, self.objects[t].src,
                        self.hcat.identity_coords[self.objects[t].src])
        while len(indices) < depth + 1:
            indices.append(t)
            morphs.append(eid)
        return indices, morphs


def h_graded_module(hcat: HCategory, x, y, tag=None) -> GradedModule:
    """Materialize H(x, y) as a graded module, one generator per class."""
    pres = hcat.pres(x, y)
    gens = []
    name = tag or f"{x}>{y}"
    for d in pres.degrees():
        for i in range(pres.rank(d)):
            gens.append((f"h[{name}]{d}:{i}", d))
    return GradedModule.from_generators(hcat.ring, gens)


def h_transition_map(hcat: HCategory, e: ContClass, target,
                     src_mod: GradedModule, tgt_mod: GradedModule) -> GradedMap:
    """Precomposition with e as a map H(e.tgt, target) -> H(e.src, target)."""
    blocks = {}
    for d in src_mod.degrees():
        blocks[d] = hcat.precompose_matrix(e.src, e.tgt, target, 0, e.coords, d)
    return GradedMap(src_mod, tgt_mod, 0, blocks)


class FractionCategory:
    """The localized category at H level: objects of the host, homs the
    exact colimits over continuation slices, composition by right roofs."""

    def __init__(self, hcat: HCategory, cset: CSet, depth: int = 4,
                 strict_system: bool = True, validation=None):
        self.hcat = hcat
        self.cset = cset
        self.ring = hcat.ring
        self.objects = hcat.objects
        self.depth = depth
        self.validation = validation or check_right_multiplicative_system(hcat, cset)
        if strict_system and not self.validation["passed"]:
            raise SystemInvalid(f"right multiplicative system invalid: "
                                f"{self.validation['failures']}")
        self.slices = {x: SliceCategory(hcat, cset, x) for x in hcat.objects}
        self.hom_data = {}
        for l in self.objects:
            sl = self.slices[l]
            for k in self.objects:
                mods = [h_graded_module(hcat, c.src, k, tag=f"{i}:{c.src}>{k}")
                        for i, c in enumerate(sl.objects)]
                morphs = []
                for (i, j), es in sorted(sl.morphisms.items()):
                    for e in es:
                        morphs.append((i, j, h_transition_map(hcat, e, k,
                                                              mods[i], mods[j])))
                colim = diagram_colimit(mods, morphs, ring=self.ring)
                self.hom_data[(l, k)] = {"colim": colim, "mods": mods}

    # -- hom access -------------------------------------------------------------

    def colim(self, l, k):
        return self.hom_data[(l, k)]["colim"]

    def rank_map(self, l, k):
        return self.colim(l, k).rank_map()

    def gamma(self, l, k, d, h_coords):
        """Image of an H^d(l, k) class under the localization functor."""
        return self.colim(l, k).project(d, 0, h_coords)

    def class_count(self, l, k, d):
        return self.colim(l, k).rank(d)

    # -- representatives and composition -----------------------------------------

    def represent_at(self, l, k, d, coords, slice_index):
        """H-class at the given slice object mapping to the colimit element."""
        sl = self.slices[l]
        src = sl.objects[slice_index].src
        n = self.hcat.class_count(src, k, d)
        cols = [self.colim(l, k).project(d, slice_index,
                                         self.ring.unit_vector(n, i))
                for i in range(n)]
        m = Matrix.from_columns(self.ring, cols,
                                self.colim(l, k).degree(d).class_count)
        sol = m.solve(tuple(coords))
        return None if sol is None else tuple(sol)

    def tail_index(self, l):
        t = self.slices[l].weakly_terminal_index()
        if t is None:
            raise NonCofinalPrefix(f"slice of {l} has no weakly terminal object")
        return t

    def compose(self, l, k, m, d1, coords1, d2, coords2):
        """Composite of colimit elements via a deterministic Ore square."""
        ring = self.ring
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
                d1 + d2, self._slice_index(l, self.slices[l].objects[t1]), comp)
        cp, gw = ore_complete(self.hcat, self.cset, dcls, t_obj, d1, g)
        if cp is None:
            raise NonCofinalPrefix(
                f"no Ore completion for composition across {k}")
        num = self.hcat.compose(cp.src, dcls.src, m, d1, gw, d2, hrep)
        denom = self._compose_classes(cp, self.slices[l].objects[t1])
        idx = self._slice_index(l, denom)
        if idx is None:
            raise NonCofinalPrefix(
                f"denominator composite left the continuation set over {l}")
        return self.colim(l, m).project(d1 + d2, idx, num)

    def _compose_classes(self, first: ContClass, second: ContClass) -> ContClass:
        comp = self.hcat.compose(first.src, first.tgt, second.tgt, 0,
                                 first.coords, 0, second.coords)
        return ContClass(first.src, second.tgt, comp)

    def _slice_index(self, l, cls: ContClass):
        for i, c in enumerate(self.slices[l].objects):
            if c == cls:
                return i
        return None

    def identity(self, l):
        e = self.hcat.identity_coords[l]
        return self.gamma(l, l, 0, e)

    # -- verification -------------------------------------------------------------

    def check_inverts(self, c: ContClass):
        """gamma(c) must be invertible; the inverse is the roof (c, id)."""
        ring = self.ring
        img = self.gamma(c.src, c.tgt, 0,
                         tuple(c.coords))
        idx = self._slice_index(c.tgt, c)
        if idx is None:
            return {"passed": False, "reason": "class not a slice object"}
        inv = self.colim(c.tgt, c.src).project(
            0, idx, self.hcat.identity_coords[c.src])
        left = self.compose(c.src, c.tgt, c.src, 0, img, 0, inv)
        right = self.compose(c.tgt, c.src, c.tgt, 0, inv, 0, img)
        ok = (left == self.identity(c.src) and right == self.identity(c.tgt))
        return {"passed": ok,
                "left": [ring.format_scalar(x) for x in left],
                "right": [ring.format_scalar(x) for x in right]}

    def verify_axioms(self):
        """Associativity and unitality on all colimit basis classes."""
        failures = []
        for l in self.objects:
            for k in self.objects:
                cl = self.colim(l, k)
                for d in sorted(cl.by_degree):
                    n = cl.degree(d).class_count
                    for i in range(n):
                        u = self.ring.unit_vector(n, i)
                        lu = self.compose(l, l, k, 0, self.identity(l), d, u)
                        ru = self.compose(l, k, k, d, u, 0, self.identity(k))
                        if lu != u:
                            failures.append({"kind": "left-unit", "pair": [l, k],
                                             "degree": d, "class": i})
                        if ru != u:
                            failures.append({"kind": "right-unit", "pair": [l, k],
                                             "degree": d, "class": i})
        for (l, k, m, w) in self._assoc_quadruples():
            for (d1, i, d2, j, d3, t) in self._assoc_classes(l, k, m, w):
                u = self._basis(l, k, d1, i)
                v = self._basis(k, m, d2, j)
                z = self._basis(m, w, d3, t)
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

    def _basis(self, l, k, d, i):
        return self.ring.unit_vector(self.class_count(l, k, d), i)

    def _assoc_quadruples(self):
        for l in self.objects:
            for k in self.objects:
                for m in self.objects:
                    for w in self.objects:
                        yield (l, k, m, w)

    def _assoc_classes(self, l, k, m, w):
        for d1 in sorted(self.colim(l, k).by_degree):
            for i in range(self.class_count(l, k, d1)):
                for d2 in sorted(self.colim(k, m).by_degree):
                    for j in range(self.class_count(k, m, d2)):
                        for d3 in sorted(self.colim(m, w).by_degree):
                            for t in range(self.class_count(m, w, d3)):
                                yield (d1, i, d2, j, d3, t)


def gz_localize(hcat: HCategory, cset: CSet, depth: int = 4,
                strict_system: bool = True) -> FractionCategory:
    """Fraction category of an HCategory at a validated continuation set.

    ``strict_system`` False computes slice colimits even when the Ore
    conditions fail somewhere (used by the bridge checks, which flag the
    validation separately); composition may then raise NonCofinalPrefix.
    """
    return FractionCategory(hcat, cset, depth=depth, strict_system=strict_system)
