"""Depth-truncated localization by mapping cones.

The quotient of a strictly unital category by the subcategory of cones over
chosen degree-0 classes is realized through bar-type hom complexes: chains
through null objects of bounded length, with the differential assembled from
all consecutive-run contractions.  Only H^0 is computed, so each bar complex
holds only its chains of degree -1, 0 and 1.  H^0 ranks are reported per
depth with a stabilization certificate, never a convergence claim.
"""

from __future__ import annotations

from itertools import product

from .ainf import AInfCategory, HCategory, check_ainf_relations, cone_of_class
from .errors import (HypothesisFailed, NotClosedRepresentative, RelationFailure,
                     ShapeMismatch)
from .linalg import (Complex, GradedMap, GradedModule, cohomology,
                     induced_cohomology_map, sequence_colimit)
from .matrices import Matrix


class BarQuotient:
    """Bar-type hom complex between two objects through null objects, in the
    three degrees around ``degree`` (n) that its cohomology H^n needs.

    Chains are tuples (x_0, .., x_k) with x_l a basis label of
    hom(O_l, O_{l+1}) along X = O_0, b_1, .., b_k, Y = O_{k+1}, nulls b_i;
    a chain sits in degree sum(ext degrees) - k.  Only chains of degree n-1,
    n and n+1 are built, and the differential only on degrees n-1 and n, so
    of the cohomology of ``complex`` only H^n is that of the bar complex.
    The differential contracts consecutive runs through the category's
    operations with the Koszul signs of the global convention.
    """

    def __init__(self, cat: AInfCategory, nulls, x, y, depth: int,
                 degree: int = 0):
        self.cat = cat
        self.ring = cat.ring
        self.nulls = tuple(nulls)
        self.x = x
        self.y = y
        self.depth = int(depth)
        self.degree = int(degree)
        self.chains = []    # (objects tuple, labels tuple)
        self._build_chains()
        self.module = self._build_module()
        self.differential = self._build_differential()
        self.complex = Complex(self.module, self.differential)

    # chain label encoding ----------------------------------------------------

    @staticmethod
    def _encode(objects, labels):
        return "|".join(objects) + "//" + "|".join(labels)

    def _build_chains(self):
        """Shortest first, then in the product order of the label lists; a
        partial chain is dropped once the degrees left to choose cannot bring
        it into the window."""
        for k in range(self.depth + 1):
            lo, hi = self.degree - 1 + k, self.degree + 1 + k
            for mids in product(self.nulls, repeat=k):
                objs = (self.x,) + mids + (self.y,)
                mods = [self.cat.hom(objs[i], objs[i + 1]) for i in range(k + 1)]
                if any(m.is_zero() for m in mods):
                    continue
                rest_min = [sum(min(m.degrees()) for m in mods[i:])
                            for i in range(k + 2)]
                rest_max = [sum(max(m.degrees()) for m in mods[i:])
                            for i in range(k + 2)]
                partial = [((), 0)]
                for i, m in enumerate(mods):
                    partial = [(labs + (lab,), t + d) for labs, t in partial
                               for d in m.degrees() for lab in m.labels(d)
                               if lo - rest_max[i + 1] <= t + d
                               <= hi - rest_min[i + 1]]
                self.chains.extend((objs, labels) for labels, _ in partial)

    def chain_degree(self, objs, labels):
        total = 0
        for i, lab in enumerate(labels):
            total += self.cat.hom(objs[i], objs[i + 1]).degree_of(lab)
        return total - (len(labels) - 1)

    def _build_module(self) -> GradedModule:
        gens = []
        for objs, labels in self.chains:
            gens.append((self._encode(objs, labels), self.chain_degree(objs, labels)))
        return GradedModule.from_generators(self.ring, gens)

    def _build_differential(self) -> GradedMap:
        ring = self.ring
        entries = []
        for objs, labels in self.chains:
            src_label = self._encode(objs, labels)
            if self.module.degree_of(src_label) > self.degree:
                continue
            k = len(labels) - 1
            degs = [self.cat.hom(objs[i], objs[i + 1]).degree_of(labels[i])
                    for i in range(k + 1)]
            for i in range(k + 1):
                for j in range(i, k + 1):
                    run_chain = objs[i:j + 2]
                    out = self.cat.mu(run_chain, labels[i:j + 1])
                    if not out:
                        continue
                    exp = sum(d - 1 for d in degs[:i])
                    exp += sum((j - l) * degs[l] for l in range(i, j + 1))
                    sgn = ring.one() if exp % 2 == 0 else ring.normalize(-1)
                    new_objs = objs[:i + 1] + objs[j + 1:]
                    for mid, c in out.items():
                        new_labels = labels[:i] + (mid,) + labels[j + 1:]
                        entries.append((src_label,
                                        self._encode(new_objs, new_labels),
                                        ring.mul(sgn, c)))
        return GradedMap.from_entries(self.module, self.module, 1, entries)

    def truncate(self, depth: int) -> "BarQuotient":
        """The depth-truncated subcomplex, reusing the computed differential.

        Chains are enumerated shortest first, so in every degree the
        truncated basis is a prefix of the full one and each truncated block
        is the leading block of the full one.
        """
        sub = BarQuotient.__new__(BarQuotient)
        sub.cat = self.cat
        sub.ring = self.ring
        sub.nulls = self.nulls
        sub.x, sub.y = self.x, self.y
        sub.depth = depth
        sub.degree = self.degree
        sub.chains = [(o, l) for (o, l) in self.chains if len(l) - 1 <= depth]
        sub.module = sub._build_module()
        blocks = {d: blk.leading(sub.module.rank(d + 1), sub.module.rank(d))
                  for d, blk in self.differential.blocks.items()}
        sub.differential = GradedMap(sub.module, sub.module, 1, blocks)
        sub.complex = Complex(sub.module, sub.differential)
        return sub


class TruncatedQuotient:
    """H^0 of the quotient for the chosen pairs of non-null objects, at the
    depth and at the depth below it."""

    def __init__(self, extended: AInfCategory, nulls, depth: int, pairs=None):
        self.extended = extended
        self.nulls = tuple(nulls)
        self.depth = int(depth)
        originals = [o for o in extended.objects if o not in set(nulls)]
        self.objects = tuple(originals)
        self.pairs = list(pairs) if pairs is not None else [
            (a, b) for a in self.objects for b in self.objects]
        self.bars = {}          # (x, y, d) -> BarQuotient
        self.homology = {}      # (x, y, d) -> DegreePresentation of H^0
        for (a, b) in self.pairs:
            bar = BarQuotient(extended, self.nulls, a, b, self.depth)
            self.bars[(a, b, self.depth)] = bar
            self.homology[(a, b, self.depth)] = cohomology(
                bar.complex, (0,)).degree(0)
            if self.depth >= 1:
                sub = bar.truncate(self.depth - 1)
                self.bars[(a, b, self.depth - 1)] = sub
                self.homology[(a, b, self.depth - 1)] = cohomology(
                    sub.complex, (0,)).degree(0)

    def h0_rank(self, x, y):
        return self.homology[(x, y, self.depth)].class_count

    def stabilized(self, x, y):
        """H^0 rank equality at consecutive depths (the spec's certificate)."""
        if self.depth == 0:
            return False
        return (self.homology[(x, y, self.depth)].class_count
                == self.homology[(x, y, self.depth - 1)].class_count)

    def localization_map(self, x, y) -> Matrix:
        """The comparison map H^0 hom(x, y) -> H^0 quotient(x, y) on class
        coordinates.  The degree-0 labels of hom(x, y) are the length-0
        chains, which come first in the bar's degree-0 basis, in that order."""
        bar = self.bars[(x, y, self.depth)]
        tgt = self.homology[(x, y, self.depth)]
        src = cohomology(self.extended.hom_complex(x, y), (0,)).degree(0)
        pad = (bar.ring.zero(),) * (bar.module.rank(0) - src.module_rank)
        cols = [tgt.project(rep + pad) for rep in src.reps]
        return Matrix.from_columns(bar.ring, cols, tgt.class_count)


def localize_by_cones(a: AInfCategory, hcat: HCategory, w_classes, depth: int,
                      pairs=None, check_relations=True):
    """Adjoin cones of the canonical representatives of the degree-0 classes
    in ``w_classes`` and assemble the depth-truncated quotient.

    ``w_classes``: iterable of (src, tgt, coords) degree-0 classes of
    ``hcat``.  Returns (TruncatedQuotient, extended category).
    """
    if check_relations:
        rep = check_ainf_relations(a, 3)
        if not rep["passed"]:
            raise RelationFailure(f"relations fail: {rep['violations'][0]}")
    ext = a
    nulls = []
    for n, (src, tgt, coords) in enumerate(w_classes):
        pres = hcat.pres(src, tgt).degree(0)
        if pres.class_count == 0 or not any(c != 0 for c in coords):
            raise NotClosedRepresentative(
                f"class {n} over ({src},{tgt}) has no nonzero representative")
        name = f"cone{n}[{src}>{tgt}]"
        ext = cone_of_class(ext, hcat, name, src, tgt, coords)
        nulls.append(name)
    quo = TruncatedQuotient(ext, nulls, depth, pairs=pairs)
    return quo, ext


def hom_via_wrapping_colimit(a: AInfCategory, w_classes, hcat: HCategory,
                             chain_objects, chain_reps, target,
                             stabilization_window: int = 2):
    """Colimit of hom complexes along a telescope, with the quasi-isomorphism
    hypothesis of the localized-hom comparison checked on the finite prefix.

    ``chain_objects``: X_0, X_1, ..; ``chain_reps[i]``: closed degree-0
    element of hom(X_{i+1}, X_i) as a label->scalar dict.  The telescope
    hom(X_0, target) -> hom(X_1, target) -> .. sends u to
    mu^2(chain_reps[i], u) along (X_{i+1}, X_i, target).

    Each representative is checked, after dropping zero scalars, before any
    transition map is built; a failure raises ``NotClosedRepresentative``
    naming the step:

    - support: every label lies in hom(X_{i+1}, X_i);
    - degree: every label has degree 0;
    - closedness: mu^1 of the representative vanishes.

    Returns a dict with the colimit complex, its cohomology, the
    stabilization flag and the hypothesis verdict.
    """
    ring = a.ring
    if len(chain_reps) != len(chain_objects) - 1:
        raise ShapeMismatch("need one connecting representative per step")
    reps = []
    for i, rep in enumerate(chain_reps):
        pair = (chain_objects[i + 1], chain_objects[i])
        mod = a.hom(*pair)
        rep = {k: ring.normalize(v) for k, v in rep.items()
               if not ring.is_zero(ring.normalize(v))}
        for lab in rep:
            if not mod.has_label(lab):
                raise NotClosedRepresentative(
                    f"chain representative {i}: label {lab!r} not in hom{pair}")
            if mod.degree_of(lab) != 0:
                raise NotClosedRepresentative(
                    f"chain representative {i}: label {lab!r} in hom{pair} "
                    f"has degree {mod.degree_of(lab)}, not 0")
        if a.mu_element(pair, [rep]):
            raise NotClosedRepresentative(
                f"chain representative {i} in hom{pair} is not closed")
        reps.append(rep)
    chain_reps = reps

    def transition_maps(k):
        mods = [a.hom(xo, k) for xo in chain_objects]
        maps = []
        for i, rep in enumerate(chain_reps):
            entries = []
            src = mods[i]
            chain = (chain_objects[i + 1], chain_objects[i], k)
            for d in src.degrees():
                for lab in src.labels(d):
                    img = a.mu_element(chain, [dict(rep), {lab: ring.one()}])
                    for out, v in img.items():
                        entries.append((lab, out, v))
            maps.append(GradedMap.from_entries(src, mods[i + 1], 0, entries))
        return mods, maps

    mods, maps = transition_maps(target)
    colim_mod, structure, stabilized = sequence_colimit(mods, maps,
                                                        stabilization_window)
    colim_cx = a.hom_complex(chain_objects[-1], target)

    hypothesis_failures = []
    for n, (src, tgt, coords) in enumerate(w_classes):
        rep = hcat.rep_dict(src, tgt, 0, coords)
        last = chain_objects[-1]
        entries = []
        m_src = a.hom(last, src)
        for d in m_src.degrees():
            for lab in m_src.labels(d):
                img = a.mu_element((last, src, tgt), [{lab: ring.one()}, dict(rep)])
                for out, v in img.items():
                    entries.append((lab, out, v))
        post = GradedMap.from_entries(m_src, a.hom(last, tgt), 0, entries)
        hm = induced_cohomology_map(post, a.hom_complex(last, src),
                                    a.hom_complex(last, tgt))
        if not hm.is_isomorphism():
            hypothesis_failures.append(
                {"class": n, "pair": [src, tgt],
                 "reason": "colimit comparison along the prefix is not an "
                           "isomorphism"})
    if hypothesis_failures:
        raise HypothesisFailed(str(hypothesis_failures[0]))
    return {
        "module": colim_mod,
        "complex": colim_cx,
        "cohomology": cohomology(colim_cx),
        "structure_maps": structure,
        "stabilized": stabilized,
        "hypothesis_ok": True,
    }
