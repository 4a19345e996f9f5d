"""Depth-truncated localization by mapping cones.

The quotient of a strictly unital category by the subcategory of cones over
chosen degree-0 classes is realized through bar-type hom complexes: chains
through null objects of bounded length, with the differential assembled from
all consecutive-run contractions.  Only H^0 is computed, so each bar complex
holds only its chains of degree -1, 0 and 1.  Each chain, an (objects,
labels) pair of tuples, is its own basis label; no chain is named.  The
words of null objects between the two ends, with their internal
contractions, are built once per quotient and shared by its bars.  Every
contraction is read from the extended category's index
(``AInfCategory.contraction``), which evaluates each distinct run once, and
no run longer than the largest operation arity is visited.  Each block of
the differential is written straight in ``Echelon``'s vector form (bitsets
over F2, ``{index: scalar}`` dicts otherwise): its terms are collected as
(target, source, sign exponent, scalar) entries and summed into rows once,
by the field's vector space.  H^0 ranks come by rank-nullity, each rank
eliminating the rows of its block, and are reported per depth with a
stabilization certificate, never a convergence claim; of the map
H^0 hom(x, y) -> H^0 of the quotient only the subspace it kills is kept,
read off the same elimination as the rank of d^-1, with the degree-0
representatives of the H-category.
"""

from __future__ import annotations

from .ainf import AInfCategory, HCategory, cone_of_class
from .errors import NotClosedRepresentative
from .linalg import Complex, GradedMap, GradedModule
from .matrices import Echelon, Matrix, vectors


def _sign_exponent(before, run):
    """The Koszul sign exponent of contracting labels of degrees ``run``
    that follow labels of degrees ``before`` in a bar chain:
    sum(d - 1 for d in before) + sum((len(run) - 1 - t) * run[t])."""
    exp, weight = sum(before) - len(before), len(run)
    for d in run:
        weight -= 1
        exp += weight * d
    return exp


class NullWords:
    """The words b_1 -> .. -> b_k (1 <= k <= depth) of null objects joined
    by basis labels that the bars of one quotient can use, built once and
    shared by them.

    A word is kept when, with a label of hom(x, b_1) and one of hom(b_k, y)
    for some x in ``sources`` and y in ``targets``, its degree can make a
    chain of degree ``degree`` - 1, ``degree`` or ``degree`` + 1.
    ``groups`` lists the object tuples shortest first and in product order
    of the nulls, each with its word ids in product order of the label
    lists; ``words[id]`` is (objects, labels, label degrees, degree sum).
    The contractions of runs inside a word (``inner``) and of runs through
    one end (``left``, ``right``) are computed on first use and kept, so
    each is evaluated once per quotient, not once per pair and chain.
    """

    def __init__(self, cat: AInfCategory, nulls, depth: int, degree: int,
                 sources, targets):
        self.cat = cat
        self.groups = []
        self.words = []
        self.ids = {}       # (objects, labels) -> word id
        self.arity = cat.max_arity()
        self._inner, self._left, self._right = {}, {}, {}

        def span(mods):
            degs = [d for m in mods for d in m.degrees()]
            return (min(degs), max(degs)) if degs else None
        first = {b: span([cat.hom(x, b) for x in sources]) for b in nulls}
        last = {b: span([cat.hom(b, y) for y in targets]) for b in nulls}
        runs = [()]
        for k in range(1, depth + 1):
            runs = [r + (b,) for r in runs for b in nulls
                    if not r or not cat.hom(r[-1], b).is_zero()]
            for objs in runs:
                f, g = first[objs[0]], last[objs[-1]]
                if f is not None and g is not None:
                    self._add_group(objs, degree - 1 + k - f[1] - g[1],
                                    degree + 1 + k - f[0] - g[0])

    def _add_group(self, objs, lo, hi):
        """The labellings of ``objs`` with degree sum in [lo, hi], in product
        order; a partial labelling is dropped once the degrees left to choose
        cannot bring it into range."""
        mods = [self.cat.hom(objs[i], objs[i + 1]) for i in range(len(objs) - 1)]
        rest_min = [sum(min(m.degrees()) for m in mods[i:])
                    for i in range(len(mods) + 1)]
        rest_max = [sum(max(m.degrees()) for m in mods[i:])
                    for i in range(len(mods) + 1)]
        partial = [((), (), 0)]
        for i, m in enumerate(mods):
            partial = [(labs + (lab,), degs + (d,), t + d)
                       for labs, degs, t in partial
                       for d in m.degrees() for lab in m.labels(d)
                       if lo - rest_max[i + 1] <= t + d <= hi - rest_min[i + 1]]
        ids = []
        for labs, degs, t in partial:
            if lo <= t <= hi:
                self.ids[(objs, labs)] = len(self.words)
                ids.append(len(self.words))
                self.words.append((objs, labs, degs, t))
        if ids:
            self.groups.append((objs, ids))

    def inner(self, wid):
        """The contractions of runs of the word's own labels, as (target
        word id, sign exponent, scalar).  In a chain whose first label has
        degree d_0 the sign exponent gains d_0 - 1."""
        hit = self._inner.get(wid)
        if hit is None:
            objs, labels, degs = self.words[wid][:3]
            hit = self._inner[wid] = []
            for i in range(len(labels)):
                for j in range(i, min(len(labels), i + self.arity)):
                    out = self.cat.contraction(objs[i:j + 2], labels[i:j + 1])
                    if out is None:
                        continue
                    exp = _sign_exponent(degs[:i], degs[i:j + 1])
                    new_objs = objs[:i + 1] + objs[j + 1:]
                    for mid, c in out.items():
                        tw = self.ids[(new_objs,
                                       labels[:i] + (mid,) + labels[j + 1:])]
                        hit.append((tw, exp, c))
        return hit

    def left(self, x, l0, d0, wid):
        """The contractions of runs from x through the first label ``l0``
        (of degree ``d0``) and the first labels of the word, as (new first
        label, target word id, sign exponent, scalar)."""
        key = (x, l0, wid)
        hit = self._left.get(key)
        if hit is None:
            objs, labels, degs = self.words[wid][:3]
            degs = (d0,) + degs
            hit = self._left[key] = []
            for r in range(min(len(objs), self.arity)):
                out = self.cat.contraction((x,) + objs[:r + 1], (l0,) + labels[:r])
                if out is None:
                    continue
                exp = _sign_exponent((), degs[:r + 1])
                tw = wid if r == 0 else self.ids[(objs[r:], labels[r:])]
                hit.extend((mid, tw, exp, c) for mid, c in out.items())
        return hit

    def right(self, wid, lk, dk, y):
        """The contractions of runs from the last labels of the word through
        the last label ``lk`` (of degree ``dk``) to y, as (target word id,
        new last label, sign exponent, scalar).  In a chain whose first
        label has degree d_0 the sign exponent gains d_0 - 1."""
        key = (wid, lk, y)
        hit = self._right.get(key)
        if hit is None:
            objs, labels, degs = self.words[wid][:3]
            k = len(objs)
            hit = self._right[key] = []
            for i in range(max(1, k + 1 - self.arity), k + 1):
                out = self.cat.contraction(objs[i - 1:] + (y,),
                                           labels[i - 1:] + (lk,))
                if out is None:
                    continue
                exp = _sign_exponent(degs[:i - 1], degs[i - 1:] + (dk,))
                tw = wid if i == k else self.ids[(objs[:i], labels[:i - 1])]
                hit.extend((tw, mid, exp, c) for mid, c in out.items())
        return hit


class BarQuotient:
    """Bar-type hom complex between two objects through null objects, in the
    three degrees around ``degree`` (n) that its cohomology H^n needs.

    Chains are pairs ((O_0, .., O_{k+1}), (x_0, .., x_k)) with x_l a basis
    label of hom(O_l, O_{l+1}) along X = O_0, b_1, .., b_k, Y = O_{k+1},
    nulls b_i; a chain sits in degree sum(ext degrees) - k, and the chains
    of each degree, in ``chains`` order, are the basis of ``module``.  Only
    chains of degree n-1, n and n+1 are built, and the differential only on
    degrees n-1 and n, so of the cohomology of ``complex`` only H^n is that
    of the bar complex.
    A chain with k >= 1 nulls is a label of hom(X, b_1), a word of
    ``words`` (a ``NullWords`` for these nulls, depth and degree with X
    among its sources and Y among its targets; built for this pair alone
    when not given) and a label of hom(b_k, Y).  The differential contracts
    consecutive runs through the category's contraction index with the
    Koszul signs of the global convention; runs inside a word and runs
    through one end are evaluated once per quotient, not per chain.
    """

    def __init__(self, cat: AInfCategory, nulls, x, y, depth: int,
                 degree: int = 0, words: NullWords = None):
        self.cat = cat
        self.ring = cat.ring
        self.nulls = tuple(nulls)
        self.x = x
        self.y = y
        self.depth = int(depth)
        self.degree = int(degree)
        if words is None:
            words = NullWords(cat, self.nulls, self.depth, self.degree,
                              (x,), (y,))
        self.chains = []    # (objects tuple, labels tuple)
        basis, slot, direct, groups = self._build_chains(words)
        self.module = GradedModule(self.ring, basis)
        self.differential = self._build_differential(words, slot, direct,
                                                     groups)
        self.complex = Complex(self.module, self.differential)

    def _build_chains(self, words: NullWords):
        """Shortest first, then in the product order of the nulls and of the
        label lists; each chain is its own basis label.

        Returns the chains of each degree, the index of each chain in its
        degree, keyed by (label,) or (first label, word id, last label), and
        the chains of degree at most n: the direct ones as (degree, index,
        label) and the others grouped by first label and word, as (first
        label, its degree, word id, [(degree, index, last label, its
        degree)])."""
        x, y, n = self.x, self.y, self.degree
        chains = self.chains
        basis, slot, direct, groups = {n - 1: [], n: [], n + 1: []}, {}, [], []

        def add(objs, labels, d, key):
            chain = (objs, labels)
            chains.append(chain)
            slot[key] = j = len(basis[d])
            basis[d].append(chain)
            return j

        xy = self.cat.hom(x, y)
        for d in xy.degrees():
            if n - 1 <= d <= n + 1:
                for lab in xy.labels(d):
                    j = add((x, y), (lab,), d, (lab,))
                    if d <= n:
                        direct.append((d, j, lab))
        for mids, ids in words.groups:
            k = len(mids)
            first, last = self.cat.hom(x, mids[0]), self.cat.hom(mids[-1], y)
            if first.is_zero() or last.is_zero():
                continue
            lo, hi = n - 1 + k, n + 1 + k
            objs = (x,) + mids + (y,)
            ends = [(lab, d) for d in last.degrees() for lab in last.labels(d)]
            end_min, end_max = ends[0][1], ends[-1][1]
            for d0 in first.degrees():
                for l0 in first.labels(d0):
                    for wid in ids:
                        _, wl, _, wdeg = words.words[wid]
                        t = d0 + wdeg
                        if t + end_max < lo or t + end_min > hi:
                            continue
                        labels = (l0,) + wl
                        tails = []
                        for lk, dk in ends:
                            if lo <= t + dk <= hi:
                                d = t + dk - k
                                j = add(objs, labels + (lk,), d, (l0, wid, lk))
                                if d <= n:
                                    tails.append((d, j, lk, dk))
                        if tails:
                            groups.append((l0, d0, wid, tails))
        return basis, slot, direct, groups

    def _build_differential(self, words: NullWords, slot, direct,
                            groups) -> GradedMap:
        """The blocks of d on degrees n - 1 and n, written straight in
        ``Echelon``'s vector form.

        Each term of d(chain) is one entry (target index, source index,
        Koszul sign exponent, scalar) of its source degree's block: runs
        inside the word and through the first label are read from ``words``
        once per (first label, word), runs through the last label once per
        chain, and the whole chain is contracted when it is short enough.
        ``Matrix.from_entries`` then sums each block's entries into rows,
        so the sign stays a parity until a field other than F2 applies it.
        """
        x, y = self.x, self.y
        contract = self.cat.contraction
        arity = self.cat.max_arity()
        entries = {d: [] for d in (self.degree - 1, self.degree)}
        for d, j, lab in direct:
            out = contract((x, y), (lab,))
            if out:
                entries[d] += [(slot[(mid,)], j, 0, c) for mid, c in out.items()]
        for l0, d0, wid, tails in groups:
            pre = d0 - 1
            # the runs that keep the last label: (new first label, word, sign
            # exponent, scalar)
            heads = [(l0, tw, e + pre, c) for tw, e, c in words.inner(wid)]
            heads += words.left(x, l0, d0, wid)
            mids, wl, wdegs = words.words[wid][:3]
            whole = len(mids) < arity
            for d, j, lk, dk in tails:
                out = entries[d]
                out += [(slot[(h, tw, lk)], j, e, c) for h, tw, e, c in heads]
                out += [(slot[(l0, tw, mid)], j, e + pre, c)
                        for tw, mid, e, c in words.right(wid, lk, dk, y)]
                if whole:
                    run = contract((x,) + mids + (y,), (l0,) + wl + (lk,))
                    if run:
                        e = _sign_exponent((), (d0,) + wdegs + (dk,))
                        out += [(slot[(mid,)], j, e, c) for mid, c in run.items()]
        module, ring = self.module, self.ring
        return GradedMap(module, module, 1, {
            d: Matrix.from_entries(ring, es, module.rank(d + 1), module.rank(d))
            for d, es in entries.items() if es})

    def truncate(self, depth: int) -> "BarQuotient":
        """The depth-truncated subcomplex, reusing the computed differential.

        Chains are enumerated shortest first, so the truncated chains are a
        prefix of the full ones, in every degree the truncated basis is a
        prefix of the full one and each truncated block is the leading block
        of the full one.
        """
        def kept(chains):
            return chains[:next((i for i, (_, labels) in enumerate(chains)
                                 if len(labels) - 1 > depth), len(chains))]
        sub = BarQuotient.__new__(BarQuotient)
        vars(sub).update(vars(self))
        sub.depth = depth
        sub.chains = kept(self.chains)
        sub.module = GradedModule(sub.ring, {
            d: kept(chains) for d, chains in self.module.basis.items()})
        blocks = {d: blk.leading(sub.module.rank(d + 1), sub.module.rank(d))
                  for d, blk in self.differential.blocks.items()}
        sub.differential = GradedMap(sub.module, sub.module, 1, blocks)
        sub.complex = Complex(sub.module, sub.differential)
        return sub


def _h0(bar: BarQuotient, cycles=()):
    """(rank of H^0 of ``bar`` by rank-nullity, and a Matrix whose kernel is
    the space of combinations of the degree-0 ``cycles`` that are
    boundaries).  The rows of [d^-1 | cycles] are eliminated, the short side
    of a bar block.  The echelon rows whose pivot lies in the cycle columns
    are the combinations of rows that clear d^-1, so their cycle parts span
    the functionals that vanish on the image of d^-1: a combination of the
    cycles is a boundary exactly when each of them kills it."""
    d_in, m = bar.differential.block(-1), len(cycles)
    n = d_in.cols
    ech, dual = Echelon(bar.ring, n + m), []
    for i, row in enumerate(d_in.vecs):
        # the cycles live on the length-0 chains, first in degree 0
        if cycles and i < len(cycles[0]):
            row = ech.axpy(row, 1, ech.sparse(
                {n + j: c[i] for j, c in enumerate(cycles)}))
        p = ech.insert(row)
        if p is not None and p >= n:
            dual.append({j - n: c for j, c in ech.items(ech.row(p))})
    image = sum(p < n for p in ech.pivots)
    space = vectors(bar.ring, m)
    return (bar.module.rank(0) - bar.differential.block(0).rank() - image,
            Matrix(bar.ring, [space.sparse(e) for e in dual], m))


class TruncatedQuotient:
    """H^0 of the quotient for the chosen pairs of non-null objects, at the
    depth and at the depth below it, by rank-nullity: dim C^0 - rank d^0 -
    rank d^-1 of each bar, checked to be a complex.  ``killed[(x, y)]`` is
    a Matrix whose kernel, in the class coordinates of H^0 hom(x, y), is the
    subspace that dies in the quotient: the degree-0 labels of hom(x, y) are
    the length-0 chains, which come first in the bar's degree-0 basis, so a
    class dies when its representative, zero-padded, is a boundary.  The
    representatives are those of ``hcat``, the H-category of the category
    the cones extend, whose homs between non-null objects ``extended``
    keeps.  Each bar is dropped once read, so memory does not grow pair by
    pair with the chains."""

    def __init__(self, extended: AInfCategory, nulls, depth: int,
                 hcat: HCategory, pairs=None):
        nulls = tuple(nulls)
        objects = [o for o in extended.objects if o not in nulls]
        self.pairs = list(pairs) if pairs is not None else [
            (a, b) for a in objects for b in objects]
        self.ranks = {}     # (x, y) -> (H^0 rank at depth, at depth - 1)
        self.killed = {}    # (x, y) -> Matrix whose kernel dies
        words = NullWords(extended, nulls, depth, 0,
                          {a for a, _ in self.pairs}, {b for _, b in self.pairs})
        for (a, b) in self.pairs:
            bar = BarQuotient(extended, nulls, a, b, depth, words=words)
            bar.complex.check()
            reps = hcat.pres(a, b).degree(0).reps
            rank, self.killed[(a, b)] = _h0(bar, reps)
            below = _h0(bar.truncate(depth - 1))[0] if depth else None
            self.ranks[(a, b)] = (rank, below)

    def h0_rank(self, x, y):
        return self.ranks[(x, y)][0]

    def stabilized(self, x, y):
        """H^0 rank equality at consecutive depths (the spec's certificate);
        never at depth 0, which has no depth below."""
        rank, below = self.ranks[(x, y)]
        return rank == below


def adjoin_cones(a: AInfCategory, hcat: HCategory, w_classes):
    """Extend ``a`` by the cones over the canonical representatives of the
    degree-0 classes in ``w_classes``, (src, tgt, coords) classes of
    ``hcat``.  Returns (extended category, cone names); the quotient at any
    depth is ``TruncatedQuotient(extended, names, depth, hcat)``, and
    quotients built on one extension share its contraction index."""
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
    return ext, tuple(nulls)
