"""Depth-truncated localization by mapping cones.

The quotient of a strictly unital category by the subcategory of cones over
chosen degree-0 classes is realized through bar-type hom complexes: chains
through null objects of bounded length, with the differential assembled from
all consecutive-run contractions.  Only H^0 is computed, so each bar complex
holds only its chains of degree -1, 0 and 1.  Each chain, an (objects,
labels) pair of tuples, is its own basis label; no chain is named.  Run work
is shared by what it depends on: the extended category's contraction table
of an object tuple (``AInfCategory.contractions``) is filled once for all
its inputs; a word's own runs, built from its prefix's, once per quotient;
a run through one end once per (end object, the nulls and labels it
touches); so a bar adds per chain only target slots and signs, and no run
longer than the largest operation arity is visited.  Each block of the
differential is written straight in ``Echelon``'s vector form (bitsets over
F2, ``{index: scalar}`` dicts otherwise): its terms are collected as
(target, source, sign exponent, scalar) entries and summed into rows once,
by the field's vector space.  H^0 ranks come by rank-nullity, at the depth
and the depth below from one elimination of the rows of d^-1, and are
reported per depth with a stabilization certificate, never a convergence
claim; of the map H^0 hom(x, y) -> H^0 of the quotient only the subspace it
kills is kept, read off the same elimination, with the degree-0
representatives of the H-category.
"""

from __future__ import annotations

from bisect import bisect_right

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
    of the nulls, each with its words as (id, labels, degree sum) in product
    order of the label lists; ``words[id]`` is (objects, labels, label
    degrees, degree sum).
    Every piece of run work is done once per quotient and kept by the data
    it depends on.  The runs inside a word are those of its prefix one
    label shorter, shared by (objects, labels) since a prefix may lie
    outside the degree window, plus the runs through its last label; they
    are built for every word at once, ``own[id]`` keeping them by target
    word id.  A run through one end is kept, on first use, by the end
    object and the side it touches, the word's first r nulls and labels
    or its last r (with arity 2: x, b_1, b_2, l_1 or b_{k-1}, b_k, l_{k-1},
    y), with the free end label as key; a word adds to it only its own
    target id and the sign of its labels before the run.
    """

    def __init__(self, cat: AInfCategory, nulls, depth: int, degree: int,
                 sources, targets):
        self.cat = cat
        self.groups = []
        self.words = []
        self.ids = {}       # (objects, labels) -> word id
        self.arity = cat.max_arity()
        self._ends = {}     # x or y -> {side id: runs by the free label}
        self._labels = {}   # (a, b) -> the numbered labels of hom(a, b)

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
        runs, sides = {}, {}
        self.own = [self._own(word, runs, sides) for word in self.words]
        self.sides = list(sides)    # id -> (nulls, labels, degrees, 0 | -1)

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
        members = []
        for labs, degs, t in partial:
            if lo <= t <= hi:
                self.ids[(objs, labs)] = len(self.words)
                members.append((len(self.words), labs, t))
                self.words.append((objs, labs, degs, t))
        if members:
            self.groups.append((objs, tuple(members)))

    def _runs_of(self, objs, labels, degs, runs):
        """The contractions of runs of ``labels`` along ``objs``, as (target
        objects, target labels, sign exponent, scalar), kept in ``runs``."""
        hit = runs.get((objs, labels))
        if hit is None:
            hit = []
            if labels:
                b, w, n = objs[-1], labels[-1], len(labels)
                for o, l, e, c in self._runs_of(objs[:-1], labels[:-1],
                                                degs[:-1], runs):
                    hit.append((o + (b,), l + (w,), e, c))
                for i in range(max(0, n - self.arity), n):
                    out = self.cat.contractions(objs[i:]).get(labels[i:])
                    if out:
                        e = _sign_exponent(degs[:i], degs[i:])
                        o = objs[:i + 1] + (b,)
                        for mid, c in out.items():
                            hit.append((o, labels[:i] + (mid,), e, c))
            hit = runs[(objs, labels)] = tuple(hit)
        return hit

    def _own(self, word, runs, sides):
        """The word's own runs, as (target word id, sign exponent, scalar),
        and, for 1 <= r <= arity, its first r nulls, labels and degrees as
        (side id, target word id of the run through them, 0) and its last r
        as (side id, target word id, sign exponent of the labels before
        them), numbered through ``sides``.  A target outside the window is
        None: no chain of degree n or below meets it."""
        objs, labels, degs, _ = word
        ids, k = self.ids, len(objs)
        inner = []
        for o, l, e, c in self._runs_of(objs, labels, degs, runs):
            tw = ids.get((o, l))
            if tw is not None:
                inner.append((tw, e, c))
        fronts, backs = [], []
        for r in range(1, min(k, self.arity) + 1):
            front = (objs[:r], labels[:r - 1], degs[:r - 1], 0)
            back = (objs[k - r:], labels[k - r:], degs[k - r:], -1)
            fronts.append((sides.setdefault(front, len(sides)),
                           ids.get((objs[r - 1:], labels[r - 1:])), 0))
            backs.append((sides.setdefault(back, len(sides)),
                          ids.get((objs[:k - r + 1], labels[:k - r])),
                          sum(degs[:k - r]) - (k - r)))
        # tuples of numbers, which the garbage collector stops tracking
        return tuple(inner), tuple(fronts), tuple(backs)

    def labels(self, a, b):
        """The labels of hom(a, b), degrees ascending, numbered in that
        order: [(label, number, degree)] and {label: (number, degree)},
        read once per quotient for all its bars."""
        hit = self._labels.get((a, b))
        if hit is None:
            mod = self.cat.hom(a, b)
            listing = [(lab, i, d) for i, (lab, d) in enumerate(
                (lab, d) for d in mod.degrees() for lab in mod.labels(d))]
            hit = self._labels[(a, b)] = (
                listing, {lab: (i, d) for lab, i, d in listing})
        return hit

    def _end(self, end, sid):
        """The contractions from x = ``end`` through a first label and a
        word's first nulls and labels, or through its last ones and a last
        label to y = ``end``, as {that label's number: (sign exponent,
        [(output's number, scalar)])}, numbered as ``labels`` numbers their
        homs."""
        objs, labels, degs, at = self.sides[sid]
        objs = (end,) + objs if at == 0 else objs + (end,)
        hit = self._ends.setdefault(end, {})[sid] = {}
        free = self.labels(*(objs[:2] if at == 0 else objs[-2:]))[1]
        to = self.labels(objs[0], objs[-1])[1]
        for inputs, out in self.cat.contractions(objs).items():
            if (inputs[1:] if at == 0 else inputs[:-1]) == labels:
                i, d = free[inputs[at]]
                hit[i] = (_sign_exponent((), (d,) + degs if at == 0 else degs + (d,)),
                          tuple((to[mid][0], c) for mid, c in out.items()))
        return hit

    def runs(self, x, wid, y):
        """The runs of a word in the bar from x to y: its own runs, as
        (target word id, sign exponent, scalar); those from x through a
        first label and its first labels, as (runs by first label's number,
        target word id, 0); and those from its last labels through a last
        label to y, as (runs by last label's number, target word id, sign
        exponent of its labels before them).  In a chain whose first label
        has degree d_0 the sign exponents of the first and the last kind
        gain d_0 - 1.  A run into a word outside the window meets no chain
        of degree n or below, so it is left out."""
        inner, fronts, backs = self.own[wid]
        left, right = [], []
        for end, sides, out in ((x, fronts, left), (y, backs, right)):
            known = self._ends.get(end, {})
            for sid, tw, e in sides:
                runs = known.get(sid)
                if runs is None:
                    runs = self._end(end, sid)
                if runs and tw is not None:
                    out.append((runs, tw, e))
        return inner, left, right


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
    consecutive runs through the category's contraction tables with the
    Koszul signs of the global convention.  Runs inside a word and through
    one end are shared by the quotient's bars (see ``NullWords``); a bar
    reads the label lists of hom(X, b) and hom(b, Y) once per null, a
    word's runs once per word and their targets once per (first label,
    word), and per chain only target slots, found by integer keys, and
    signs.
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
        basis, slots, direct, groups = self._build_chains(words)
        self.module = GradedModule(self.ring, basis)
        self.differential = self._build_differential(words, slots, direct,
                                                     groups)
        self.complex = Complex(self.module, self.differential)

    def _build_chains(self, words: NullWords):
        """Shortest first, then in the product order of the nulls and of the
        label lists; each chain is its own basis label.

        Numbering the labels of each hom(x, b) and hom(b, y) as
        ``NullWords.labels`` does, f < F and g < G, the chain (first label f,
        word w, last label g) has the key (w F + f) G + g.  Returns the
        chains of each degree; the index of each chain in its degree, as
        {label: index} for the chains without nulls and {key: index} for the
        others, with F and G; and the chains of degree at most n: the direct
        ones as (degree, index, label) and the others as {word id: [(first
        label, its number and degree, [(degree, index, last label, its
        number and degree)])]}, degrees ascending."""
        x, y, n, chains = self.x, self.y, self.degree, self.chains
        basis, lone, slot = {n - 1: [], n: [], n + 1: []}, {}, {}
        direct, groups = [], {}
        for lab, _, d in words.labels(x, y)[0]:
            if n - 1 <= d <= n + 1:
                lone[lab] = j = len(basis[d])
                chain = ((x, y), (lab,))
                basis[d].append(chain)
                chains.append(chain)
                if d <= n:
                    direct.append((d, j, lab))
        firsts = {b: words.labels(x, b)[0] for b in self.nulls}
        lasts = {b: words.labels(b, y)[0] for b in self.nulls}
        F = max(map(len, firsts.values()), default=1) or 1
        G = max(map(len, lasts.values()), default=1) or 1
        for mids, members in words.groups:
            k, first, ends = len(mids), firsts[mids[0]], lasts[mids[-1]]
            if not first or not ends:
                continue
            lo, hi = n - 1 + k, n + 1 + k
            objs = (x,) + mids + (y,)
            end_min, end_max = ends[0][2], ends[-1][2]
            for l0, f, d0 in first:
                for wid, wl, wdeg in members:
                    t = d0 + wdeg
                    if t + end_max < lo or t + end_min > hi:
                        continue
                    labels, base, tails = (l0,) + wl, (wid * F + f) * G, []
                    for lk, g, dk in ends:
                        if lo <= t + dk <= hi:
                            d = t + dk - k
                            slot[base + g] = j = len(basis[d])
                            chain = (objs, labels + (lk,))
                            basis[d].append(chain)
                            chains.append(chain)
                            if d <= n:
                                tails.append((d, j, lk, g, dk))
                    if tails:
                        starts = groups.get(wid)
                        if starts is None:
                            starts = groups[wid] = []
                        starts.append((l0, f, d0, tails))
        return basis, (lone, slot, F, G), direct, groups

    def _build_differential(self, words: NullWords, slots, direct,
                            groups) -> GradedMap:
        """The blocks of d on degrees n - 1 and n, written straight in
        ``Echelon``'s vector form; a block into a degree without chains is
        zero and its chains are not visited.

        Each term of d(chain) is one entry (target index, source index,
        Koszul sign exponent, scalar) of its source degree's block: a word's
        runs are read once per word, their target keys and the runs through
        the first label once per (first label, word), the runs through the
        last label once per chain, and the whole chain is contracted when it
        is short enough.  ``Matrix.from_entries`` then sums each block's
        entries into rows, so the sign stays a parity until a field other
        than F2 applies it.
        """
        x, y, cat, module = self.x, self.y, self.cat, self.module
        lone, slot, F, G = slots
        entries = {d: [] for d in (self.degree - 1, self.degree)
                   if module.rank(d + 1)}
        runs = cat.contractions((x, y))
        for d, j, lab in direct:
            if d in entries:
                for mid, c in runs.get((lab,), {}).items():
                    entries[d].append((lone[mid], j, 0, c))
        # explicit loops: most of these lists hold one or two items
        for wid, starts in groups.items():
            inner, left, right = words.runs(x, wid, y)
            mids, wl, wdegs, _ = words.words[wid]
            whole = (cat.contractions((x,) + mids + (y,))
                     if len(mids) < words.arity else None)
            for l0, f, d0, tails in starts:
                if tails[0][0] not in entries and tails[-1][0] not in entries:
                    continue
                pre = d0 - 1
                # the runs that keep the last label: (target key but the
                # last label's number, sign exponent, scalar)
                heads = []
                for tw, e, c in inner:
                    heads.append(((tw * F + f) * G, e + pre, c))
                for runs, tw, _ in left:
                    run = runs.get(f)
                    if run:
                        e = run[0]
                        for fm, c in run[1]:
                            heads.append(((tw * F + fm) * G, e, c))
                # the runs that keep the first label: (runs by last label,
                # target key but the new last label's number, exponent)
                rights = []
                for runs, tw, e in right:
                    rights.append((runs, (tw * F + f) * G, e + pre))
                for d, j, lk, g, dk in tails:
                    out = entries.get(d)
                    if out is None:
                        continue
                    for key, e, c in heads:
                        out.append((slot[key + g], j, e, c))
                    for runs, key, e in rights:
                        run = runs.get(g)
                        if run:
                            e += run[0]
                            for gm, c in run[1]:
                                out.append((slot[key + gm], j, e, c))
                    if whole:
                        run = whole.get((l0,) + wl + (lk,))
                        if run:
                            e = _sign_exponent((), (d0,) + wdegs + (dk,))
                            for mid, c in run.items():
                                out.append((lone[mid], j, e, c))
        return GradedMap(module, module, 1, {
            d: Matrix.from_entries(self.ring, es, module.rank(d + 1), module.rank(d))
            for d, es in entries.items() if es})

    def truncate(self, depth: int) -> "BarQuotient":
        """The depth-truncated subcomplex, reusing the computed differential.

        Chains are enumerated shortest first, so the truncated chains are a
        prefix of the full ones, in every degree the truncated basis is a
        prefix of the full one and each truncated block is the leading block
        of the full one.
        """
        def kept(chains):
            return chains[:bisect_right(chains, depth,
                                        key=lambda c: len(c[1]) - 1)]
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


def _h0(bar: BarQuotient, cycles=(), below: BarQuotient = None):
    """(rank of H^0 of ``bar`` by rank-nullity, a Matrix whose kernel is the
    space of combinations of the degree-0 ``cycles`` that are boundaries,
    and the rank of H^0 of its truncation ``below``, or None).  The rows of
    [d^-1 | cycles] are eliminated, the short side of a bar block.  The
    echelon rows whose pivot lies in the cycle columns are the combinations
    of rows that clear d^-1, so their cycle parts span the functionals that
    vanish on the image of d^-1: a combination of the cycles is a boundary
    exactly when each of them kills it.  A chain's runs never add a null,
    so the leading columns of d^-1, the chains of ``below``, have no entry
    below its rows, and the rank of its d^-1 is the number of pivots among
    them: one elimination gives both ranks."""
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

    def rank(sub, cols):
        return (sub.module.rank(0) - sub.differential.block(0).rank()
                - sum(p < cols for p in ech.pivots))
    space = vectors(bar.ring, m)
    return (rank(bar, n), Matrix(bar.ring, [space.sparse(e) for e in dual], m),
            None if below is None else rank(below, below.module.rank(-1)))


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
            rank, self.killed[(a, b)], below = _h0(
                bar, reps, bar.truncate(depth - 1) if depth else None)
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
