"""Independent brute-force oracles for the test and acceptance suites.

These deliberately avoid the library's own code paths: dense Gauss-Jordan
elimination, sparse elimination in Fraction arithmetic and localization by
zigzag-word saturation.  The strict-unit and H-category-axiom checkers
evaluate the library's operations and composition on every basis element.
"""

from fractions import Fraction
from functools import lru_cache, partial
from itertools import product


# -- dense Gauss-Jordan elimination: the reference for the sparse kernel ----


def dense_rref(rows, p=0):
    """(reduced row echelon rows, pivot columns) of a matrix over Q (p = 0,
    entries become Fractions) or F_p, by dense Gauss-Jordan elimination."""
    if p:
        norm, inv = (lambda x: int(x) % p), (lambda x: pow(x, p - 2, p))
    else:
        norm, inv = Fraction, (lambda x: 1 / x)
    m = [[norm(x) for x in r] for r in rows]
    n = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        s = inv(m[r][c])
        m[r] = [norm(s * x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [norm(x - f * y) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def dense_kernel(rows, n, p=0):
    """The RREF kernel basis of an n-column matrix: one vector per free
    column, in column order."""
    red, pivots = dense_rref(rows, p)
    norm = (lambda x: x % p) if p else Fraction
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [norm(0)] * n
        v[fc] = norm(1)
        for r, pc in enumerate(pivots):
            v[pc] = norm(-red[r][fc])
        basis.append(tuple(v))
    return basis


def dense_solve(rows, b, n, p=0):
    """The solution of rows @ x = b (n unknowns) with every free variable 0,
    or None."""
    red, pivots = dense_rref([list(r) + [x] for r, x in zip(rows, b)], p)
    if n in pivots:
        return None
    x = [(Fraction(0) if not p else 0)] * n
    for r, pc in enumerate(pivots):
        x[pc] = red[r][n]
    return tuple(x)


def row_walk_reduce(rows, v):
    """The F2 reduction of the bitset ``v`` against echelon rows ``{pivot:
    row}`` in insertion order, each zero at the pivots stored before it:
    walk every row and clear its pivot where ``v`` has it set."""
    for p, row in rows.items():
        if (v >> p) & 1:
            v ^= row
    return v


def dense_cohomology(d_in_rows, d_out_rows, dim, p=0):
    """ker(d_out) / im(d_in) on the dim-dimensional degree, as
    (representatives, projection).

    The representatives are the kernel basis vectors that are independent
    modulo the boundaries and the vectors chosen before them, each reduced
    against the RREF rows of the boundaries.  The projection sends a cycle
    to its class coordinates (None for a non-cycle) through the solve of
    [boundaries | representatives] x = cycle.
    """
    norm = (lambda x: x % p) if p else Fraction
    kernel = dense_kernel(d_out_rows, dim, p)
    bounds = [list(c) for c in zip(*d_in_rows)] if d_in_rows else []
    chosen = []
    for z in kernel:
        if len(dense_rref(bounds + chosen + [list(z)], p)[1]) > \
                len(dense_rref(bounds + chosen, p)[1]):
            chosen.append(list(z))
    echelon = [r for r in dense_rref(bounds, p)[0] if any(r)]
    reps = []
    for z in chosen:
        for row in echelon:
            piv = next(i for i, x in enumerate(row) if x)
            c = z[piv]
            z = [norm(a - c * b) for a, b in zip(z, row)]
        reps.append(tuple(z))
    cols = bounds + [list(r) for r in reps]

    def project(cycle):
        sol = dense_solve([list(r) for r in zip(*cols)] or [[]] * dim, cycle,
                          len(cols), p)
        return None if sol is None else sol[len(bounds):]
    return reps, project


# -- Fraction elimination: the reference for the integer kernel over Q -------


class FractionEchelon:
    """The sparse echelon basis over Q as it ran before its rows became
    integer vectors: {index: Fraction} rows, each monic at its pivot (its
    lowest index) and zero at every pivot stored before it, eliminated in
    Fraction arithmetic."""

    def __init__(self, n):
        self.n = n
        self.rows = {}      # pivot -> monic row, in insertion order

    @staticmethod
    def axpy(v, c, w):
        """v + c.w"""
        out = dict(v)
        for j, x in w.items():
            y = out.get(j, 0) + c * x
            if y:
                out[j] = y
            else:
                out.pop(j, None)
        return out

    def reduce(self, v):
        for p, row in self.rows.items():
            c = v.get(p, 0)
            if c:
                v = self.axpy(v, -c, row)
        return v

    def insert(self, v):
        """The pivot of the new row; None when v lay in the span."""
        v = self.reduce(v)
        if not v:
            return None
        p = min(v)
        self.rows[p] = self.monic(v, p)
        return p

    @staticmethod
    def monic(v, p):
        inv = 1 / Fraction(v[p])
        return {j: inv * x for j, x in v.items()}

    def rref(self):
        done = {}
        for p in sorted(self.rows, reverse=True):
            v = self.rows[p]
            for q, c in list(v.items()):
                if q in done:
                    v = self.axpy(v, -c, done[q])
            done[p] = v
        return [done[p] for p in sorted(done)]

    def kernel(self):
        """One vector per non-pivot index: its RREF kernel basis."""
        entries = {j: {j: Fraction(1)} for j in range(self.n)
                   if j not in self.rows}
        for v in self.rref():
            p = min(v)
            for j, c in v.items():
                if j != p:
                    entries[j][p] = -c
        return list(entries.values())


# -- twisted operations on cones: the reference for AInfCategory.mu ---------


def _merge(acc, label, scalar, ring):
    v = ring.add(acc.get(label, ring.zero()), scalar)
    if ring.is_zero(v):
        acc.pop(label, None)
    else:
        acc[label] = v


def _summands(cat, x):
    if x in cat.cone_data:
        cx, cy, _ = cat.cone_data[x]
        return ((cx, 1), (cy, 0))
    return ((x, 0),)


def _block_of(cat, pair, label):
    info = cat.block_info.get(pair)
    if info is None:
        return (0, 0, label)
    return info[label]


def _decorate(cat, pair, si, ti, host_label):
    info = cat.block_info.get(pair)
    if info is None:
        return host_label if (si, ti) == (0, 0) else None
    for lab, block in info.items():
        if block == (si, ti, host_label):
            return lab
    return None


def reference_mu(cat, chain, inputs):
    """``cat.mu`` on a tuple of basis labels, evaluated the direct way that
    the engine must match: the plain operation table on chains without cone
    objects; on the others, every pattern of twist insertions (the cone's
    morphism between its summands) at the gaps of the chain, each pattern's
    host operation evaluated on every combination of the twists' labels
    with its suspension sign, and the outputs decorated back into the cone
    blocks."""
    ring = cat.ring
    chain, inputs = tuple(chain), tuple(inputs)
    if not any(x in cat.cone_data for x in chain):
        return dict(cat.ops.get(chain, {}).get(inputs, {}))
    k = len(inputs)
    if k == 0:
        return {}
    binfo = [_block_of(cat, (chain[i], chain[i + 1]), inputs[i])
             for i in range(k)]
    ext_degs = [cat.homs[(chain[i], chain[i + 1])].degree_of(inputs[i])
                for i in range(k)]
    options = []
    for g in range(k + 1):
        cone = chain[g] in cat.cone_data
        arrive = binfo[g - 1][1] if g > 0 else None
        depart = binfo[g][0] if g < k else None
        if g == 0:
            slot = [0, 1] if cone and depart == 1 else [0]
        elif g == k:
            slot = [0, 1] if cone and arrive == 0 else [0]
        elif not cone:
            slot = [0] if arrive == depart else []
        elif arrive == depart:
            slot = [0]
        elif arrive == 0 and depart == 1:
            slot = [1]
        else:
            slot = []
        if not slot:
            return {}
        options.append(slot)
    total = {}
    for pattern in product(*options):
        for lab, v in _reference_pattern(cat, chain, inputs, binfo, ext_degs,
                                         pattern).items():
            _merge(total, lab, v, ring)
    return total


def _reference_pattern(cat, chain, inputs, binfo, ext_degs, pattern):
    ring = cat.ring
    k = len(inputs)
    host_chain, host_slots = [], []
    ext_args, host_args = [], []    # (u, v, degree) per input, twists in host
    if pattern[0]:
        cx, cy, fd = cat.cone_data[chain[0]]
        host_chain += [cx, cy]
        host_slots.append(fd)
        host_args.append((1, 0, 0))
        start = 0
    else:
        start = binfo[0][0]
        host_chain.append(_summands(cat, chain[0])[start][0])
    for i in range(k):
        si, ti, host_label = binfo[i]
        u = _summands(cat, chain[i])[si][1]
        v = _summands(cat, chain[i + 1])[ti][1]
        host_slots.append({host_label: ring.one()})
        ext_args.append((u, v, ext_degs[i]))
        host_args.append((u, v, ext_degs[i] - u + v))
        host_chain.append(_summands(cat, chain[i + 1])[ti][0])
        if pattern[i + 1]:
            _, cy, fd = cat.cone_data[chain[i + 1]]
            host_slots.append(fd)
            host_args.append((1, 0, 0))
            host_chain.append(cy)
    end = 1 if pattern[k] else binfo[k - 1][1]
    n_ext, n_host = len(ext_args), len(host_args)
    exp = sum((n_ext - 1 - i) * e for i, (_, _, e) in enumerate(ext_args))
    exp += sum((n_host - 1 - j) * h for j, (_, _, h) in enumerate(host_args))
    exp += sum(u for u, _, _ in ext_args)
    sign = ring.one() if exp % 2 == 0 else ring.normalize(-1)
    total = {}
    table = cat.ops.get(tuple(host_chain), {})
    for combo in product(*[sorted(s.items()) for s in host_slots]):
        coeff = sign
        labels = []
        for lab, s in combo:
            coeff = ring.mul(coeff, s)
            labels.append(lab)
        if ring.is_zero(coeff):
            continue
        for lab, v in dict(table.get(tuple(labels), {})).items():
            out = _decorate(cat, (chain[0], chain[-1]), start, end, lab)
            if out is not None:
                _merge(total, out, ring.mul(coeff, v), ring)
    return total


# -- per-run bar differential: the reference for the contraction index ------


def reference_bar(cat, nulls, x, y, depth, degree=0):
    """The degree window of the bar complex B(x, y) through ``nulls``, built
    chain by chain: every word of nulls up to ``depth`` and every labelling
    in product order, shortest first, kept when its degree lies in
    [degree - 1, degree + 1]; then ``reference_mu`` on every consecutive
    run of every chain of degree <= ``degree``.

    Returns (chains, generators, blocks): chains as (objects, labels),
    generators as (name, degree) in chain order, and the dense differential
    blocks {d: rows} for d in (degree - 1, degree).
    """
    ring = cat.ring
    # each distinct run is evaluated once; its output is only read
    mu = lru_cache(maxsize=None)(partial(reference_mu, cat))

    def name(objs, labels):
        return "|".join(objs) + "//" + "|".join(labels)

    chains, gens = [], []
    for k in range(depth + 1):
        for mids in product(nulls, repeat=k):
            objs = (x,) + mids + (y,)
            mods = [cat.hom(objs[i], objs[i + 1]) for i in range(k + 1)]
            labelled = [()]
            for m in mods:
                labelled = [labs + (lab,) for labs in labelled
                            for d in m.degrees() for lab in m.labels(d)]
            for labels in labelled:
                deg = sum(mods[i].degree_of(lab)
                          for i, lab in enumerate(labels)) - k
                if degree - 1 <= deg <= degree + 1:
                    chains.append((objs, labels))
                    gens.append((name(objs, labels), deg))
    where, ranks = {}, {}
    for n, deg in gens:
        where[n] = (deg, ranks.get(deg, 0))
        ranks[deg] = ranks.get(deg, 0) + 1
    acc = {}
    for (objs, labels), (src, deg) in zip(chains, gens):
        if deg > degree:
            continue
        k = len(labels) - 1
        degs = [cat.hom(objs[i], objs[i + 1]).degree_of(labels[i])
                for i in range(k + 1)]
        for i in range(k + 1):
            for j in range(i, k + 1):
                out = mu(objs[i:j + 2], labels[i:j + 1])
                exp = sum(d - 1 for d in degs[:i])
                exp += sum((j - l) * degs[l] for l in range(i, j + 1))
                sgn = ring.one() if exp % 2 == 0 else ring.normalize(-1)
                new_objs = objs[:i + 1] + objs[j + 1:]
                for mid, c in out.items():
                    tgt = name(new_objs, labels[:i] + (mid,) + labels[j + 1:])
                    key = (src, tgt)
                    acc[key] = ring.add(acc.get(key, ring.zero()),
                                        ring.mul(sgn, c))
    blocks = {d: [[ring.zero()] * ranks.get(d, 0)
                  for _ in range(ranks.get(d + 1, 0))]
              for d in (degree - 1, degree)}
    for (src, tgt), v in acc.items():
        d, j = where[src]
        blocks[d][where[tgt][1]][j] = v
    return chains, gens, blocks


# -- exhaustive A-infinity relations: the reference for the support check ---


def reference_relations(cat, max_arity=4):
    """The report of ``ainf.check_ainf_relations`` by exhaustion: every
    object chain with nonzero consecutive homs up to ``max_arity``, every
    basis input tuple along it in product order, and ``cat.mu`` on every
    (r, s) split of it."""
    ring = cat.ring
    # each distinct (chain, inputs) is evaluated once; its output is only read
    mu = lru_cache(maxsize=None)(cat.mu)
    adj = {x: sorted({y for (s, y), m in cat.homs.items()
                      if s == x and not m.is_zero()}) for x in cat.objects}
    violations = []
    checked = 0
    for n in range(1, max_arity + 1):
        chains = [(x,) for x in cat.objects]
        for _ in range(n):
            chains = [c + (y,) for c in chains for y in adj.get(c[-1], ())]
        for chain in chains:
            mods = [cat.hom(chain[i], chain[i + 1]) for i in range(n)]
            label_sets = [[lab for d in m.degrees() for lab in m.labels(d)]
                          for m in mods]
            for inputs in product(*label_sets):
                degs = [mods[i].degree_of(inputs[i]) for i in range(n)]
                total = {}
                for r in range(n):
                    for s in range(1, n - r + 1):
                        t = n - r - s
                        inner = mu(chain[r:r + s + 1], inputs[r:r + s])
                        exp = r + s * t + s * sum(degs[:r])
                        sgn = ring.one() if exp % 2 == 0 else ring.normalize(-1)
                        outer_chain = chain[:r + 1] + chain[r + s:]
                        for mid, c in inner.items():
                            outer_inputs = inputs[:r] + (mid,) + inputs[r + s:]
                            for lab, v in mu(outer_chain,
                                             outer_inputs).items():
                                total[lab] = ring.add(
                                    total.get(lab, ring.zero()),
                                    ring.mul(sgn, ring.mul(c, v)))
                total = {lab: v for lab, v in total.items() if not ring.is_zero(v)}
                checked += 1
                if total:
                    violations.append({
                        "chain": list(chain), "inputs": list(inputs),
                        "residual": {lab: ring.format_scalar(v)
                                     for lab, v in sorted(total.items())}})
    return {"max_arity": max_arity, "checked": checked,
            "passed": not violations, "violations": violations}


def nonzero_above_arity(cat, extra=2):
    """The (chain, inputs) with a nonzero ``cat.mu`` among every basis tuple
    along every chain of max_arity() + 1 .. max_arity() + ``extra`` steps
    with nonzero consecutive homs."""
    found = []
    chains = [(x,) for x in cat.objects]
    for k in range(1, cat.max_arity() + extra + 1):
        chains = [c + (y,) for c in chains for y in cat.objects
                  if not cat.hom(c[-1], y).is_zero()]
        if k <= cat.max_arity():
            continue
        for chain in chains:
            mods = [cat.hom(a, b) for a, b in zip(chain, chain[1:])]
            for inputs in product(*[[lab for d in m.degrees()
                                     for lab in m.labels(d)] for m in mods]):
                if cat.mu(chain, inputs):
                    found.append((chain, inputs))
    return found


# -- strict units and H-level category axioms, by exhaustion ------------------


def unit_is_strict(cat, x):
    """Whether x's designated unit is a strict unit on the nose: closed, of
    degree 0, a two-sided identity for mu^2 on every basis element, and
    never an input of a nonzero higher operation."""
    ring = cat.ring
    unit = cat.unit_of(x)
    if not unit:
        return False
    mod_xx = cat.hom(x, x)
    if any(not mod_xx.has_label(lab) or mod_xx.degree_of(lab) != 0
           for lab in unit):
        return False
    if cat.mu_element((x, x), [unit]):
        return False
    for (s, t), mod in sorted(cat.homs.items()):
        for d in mod.degrees():
            for lab in mod.labels(d):
                one = {lab: ring.one()}
                if t == x and cat.mu_element((s, x, x), [one, unit]) != one:
                    return False
                if s == x and cat.mu_element((x, x, t), [unit, one]) != one:
                    return False
    return not any(
        out and chain[i] == chain[i + 1] == x and lab in unit
        for chain, table in cat.ops.items() if len(chain) > 3
        for inputs, out in table.items() for i, lab in enumerate(inputs))


def nonzero_pairs(h):
    """The object pairs of an H-category with a nonzero cohomology class."""
    return sorted(p for p, pres in h.H.items() if pres.degrees())


def verify_category_axioms(h):
    """Associativity and unitality of an H-category's composition on every
    triple and pair of basis classes: {"passed", "failures"}."""
    failures = [{"kind": "missing-identity", "object": x}
                for x in h.objects if h.identity_coords.get(x) is None]
    pairs = nonzero_pairs(h)
    targets = {}
    for (p, q) in pairs:
        targets.setdefault(p, []).append(q)
    for (x, y) in pairs:
        for z in targets.get(y, ()):
            for w in targets.get(z, ()):
                for d1 in h.pres(x, y).degrees():
                    for d2 in h.pres(y, z).degrees():
                        for d3 in h.pres(z, w).degrees():
                            _assoc_check(h, (x, y, z, w), (d1, d2, d3), failures)
    for (x, y) in pairs:
        ex, ey = h.identity_coords.get(x), h.identity_coords.get(y)
        for d in h.pres(x, y).degrees():
            for i in range(h.class_count(x, y, d)):
                u = h.ring.unit_vector(h.class_count(x, y, d), i)
                if ex is not None and h.compose(x, x, y, 0, ex, d, u) != u:
                    failures.append({"kind": "left-unit", "pair": [x, y],
                                     "degree": d, "class": i})
                if ey is not None and h.compose(x, y, y, d, u, 0, ey) != u:
                    failures.append({"kind": "right-unit", "pair": [x, y],
                                     "degree": d, "class": i})
    return {"passed": not failures, "failures": failures}


def _assoc_check(h, objs, degs, failures):
    x, y, z, w = objs
    d1, d2, d3 = degs
    for i in range(h.class_count(x, y, d1)):
        u = h.ring.unit_vector(h.class_count(x, y, d1), i)
        for j in range(h.class_count(y, z, d2)):
            v = h.ring.unit_vector(h.class_count(y, z, d2), j)
            uv = h.compose(x, y, z, d1, u, d2, v)
            for l in range(h.class_count(z, w, d3)):
                t = h.ring.unit_vector(h.class_count(z, w, d3), l)
                lhs = h.compose(x, z, w, d1 + d2, uv, d3, t)
                rhs = h.compose(x, y, w, d1, u, d2 + d3,
                                h.compose(y, z, w, d2, v, d3, t))
                if lhs != rhs:
                    failures.append({"kind": "associativity",
                                     "objects": list(objs),
                                     "degrees": list(degs),
                                     "classes": [i, j, l]})


# -- zigzag-word localization oracle ------------------------------------------


class PathCategoryInstance:
    """Free linear category on an acyclic quiver, with a continuation set
    made of 'tail' edges whose targets have in-degree one."""

    def __init__(self, n_objects, edges, wrap_edges):
        self.objects = [f"v{i}" for i in range(n_objects)]
        self.edges = list(edges)          # (name, src_idx, tgt_idx)
        self.wrap_edges = set(wrap_edges)  # names

    def paths(self, max_len=8):
        """All composable edge-name sequences, keyed by (src, tgt)."""
        by_src = {}
        for (name, s, t) in self.edges:
            by_src.setdefault(s, []).append((name, t))
        out = {}

        def grow(path, start, cur, depth):
            if path:
                out.setdefault((start, cur), []).append(path)
            if depth >= max_len:
                return
            for (name, t) in sorted(by_src.get(cur, [])):
                grow(path + (name,), start, t, depth + 1)
        for s in range(len(self.objects)):
            grow((), s, s, 0)
        return out


def zigzag_localization_ranks(inst: PathCategoryInstance, max_word=6):
    """Localized hom ranks by word saturation.

    Words alternate forward path tokens and inverted continuation tokens;
    the congruence is generated by cancelling adjacent c, c^{-1} pairs and
    composing adjacent forwards.  Saturation doubles the cut until the rank
    table stabilizes twice.  Each relation identifies two words, so a rank
    counts classes of words and is the same over every field; it is
    computed over F2.
    """
    edge_info = {name: (s, t) for (name, s, t) in inst.edges}
    wraps = sorted(inst.wrap_edges)

    def saturate(cut):
        words = {}

        def endpoints(word):
            # word: tuple of ("F", name) / ("B", name)
            cur = None
            start = None
            for (k, name) in word:
                s, t = edge_info[name]
                if k == "B":
                    s, t = t, s
                if cur is None:
                    start = s
                cur = t if cur is None or cur == s else None
                if cur is None:
                    return None
            return (start, cur)

        all_words = [()]
        frontier = [()]
        while frontier:
            new = []
            for w in frontier:
                if len(w) >= cut:
                    continue
                for name in sorted(edge_info):
                    for kind in ("F", "B"):
                        if kind == "B" and name not in inst.wrap_edges:
                            continue
                        w2 = w + ((kind, name),)
                        if endpoints(w2) is not None:
                            new.append(w2)
            all_words.extend(new)
            frontier = new
        # group words by endpoints (the empty word becomes one identity word
        # per object); identify via the congruence over F2
        by_pair = {}
        for w in all_words:
            if not w:
                continue
            ep = endpoints(w)
            if ep is None:
                continue
            by_pair.setdefault(ep, []).append(w)
        for i in range(len(inst.objects)):
            by_pair.setdefault((i, i), []).append(("ID",))
        # relations: delete adjacent (F c)(B c) or (B c)(F c)
        ranks = {}
        for ep, ws in sorted(by_pair.items()):
            index = {w: i for i, w in enumerate(ws)}
            rels = []
            for w in ws:
                if w == ("ID",):
                    continue
                for i in range(len(w) - 1):
                    (k1, n1), (k2, n2) = w[i], w[i + 1]
                    if n1 == n2 and {k1, k2} == {"F", "B"}:
                        w2 = w[:i] + w[i + 2:]
                        if w2 == ():
                            w2 = ("ID",)
                        if w2 in index:
                            vec = [0] * len(ws)
                            vec[index[w]] ^= 1
                            vec[index[w2]] ^= 1
                            rels.append(vec)
            # rank over F2 of the quotient
            packed = [sum(b << i for i, b in enumerate(r)) for r in rels]
            basis = []
            for v in packed:
                for b in basis:
                    low = b & -b
                    if v & low:
                        v ^= b
                if v:
                    basis.append(v)
            ranks[ep] = len(ws) - len(basis)
        return ranks

    prev = None
    cut = 2
    while cut <= max_word:
        cur = saturate(cut)
        if prev is not None and cur == prev:
            return cur
        prev = cur
        cut += 1
    return prev


def random_path_instance(rng, max_objects=5, max_edges=8):
    """Random acyclic quiver with wrapping tails (in-degree-one targets)."""
    n = rng.randint(2, max_objects)
    edges = []
    in_deg = [0] * n
    name_i = 0
    wrap = []
    for _ in range(rng.randint(1, max_edges)):
        s = rng.randrange(1, n)
        t = rng.randrange(0, s)
        name = f"e{name_i}"
        name_i += 1
        edges.append((name, s, t))
        in_deg[t] += 1
    # wrapping tails: choose edges whose target has in-degree exactly 1
    for (name, s, t) in edges:
        if in_deg[t] == 1 and rng.random() < 0.8:
            wrap.append(name)
    return PathCategoryInstance(n, edges, wrap)
