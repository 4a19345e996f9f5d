"""Independent brute-force oracles for the test and acceptance suites.

These deliberately avoid the library's own code paths: dense Gauss-Jordan
elimination and localization by zigzag-word saturation.
"""

from fractions import Fraction


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
