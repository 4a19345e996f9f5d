"""Independent brute-force oracles for the test and acceptance suites.

These deliberately avoid the library's own code paths: Smith invariants
from determinantal divisors, dense Gauss-Jordan elimination, homology
invariants through elementary-piece bookkeeping, and localization by
zigzag-word saturation.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd


# -- Smith invariants from determinantal divisors ---------------------------


def _det(m):
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def naive_snf_diagonal(rows):
    """The nonzero invariant factors d_k / d_(k-1), where the determinantal
    divisor d_k is the gcd of all k x k minors (the textbook definition)."""
    rows = [list(map(int, r)) for r in rows]
    m = len(rows)
    n = len(rows[0]) if m else 0
    diag, prev = [], 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                g = gcd(g, _det([[rows[i][j] for j in ci] for i in ri]))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        diag.append(g // prev)
        prev = g
    return diag


def invariant_factors(divisors):
    """Canonical divisibility-chain form of a list of elementary divisors."""
    per_prime = {}
    for d in divisors:
        d = abs(int(d))
        p = 2
        while p * p <= d:
            e = 0
            while d % p == 0:
                e += 1
                d //= p
            if e:
                per_prime.setdefault(p, []).append(p ** e)
            p += 1
        if d > 1:
            per_prime.setdefault(d, []).append(d)
    width = max((len(v) for v in per_prime.values()), default=0)
    out = []
    for i in range(width):
        f = 1
        for p, powers in per_prime.items():
            powers = sorted(powers, reverse=True)
            if i < len(powers):
                f *= powers[i]
        out.append(f)
    return sorted(x for x in out if x > 1)


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


def rational_rank(rows):
    return len(dense_rref(rows)[1])


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


def homology_rank_torsion(d_in_rows, d_out_rows, dim):
    """(free rank, torsion list) of ker(d_out)/im(d_in) on Z^dim.

    Independent route: rank from rational nullity minus boundary rank,
    torsion as the nonunit invariant factors of the boundary matrix.
    """
    rank_out = rational_rank(d_out_rows) if d_out_rows else 0
    rank_in = rational_rank(d_in_rows) if d_in_rows and d_in_rows[0] else 0
    free = (dim - rank_out) - rank_in
    torsion = [d for d in (naive_snf_diagonal(d_in_rows)
                           if d_in_rows and d_in_rows[0] else []) if d > 1]
    return free, sorted(torsion)


def random_unimodular(n, rng, steps=6):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def mat_mul(a, b):
    n, mid, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(mid)) for j in range(m)]
            for i in range(n)]


def random_integer_complex(rng, max_rank=6):
    """Three-term integer complex with known homology.

    Degree layout: [a frees | b map sources] -> [b map targets | c frees |
    d map sources] -> [d map targets | e frees]; the two map families have
    disjoint supports, so d1 d0 = 0 structurally.  Conjugating by unimodular
    base changes scrambles the matrices without touching the invariants.
    Returns (ranks, d0_rows, d1_rows, expected = {degree: (free, torsion)}).
    """
    while True:
        a, b, c = rng.randint(0, 2), rng.randint(0, 3), rng.randint(0, 2)
        d, e = rng.randint(0, 3), rng.randint(0, 2)
        r0, r1, r2 = a + b, b + c + d, d + e
        if 0 < r0 <= max_rank and 0 < r1 <= max_rank and r2 <= max_rank:
            break
    ks = [rng.choice([0, 1, 2, 3, 4, 6]) * rng.choice([1, -1]) for _ in range(b)]
    ls = [rng.choice([0, 1, 2, 5]) * rng.choice([1, -1]) for _ in range(d)]
    d0 = [[0] * r0 for _ in range(r1)]
    d1 = [[0] * r1 for _ in range(r2)]
    for m, k in enumerate(ks):
        d0[m][a + m] = k
    for m, l in enumerate(ls):
        d1[m][b + c + m] = l
    k0 = sum(1 for k in ks if k == 0)
    l0 = sum(1 for l in ls if l == 0)
    expected = {
        0: (a + k0, []),
        1: (c + k0 + l0, sorted(abs(k) for k in ks if abs(k) > 1)),
        2: (e + l0, sorted(abs(l) for l in ls if abs(l) > 1)),
    }
    u0 = random_unimodular(r0, rng) if r0 else []
    u1 = random_unimodular(r1, rng) if r1 else []
    u2 = random_unimodular(r2, rng) if r2 else []
    if r0 and r1:
        d0 = mat_mul(u1, mat_mul(d0, u0))
    if r1 and r2:
        d1 = mat_mul(u2, mat_mul(d1, _int_inverse(u1)))
    return (r0, r1, r2), d0, d1, expected


def _int_inverse(u):
    n = len(u)
    red, _ = dense_rref([list(row) + [int(i == j) for j in range(n)]
                         for i, row in enumerate(u)])
    return [[int(x) for x in row[n:]] for row in red]


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
    """Localized hom ranks over F2 by word saturation.

    Words alternate forward path tokens and inverted continuation tokens;
    the congruence is generated by cancelling adjacent c, c^{-1} pairs and
    composing adjacent forwards.  Saturation doubles the cut until the rank
    table stabilizes twice.
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
