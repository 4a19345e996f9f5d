"""Weak abstract Floer setups: the axiomatic data model, exhaustive
validators, compatible-collection choice and canonical envelopes.

Two input profiles: "envelope" carries a single chosen datum's worth of
operations (enough for the wrapping computations); "full" carries the
entire system of Floer-data sets with restriction maps, the alpha/beta/
gamma coherence data and the diagonal section, which the validators
check against axioms (iv)-(ix); the alpha, beta and gamma identities of
(viii) are checked as identities of graded maps.
"""

from __future__ import annotations

from functools import cache, partial
from itertools import combinations, permutations, product

from .ainf import AInfCategory, check_ainf_relations
from .errors import DecorationInconsistent, NoSection
from .linalg import GradedMap, GradedModule, compose_graded_maps


def tuple_key(t):
    return ",".join(t)


def subsequences(t, min_len=2):
    """Proper subsequences of length >= min_len, in canonical order."""
    return [sub for l in range(min_len, len(t)) for sub in combinations(t, l)]


class FloerDataSystem:
    """Full-profile data: D sets with restriction maps, operations per datum,
    the alpha/beta/gamma coherence data and the diagonal map f.  Each table
    is a keyword argument, empty when not given:

    - ``D``: tuple -> [datum ids]
    - ``restrictions``: (tuple, subtuple) -> {id: id}
    - ``mu``: (tuple, id) -> [(inputs, output, scalar)]
    - ``Dprime``: pair -> [(id, (d1, d2))]
    - ``alpha``: (pair, dp_id) -> [(in, out, scalar)]
    - ``Dsecond``: pair -> [(id, (ac, ab, bc))]
    - ``beta``: (pair, ds_id) -> [(in, out, scalar)]
    - ``Dthird``: (triple, i) -> [(id, datum, datum_i, dp)]
    - ``gamma``: (triple, i, id) -> [((in1, in2), out, scalar)]
    - ``f``: pair -> {datum: dp_id}
    - ``sections``: tuple -> {family_key: datum}
    """

    __slots__ = ("D", "restrictions", "mu", "Dprime", "alpha", "Dsecond",
                 "beta", "Dthird", "gamma", "f", "sections")

    def __init__(self, **tables):
        for name in self.__slots__:
            setattr(self, name, tables.pop(name, {}))
        if tables:
            raise TypeError(f"unknown Floer data tables {sorted(tables)}")

    def restrict(self, t, sub, datum):
        if t == sub:
            return datum
        return self.restrictions.get((t, sub), {}).get(datum)

    def dprime_pair(self, pair, dp_id):
        return dict(self.Dprime.get(pair, ())).get(dp_id)


def family_key(assignment):
    """Canonical key of a compatible family: sorted subtuple -> datum."""
    return ";".join(f"{tuple_key(t)}:{d}" for t, d in sorted(assignment.items()))


class WeakFloerSetup:
    """Lagrangian set, composable tuples, CF modules, operations."""

    def __init__(self, ring, lagrangians, composable_mode="all-distinct",
                 composable_tuples=None, max_arity=3, cf=None, profile="envelope",
                 envelope_ops=None, data_system=None, continuation=(),
                 wrap_chains=None, name="setup"):
        self.ring = ring
        self.name = name
        self.lagrangians = tuple(lagrangians)
        self.composable_mode = composable_mode
        self.max_arity = int(max_arity)
        self.profile = profile
        self.cf = dict(cf or {})
        self.envelope_ops = dict(envelope_ops or {})  # tuple -> [(inputs, out, scalar)]
        self.data_system = data_system
        self.continuation = list(continuation)        # (src, tgt, combo dict)
        self.wrap_chains = dict(wrap_chains or {})
        if composable_mode == "all-distinct":
            # no tuple of distinct Lagrangians is longer than the setup
            top = min(self.max_arity, len(self.lagrangians) - 1)
            self.composable = {k: set(permutations(self.lagrangians, k + 1))
                               for k in range(1, top + 1)}
        else:
            self.composable = {int(k): set(map(tuple, v))
                               for k, v in (composable_tuples or {}).items()}
        self._sorted = {k: tuple(sorted(v)) for k, v in self.composable.items()}

    @property
    def full(self):
        """Whether the setup carries a whole Floer-data system; otherwise
        it carries one datum's operations (the envelope profile)."""
        return self.profile == "full" and self.data_system is not None

    def tuples(self, k):
        """The composable k-tuples, sorted once at construction."""
        return self._sorted.get(k, ())

    def all_tuples(self):
        out = []
        for k in sorted(self.composable):
            out.extend(self.tuples(k))
        return out

    def cf_module(self, l, k) -> GradedModule:
        mod = self.cf.get((l, k))
        return mod if mod is not None else GradedModule.zero(self.ring)

    def mu_entries(self, t, datum=None):
        """Operation entries for a composable tuple and a datum (envelope
        profile carries exactly one datum's operations)."""
        if not self.full:
            return self.envelope_ops.get(t, [])
        return self.data_system.mu.get((t, datum), [])

    def operation_tuples(self):
        """The tuples some operation entry is given on, for any datum."""
        if not self.full:
            return {t for t, entries in self.envelope_ops.items() if entries}
        return {t for (t, _), entries in self.data_system.mu.items()
                if entries}


class CompatibleCollection:
    """A restriction-coherent choice of one datum per composable tuple.

    The choice is made once (``choose_compatible_collection``) and decorates
    E_delta, every entanglement stage E_n and the poset: each of their
    simplices over a Lagrangian tuple t carries ``datum(t)``."""

    __slots__ = ("delta",)

    def __init__(self, delta):
        self.delta = delta  # tuple -> datum id

    def datum(self, t):
        return self.delta.get(t)


# -- validators ---------------------------------------------------------------------


def validate_setup(s: WeakFloerSetup, mode: str = "finite", envelope=None):
    """Per-axiom report.  The envelope profile checks (i)-(iii) and the
    relations (vi) for the supplied datum, on ``envelope`` when the caller
    has built the canonical envelope already; the full profile checks all of
    (i)-(ix).  Strict mode additionally notes the finiteness reinterpretation
    of the countability axioms."""
    report = {"setup": s.name, "profile": s.profile, "mode": mode, "axioms": {}}

    def axiom(name, failures, notes=None):
        report["axioms"][name] = {"passed": not failures, "failures": failures,
                                  "notes": notes or []}

    # (i) Lagrangian labels
    fails = []
    distinct = len(set(s.lagrangians)) == len(s.lagrangians)
    if not distinct:
        fails.append({"reason": "duplicate Lagrangian labels"})
    axiom("i-lagrangians", fails)

    # (ii) closure: subsequences, permutations, pairwise distinct; the
    # all-distinct tuples of distinct labels are generated closed
    closed = s.composable_mode == "all-distinct" and distinct
    axiom("ii-composability", [] if closed else _closure_failures(s))

    # (iii) CF modules for composable pairs
    fails, notes = [], []
    for (l, k) in s.tuples(1):
        if (l, k) not in s.cf:
            notes.append({"pair": [l, k], "note": "absent CF treated as zero"})
    axiom("iii-cf-modules", fails, notes)

    # (vi) A-infinity relations of the operation families, in all-distinct
    # mode up to the declared arity even beyond the longest tuple
    fails = []
    if not s.full:
        env = canonical_envelope(s) if envelope is None else envelope
        fails = _relation_failures(
            env, s.max_arity if s.composable_mode == "all-distinct"
            else max([*s.composable, 1]))
    else:
        for k in sorted(s.composable):
            for t in s.tuples(k):
                for datum in s.data_system.D.get(t, ()):
                    fails.extend(_family_relation_failures(s, t, datum))
    axiom("vi-relations", fails)

    if s.full:
        ds = s.data_system
        # (iv) restriction functoriality
        fails = []
        for t in s.all_tuples():
            if len(t) < 3:
                continue
            for sub in subsequences(t, min_len=2):
                for subsub in subsequences(sub, min_len=2):
                    for datum in ds.D.get(t, ()):
                        direct = ds.restrict(t, subsub, datum)
                        via = ds.restrict(sub, subsub, ds.restrict(t, sub, datum))
                        if direct != via:
                            fails.append({"tuple": list(t), "via": list(sub),
                                          "to": list(subsub), "datum": datum})
        axiom("iv-restrictions", fails)

        # (v) contractibility via sections
        fails = []
        for t in s.all_tuples():
            if len(t) == 2:
                if not ds.D.get(t):
                    fails.append({"tuple": list(t), "reason": "empty D set"})
                continue
            for fam in _compatible_families(s, t):
                key = family_key(fam)
                witness = ds.sections.get(t, {}).get(key)
                if witness is None:
                    fails.append({"tuple": list(t), "family": key,
                                  "reason": "no section witness"})
                    continue
                for sub, datum in fam.items():
                    if ds.restrict(t, sub, witness) != datum:
                        fails.append({"tuple": list(t), "family": key,
                                      "witness": witness,
                                      "reason": f"witness does not restrict to "
                                                f"{tuple_key(sub)}"})
        axiom("v-contractibility", fails)

        # (vii) structure-map surjectivity
        fails = []
        for pair in s.tuples(1):
            data = list(ds.D.get(pair, ()))
            hit = {pr for (_, pr) in ds.Dprime.get(pair, ())}
            for d1 in data:
                for d2 in data:
                    if (d1, d2) not in hit:
                        fails.append({"pair": list(pair),
                                      "missing-Dprime-over": [d1, d2]})
            prime_of = dict(ds.Dprime.get(pair, ()))
            hit2 = {tr for (_, tr) in ds.Dsecond.get(pair, ())}
            for ac in prime_of:
                for ab in prime_of:
                    for bc in prime_of:
                        a1, c1 = prime_of[ac]
                        a2, b2 = prime_of[ab]
                        b3, c3 = prime_of[bc]
                        if a1 == a2 and b2 == b3 and c1 == c3:
                            if (ac, ab, bc) not in hit2:
                                fails.append({"pair": list(pair),
                                              "missing-Dsecond-over": [ac, ab, bc]})
        axiom("vii-structure-surjectivity", fails)

        # (viii) alpha chain maps, beta and gamma homotopy identities; each
        # pair differential and alpha map is built once, here and for (ix)
        diff = cache(partial(_pair_differential, s))
        alpha = cache(partial(_alpha_map, s))
        fails = []
        for pair in s.tuples(1):
            mod = s.cf_module(*pair)
            for (dp_id, (d1, d2)) in ds.Dprime.get(pair, ()):
                err = _chain_map_defect(diff(pair, d1), diff(pair, d2),
                                        alpha(pair, dp_id))
                if err:
                    fails.append({"pair": list(pair), "alpha": dp_id, "defect": err})
            for (ds_id, (ac, ab, bc)) in ds.Dsecond.get(pair, ()):
                b_map = GradedMap.from_entries(
                    mod, mod, -1, ds.beta.get((pair, ds_id), ()))
                err = _beta_defect(s, diff, alpha, pair, ac, ab, bc, b_map)
                if err:
                    fails.append({"pair": list(pair), "beta": ds_id, "defect": err})
        for (triple, i), elems in sorted(ds.Dthird.items()):
            for (g_id, datum, datum_i, dp_id) in elems:
                err = _gamma_defect(s, diff, alpha, triple, i, g_id, datum,
                                    datum_i, dp_id)
                if err:
                    fails.append({"triple": list(triple), "i": i, "gamma": g_id,
                                  "defect": err})
        axiom("viii-homotopy-data", fails)

        # (ix) diagonal and identity conditions for f
        fails = []
        for pair in s.tuples(1):
            fmap = ds.f.get(pair, {})
            mod = s.cf_module(*pair)
            for datum in ds.D.get(pair, ()):
                dp_id = fmap.get(datum)
                if dp_id is None:
                    fails.append({"pair": list(pair), "datum": datum,
                                  "reason": "f undefined"})
                    continue
                pr = ds.dprime_pair(pair, dp_id)
                if pr != (datum, datum):
                    fails.append({"pair": list(pair), "datum": datum,
                                  "reason": "f does not hit the diagonal"})
                if alpha(pair, dp_id) != GradedMap.identity(mod):
                    fails.append({"pair": list(pair), "datum": datum,
                                  "reason": "alpha over f(datum) is not the identity"})
        axiom("ix-diagonal", fails)

    if mode == "strict":
        report["notes"] = ["countability axioms reinterpreted as finiteness "
                           "at desk scale"]
    report["passed"] = all(v["passed"] for v in report["axioms"].values())
    return report


def _closure_failures(s: WeakFloerSetup):
    """Axiom (ii) tuple by tuple: repeated labels, missing subsequences and
    missing permutations."""
    fails = []
    for k in sorted(s.composable):
        for t in s.tuples(k):
            if len(set(t)) != len(t):
                fails.append({"tuple": list(t), "reason": "repeated Lagrangian"})
            for sub in subsequences(t, min_len=2):
                l = len(sub) - 1
                if sub not in s.composable.get(l, ()):
                    fails.append({"tuple": list(t), "missing-subsequence": list(sub)})
            for perm in permutations(t):
                if perm not in s.composable.get(k, ()):
                    fails.append({"tuple": list(t), "missing-permutation": list(perm)})
                    break
    return fails


def _compatible_families(s: WeakFloerSetup, t):
    """Compatible data families over the proper subsequences of t."""
    ds = s.data_system
    subs = subsequences(t)
    out = []
    for combo in product(*(ds.D.get(sub, ()) for sub in subs)):
        fam = dict(zip(subs, combo))
        if all(ds.restrict(sub, subsub, datum) == fam.get(subsub)
               for sub, datum in fam.items() for subsub in subsequences(sub)):
            out.append(fam)
    return out


def _pair_differential(s: WeakFloerSetup, pair, datum) -> GradedMap:
    mod = s.cf_module(*pair)
    return GradedMap.from_entries(mod, mod, 1, [
        (x, out, scalar) for (x,), out, scalar in s.mu_entries(pair, datum)])


def _alpha_map(s: WeakFloerSetup, pair, dp_id) -> GradedMap:
    mod = s.cf_module(*pair)
    return GradedMap.from_entries(mod, mod, 0,
                                  s.data_system.alpha.get((pair, dp_id), ()))


def _chain_map_defect(dd1: GradedMap, dd2: GradedMap, a_map: GradedMap):
    if compose_graded_maps(dd1, a_map) != compose_graded_maps(a_map, dd2):
        return "alpha fails to intertwine the differentials"
    return None


def _beta_defect(s, diff, alpha, pair, ac, ab, bc, b_map: GradedMap):
    """d beta + beta d = alpha_bc . alpha_ab - alpha_ac, exactly.  ``diff``
    and ``alpha`` give the pair differentials and alpha maps."""
    ds = s.data_system
    a1, c1 = ds.dprime_pair(pair, ac)
    d_src = diff(pair, a1)
    d_tgt = diff(pair, c1)
    comp = compose_graded_maps(alpha(pair, ab), alpha(pair, bc))
    target = comp.add(alpha(pair, ac).scale(s.ring.normalize(-1)))
    lhs = compose_graded_maps(b_map, d_tgt).add(compose_graded_maps(d_src, b_map))
    if lhs != target:
        return "d beta + beta d differs from alpha.alpha - alpha"
    return None


def _gamma_defect(s, diff, alpha, triple, i, g_id, datum, datum_i, dp_id):
    """Axiom (viii) for gamma as one identity of graded maps out of
    T = CF(l0,l1) (x) CF(l1,l2), whose basis labels are the pairs (x, y):
    mu - mu' . twist = d02 . gamma + gamma . d_T, with mu, mu' the mu^2 of
    ``datum``, ``datum_i``, the twist alpha (x) 1, 1 (x) alpha or alpha after
    mu' by the slot ``i``, and d_T = d01 (x) 1 + (-1)^|x| 1 (x) d12.  A
    failure names the first (x, y), in the order (|x|, x, |y|, y), whose
    column is nonzero.  ``diff`` and ``alpha`` give the pair maps."""
    ring = s.ring
    ds = s.data_system
    l0, l1, l2 = triple
    pairs = ((l0, l1), (l1, l2), (l0, l2))
    m01, m12, m02 = (s.cf_module(*pair) for pair in pairs)
    gens = [(x, dx, y, dy) for dx in m01.degrees() for x in m01.labels(dx)
            for dy in m12.degrees() for y in m12.labels(dy)]
    tensor = GradedModule.from_generators(
        ring, [((x, y), dx + dy) for x, dx, y, dy in gens])

    def on_tensor(degree, left=None, right=None):
        """left (x) 1 + 1 (x) right on T, the second with the Koszul sign
        (-1)^(|right| |x|); a missing map is zero."""
        entries = []
        for x, dx, y, _ in gens:
            if left is not None:
                entries += [((x, y), (lx, y), v)
                            for lx, v in left.apply_label(x).items()]
            if right is not None:
                sign = ring.normalize(-1 if right.degree * dx % 2 else 1)
                entries += [((x, y), (x, ly), ring.mul(sign, v))
                            for ly, v in right.apply_label(y).items()]
        return GradedMap.from_entries(tensor, tensor, degree, entries)

    mu, mu_i = (GradedMap.from_entries(tensor, m02, 0, s.mu_entries(triple, d))
                for d in (datum, datum_i))
    gamma = GradedMap.from_entries(tensor, m02, -1,
                                   ds.gamma.get((triple, i, g_id), ()))
    d01, d12, d02 = (diff(pair, ds.restrict(triple, pair, datum))
                     for pair in pairs)
    a_map = alpha(pairs[i], dp_id)
    if i == 2:
        twisted = compose_graded_maps(mu_i, a_map)
    else:
        twist = (on_tensor(0, left=a_map) if i == 0
                 else on_tensor(0, right=a_map))
        twisted = compose_graded_maps(twist, mu_i)
    homotopy = compose_graded_maps(gamma, d02).add(
        compose_graded_maps(on_tensor(1, d01, d12), gamma))
    minus = ring.normalize(-1)
    defect = mu.add(twisted.scale(minus)).add(homotopy.scale(minus))
    for x, _, y, _ in gens:
        if defect.apply_label((x, y)):
            return f"gamma identity fails on ({x},{y})"
    return None


def _family_relation_failures(s: WeakFloerSetup, t, datum):
    """A-infinity relations of the operation family generated by restricting
    ``datum`` of the tuple t to its subsequences."""
    delta = {t: datum}
    for sub in subsequences(t, min_len=2):
        delta[sub] = s.data_system.restrict(t, sub, datum)
    return _relation_failures(_envelope_for(s, delta.get), len(t) - 1)


def _relation_failures(cat: AInfCategory, arity):
    """The A-infinity relation violations of ``cat`` up to arity + 1 (at
    most 4)."""
    return check_ainf_relations(cat, min(arity + 1, 4))["violations"]


def check_decoration(s: WeakFloerSetup, chain, lags, data):
    """Raise DecorationInconsistent unless ``chain``, a tuple of objects over
    the Lagrangian tuple ``lags``, is composable and, for a full-profile
    setup, ``data`` ({chain: datum id}) decorates it and restricts its datum
    to each of its subsequences as the setup's restriction maps do."""
    if lags not in s.composable.get(len(chain) - 1, ()):
        raise DecorationInconsistent(
            f"chain {chain} maps to non-composable tuple {lags}")
    if not s.full:
        return
    top = data.get(chain)
    if top is None:
        raise DecorationInconsistent(f"chain {chain} undecorated")
    for sub, sub_l in zip(subsequences(chain), subsequences(lags)):
        if data.get(sub) != s.data_system.restrict(lags, sub_l, top):
            raise DecorationInconsistent(
                f"decoration of {sub} incompatible with {chain}")


def unital_category(s: WeakFloerSetup, objects, lag, pairs,
                    simplices) -> AInfCategory:
    """The strictly unital category on ``objects``: an adjoined rank-1 unit
    on the diagonal, CF(lag[a], lag[b]) on each allowed pair (a, b), the
    operations of each decorated simplex (chain, datum) of ``simplices``,
    then the strict-unit entries.  ``lag`` maps objects to Lagrangians."""
    ring = s.ring
    homs = {}
    units = {}
    for x in objects:
        homs[(x, x)] = GradedModule.from_generators(ring, [(f"1@{x}", 0)])
        units[x] = {f"1@{x}": ring.one()}
    for (a, b) in pairs:
        mod = s.cf_module(lag[a], lag[b])
        if not mod.is_zero():
            homs[(a, b)] = mod
    cat = AInfCategory(ring, objects, homs, units)
    for chain, datum in simplices:
        lags = tuple(lag[x] for x in chain)
        for (inputs, out, scalar) in s.mu_entries(lags, datum):
            cat.add_op_entry(chain, tuple(inputs), out, scalar)
    cat.add_unit_entries()
    return cat


def vertex_tuples(vertices, lag, tuples):
    """(t, an iterator over every tuple of ``vertices`` over t) for each
    Lagrangian tuple t of ``tuples``, in order, each read once; ``lag`` maps
    vertices to Lagrangians."""
    over = {}
    for v in vertices:
        over.setdefault(lag[v], []).append(v)
    return ((t, product(*(over.get(l, ()) for l in t))) for t in tuples)


def build_F_E(s: WeakFloerSetup, E) -> AInfCategory:
    """F(E) of a decorated semisimplicial set E (``sss.DecoratedSSSet``):
    CF(L_p, L_q) on each edge (p, q), units, and the operations of the
    decorated simplices, of which only those over a Lagrangian tuple that
    carries operations are read, found as vertex tuples over it."""
    tuples = s.operation_tuples()
    simplices = {simp for k in {len(t) - 1 for t in tuples}
                 for simp in E.simplices.get(k, ())}
    carried = sorted((simp for _, simps in vertex_tuples(E.vertices, E.lag,
                                                         tuples)
                      for simp in simps if simp in simplices),
                     key=lambda simp: (len(simp), simp))
    return unital_category(s, E.vertices, E.lag, E.simplices.get(1, ()),
                           [(simp, E.data.get(simp)) for simp in carried])


def _envelope_for(s: WeakFloerSetup, datum_of) -> AInfCategory:
    tuples = s.all_tuples()
    return unital_category(
        s, s.lagrangians, {l: l for l in s.lagrangians}, s.tuples(1),
        [(t, datum_of(t) if datum_of else None) for t in tuples])


# -- constructions --------------------------------------------------------------------


def choose_compatible_collection(s: WeakFloerSetup) -> CompatibleCollection:
    """Choose one datum per composable tuple, by induction on tuple length:
    the first datum of each pair, then the surjectivity sections for the
    inductive step."""
    if not s.full:
        delta = {t: None for t in s.all_tuples()}
        return CompatibleCollection(delta)
    ds = s.data_system
    delta = {}
    for k in sorted(s.composable):
        for t in s.tuples(k):
            options = list(ds.D.get(t, ()))
            if not options:
                raise NoSection(f"D({tuple_key(t)}) is empty")
            if k == 1:
                delta[t] = options[0]
                continue
            fam = {sub: delta[sub] for sub in subsequences(t, min_len=2)}
            key = family_key(fam)
            witness = ds.sections.get(t, {}).get(key)
            if witness is None:
                raise NoSection(
                    f"no section witness for {tuple_key(t)} over family {key}")
            delta[t] = witness
    return CompatibleCollection(delta)


def canonical_envelope(s: WeakFloerSetup,
                       col: CompatibleCollection = None) -> AInfCategory:
    """The strictly unital envelope: CF homs on composable pairs, adjoined
    rank-1 units, zero elsewhere, operations from the chosen collection."""
    if col is None:
        col = choose_compatible_collection(s)
    return _envelope_for(s, col.datum)
