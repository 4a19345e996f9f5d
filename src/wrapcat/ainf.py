"""Finite A-infinity categories: sparse operations, relation checking,
unitality classification, cohomology categories, mapping cones and naive
functors with quasi-equivalence testing.

Sign convention (fixed globally, see README): operations mu^k have degree
2-k and the A-infinity relations read, elementwise on basis inputs,

    sum_{r+s+t=n} (-1)^(r + s*t + s*(|x_1|+...+|x_r|))
        mu^{r+1+t}(x_1, .., x_r, mu^s(x_{r+1}, ..), x_{r+s+1}, .., x_n) = 0.

This operadic convention admits exact two-sided strict units
(mu^2(1,x) = x = mu^2(x,1), all higher insertions vanish), which the
axioms here require on the nose.  Categorical composition g.f of
f: X->Y, g: Y->Z is mu^2(f, g); on cohomology mu^2 induces a plainly
associative unital composition with no auxiliary signs.
"""

from __future__ import annotations

from itertools import product

from .errors import (InvalidFunctor, NotClosed, NotDegreeZero, RelationFailure,
                     ShapeMismatch)
from .linalg import (CohomologyPresentation, Complex, GradedMap, GradedModule,
                     cohomology, induced_cohomology_map)
from .matrices import Matrix

def _twist_exponent(ext_args, host_args, out_block):
    """Suspension sign exponent for one twisted evaluation pattern.

    ``ext_args``: (u, v, e) per extended input (e = extended degree).
    ``host_args``: (u, v, h) per host argument in order, twist components
    included as (1, 0, 0).  ``out_block``: (m0, mk, h_out) of the output.

    The exponent is the bar-translation bookkeeping of the extended and host
    evaluations (position-weighted degrees) plus the source-summand shifts of
    the extended inputs.  Among the gauge-equivalent conventions satisfying
    the A-infinity relations this is the one whose diagonal cone unit is a
    strict unit on the nose; both facts are verified exhaustively in
    tests/test_cones.py.
    """
    k = len(ext_args)
    K = len(host_args)
    exp = sum((k - 1 - i) * e for i, (_, _, e) in enumerate(ext_args))
    exp += sum((K - 1 - j) * h for j, (_, _, h) in enumerate(host_args))
    exp += sum(u for (u, _, _) in ext_args)
    return exp


def _merge(acc, label, scalar, ring):
    v = ring.add(acc.get(label, ring.zero()), scalar)
    if ring.is_zero(v):
        acc.pop(label, None)
    else:
        acc[label] = v


class AInfCategory:
    """Finite A-infinity category with sparse multilinear operations.

    ``homs`` maps ordered object pairs to graded modules (missing pair =
    zero module).  ``ops`` holds scalar entries keyed by object chain and
    input label tuple.  ``units`` maps each object to its unit element as
    a label->scalar dict (a single degree-0 label for everything the
    engine builds directly; cone objects carry two diagonal components).

    Cone objects are recorded in ``cone_data``; operations on chains that
    touch them are evaluated lazily through the one-sided twist of the
    underlying plain category, see :func:`cone`.
    """

    def __init__(self, ring, objects, homs, units, op_entries=(), name="A"):
        self.ring = ring
        self.name = name
        self.objects = tuple(objects)
        self.homs = {}
        for pair, mod in homs.items():
            if mod is not None and not mod.is_zero():
                self.homs[pair] = mod
        self.units = {x: dict(u) for x, u in units.items()}
        self.cone_data = {}    # obj -> (X, Y, f_dict, morphism name)
        self.block_info = {}   # pair -> {label: (src_summand, tgt_summand, host_label)}
        self.ops = {}          # chain -> {inputs: {output: scalar}}
        self._block_rev = None
        self._mu_cache = None
        for chain, inputs, output, scalar in op_entries:
            self.add_op_entry(chain, inputs, output, scalar)

    # -- structure access ----------------------------------------------------

    def hom(self, x, y) -> GradedModule:
        mod = self.homs.get((x, y))
        return mod if mod is not None else GradedModule.zero(self.ring)

    def hom_pairs(self):
        return sorted(self.homs.keys())

    def unit_of(self, x):
        return dict(self.units.get(x, {}))

    def is_cone(self, x) -> bool:
        return x in self.cone_data

    def summands(self, x):
        """Plain summands of an object as ((plain_object, shift), ...)."""
        if x in self.cone_data:
            cx, cy, _, _ = self.cone_data[x]
            return ((cx, 1), (cy, 0))
        return ((x, 0),)

    def add_op_entry(self, chain, inputs, output, scalar):
        chain = tuple(chain)
        inputs = tuple(inputs)
        scalar = self.ring.normalize(scalar)
        if self.ring.is_zero(scalar):
            return
        if len(inputs) != len(chain) - 1:
            raise ShapeMismatch(f"op entry arity mismatch on chain {chain}")
        table = self.ops.setdefault(chain, {})
        out = table.setdefault(inputs, {})
        _merge(out, output, scalar, self.ring)
        if not out:
            del table[inputs]
        self._mu_cache = None

    def set_op_entry(self, chain, inputs, output, scalar):
        chain, inputs = tuple(chain), tuple(inputs)
        table = self.ops.setdefault(chain, {})
        out = table.setdefault(inputs, {})
        out.pop(output, None)
        scalar = self.ring.normalize(scalar)
        if not self.ring.is_zero(scalar):
            out[output] = scalar
        if not out:
            del table[inputs]
        self._mu_cache = None

    def add_unit_entries(self):
        """Install strict-unit mu^2 entries for every designated plain unit."""
        for x, unit in sorted(self.units.items()):
            if self.is_cone(x):
                continue
            for ulab, us in sorted(unit.items()):
                for (a, b), mod in sorted(self.homs.items()):
                    for d in mod.degrees():
                        for lab in mod.labels(d):
                            if b == x:
                                self.set_op_entry((a, x, x), (lab, ulab), lab, us)
                            if a == x:
                                self.set_op_entry((x, x, b), (ulab, lab), lab, us)

    # -- evaluation ------------------------------------------------------------

    def mu_plain(self, chain, inputs):
        return dict(self.ops.get(tuple(chain), {}).get(tuple(inputs), {}))

    def mu(self, chain, inputs):
        """Evaluate mu^k on a tuple of basis labels: {output_label: scalar}."""
        chain = tuple(chain)
        inputs = tuple(inputs)
        if not any(self.is_cone(x) for x in chain):
            return self.mu_plain(chain, inputs)
        cache = self._mu_cache
        if cache is None:
            cache = self._mu_cache = {}
        key = (chain, inputs)
        hit = cache.get(key)
        if hit is None:
            hit = self._mu_twisted(chain, inputs)
            cache[key] = hit
        return dict(hit)

    def mu_element(self, chain, elements):
        """Multilinear evaluation on label->scalar dicts, one per slot."""
        ring = self.ring
        total = {}
        for combo in product(*[sorted(e.items()) for e in elements]):
            coeff = ring.one()
            labs = []
            for lab, s in combo:
                coeff = ring.mul(coeff, s)
                labs.append(lab)
            if ring.is_zero(coeff):
                continue
            for out, v in self.mu(chain, tuple(labs)).items():
                _merge(total, out, ring.mul(coeff, v), ring)
        return total

    def _block_of(self, pair, label):
        info = self.block_info.get(pair)
        if info is None:
            return (0, 0, label)
        return info[label]

    def _mu_twisted(self, chain, inputs):
        """Twisted evaluation on chains touching cone objects.

        Each input label is a pure block element; at every gap the chain may
        absorb one twist insertion (the cone's morphism, going from the
        shifted to the unshifted summand).  Interior gaps are forced; the two
        boundary gaps can branch into distinct output blocks.
        """
        ring = self.ring
        k = len(inputs)
        if k == 0:
            return {}
        binfo = [self._block_of((chain[i], chain[i + 1]), inputs[i]) for i in range(k)]
        ext_degs = [self.homs[(chain[i], chain[i + 1])].degree_of(inputs[i])
                    for i in range(k)]
        options = []
        for g in range(k + 1):
            obj = chain[g]
            arrive = binfo[g - 1][1] if g > 0 else None
            depart = binfo[g][0] if g < k else None
            if g == 0:
                slot = [0]
                if self.is_cone(obj) and depart == 1:
                    slot.append(1)
            elif g == k:
                slot = [0]
                if self.is_cone(obj) and arrive == 0:
                    slot.append(1)
            else:
                if not self.is_cone(obj):
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
            for lab, v in self._eval_pattern(chain, inputs, binfo, ext_degs,
                                             pattern).items():
                _merge(total, lab, v, ring)
        return total

    def _eval_pattern(self, chain, inputs, binfo, ext_degs, pattern):
        ring = self.ring
        k = len(inputs)
        host_chain = []
        host_slots = []
        ext_args = []   # (u, v, e) per extended input
        host_args = []  # (u, v, h) per host argument, twists included
        if pattern[0]:
            cx, cy, fd, _ = self.cone_data[chain[0]]
            host_chain.extend([cx, cy])
            host_slots.append(fd)
            host_args.append((1, 0, 0))
            start_summand = 0
        else:
            dep = binfo[0][0]
            host_chain.append(self.summands(chain[0])[dep][0])
            start_summand = dep
        for i in range(k):
            si, ti, host_label = binfo[i]
            u = self.summands(chain[i])[si][1]
            v = self.summands(chain[i + 1])[ti][1]
            h = ext_degs[i] - u + v
            host_slots.append({host_label: ring.one()})
            ext_args.append((u, v, ext_degs[i]))
            host_args.append((u, v, h))
            host_chain.append(self.summands(chain[i + 1])[ti][0])
            if pattern[i + 1]:
                _, cy, fd, _ = self.cone_data[chain[i + 1]]
                host_slots.append(fd)
                host_args.append((1, 0, 0))
                host_chain.append(cy)
        end_summand = 1 if pattern[k] else binfo[k - 1][1]
        m0 = self.summands(chain[0])[start_summand][1] if self.is_cone(chain[0]) else 0
        mk = self.summands(chain[-1])[end_summand][1] if self.is_cone(chain[-1]) else 0
        h_out = sum(a[2] for a in host_args) + 2 - len(host_args)
        exponent = _twist_exponent(ext_args, host_args, (m0, mk, h_out))
        sign = ring.one() if exponent % 2 == 0 else ring.normalize(-1)
        total = {}
        out_pair = (chain[0], chain[-1])
        for combo in product(*[sorted(s.items()) for s in host_slots]):
            coeff = sign
            labels = []
            for lab, s in combo:
                coeff = ring.mul(coeff, s)
                labels.append(lab)
            if ring.is_zero(coeff):
                continue
            for lab, v in self.mu_plain(tuple(host_chain), tuple(labels)).items():
                out_label = self._decorate(out_pair, start_summand, end_summand, lab)
                if out_label is not None:
                    _merge(total, out_label, ring.mul(coeff, v), ring)
        return total

    def _decorate(self, pair, si, ti, host_label):
        info = self.block_info.get(pair)
        if info is None:
            return host_label if (si, ti) == (0, 0) else None
        if self._block_rev is None:
            self._block_rev = {p: {v: lab for lab, v in t.items()}
                               for p, t in self.block_info.items()}
        return self._block_rev.get(pair, {}).get((si, ti, host_label))

    # -- complexes and copies ----------------------------------------------------

    def hom_complex(self, x, y) -> Complex:
        mod = self.hom(x, y)
        if mod.is_zero():
            return Complex.with_zero_differential(mod)
        entries = []
        for d in mod.degrees():
            for lab in mod.labels(d):
                for out, v in self.mu((x, y), (lab,)).items():
                    entries.append((lab, out, v))
        return Complex(mod, GradedMap.from_entries(mod, mod, 1, entries))

    def copy(self, name=None):
        out = AInfCategory(self.ring, self.objects, dict(self.homs),
                           {x: dict(u) for x, u in self.units.items()},
                           name=name or self.name)
        out.ops = {c: {i: dict(o) for i, o in t.items()} for c, t in self.ops.items()}
        out.cone_data = dict(self.cone_data)
        out.block_info = {p: dict(t) for p, t in self.block_info.items()}
        return out


# -- relation checking ---------------------------------------------------------


def _nonzero_adjacency(a: AInfCategory):
    adj = {x: [] for x in a.objects}
    for (x, y), mod in a.homs.items():
        if not mod.is_zero():
            adj[x].append(y)
    return {x: sorted(set(v)) for x, v in adj.items()}


def check_ainf_relations(a: AInfCategory, max_arity: int = 4):
    """Exhaustively verify the A-infinity relations up to ``max_arity``.

    Every object chain with nonzero consecutive homs and every basis input
    tuple is evaluated; the report lists each violation with its chain, the
    inputs and the exactly-formatted residual.
    """
    ring = a.ring
    adj = _nonzero_adjacency(a)
    violations = []
    checked = 0
    for n in range(1, max_arity + 1):
        chains = [(x,) for x in a.objects]
        for _ in range(n):
            chains = [c + (y,) for c in chains for y in adj.get(c[-1], ())]
        for chain in chains:
            mods = [a.hom(chain[i], chain[i + 1]) for i in range(n)]
            label_sets = []
            for m in mods:
                labs = []
                for d in m.degrees():
                    labs.extend(m.labels(d))
                label_sets.append(labs)
            for inputs in product(*label_sets):
                degs = [mods[i].degree_of(inputs[i]) for i in range(n)]
                total = {}
                for r in range(n):
                    for s in range(1, n - r + 1):
                        t = n - r - s
                        inner = a.mu(chain[r:r + s + 1], inputs[r:r + s])
                        if not inner:
                            continue
                        exp = r + s * t + s * sum(degs[:r])
                        sgn = ring.one() if exp % 2 == 0 else ring.normalize(-1)
                        outer_chain = chain[:r + 1] + chain[r + s:]
                        for mid, c in inner.items():
                            outer_inputs = inputs[:r] + (mid,) + inputs[r + s:]
                            for lab, v in a.mu(outer_chain, outer_inputs).items():
                                _merge(total, lab, ring.mul(sgn, ring.mul(c, v)),
                                       ring)
                checked += 1
                if total:
                    violations.append({
                        "chain": list(chain), "inputs": list(inputs),
                        "residual": {lab: ring.format_scalar(v)
                                     for lab, v in sorted(total.items())}})
    return {"max_arity": max_arity, "checked": checked,
            "passed": not violations, "violations": violations}


# -- unitality -------------------------------------------------------------------


def _unit_is_strict(a: AInfCategory, x) -> bool:
    ring = a.ring
    unit = a.unit_of(x)
    if not unit:
        return False
    mod_xx = a.hom(x, x)
    for lab in unit:
        if not mod_xx.has_label(lab) or mod_xx.degree_of(lab) != 0:
            return False
    if a.mu_element((x, x), [unit]):
        return False
    for (s, t), mod in sorted(a.homs.items()):
        for d in mod.degrees():
            for lab in mod.labels(d):
                one = {lab: ring.one()}
                if t == x and a.mu_element((s, x, x), [one, unit]) != one:
                    return False
                if s == x and a.mu_element((x, x, t), [unit, one]) != one:
                    return False
    unit_labels = set(unit)
    for chain, table in a.ops.items():
        if len(chain) - 1 < 3:
            continue
        for inputs, out in table.items():
            if not out:
                continue
            for i, lab in enumerate(inputs):
                if chain[i] == x and chain[i + 1] == x and lab in unit_labels:
                    return False
    return True


def classify_unitality(a: AInfCategory):
    """Classify each object and the category as strict / unital (witnessed) /
    cohomological / non-unital.  The unital witness search solves exactly for
    basis-indexed degree -1 homotopies; failure degrades to cohomological."""
    per_object = {}
    strict = {x: _unit_is_strict(a, x) for x in a.objects}
    if all(strict.values()) and a.objects:
        return {"global": "strict", "per_object": {x: "strict" for x in a.objects}}
    try:
        hcat = cohomology_category(a, check_arity=0)
    except Exception:
        hcat = None
    for x in a.objects:
        if strict[x]:
            per_object[x] = "strict"
        elif hcat is None or hcat.identity_coords.get(x) is None:
            per_object[x] = "non-unital"
        elif _unital_witness(a, hcat, x):
            per_object[x] = "unital (witnessed)"
        else:
            per_object[x] = "cohomological (homotopy not found at this bound)"
    order = ["non-unital", "cohomological (homotopy not found at this bound)",
             "unital (witnessed)", "strict"]
    worst = min((order.index(v) for v in per_object.values()), default=0)
    return {"global": order[worst], "per_object": per_object}


def _unital_witness(a: AInfCategory, hcat: "HCategory", x) -> bool:
    ring = a.ring
    e_coords = hcat.identity_coords.get(x)
    if e_coords is None:
        return False
    e_dict = hcat.rep_dict(x, x, 0, e_coords)
    for (s, t), mod in sorted(a.homs.items()):
        sides = []
        if s == x:
            sides.append("left")
        if t == x:
            sides.append("right")
        for side in sides:
            entries = []
            for d in mod.degrees():
                for lab in mod.labels(d):
                    one = {lab: ring.one()}
                    if side == "left":
                        img = a.mu_element((x, x, t), [e_dict, one])
                    else:
                        img = a.mu_element((s, x, x), [one, e_dict])
                    for out, v in img.items():
                        entries.append((lab, out, v))
            L = GradedMap.from_entries(mod, mod, 0, entries)
            target = L.add(GradedMap.identity(mod).scale(ring.normalize(-1)))
            if not _homotopy_exists(a.hom_complex(s, t), target):
                return False
    return True


def _homotopy_exists(cx: Complex, target: GradedMap) -> bool:
    """Decide solvability of d h + h d = target for a degree -1 map h."""
    ring = cx.module.ring
    mod = cx.module
    d = cx.differential
    unknowns = []
    for deg in mod.degrees():
        for j in range(mod.rank(deg)):
            for i in range(mod.rank(deg - 1)):
                unknowns.append((deg, i, j))
    if not unknowns:
        return target.is_zero()
    rows, rhs = [], []
    for deg in mod.degrees():
        tb = target.block(deg)
        for i in range(tb.rows):
            for j in range(tb.cols):
                row = [ring.zero()] * len(unknowns)
                for idx, (hd, hi, hj) in enumerate(unknowns):
                    if hd == deg and hj == j:
                        blk = d.block(deg - 1)
                        row[idx] = ring.add(row[idx], blk.data[i][hi])
                    if hd == deg + 1 and hi == i:
                        blk = d.block(deg)
                        row[idx] = ring.add(row[idx], blk.data[hj][j])
                rows.append(row)
                rhs.append(tb.data[i][j])
    return Matrix(ring, rows, cols=len(unknowns)).solve(tuple(rhs)) is not None


def _coords_to_vector(ring, pres, coords):
    vec = [ring.zero()] * pres.module_rank
    for c, rep in zip(coords, pres.reps):
        for i, r in enumerate(rep):
            vec[i] = ring.add(vec[i], ring.mul(c, r))
    return tuple(vec)


def _vector_to_dict(mod: GradedModule, degree, vec):
    out = {}
    for lab, v in zip(mod.labels(degree), vec):
        if v != 0:
            out[lab] = v
    return out


# -- cohomology category -----------------------------------------------------------


class HCategory:
    """Cohomology category: graded homs as canonical presentations, mu^2
    composition on representatives, identity classes and exact tables."""

    def __init__(self, source: AInfCategory, check_arity: int = 3):
        if check_arity:
            rep = check_ainf_relations(source, check_arity)
            if not rep["passed"]:
                raise RelationFailure(
                    f"A-infinity relations fail: {rep['violations'][0]}")
        self.source = source
        self.ring = source.ring
        self.objects = source.objects
        self.H = {}
        self.complexes = {}
        for pair in source.hom_pairs():
            cx = source.hom_complex(*pair)
            self.complexes[pair] = cx
            self.H[pair] = cohomology(cx)
        self.identity_coords = {}
        for x in self.objects:
            unit = source.unit_of(x)
            pres = self.pres(x, x).degree(0)
            if not unit or pres.class_count == 0:
                self.identity_coords[x] = None
                continue
            mod = source.hom(x, x)
            vec = [self.ring.zero()] * pres.module_rank
            for lab, s in unit.items():
                vec[mod.index_of(lab)] = s
            self.identity_coords[x] = pres.project(vec)
        self._table = {}

    def pres(self, x, y) -> CohomologyPresentation:
        if (x, y) in self.H:
            return self.H[(x, y)]
        return CohomologyPresentation(self.ring, GradedModule.zero(self.ring), {})

    def class_count(self, x, y, d) -> int:
        return self.pres(x, y).rank(d)

    def rep_vector(self, x, y, d, coords):
        return _coords_to_vector(self.ring, self.pres(x, y).degree(d), coords)

    def rep_dict(self, x, y, d, coords):
        return _vector_to_dict(self.source.hom(x, y), d,
                               self.rep_vector(x, y, d, coords))

    def project_dict(self, x, y, d, element):
        """Class coordinates of a cycle given as a label->scalar dict."""
        pres = self.pres(x, y).degree(d)
        mod = self.source.hom(x, y)
        vec = [self.ring.zero()] * pres.module_rank
        for lab, s in element.items():
            vec[mod.index_of(lab)] = s
        return pres.project(vec)

    def basis_coords(self, x, y, d, i):
        return self.ring.unit_vector(self.class_count(x, y, d), i)

    def compose(self, x, y, z, d1, u_coords, d2, v_coords):
        """Coordinates of the composite (u then v) in H^{d1+d2}(x, z)."""
        ring = self.ring
        key = (x, y, z, d1, d2)
        table = self._table.get(key)
        if table is None:
            table = self._build_table(x, y, z, d1, d2)
            self._table[key] = table
        pt = self.pres(x, z).degree(d1 + d2)
        out = [ring.zero()] * pt.class_count
        for i, uc in enumerate(u_coords):
            if ring.is_zero(uc):
                continue
            for j, vc in enumerate(v_coords):
                if ring.is_zero(vc):
                    continue
                col = table[(i, j)]
                c = ring.mul(uc, vc)
                for r in range(len(out)):
                    out[r] = ring.add(out[r], ring.mul(c, col[r]))
        return tuple(out)

    def _build_table(self, x, y, z, d1, d2):
        ring = self.ring
        p1 = self.pres(x, y).degree(d1)
        p2 = self.pres(y, z).degree(d2)
        pt = self.pres(x, z).degree(d1 + d2)
        mod_xy, mod_yz, mod_xz = (self.source.hom(x, y), self.source.hom(y, z),
                                  self.source.hom(x, z))
        table = {}
        for i in range(p1.class_count):
            u = _vector_to_dict(mod_xy, d1, p1.reps[i])
            for j in range(p2.class_count):
                v = _vector_to_dict(mod_yz, d2, p2.reps[j])
                w = self.source.mu_element((x, y, z), [u, v])
                vec = [ring.zero()] * pt.module_rank
                for lab, s in w.items():
                    vec[mod_xz.index_of(lab)] = s
                table[(i, j)] = pt.project(vec)
        return table

    def postcompose_matrix(self, x, y, z, d2, v_coords, d1) -> Matrix:
        """Matrix of (- then v): H^{d1}(x,y) -> H^{d1+d2}(x,z)."""
        n = self.class_count(x, y, d1)
        cols = [self.compose(x, y, z, d1, self.basis_coords(x, y, d1, i), d2, v_coords)
                for i in range(n)]
        return Matrix.from_columns(self.ring, cols,
                                   self.class_count(x, z, d1 + d2))

    def precompose_matrix(self, x, y, z, d1, u_coords, d2) -> Matrix:
        """Matrix of (u then -): H^{d2}(y,z) -> H^{d1+d2}(x,z)."""
        n = self.class_count(y, z, d2)
        cols = [self.compose(x, y, z, d1, u_coords, d2, self.basis_coords(y, z, d2, j))
                for j in range(n)]
        return Matrix.from_columns(self.ring, cols,
                                   self.class_count(x, z, d1 + d2))

    def degree0_elements(self, x, y, cap=4096):
        """Degree-0 classes to search over: all of them over a small finite
        field, basis classes and their sum otherwise."""
        ring = self.ring
        n = self.class_count(x, y, 0)
        if n == 0:
            return []
        if ring.kind == "Fp" and ring.p ** n <= cap:
            vals = [tuple(ring.normalize(c) for c in v)
                    for v in product(*([range(ring.p)] * n))]
            return [v for v in vals if any(c != 0 for c in v)]
        out = [self.basis_coords(x, y, 0, i) for i in range(n)]
        if n > 1:
            out.append(tuple(ring.one() for _ in range(n)))
        return out

    def nonzero_pairs(self):
        return sorted(p for p, h in self.H.items() if h.total_class_count())

    def verify_category_axioms(self):
        """Exhaustive associativity and unitality on basis classes."""
        failures = []
        for x in self.objects:
            if self.identity_coords.get(x) is None:
                failures.append({"kind": "missing-identity", "object": x})
        pairs = self.nonzero_pairs()
        by_src = {}
        for (p, q) in pairs:
            by_src.setdefault(p, []).append(q)
        for (x, y) in pairs:
            for z in by_src.get(y, ()):
                for w in by_src.get(z, ()):
                    for d1 in self.pres(x, y).degrees():
                        for d2 in self.pres(y, z).degrees():
                            for d3 in self.pres(z, w).degrees():
                                self._assoc_check(x, y, z, w, d1, d2, d3, failures)
        for (x, y) in pairs:
            ex, ey = self.identity_coords.get(x), self.identity_coords.get(y)
            for d in self.pres(x, y).degrees():
                for i in range(self.class_count(x, y, d)):
                    u = self.basis_coords(x, y, d, i)
                    if ex is not None and self.compose(x, x, y, 0, ex, d, u) != u:
                        failures.append({"kind": "left-unit", "pair": [x, y],
                                         "degree": d, "class": i})
                    if ey is not None and self.compose(x, y, y, d, u, 0, ey) != u:
                        failures.append({"kind": "right-unit", "pair": [x, y],
                                         "degree": d, "class": i})
        return {"passed": not failures, "failures": failures}

    def _assoc_check(self, x, y, z, w, d1, d2, d3, failures):
        n1, n2, n3 = (self.class_count(x, y, d1), self.class_count(y, z, d2),
                      self.class_count(z, w, d3))
        if 0 in (n1, n2, n3):
            return
        for i in range(n1):
            u = self.basis_coords(x, y, d1, i)
            for j in range(n2):
                v = self.basis_coords(y, z, d2, j)
                uv = self.compose(x, y, z, d1, u, d2, v)
                for l in range(n3):
                    t = self.basis_coords(z, w, d3, l)
                    lhs = self.compose(x, z, w, d1 + d2, uv, d3, t)
                    rhs = self.compose(x, y, w, d1, u, d2 + d3,
                                       self.compose(y, z, w, d2, v, d3, t))
                    if lhs != rhs:
                        failures.append({"kind": "associativity",
                                         "objects": [x, y, z, w],
                                         "degrees": [d1, d2, d3],
                                         "classes": [i, j, l]})


def cohomology_category(a: AInfCategory, check_arity: int = 3) -> HCategory:
    return HCategory(a, check_arity=check_arity)


# -- mapping cones ------------------------------------------------------------------


def cone(a: AInfCategory, name, x, y, f_dict) -> AInfCategory:
    """Extend by the mapping cone of a closed degree-0 morphism f: x -> y given
    as a label->scalar dict.  Endpoints must be plain (non-cone) objects."""
    ring = a.ring
    if a.is_cone(x) or a.is_cone(y):
        raise ShapeMismatch("cones over cone objects are out of scope")
    if name in a.objects:
        raise ShapeMismatch(f"object name {name!r} already taken")
    mod = a.hom(x, y)
    f_dict = {k: ring.normalize(v) for k, v in f_dict.items()
              if not ring.is_zero(ring.normalize(v))}
    for lab in f_dict:
        if not mod.has_label(lab):
            raise ShapeMismatch(f"label {lab!r} not in hom({x},{y})")
        if mod.degree_of(lab) != 0:
            raise NotDegreeZero(f"label {lab!r} has nonzero degree")
    if a.mu_element((x, y), [dict(f_dict)]):
        raise NotClosed(f"cone morphism over {sorted(f_dict)} is not closed")
    out = a.copy()
    out.objects = a.objects + (name,)
    out.cone_data[name] = (x, y, f_dict, name)
    for other in out.objects:
        for (p, q) in ((other, name), (name, other)):
            if (p, q) in out.homs or (p, q) in out.block_info:
                continue
            gens, blocks = [], {}
            for si, (ps, pshift) in enumerate(out.summands(p)):
                for ti, (qs, qshift) in enumerate(out.summands(q)):
                    base = out.homs.get((ps, qs))
                    if base is None:
                        continue
                    for d in base.degrees():
                        for lab in base.labels(d):
                            dec = f"{lab}@{p}>{q}:{si}{ti}"
                            gens.append((dec, d + pshift - qshift))
                            blocks[dec] = (si, ti, lab)
            if gens:
                out.homs[(p, q)] = GradedModule.from_generators(ring, gens)
                out.block_info[(p, q)] = blocks
    unit = {}
    for comp_obj, si in ((x, 0), (y, 1)):
        for lab, s in out.unit_of(comp_obj).items():
            unit[f"{lab}@{name}>{name}:{si}{si}"] = s
    out.units[name] = unit
    out._block_rev = None
    return out


def cone_of_class(a: AInfCategory, hcat: HCategory, name, x, y, degree0_coords):
    """Cone over the canonical cycle representative of an H^0 class."""
    return cone(a, name, x, y, hcat.rep_dict(x, y, 0, degree0_coords))


# -- naive functors -----------------------------------------------------------------


class NaiveFunctor:
    """Object map plus degree-0 chain maps on homs (first-order term only)."""

    def __init__(self, source: AInfCategory, target: AInfCategory,
                 object_map, hom_maps, strict=True):
        self.source = source
        self.target = target
        self.object_map = dict(object_map)
        self.hom_maps = dict(hom_maps)
        self.strict = strict

    @staticmethod
    def inclusion(source: AInfCategory, target: AInfCategory,
                  object_map=None, label_map=None) -> "NaiveFunctor":
        """Inclusion-style functor sending basis labels by name (or via
        ``label_map(p, q, label)``)."""
        omap = dict(object_map) if object_map else {x: x for x in source.objects}
        hmaps = {}
        for (p, q), mod in sorted(source.homs.items()):
            tmod = target.hom(omap[p], omap[q])
            entries = []
            for d in mod.degrees():
                for lab in mod.labels(d):
                    tl = label_map(p, q, lab) if label_map else lab
                    if tl is not None:
                        entries.append((lab, tl, source.ring.one()))
            hmaps[(p, q)] = GradedMap.from_entries(mod, tmod, 0, entries)
        return NaiveFunctor(source, target, omap, hmaps)

    def map_element(self, p, q, element):
        fm = self.hom_maps.get((p, q))
        if fm is None:
            return {}
        ring = self.source.ring
        out = {}
        for lab, s in element.items():
            for tl, v in fm.apply_label(lab).items():
                _merge(out, tl, ring.mul(s, v), ring)
        return out

    def validate(self):
        """Chain-map property of every hom map; strict functors must also
        intertwine mu^2 exactly and send units to units."""
        ring = self.source.ring
        for (p, q), fm in sorted(self.hom_maps.items()):
            fp, fq = self.object_map[p], self.object_map[q]
            mod = self.source.hom(p, q)
            if fm.source != mod or fm.target != self.target.hom(fp, fq):
                raise InvalidFunctor(f"hom map ({p},{q}) endpoints mismatch")
            if fm.degree != 0:
                raise InvalidFunctor(f"hom map ({p},{q}) must have degree 0")
            for d in mod.degrees():
                for lab in mod.labels(d):
                    one = {lab: ring.one()}
                    lhs = self.map_element(p, q, self.source.mu((p, q), (lab,)))
                    rhs = self.target.mu_element((fp, fq),
                                                 [self.map_element(p, q, one)])
                    if lhs != rhs:
                        raise InvalidFunctor(
                            f"hom map ({p},{q}) is not a chain map at {lab!r}")
        if not self.strict:
            return True
        for x in self.source.objects:
            fx = self.object_map[x]
            img = self.map_element(x, x, self.source.unit_of(x))
            if img != self.target.unit_of(fx):
                raise InvalidFunctor(f"unit of {x} not sent to unit of {fx}")
        adj = _nonzero_adjacency(self.source)
        for p in self.source.objects:
            for q in adj.get(p, ()):
                for r in adj.get(q, ()):
                    self._check_mu2_square(p, q, r)
        return True

    def _check_mu2_square(self, p, q, r):
        ring = self.source.ring
        modpq, modqr = self.source.hom(p, q), self.source.hom(q, r)
        fp, fq, fr = (self.object_map[p], self.object_map[q], self.object_map[r])
        for d1 in modpq.degrees():
            for l1 in modpq.labels(d1):
                for d2 in modqr.degrees():
                    for l2 in modqr.labels(d2):
                        lhs = self.map_element(p, r, self.source.mu((p, q, r), (l1, l2)))
                        rhs = self.target.mu_element(
                            (fp, fq, fr),
                            [self.map_element(p, q, {l1: ring.one()}),
                             self.map_element(q, r, {l2: ring.one()})])
                        if lhs != rhs:
                            raise InvalidFunctor(
                                f"functor fails mu^2 on ({p},{q},{r}) at ({l1},{l2})")


def induced_h_functor(F: NaiveFunctor, src_h: HCategory, tgt_h: HCategory):
    """Per-pair maps on cohomology induced by a validated naive functor."""
    out = {}
    for (p, q), fm in sorted(F.hom_maps.items()):
        fp, fq = F.object_map[p], F.object_map[q]
        src_cx = src_h.complexes.get((p, q)) or Complex.with_zero_differential(
            F.source.hom(p, q))
        tgt_cx = tgt_h.complexes.get((fp, fq)) or Complex.with_zero_differential(
            F.target.hom(fp, fq))
        out[(p, q)] = induced_cohomology_map(fm, src_cx, tgt_cx,
                                             src_h.pres(p, q), tgt_h.pres(fp, fq))
    return out


def check_quasi_equivalence(F: NaiveFunctor, src_h: HCategory = None,
                            tgt_h: HCategory = None):
    """Fully-faithful plus essentially-surjective report for a naive functor.

    Essential surjectivity witnesses are mutually inverse degree-0 classes
    found by exact linear solve against enumerable candidates.
    """
    F.validate()
    src_h = src_h or cohomology_category(F.source)
    tgt_h = tgt_h or cohomology_category(F.target)
    hmaps = induced_h_functor(F, src_h, tgt_h)
    ff_failures = []
    for (p, q) in sorted(set(src_h.H) | set(F.hom_maps)):
        hm = hmaps.get((p, q))
        if hm is None:
            if src_h.pres(p, q).total_class_count():
                ff_failures.append({"pair": [p, q], "reason": "missing hom map"})
            continue
        if not hm.is_isomorphism():
            ff_failures.append({"pair": [p, q], "reason": "not an H-isomorphism"})
    image = sorted({F.object_map[x] for x in F.source.objects})
    ess_failures, witnesses = [], {}
    for yob in F.target.objects:
        if yob in image:
            witnesses[yob] = {"object": yob, "via": "image"}
            continue
        found = None
        for xob in image:
            w = find_h_isomorphism(tgt_h, xob, yob)
            if w is not None:
                found = {"object": xob, "forward": [tgt_h.ring.format_scalar(c)
                                                    for c in w[0]],
                         "backward": [tgt_h.ring.format_scalar(c) for c in w[1]]}
                break
        if found is None:
            ess_failures.append({"object": yob})
        else:
            witnesses[yob] = found
    return {"fully_faithful": not ff_failures,
            "essentially_surjective": not ess_failures,
            "passed": not ff_failures and not ess_failures,
            "ff_failures": ff_failures, "ess_failures": ess_failures,
            "witnesses": witnesses}


def find_h_isomorphism(hcat: HCategory, x, y):
    """Mutually inverse degree-0 classes (u: x->y, v: y->x), or None.

    For each enumerable candidate u the two-sided inverse condition is a
    linear system in v, solved exactly.
    """
    ring = hcat.ring
    ex, ey = hcat.identity_coords.get(x), hcat.identity_coords.get(y)
    if ex is None or ey is None:
        return None
    n = hcat.class_count(y, x, 0)
    if n == 0:
        return None
    for u in hcat.degree0_elements(x, y):
        pre = hcat.precompose_matrix(x, y, x, 0, u, 0)    # v -> (u then v)
        post = hcat.postcompose_matrix(y, x, y, 0, u, 0)  # v -> (v then u)
        rows = list(pre.data) + list(post.data)
        rhs = list(ex) + list(ey)
        v = Matrix(ring, rows, cols=n).solve(tuple(rhs))
        if v is not None:
            return (u, tuple(v))
    return None
