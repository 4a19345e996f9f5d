"""Finite A-infinity categories: sparse operations, relation checking,
cohomology categories and mapping cones.

Sign convention (fixed globally): operations mu^k have degree 2-k and the
A-infinity relations read, elementwise on basis inputs,

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

from .errors import NotClosed, NotDegreeZero, ShapeMismatch
from .linalg import (CohomologyPresentation, Complex, GradedMap, GradedModule,
                     cohomology)
from .matrices import Matrix


def check_entry_labels(homs, chain, inputs, output):
    """Raise ShapeMismatch unless an operation entry on the object tuple
    ``chain`` has one input per step, each a basis label of hom(chain_i,
    chain_{i+1}), and its output is a basis label of hom(chain_0, chain_k).
    ``homs`` maps object pairs to graded modules; a missing pair is zero."""
    if len(inputs) != len(chain) - 1:
        raise ShapeMismatch(f"op entry arity mismatch on chain {chain}")
    for x, y, lab in [*zip(chain, chain[1:], inputs),
                      (chain[0], chain[-1], output)]:
        if (x, y) not in homs or not homs[(x, y)].has_label(lab):
            raise ShapeMismatch(f"{lab!r} is not a generator of hom({x}, {y})")


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

    def __init__(self, ring, objects, homs, units, op_entries=()):
        self.ring = ring
        self.objects = tuple(objects)
        self.homs = {}
        self._zero = GradedModule.zero(ring)    # every missing hom
        for pair, mod in homs.items():
            if mod is not None and not mod.is_zero():
                self.homs[pair] = mod
        self.units = {x: dict(u) for x, u in units.items()}
        self.cone_data = {}    # obj -> (X, Y, f_dict)
        self.block_info = {}   # pair -> {label: (src_summand, tgt_summand, host_label)}
        self.ops = {}          # chain -> {inputs: {output: scalar}}
        self._block_rev = None
        self._contractions = None   # run -> {inputs: output or None}, False if zero
        self._arity = None
        for chain, inputs, output, scalar in op_entries:
            self.add_op_entry(chain, inputs, output, scalar)

    # -- structure access ----------------------------------------------------

    def hom(self, x, y) -> GradedModule:
        return self.homs.get((x, y), self._zero)

    def hom_pairs(self):
        return sorted(self.homs.keys())

    def unit_of(self, x):
        return dict(self.units.get(x, {}))

    def is_cone(self, x) -> bool:
        return x in self.cone_data

    def summands(self, x):
        """Plain summands of an object as ((plain_object, shift), ...)."""
        if x in self.cone_data:
            cx, cy, _ = self.cone_data[x]
            return ((cx, 1), (cy, 0))
        return ((x, 0),)

    def add_op_entry(self, chain, inputs, output, scalar):
        chain = tuple(chain)
        inputs = tuple(inputs)
        check_entry_labels(self.homs, chain, inputs, output)
        scalar = self.ring.normalize(scalar)
        if self.ring.is_zero(scalar):
            return
        table = self.ops.setdefault(chain, {})
        out = table.setdefault(inputs, {})
        _merge(out, output, scalar, self.ring)
        if not out:
            del table[inputs]
        self._contractions = self._arity = None

    def set_op_entry(self, chain, inputs, output, scalar):
        chain, inputs = tuple(chain), tuple(inputs)
        check_entry_labels(self.homs, chain, inputs, output)
        table = self.ops.setdefault(chain, {})
        out = table.setdefault(inputs, {})
        out.pop(output, None)
        scalar = self.ring.normalize(scalar)
        if not self.ring.is_zero(scalar):
            out[output] = scalar
        if not out:
            del table[inputs]
        self._contractions = self._arity = None

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
        return self._mu_twisted(chain, inputs)

    def max_arity(self) -> int:
        """The largest arity of an operation entry (0 without entries).  A
        twisted mu^k on cones inserts twists into host operations of arity
        at least k, so every mu^k above this arity is zero."""
        if self._arity is None:
            self._arity = max((len(c) - 1 for c, t in self.ops.items() if t),
                              default=0)
        return self._arity

    def contraction(self, chain, inputs):
        """The nonzero ``mu`` output on the label tuple ``inputs`` along the
        object tuple ``chain``, or None, from an index filled on first use:
        one ``mu`` call per distinct (chain, inputs), none for a run above
        ``max_arity`` or into a zero hom.  The output is shared; callers must
        not mutate it."""
        index = self._contractions
        if index is None:
            index = self._contractions = {}
        table = index.get(chain)
        if table is None:
            live = (len(chain) - 1 <= self.max_arity()
                    and (chain[0], chain[-1]) in self.homs)
            table = index[chain] = {} if live else False
        if table is False:
            return None
        out = table.get(inputs, False)
        if out is False:
            out = table[inputs] = self.mu(chain, inputs) or None
        return out

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
        k = len(inputs)
        if k == 0:
            return {}
        binfo = [self._block_of((chain[i], chain[i + 1]), inputs[i]) for i in range(k)]
        cones = self.cone_data
        options = []
        for g in range(k + 1):
            cone = chain[g] in cones
            arrive = binfo[g - 1][1] if g > 0 else None
            depart = binfo[g][0] if g < k else None
            if g == 0:
                slot = (0, 1) if cone and depart == 1 else (0,)
            elif g == k:
                slot = (0, 1) if cone and arrive == 0 else (0,)
            elif arrive == depart:
                slot = (0,)
            elif cone and arrive == 0 and depart == 1:
                slot = (1,)
            else:
                return {}
            options.append(slot)
        ext_degs = [self.homs[(chain[i], chain[i + 1])].degree_of(inputs[i])
                    for i in range(k)]
        summands = [self.summands(x) for x in chain]
        patterns = list(product(*options))
        if len(patterns) == 1:
            return self._eval_pattern(chain, binfo, ext_degs, summands,
                                      patterns[0])
        ring = self.ring
        total = {}
        for pattern in patterns:
            for lab, v in self._eval_pattern(chain, binfo, ext_degs, summands,
                                             pattern).items():
                _merge(total, lab, v, ring)
        return total

    def _eval_pattern(self, chain, binfo, ext_degs, summands, pattern):
        """The host operation of one twist pattern, decorated back into the
        cone blocks; nothing when the host object tuple carries no operation
        entry.

        The sign exponent is the bar-translation bookkeeping of the extended
        and the host evaluation (each argument's degree weighted by the
        number of arguments after it; a twist has host degree 0) plus the
        source-summand shifts of the extended inputs.  Among the
        gauge-equivalent conventions satisfying the A-infinity relations this
        is the one whose diagonal cone unit is a strict unit on the nose;
        both facts are verified exhaustively in tests/test_cones.py.
        """
        k = len(binfo)
        cones = self.cone_data
        if pattern[0]:
            cx, cy, _ = cones[chain[0]]
            host_chain = [cx, cy]
        else:
            host_chain = [summands[0][binfo[0][0]][0]]
        for i in range(k):
            host_chain.append(summands[i + 1][binfo[i][1]][0])
            if pattern[i + 1]:
                host_chain.append(cones[chain[i + 1]][1])
        table = self.ops.get(tuple(host_chain))
        if not table:
            return {}
        # per host argument, its (label, scalar) choices: one label of
        # scalar 1 (None) for an input, the cone morphism's for a twist
        slots = [sorted(cones[chain[0]][2].items())] if pattern[0] else []
        last = len(host_chain) - 2  # weight of the first host argument
        pos, exp = pattern[0], 0
        for i, (si, ti, host_label) in enumerate(binfo):
            u, v, e = summands[i][si][1], summands[i + 1][ti][1], ext_degs[i]
            exp += (k - 1 - i) * e + (last - pos) * (e - u + v) + u
            slots.append(((host_label, None),))
            pos += 1
            if pattern[i + 1]:
                slots.append(sorted(cones[chain[i + 1]][2].items()))
                pos += 1
        ring = self.ring
        sign = ring.one() if exp % 2 == 0 else ring.normalize(-1)
        start = 0 if pattern[0] else binfo[0][0]
        end = 1 if pattern[k] else binfo[k - 1][1]
        pair = (chain[0], chain[-1])
        total = {}
        for combo in product(*slots):
            coeff = sign
            for _, c in combo:
                if c is not None:
                    coeff = ring.mul(coeff, c)
            for lab, v in table.get(tuple(lab for lab, _ in combo), {}).items():
                out_label = self._decorate(pair, start, end, lab)
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

    def copy(self):
        out = AInfCategory(self.ring, self.objects, dict(self.homs),
                           {x: dict(u) for x, u in self.units.items()})
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
    """Verify the A-infinity relations on every (chain, inputs) up to
    ``max_arity``: every object chain with nonzero consecutive homs and
    every basis input tuple along it.

    Only the support is evaluated.  Each nonzero mu^s entry with s at most
    ``a.max_arity()`` (above it every mu^s is zero) is read once from the
    contraction index, cone objects included.  Each nonzero inner-outer
    composite is added into the residual of the one (chain, inputs) it
    belongs to; every other tuple has residual zero.  ``checked`` still
    counts every tuple, and the report lists each violation, in the order
    of chain length, chain and inputs, with the exactly-formatted residual.
    """
    ring = a.ring
    adj = _nonzero_adjacency(a)
    labels = {p: [lab for d in m.degrees() for lab in m.labels(d)]
              for p, m in a.homs.items()}
    checked = 0
    weight = {x: 1 for x in a.objects}  # (chain, inputs) ending at x, per length
    for _ in range(max_arity):
        nxt = {}
        for x, w in weight.items():
            for y in adj.get(x, ()):
                nxt[y] = nxt.get(y, 0) + w * len(labels[(x, y)])
        weight = nxt
        checked += sum(weight.values())
    entries = []    # (chain, inputs, nonzero output)
    chains = [(x,) for x in a.objects]
    for _ in range(min(a.max_arity(), max_arity)):
        chains = [c + (y,) for c in chains for y in adj.get(c[-1], ())]
        for chain in chains:
            if (chain[0], chain[-1]) not in a.homs:
                continue
            for inputs in product(*[labels[p] for p in zip(chain, chain[1:])]):
                out = a.contraction(chain, inputs)
                if out:
                    entries.append((chain, inputs, out))
    slots = {}  # (object before, object after, label) -> [(slot, degrees before, entry)]
    for entry in entries:
        chain, inputs, _ = entry
        before = 0
        for r, lab in enumerate(inputs):
            slots.setdefault((chain[r], chain[r + 1], lab), []).append(
                (r, before, entry))
            before += a.homs[(chain[r], chain[r + 1])].degree_of(lab)
    residual = {}
    for inner_chain, inner_inputs, inner in entries:
        s = len(inner_inputs)
        for mid, c in inner.items():
            for r, before, (chain, inputs, outer) in slots.get(
                    (inner_chain[0], inner_chain[-1], mid), ()):
                n = len(inputs) - 1 + s
                if n > max_arity:
                    continue
                key = (chain[:r + 1] + inner_chain[1:] + chain[r + 2:],
                       inputs[:r] + inner_inputs + inputs[r + 1:])
                sc = c if (r + s * (n - r - s) + s * before) % 2 == 0 else ring.neg(c)
                total = residual.setdefault(key, {})
                for lab, v in outer.items():
                    _merge(total, lab, ring.mul(sc, v), ring)
    order = {x: i for i, x in enumerate(a.objects)}

    def position(key):
        chain, inputs = key
        return (len(inputs), order[chain[0]], chain[1:],
                [labels[p].index(lab) for p, lab in zip(zip(chain, chain[1:]),
                                                        inputs)])
    nonzero = sorted(((key, total) for key, total in residual.items() if total),
                     key=lambda kv: position(kv[0]))
    violations = [{"chain": list(chain), "inputs": list(inputs),
                   "residual": {lab: ring.format_scalar(v)
                                for lab, v in sorted(total.items())}}
                  for (chain, inputs), total in nonzero]
    return {"max_arity": max_arity, "checked": checked,
            "passed": not violations, "violations": violations}


def _vector_to_dict(mod: GradedModule, degree, vec):
    out = {}
    for lab, v in zip(mod.labels(degree), vec):
        if v != 0:
            out[lab] = v
    return out


# -- cohomology category -----------------------------------------------------------


class HCategory:
    """Cohomology category: graded homs as canonical presentations and
    identity classes.  Composition reads one table: for each (x, y, z, d1,
    d2), in class order, the matrix of precomposition with each class of
    H^{d1}(x, y), H^{d2}(y, z) -> H^{d1+d2}(x, z), from mu^2 on
    representatives, built once."""

    def __init__(self, source: AInfCategory):
        self.source = source
        self.ring = source.ring
        self.objects = source.objects
        self.H = {}
        for pair in source.hom_pairs():
            self.H[pair] = cohomology(source.hom_complex(*pair))
        self._zero = CohomologyPresentation(self.ring, {})  # every missing hom
        self.identity_coords = {}
        for x in self.objects:
            unit = source.unit_of(x)
            self.identity_coords[x] = (
                self.project_dict(x, x, 0, unit)
                if unit and self.class_count(x, x, 0) else None)
        self._table = {}        # (x, y, z, d1, d2) -> [Matrix], one per class
        self._matrices = {}     # ("pre" | "post", x, y, z, d, coords, d') -> Matrix

    def pres(self, x, y) -> CohomologyPresentation:
        return self.H.get((x, y), self._zero)

    def class_count(self, x, y, d) -> int:
        return self.pres(x, y).rank(d)

    def rep_dict(self, x, y, d, coords):
        """The representative cycle of a class as a label->scalar dict."""
        ring, pres = self.ring, self.pres(x, y).degree(d)
        vec = [ring.zero()] * pres.module_rank
        for c, rep in zip(coords, pres.reps):
            for i, r in enumerate(rep):
                vec[i] = ring.add(vec[i], ring.mul(c, r))
        return _vector_to_dict(self.source.hom(x, y), d, vec)

    def project_dict(self, x, y, d, element):
        """Class coordinates of a cycle given as a label->scalar dict."""
        pres = self.pres(x, y).degree(d)
        mod = self.source.hom(x, y)
        vec = [self.ring.zero()] * pres.module_rank
        for lab, s in element.items():
            vec[mod.index_of(lab)] = s
        return pres.project(vec)

    def _check(self, x, y, d, coords):
        """Raise ShapeMismatch unless ``coords`` has one entry per class."""
        n = self.class_count(x, y, d)
        if len(coords) != n:
            raise ShapeMismatch(
                f"{len(coords)} coordinates for the {n} classes of H^{d}({x}, {y})")

    def _precompositions(self, x, y, z, d1, d2):
        """For each class of H^{d1}(x, y), in class order, the matrix of
        precomposition with it, H^{d2}(y, z) -> H^{d1+d2}(x, z)."""
        key = (x, y, z, d1, d2)
        table = self._table.get(key)
        if table is None:
            src, d = self.source, d1 + d2
            vs = [_vector_to_dict(src.hom(y, z), d2, rep)
                  for rep in self.pres(y, z).degree(d2).reps]
            table = self._table[key] = [
                Matrix.from_columns(self.ring, [
                    self.project_dict(x, z, d, src.mu_element((x, y, z), [u, v]))
                    for v in vs], self.class_count(x, z, d))
                for u in (_vector_to_dict(src.hom(x, y), d1, rep)
                          for rep in self.pres(x, y).degree(d1).reps)]
        return table

    def compose(self, x, y, z, d1, u_coords, d2, v_coords):
        """Coordinates of the composite (u then v) in H^{d1+d2}(x, z)."""
        return self.precompose_matrix(x, y, z, d1, u_coords, d2).apply(v_coords)

    def postcompose_matrix(self, x, y, z, d2, v_coords, d1) -> Matrix:
        """Matrix of (- then v): H^{d1}(x,y) -> H^{d1+d2}(x,z), built once;
        its i-th column is v precomposed with the i-th class."""
        key = ("post", x, y, z, d2, tuple(v_coords), d1)
        m = self._matrices.get(key)
        if m is None:
            self._check(y, z, d2, v_coords)
            m = self._matrices[key] = Matrix.from_columns(
                self.ring, [pre.apply(v_coords)
                            for pre in self._precompositions(x, y, z, d1, d2)],
                self.class_count(x, z, d1 + d2))
        return m

    def precompose_matrix(self, x, y, z, d1, u_coords, d2) -> Matrix:
        """Matrix of (u then -): H^{d2}(y,z) -> H^{d1+d2}(x,z), built once:
        the sum of u_i times the matrix of the i-th class."""
        key = ("pre", x, y, z, d1, tuple(u_coords), d2)
        m = self._matrices.get(key)
        if m is None:
            self._check(x, y, d1, u_coords)
            m = Matrix.zero(self.ring, self.class_count(x, z, d1 + d2),
                            self.class_count(y, z, d2))
            for c, pre in zip(u_coords, self._precompositions(x, y, z, d1, d2)):
                if not self.ring.is_zero(c):
                    m = m.add(pre.scale(c))
            self._matrices[key] = m
        return m

def cohomology_category(a: AInfCategory) -> HCategory:
    return HCategory(a)


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
    out.cone_data[name] = (x, y, f_dict)
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

