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
    touch them are evaluated lazily, a whole object tuple at a time, through
    the one-sided twist of the underlying plain category, see :func:`cone`.
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
        # chain -> {inputs: nonzero output}; with it, the prefixes of the
        # operations' object tuples, each block's decorations by block and
        # each object's summand states (see _fill)
        self._contractions = self._host_heads = self._block_rev = self._states = None
        self._arity = None
        for chain, inputs, output, scalar in op_entries:
            self.add_op_entry(chain, inputs, output, scalar)

    # -- structure access ----------------------------------------------------

    def hom(self, x, y) -> GradedModule:
        return self.homs.get((x, y), self._zero)

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

    def mu(self, chain, inputs):
        """Evaluate mu^k on a tuple of basis labels: {output_label: scalar},
        a copy of the entry of ``contractions(chain)``, the table that the
        bars read too."""
        return dict(self.contractions(tuple(chain)).get(tuple(inputs), {}))

    def max_arity(self) -> int:
        """The largest arity of an operation entry (0 without entries).  A
        twisted mu^k on cones inserts twists into host operations of arity
        at least k, so every mu^k above this arity is zero."""
        if self._arity is None:
            self._arity = max((len(c) - 1 for c, t in self.ops.items() if t),
                              default=0)
        return self._arity

    def contractions(self, chain):
        """The table {inputs: nonzero mu output} along the object tuple
        ``chain``, shared, so callers must not mutate it.  A plain chain's
        table is its operation entries.  The whole table of a chain through
        cones is filled at once, on first use, and kept by the chain alone,
        so each (chain, inputs) is evaluated once however many bars, words
        and ends read it; none is filled above ``max_arity`` or into a zero
        hom, and an operation entry added later drops the index."""
        index = self._contractions
        if index is None:
            index = self._contractions = {}
            self._host_heads = {c[:i + 1] for c in self.ops for i in range(len(c))}
            self._block_rev = {p: {v: lab for lab, v in t.items()}
                               for p, t in self.block_info.items()}
            self._states = {x: (((x,), (0, 0, None)),) for x in self.objects}
            self._states.update({x: (((cx,), (0, 0, None)), ((cy,), (1, 1, None)),
                                     ((cx, cy), (0, 1, f)))
                                 for x, (cx, cy, f) in self.cone_data.items()})
        table = index.get(chain)
        if table is None:
            if not any(x in self.cone_data for x in chain):
                table = self.ops.get(chain, {})
            elif (2 <= len(chain) <= self.max_arity() + 1
                  and (chain[0], chain[-1]) in self.homs):
                table = self._fill(chain)
            else:
                table = {}
            index[chain] = table
        return table

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

    def _fill(self, chain):
        """Twisted mu along a chain through cones, pushed forward from the
        host's operation entries.  At each object the host chain passes
        through a plain object's one summand, or a cone's shifted summand,
        its unshifted one, or both joined by a twist insertion (the cone's
        morphism, from the shifted to the unshifted summand); every input
        is then a block element between the summands on either side of it.
        Each such pattern is one host object tuple, and each of its entries
        lands on one input tuple of ``chain``, decorated back into the cone
        blocks.

        The sign exponent is the bar-translation bookkeeping of the extended
        and the host evaluation (each argument's degree weighted by the
        number of arguments after it; a twist has host degree 0) plus the
        source-summand shifts of the extended inputs.  Among the
        gauge-equivalent conventions satisfying the A-infinity relations this
        is the one whose diagonal cone unit is a strict unit on the nose;
        both facts are verified exhaustively in tests/test_cones.py.
        """
        ring, cones, k = self.ring, self.cone_data, len(chain) - 1
        rev, heads = self._block_rev, self._host_heads
        revs = [rev.get(p) for p in zip(chain, chain[1:])]
        cone = [x in cones for x in chain]
        # (host objects, per object (arriving summand, departing summand,
        # twist morphism or None)), kept while the host objects begin the
        # object tuple of some operation entry
        patterns = [((), ())]
        for x in chain:
            grown = []
            for host, pattern in patterns:
                for objs, g in self._states[x]:
                    objs = host + objs
                    if objs in heads:
                        grown.append((objs, pattern + (g,)))
            patterns = grown
        out_rev, table, one = rev.get((chain[0], chain[-1])), {}, ring.one()
        for host, pattern in patterns:
            entries = self.ops.get(host)
            if not entries:
                continue
            # per twist (host position, morphism); per input (host position,
            # block decoration, source and target summand, host module when
            # its degree weighs in the sign)
            n, twists, inputs, const, pos = len(host) - 1, [], [], 0, 0
            for i, (_, s, f) in enumerate(pattern):
                if f is not None:
                    twists.append((pos, f))
                    pos += 1
                if i < k:
                    t = pattern[i + 1][0]
                    u = s == 0 and cone[i]
                    const += (k - 1 - i) * (u + (t == 0 and cone[i + 1])) + u
                    inputs.append((pos, revs[i], s, t, self.homs[host[pos:pos + 2]]
                                   if (k - i + n - pos) % 2 else None))
                    pos += 1
            start, end = pattern[0][0], pattern[k][1]
            for hin, outs in entries.items():
                coeff, exp, key = one, const, []
                for p, f in twists:
                    coeff = ring.mul(coeff, f.get(hin[p], 0))
                if ring.is_zero(coeff):
                    continue
                for p, r, s, t, mod in inputs:
                    lab = hin[p]
                    key.append(lab if r is None else r[(s, t, lab)])
                    if mod is not None:
                        exp += mod.degree_of(lab)
                if exp % 2:
                    coeff = ring.neg(coeff)
                acc = table.setdefault(tuple(key), {})
                for lab, v in outs.items():
                    lab = lab if out_rev is None else out_rev[(start, end, lab)]
                    if lab in acc:
                        _merge(acc, lab, ring.mul(coeff, v), ring)
                    else:   # a product of nonzero field elements
                        acc[lab] = ring.mul(coeff, v)
        return {i: out for i, out in table.items() if out}

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


def check_ainf_relations(a: AInfCategory, max_arity: int = 4):
    """Verify the A-infinity relations on every (chain, inputs) up to
    ``max_arity``: every object chain with nonzero consecutive homs and
    every basis input tuple along it.

    Only the support is evaluated.  Each nonzero mu^s entry with s at most
    ``a.max_arity()`` (above it every mu^s is zero) is read once from the
    contraction tables, cone objects included.  Each nonzero inner-outer
    composite is added into the residual of the one (chain, inputs) it
    belongs to; every other tuple has residual zero.  ``checked`` still
    counts every tuple, and the report lists each violation, in the order
    of chain length, chain and inputs, with the exactly-formatted residual.
    """
    ring = a.ring
    adj = {x: sorted(y for s, y in a.homs if s == x) for x in a.objects}
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
            entries += [(chain, inputs, out)
                        for inputs, out in a.contractions(chain).items()]
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
        for pair in sorted(source.homs):
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
        self._check(x, y, d, coords)
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
    return out


def cone_of_class(a: AInfCategory, hcat: HCategory, name, x, y, degree0_coords):
    """Cone over the canonical cycle representative of an H^0 class."""
    return cone(a, name, x, y, hcat.rep_dict(x, y, 0, degree0_coords))

