"""Decorated semisimplicial sets, the vertex-indexed categories F_E,
entanglement stages, the poset stage, the bridge checks and the comparison
functor tau.

Every entanglement stage is built by one rule (``_span``): its k-simplices
are the (k+1)-tuples of vertices whose Lagrangian tuple is composable, and
each carries the datum the chosen compatible collection gives its
Lagrangian tuple.  E_delta has one vertex per Lagrangian, so its simplices
are the composable tuples, and E0 is E_delta.  E_n has n + 1 copies of each
Lagrangian; a simplex inside one copy and one across copies are decorated
alike, so no stage makes a choice of its own.  Two copies of one Lagrangian
are never joined: a composable tuple has distinct Lagrangians.

The poset p0 < .. < pn of tau's source is a decorated semisimplicial set
too (``poset_stage``): its simplices are its descending chains, so O_P is
F of it, built by the one builder ``build_F_E`` of every stage.
"""

from __future__ import annotations

from itertools import combinations

from .ainf import cohomology_category
from .errors import DecorationInconsistent
from .floer import WeakFloerSetup, build_F_E, check_decoration, vertex_tuples
from .localization import CSet, ContClass, FractionCategory
from .posets import build_O_P, check_sufficiently_wrapped
from .wrap import continuation_cset


class DecoratedSSSet:
    """Semisimplicial set with Lagrangian vertices and decorated simplices.

    ``simplices[k]`` holds k-simplices as (k+1)-tuples of distinct vertices,
    sorted; faces are the delete-one subtuples.  The builders (``_span``,
    ``poset_stage``) give each simplex once.  ``data`` maps simplices to
    Floer datum ids (None for envelope-profile setups).
    """

    def __init__(self, setup: WeakFloerSetup, vertices, lag, simplices, data,
                 blocks=None):
        self.setup = setup
        self.vertices = tuple(vertices)
        self.lag = dict(lag)
        self.simplices = {k: sorted(v) for k, v in simplices.items() if v}
        self.data = dict(data)
        self.blocks = list(blocks) if blocks else [list(self.vertices)]

    def stats(self):
        return {"vertices": len(self.vertices),
                "simplices": {str(k): len(v) for k, v in
                              sorted(self.simplices.items())},
                "blocks": len(self.blocks)}

    def validate(self):
        """Simplex by simplex, by dimension, each dimension in sorted
        order: distinct vertices, faces present, Lagrangian tuple
        composable and decoration compatible (``check_decoration``)."""
        for k, simps in sorted(self.simplices.items()):
            faces = set(self.simplices.get(k - 1, ()))
            for simp in simps:
                if len(set(simp)) != len(simp):
                    raise DecorationInconsistent(f"degenerate simplex {simp}")
                if k >= 2:
                    for i in range(k + 1):
                        face = simp[:i] + simp[i + 1:]
                        if face not in faces:
                            raise DecorationInconsistent(
                                f"face {face} of {simp} missing")
                check_decoration(self.setup, simp,
                                 tuple(self.lag[v] for v in simp), self.data)
        return True


def _span(setup: WeakFloerSetup, vertices, lag, col):
    """The simplices of a stage and their data: for each composable k-tuple
    t of Lagrangians, every (k+1)-tuple of vertices over t, decorated by
    ``col.datum(t)`` ({k: [simplex]}, {simplex: datum})."""
    simplices, data = {}, {}
    for t, simps in vertex_tuples(vertices, lag, setup.all_tuples()):
        datum = col.datum(t)
        dim = simplices.setdefault(len(t) - 1, [])
        for simp in simps:
            dim.append(simp)
            data[simp] = datum
    return simplices, data


def canonical_sss(setup: WeakFloerSetup, col) -> DecoratedSSSet:
    """E_delta: one vertex per Lagrangian, one k-simplex per composable
    tuple, decorated by the chosen collection ``col``."""
    lag = {l: l for l in setup.lagrangians}
    out = DecoratedSSSet(setup, setup.lagrangians, lag,
                         *_span(setup, setup.lagrangians, lag, col))
    out.validate()
    return out


def poset_stage(setup: WeakFloerSetup, lagrangians, col) -> DecoratedSSSet:
    """The poset p0 < p1 < .. over ordered Lagrangians, p_i over the i-th,
    as a decorated semisimplicial set: its k-simplices are the descending
    chains (p_k > .. > p_0) for 1 <= k <= max_arity, none longer than the
    poset, each decorated by the datum the chosen collection ``col`` gives
    its Lagrangian tuple.  It is not validated here: ``build_O_P`` does
    that."""
    vertices = [f"p{i}" for i in range(len(lagrangians))]
    lag = dict(zip(vertices, lagrangians))
    top = min(setup.max_arity, len(vertices) - 1)
    simplices = {k: list(combinations(reversed(vertices), k + 1))
                 for k in range(1, top + 1)}
    data = {chain: col.datum(tuple(lag[p] for p in chain))
            for chains in simplices.values() for chain in chains}
    return DecoratedSSSet(setup, vertices, lag, simplices, data)


def localize_stage(setup: WeakFloerSetup, E: DecoratedSSSet) -> FractionCategory:
    """The localization of a stage: F_E, its H-category and C_E, with the
    right-multiplicative conditions left unchecked (the bridge and tau
    checks report their consequences instead)."""
    hcat = cohomology_category(build_F_E(setup, E))
    return FractionCategory(hcat, continuation_cset(setup, hcat, E.lag))


def entangle(setup: WeakFloerSetup, col, n) -> DecoratedSSSet:
    """The stage E_n: n + 1 copies of the Lagrangians, block i holding the
    vertex ``bi.L`` over each Lagrangian L, with the simplices of ``_span``,
    decorated by the chosen collection ``col`` like E_delta.  A simplex of
    E_n over the Lagrangian tuple t carries the datum E_delta's simplex t
    carries, and so do its faces over the subtuples of t, so its decoration
    is compatible whenever E_delta's is (``canonical_sss`` validates it)."""
    blocks = [[f"b{i}.{l}" for l in setup.lagrangians] for i in range(n + 1)]
    lag = {v: l for block in blocks
           for v, l in zip(block, setup.lagrangians)}
    return DecoratedSSSet(setup, lag, lag, *_span(setup, lag, lag, col),
                          blocks=blocks)


def check_bridge(E_small: DecoratedSSSet, E_big: DecoratedSSSet,
                 frac_s: FractionCategory, frac_b: FractionCategory,
                 inclusion):
    """Bridge check for the inclusion of entanglement stages ``inclusion``
    ({small vertex: big vertex}) at H^0.

    ``frac_s`` and ``frac_b`` are the stages' localizations
    (``localize_stage``).

    (a) hom stability: for p, q in the small stage, the map of slice
    colimits induced by the inclusion is an isomorphism.  Pairs of distinct
    vertices with equal Lagrangians are waived: their finite-scale localized
    homs carry loop classes that only infinite wrapping contracts, and the
    number of waived pairs is reported, not hidden.

    (b) essential surjectivity: every added vertex is connected to an old
    vertex by a continuation class (inverted by the localization), and
    post-composition with the witness induces isomorphisms on the slice
    colimits out of every test vertex whose Lagrangian differs from the
    witness endpoints.

    The identity of a stage over one localization induces identities of
    the slice colimits and adds no vertex, so it passes with no colimit
    built.

    Returns the verdict, the waived count and the failures of (a) and (b).
    """
    for v, w in inclusion.items():
        if E_small.lag[v] != E_big.lag[w]:
            raise DecorationInconsistent(
                f"inclusion sends {v} to {w} with a different Lagrangian")
    identity = (E_small is E_big and frac_s is frac_b
                and all(v == w for v, w in inclusion.items()))
    waived = 0
    hom_failures = []
    for p in E_small.vertices:
        for q in E_small.vertices:
            if p != q and E_small.lag[p] == E_small.lag[q]:
                waived += 1
            elif not identity and not _slice_colims_isomorphic(
                    frac_s, frac_b, p, q, inclusion[p], inclusion[q],
                    inclusion):
                hom_failures.append({"pair": [p, q], "iso": False})
    old = sorted(set(inclusion.values()))
    surj_failures = [{"vertex": w, "passed": False} for w in E_big.vertices
                     if w not in old
                     and not _reached(frac_b, old, w, E_big.lag)]
    return {"passed": not (hom_failures or surj_failures),
            "waived_pairs": waived,
            "hom_stability_failures": hom_failures,
            "essential_surjectivity_failures": surj_failures}


def _reached(frac: FractionCategory, old, w, lag):
    """Whether some vertex of ``old`` is joined to ``w`` by a continuation
    class (the first non-identity u -> w, else the first w -> u) whose
    post-composition is an isomorphism (``_witness_isomorphism``)."""
    for u in old:
        cls = _connecting_class(frac.cset, u, w)
        if cls is not None and _witness_isomorphism(frac, cls, lag):
            return True
    return False


def _connecting_class(cset: CSet, u, w):
    """The first non-identity class u -> w, else the first w -> u, else None."""
    for a, b in ((u, w), (w, u)):
        for c in cset.between(a, b):
            if not cset.is_identity(c):
                return c
    return None


def _slice_colims_isomorphic(frac_s, frac_b, p, q, pi, qi, inclusion):
    """Whether the object map ``inclusion`` (the stage inclusion for a bridge,
    iota for tau) induces an isomorphism of the slice colimits of (p, q) and
    (pi, qi)."""
    sl_small = frac_s.slices[p].objects

    def levelwise(d, i, v):
        cls = sl_small[i]
        j = frac_b.slice_index(pi, ContClass(inclusion.get(cls.src, cls.src),
                                              inclusion.get(cls.tgt, cls.tgt),
                                              cls.coords))
        return None if j is None else (j, v)
    induced = frac_s.colim(p, q).map_to(frac_b.colim(pi, qi), levelwise)
    return induced is not None and induced.is_isomorphism()


def _witness_isomorphism(frac: FractionCategory, cls: ContClass, lag):
    """Post-composition with the class is an isomorphism on the localized
    homs out of every admissible test vertex.

    Computed levelwise on the slice diagram (``postcomposition``), so no Ore
    completion is needed; this is what makes the check usable on entangled
    stages whose slices are not filtered.  Test vertices whose Lagrangian
    under ``lag`` equals an endpoint's are skipped (duplicate-pair loop
    classes, see check_bridge).
    """
    endpoints = {lag[cls.src], lag[cls.tgt]}
    return all(frac.postcomposition(t, cls).is_isomorphism()
               for t in frac.objects if lag.get(t, t) not in endpoints)


def tau_compare(setup: WeakFloerSetup, P: DecoratedSSSet,
                frac_E: FractionCategory):
    """The comparison functor tau from the localized poset category to the
    localized vertex category of E_delta, checked fully faithful on all
    pairs.

    tau is induced by iota: O_P -> F(E_delta), which sends p to the vertex
    over P.lag[p] (in E_delta, the Lagrangian itself) and each label to
    itself, the unit 1@p to 1@P.lag[p].  It is a strict functor because
    ``unital_category`` builds both sides from the same operations on the
    same Lagrangian tuples, so only its object map is read here.  The
    bundled poset puts every Lagrangian on its chain, so iota is onto the
    vertices and tau is essentially surjective with no class to witness.

    ``frac_E`` is the localization of E_delta (``localize_stage``).  The
    poset side, O_P with its continuation classes, is localized here once
    and shared with the wrapping-sequence certificates.

    Returns the verdict and the failures of both conditions.  Raises
    NotSufficientlyWrapped naming an element with no certified wrapping
    sequence.
    """
    oh = cohomology_category(build_O_P(setup, P))
    frac_P = FractionCategory(oh, continuation_cset(setup, oh, P.lag))
    check_sufficiently_wrapped(setup, P, frac_P, frac_E)
    iota = P.lag
    ff_failures = [{"pair": [p, q], "iso": False}
                   for p in P.vertices for q in P.vertices
                   if not _slice_colims_isomorphic(
                       frac_P, frac_E, p, q, iota[p], iota[q], iota)]
    return {"passed": not ff_failures,
            "fully_faithful_failures": ff_failures,
            "essential_surjectivity_failures": []}
