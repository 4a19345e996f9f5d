"""Decorated semisimplicial sets, the vertex-indexed categories F_E,
entanglement stages, the poset stage, the bridge checks and the comparison
functor tau.

Every entanglement stage is built by one rule (``_span``): its k-simplices
are the (k+1)-tuples of vertices whose Lagrangian tuple is composable.
E_delta has one vertex per Lagrangian, so its simplices are the composable
tuples, and entangling one block gives the block back, so E0 is E_delta.
E_n joins n + 1 copies of E0; the simplices that cross blocks are decorated
by the first data compatible with their faces.  Two copies of one
Lagrangian are never joined: a composable tuple has distinct Lagrangians.

The poset p0 < .. < pn of tau's source is a decorated semisimplicial set
too (``poset_stage``): its simplices are its descending chains, so O_P is
F of it, built by the one builder ``build_F_E`` of every stage.
"""

from __future__ import annotations

from itertools import combinations

from .ainf import cohomology_category
from .errors import DecorationInconsistent, OracleIncomplete
from .floer import (WeakFloerSetup, build_F_E, check_decoration,
                    check_decoration_data, vertex_tuples)
from .localization import CSet, ContClass, FractionCategory
from .posets import build_O_P, check_sufficiently_wrapped
from .wrap import continuation_cset


class DecoratedSSSet:
    """Semisimplicial set with Lagrangian vertices and decorated simplices.

    ``simplices[k]`` holds k-simplices as (k+1)-tuples of distinct vertices,
    sorted; faces are the delete-one subtuples.  ``data`` maps simplices to
    Floer datum ids (None for envelope-profile setups).
    """

    def __init__(self, setup: WeakFloerSetup, vertices, lag, simplices, data=None,
                 blocks=None):
        self.setup = setup
        self.vertices = tuple(vertices)
        self.lag = dict(lag)
        self.simplices = {int(k): sorted(set(map(tuple, v)))
                          for k, v in simplices.items() if v}
        self.data = dict(data or {})
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

    def check_decorations(self):
        """The decoration half of ``validate``, for a stage spanned over a
        validated E_delta (``entangle``): ``_span`` makes its faces and
        Lagrangian tuples right, so only a full profile's data can fail."""
        if self.setup.full:
            for _, simps in sorted(self.simplices.items()):
                for simp in simps:
                    check_decoration_data(self.setup, simp,
                                          tuple(self.lag[v] for v in simp),
                                          self.data)


def _span(setup: WeakFloerSetup, vertices, lag):
    """The simplices of a stage: for each composable k-tuple of Lagrangians,
    every (k+1)-tuple of vertices over it ({k: [simplex]})."""
    return {k: vertex_tuples(vertices, lag, setup.tuples(k))
            for k in sorted(setup.composable)}


def canonical_sss(setup: WeakFloerSetup, col) -> DecoratedSSSet:
    """E_delta: one vertex per Lagrangian, one k-simplex per composable
    tuple, decorated by the chosen collection ``col``."""
    lag = {l: l for l in setup.lagrangians}
    simplices = _span(setup, setup.lagrangians, lag)
    data = {t: col.datum(t) for simps in simplices.values() for t in simps}
    out = DecoratedSSSet(setup, setup.lagrangians, lag, simplices, data)
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


def choose_datum(setup: WeakFloerSetup, simp, lag, data):
    """The Floer datum of a simplex ``simp`` added by entanglement to a
    full-profile stage: the first datum of D(lags) that restricts, on each
    face of a simplex of dimension >= 2, to the face's datum already chosen
    in ``data``.  ``lag`` maps vertices to Lagrangians."""
    ds = setup.data_system
    lags = tuple(lag[v] for v in simp)
    faces = {lags[:i] + lags[i + 1:]: data[simp[:i] + simp[i + 1:]]
             for i in range(len(simp))} if len(simp) >= 3 else {}
    for datum in ds.D.get(lags, ()):
        if all(ds.restrict(lags, sub_l, datum) == want
               for sub_l, want in faces.items()):
            return datum
    raise OracleIncomplete(f"no compatible datum for {lags}")


def entangle(setup: WeakFloerSetup, blocks) -> DecoratedSSSet:
    """The stage E_n on n + 1 blocks: vertex v of block i is ``bi.v``, and
    the simplices are those of ``_span``.  A simplex inside one block
    keeps the block's datum; every other simplex gets ``choose_datum`` over
    its faces (none for an edge), lower dimensions first.  An
    envelope-profile stage decorates every simplex by None.  The blocks are
    validated (E_delta), so only the decorations are checked here."""
    home = {f"b{i}.{v}": (i, v)
            for i, block in enumerate(blocks) for v in block.vertices}
    lag = {nv: blocks[i].lag[v] for nv, (i, v) in home.items()}
    simplices = _span(setup, home, lag)
    data = {}
    for _, simps in sorted(simplices.items()):
        if not setup.full:
            data.update(dict.fromkeys(simps))
            continue
        for simp in simps:
            owners = {home[v][0] for v in simp}
            if len(owners) == 1:
                data[simp] = blocks[owners.pop()].data.get(
                    tuple(home[v][1] for v in simp))
                continue
            data[simp] = choose_datum(setup, simp, lag, data)
    out = DecoratedSSSet(setup, home, lag, simplices, data,
                         blocks=[[f"b{i}.{v}" for v in block.vertices]
                                 for i, block in enumerate(blocks)])
    out.check_decorations()
    return out


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
        j = frac_b._slice_index(pi, ContClass(inclusion.get(cls.src, cls.src),
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
