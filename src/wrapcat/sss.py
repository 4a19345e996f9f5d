"""Decorated semisimplicial sets, the vertex-indexed categories F_E,
entanglement stages, the bridge checks and the comparison functor tau.

Entanglement stages are finite: blocks are joined by mutually inverse edge
pairs on composable cross pairs, higher simplices span tuples all of whose
vertex pairs are edges and whose Lagrangian tuple is composable, and the
added decorations are the first data compatible with their faces.
"""

from __future__ import annotations

from .ainf import AInfCategory, NaiveFunctor, cohomology_category
from .errors import (DecorationInconsistent, NotSufficientlyWrapped,
                     OracleIncomplete)
from .floer import WeakFloerSetup, check_decoration, unital_category
from .localization import CSet, ContClass, FractionCategory
from .posets import DecoratedPoset, sufficiently_wrapped_report
from .wrap import continuation_cset


class DecoratedSSSet:
    """Semisimplicial set with Lagrangian vertices and decorated simplices.

    ``simplices[k]`` holds k-simplices as (k+1)-tuples of distinct vertices;
    faces are the delete-one subtuples.  ``data`` maps simplices to Floer
    datum ids (None for envelope-profile setups).
    """

    def __init__(self, setup: WeakFloerSetup, vertices, lag, simplices, data=None,
                 blocks=None, name="E"):
        self.setup = setup
        self.name = name
        self.vertices = tuple(vertices)
        self.lag = dict(lag)
        self.simplices = {int(k): sorted(set(map(tuple, v)))
                          for k, v in simplices.items() if v}
        self.data = dict(data or {})
        self.blocks = list(blocks) if blocks else [list(self.vertices)]

    def dims(self):
        return sorted(self.simplices)

    def stats(self):
        return {"vertices": len(self.vertices),
                "simplices": {str(k): len(v) for k, v in
                              sorted(self.simplices.items())},
                "blocks": len(self.blocks)}

    def validate(self):
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


def canonical_sss(setup: WeakFloerSetup, col=None, name=None) -> DecoratedSSSet:
    """One vertex per Lagrangian, one k-simplex per composable tuple,
    decorated by the chosen collection."""
    from .floer import choose_compatible_collection
    if col is None:
        col = choose_compatible_collection(setup)
    simplices = {}
    data = {}
    for k in sorted(setup.composable):
        simplices[k] = list(setup.tuples(k))
        for t in setup.tuples(k):
            data[t] = col.datum(t)
    out = DecoratedSSSet(setup, setup.lagrangians,
                         {l: l for l in setup.lagrangians}, simplices, data,
                         name=name or f"E_delta[{setup.name}]")
    out.validate()
    return out


def build_F_E(setup: WeakFloerSetup, E: DecoratedSSSet) -> AInfCategory:
    """Strictly unital category on the vertices: hom(p, q) = CF(L_p, L_q)
    on composable Lagrangian pairs, units on the diagonal, zero otherwise;
    operations decorated by the simplices.  E is validated where it is
    built (``canonical_sss``, ``entangle``)."""
    pairs1 = setup.composable.get(1, ())
    pairs = [(p, q) for p in E.vertices for q in E.vertices
             if p != q and (E.lag[p], E.lag[q]) in pairs1]
    simplices = [(simp, E.data.get(simp))
                 for _, simps in sorted(E.simplices.items()) for simp in simps]
    return unital_category(setup, E.vertices, E.lag, pairs, simplices,
                           name=f"F[{E.name}]")


def localize_stage(setup: WeakFloerSetup, E: DecoratedSSSet) -> FractionCategory:
    """The localization of a stage: F_E, its H-category and C_E, with the
    right-multiplicative conditions left unchecked (the bridge and tau
    checks report their consequences instead)."""
    hcat = cohomology_category(build_F_E(setup, E))
    return FractionCategory(hcat, continuation_cset(setup, hcat, E.lag))


def choose_datum(setup: WeakFloerSetup, lags, face_data):
    """The Floer datum of a simplex added by entanglement: the first datum
    of D(lags) that restricts to ``face_data`` ({face tuple: datum}) on the
    already chosen faces; None for envelope-profile setups."""
    ds = setup.data_system
    if setup.profile == "envelope" or ds is None:
        return None
    for datum in ds.D.get(lags, ()):
        if all(ds.restrict(lags, sub_l, datum) == want
               for sub_l, want in face_data.items()):
            return datum
    raise OracleIncomplete(f"no compatible datum for {lags}")


def entangle(setup: WeakFloerSetup, blocks, level: int,
             name=None) -> DecoratedSSSet:
    """Join the blocks along mutually inverse cross edges and span the higher
    simplices; each added simplex is decorated by ``choose_datum``."""
    vertices = []
    lag = {}
    data = {}
    simplices = {}
    block_sets = []
    owner = {}
    for bi, block in enumerate(blocks):
        names = {}
        for v in block.vertices:
            nv = f"b{bi}.{v}" if len(blocks) > 1 else v
            names[v] = nv
            vertices.append(nv)
            lag[nv] = block.lag[v]
            owner[nv] = bi
        block_sets.append([names[v] for v in block.vertices])
        for k, simps in sorted(block.simplices.items()):
            for simp in simps:
                nsimp = tuple(names[v] for v in simp)
                simplices.setdefault(k, []).append(nsimp)
                data[nsimp] = block.data.get(simp)
    edge_set = set(simplices.get(1, ()))
    pairs1 = setup.composable.get(1, set())
    added_edges = []
    for p in sorted(vertices):
        for q in sorted(vertices):
            if owner[p] == owner[q] or p == q:
                continue
            if (lag[p], lag[q]) in pairs1 and (p, q) not in edge_set:
                edge_set.add((p, q))
                added_edges.append((p, q))
    for (p, q) in sorted(added_edges):
        lags = (lag[p], lag[q])
        datum = choose_datum(setup, lags, {})
        simplices.setdefault(1, []).append((p, q))
        data[(p, q)] = datum
    # span higher simplices: tuples all of whose ordered pairs are edges
    max_k = max(setup.composable)
    for k in range(2, max_k + 1):
        prev = simplices.get(k - 1, [])
        new_level = []
        existing = set(simplices.get(k, ()))
        for simp in sorted(set(prev)):
            for v in sorted(vertices):
                if v in simp:
                    continue
                cand = simp + (v,)
                if cand in existing:
                    continue
                if not all((cand[i], cand[j]) in edge_set
                           for i in range(k + 1) for j in range(i + 1, k + 1)):
                    continue
                lags = tuple(lag[u] for u in cand)
                if lags not in setup.composable.get(k, set()):
                    continue
                face_data = {}
                for idx in range(k + 1):
                    face = cand[:idx] + cand[idx + 1:]
                    face_l = tuple(lag[u] for u in face)
                    face_data[face_l] = data.get(face)
                datum = choose_datum(setup, lags, face_data)
                new_level.append(cand)
                data[cand] = datum
                existing.add(cand)
        if new_level:
            simplices.setdefault(k, []).extend(new_level)
    out = DecoratedSSSet(setup, vertices, lag, simplices, data,
                         blocks=block_sets,
                         name=name or f"E{level}[{setup.name}]")
    out.validate()
    return out


def check_bridge(E_small: DecoratedSSSet, E_big: DecoratedSSSet,
                 frac_s: FractionCategory, frac_b: FractionCategory,
                 inclusion=None):
    """Bridge check for an inclusion of entanglement stages at H^0.

    ``frac_s`` and ``frac_b`` are the stages' localizations
    (``localize_stage``).

    (a) hom stability: for p, q in the small stage, the map of slice
    colimits induced by the inclusion is an isomorphism.  Pairs of distinct
    vertices with equal Lagrangians are waived: their finite-scale localized
    homs carry loop classes that only infinite wrapping contracts (see the
    ledger), and the growth is reported, not hidden.

    (b) essential surjectivity: every added vertex is connected to an old
    vertex by a continuation class (inverted by the localization), and
    post-composition with the witness induces isomorphisms on the slice
    colimits out of every test vertex whose Lagrangian differs from the
    witness endpoints.
    """
    inclusion = inclusion or {v: v for v in E_small.vertices}
    for v, w in inclusion.items():
        if E_small.lag[v] != E_big.lag[w]:
            raise DecorationInconsistent(
                f"inclusion sends {v} to {w} with a different Lagrangian")
    report = {"hom_stability": [], "essential_surjectivity": [], "passed": True,
              "waived_pairs": []}
    for p in E_small.vertices:
        for q in E_small.vertices:
            pi, qi = inclusion[p], inclusion[q]
            if p != q and E_small.lag[p] == E_small.lag[q]:
                report["waived_pairs"].append(
                    {"pair": [p, q],
                     "small_ranks": frac_s.rank_map(p, q),
                     "big_ranks": frac_b.rank_map(pi, qi),
                     "note": "duplicate-Lagrangian pair: finite-scale loop "
                             "classes, waived"})
                continue
            ok = _slice_colims_isomorphic(frac_s, frac_b, p, q, pi, qi, inclusion)
            report["hom_stability"].append({"pair": [p, q], "iso": ok})
            if not ok:
                report["passed"] = False
    old = sorted(set(inclusion.values()))
    new = [w for w in E_big.vertices if w not in set(old)]
    for w in new:
        found = None
        for u in old:
            cls = _connecting_class(frac_b.cset, u, w)
            if cls is not None and _witness_isomorphism(frac_b, cls,
                                                        lag=E_big.lag):
                found = {"old": u, "class": repr(cls),
                         "direction": "old->new" if cls.src == u else "new->old"}
                break
        if found is None:
            report["essential_surjectivity"].append({"vertex": w, "passed": False})
            report["passed"] = False
        else:
            report["essential_surjectivity"].append({"vertex": w, "passed": True,
                                                     "witness": found})
    return report


def _connecting_class(cset: CSet, u, w):
    """The first non-identity class u -> w, else the first w -> u, else None."""
    for a, b in ((u, w), (w, u)):
        for c in cset:
            if c.src == a and c.tgt == b and not cset.is_identity(c):
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


def _witness_isomorphism(frac: FractionCategory, cls: ContClass, lag=None):
    """Post-composition with the class is an isomorphism on the localized
    homs out of every admissible test vertex.

    Computed levelwise on the slice diagram (``postcomposition``), so no Ore
    completion is needed; this is what makes the check usable on entangled
    stages whose slices are not filtered.  When a Lagrangian labelling is
    supplied, test vertices whose Lagrangian equals an endpoint's are skipped
    (duplicate-pair loop classes, see check_bridge).
    """
    endpoints = {lag[cls.src], lag[cls.tgt]} if lag else set()
    return all(frac.postcomposition(t, cls).is_isomorphism()
               for t in frac.objects
               if not (lag and lag.get(t, t) in endpoints))


def tau_compare(setup: WeakFloerSetup, P: DecoratedPoset, E: DecoratedSSSet,
                frac_E: FractionCategory):
    """The comparison functor from the localized poset category to the
    localized vertex category: iota at chain level, tau at H level; fully
    faithful on all pairs, essentially surjective onto reachable vertices.

    ``frac_E`` is the localization of E (``localize_stage``).  The poset
    side, O_P with its continuation classes, is localized here once and
    shared with the wrapping-sequence certificates.

    Raises NotSufficientlyWrapped naming an element with no verified
    wrapping sequence.
    """
    from .posets import build_O_P
    env = frac_E.hcat.source
    ocat = build_O_P(setup, P)
    oh = cohomology_category(ocat)
    frac_P = FractionCategory(oh, continuation_cset(setup, oh, P.lag))
    wrapped = sufficiently_wrapped_report(setup, P, frac_P, frac_E)
    for el, verdict in wrapped["elements"].items():
        if not verdict["passed"]:
            raise NotSufficientlyWrapped(
                f"element {el} lies on no verified wrapping sequence")
    # iota: strict chain-level functor p -> vertex of the same Lagrangian
    vertex_of = {}
    for p in P.elements:
        match = [v for v in E.vertices if E.lag[v] == P.lag[p]]
        if not match:
            raise NotSufficientlyWrapped(
                f"no vertex with Lagrangian {P.lag[p]} for element {p}")
        vertex_of[p] = match[0]

    def label_map(p, q, lab):
        if p == q:
            unit = env.unit_of(vertex_of[p])
            return next(iter(unit))
        return lab

    iota = NaiveFunctor.inclusion(ocat, env, object_map=vertex_of,
                                  label_map=label_map)
    iota.validate()
    report = {"fully_faithful": [], "essential_surjectivity": [], "passed": True}
    for p in P.elements:
        for q in P.elements:
            ok = _slice_colims_isomorphic(frac_P, frac_E, p, q, vertex_of[p],
                                          vertex_of[q], vertex_of)
            report["fully_faithful"].append({"pair": [p, q], "iso": ok})
            if not ok:
                report["passed"] = False
    reachable_lags = {P.lag[p] for p in P.elements}
    for w in E.vertices:
        if E.lag[w] in reachable_lags:
            report["essential_surjectivity"].append({"vertex": w, "passed": True})
            continue
        witness = None
        for u in sorted(vertex_of.values()):
            cls = _connecting_class(frac_E.cset, u, w)
            if cls is not None and _witness_isomorphism(frac_E, cls):
                witness = repr(cls)
                break
        passed = witness is not None
        report["essential_surjectivity"].append(
            {"vertex": w, "passed": passed, "witness": witness,
             "lagrangian": E.lag[w]})
        if not passed:
            report["passed"] = False
    report["wrapping"] = wrapped
    return report, iota
