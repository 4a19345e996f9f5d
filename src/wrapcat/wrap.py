"""Continuation systems, wrapping categories, HW colimits, the weak wrapped
Donaldson-Fukaya category and localization agreement.

Strict mode demands all six continuation-set conditions; finite-approximation
mode waives the existence condition (v) at the outermost objects and the
countable-cofinality condition (vi) beyond "a finite cofinal chain exists",
always labelling waivers as such.

HW(l, k) is the colimit of H(-, k) over the whole finite slice of l, which is
exact for the data and does not depend on any depth.  A pair (l, k) is
stabilized when l's wrapping chain is cofinal: every slice object maps to
the chain's tail, whose H(tail, k) then has the colimit's ranks.
"""

from __future__ import annotations

from .ainf import HCategory
from .errors import NonCofinalPrefix
from .floer import WeakFloerSetup
from .localization import (CSet, FractionCategory, SliceCategory,
                           check_right_multiplicative_system)
from .matrices import Matrix
from .quotient import TruncatedQuotient, adjoin_cones


def continuation_cset(setup: WeakFloerSetup, hcat: HCategory,
                      lag=None) -> CSet:
    """The setup's continuation classes (plus all units) as a CSet.

    Each entry (src, tgt, combo) is lifted to every pair (p, q) of
    ``hcat``'s objects over (src, tgt) with nonzero H^0(p, q); ``lag`` maps
    objects to Lagrangians and defaults to the identity (the envelope)."""
    objects = hcat.objects
    lag = lag or {x: x for x in objects}
    return CSet(hcat, [(p, q, hcat.project_dict(p, q, 0, combo))
                       for (src, tgt, combo) in setup.continuation
                       for p in objects if lag[p] == src
                       for q in objects
                       if lag[q] == tgt and hcat.class_count(p, q, 0)])


def generating_subset(cset: CSet):
    """Non-identity classes that are not composites of two other non-identity
    classes; cones over these span the same localization."""
    nonunits = [c for c in cset if not cset.is_identity(c)]
    composites = {cset.compose(a, b) for a in nonunits for b in nonunits
                  if a.tgt == b.src}
    return [c for c in nonunits if c not in composites]


def validate_continuation_system(setup: WeakFloerSetup, hcat: HCategory,
                                 cset: CSet, mode: str = "finite"):
    """Conditions (i)-(vi) of a continuation set, with witnesses.

    (vi) is interpreted as "a finite cofinal chain exists in the given data";
    the reinterpretation is logged in the verdict, and in strict mode the gap
    is noted rather than resolved.  The chain is the one HW reads
    (``certified_tail``): the object's ``wrap_chains`` hint, whose refusal
    is the failure reason, or else its weakly terminal object.
    """
    base = check_right_multiplicative_system(hcat, cset)
    report = {"mode": mode, "conditions": {}, "waivers": [],
              "warnings": base["warnings"]}
    for key in ("i", "ii", "iii", "iv"):
        fails = base["failures"][key]
        report["conditions"][key] = {"passed": not fails, "failures": fails}
    v_fails = []
    for l in hcat.objects:
        if not any(c.tgt == l and c.src != l for c in cset):
            v_fails.append({"object": l,
                            "reason": "no continuation map from a distinct "
                                      "Lagrangian"})
    if mode == "strict":
        report["conditions"]["v"] = {"passed": not v_fails, "failures": v_fails}
    else:
        report["conditions"]["v"] = {"passed": True, "failures": []}
        for f in v_fails:
            report["waivers"].append({"condition": "v", **f,
                                      "note": "finite-approximation waiver"})
    vi_fails = []
    for l in hcat.objects:
        hint = setup.wrap_chains.get(l)
        reason = "no finite cofinal chain"
        try:
            if certified_tail(SliceCategory(hcat, cset, l), hint)[1]:
                reason = None
        except NonCofinalPrefix as exc:
            if hint:
                reason = str(exc)
        if reason:
            vi_fails.append({"object": l, "reason": reason})
    report["conditions"]["vi"] = {
        "passed": not vi_fails, "failures": vi_fails,
        "note": "cofinal countability reinterpreted as the existence of a "
                "finite cofinal chain in the supplied data"}
    report["passed"] = all(c["passed"] for c in report["conditions"].values())
    return report


def certified_tail(sl: SliceCategory, chain_hint=None):
    """(slice index of the wrapping chain's tail, whether it is certified).

    The chain is the hinted list of source Lagrangians (the first class
    from each, each step factoring through the next), or else the identity
    followed by the first weakly terminal object.  It is certified cofinal
    when every slice object maps to its tail; the HW colimit into any
    target is then H(tail, target).
    """
    if chain_hint:
        indices = []
        for src in chain_hint:
            match = [i for i, c in enumerate(sl.objects) if c.src == src]
            if not match:
                raise NonCofinalPrefix(
                    f"no continuation class {src} -> {sl.obj} in the data")
            indices.append(match[0])
        for a, b in zip(indices, indices[1:]):
            if (a, b) not in sl.morphisms:
                raise NonCofinalPrefix(
                    f"no factorization morphism between chain steps "
                    f"{a} -> {b} over {sl.obj}")
        tail = indices[-1]
    else:
        tail = sl.weakly_terminal_index()
        if tail is None:
            raise NonCofinalPrefix(
                f"slice of {sl.obj} has no weakly terminal object")
    return tail, all((i, tail) in sl.morphisms for i in range(len(sl.objects)))


class WrappedDFCategory:
    """Objects are the Lagrangians; homs are the HW colimits of the finite
    slices with fraction composition.  A pair (l, k) is stabilized when
    l's wrapping chain is certified cofinal; H(tail, k) must then have the
    ranks of HW(l, k), or the chain is refused.  No depth is read; of
    ``setup`` only the wrapping chains are."""

    def __init__(self, setup: WeakFloerSetup, hcat: HCategory, cset: CSet):
        self.hcat = hcat
        self.cset = cset
        self.frac = FractionCategory(hcat, cset)
        self.stabilization = {}
        for l in hcat.objects:
            sl = self.frac.slices[l]
            t, certified = certified_tail(sl, setup.wrap_chains.get(l))
            tail = sl.objects[t].src
            for k in hcat.objects:
                if certified:
                    ranks = hcat.pres(tail, k).rank_map()
                    cross = self.frac.rank_map(l, k)
                    if ranks != cross:
                        raise NonCofinalPrefix(
                            f"H({tail},{k}) at the tail of {l}'s chain "
                            f"disagrees with the slice colimit: {ranks} vs "
                            f"{cross}")
                self.stabilization[(l, k)] = certified

    def hw_rank_map(self, l, k):
        return self.frac.rank_map(l, k)

    def stabilized(self, l, k):
        return self.stabilization[(l, k)]

    def hw_table(self):
        rows = []
        for l in self.hcat.objects:
            for k in self.hcat.objects:
                rows.append({"pair": [l, k],
                             "ranks": {str(d): r for d, r in
                                       sorted(self.hw_rank_map(l, k).items())},
                             "stabilized": self.stabilized(l, k)})
        return rows

    def verify_category_axioms(self):
        return self.frac.verify_axioms()

    def check_right_locality(self):
        """Post-composition with every continuation class is a bijection on
        every stabilized HW module, degree by degree."""
        failures = []
        for c in self.cset:
            if self.cset.is_identity(c):
                continue
            for l in self.hcat.objects:
                if not (self.stabilized(l, c.src) and self.stabilized(l, c.tgt)):
                    continue
                post = self.frac.postcomposition(l, c)
                for d in sorted(self.frac.colim(l, c.src).by_degree):
                    if not post.block(d).is_invertible():
                        failures.append({"class": repr(c), "object": l,
                                         "degree": d})
        return {"passed": not failures, "failures": failures}

    def check_canonical_functor(self):
        """H F -> H W_DF sends continuation classes to isomorphisms and
        respects composition on basis classes."""
        failures = []
        for c in self.cset:
            if self.cset.is_identity(c):
                continue
            if not self.frac.check_inverts(c):
                failures.append({"class": repr(c), "reason": "not inverted"})
        return {"passed": not failures, "failures": failures}


def wrapped_df_category(setup, hcat, cset) -> WrappedDFCategory:
    return WrappedDFCategory(setup, hcat, cset)


def check_localization_agreement(env, hcat, cset, wdf: WrappedDFCategory,
                                 depth: int = 4):
    """Compare the cone-quotient localization against the HW table.

    H^0 ranks are compared exactly on pairs where the quotient certificate
    holds (with per-pair progressive deepening up to ``depth``), together
    with the kernels of the two maps out of H^0 of the envelope, into the
    quotient and into HW, compared as subspaces.  The cones are adjoined
    once; the quotient at each depth reuses them.
    """
    gens = generating_subset(cset)
    ext, nulls = adjoin_cones(env, hcat, [(c.src, c.tgt, c.coords) for c in gens])
    pending = pairs = [(a, b) for a in env.objects for b in env.objects]
    results = {}    # pair -> (H^0 rank, certifying depth, killed subspace)
    d = 2
    while pending and d <= depth:
        quo = TruncatedQuotient(ext, nulls, d, hcat, pairs=pending)
        still = []
        for (a, b) in pending:
            if quo.stabilized(a, b):
                hw0 = wdf.hw_rank_map(a, b).get(0, 0)
                results[(a, b)] = (quo.h0_rank(a, b), d, quo.killed[(a, b)])
                # an early plateau disagreeing with a certified HW rank is
                # re-deepened: the certificate is empirical, never a claim
                if wdf.stabilized(a, b) and quo.h0_rank(a, b) != hw0 and d < depth:
                    still.append((a, b))
            else:
                # a re-deepened pair whose rank moved: its earlier plateau
                # is refuted, not certified
                results.pop((a, b), None)
                still.append((a, b))
        pending = still
        d += 1
    rows = []
    passed = True
    for (a, b) in pairs:
        hw0 = wdf.hw_rank_map(a, b).get(0, 0)
        entry = {"pair": [a, b], "hw_h0": hw0,
                 "hw_stabilized": wdf.stabilized(a, b)}
        if (a, b) in results:
            q0, dst, _ = results[(a, b)]
            entry.update({"quotient_h0": q0, "depth": dst,
                          "quotient_stabilized": True})
            if wdf.stabilized(a, b):
                entry["agree"] = ok = (q0 == hw0)
                passed = passed and ok
            else:
                entry["agree"] = None
                entry["note"] = "HW not stabilized; not compared"
        else:
            entry.update({"quotient_stabilized": False, "agree": None})
        rows.append(entry)
    # a depth too shallow to certify any pair compares nothing: no pass
    passed = passed and any(r["agree"] is not None for r in rows)
    kernel_rows = []
    for (a, b) in pairs:
        if (a, b) in results:
            n = hcat.class_count(a, b, 0)
            gamma = Matrix.from_columns(hcat.ring, [
                wdf.frac.gamma(a, b, 0, hcat.ring.unit_vector(n, i))
                for i in range(n)], wdf.frac.class_count(a, b, 0))
            match = results[(a, b)][2].kernel_basis() == gamma.kernel_basis()
            kernel_rows.append({"pair": [a, b], "kernels_match": match})
            passed = passed and match
    return {"passed": passed, "pairs": rows, "comparison_maps": kernel_rows,
            "cone_classes": [repr(c) for c in gens]}
