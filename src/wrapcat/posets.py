"""Decorated posets: the poset-indexed category O_P and wrapping sequences.

Finite-scale conventions (see the decisions ledger): a wrapping sequence is
certified cofinal when it is a maximal chain of continuation classes (no
upward extension by a decorated continuation step exists) and the defining
colimit comparisons hold exactly on the supplied prefix.
"""

from __future__ import annotations

from .ainf import AInfCategory
from .errors import DecorationInconsistent, NotCofinal, NotTotallyOrdered
from .floer import WeakFloerSetup, check_decoration, unital_category
from .localization import CSet, ContClass, FractionCategory


class DecoratedPoset:
    """Finite poset with a decoration of its descending chains.

    ``less`` holds the strict order as pairs (p, q) with p < q, transitively
    closed.  ``lag`` maps elements to Lagrangians; ``data`` maps descending
    chains (p_k > .. > p_0, as tuples) to Floer datum ids (None for
    envelope-profile setups).
    """

    def __init__(self, setup: WeakFloerSetup, elements, less, lag, data=None):
        self.setup = setup
        self.elements = tuple(elements)
        self.lag = dict(lag)
        self.less = set()
        pairs = set(map(tuple, less))
        # transitive closure
        changed = True
        while changed:
            changed = False
            for (a, b) in list(pairs):
                for (c, d) in list(pairs):
                    if b == c and (a, d) not in pairs:
                        pairs.add((a, d))
                        changed = True
        self.less = pairs
        for (a, b) in pairs:
            if (b, a) in pairs or a == b:
                raise DecorationInconsistent(f"order relation has a cycle at {a}")
        self.data = dict(data or {})

    def lt(self, a, b) -> bool:
        return (a, b) in self.less

    def chains_desc(self, length):
        """Descending chains (p_k > ... > p_0) with length+1 elements."""
        out = []

        def grow(chain):
            if len(chain) == length + 1:
                out.append(tuple(chain))
                return
            for q in self.elements:
                if self.lt(q, chain[-1]):
                    grow(chain + [q])
        for p in sorted(self.elements):
            grow([p])
        return sorted(out)

    def datum(self, chain):
        return self.data.get(tuple(chain))

    def validate(self):
        """Chain decorations: Lagrangian tuples composable, data restriction
        compatible with the setup's restriction maps."""
        for k in range(1, self.setup.max_arity + 1):
            for chain in self.chains_desc(k):
                check_decoration(self.setup, chain,
                                 tuple(self.lag[p] for p in chain), self.data)
        return True


def build_O_P(setup: WeakFloerSetup, P: DecoratedPoset) -> AInfCategory:
    """The strictly unital category with hom(p, q) = CF(L_p, L_q) for p > q,
    an adjoined unit on the diagonal, zero elsewhere, operations decorated by
    the poset's chains."""
    P.validate()
    pairs = [(p, q) for p in P.elements for q in P.elements if P.lt(q, p)]
    chains = [(chain, P.datum(chain)) for k in range(1, setup.max_arity + 1)
              for chain in P.chains_desc(k)]
    return unital_category(setup, P.elements, P.lag, pairs, chains,
                           name=f"O_P[{setup.name}]")


def verify_wrapping_sequence(setup: WeakFloerSetup, P: DecoratedPoset,
                             frac_P: FractionCategory,
                             frac_env: FractionCategory, seq):
    """Certify a wrapping sequence p_0 < p_1 < ... in P.

    ``frac_P`` localizes H O_P at I_{P,C}; ``frac_env`` localizes the
    comparison category (H F_E at C_E), whose objects carry the Lagrangians.

    Checks: total order; finite-scale cofinality (the chain of continuation
    classes admits no upward extension); the defining isomorphism
    colim_i H F(L_{p_i}, K) -> HW(L_{p_0}, K) for every Lagrangian K; and the
    induced comparison colim_i H O_P(p_i, q) -> colim_i H W_P(p_i, q).  The
    colimit along the sequence is presented on its last term, so each
    comparison is the structure map of the localized hom out of p_0 at the
    slice object of the composite continuation class.
    """
    icset = frac_P.cset
    seq = list(seq)
    for a, b in zip(seq, seq[1:]):
        if not P.lt(a, b):
            raise NotTotallyOrdered(f"{a} < {b} fails in P")
    # designated classes on consecutive pairs
    steps = []
    for a, b in zip(seq, seq[1:]):
        cands = [c for c in icset if c.src == b and c.tgt == a
                 and not icset.is_identity(c)]
        if not cands:
            raise NotCofinal(f"no continuation class on ({b} > {a})")
        steps.append(cands[0])
    # maximality: no upward extension by a continuation class
    top = seq[-1]
    for q in P.elements:
        if P.lt(top, q):
            if any(c.src == q and c.tgt == top and not icset.is_identity(c)
                   for c in icset):
                raise NotCofinal(
                    f"sequence extendable upward by {q}; not cofinal")
    report = {"sequence": list(seq), "hw_comparisons": [], "w_comparisons": []}
    base = P.lag[seq[0]]
    env_steps = [ContClass(P.lag[b], P.lag[a], c.coords)
                 for c, (a, b) in zip(steps, zip(seq, seq[1:]))]
    idx = _composite_index(frac_env, base, env_steps)
    if idx is None:
        raise NotCofinal(
            f"composite continuation {P.lag[seq[-1]]} -> {base} "
            f"is not in the continuation set")
    for k_lag in setup.lagrangians:
        ok = frac_env.colim(base, k_lag).structure_map(idx).is_isomorphism()
        report["hw_comparisons"].append({"K": k_lag, "iso": ok})
    idx = _composite_index(frac_P, seq[0], steps)
    for q in P.elements:
        ok = (idx is not None
              and frac_P.colim(seq[0], q).structure_map(idx).is_isomorphism())
        report["w_comparisons"].append({"q": q, "iso": ok})
    report["passed"] = (all(r["iso"] for r in report["hw_comparisons"])
                        and all(r["iso"] for r in report["w_comparisons"]))
    return report


def _composite_index(frac, base, steps):
    """Slice index over ``base`` of the composite continuation class from the
    sequence top into the base: 0 for no steps, None when the composite is
    not in the continuation set."""
    comp = None
    for e in reversed(steps):
        comp = e if comp is None else frac._compose_classes(comp, e)
    return 0 if comp is None else frac._slice_index(base, comp)


def sufficiently_wrapped_report(setup, P, frac_P, frac_env):
    """Each element's maximal continuation chains, with certificates; an
    element passes when some verified wrapping sequence starts at it."""
    out = {"elements": {}, "passed": True}
    for p in sorted(P.elements):
        seqs = _maximal_chains_from(P, frac_P.cset, p)
        verdict = None
        for seq in seqs:
            try:
                rep = verify_wrapping_sequence(setup, P, frac_P, frac_env, seq)
            except (NotCofinal, NotTotallyOrdered):
                continue
            if rep["passed"]:
                verdict = {"sequence": rep["sequence"], "passed": True}
                break
        if verdict is None:
            verdict = {"passed": False}
            out["passed"] = False
        out["elements"][p] = verdict
    return out


def _maximal_chains_from(P: DecoratedPoset, icset: CSet, p):
    """Maximal ascending chains from p whose steps carry continuation classes."""
    chains = []

    def grow(chain):
        top = chain[-1]
        exts = []
        for q in sorted(P.elements):
            if P.lt(top, q) and any(c.src == q and c.tgt == top
                                    and not icset.is_identity(c) for c in icset):
                exts.append(q)
        if not exts:
            chains.append(list(chain))
            return
        for q in exts:
            grow(chain + [q])
    grow([p])
    return chains

