"""The poset-indexed category O_P and wrapping sequences.

The poset p0 < .. < pn over ordered Lagrangians is the decorated
semisimplicial set of its descending chains (``sss.poset_stage``), so
O_P is F of it (``floer.build_F_E``), like every entanglement stage; this
module reads its vertices, in order, and their Lagrangians.

Finite-scale conventions: a wrapping sequence is a maximal ascending chain
of continuation steps.  ``wrapping_sequences`` builds only such chains, so
each is totally ordered and admits no upward continuation step by
construction; it is certified cofinal when the defining colimit comparisons
hold exactly on it (``certifies``).
"""

from __future__ import annotations

from .ainf import AInfCategory
from .errors import NotSufficientlyWrapped
from .floer import WeakFloerSetup, build_F_E
from .localization import CSet, ContClass, FractionCategory


def build_O_P(setup: WeakFloerSetup, P) -> AInfCategory:
    """The strictly unital category with hom(p, q) = CF(L_p, L_q) for p > q,
    an adjoined unit on the diagonal, zero elsewhere, operations decorated by
    the poset's chains: F of the poset stage ``P``, once its chains are
    checked composable and compatibly decorated."""
    P.validate()
    return build_F_E(setup, P)


def wrapping_sequences(P, icset: CSet, p):
    """Each maximal ascending chain p = p_0 < p_1 < ... of P whose steps
    carry non-identity continuation classes, with its step classes (the
    first class p_{i+1} -> p_i of ``icset`` on each step).

    So every sequence yielded is totally ordered and finite-scale cofinal:
    no continuation step leads up from its top."""
    position = {q: i for i, q in enumerate(P.vertices)}

    def grow(seq, steps):
        # a step joins two distinct elements, so its class is no identity
        exts = [(q, c) for q in sorted(P.vertices)
                if position[seq[-1]] < position[q]
                for c in icset.between(q, seq[-1])[:1]]
        if not exts:
            yield seq, steps
        for q, c in exts:
            yield from grow(seq + [q], steps + [c])
    yield from grow([p], [])


def certifies(setup: WeakFloerSetup, P, frac_P: FractionCategory,
              frac_env: FractionCategory, seq, steps) -> bool:
    """Whether the wrapping sequence ``seq`` with step classes ``steps``
    (``wrapping_sequences``) is certified.

    ``frac_P`` localizes H O_P at I_{P,C}; ``frac_env`` localizes the
    comparison category (H F_E at C_E), whose objects carry the Lagrangians.

    The composite continuation class from the top into the base must lie in
    the continuation set, and two comparisons must be isomorphisms: the
    defining map colim_i H F(L_{p_i}, K) -> HW(L_{p_0}, K) for every
    Lagrangian K, and the induced colim_i H O_P(p_i, q) -> colim_i H W_P(p_i,
    q) for every q.  The colimit along the sequence is presented on its last
    term, so each comparison is the structure map of the localized hom out of
    p_0 at the slice object of the composite class.
    """
    base = P.lag[seq[0]]
    env_steps = [ContClass(P.lag[b], P.lag[a], c.coords)
                 for c, a, b in zip(steps, seq, seq[1:])]
    idx = _composite_index(frac_env, base, env_steps)
    if idx is None or not all(
            frac_env.colim(base, k).structure_map(idx).is_isomorphism()
            for k in setup.lagrangians):
        return False
    idx = _composite_index(frac_P, seq[0], steps)
    return idx is not None and all(
        frac_P.colim(seq[0], q).structure_map(idx).is_isomorphism()
        for q in P.vertices)


def _composite_index(frac, base, steps):
    """Slice index over ``base`` of the composite continuation class from the
    sequence top into the base: 0 for no steps, None when the composite is
    not in the continuation set."""
    comp = None
    for e in reversed(steps):
        comp = e if comp is None else frac.cset.compose(comp, e)
    return 0 if comp is None else frac.slice_index(base, comp)


def check_sufficiently_wrapped(setup, P, frac_P, frac_env):
    """Raise NotSufficientlyWrapped naming the first element, in sorted
    order, on which no certified wrapping sequence starts."""
    for p in sorted(P.vertices):
        if not any(certifies(setup, P, frac_P, frac_env, seq, steps)
                   for seq, steps in wrapping_sequences(P, frac_P.cset, p)):
            raise NotSufficientlyWrapped(
                f"element {p} lies on no verified wrapping sequence")
