"""Decorated posets: the poset-indexed category O_P and wrapping sequences.

Finite-scale conventions: a wrapping sequence is a maximal ascending chain
of continuation steps.  ``wrapping_sequences`` builds only such chains, so
each is totally ordered and admits no upward continuation step by
construction; it is certified cofinal when the defining colimit comparisons
hold exactly on it (``certifies``).
"""

from __future__ import annotations

from itertools import combinations

from .ainf import AInfCategory
from .errors import NotSufficientlyWrapped
from .floer import WeakFloerSetup, check_decoration, unital_category
from .localization import CSet, ContClass, FractionCategory


class DecoratedPoset:
    """The finite chain p0 < p1 < .. over ordered Lagrangians, with a
    decoration of its descending chains.

    ``lag`` maps p_i to the i-th Lagrangian; ``data`` maps descending
    chains (p_k > .. > p_0, as tuples) to Floer datum ids.  It starts
    empty, so every chain reads None, as in envelope-profile setups.
    """

    def __init__(self, setup: WeakFloerSetup, lagrangians):
        self.setup = setup
        self.elements = tuple(f"p{i}" for i in range(len(lagrangians)))
        self.lag = dict(zip(self.elements, lagrangians))
        self._position = {p: i for i, p in enumerate(self.elements)}
        self.data = {}

    def lt(self, a, b) -> bool:
        return self._position[a] < self._position[b]

    def chains_desc(self):
        """Descending chains (p_k > ... > p_0) of 2 up to max_arity + 1
        elements, by length, each length in sorted order; none is longer
        than the poset."""
        top = min(self.setup.max_arity, len(self.elements) - 1)
        return [chain for k in range(1, top + 1) for chain in
                sorted(combinations(reversed(self.elements), k + 1))]

    def datum(self, chain):
        return self.data.get(tuple(chain))

    def validate(self):
        """Chain decorations: Lagrangian tuples composable, data restriction
        compatible with the setup's restriction maps."""
        for chain in self.chains_desc():
            check_decoration(self.setup, chain,
                             tuple(self.lag[p] for p in chain), self.data)
        return True


def build_O_P(setup: WeakFloerSetup, P: DecoratedPoset) -> AInfCategory:
    """The strictly unital category with hom(p, q) = CF(L_p, L_q) for p > q,
    an adjoined unit on the diagonal, zero elsewhere, operations decorated by
    the poset's chains."""
    P.validate()
    pairs = [(p, q) for p in P.elements for q in P.elements if P.lt(q, p)]
    chains = [(chain, P.datum(chain)) for chain in P.chains_desc()]
    return unital_category(setup, P.elements, P.lag, pairs, chains,
                           name=f"O_P[{setup.name}]")


def wrapping_sequences(P: DecoratedPoset, icset: CSet, p):
    """Each maximal ascending chain p = p_0 < p_1 < ... of P whose steps
    carry non-identity continuation classes, with its step classes (the
    first class p_{i+1} -> p_i of ``icset`` on each step).

    So every sequence yielded is totally ordered and finite-scale cofinal:
    no continuation step leads up from its top."""

    def step(a, b):
        return next((c for c in icset if c.src == b and c.tgt == a
                     and not icset.is_identity(c)), None)

    def grow(seq, steps):
        exts = [(q, c) for q in sorted(P.elements) if P.lt(seq[-1], q)
                for c in [step(seq[-1], q)] if c is not None]
        if not exts:
            yield seq, steps
        for q, c in exts:
            yield from grow(seq + [q], steps + [c])
    yield from grow([p], [])


def certifies(setup: WeakFloerSetup, P: DecoratedPoset,
              frac_P: FractionCategory, frac_env: FractionCategory, seq,
              steps) -> bool:
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
        for q in P.elements)


def _composite_index(frac, base, steps):
    """Slice index over ``base`` of the composite continuation class from the
    sequence top into the base: 0 for no steps, None when the composite is
    not in the continuation set."""
    comp = None
    for e in reversed(steps):
        comp = e if comp is None else frac._compose_classes(comp, e)
    return 0 if comp is None else frac._slice_index(base, comp)


def check_sufficiently_wrapped(setup, P, frac_P, frac_env):
    """Raise NotSufficientlyWrapped naming the first element, in sorted
    order, on which no certified wrapping sequence starts."""
    for p in sorted(P.elements):
        if not any(certifies(setup, P, frac_P, frac_env, seq, steps)
                   for seq, steps in wrapping_sequences(P, frac_P.cset, p)):
            raise NotSufficientlyWrapped(
                f"element {p} lies on no verified wrapping sequence")
