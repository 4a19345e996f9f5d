"""Programmatic constructions of the bundled fixtures, and of the small
full-profile setups the tests share.

The JSON files under src/wrapcat/fixtures are generated from these builders
(canonical serialization); tests cross-check the files against the builders
byte for byte.
"""

import json
from itertools import permutations
from pathlib import Path

from wrapcat import setupfile
from wrapcat.floer import (FloerDataSystem, WeakFloerSetup, family_key,
                           subsequences)
from wrapcat.linalg import GradedModule
from wrapcat.rings import CoefficientRing

F2 = CoefficientRing.prime_field(2)
Q = CoefficientRing.rationals()


def _mod(ring, *gens):
    return GradedModule.from_generators(ring, list(gens))


def build_toyb() -> WeakFloerSetup:
    """Four Lagrangians in two wrapped pairs: c: Lp -> L and d: Kp -> K are
    continuation classes, cp/dp the connecting classes in the opposite
    directions, x, y, xp, yp the L-to-K classes with an associative mu^2
    table.  Everything in degree 0 over F2."""
    ring = F2
    lag = ["L", "Lp", "K", "Kp"]
    cf = {
        ("Lp", "L"): _mod(ring, ("c", 0)),
        ("L", "Lp"): _mod(ring, ("cp", 0)),
        ("Kp", "K"): _mod(ring, ("d", 0)),
        ("K", "Kp"): _mod(ring, ("dp", 0)),
        ("L", "K"): _mod(ring, ("y", 0)),
        ("Lp", "K"): _mod(ring, ("x", 0)),
        ("L", "Kp"): _mod(ring, ("yp", 0)),
        ("Lp", "Kp"): _mod(ring, ("xp", 0)),
    }
    one = ring.one()
    # products only along the continuation directions (precomposition with c,
    # postcomposition with d); products through cp/dp would force associativity
    # violations against the vanishing return composites
    ops = {
        ("Lp", "L", "K"): [(("c", "y"), "x", one)],
        ("Lp", "L", "Kp"): [(("c", "yp"), "xp", one)],
        ("L", "Kp", "K"): [(("yp", "d"), "y", one)],
        ("Lp", "Kp", "K"): [(("xp", "d"), "x", one)],
    }
    continuation = [
        ("Lp", "L", {"c": one}),
        ("Kp", "K", {"d": one}),
    ]
    return WeakFloerSetup(ring, lag, composable_mode="all-distinct", max_arity=3,
                          cf=cf, profile="envelope", envelope_ops=ops,
                          continuation=continuation, name="toyb")


def build_toyc() -> WeakFloerSetup:
    """Directed telescope L0 <- L1 <- L2 <- L3 over F2 with CF(Li, K) of
    ranks (1, 2, 2, 2); the transition maps are injective then isomorphisms.
    The continuation set contains the telescope maps and their composites."""
    ring = F2
    lag = ["L0", "L1", "L2", "L3", "K"]
    one = ring.one()
    cf = {
        ("L1", "L0"): _mod(ring, ("c0", 0)),
        ("L2", "L1"): _mod(ring, ("c1", 0)),
        ("L3", "L2"): _mod(ring, ("c2", 0)),
        ("L2", "L0"): _mod(ring, ("c01", 0)),
        ("L3", "L1"): _mod(ring, ("c12", 0)),
        ("L3", "L0"): _mod(ring, ("c012", 0)),
        ("L0", "K"): _mod(ring, ("a0", 0)),
        ("L1", "K"): _mod(ring, ("b1", 0), ("e1", 0)),
        ("L2", "K"): _mod(ring, ("b2", 0), ("e2", 0)),
        ("L3", "K"): _mod(ring, ("b3", 0), ("e3", 0)),
    }
    ops = {
        ("L2", "L1", "L0"): [(("c1", "c0"), "c01", one)],
        ("L3", "L2", "L1"): [(("c2", "c1"), "c12", one)],
        ("L3", "L2", "L0"): [(("c2", "c01"), "c012", one)],
        ("L3", "L1", "L0"): [(("c12", "c0"), "c012", one)],
        ("L1", "L0", "K"): [(("c0", "a0"), "b1", one)],
        ("L2", "L1", "K"): [(("c1", "b1"), "b2", one), (("c1", "e1"), "e2", one)],
        ("L3", "L2", "K"): [(("c2", "b2"), "b3", one), (("c2", "e2"), "e3", one)],
        ("L2", "L0", "K"): [(("c01", "a0"), "b2", one)],
        ("L3", "L1", "K"): [(("c12", "b1"), "b3", one), (("c12", "e1"), "e3", one)],
        ("L3", "L0", "K"): [(("c012", "a0"), "b3", one)],
    }
    continuation = [
        ("L1", "L0", {"c0": one}),
        ("L2", "L1", {"c1": one}),
        ("L3", "L2", {"c2": one}),
        ("L2", "L0", {"c01": one}),
        ("L3", "L1", {"c12": one}),
        ("L3", "L0", {"c012": one}),
    ]
    wrap_chains = {"L0": ["L0", "L1", "L2", "L3"],
                   "L1": ["L1", "L2", "L3"],
                   "L2": ["L2", "L3"]}
    return WeakFloerSetup(ring, lag, composable_mode="all-distinct", max_arity=3,
                          cf=cf, profile="envelope", envelope_ops=ops,
                          continuation=continuation, wrap_chains=wrap_chains,
                          name="toyc")


def build_toyc_chain(n) -> WeakFloerSetup:
    """toyc's telescope one object longer per step: L0 <- L1 <- .. <- Ln
    and K over F2, with CF(L0, K) = <a0>, CF(Li, K) = <bi, ei> for i >= 1,
    one class c_{i..j-1} in CF(Lj, Li) for every j > i (named by its
    steps, c0, c01, ..), composition of telescope classes, and
    c_{i..j-1} . a0 = bj, . bi = bj, . ei = ej.  Every telescope class is
    a continuation class.  n = 3 is toyc under the name toyc_3."""
    ring = F2
    one = ring.one()
    lag = [f"L{i}" for i in range(n + 1)] + ["K"]

    def c(i, j):
        return "c" + "".join(str(t) for t in range(i, j))
    steps = [(i, i + m) for m in range(1, n + 1) for i in range(n + 1 - m)]
    cf = {(f"L{j}", f"L{i}"): _mod(ring, (c(i, j), 0)) for i, j in steps}
    cf[("L0", "K")] = _mod(ring, ("a0", 0))
    for i in range(1, n + 1):
        cf[(f"L{i}", "K")] = _mod(ring, (f"b{i}", 0), (f"e{i}", 0))
    ops = {}
    for k in range(2, n + 1):
        for j in range(k - 1, 0, -1):
            for i in range(j - 1, -1, -1):
                ops[(f"L{k}", f"L{j}", f"L{i}")] = [
                    ((c(j, k), c(i, j)), c(i, k), one)]
    for i, j in steps:
        ends = [("a0", "b")] if i == 0 else [(f"b{i}", "b"), (f"e{i}", "e")]
        ops[(f"L{j}", f"L{i}", "K")] = [((c(i, j), lab), f"{out}{j}", one)
                                        for lab, out in ends]
    continuation = [(f"L{j}", f"L{i}", {c(i, j): one}) for i, j in steps]
    wrap_chains = {f"L{i}": [f"L{t}" for t in range(i, n + 1)]
                   for i in range(n)}
    return WeakFloerSetup(ring, lag, composable_mode="all-distinct", max_arity=3,
                          cf=cf, profile="envelope", envelope_ops=ops,
                          continuation=continuation, wrap_chains=wrap_chains,
                          name=f"toyc_{n}")


def build_micro2datum() -> WeakFloerSetup:
    """Full-profile setup over Q with |D(A,B)| = 2: the two data give
    different differentials on CF(A,B) = <p, q; r>, compared by a swap alpha
    whose round trips are homotopic to the identity via nonzero betas."""
    ring = Q
    one = ring.one()
    lag = ["A", "B"]
    cf = {("A", "B"): _mod(ring, ("p", 0), ("q", 0), ("r", 1))}
    ds = FloerDataSystem()
    ds.D[("A", "B")] = ["d1", "d2"]
    ds.D[("B", "A")] = ["e1"]
    ds.mu[(("A", "B"), "d1")] = [(("p",), "r", one)]
    ds.mu[(("A", "B"), "d2")] = [(("q",), "r", one)]
    ds.mu[(("B", "A"), "e1")] = []
    ident = [("p", "p", one), ("q", "q", one), ("r", "r", one)]
    swap = [("p", "q", one), ("q", "p", one), ("r", "r", one)]
    swap_shear = [("p", "q", one), ("q", "p", one), ("q", "q", one),
                  ("r", "r", one)]
    ds.Dprime[("A", "B")] = [("a11", ("d1", "d1")), ("a12", ("d1", "d2")),
                             ("a21", ("d2", "d1")), ("a22", ("d2", "d2"))]
    ds.Dprime[("B", "A")] = [("b11", ("e1", "e1"))]
    ds.alpha[(("A", "B"), "a11")] = ident
    ds.alpha[(("A", "B"), "a22")] = ident
    ds.alpha[(("A", "B"), "a12")] = swap
    ds.alpha[(("A", "B"), "a21")] = swap_shear
    ds.alpha[(("B", "A"), "b11")] = []
    prime_of = dict(ds.Dprime[("A", "B")])
    second = []
    betas = {}
    idx = 0
    for a in ("d1", "d2"):
        for b in ("d1", "d2"):
            for c in ("d1", "d2"):
                ac = [i for i, pr in prime_of.items() if pr == (a, c)][0]
                ab = [i for i, pr in prime_of.items() if pr == (a, b)][0]
                bc = [i for i, pr in prime_of.items() if pr == (b, c)][0]
                sid = f"s{idx}"
                idx += 1
                second.append((sid, (ac, ab, bc)))
                if (a, b, c) == ("d1", "d2", "d1"):
                    betas[sid] = [("r", "q", one)]
                elif (a, b, c) == ("d2", "d1", "d2"):
                    betas[sid] = [("r", "p", one)]
                else:
                    betas[sid] = []
    ds.Dsecond[("A", "B")] = second
    ds.Dsecond[("B", "A")] = [("t0", ("b11", "b11", "b11"))]
    for sid, entries in betas.items():
        ds.beta[(("A", "B"), sid)] = entries
    ds.beta[(("B", "A"), "t0")] = []
    ds.f[("A", "B")] = {"d1": "a11", "d2": "a22"}
    ds.f[("B", "A")] = {"e1": "b11"}
    return WeakFloerSetup(ring, lag, composable_mode="all-distinct", max_arity=1,
                          cf=cf, profile="full", data_system=ds,
                          continuation=[], name="micro2datum")


def build_toyb_break_permutation() -> WeakFloerSetup:
    """(L, K) composable without (K, L): permutation-closure failure."""
    base = build_toyb()
    tuples = {1: sorted(set(base.composable[1]) - {("K", "L")})}
    return WeakFloerSetup(base.ring, base.lagrangians, composable_mode="explicit",
                          composable_tuples=tuples, max_arity=1, cf=base.cf,
                          profile="envelope", envelope_ops={},
                          continuation=base.continuation,
                          name="toyb_break_permutation")


def build_toyc_break_closure() -> WeakFloerSetup:
    """toyc with the composite class c01 removed from the continuation set."""
    s = build_toyc()
    s.continuation = [c for c in s.continuation if "c01" not in c[2]]
    s.name = "toyc_break_closure"
    return s


def build_ore_break() -> WeakFloerSetup:
    """X --g--> Z <--cz-- Y with C = {units, cz}: the Ore square for g has
    no completion, so condition (iii) fails with witness g."""
    ring = F2
    one = ring.one()
    lag = ["X", "Y", "Z"]
    cf = {("X", "Z"): _mod(ring, ("g", 0)), ("Y", "Z"): _mod(ring, ("cz", 0))}
    return WeakFloerSetup(ring, lag, composable_mode="all-distinct", max_arity=2,
                          cf=cf, profile="envelope", envelope_ops={},
                          continuation=[("Y", "Z", {"cz": one})],
                          name="ore_break")


def build_dsq_break() -> WeakFloerSetup:
    """A differential with d(d(u)) != 0: the relation check names u."""
    ring = F2
    one = ring.one()
    lag = ["A", "B"]
    cf = {("A", "B"): _mod(ring, ("u", 0), ("v", 1), ("w", 2))}
    ops = {("A", "B"): [(("u",), "v", one), (("v",), "w", one)]}
    return WeakFloerSetup(ring, lag, composable_mode="all-distinct", max_arity=1,
                          cf=cf, profile="envelope", envelope_ops=ops,
                          continuation=[], name="dsq_break")


def build_micro2_break_beta() -> WeakFloerSetup:
    """micro2datum with one beta witness corrupted: axiom (viii) fails."""
    s = build_micro2datum()
    for key, entries in list(s.data_system.beta.items()):
        if entries == [("r", "q", s.ring.one())]:
            s.data_system.beta[key] = [("r", "p", s.ring.one())]
            break
    s.name = "micro2_break_beta"
    return s


ALL_BUILDERS = {
    "toyb": build_toyb,
    "toyc": build_toyc,
    "micro2datum": build_micro2datum,
    "toyb_break_permutation": build_toyb_break_permutation,
    "toyc_break_closure": build_toyc_break_closure,
    "ore_break": build_ore_break,
    "dsq_break": build_dsq_break,
    "micro2_break_beta": build_micro2_break_beta,
}


def build_triples(n=2) -> WeakFloerSetup:
    """A full-profile setup on three Lagrangians with zero CF modules: every
    pair has the data p0 .. p(n-1), every triple t0 .. t(n-1), and t_i
    restricts to p_i on each pair.  Only a family that takes one p_i on
    every pair has a section witness, t_i."""
    lags = ("A", "B", "C")
    triples = list(permutations(lags, 3))
    ds = FloerDataSystem(
        D={**{p: [f"p{i}" for i in range(n)] for p in permutations(lags, 2)},
           **{t: [f"t{i}" for i in range(n)] for t in triples}},
        restrictions={(t, sub): {f"t{i}": f"p{i}" for i in range(n)}
                      for t in triples for sub in subsequences(t)},
        sections={t: {family_key({sub: f"p{i}" for sub in subsequences(t)}):
                      f"t{i}" for i in range(n)} for t in triples})
    return WeakFloerSetup(F2, lags, max_arity=2, profile="full",
                          data_system=ds, name="triples")


def rational_fixture_doc(name):
    """The setup document of a bundled F2 fixture re-coefficiented to Q."""
    return fixture_doc_over(name, Q)


def fixture_doc_over(name, ring):
    """The setup document of a bundled F2 fixture re-coefficiented to
    ``ring``: every scalar of these fixtures is "1 mod 2", which becomes the
    ring's one."""
    path = Path(setupfile.__file__).parent / "fixtures" / f"{name}.json"
    doc = json.loads(path.read_text())
    assert doc["coefficients"] == "F2"
    text = json.dumps(dict(doc, coefficients=ring.token()))
    assert text.count(" mod ") == text.count('"1 mod 2"')
    return json.loads(text.replace(
        '"1 mod 2"', json.dumps(ring.format_scalar(ring.one()))))
