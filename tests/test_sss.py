"""The entanglement stages and the wrapping sequences of the bundled poset.

Every stage follows one simplex rule: a k-simplex is a (k+1)-tuple of
vertices whose Lagrangian tuple is composable.  On an all-distinct setup
with N Lagrangians, E_n has (n + 1) N vertices and (n + 1)^(k+1) N (N - 1)
.. (N - k) k-simplices: pick k + 1 distinct Lagrangians in order, then one
of the n + 1 copies of each.
"""

from functools import partial
from math import prod
from pathlib import Path

import pytest

from fixture_builders import (build_micro2datum, build_toyb, build_toyc,
                              build_toyc_chain, build_triples)
from wrapcat import cli
from wrapcat.ainf import cohomology_category
from wrapcat.cli import _prepare, bundled_wrapped_poset
from wrapcat.errors import DecorationInconsistent
from wrapcat.floer import CompatibleCollection, choose_compatible_collection
from wrapcat.linalg import GradedModule
from wrapcat.localization import FractionCategory
from wrapcat.posets import build_O_P, wrapping_sequences
from wrapcat.setupfile import load_setup
from wrapcat.sss import (build_F_E, canonical_sss, check_bridge, entangle,
                         localize_stage)
from wrapcat.wrap import continuation_cset

BUILDERS = {"toyb": build_toyb, "toyc": build_toyc,
            "toyc_4": lambda: build_toyc_chain(4)}


def stage(setup, n, col=None):
    """E_n of the setup, decorated by ``col`` (the chosen collection when
    None): E_delta for n = 0, else n + 1 entangled copies."""
    col = col or choose_compatible_collection(setup)
    e_delta = canonical_sss(setup, col)
    return e_delta if n == 0 else entangle(setup, col, n)


# micro2datum's other compatible collection: d2 on (A, B), where the chosen
# one takes d1, the first datum of D(A, B)
MICRO2_D2 = CompatibleCollection({("A", "B"): "d2", ("B", "A"): "e1"})


# the bundled fixtures that load and build E_delta (badscalar is an input
# error, and dsq_break's envelope is no complex)
E_DELTA_FIXTURES = ["micro2_break_beta", "micro2datum", "ore_break", "toyb",
                    "toyb_break_permutation", "toyc", "toyc_break_closure"]


def falling(x, m, step):
    """x (x - step) .. (x - (m - 1) step)."""
    return prod(x - i * step for i in range(m))


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("n", [0, 1, 2])
def test_stage_counts(name, n):
    setup = BUILDERS[name]()
    N = len(setup.lagrangians)
    E = stage(setup, n)
    assert len(E.vertices) == (n + 1) * N
    for k in range(1, setup.max_arity + 1):
        assert len(E.simplices.get(k, ())) == falling((n + 1) * N, k + 1,
                                                      n + 1), k


@pytest.mark.parametrize("build", [build_toyb, build_toyc, build_micro2datum])
def test_one_block_entangles_to_itself(build):
    setup = build()
    e_delta = stage(setup, 0)
    E = entangle(setup, choose_compatible_collection(setup), 0)

    def strip(simp):
        assert all(v.startswith("b0.") for v in simp)
        return tuple(v[3:] for v in simp)
    assert tuple(strip(E.vertices)) == e_delta.vertices
    assert {k: [strip(s) for s in simps] for k, simps in E.simplices.items()} \
        == e_delta.simplices
    assert {strip(s): d for s, d in E.data.items()} == e_delta.data


def test_no_simplex_holds_two_copies_of_a_lagrangian():
    E = stage(build_toyc(), 1)
    for simps in E.simplices.values():
        for simp in simps:
            lags = [E.lag[v] for v in simp]
            assert len(set(lags)) == len(lags), simp
    # (K, K) is not composable, so the two copies of K are not joined
    assert ("b0.K", "b1.K") not in E.simplices[1]
    assert ("b0.K", "b1.L0") in E.simplices[1]


def test_full_profile_cross_simplices_take_the_collections_datum():
    # micro2datum's stages have edges only (max_arity 1), so each edge
    # between blocks carries the chosen collection's datum over its
    # Lagrangians, the first datum of D on a pair
    setup = build_micro2datum()
    col = choose_compatible_collection(setup)
    e_delta = stage(setup, 0)
    E = stage(setup, 1)
    assert E.validate()
    cross = [s for s in E.simplices[1] if s[0][:2] != s[1][:2]]
    assert len(cross) == 2 * len(e_delta.simplices[1])
    for simp in cross:
        lags = tuple(E.lag[v] for v in simp)
        assert E.data[simp] == col.datum(lags) == setup.data_system.D[lags][0]


@pytest.mark.parametrize("n", [1, 2])
def test_one_choice_decorates_every_simplex_of_a_stage(n):
    # with the collection that takes d2 on (A, B), no stage re-picks d1 for
    # its edges between blocks
    setup = build_micro2datum()
    E = stage(setup, n, MICRO2_D2)
    assert E.validate()
    over_ab = [s for s in E.simplices[1]
               if tuple(E.lag[v] for v in s) == ("A", "B")]
    assert len(over_ab) == (n + 1) ** 2
    assert {E.data[s] for s in over_ab} == {"d2"}


@pytest.mark.parametrize("build", [build_toyb, build_toyc])
def test_wrapping_sequences_are_cofinal_chains_by_construction(build):
    setup = build()
    col, _, hcat, cset = _prepare(setup)
    P = bundled_wrapped_poset(setup, col, cset)
    oh = cohomology_category(build_O_P(setup, P))
    icset = continuation_cset(setup, oh, P.lag)
    nonunits = [c for c in icset if not icset.is_identity(c)]
    position = {p: i for i, p in enumerate(P.vertices)}
    count = 0
    for p in P.vertices:
        for seq, steps in wrapping_sequences(P, icset, p):
            count += 1
            assert seq[0] == p and len(steps) == len(seq) - 1
            for a, b, c in zip(seq, seq[1:], steps):
                assert position[a] < position[b]
                assert c in nonunits and (c.src, c.tgt) == (b, a)
            top = seq[-1]
            assert not any(c.src == q and c.tgt == top for c in nonunits
                           for q in P.vertices if position[top] < position[q])
    assert count >= len(P.vertices)
    assert any(len(seq) > 1 for p in P.vertices
               for seq, _ in wrapping_sequences(P, icset, p))


@pytest.mark.parametrize("fixture", E_DELTA_FIXTURES)
def test_f_of_e_delta_is_the_canonical_envelope(fixture):
    # so entangle --compare localizes E_delta through the envelope it has
    # already built
    setup = load_setup(Path(cli.__file__).parent / "fixtures" / f"{fixture}.json")
    col, env, hcat, cset = _prepare(setup)
    e_delta = canonical_sss(setup, col)
    F = build_F_E(setup, e_delta)
    assert F.objects == env.objects
    assert F.homs == env.homs
    assert F.ops == env.ops
    assert F.units == env.units
    frac = localize_stage(setup, e_delta)
    assert [c.key() for c in frac.cset] == [c.key() for c in cset]


def _bundled(name):
    return lambda: load_setup(
        Path(cli.__file__).parent / "fixtures" / f"{name}.json")


# the bundled fixtures whose entangle --compare reaches tau, and toyc_n
TAU_SETUPS = {**{name: _bundled(name) for name in
                 ("toyb", "toyc", "toyc_break_closure", "ore_break")},
              **{f"toyc_{n}": partial(build_toyc_chain, n) for n in (2, 3, 4)}}


@pytest.mark.parametrize("name", sorted(TAU_SETUPS))
def test_iota_is_the_envelope_under_the_object_map(name):
    # so tau_compare reads iota: O_P -> F(E_delta) as its object map
    # p -> P.lag[p] alone: every label goes to itself and 1@p to 1@P.lag[p]
    setup = TAU_SETUPS[name]()
    col, env, hcat, cset = _prepare(setup)
    P = bundled_wrapped_poset(setup, col, cset)
    ocat = build_O_P(setup, P)
    lag = P.lag
    order = {p: i for i, p in enumerate(P.vertices)}
    position = {lag[p]: i for p, i in order.items()}

    def image(x, y, label):
        return f"1@{lag[x]}" if x == y else label

    def unit_module(x):
        return GradedModule.from_generators(setup.ring, [(f"1@{x}", 0)])
    for p in P.vertices:
        assert ocat.unit_of(p) == {f"1@{p}": setup.ring.one()}
        assert env.unit_of(lag[p]) == {f"1@{lag[p]}": setup.ring.one()}
        assert ocat.hom(p, p) == unit_module(p)
        assert env.hom(lag[p], lag[p]) == unit_module(lag[p])
        for q in P.vertices:
            if order[q] < order[p]:
                assert ocat.hom(p, q) == env.hom(lag[p], lag[q])
            elif p != q:
                assert ocat.hom(p, q).is_zero()
    mapped = {
        tuple(lag[x] for x in chain):
        {tuple(map(image, chain, chain[1:], inputs)):
         {image(chain[0], chain[-1], out): s for out, s in outs.items()}
         for inputs, outs in table.items()}
        for chain, table in ocat.ops.items()}
    descending = {chain: table for chain, table in env.ops.items()
                  if all(position[a] >= position[b]
                         for a, b in zip(chain, chain[1:]))}
    assert mapped == descending


@pytest.mark.parametrize("build", [build_toyb, build_toyc])
def test_identity_bridge_is_the_full_check(build):
    # E_delta -> E0 is the identity of E_delta over one localization: it
    # passes without building a colimit, with the result the full check
    # gives when the two localizations are distinct objects
    setup = build()
    col, env, hcat, cset = _prepare(setup)
    E = canonical_sss(setup, col)
    frac = FractionCategory(hcat, cset)
    identity = {v: v for v in E.vertices}
    short = check_bridge(E, E, frac, frac, identity)
    assert not frac._colims
    full = check_bridge(E, E, frac, FractionCategory(hcat, cset), identity)
    assert frac._colims
    assert short == full
    assert short["passed"]


def test_entangled_stage_checks_its_decorations():
    setup = build_triples()
    E = stage(setup, 1)
    assert {E.data[s] for s in E.simplices[2]} == {"t0"}
    # a cross-block simplex whose datum does not restrict to its faces'
    E.data[("b0.A", "b1.B", "b0.C")] = "t1"
    with pytest.raises(DecorationInconsistent, match="incompatible"):
        E.validate()


def test_validate_refuses_an_undecorated_full_profile_simplex():
    setup = build_micro2datum()
    E = stage(setup, 1)
    E.data[E.simplices[1][0]] = None
    with pytest.raises(DecorationInconsistent, match="undecorated"):
        E.validate()


def test_the_choice_of_collection_does_not_change_the_answer(monkeypatch):
    # micro2datum's two compatible collections give one HW table, the same
    # stages E_delta .. E2 and the same bridge and tau verdicts
    setup = build_micro2datum()

    def answers():
        hw = cli.cmd_compute(setup, "hw").doc["sections"]["hw_table"]
        rep = cli.cmd_entangle(setup, level=2, compare=True).doc["sections"]
        return (hw, rep["stages"],
                {name: br["passed"] for name, br in rep["bridges"].items()},
                rep["tau"]["passed"])
    chosen = answers()
    assert chosen[2] == {"E_delta->E0": True, "E0->E1": False,
                         "E1->E2": False}
    picks = []
    monkeypatch.setattr(cli, "choose_compatible_collection",
                        lambda s: picks.append(s) or MICRO2_D2)
    assert answers() == chosen
    assert len(picks) == 2
