"""The bundled fixture files are the canonical serialization of the
programmatic builders, byte for byte."""

from pathlib import Path

import pytest

import fixture_builders
from wrapcat import setupfile
from wrapcat.setupfile import canonical_json, setup_to_dict

FIXTURES = Path(setupfile.__file__).parent / "fixtures"
NAMES = ["toyb", "toyc", "micro2datum", "toyb_break_permutation",
         "toyc_break_closure", "ore_break", "dsq_break", "micro2_break_beta"]
# builders of a family of setups, one per argument, with no bundled file
FAMILIES = ["toyc_chain", "triples"]


def test_every_builder_is_covered():
    built = sorted(n[len("build_"):] for n in dir(fixture_builders)
                   if n.startswith("build_"))
    assert built == sorted(NAMES + FAMILIES)


def test_toyc_chain_three_is_toyc():
    chain = setup_to_dict(fixture_builders.build_toyc_chain(3))
    toyc = setup_to_dict(fixture_builders.build_toyc())
    assert (chain.pop("name"), toyc.pop("name")) == ("toyc_3", "toyc")
    assert canonical_json(chain) == canonical_json(toyc)


@pytest.mark.parametrize("name", NAMES)
def test_fixture_file_matches_builder(name):
    setup = getattr(fixture_builders, f"build_{name}")()
    expected = (FIXTURES / f"{name}.json").read_bytes()
    assert canonical_json(setup_to_dict(setup)).encode() == expected


@pytest.mark.parametrize("n", [1, 2])
def test_triples_load_back_as_built(n):
    # the loader accepts every key and id the builder writes: each mu,
    # alpha, beta and gamma key has its owner, and no id repeats
    doc = setup_to_dict(fixture_builders.build_triples(n))
    assert setup_to_dict(setupfile.setup_from_dict(doc)) == doc
