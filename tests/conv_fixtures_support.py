"""Rational test categories with odd degrees: a dg path category with a
nontrivial differential, and a category with a genuine arity-3 operation.
These pin the global sign convention (see test_cones)."""

from wrapcat.ainf import AInfCategory
from wrapcat.linalg import GradedModule
from wrapcat.rings import CoefficientRing

Q = CoefficientRing.rationals()


def dg_path_cat(ring=Q) -> AInfCategory:
    """Objects o0..o3; edges a: o0->o1 (deg 1), b, e: o1->o2 (deg 0),
    f: o1->o2 (deg 1) with d(e) = f, c: o2->o3 (deg 1); free products with
    the Leibniz-forced differentials.  The structure constants are +-1, so
    the same category exists over every field."""
    objs = ["o0", "o1", "o2", "o3"]
    homs = {}
    units = {}
    for o in objs:
        homs[(o, o)] = GradedModule.from_generators(ring, [(f"1_{o}", 0)])
        units[o] = {f"1_{o}": 1}
    homs[("o0", "o1")] = GradedModule.from_generators(ring, [("a", 1)])
    homs[("o1", "o2")] = GradedModule.from_generators(
        ring, [("b", 0), ("e", 0), ("f", 1)])
    homs[("o2", "o3")] = GradedModule.from_generators(ring, [("c", 1)])
    homs[("o0", "o2")] = GradedModule.from_generators(
        ring, [("ab", 1), ("ae", 1), ("af", 2)])
    homs[("o1", "o3")] = GradedModule.from_generators(
        ring, [("bc", 1), ("ec", 1), ("fc", 2)])
    homs[("o0", "o3")] = GradedModule.from_generators(
        ring, [("abc", 2), ("aec", 2), ("afc", 3)])
    cat = AInfCategory(ring, objs, homs, units)
    cat.add_op_entry(("o1", "o2"), ("e",), "f", 1)
    cat.add_op_entry(("o0", "o2"), ("ae",), "af", -1)
    cat.add_op_entry(("o1", "o3"), ("ec",), "fc", 1)
    cat.add_op_entry(("o0", "o3"), ("aec",), "afc", -1)
    products = [
        (("o0", "o1", "o2"), ("a", "b"), "ab"),
        (("o0", "o1", "o2"), ("a", "e"), "ae"),
        (("o0", "o1", "o2"), ("a", "f"), "af"),
        (("o1", "o2", "o3"), ("b", "c"), "bc"),
        (("o1", "o2", "o3"), ("e", "c"), "ec"),
        (("o1", "o2", "o3"), ("f", "c"), "fc"),
        (("o0", "o2", "o3"), ("ab", "c"), "abc"),
        (("o0", "o2", "o3"), ("ae", "c"), "aec"),
        (("o0", "o2", "o3"), ("af", "c"), "afc"),
        (("o0", "o1", "o3"), ("a", "bc"), "abc"),
        (("o0", "o1", "o3"), ("a", "ec"), "aec"),
        (("o0", "o1", "o3"), ("a", "fc"), "afc"),
    ]
    for chain, inputs, out in products:
        cat.add_op_entry(chain, inputs, out, 1)
    cat.add_unit_entries()
    return cat


def mu3_cat(ring=Q) -> AInfCategory:
    """A genuine arity-3 operation on the chain p0..p3 (no nesting, so the
    relations hold for any value); w is a second closed degree-0 morphism.
    Like ``dg_path_cat`` it exists over every field."""
    objs = ["p0", "p1", "p2", "p3"]
    homs = {}
    units = {}
    for o in objs:
        homs[(o, o)] = GradedModule.from_generators(ring, [(f"1_{o}", 0)])
        units[o] = {f"1_{o}": 1}
    homs[("p0", "p1")] = GradedModule.from_generators(ring, [("g1", 1)])
    homs[("p1", "p2")] = GradedModule.from_generators(ring, [("g2", 0), ("w", 0)])
    homs[("p2", "p3")] = GradedModule.from_generators(ring, [("g3", 1)])
    homs[("p0", "p3")] = GradedModule.from_generators(ring, [("h", 1)])
    cat = AInfCategory(ring, objs, homs, units)
    cat.add_op_entry(("p0", "p1", "p2", "p3"), ("g1", "g2", "g3"), "h", 1)
    cat.add_unit_entries()
    return cat
