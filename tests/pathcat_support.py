"""Random path-category instances wired into the library's data model."""

from oracles import PathCategoryInstance
from wrapcat.ainf import AInfCategory
from wrapcat.linalg import GradedModule
from wrapcat.localization import CSet


def instance_to_category(inst: PathCategoryInstance, ring) -> AInfCategory:
    paths = inst.paths()
    objs = inst.objects
    edge_info = {name: (s, t) for (name, s, t) in inst.edges}
    homs = {}
    units = {}
    for i, o in enumerate(objs):
        homs[(o, o)] = GradedModule.from_generators(ring, [(f"id{i}", 0)])
        units[o] = {f"id{i}": 1}
    for (s, t), plist in sorted(paths.items()):
        if s == t:
            continue
        homs[(objs[s], objs[t])] = GradedModule.from_generators(
            ring, [(";".join(p), 0) for p in sorted(plist)])
    cat = AInfCategory(ring, objs, homs, units)
    for (s, t), plist in sorted(paths.items()):
        for p in plist:
            for cut in range(1, len(p)):
                a, b = p[:cut], p[cut:]
                cur = s
                for name in a:
                    cur = edge_info[name][1]
                if cur in (s, t):
                    continue
                cat.add_op_entry((objs[s], objs[cur], objs[t]),
                                 (";".join(a), ";".join(b)), ";".join(p), 1)
    cat.add_unit_entries()
    return cat


def wrap_cset(inst: PathCategoryInstance, hcat) -> CSet:
    paths = inst.paths()
    objs = inst.objects
    classes = []
    for (s, t), plist in sorted(paths.items()):
        for p in plist:
            if s != t and all(n in inst.wrap_edges for n in p):
                classes.append((objs[s], objs[t],
                                hcat.project_dict(objs[s], objs[t], 0,
                                                  {";".join(p): 1})))
    return CSet(hcat, classes)
