"""Setup file (de)serialization: JSON in, WeakFloerSetup out, and back.

Scalars are exact strings ("3/2", "1", "2 mod 5"); canonical serialization
is byte-stable (sorted keys, fixed separators) so round-trips and reports
are reproducible byte for byte.

Generators have string names and JSON integer degrees; Floer-data ids
(and the values of ``restrictions``, ``f`` and ``sections``) are strings.
A graded entry's output degree is the sum of its input degrees plus its
table's shift: 2 - k for a mu^k entry (``operations``, ``floer_data.mu``),
0 for ``alpha`` and -1 for ``beta`` and ``gamma``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from .ainf import check_entry_labels
from .errors import ParseError, SchemaError, WrapcatError
from .floer import FloerDataSystem, WeakFloerSetup
from .linalg import GradedModule
from .rings import CoefficientRing

SCHEMA = "wrapcat/1"


def _pair_from_key(key):
    return tuple(key.split(","))


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


def load_setup(path) -> WeakFloerSetup:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse {path}: {exc}") from exc
    return setup_from_dict(doc)


@contextmanager
def _at(where):
    """Re-raise a failure to read the value at ``where`` as a SchemaError
    that names it."""
    try:
        yield
    except (WrapcatError, KeyError, TypeError, ValueError, AttributeError) as exc:
        detail = (f"missing key {exc.args[0]!r}" if isinstance(exc, KeyError)
                  else str(exc))
        raise SchemaError(f"{where}: {detail}") from exc


def _get(doc, key, kind):
    """``doc[key]``, an empty ``kind`` when absent, checked to be a ``kind``."""
    value = doc.get(key, kind())
    if not isinstance(value, kind):
        name = "an object" if kind is dict else "an array"
        raise SchemaError(f"{key} must be {name}, not {value!r}")
    return value


def setup_from_dict(doc) -> WeakFloerSetup:
    if not isinstance(doc, dict):
        raise SchemaError("setup document must be a JSON object")
    if doc.get("schema") not in (None, SCHEMA):
        raise SchemaError(f"unsupported schema {doc.get('schema')!r}")
    for key in ("coefficients", "lagrangians", "profile"):
        if key not in doc:
            raise SchemaError(f"missing top-level key {key!r}")
    if doc["profile"] not in ("envelope", "full"):
        raise SchemaError(f"profile must be 'envelope' or 'full', not "
                          f"{doc['profile']!r}")
    with _at("coefficients"):
        ring = CoefficientRing.from_token(doc["coefficients"])
    lag = doc["lagrangians"]
    if not isinstance(lag, list) or not all(isinstance(x, str) for x in lag):
        raise SchemaError(f"lagrangians must be an array of names, not {lag!r}")
    comp = _get(doc, "composable", dict)
    with _at("composable"):
        mode = comp.get("mode", "all-distinct")
        if mode not in ("all-distinct", "explicit"):
            raise SchemaError(f"unknown mode {mode!r}")
        max_arity = comp.get("max_arity", 3)
        if type(max_arity) is not int or max_arity < 1:
            raise SchemaError(f"max_arity must be an integer >= 1, not "
                              f"{max_arity!r}")
        explicit = None
        if mode == "explicit":
            explicit = {}
            for key, ts in comp.get("tuples", {}).items():
                k = int(key) if key.strip().isdigit() else 0
                if k < 1:
                    raise SchemaError(f"tuples key {key!r} is not an "
                                      f"integer >= 1")
                explicit[k] = [_names(t) for t in ts]
                for t in explicit[k]:
                    if len(t) != k + 1 or not set(t) <= set(lag):
                        raise SchemaError(f"{k}-tuple {list(t)!r} does not "
                                          f"have {k + 1} declared Lagrangians")
    cf = {}
    for key, gens in sorted(_get(doc, "hom", dict).items()):
        with _at(f"hom {key!r}"):
            pair = _pair_from_key(key)
            if len(pair) != 2:
                raise SchemaError("key is not a pair")
            for end in pair:
                if end not in lag:
                    raise SchemaError(f"{end!r} is not a declared Lagrangian")
            items = []
            for g in gens:
                name, degree = g.get("name"), g.get("degree")
                if not isinstance(name, str) or type(degree) is not int:
                    raise SchemaError(f"generator {g!r} needs a string name "
                                      f"and an integer degree")
                items.append((name, degree))
            cf[pair] = GradedModule.from_generators(ring, items)
    envelope_ops = {}
    for i, entry in enumerate(_get(doc, "operations", list)):
        with _at(f"operations[{i}]"):
            chain = _names(entry["tuple"])
            ops = _graded_entries(ring, cf, chain, [entry], 3 - len(chain))
        envelope_ops.setdefault(chain, []).extend(ops)
    data_system = None
    if doc["profile"] == "full":
        raw = _get(doc, "floer_data", dict)
        with _at("floer_data"):
            data_system = _data_system_from_dict(ring, raw, cf)
    continuation = []
    for i, c in enumerate(_get(doc, "continuation", list)):
        with _at(f"continuation[{i}]"):
            src, tgt = c["source"], c["target"]
            for end in (src, tgt):
                if end not in lag:
                    raise SchemaError(f"{end!r} is not a declared Lagrangian")
            hom = cf.get((src, tgt), GradedModule.zero(ring))
            combo = {}
            for k, v in sorted(c["combo"].items()):
                if not hom.has_label(k) or hom.degree_of(k) != 0:
                    raise SchemaError(f"{k!r} is not a degree-0 generator of "
                                      f"hom({src}, {tgt})")
                combo[k] = ring.parse_scalar(str(v))
            continuation.append((src, tgt, combo))
    wrap_chains = _get(doc, "wrap_chains", dict)
    for key, chain in sorted(wrap_chains.items()):
        with _at(f"wrap_chains {key!r}"):
            if key not in lag:
                raise SchemaError(f"{key!r} is not a declared Lagrangian")
            if not (isinstance(chain, list) and all(x in lag for x in chain)):
                raise SchemaError(f"{chain!r} is not an array of declared "
                                  f"Lagrangians")
    setup = WeakFloerSetup(
        ring, lag, composable_mode=mode, composable_tuples=explicit,
        max_arity=max_arity, cf=cf, profile=doc["profile"],
        envelope_ops=envelope_ops, data_system=data_system,
        continuation=continuation, wrap_chains=wrap_chains,
        name=doc.get("name", "setup"))
    pairs = setup.composable.get(1, ())
    for i, (src, tgt, _) in enumerate(continuation):
        if src == tgt or (src, tgt) not in pairs:
            raise SchemaError(f"continuation[{i}]: ({src}, {tgt}) is not a "
                              f"composable pair of distinct Lagrangians")
    for pair in sorted(cf):
        _check_composable(setup, f"hom {','.join(pair)!r}", pair)
    for i, entry in enumerate(doc.get("operations", [])):
        _check_composable(setup, f"operations[{i}]", tuple(entry["tuple"]))
    if data_system is not None:
        _check_data_keys(setup, raw)
    return setup


def _check_composable(setup, where, t):
    """Raise a SchemaError naming ``where`` unless ``t`` is composable."""
    if t not in setup.composable.get(len(t) - 1, ()):
        raise SchemaError(f"{where}: {','.join(t)} is not composable")


def _check_data_keys(setup, raw):
    """Raise a SchemaError naming the first floer_data table and key whose
    tuple is not composable.  Each table is keyed by "tuple|..." and
    restrictions by "tuple|subtuple", both of which must be composable."""
    for table in ("D", "restrictions", "mu", "Dprime", "alpha", "Dsecond",
                  "beta", "Dthird", "gamma", "f", "sections"):
        for key in sorted(raw.get(table, {})):
            parts = key.split("|")[:2 if table == "restrictions" else 1]
            for t in map(_pair_from_key, parts):
                _check_composable(setup, f"floer_data: {table} {key!r}", t)


def _graded_entries(ring, cf, chain, entries, shift, one_input=False):
    """The (inputs, output, scalar) of each entry of an operations, mu,
    alpha, beta or gamma table on the object tuple ``chain``; an alpha or
    beta entry (``one_input``) has one "input", read as (input, output,
    scalar), the others a list of "inputs".  Each entry is checked in this
    order: its scalar parses, its labels are generators of the CF modules
    along ``chain``, and its output degree is the sum of its input degrees
    plus ``shift``.  It is read inside the ``_at`` of its table."""
    out = []
    for e in entries:
        scalar = ring.parse_scalar(str(e["scalar"]))
        inputs = (e["input"],) if one_input else _names(e["inputs"])
        output = e["output"]
        check_entry_labels(cf, chain, inputs, output)
        degree = shift + sum(cf[p].degree_of(x) for p, x
                             in zip(zip(chain, chain[1:]), inputs))
        if cf[(chain[0], chain[-1])].degree_of(output) != degree:
            raise SchemaError(f"{output!r} does not have degree {degree}")
        out.append((inputs[0] if one_input else inputs, output, scalar))
    return out


def _names(value):
    """``value``, checked to be an array of names (strings), as a tuple: a
    string is no array, and is not split into its characters."""
    if not (isinstance(value, list)
            and all(isinstance(x, str) for x in value)):
        raise SchemaError(f"{value!r} is not an array of names")
    return tuple(value)


def _id(value):
    """``value``, checked to be a datum id: a string."""
    if not isinstance(value, str):
        raise SchemaError(f"id {value!r} is not a string")
    return value


def _ids(value):
    """``value``, checked to be an array of datum ids, as a tuple."""
    if not isinstance(value, list):
        raise SchemaError(f"{value!r} is not an array of ids")
    return tuple(map(_id, value))


def _distinct(ids):
    """``ids``, checked to hold no id twice."""
    for n, i in enumerate(ids):
        if i in ids[:n]:
            raise SchemaError(f"id {i!r} repeats")
    return ids


def _id_tuples(items, field, n):
    """(id, ids) of each item, its ``field`` checked to hold ``n`` ids, and
    no id given to two items."""
    out = []
    for item in items:
        ids = _ids(item[field])
        if len(ids) != n:
            raise SchemaError(f"{field} {list(ids)!r} does not have {n} ids")
        out.append((_id(item["id"]), ids))
    _distinct([i for i, _ in out])
    return out


def _key(key, size=None, slot=False, named=False):
    """The parts of a floer_data key, "|"-separated: a tuple of ``size``
    Lagrangians (of any size when None), then a slot 0, 1 or 2 when
    ``slot``, read as an int, then an id when ``named``.  A key of another
    shape raises a SchemaError."""
    parts = key.split("|")
    shape = ([{2: "a pair", 3: "a triple"}.get(size, "a tuple")]
             + ["a slot 0, 1 or 2"] * slot + ["an id"] * named)
    t = _pair_from_key(parts[0])
    if (len(parts) != len(shape) or size not in (None, len(t))
            or slot and parts[1] not in ("0", "1", "2")):
        last = f" and {shape.pop()}" if len(shape) > 1 else ""
        raise SchemaError(f"key is not {', '.join(shape)}{last}")
    return (t, int(parts[1]), *parts[2:]) if slot else (t, *parts[1:])


def _require(ids, owned, owner):
    """Raise a SchemaError naming the first of ``ids`` not in ``owned``,
    the ids of ``owner``."""
    for i in ids:
        if _id(i) not in owned:
            raise SchemaError(f"{i!r} is not {owner}")


def _require_data(ds, t, ids):
    """Raise a SchemaError naming the first of ``ids`` not in D(t)."""
    _require(ids, ds.D.get(t, ()), f"in D({','.join(t)})")


def _element_ids(table, key):
    """The ids of the elements of ``table[key]``, a Dprime, Dsecond or
    Dthird list."""
    return {item[0] for item in table.get(key, ())}


def _require_dprime(ds, pair, ids):
    """Raise a SchemaError naming the first of ``ids`` not a Dprime id of
    the pair."""
    _require(ids, _element_ids(ds.Dprime, pair),
             f"a Dprime id of {','.join(pair)!r}")


def _data_system_from_dict(ring, raw, cf) -> FloerDataSystem:
    """The Floer-data tables of a full profile, each key read inside the
    ``_at`` of its table and key.  The mu, alpha, beta and gamma tables are
    read last: a key of theirs must name its owner, a datum of D(t), a
    Dprime or Dsecond id of its pair or a Dthird id at its slot, checked
    after its entries."""
    ds = FloerDataSystem()
    for key, ids in sorted(raw.get("D", {}).items()):
        with _at(f"D {key!r}"):
            ds.D[_pair_from_key(key)] = list(_distinct(_ids(ids)))
    for key, table in sorted(raw.get("restrictions", {}).items()):
        with _at(f"restrictions {key!r}"):
            t, sub = map(_pair_from_key, key.split("|"))
            _require_data(ds, t, table)
            _require_data(ds, sub, table.values())
            ds.restrictions[(t, sub)] = dict(table)
    for key, items in sorted(raw.get("Dprime", {}).items()):
        with _at(f"Dprime {key!r}"):
            pair, = _key(key, 2)
            ds.Dprime[pair] = _id_tuples(items, "pair", 2)
            for (_, pr) in ds.Dprime[pair]:
                _require_data(ds, pair, pr)
    for key, items in sorted(raw.get("Dsecond", {}).items()):
        with _at(f"Dsecond {key!r}"):
            pair, = _key(key, 2)
            ds.Dsecond[pair] = _id_tuples(items, "triple", 3)
            for (_, triple) in ds.Dsecond[pair]:
                _require_dprime(ds, pair, triple)
    for key, items in sorted(raw.get("Dthird", {}).items()):
        with _at(f"Dthird {key!r}"):
            triple, i = _key(key, 3, slot=True)
            pair = (triple[:2], triple[1:], triple[::2])[i]
            elems = [(_id(e["id"]), e["datum"], e["datum_i"], e["dprime"])
                     for e in items]
            _distinct([g_id for g_id, *_ in elems])
            for (_, datum, datum_i, dp) in elems:
                _require_data(ds, triple, (datum, datum_i))
                _require_dprime(ds, pair, (dp,))
            ds.Dthird[(triple, i)] = elems
    for key, table in sorted(raw.get("f", {}).items()):
        with _at(f"f {key!r}"):
            pair, = _key(key, 2)
            _require_data(ds, pair, table)
            _require_dprime(ds, pair, table.values())
            ds.f[pair] = dict(table)
    for key, table in sorted(raw.get("sections", {}).items()):
        with _at(f"sections {key!r}"):
            t = _pair_from_key(key)
            _require_data(ds, t, table.values())
            ds.sections[t] = dict(table)
    for key, entries in sorted(raw.get("mu", {}).items()):
        with _at(f"mu {key!r}"):
            t, datum = _key(key, named=True)
            ds.mu[(t, datum)] = _graded_entries(ring, cf, t, entries,
                                                3 - len(t))
            _require_data(ds, t, (datum,))
    for key, entries in sorted(raw.get("alpha", {}).items()):
        with _at(f"alpha {key!r}"):
            pair, dp = _key(key, 2, named=True)
            ds.alpha[(pair, dp)] = _graded_entries(ring, cf, pair, entries, 0,
                                                   one_input=True)
            _require_dprime(ds, pair, (dp,))
    for key, entries in sorted(raw.get("beta", {}).items()):
        with _at(f"beta {key!r}"):
            pair, bid = _key(key, 2, named=True)
            ds.beta[(pair, bid)] = _graded_entries(ring, cf, pair, entries, -1,
                                                   one_input=True)
            _require((bid,), _element_ids(ds.Dsecond, pair),
                     f"a Dsecond id of {key.partition('|')[0]!r}")
    for key, entries in sorted(raw.get("gamma", {}).items()):
        with _at(f"gamma {key!r}"):
            triple, i, gid = _key(key, 3, slot=True, named=True)
            ds.gamma[(triple, i, gid)] = _graded_entries(ring, cf, triple,
                                                         entries, -1)
            _require((gid,), _element_ids(ds.Dthird, (triple, i)),
                     f"a Dthird id of {key.rpartition('|')[0]!r}")
    return ds


def setup_to_dict(s: WeakFloerSetup) -> dict:
    ring = s.ring
    doc = {
        "schema": SCHEMA,
        "name": s.name,
        "coefficients": ring.token(),
        "lagrangians": list(s.lagrangians),
        "profile": s.profile,
    }
    if s.composable_mode == "all-distinct":
        doc["composable"] = {"mode": "all-distinct", "max_arity": s.max_arity}
    else:
        doc["composable"] = {
            "mode": "explicit",
            "max_arity": s.max_arity,
            "tuples": {str(k): sorted([list(t) for t in v])
                       for k, v in s.composable.items()},
        }
    hom = {}
    for (l, k), mod in sorted(s.cf.items()):
        gens = []
        for d in mod.degrees():
            for lab in mod.labels(d):
                gens.append({"name": lab, "degree": d})
        hom[f"{l},{k}"] = gens
    doc["hom"] = hom
    ops = []
    for t in sorted(s.envelope_ops):
        for (inputs, out, scalar) in s.envelope_ops[t]:
            ops.append({"tuple": list(t), "inputs": list(inputs), "output": out,
                        "scalar": ring.format_scalar(scalar)})
    doc["operations"] = ops
    doc["continuation"] = [
        {"source": src, "target": tgt,
         "combo": {k: ring.format_scalar(v) for k, v in sorted(combo.items())}}
        for (src, tgt, combo) in s.continuation]
    if s.wrap_chains:
        doc["wrap_chains"] = s.wrap_chains
    if s.full:
        doc["floer_data"] = _data_system_to_dict(ring, s.data_system)
    return doc


def _data_system_to_dict(ring, ds: FloerDataSystem) -> dict:
    raw = {}
    raw["D"] = {",".join(t): list(ids) for t, ids in sorted(ds.D.items())}
    raw["restrictions"] = {f"{','.join(t)}|{','.join(sub)}": dict(tab)
                           for (t, sub), tab in sorted(ds.restrictions.items())}
    raw["mu"] = {f"{','.join(t)}|{d}": [
        {"inputs": list(i), "output": o, "scalar": ring.format_scalar(v)}
        for (i, o, v) in entries]
        for (t, d), entries in sorted(ds.mu.items())}
    raw["Dprime"] = {",".join(p): [{"id": i, "pair": list(pr)} for (i, pr) in items]
                     for p, items in sorted(ds.Dprime.items())}
    raw["alpha"] = {f"{','.join(p)}|{dp}": [
        {"input": i, "output": o, "scalar": ring.format_scalar(v)}
        for (i, o, v) in entries]
        for (p, dp), entries in sorted(ds.alpha.items())}
    raw["Dsecond"] = {",".join(p): [{"id": i, "triple": list(tr)}
                                    for (i, tr) in items]
                      for p, items in sorted(ds.Dsecond.items())}
    raw["beta"] = {f"{','.join(p)}|{b}": [
        {"input": i, "output": o, "scalar": ring.format_scalar(v)}
        for (i, o, v) in entries]
        for (p, b), entries in sorted(ds.beta.items())}
    raw["Dthird"] = {f"{','.join(t)}|{i}": [
        {"id": a, "datum": b, "datum_i": c, "dprime": d}
        for (a, b, c, d) in items]
        for (t, i), items in sorted(ds.Dthird.items())}
    raw["gamma"] = {f"{','.join(t)}|{i}|{g}": [
        {"inputs": list(pair), "output": o, "scalar": ring.format_scalar(v)}
        for (pair, o, v) in entries]
        for (t, i, g), entries in sorted(ds.gamma.items())}
    raw["f"] = {",".join(p): dict(tab) for p, tab in sorted(ds.f.items())}
    raw["sections"] = {",".join(t): dict(tab)
                       for t, tab in sorted(ds.sections.items())}
    return raw

