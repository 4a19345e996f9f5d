"""Setup file (de)serialization: JSON in, WeakFloerSetup out, and back.

Scalars are exact strings ("3/2", "1", "2 mod 5"); canonical serialization
is byte-stable (sorted keys, fixed separators) so round-trips and reports
are reproducible byte for byte.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

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
    with _at("coefficients"):
        ring = CoefficientRing.from_token(doc["coefficients"])
    lag = doc["lagrangians"]
    if not isinstance(lag, list) or not all(isinstance(x, str) for x in lag):
        raise SchemaError(f"lagrangians must be an array of names, not {lag!r}")
    comp = _get(doc, "composable", dict)
    with _at("composable"):
        mode = comp.get("mode", "all-distinct")
        max_arity = int(comp.get("max_arity", 3))
        explicit = None
        if mode == "explicit":
            explicit = {int(k): [tuple(t) for t in v]
                        for k, v in comp.get("tuples", {}).items()}
    cf = {}
    for key, gens in sorted(_get(doc, "hom", dict).items()):
        with _at(f"hom {key!r}"):
            pair = _pair_from_key(key)
            if len(pair) != 2:
                raise SchemaError("key is not a pair")
            items = []
            for g in gens:
                if "name" not in g or "degree" not in g:
                    raise SchemaError("generator needs name and degree")
                items.append((g["name"], int(g["degree"])))
            cf[pair] = GradedModule.from_generators(ring, items)
    envelope_ops = {}
    for i, entry in enumerate(_get(doc, "operations", list)):
        with _at(f"operations[{i}]"):
            scalar = ring.parse_scalar(str(entry["scalar"]))
            envelope_ops.setdefault(tuple(entry["tuple"]), []).append(
                (tuple(entry["inputs"]), entry["output"], scalar))
    data_system = None
    if doc.get("profile") == "full":
        raw = _get(doc, "floer_data", dict)
        with _at("floer_data"):
            data_system = _data_system_from_dict(ring, raw)
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
    return WeakFloerSetup(
        ring, lag, composable_mode=mode, composable_tuples=explicit,
        max_arity=max_arity, cf=cf, profile=doc["profile"],
        envelope_ops=envelope_ops, data_system=data_system,
        continuation=continuation, wrap_chains=_get(doc, "wrap_chains", dict),
        oracle=_get(doc, "oracle", dict), name=doc.get("name", "setup"))


def _data_system_from_dict(ring, raw) -> FloerDataSystem:
    ds = FloerDataSystem()
    for key, ids in sorted(raw.get("D", {}).items()):
        ds.D[_pair_from_key(key)] = list(ids)
    for key, table in sorted(raw.get("restrictions", {}).items()):
        t_key, sub_key = key.split("|")
        ds.restrictions[(_pair_from_key(t_key), _pair_from_key(sub_key))] = dict(table)
    for key, entries in sorted(raw.get("mu", {}).items()):
        t_key, datum = key.split("|")
        ds.mu[(_pair_from_key(t_key), datum)] = [
            (tuple(e["inputs"]), e["output"], ring.parse_scalar(str(e["scalar"])))
            for e in entries]
    for key, items in sorted(raw.get("Dprime", {}).items()):
        ds.Dprime[_pair_from_key(key)] = [(i["id"], tuple(i["pair"])) for i in items]
    for key, entries in sorted(raw.get("alpha", {}).items()):
        pair_key, dp = key.split("|")
        ds.alpha[(_pair_from_key(pair_key), dp)] = [
            (e["input"], e["output"], ring.parse_scalar(str(e["scalar"])))
            for e in entries]
    for key, items in sorted(raw.get("Dsecond", {}).items()):
        ds.Dsecond[_pair_from_key(key)] = [(i["id"], tuple(i["triple"]))
                                           for i in items]
    for key, entries in sorted(raw.get("beta", {}).items()):
        pair_key, bid = key.split("|")
        ds.beta[(_pair_from_key(pair_key), bid)] = [
            (e["input"], e["output"], ring.parse_scalar(str(e["scalar"])))
            for e in entries]
    for key, items in sorted(raw.get("Dthird", {}).items()):
        t_key, i_str = key.split("|")
        ds.Dthird[(_pair_from_key(t_key), int(i_str))] = [
            (i["id"], i["datum"], i["datum_i"], i["dprime"]) for i in items]
    for key, entries in sorted(raw.get("gamma", {}).items()):
        t_key, i_str, gid = key.split("|")
        ds.gamma[(_pair_from_key(t_key), int(i_str), gid)] = [
            (tuple(e["inputs"]), e["output"], ring.parse_scalar(str(e["scalar"])))
            for e in entries]
    for key, table in sorted(raw.get("f", {}).items()):
        ds.f[_pair_from_key(key)] = dict(table)
    for key, table in sorted(raw.get("sections", {}).items()):
        ds.sections[_pair_from_key(key)] = dict(table)
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
    if s.oracle:
        doc["oracle"] = s.oracle
    if s.profile == "full" and s.data_system is not None:
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

