"""Command-line entry point: validate / compute / entangle on setup files.

Exit codes: 0 pass, 1 strict failure or mismatch, 2 input error; any other
engine error ends in a failing report that names it.  Reports are emitted as
canonical JSON (default) or a text table; bytes are stable across runs.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .ainf import cohomology_category
from .errors import ParseError, SchemaError, WrapcatError
from .floer import (canonical_envelope, choose_compatible_collection,
                    validate_setup)
from .localization import check_right_multiplicative_system
from .posets import DecoratedPoset
from .quotient import TruncatedQuotient, adjoin_cones
from .report import Report
from .setupfile import load_setup
from .sss import (canonical_sss, check_bridge, entangle, localize_stage,
                  tau_compare)
from .wrap import (check_localization_agreement, continuation_cset,
                   generating_subset, validate_continuation_system,
                   wrapped_df_category)


def _prepare(setup):
    col = choose_compatible_collection(setup)
    env = canonical_envelope(setup, col)
    hcat = cohomology_category(env)
    cset = continuation_cset(setup, hcat)
    return col, env, hcat, cset


def bundled_wrapped_poset(setup, hcat, cset) -> DecoratedPoset:
    """The bundled sufficiently wrapped poset: one chain per wrapping family
    (base below its wrapped stages), families stacked in sorted order."""
    succ = {}
    for c in cset:
        if not cset.is_identity(c):
            succ.setdefault(c.tgt, []).append(c.src)
    sources_of = {c.src for c in cset if not cset.is_identity(c)}
    bases = sorted(l for l in setup.lagrangians
                   if l not in sources_of)
    order = []
    seen = set()
    for b in bases:
        chain = [b]
        cur = b
        while succ.get(cur):
            nxt = sorted(succ[cur])[0]
            if nxt in seen or nxt in chain:
                break
            chain.append(nxt)
            cur = nxt
        for x in chain:
            if x not in seen:
                seen.add(x)
                order.append(x)
    for l in sorted(setup.lagrangians):
        if l not in seen:
            order.append(l)
            seen.add(l)
    elements = [f"p{i}" for i in range(len(order))]
    less = [(elements[i], elements[j]) for i in range(len(order))
            for j in range(i + 1, len(order))]
    lag = {elements[i]: order[i] for i in range(len(order))}
    return DecoratedPoset(setup, elements, less, lag)


def cmd_validate(setup, mode="finite"):
    rep = Report("validate", setup.name)
    res = validate_setup(setup, mode=mode)
    rep.add("setup_axioms", res)
    passed = res["passed"]
    cont = None
    if passed:
        try:
            col, env, hcat, cset = _prepare(setup)
            cont = validate_continuation_system(setup, hcat, cset, mode=mode)
            rep.add("continuation_conditions", cont)
            passed = passed and cont["passed"]
        except WrapcatError as exc:
            rep.add("continuation_conditions",
                    {"passed": False, "error": str(exc)})
            passed = False
    rep.set_verdict(passed)
    return rep


def cmd_compute(setup, what="hw", depth=4):
    """Every computation localizes at the continuation set, so each one
    first checks it is a right multiplicative system."""
    rep = Report(f"compute:{what}", setup.name)
    val = validate_setup(setup)
    if not val["passed"]:
        rep.add("validation", val)
        rep.set_verdict(False)
        return rep
    col, env, hcat, cset = _prepare(setup)
    rms = check_right_multiplicative_system(hcat, cset)
    if not rms["passed"]:
        rep.add("continuation_conditions", rms)
        rep.set_verdict(False)
        return rep
    if what == "hw":
        wdf = wrapped_df_category(setup, hcat, cset)
        rep.add("hw_table", wdf.hw_table())
        unstab = sorted(str(p) for p, s in wdf.stabilization.items() if not s)
        rep.add("unstabilized_pairs", unstab)
        rep.set_verdict(not unstab)
        if unstab:
            rep.add("error", "NotStabilized")
        return rep
    if what == "dfcat":
        wdf = wrapped_df_category(setup, hcat, cset)
        rep.add("hw_table", wdf.hw_table())
        axioms = wdf.verify_category_axioms()
        locality = wdf.check_right_locality()
        functor = wdf.check_canonical_functor()
        rep.add("category_axioms", axioms)
        rep.add("right_locality", locality)
        rep.add("canonical_functor", functor)
        rep.set_verdict(axioms["passed"] and locality["passed"]
                        and functor["passed"])
        return rep
    if what == "localize":
        gens = generating_subset(hcat, cset)
        w_classes = [(c.src, c.tgt, c.coords) for c in gens]
        quo = TruncatedQuotient(*adjoin_cones(env, hcat, w_classes), depth)
        rows = [{"pair": [a, b], "h0_rank": quo.h0_rank(a, b),
                 "stabilized": quo.stabilized(a, b)} for (a, b) in quo.pairs]
        rep.add("quotient_h0", rows)
        rep.add("cone_classes", [repr(c) for c in gens])
        unstab = [r["pair"] for r in rows if not r["stabilized"]]
        rep.set_verdict(not unstab)
        if unstab:
            rep.add("error", "NotStabilized")
        return rep
    if what == "agree":
        wdf = wrapped_df_category(setup, hcat, cset)
        ag = check_localization_agreement(env, hcat, cset, wdf, depth=depth)
        rep.add("agreement", ag)
        rep.set_verdict(ag["passed"])
        return rep
    raise SchemaError(f"unknown computation {what!r}")


def cmd_entangle(setup, level=1, compare=False):
    rep = Report(f"entangle:{level}", setup.name)
    col, env, hcat, cset = _prepare(setup)
    e_delta = canonical_sss(setup, col)
    # entangling one block gives the block back: E0 is E_delta
    stages = [("E_delta", e_delta), ("E0", e_delta)]
    stages += [(f"E{n}", entangle(setup, [e_delta] * (n + 1)))
               for n in range(1, level + 1)]
    rep.add("stages", {name: E.stats() for name, E in stages})
    passed = True
    if compare:
        frac0 = localize_stage(setup, e_delta)
        fracs = [frac0, frac0] + [localize_stage(setup, E)
                                  for _, E in stages[2:]]
        bridges = {}
        for (na, Ea), (nb, Eb), fa, fb in zip(stages, stages[1:], fracs,
                                              fracs[1:]):
            # E0 -> E1 is the first stage with more than one block
            inc = {v: f"b0.{v}" if nb == "E1" else v for v in Ea.vertices}
            br = check_bridge(Ea, Eb, fa, fb, inc)
            bridges[f"{na}->{nb}"] = br
            passed = passed and br["passed"]
        rep.add("bridges", bridges)
        P = bundled_wrapped_poset(setup, hcat, cset)
        tau = tau_compare(setup, P, e_delta, frac0)
        rep.add("tau", tau)
        passed = passed and tau["passed"]
    rep.set_verdict(passed)
    return rep


def nonnegative(text):
    """argparse type of --depth and --level: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {value}")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wrapcat",
        description="Exact finite-scale computations for weak wrapped Floer "
                    "setups: validation, wrapping colimits, localization, "
                    "entanglement comparisons.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_val = sub.add_parser("validate", help="validate a setup file")
    p_val.add_argument("file")
    p_val.add_argument("--mode", choices=["strict", "finite"], default="finite")
    p_cmp = sub.add_parser("compute", help="run a computation")
    p_cmp.add_argument("file")
    p_cmp.add_argument("--what", choices=["hw", "dfcat", "localize", "agree"],
                       default="hw")
    p_cmp.add_argument("--depth", type=nonnegative, default=4,
                       help="longest chain of cones in the cone quotient "
                            "(localize, agree); hw and dfcat do not read it")
    p_ent = sub.add_parser("entangle", help="build entanglement stages")
    p_ent.add_argument("file")
    p_ent.add_argument("--level", type=nonnegative, default=1)
    p_ent.add_argument("--compare", action="store_true")
    for p in (p_val, p_cmp, p_ent):
        p.add_argument("--text", action="store_true",
                       help="human-readable table instead of JSON")
    args = parser.parse_args(argv)
    if args.command == "validate":
        command, run = "validate", partial(cmd_validate, mode=args.mode)
    elif args.command == "compute":
        command = f"compute:{args.what}"
        run = partial(cmd_compute, what=args.what, depth=args.depth)
    else:
        command = f"entangle:{args.level}"
        run = partial(cmd_entangle, level=args.level, compare=args.compare)
    try:
        setup = load_setup(args.file)
        try:
            rep = run(setup)
        except (ParseError, SchemaError):
            raise
        except WrapcatError as exc:
            # every other engine error ends in a report naming it
            rep = Report(command, setup.name)
            rep.add("error", {"type": type(exc).__name__, "message": str(exc)})
            rep.set_verdict(False)
    except (ParseError, SchemaError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    sys.stdout.write(rep.to_text() if args.text else rep.to_json())
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
