"""wrapcat: exact finite-scale computations for weak wrapped Floer setups.

usage: wrapcat validate FILE [--mode strict|finite] [--text]
       wrapcat compute FILE [--what hw|dfcat|localize|agree] [--depth N]
                            [--text]
       wrapcat entangle FILE [--level N] [--compare] [--text]
       wrapcat [COMMAND] -h|--help

  validate   check the setup axioms and the continuation conditions
  compute    a computation at the continuation set (default --what hw)
  entangle   build the entanglement stages E_delta, E0, .., E_level

  --mode     how the setup axioms are read (default finite)
  --what     hw: HW colimits; dfcat: the fraction category and its axioms;
             localize: H^0 of the cone quotient; agree: the two compared
  --depth N  longest chain of cones in the cone quotient (localize, agree;
             default 4); hw and dfcat do not read it
  --level N  the last stage built (default 1)
  --compare  also check the bridges between stages and tau
  --text     a human-readable table instead of JSON

Options come before or after FILE, as "--opt value" or "--opt=value", and
a unique prefix names an option ("--dep 3").  The last of a repeated option
wins, and every word after "--" is positional.  N is an integer >= 0.

Exit codes: 0 pass; 1 strict failure or mismatch; 2 usage or input error,
with nothing on stdout.  Any other engine error ends in a failing report
that names it.  A report is canonical JSON, or a text table with --text;
its bytes are stable across runs.
"""

from __future__ import annotations

import re
import sys
from functools import partial

from .ainf import cohomology_category
from .errors import ParseError, SchemaError, WrapcatError
from .floer import (canonical_envelope, choose_compatible_collection,
                    validate_setup)
from .localization import FractionCategory, check_right_multiplicative_system
from .quotient import TruncatedQuotient, adjoin_cones
from .report import Report
from .setupfile import load_setup
from .sss import (DecoratedSSSet, canonical_sss, check_bridge, entangle,
                  localize_stage, poset_stage, tau_compare)
from .wrap import (check_localization_agreement, continuation_cset,
                   generating_subset, validate_continuation_system,
                   wrapped_df_category)


def _validated(setup, mode="finite"):
    """The setup-axiom report and the canonical envelope of an
    envelope-profile setup, whose relations it checks; a full-profile setup
    is checked datum by datum, and its envelope is None here."""
    env = None if setup.full else canonical_envelope(setup)
    return validate_setup(setup, mode=mode, envelope=env), env


def _prepare(setup, env=None):
    """(collection, canonical envelope, H-category, continuation set); the
    envelope is built unless ``env`` is it already."""
    col = choose_compatible_collection(setup)
    if env is None:
        env = canonical_envelope(setup, col)
    hcat = cohomology_category(env)
    cset = continuation_cset(setup, hcat)
    return col, env, hcat, cset


def _prepare_valid(setup, rep):
    """``_prepare`` on a setup whose axioms hold; on a setup whose axioms
    fail, None, with the ``validation`` section and a failing verdict on
    ``rep``."""
    val, env = _validated(setup)
    if not val["passed"]:
        rep.add("validation", val)
        rep.set_verdict(False)
        return None
    return _prepare(setup, env)


def bundled_wrapped_poset(setup, col, cset) -> DecoratedSSSet:
    """The bundled sufficiently wrapped poset: one chain per wrapping family
    (base below its wrapped stages), families stacked in sorted order, as
    the poset stage decorated by the chosen collection ``col``."""
    succ = {}
    for c in cset:
        if not cset.is_identity(c):
            succ.setdefault(c.tgt, []).append(c.src)
    sources = {x for srcs in succ.values() for x in srcs}
    order = {}    # insertion-ordered
    for cur in sorted(l for l in setup.lagrangians if l not in sources):
        # the base, then its least wrapped stage while that is new
        while cur is not None and cur not in order:
            order[cur] = None
            cur = min(succ.get(cur, ()), default=None)
    order.update(dict.fromkeys(sorted(setup.lagrangians)))
    return poset_stage(setup, list(order), col)


def cmd_validate(setup, mode="finite"):
    rep = Report("validate", setup.name)
    res, env = _validated(setup, mode=mode)
    rep.add("setup_axioms", res)
    passed = res["passed"]
    if passed:
        try:
            col, env, hcat, cset = _prepare(setup, env)
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
    prepared = _prepare_valid(setup, rep)
    if prepared is None:
        return rep
    col, env, hcat, cset = prepared
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
        gens = generating_subset(cset)
        w_classes = [(c.src, c.tgt, c.coords) for c in gens]
        ext, nulls = adjoin_cones(env, hcat, w_classes)
        quo = TruncatedQuotient(ext, nulls, depth, hcat)
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
    """The stages are built on a setup whose axioms hold; unlike compute,
    the continuation set need not be a right multiplicative system."""
    rep = Report(f"entangle:{level}", setup.name)
    prepared = _prepare_valid(setup, rep)
    if prepared is None:
        return rep
    col, env, hcat, cset = prepared
    e_delta = canonical_sss(setup, col)
    # E0 is E_delta: entangle(setup, col, 0) only renames its vertices
    stages = [("E_delta", e_delta), ("E0", e_delta)]
    stages += [(f"E{n}", entangle(setup, col, n))
               for n in range(1, level + 1)]
    rep.add("stages", {name: E.stats() for name, E in stages})
    passed = True
    if compare:
        # F of E_delta is the canonical envelope, so its localization
        # is the one of the setup's own continuation set
        frac0 = FractionCategory(hcat, cset)
        fracs = [frac0, frac0] + [localize_stage(setup, E)
                                  for _, E in stages[2:]]
        bridges = {}
        for (na, Ea), (nb, Eb), fa, fb in zip(stages, stages[1:], fracs,
                                              fracs[1:]):
            # the first blocks of Eb are those of Ea, renamed by entangle
            inc = {v: w for ba, bb in zip(Ea.blocks, Eb.blocks)
                   for v, w in zip(ba, bb)}
            br = check_bridge(Ea, Eb, fa, fb, inc)
            bridges[f"{na}->{nb}"] = br
            passed = passed and br["passed"]
        rep.add("bridges", bridges)
        P = bundled_wrapped_poset(setup, col, cset)
        tau = tau_compare(setup, P, frac0)
        rep.add("tau", tau)
        passed = passed and tau["passed"]
    rep.set_verdict(passed)
    return rep


# command -> {option: default}.  A bool default marks a flag, an int default
# a count read by ``nonnegative``, a str default an option of CHOICES.
OPTIONS = {
    "validate": {"mode": "finite", "text": False},
    "compute": {"what": "hw", "depth": 4, "text": False},
    "entangle": {"level": 1, "compare": False, "text": False},
}
CHOICES = {"mode": ("strict", "finite"),
           "what": ("hw", "dfcat", "localize", "agree")}
COMMANDS = {"validate": cmd_validate, "compute": cmd_compute,
            "entangle": cmd_entangle}
# a word that starts with "-" is still a value when it reads as a number
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def nonnegative(text):
    """The value of --depth and --level: an integer >= 0.  The ValueError
    says what is wrong with ``text``."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid nonnegative value: {text!r}") from None
    if value < 0:
        raise ValueError(f"must be >= 0, not {value}")
    return value


def _usage_error(prog, message):
    sys.stderr.write(f"{prog}: error: {message}\n"
                     "run 'wrapcat --help' for usage\n")
    raise SystemExit(2)


def _option(word, names):
    """(name, value after "=" or None) of the option ``word`` spells: a long
    name of ``names`` or a unique prefix of one, or -h; else None."""
    flag, eq, value = word.partition("=")
    hits = [n for n in names if f"--{n}" == flag]
    if not hits and flag.startswith("--") and len(flag) > 2:
        hits = [n for n in names if f"--{n}".startswith(flag)]
    if flag == "-h":
        hits = ["help"]
    return (hits[0], value if eq else None) if len(hits) == 1 else None


def _option_like(word):
    """Whether ``word`` reads as an option even when no option has its name:
    it starts with "-", is no "-", "--" or negative number, has no space."""
    return (word.startswith("-") and word not in ("-", "--")
            and " " not in word and not _NUMBER.match(word))


def parse_args(argv):
    """(command, FILE, {option: value}) of a command line, read by the
    grammar in the module docstring.  -h or --help prints that text and
    exits 0; a usage error exits 2 and writes only to stderr."""
    command = path = None
    prog, table, names, values, unknown = "wrapcat", {}, ["help"], {}, []
    words, read_path = iter(argv), False
    for word in words:
        if word == "--" and command is not None:
            # every later word is positional; this "--" is spent when FILE
            # follows it or came just before it
            rest = list(words)
            if path is None and rest:
                path = rest.pop(0)
            elif not read_path:
                unknown.append(word)
            unknown += rest
            break
        read_path = False
        hit = _option(word, names)
        if hit is None:
            if _option_like(word):
                unknown.append(word)
            elif command is None:
                if word not in OPTIONS:
                    _usage_error(prog, f"argument command: invalid choice: "
                                 f"{word!r} (choose from "
                                 f"{', '.join(map(repr, OPTIONS))})")
                command, prog, table = word, f"wrapcat {word}", OPTIONS[word]
                names, values = [*table, "help"], dict(table)
            elif path is None:
                path, read_path = word, True
            else:
                unknown.append(word)
            continue
        name, value = hit
        if name == "help" or isinstance(table[name], bool):
            if value is not None:
                flag = "-h/--help" if name == "help" else f"--{name}"
                _usage_error(prog, f"argument {flag}: ignored explicit "
                             f"argument {value!r}")
            if name == "help":
                sys.stdout.write(__doc__)
                raise SystemExit(0)
            values[name] = True
            continue
        if value is None:
            value = next(words, "--")
            if value == "--" or _option(value, names) or _option_like(value):
                _usage_error(prog, f"argument --{name}: expected one argument")
        if name in CHOICES:
            if value not in CHOICES[name]:
                _usage_error(prog, f"argument --{name}: invalid choice: "
                             f"{value!r} (choose from "
                             f"{', '.join(map(repr, CHOICES[name]))})")
            values[name] = value
        else:
            try:
                values[name] = nonnegative(value)
            except ValueError as exc:
                _usage_error(prog, f"argument --{name}: {exc}")
    if command is None:
        _usage_error(prog, "the following arguments are required: command")
    if path is None:
        _usage_error(prog, "the following arguments are required: file")
    if unknown:
        _usage_error("wrapcat", f"unrecognized arguments: {' '.join(unknown)}")
    return command, path, values


def main(argv=None):
    command, path, opts = parse_args(sys.argv[1:] if argv is None else argv)
    text = opts.pop("text")
    run = partial(COMMANDS[command], **opts)
    if command == "compute":
        command = f"compute:{opts['what']}"
    elif command == "entangle":
        command = f"entangle:{opts['level']}"
    try:
        setup = load_setup(path)
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
    sys.stdout.write(rep.to_text() if text else rep.to_json())
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
