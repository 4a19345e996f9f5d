"""Spans and counters around calls into wrapcat's modules, for traced runs.

``install`` replaces chosen public functions and methods of the imported
``wrapcat`` modules with wrappers that either record a span (name, start,
end, parent) or bump counters, never both in one process: some counted
functions are called millions of times, and their wrappers' cost would
land inside the spans.  A traced operation therefore runs twice, once per
kind.  Nothing in ``src/`` is edited: the wrappers live only in the traced
child process.  Spans stay in memory and are summed by ``Tracer.summary``
when the command has ended.
"""

from __future__ import annotations

import importlib
from collections import Counter
from functools import wraps
from time import perf_counter

# (span name, module, attribute path).  A span's inclusive time counts only
# calls not nested in another call of the same span; its self time subtracts
# the time covered by its direct child spans.
SPANS = [
    ("cli.command", "cli", "main"),
    ("setupfile.load", "setupfile", "load_setup"),
    ("report.to_json", "report", "Report.to_json"),
    ("floer.validate", "floer", "validate_setup"),
    ("floer.envelope", "floer", "canonical_envelope"),
    ("ainf.hcat", "ainf", "cohomology_category"),
    ("ainf.cone", "ainf", "cone_of_class"),
    ("localization.rms", "localization", "check_right_multiplicative_system"),
    ("localization.fraction", "localization", "FractionCategory.__init__"),
    ("wrap.continuation", "wrap", "validate_continuation_system"),
    ("wrap.wdf", "wrap", "wrapped_df_category"),
    ("wrap.agree", "wrap", "check_localization_agreement"),
    ("quotient.bar_build", "quotient", "BarQuotient.__init__"),
    ("quotient.truncate", "quotient", "BarQuotient.truncate"),
    ("linalg.cohomology", "linalg", "cohomology"),
    ("linalg.check", "linalg", "Complex.check"),
    ("matrices.rref", "matrices", "Matrix.rref"),
    ("matrices.kernel", "matrices", "Matrix.kernel_basis"),
    ("matrices.mul", "matrices", "Matrix.mul"),
    ("sss.entangle", "sss", "entangle"),
    ("sss.bridge", "sss", "check_bridge"),
    ("sss.tau", "sss", "tau_compare"),
    ("posets.build", "posets", "build_O_P"),
]

MODULES = ("ainf", "cli", "floer", "linalg", "localization", "matrices",
           "posets", "quotient", "report", "rings", "setupfile", "sss", "wrap")


class Tracer:
    """In-memory spans and counters of one traced command."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, outermost]
        self.stack = []
        self.active = Counter()
        self.counts = Counter()

    def span(self, name, fn):
        """Wrap ``fn`` in a span."""
        spans, stack, active = self.spans, self.stack, self.active

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                   active[name] == 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            active[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                active[name] -= 1
                stack.pop()
            return out
        return traced

    def counted(self, key, fn, after=None):
        """Wrap ``fn`` so that each call bumps ``key`` (unless None) and
        then runs ``after(counts, args, result)``."""
        counts = self.counts

        @wraps(fn)
        def counting(*args, **kwargs):
            if key is not None:
                counts[key] += 1
            out = fn(*args, **kwargs)
            if after is not None:
                after(counts, args, out)
            return out
        return counting

    def summary(self):
        """{"spans": {name: [inclusive s, self s, calls]}, "counts": {..}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, outermost) in enumerate(self.spans):
            row = out.setdefault(name, [0.0, 0.0, 0])
            if outermost:
                row[0] += end - start
            row[1] += end - start - child[i]
            row[2] += 1
        return {"spans": out, "counts": dict(self.counts)}


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def _after_matrix_init(counts, args, _):
    m = args[0]
    counts["matrices.entries_built"] += m.rows * m.cols


def _after_to_json(counts, _, text):
    counts["report.bytes"] += len(text.encode())


def _after_bar_build(counts, args, _):
    bar = args[0]
    module = bar.module
    counts["quotient.chains"] += len(bar.chains)
    counts["quotient.useful_chains"] += sum(module.rank(d) for d in (-1, 0, 1)
                                            if d in module.degrees())
    for blk in bar.differential.blocks.values():
        counts["quotient.dense_entries"] += blk.rows * blk.cols
        counts["quotient.differential_nnz"] += sum(
            len(row) - row.count(0) for row in blk.data)


# (counter or None, module, attribute path, after-hook or None).
COUNTERS = [
    ("matrices.constructed", "matrices", "Matrix.__init__", _after_matrix_init),
    ("rings.normalize_calls", "rings", "CoefficientRing.normalize", None),
    ("ainf.mu_calls", "ainf", "AInfCategory.mu", None),
    (None, "quotient", "BarQuotient.__init__", _after_bar_build),
    (None, "report", "Report.to_json", _after_to_json),
]


def install(tracer: Tracer, kind):
    """Wrap the traced functions of every imported wrapcat module in place:
    the SPANS when ``kind`` is "spans", the COUNTERS when it is "counts".

    Modules that imported a traced function by name get the wrapper too, so a
    call through ``from .x import f`` is traced like a call through ``x.f``.
    """
    mods = {n: importlib.import_module(f"wrapcat.{n}") for n in MODULES}
    swapped = {}    # id of a replaced module-level function -> its wrapper

    def replace(owner, attr, new):
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        if not isinstance(owner, type):
            swapped[id(old)] = new

    if kind == "spans":
        for name, modname, path in SPANS:
            owner, attr = _resolve(mods[modname], path)
            replace(owner, attr, tracer.span(name, owner.__dict__[attr]))
    elif kind == "counts":
        for key, modname, path, after in COUNTERS:
            owner, attr = _resolve(mods[modname], path)
            replace(owner, attr, tracer.counted(key, owner.__dict__[attr],
                                                after))
    else:
        raise ValueError(f"unknown trace kind {kind!r}")
    for mod in mods.values():
        for key, value in list(vars(mod).items()):
            if id(value) in swapped:
                setattr(mod, key, swapped[id(value)])
