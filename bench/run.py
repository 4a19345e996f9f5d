"""wrapcat benchmark: times CLI calls end to end and checks every report.

Usage (from the root of a checkout):

    python3 bench/run.py --workload localize-f2|localize-q|pipeline \
        --seed N --seconds S --trace 0|1

Each operation is one ``wrapcat`` CLI call in a fresh Python process, run
one at a time.  A run repeats whole rounds of its workload's operations, in
an order shuffled by the seed, until the next round would end after S
seconds.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and the metrics (end-to-end with ``--trace 0``,
per-layer with ``--trace 1``).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = SRC / "wrapcat" / "fixtures"
OUT = ROOT / ".bench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
OP_TIMEOUT_S = 150

PIPELINE_COMMANDS = {
    "validate": ["validate"],
    "hw": ["compute", "--what", "hw"],
    "dfcat": ["compute", "--what", "dfcat"],
    "agree": ["compute", "--what", "agree"],
    "entangle": ["entangle", "--level", "1", "--compare"],
}


def _op(fixture, command, args, ring="F2"):
    return {"id": f"{fixture}:{ring}:{' '.join(args)}", "fixture": fixture,
            "command": command, "ring": ring, "args": args}


def _localize(ring, depths):
    return [_op(f, "localize", ["compute", "--what", "localize", "--depth",
                                str(d)], ring) for f, d in depths]


def _pipeline():
    ops = []
    for fixture in checks.FIXTURES:
        for command, args in PIPELINE_COMMANDS.items():
            if (fixture, command) == ("toyc", "hw"):
                # (L0, L3) stabilizes only from depth 5 on.
                args = args + ["--depth", "5"]
            ops.append(_op(fixture, command, args))
    return ops


WORKLOADS = {
    "localize-f2": _localize("F2", [("toyb", 4), ("toyc", 3)]),
    "localize-q": _localize("Q", [("toyb", 2), ("toyc", 2)]),
    "pipeline": _pipeline(),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SPAN_METRICS = {   # metric -> (span, "incl" | "self")
    "cli.command_s": ("cli.command", "incl"),
    "setupfile.load_s": ("setupfile.load", "incl"),
    "report.to_json_s": ("report.to_json", "incl"),
    "floer.validate_s": ("floer.validate", "incl"),
    "floer.envelope_s": ("floer.envelope", "incl"),
    "ainf.hcat_s": ("ainf.hcat", "incl"),
    "ainf.cone_s": ("ainf.cone", "incl"),
    "localization.rms_s": ("localization.rms", "incl"),
    "localization.fraction_s": ("localization.fraction", "incl"),
    "wrap.continuation_s": ("wrap.continuation", "incl"),
    "wrap.wdf_s": ("wrap.wdf", "incl"),
    "wrap.agree_s": ("wrap.agree", "incl"),
    "quotient.bar_build_s": ("quotient.bar_build", "self"),
    "quotient.truncate_s": ("quotient.truncate", "incl"),
    "linalg.cohomology_s": ("linalg.cohomology", "self"),
    "linalg.check_s": ("linalg.check", "incl"),
    "matrices.rref_s": ("matrices.rref", "incl"),
    "matrices.kernel_s": ("matrices.kernel", "incl"),
    "matrices.mul_s": ("matrices.mul", "incl"),
    "sss.entangle_s": ("sss.entangle", "incl"),
    "sss.bridge_s": ("sss.bridge", "incl"),
    "sss.tau_s": ("sss.tau", "incl"),
    "posets.build_s": ("posets.build", "incl"),
}
COUNT_METRICS = ("ainf.mu_calls", "report.bytes", "quotient.chains",
                 "quotient.useful_chains", "quotient.differential_nnz",
                 "quotient.dense_entries", "matrices.constructed",
                 "matrices.entries_built", "rings.normalize_calls")
UNITS = {**END_TO_END, **{m: "s" for m in SPAN_METRICS},
         **{m: "count" for m in COUNT_METRICS},
         "linalg.cohomology_calls": "count",
         "quotient.useful_chain_ratio": "ratio"}


def to_q(doc):
    """The Q re-coefficienting rule: token Q, every "1 mod 2" becomes "1"."""
    if doc.get("coefficients") != "F2":
        raise ValueError("only F2 fixtures are re-coefficiented")
    text = json.dumps(dict(doc, coefficients="Q"), sort_keys=True)
    text = text.replace('"1 mod 2"', '"1"')
    if " mod " in text:
        raise ValueError("a scalar other than 1 mod 2 is left")
    return text


def prepare_inputs(ops, workdir):
    """Input file per operation: the bundled fixture, or its Q version."""
    paths = {}
    for op in ops:
        src = FIXTURES / f"{op['fixture']}.json"
        if op["ring"] == "F2":
            paths[op["id"]] = str(src.relative_to(ROOT))
            continue
        dst = workdir / f"{op['fixture']}_q.json"
        dst.write_text(to_q(json.loads(src.read_text())))
        paths[op["id"]] = str(dst.relative_to(ROOT))
    return paths


def child_env():
    env = dict(os.environ)
    env.pop("WRAPCAT_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, trace, env):
    """One CLI call in a fresh process: (record, set-up seconds).

    ``trace`` is None, "spans" or "counts" (see tracing.py)."""
    spec = json.dumps({"argv": argv, "trace": trace})
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(CHILD), spec], cwd=ROOT,
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "Timeout", "stderr": ""}, None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"ChildExit{proc.returncode}", "stderr": err[-500:]}, None
    record = json.loads(lines[-1])
    record["stderr"] = err[-500:]
    return record, record["t_call"] - t_spawn


def line_count():
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "wrapcat").glob("*.py")))


def _median_sum(per_op):
    """Sum over operations of each operation's median over rounds."""
    return sum(statistics.median(v) for v in per_op.values())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "wrapcat" / "cli.py").is_file():
        sys.stderr.write(f"no wrapcat sources under {SRC}\n")
        return 2

    ops = WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = prepare_inputs(ops, workdir)
    env = child_env()
    # Build step: one untimed call.  Importing wrapcat.cli imports every
    # wrapcat module and writes its bytecode, so no timed call compiles.
    run_child(["validate", inputs[ops[0]["id"]]], None, env)

    rng = random.Random(args.seed)
    wall, setup, traces = {}, [], []
    attempted = failed = unexpected = 0
    peak_kb = 0
    problems = []
    start = time.monotonic()
    while True:
        t_round = time.monotonic()
        order = ops[:]
        rng.shuffle(order)
        round_trace = {}
        for op in order:
            argv = op["args"] + [inputs[op["id"]]]
            record, setup_s = run_child(argv, "spans" if args.trace else None,
                                        env)
            attempted += 1
            bad, known = checks.classify(op, record)
            if bad:
                failed += 1
                if not known:
                    unexpected += 1
                    problems.append({"op": op["id"], "error": record.get("error"),
                                     "check": record.get("check"),
                                     "stderr": record.get("stderr")})
            if setup_s is None:
                continue
            setup.append(setup_s)
            wall.setdefault(op["id"], []).append(record["t_end"] - record["t_call"])
            peak_kb = max(peak_kb, record["maxrss_kb"])
            if args.trace:
                # The counters run in a call of their own, so that their
                # cost is in none of the spans above.
                counted, _ = run_child(argv, "counts", env)
                round_trace[op["id"]] = {
                    "spans": record["trace"]["spans"],
                    "counts": counted.get("trace", {}).get("counts", {})}
        traces.append(round_trace)
        now = time.monotonic()
        if now - start + (now - t_round) > args.seconds:
            break

    if args.trace:
        metrics = layer_metrics(traces)
        (workdir / "trace.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "rounds": traces},
            indent=1, sort_keys=True))
    else:
        metrics = {
            "wall_s": _median_sum(wall) if wall else 0.0,
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_rss_mb": peak_kb / 1024,
        }
    for p in problems:
        sys.stderr.write(f"failed: {json.dumps(p)}\n")
    for op_id, times in sorted(wall.items()):
        sys.stderr.write(f"{op_id}: " + " ".join(f"{t:.3f}" for t in times)
                         + "\n")
    print(f"# {args.workload} seed={args.seed}: {len(traces)} rounds, "
          f"{attempted} operations, src/wrapcat {line_count()} lines")
    print(json.dumps({
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def layer_metrics(traces):
    """Per-layer totals per round; the median over rounds of each."""
    per_round = []
    for rnd in traces:
        spans, counts = {}, {}
        for summary in rnd.values():
            for name, (incl, self_s, calls) in summary["spans"].items():
                row = spans.setdefault(name, [0.0, 0.0, 0])
                row[0] += incl
                row[1] += self_s
                row[2] += calls
            for k, v in summary["counts"].items():
                counts[k] = counts.get(k, 0) + v
        m = {}
        for metric, (span, kind) in SPAN_METRICS.items():
            row = spans.get(span, [0.0, 0.0, 0])
            m[metric] = row[0] if kind == "incl" else row[1]
        for key in COUNT_METRICS:
            m[key] = counts.get(key, 0)
        m["linalg.cohomology_calls"] = spans.get("linalg.cohomology",
                                                 [0, 0, 0])[2]
        m["quotient.useful_chain_ratio"] = (
            m["quotient.useful_chains"] / m["quotient.chains"]
            if m["quotient.chains"] else 0.0)
        per_round.append(m)
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}


if __name__ == "__main__":
    sys.exit(main())
