"""Print the sha256 of every benchmark operation's report bytes.

Usage: python3 bench/report_sha.py

One line per operation, in a fixed order: sha256 of the report bytes that
``wrapcat.cli.main`` wrote, exit code, escaped error type (or -), the
operation.  Run it on two commits and diff the outputs: a change that
claims to keep reports byte-identical must print the same lines.
"""

from __future__ import annotations

import hashlib
import sys

import run


def main():
    if not (run.SRC / "wrapcat" / "cli.py").is_file():
        sys.stderr.write(f"no wrapcat sources under {run.SRC}\n")
        return 2
    workdir = run.OUT / "report_sha"
    workdir.mkdir(parents=True, exist_ok=True)
    env = run.child_env()
    for name in sorted(run.WORKLOADS):
        ops = run.WORKLOADS[name]
        inputs = run.prepare_inputs(ops, workdir)
        for op in ops:
            record, _ = run.run_child(op["args"] + [inputs[op["id"]]], None, env)
            digest = hashlib.sha256(record.get("report", "").encode()).hexdigest()
            print(f"{digest}  {record.get('rc')}  {record.get('error') or '-'}"
                  f"  {name}  {op['id']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
