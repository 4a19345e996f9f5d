"""A seeded, bounded mutation fuzz of the bundled fixtures through the CLI.

Each bundled fixture document is mutated once per (kind, seed): a key of
some object deleted, some value replaced by one of another JSON type, an
element of some array duplicated, or some value replaced by a huge
integer.  Every command then ends in a report or a named input error: no
exception escapes ``cli.main``, the exit code is 0, 1 or 2, and exit 2
leaves stdout empty.  The draws are seeded by fixture, kind and seed, so
every run mutates alike.
"""

import copy
import json
import random
from pathlib import Path

from wrapcat import cli
from wrapcat.cli import main

FIXTURES = Path(cli.__file__).parent / "fixtures"

COMMANDS = [["validate"], ["compute", "--what", "hw"],
            ["compute", "--what", "localize", "--depth", "2"],
            ["entangle", "--level", "1", "--compare"]]
KINDS = ("delete", "retype", "duplicate", "huge")
SEEDS = range(10)
OTHER_TYPES = (None, True, 7, 2.5, "x", [], {})


def nodes(doc, path=()):
    """(path, value) of every value of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from nodes(value, path + (key,))


def mutate(doc, kind, rng):
    """Apply one mutation of ``kind`` to ``doc`` in place; a description of
    it, or None when the document has nothing of that kind to mutate."""
    found = list(nodes(doc))
    if kind in ("delete", "duplicate"):
        shape = dict if kind == "delete" else list
        holders = [(p, v) for p, v in found if isinstance(v, shape) and v]
        if not holders:
            return None
        path, holder = rng.choice(holders)
        if kind == "delete":
            key = rng.choice(sorted(holder))
            del holder[key]
            return f"delete {list(path) + [key]}"
        holder.append(copy.deepcopy(rng.choice(holder)))
        return f"duplicate an element of {list(path)}"
    path = rng.choice([p for p, _ in found if p])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if kind == "huge":
        new = 10 ** 18
    else:
        new = rng.choice([x for x in OTHER_TYPES if type(x) is not type(old)])
    parent[path[-1]] = new
    return f"set {list(path)} from {old!r} to {new!r}"


def test_mutated_fixtures_end_in_a_report_or_an_input_error(capsys,
                                                            tmp_path):
    path = tmp_path / "setup.json"
    bad = []
    for fixture in sorted(FIXTURES.glob("*.json")):
        base = json.loads(fixture.read_text())
        for kind in KINDS:
            for seed in SEEDS:
                doc = copy.deepcopy(base)
                rng = random.Random(f"{fixture.stem}:{kind}:{seed}")
                what = mutate(doc, kind, rng)
                if what is None:
                    continue
                path.write_text(json.dumps(doc))
                for argv in COMMANDS:
                    case = f"{fixture.stem}: {what}; {' '.join(argv)}"
                    try:
                        code = main([*argv, str(path)])
                    except Exception as exc:
                        bad.append(f"{case}: {type(exc).__name__} {exc}")
                        continue
                    out = capsys.readouterr().out
                    if code not in (0, 1, 2) or (code == 2 and out):
                        bad.append(f"{case}: exit {code}")
    assert bad == []
