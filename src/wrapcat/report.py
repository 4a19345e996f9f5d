"""Report assembly: a machine-readable verdict tree plus a human-readable
text table, byte-deterministic for fixed input and version.
"""

from __future__ import annotations

import json

SCHEMA = "wrapcat/1"


class Report:
    """Verdict tree with deterministic serialization."""

    def __init__(self, command, fixture):
        self.doc = {"schema": SCHEMA, "command": command, "fixture": fixture,
                    "sections": {}}

    def add(self, name, payload):
        self.doc["sections"][name] = payload

    def set_verdict(self, passed: bool):
        self.doc["verdict"] = "pass" if passed else "fail"

    @property
    def passed(self):
        return self.doc.get("verdict") == "pass"

    def to_json(self) -> str:
        return json.dumps(self.doc, sort_keys=True, separators=(",", ":"),
                          ensure_ascii=True) + "\n"

    def to_text(self) -> str:
        lines = [f"wrapcat report: {self.doc['command']} on {self.doc['fixture']}"]
        lines.append(f"verdict: {self.doc.get('verdict', 'n/a')}")
        for name in sorted(self.doc["sections"]):
            lines.append(f"-- {name}")
            payload = self.doc["sections"][name]
            lines.extend(_render(payload, indent=3))
        return "\n".join(lines) + "\n"


def _render(payload, indent=0):
    pad = " " * indent
    out = []
    if isinstance(payload, dict):
        for k in sorted(payload, key=str):
            v = payload[k]
            if isinstance(v, (dict, list)):
                out.append(f"{pad}{k}:")
                out.extend(_render(v, indent + 3))
            else:
                out.append(f"{pad}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                out.extend(_render(v, indent))
                out.append(pad + "-")
            else:
                out.append(f"{pad}- {v}")
    else:
        out.append(f"{pad}{payload}")
    return out
