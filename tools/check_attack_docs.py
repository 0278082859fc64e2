#!/usr/bin/env python3
"""Fail when docs/ATTACKS.md drifts from the attack/axis code.

Single source of truth for what exists, all in the campaign schema
``src/campaign/schema.hh``:

 - the ``AttackKind`` enum and the ``kAttackNames`` table, which names
   every attack the sweep engine accepts;
 - the ``kGridAxes`` table, which drives the grid parser and is exactly
   what ``voltboot_cli sweep --list-axes`` prints.

What docs/ATTACKS.md must provide:

 - one ``<a id="attack-NAME"></a>`` anchor per attack name, so every
   family has a stable deep-linkable section;
 - at least one backticked mention of every sweep-axis key, so the
   parameter tables cannot silently omit an axis.

Exit code 1 with a per-item report when anything is missing.

Usage: tools/check_attack_docs.py [repo_root]
"""

import os
import re
import sys

SCHEMA = "src/campaign/schema.hh"
DOC = "docs/ATTACKS.md"

ENUM_RE = re.compile(r"enum\s+class\s+AttackKind\s*{([^}]*)}", re.S)
NAME_RE = re.compile(r'\{AttackKind::(\w+),\s*"([a-z0-9-]+)"\}')
AXIS_RE = re.compile(r'VOLTBOOT_AXIS\("([a-z0-9-]+)",')


def read(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8") as fh:
        return fh.read()


def enum_members(text):
    match = ENUM_RE.search(text)
    if not match:
        return []
    body = re.sub(r"//[^\n]*", "", match.group(1))
    return re.findall(r"\b(\w+)\s*,?", body)


def axis_keys(text):
    start = text.find("kGridAxes[] = {")
    if start < 0:
        return []
    return AXIS_RE.findall(text[start:text.find("};", start)])


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    problems = []

    schema = read(root, SCHEMA)
    members = enum_members(schema)
    if not members:
        problems.append(f"{SCHEMA}: AttackKind enum not found")
    names = dict(NAME_RE.findall(schema))
    for member in members:
        if member not in names:
            problems.append(
                f"{SCHEMA}: AttackKind::{member} has no kAttackNames entry")
    axes = axis_keys(schema)
    if not axes:
        problems.append(f"{SCHEMA}: no kGridAxes table")

    doc = read(root, DOC)
    for name in sorted(names.values()):
        anchor = f'<a id="attack-{name}"></a>'
        if anchor not in doc:
            problems.append(f"{DOC}: missing anchor {anchor}")
    for key in axes:
        if not re.search(r"`" + re.escape(key) + r"[=`]", doc):
            problems.append(
                f"{DOC}: sweep axis `{key}` is never mentioned "
                "in backticks")

    for line in problems:
        print(line, file=sys.stderr)
    print(f"checked {len(names)} attacks and {len(axes)} sweep axes "
          f"against {DOC}, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
