#!/usr/bin/env python3
"""Fail when docs/ATTACKS.md drifts from the attack/axis code.

Single source of truth for what exists:

 - The ``AttackKind`` enum (searched for in ``src/core/attack.hh`` and
   ``src/campaign/sweep_grid.hh`` -- it has moved once already) and the
   ``kAttackNames`` table in ``src/campaign/sweep_grid.hh``, which names
   every attack the sweep engine accepts.
 - The ``axes[]`` table inside ``SweepGrid::axesHelp()`` in
   ``src/campaign/sweep_grid.cc``, which is exactly what
   ``voltboot_cli sweep --list-axes`` prints.

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

ENUM_FILES = ("src/core/attack.hh", "src/campaign/sweep_grid.hh")
GRID_CC = "src/campaign/sweep_grid.cc"
GRID_HH = "src/campaign/sweep_grid.hh"
DOC = "docs/ATTACKS.md"

ENUM_RE = re.compile(r"enum\s+class\s+AttackKind\s*{([^}]*)}", re.S)
NAME_RE = re.compile(r'\{AttackKind::(\w+),\s*"([a-z0-9-]+)"\}')
AXIS_RE = re.compile(r'\{"([a-z0-9-]+)",')


def read(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8") as fh:
        return fh.read()


def enum_members(root):
    for rel in ENUM_FILES:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            continue
        match = ENUM_RE.search(read(root, rel))
        if match:
            body = re.sub(r"//[^\n]*", "", match.group(1))
            members = [m for m in re.findall(r"\b(\w+)\s*,?", body)]
            return rel, members
    return None, []


def attack_names(root):
    return {enum: name
            for enum, name in NAME_RE.findall(read(root, GRID_HH))}


def axis_keys(root):
    text = read(root, GRID_CC)
    start = text.find("axesHelp")
    if start < 0:
        return []
    return AXIS_RE.findall(text[start:])


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    problems = []

    enum_file, members = enum_members(root)
    if not members:
        problems.append(
            "AttackKind enum not found in any of: " +
            ", ".join(ENUM_FILES))
    names = attack_names(root)
    for member in members:
        if member not in names:
            problems.append(
                f"{GRID_HH}: AttackKind::{member} (from {enum_file}) "
                "has no kAttackNames entry")
    axes = axis_keys(root)
    if not axes:
        problems.append(f"{GRID_CC}: no axes[] table in axesHelp()")

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
