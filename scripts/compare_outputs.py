#!/usr/bin/env python3
"""Check that two source trees write byte-identical regime outputs.

    python3 scripts/compare_outputs.py PARENT_TREE CHANGE_TREE

Runs `harness.run_regime` on low_data seeds 0-5, high_noise seeds 0-2 and
mg_pipeline seeds 0-1 against the package under each tree's `src/`, in one
fresh process per tree. Then compares runs.csv, every model_*.json and
mg_table.txt byte for byte, and summary.json with its config's `out_dir`
left out, naming each dotted key path that differs or that only one side
has (e.g. `config.kmeans_clusters: parent only`). Prints each difference
and exits 1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CASES = {"low_data": list(range(6)), "high_noise": list(range(3)), "mg_pipeline": [0, 1]}

RUNNER = """
import json, sys
from fuzzy_pomdp.harness import regime_config, run_regime
out, cases = sys.argv[1], json.loads(sys.argv[2])
for regime, seeds in cases.items():
    run_regime(regime_config(regime, seeds, out_dir=f"{out}/{regime}"))
"""


def run_tree(tree: Path, out: Path) -> None:
    """Write every case's outputs under out/<regime>, using tree's package."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    subprocess.run([sys.executable, "-c", RUNNER, str(out), json.dumps(CASES)],
                   cwd=tree, env=env, check=True)


def _summary(path: Path) -> dict:
    summary = json.loads(path.read_text())
    summary["config"].pop("out_dir")
    return summary


def key_differences(parent, change, path: str = "") -> list[str]:
    """Dotted key paths at which two JSON values differ.

    Dicts are compared key by key; any other value, lists included, is
    compared whole, by its JSON text, so 1 and 1.0 differ.
    """
    if not (isinstance(parent, dict) and isinstance(change, dict)):
        same = json.dumps(parent, sort_keys=True) == json.dumps(change, sort_keys=True)
        return [] if same else [f"{path}: differs"]
    found = []
    for key in sorted(set(parent) | set(change)):
        sub = f"{path}.{key}" if path else key
        if key not in change:
            found.append(f"{sub}: parent only")
        elif key not in parent:
            found.append(f"{sub}: change only")
        else:
            found += key_differences(parent[key], change[key], sub)
    return found


def differences(parent: Path, change: Path) -> list[str]:
    """Every output file that is missing on one side or differs."""
    found = []
    for regime in CASES:
        a, b = parent / regime, change / regime
        names = sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()})
        for name in names:
            if not (a / name).exists() or not (b / name).exists():
                found.append(f"{regime}/{name}: written by one tree only")
            elif name == "summary.json":
                keys = key_differences(_summary(a / name), _summary(b / name))
                found += [f"{regime}/{name}: {key}" for key in keys]
            elif (a / name).read_bytes() != (b / name).read_bytes():
                found.append(f"{regime}/{name}: differs")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        outs = Path(tmp, "parent"), Path(tmp, "change")
        for tree, out in zip((args.parent, args.change), outs):
            run_tree(tree.resolve(), out)
        found = differences(*outs)
    for line in found:
        print(line)
    total = sum(len(seeds) for seeds in CASES.values())
    print(f"{len(found)} difference(s) over {len(CASES)} regimes, {total} seeds")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
