"""Field-by-field differences of the benchmark's CLI artefacts: a base revision
against the working tree.

Usage (from anywhere in the repository):

    python3 tools/artefact_diff.py --base REV

Every command of ``perfbench/workloads.py``'s ``CLI_COMMANDS`` runs as a fresh
``python -m ionseries.cli`` process twice: once in ``git archive REV``
unpacked into a temporary directory (the base side) and once in the working
tree, each with its own ``src/`` on ``PYTHONPATH``, one BLAS thread and no
``IONTRAP_CUTOFF``, as the benchmark runs them. Each artefact is read as
fields: a JSON document's leaves by their key path, with ``[]`` for a list
index, and a CSV file's columns by their header. For every field that moved
the report gives how many values moved and the largest absolute and relative
change of the numeric ones; a field that one side lacks, or whose number of
values differs, is reported as such. Exit codes and standard output are
compared too. Exits 0 when nothing moved and 1 when something did.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

from bench_pairs import unpack

ROOT = Path(__file__).resolve().parent.parent


def cli_commands() -> tuple:
    """``CLI_COMMANDS`` of the working tree's ``perfbench/workloads.py``."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import CLI_COMMANDS

    return CLI_COMMANDS


def run_commands(tree: Path, commands) -> dict:
    """``{id: (exit code, stdout, {artefact: bytes})}`` of every command run in ``tree``."""
    from perfbench.run import bench_env

    env, _ = bench_env()
    env["PYTHONPATH"] = str(tree / "src")
    out = {}
    for cid, args, _expected, artefacts in commands:
        with tempfile.TemporaryDirectory(prefix="artefact-diff-") as workdir:
            proc = subprocess.run([sys.executable, "-m", "ionseries.cli", *args], cwd=workdir,
                                  env=env, capture_output=True)
            files = {name: (Path(workdir) / name).read_bytes()
                     for name in artefacts if (Path(workdir) / name).is_file()}
        out[cid] = (proc.returncode, proc.stdout, files)
    return out


def fields(name: str, data: bytes) -> dict:
    """``{field: [values]}`` of one artefact: JSON leaves by key path, CSV columns."""
    found = defaultdict(list)
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(data.decode())))
        header, body = (rows[0], rows[1:]) if rows else ([], [])
        for row in body:
            for key, text in zip(header, row):
                found[key].append(_number(text))
        return dict(found)

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for value in node:
                walk(value, f"{path}[]")
        else:
            found[path or "<document>"].append(node)

    walk(json.loads(data), "")
    return dict(found)


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def moved_fields(base: dict, change: dict) -> list:
    """``(field, note)`` of every field whose values differ between two ``fields`` maps.

    The note is ``"N values, max abs A, max rel R"``, with the two maxima over
    the numeric pairs that moved, or says that a side lacks the field or that
    the numbers of values differ.
    """
    report = []
    for key in sorted(set(base) | set(change)):
        if key not in base or key not in change:
            report.append((key, "only in the " + ("working tree" if key in change else "base")))
            continue
        old, new = base[key], change[key]
        if len(old) != len(new):
            report.append((key, f"{len(old)} values in the base, {len(new)} in the working tree"))
            continue
        pairs = [(a, b) for a, b in zip(old, new) if not _same(a, b)]
        if not pairs:
            continue
        numeric = [(a, b) for a, b in pairs if _is_number(a) and _is_number(b)]
        note = f"{len(pairs)} value{'s' if len(pairs) > 1 else ''}"
        if numeric:
            big_abs = max(abs(b - a) for a, b in numeric)
            big_rel = max(abs(b - a) / (max(abs(a), abs(b)) or 1.0) for a, b in numeric)
            note += f", max abs {big_abs:.3g}, max rel {big_rel:.3g}"
        report.append((key, note))
    return report


def _same(a, b) -> bool:
    """Equal values, NaN equal to NaN."""
    if _is_number(a) and _is_number(b) and math.isnan(a) and math.isnan(b):
        return True
    return a == b and type(a) is type(b)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the base side")
    args = parser.parse_args(argv)
    commands = cli_commands()
    with tempfile.TemporaryDirectory(prefix="artefact-diff-") as tmp:
        unpack(args.base, Path(tmp))
        base = run_commands(Path(tmp) / "tree", commands)
    change = run_commands(ROOT, commands)
    moved = 0
    for cid, _args, _expected, artefacts in commands:
        (code_a, out_a, files_a), (code_b, out_b, files_b) = base[cid], change[cid]
        lines = []
        if code_a != code_b:
            lines.append(("<exit code>", f"{code_a} in the base, {code_b} in the working tree"))
        if out_a != out_b:
            lines.append(("<stdout>", "differs"))
        for name in artefacts:
            if (name in files_a) != (name in files_b):
                lines.append((name, "written by one side only"))
            elif name in files_a and files_a[name] != files_b[name]:
                try:
                    diff = moved_fields(fields(name, files_a[name]), fields(name, files_b[name]))
                except (ValueError, UnicodeDecodeError):  # not a CSV or JSON document
                    diff = [("<bytes>", "differ")]
                lines += [(f"{name}: {key}", note) for key, note in diff or [("<bytes>", "differ")]]
        for key, note in lines:
            print(f"{cid}  {key}  {note}")
        moved += len(lines)
    print(f"artefact_diff: base {args.base} against the working tree, {len(commands)} commands: "
          f"{moved} moved field{'' if moved == 1 else 's'}")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
