"""Every artefact of the benchmark's CLI command list is byte-identical to its
recorded sha256.

The command list and the hashes are read from ``perfbench/workloads.py`` and
``perfbench/golden.json`` without importing either, and each command runs as
a fresh process in the benchmark's environment: one BLAS thread (the thread
count sets the rounding of BLAS results) and no ``IONTRAP_CUTOFF``.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _cli_commands():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["CLI_COMMANDS"]:
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/workloads.py defines no CLI_COMMANDS")


CLI_COMMANDS = _cli_commands()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))["artefacts"]


def _env():
    env = {k: v for k, v in os.environ.items() if k != "IONTRAP_CUTOFF"}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=str(ROOT / "src"))
    return env


def _check_command(tmp_path, cid, argv, code, artefacts, preexec_fn=None):
    proc = subprocess.run([sys.executable, "-m", "ionseries.cli", *argv], cwd=tmp_path,
                          env=_env(), capture_output=True, text=True, timeout=120,
                          preexec_fn=preexec_fn)
    assert proc.returncode == code, proc.stderr
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in artefacts}
    assert digests == GOLDEN[cid]


@pytest.mark.parametrize("cid, argv, code, artefacts", CLI_COMMANDS,
                         ids=[c[0] for c in CLI_COMMANDS])
def test_artefacts_match_golden(tmp_path, cid, argv, code, artefacts):
    _check_command(tmp_path, cid, argv, code, artefacts)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the platform cannot pin a process to one CPU")
def test_cat_wigner_on_one_cpu_matches_golden(tmp_path):
    """The single-worker Wigner path writes the same bytes as the threaded one."""
    command = next(c for c in CLI_COMMANDS if c[0] == "cat_wigner")
    cpu = min(os.sched_getaffinity(0))
    # sched_setaffinity runs in the child between fork and exec, so only it is pinned
    _check_command(tmp_path, *command, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
