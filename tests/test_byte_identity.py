"""Byte identity of every emitted CSV, checked against a committed golden file.

Four commands cover every CSV writer: the SDL experiment with its GD
comparison, stochastic ReLU training with its trace and checkpoint, the
tensor sweep and the monomial atom export.  ``golden_sha256.json`` holds the
sha256 of each CSV for every numeric environment it was recorded in (numpy
version, ``OPENBLAS_NUM_THREADS`` and core count).  The norms in the tensor
trace and in the SDL error curves are numpy's pairwise sums, not BLAS dots,
so their bits do not follow the BLAS thread count; a second test runs the
SDL and the tensor commands with one and with two BLAS threads and compares
the hashes.

Contract for a change that alters emitted bits (a speed-up that reorders
floating-point work, a new inner solver, a fixed defect):

* update ``golden_sha256.json`` in the same commit, for every environment
  it lists, and say in CHANGES.md why the bits moved;
* show all 17 acceptance criteria in ``test_acceptance.py`` passing with
  their limits unchanged;
* report the drift: the medians of criteria 9, 10 and 14 before and after,
  and the largest relative change in each CSV column.

A change that claims to keep outputs identical must leave this test passing
without touching the golden file.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bdcopt
from bdcopt.cli import main

SRC = Path(bdcopt.__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_sha256.json")
COMMANDS = (
    ["sdl", "--iters", "20", "--seeds", "2", "--compare-gd", "--gd-iters", "8",
     "--gd-seeds", "1"],
    ["relu", "--theory-preset", "--dump-trace", "--save-params"],
    ["tensor", "--dims", "20,30,40", "--rank", "5", "--sweeps", "40"],
    ["monomial", "--b", "2,4", "--csv", "atoms.csv"],
)


def environment():
    return {"numpy": np.__version__,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "cpu_count": os.cpu_count()}


def differing(got, want):
    return sorted(name for name in set(got) | set(want) if got.get(name) != want.get(name))


def test_emitted_csvs_match_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("BDC_OUT_DIR", raising=False)
    for argv in COMMANDS:
        assert main(argv + ["--outdir", str(tmp_path)]) == 0, argv
    capsys.readouterr()
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.glob("*.csv"))}
    recorded = json.loads(GOLDEN.read_text())["environments"]
    env = environment()
    here = [e for e in recorded if e["environment"] == env]
    if here:
        moved = differing(got, here[0]["sha256"])
        if moved:
            pytest.fail(
                "the code moved: in the recorded environment %s these CSVs "
                "changed: %s.  Follow the contract in this module's docstring; "
                "the new sha256 values are %s"
                % (env, ", ".join(moved), json.dumps(got, indent=1)))
    elif not any(got == e["sha256"] for e in recorded):
        pytest.fail(
            "the environment moved: %s is not among the recorded environments "
            "%s, and the CSVs differ from every recorded set (from the first: "
            "%s).  Rerun in a recorded environment to tell a code change from "
            "an environment change, or record this one with sha256 values %s"
            % (env, [e["environment"] for e in recorded],
               ", ".join(differing(got, recorded[0]["sha256"])),
               json.dumps(got, indent=1)))


@pytest.mark.parametrize("command", [COMMANDS[0], COMMANDS[2]], ids=["sdl", "tensor"])
def test_emitted_csvs_do_not_depend_on_the_blas_thread_count(tmp_path, command):
    # the command in two child processes, with one BLAS thread and with
    # two: every CSV it writes has the same bytes
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env.pop("BDC_OUT_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "bdcopt.cli", *command, "--outdir", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.glob("*.csv"))})
    assert digests[0] and digests[0] == digests[1]
