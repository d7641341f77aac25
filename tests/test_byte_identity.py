"""Byte identity of every emitted CSV, checked against a committed golden file.

Four commands cover every CSV writer: the SDL experiment with its GD
comparison, stochastic ReLU training with its trace and checkpoint, the
tensor sweep and the monomial atom export.  ``golden_sha256.json`` holds the
sha256 of each CSV for every numeric environment it was recorded in (numpy
version, ``OPENBLAS_NUM_THREADS`` and core count).  The norms in the tensor
trace and in the SDL error curves are numpy's pairwise sums, not BLAS dots,
so their bits do not follow the BLAS thread count; a second test runs the
SDL, the ReLU and the tensor commands with one and with two BLAS threads and
compares the hashes.

Contract for a change that alters emitted bits (a speed-up that reorders
floating-point work, a new inner solver, a fixed defect):

* update ``golden_sha256.json`` in the same commit, for every environment
  it lists, and say in CHANGES.md why the bits moved;
* show all 17 acceptance criteria in ``test_acceptance.py`` passing with
  their limits unchanged;
* report the drift: the medians of criteria 9, 10 and 14 before and after,
  and the largest absolute and relative change in each CSV column.

A change that claims to keep outputs identical must leave this test passing
without touching the golden file.

Run as a script, the module reports the drift of the CSV columns:

    PYTHONPATH=src python tests/test_byte_identity.py --drift PARENT_SRC

runs ``COMMANDS`` once on the ``bdcopt`` package in ``PARENT_SRC`` (the
``src`` directory of a checkout of the parent commit) and once on the
current one, and prints for each column of each CSV the largest absolute
change and the largest change relative to the larger magnitude of the two
values.  Both are printed because a value converged to rounding level (a
tensor objective near 1e-25) makes the relative change alone look large.
"""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
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


def run_child(src, argv, out, **env):
    """``bdc argv`` in a child process on the ``bdcopt`` package in ``src``,
    writing into ``out``, with ``env`` added to the environment; returns the
    completed process."""
    env = dict(os.environ, **env)
    env.pop("BDC_OUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "bdcopt.cli", *argv, "--outdir", str(out)],
        env=env, capture_output=True, text=True, timeout=120)


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


@pytest.mark.parametrize("command", COMMANDS[:3], ids=["sdl", "relu", "tensor"])
def test_emitted_csvs_do_not_depend_on_the_blas_thread_count(tmp_path, command):
    # the command in two child processes, with one BLAS thread and with
    # two: every CSV it writes has the same bytes
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = run_child(SRC, command, out, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in sorted(out.glob("*.csv"))})
    assert digests[0] and digests[0] == digests[1]


def read_columns(path):
    """The CSV at ``path`` as ``{column name: list of cells}``."""
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return {name: [row[k] for row in rows[1:]] for k, name in enumerate(rows[0])}


def column_drift(old, new):
    """``(largest |new - old|, largest |new - old| / max(|old|, |new|))``
    over the cells of one column, 0 where both are 0 or equal infinities;
    None when the columns differ in length or a cell is not a number."""
    if len(old) != len(new):
        return None
    try:
        pairs = np.array([[float(a), float(b)] for a, b in zip(old, new)]).reshape(-1, 2)
    except ValueError:
        return None
    a, b = pairs[:, 0], pairs[:, 1]
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    diff = np.where(same, 0.0, np.abs(b - a))
    size = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, size, out=np.zeros_like(diff), where=diff > 0)
    return float(np.max(diff, initial=0.0)), float(np.max(rel, initial=0.0))


def test_column_drift():
    # the absolute change peaks where the values are large, the relative one
    # where they are near zero
    abs_change, rel_change = column_drift(["1e4", "0", "1e-25"], ["1.0001e4", "0", "3e-25"])
    assert abs_change == pytest.approx(1.0) and rel_change == pytest.approx(2 / 3)
    assert column_drift(["1"], ["1", "2"]) is None
    assert column_drift(["l1"], ["l1"]) is None


def drift(parent_src):
    """Run ``COMMANDS`` on the sources in ``parent_src`` and on the current
    ones, and print the drift of every CSV column."""
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for side, src in (("parent", parent_src), ("current", SRC)):
            out = Path(tmp) / side
            for argv in COMMANDS:
                proc = run_child(src, argv, out)
                if proc.returncode:
                    sys.exit("%s sources failed on %s:\n%s"
                             % (side, " ".join(argv), proc.stderr))
            outs.append(out)
        print("csv column max_abs max_rel")
        names = sorted({p.name for out in outs for p in out.glob("*.csv")})
        for name in names:
            paths = [out / name for out in outs]
            if not all(p.exists() for p in paths):
                print(name, "written on one side only")
                continue
            old, new = (read_columns(p) for p in paths)
            for column in old:
                result = column_drift(old[column], new.get(column, []))
                if result is None:
                    print(name, column, "not comparable")
                else:
                    print(name, column, "%.3g %.3g" % result)
            for column in new:
                if column not in old:
                    print(name, column, "new column")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--drift", metavar="PARENT_SRC", required=True,
                        help="src directory of the parent's checkout")
    drift(parser.parse_args().drift)
