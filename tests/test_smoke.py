"""Whole-process checks: the import footprint, the exported names, the names
the benchmark's tracer patches and counts, the benchmark workloads'
correctness checks, the demo scripts, and test modules that run alone."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bdcopt
from bdcopt import experiments, solvers

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(bdcopt.__file__).resolve().parent.parent


def _python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_experiments_import_loads_no_scipy(tmp_path):
    proc = _python(["-c", "import sys, bdcopt.experiments; "
                          "print(sorted(m for m in sys.modules "
                          "if m.split('.')[0] == 'scipy'))"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_problems_import_loads_no_solvers(tmp_path):
    # the problem layer sits below the solver layer that calls it
    proc = _python(["-c", "import sys, bdcopt.problems; "
                          "print('bdcopt.solvers' in sys.modules)"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# demo 04 is left out for its run time: CI runs it as a step of its own,
# and acceptance criteria 9 and 10 run its code
@pytest.mark.parametrize("demo", [
    "01_monomial_decompositions.py",
    "02_relu_split_network.py",
    "03_block_dc_solvers.py",
    "05_tensor_als.py",
    "06_construction_toolbox.py",
])
def test_demo_runs(demo, tmp_path):
    proc = _python([str(ROOT / "demos" / demo)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def _benchmark_module(name):
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, ROOT / "perfbench" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _benchmark_tracing():
    return _benchmark_module("tracing")


def test_benchmark_tracer_patches_existing_names():
    # perfbench/tracing.py patches bdcopt's functions and methods by name; a
    # renamed or deleted one fails here rather than in a traced benchmark run
    tracing = _benchmark_tracing()

    with tracing.instrument(tracing.Tracer()):
        assert experiments.run is not solvers.run
    assert experiments.run is solvers.run


def test_traced_code_solver_takes_one_gradient_per_iteration():
    tracing = _benchmark_tracing()

    with tracing.instrument(tracing.Tracer()) as tracer:
        experiments.run_sdl_experiment(n_outer=2, n_seeds=1)
    spans = tracer.spans
    # the code-block solves are the "inner" spans that hold a prox-gradient run
    code_solves = {s[3] for s in spans if s[0] == "inner.prox_gradient"}
    iterations = sum(spans[k][4] for k in code_solves)
    assert iterations > 0
    calls = tracing.layer_metrics(spans)["inner.prox_gradient.value_grad_calls"]
    assert calls == iterations


def test_traced_stochastic_run_counts_every_inner_solve():
    # the tracer patches the problem classes, so a minibatch problem of
    # another class would drop the inner.* metrics without an error
    tracing = _benchmark_tracing()

    with tracing.instrument(tracing.Tracer()) as tracer:
        res = experiments.run_relu_experiment(n_data=20, batch_size=5, epochs=1,
                                              layer_dims=(4,), stride=0)
    assert len(res.trace) == 4
    assert tracing.layer_metrics(tracer.spans)["inner.calls"] == len(res.trace)


@pytest.mark.parametrize("workload", ["sdl", "relu_sqrtk", "tensor_als"])
def test_benchmark_workload_passes_its_checks_and_repeats(workload):
    # perfbench/workloads.py holds each workload's correctness checks (step
    # bounds, losses against a plain forward pass, recomputed objectives); a
    # change to the outputs they read fails here rather than in a benchmark run
    solve, fingerprint, check, _ = _benchmark_module("workloads").WORKLOADS[workload]
    out = solve(0)
    assert check(out, 0) == []
    assert fingerprint(solve(0)) == fingerprint(out)


def test_every_exported_name_resolves():
    names = [bdcopt.__name__] + [m.name for m in pkgutil.walk_packages(
        bdcopt.__path__, bdcopt.__name__ + ".")]
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, "%s.__all__ names %s" % (name, missing)


def test_no_test_module_imports_another():
    # what two test modules share lives in tests/cases.py, so each one runs
    # alone: an import of a test module (which may run its @given decorators
    # inside another's @given test) fails here
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else [a.name for a in node.names]
            else:
                continue
            assert not [n for n in names if n.split(".")[0].startswith("test_")], (
                "%s:%d imports %s" % (path.name, node.lineno, ", ".join(names)))
