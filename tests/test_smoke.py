"""Whole-process checks: the import footprint, the exported names, the names
the benchmark's tracer patches and counts, the benchmark workloads'
correctness checks, the demo scripts, test modules that run alone, and a
failing hypothesis test that ends no run."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
import textwrap
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


def test_experiments_import_loads_no_monomials(tmp_path):
    # the package root re-exports nothing, so the drivers do not pay for
    # the decompositions (and their fractions and decimal imports)
    proc = _python(["-c", "import sys, bdcopt.experiments; "
                          "print('bdcopt.monomials' in sys.modules)"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_experiments_import_loads_no_synthetic_problems(tmp_path):
    # the audit problems serve tests and demos; the package bdcopt.problems
    # imports none of its modules, so the experiments load only the ones
    # they use
    proc = _python(["-c", "import sys, bdcopt.experiments; "
                          "print('bdcopt.problems.synthetic' in sys.modules)"],
                   tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_problems_import_loads_no_solvers(tmp_path):
    # the problem layer sits below the solver layer that calls it; the
    # package bdcopt.problems is empty, so each module is imported by name
    proc = _python(["-c", "import sys, bdcopt.problems.cp, bdcopt.problems.mlp, "
                          "bdcopt.problems.sdl, bdcopt.problems.synthetic; "
                          "print('bdcopt.solvers' in sys.modules)"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_each_public_name_has_one_home(tmp_path):
    # no name sits in two __all__ lists, and the package bdcopt.problems
    # defines no public name of its own (checked before any of its modules
    # is imported, since importing one binds it on the package)
    script = textwrap.dedent("""
        import collections, importlib, pkgutil
        import bdcopt, bdcopt.problems
        print(sorted(n for n in vars(bdcopt.problems) if not n.startswith("_")))
        homes = collections.defaultdict(list)
        for m in pkgutil.walk_packages(bdcopt.__path__, "bdcopt."):
            for n in getattr(importlib.import_module(m.name), "__all__", ()):
                homes[n].append(m.name)
        print(sorted((n, ms) for n, ms in homes.items() if len(ms) > 1))
    """)
    proc = _python(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[]"], proc.stdout


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


def test_failing_hypothesis_test_leaves_the_run_going(tmp_path):
    # under the repository's ini settings, a failing @given test is one
    # failure: reporting it imports libcst for a patch suggestion, whose
    # DeprecationWarning from mypy_extensions must not turn into an
    # INTERNALERROR (exit code 3) that skips every test after it
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(n):
            assert n < 0


        def test_after():
            pass
    """))
    proc = _python(["-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
                    "--rootdir", str(tmp_path), "-p", "no:cacheprovider",
                    "-rA", "test_pair.py"], tmp_path)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "PASSED test_pair.py::test_after" in out
    assert "1 failed, 1 passed" in out


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
