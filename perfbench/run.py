"""Benchmark of bdcopt's solvers, run from the root of a source checkout.

    python3 perfbench/run.py --workload sdl --seed 0 --seconds 20 --trace 0

One process, one BLAS thread.  The run first times fresh interpreters
importing ``bdcopt.experiments`` (``setup_s``), each scaled by the speed of
the reference kernel run in that interpreter.  After one untimed warm-up
solve it repeats rounds of the workload's fixed solves, one solve per
program seed of the round, while another round fits in ``--seconds`` (at
least one round).  The reference kernel runs before, after and
every 20 ms during each solve; each solve's time without those kernel runs,
divided by the harmonic mean of the kernel times it sampled, is its ratio.
``solve_s`` is the mean over the round's seeds of the median ratio, times
the kernel's nominal time.  The first outputs of each seed must pass the
workload's checks, and every later solve of that seed must return the same
outputs.  With ``--trace 1`` every solve is followed by a traced solve and
the run reports the per-layer metrics, writing the last traced solve's spans
to ``perfbench/out/``.  The last line of standard output is one JSON object.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_STARTS = 7
# the child times the kernel after its import, on the core it ran on
SETUP_CODE = """import sys
n = len(sys.modules)
import bdcopt.experiments
modules = len(sys.modules) - n
from reference import ReferenceKernel
kernel = ReferenceKernel()
times = sorted(kernel.time() for _ in range(9))
print(modules, sum(times), times[4])
"""


def measure_setup(starts, nominal_s):
    """Time fresh interpreters importing bdcopt.experiments.  Returns the
    median over ``starts`` of each child's wall time without its kernel runs,
    scaled by the nominal over the child's median kernel time, and the
    number of modules that import loads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    times, modules = [], None
    for _ in range(starts):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError("setup child failed: " + proc.stderr.strip())
        modules, kernel_total, kernel_median = proc.stdout.split()
        times.append((wall - float(kernel_total)) * nominal_s / float(kernel_median))
    return statistics.median(times), int(modules)


def environment():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas["name"], blas["version"])
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count()}


def is_seconds(metric):
    return metric.endswith(("_s", ".s"))


class Rounds:
    """Timed solves with every output checked."""

    def __init__(self, fingerprint, check, timer):
        self.fingerprint, self.check, self.timer = fingerprint, check, timer
        self.attempted = self.failed = 0
        self.problems = []
        self.first = {}   # program seed -> (fingerprint, passed its checks)

    def timed(self, solve, seed):
        """Solve once; return the solve time and the harmonic mean of the
        kernel times sampled around and during it, or None when the solve
        raised or its outputs are wrong."""
        self.attempted += 1
        try:
            out, elapsed, ref = self.timer.call(solve, seed)
        except Exception as exc:  # a raising solve is a failed, wrong solve
            self.problems.append("seed %d raised %r" % (seed, exc))
            self.failed += 1
            return None
        fp = self.fingerprint(out)
        if seed not in self.first:
            bad = self.check(out, seed)
            self.first[seed] = (fp, not bad)
        elif fp != self.first[seed][0]:
            bad = ["seed %d: outputs differ from its first solve" % seed]
        else:
            bad = []
        self.problems += bad
        if bad or not self.first[seed][1]:
            self.failed += 1
            return None
        return elapsed, ref


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sdl", "relu_sqrtk", "tensor_als"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "bdcopt" / "__init__.py").is_file():
        print("error: no bdcopt sources at %s" % SRC, file=sys.stderr)
        return 2
    from reference import NOMINAL_S, ReferenceKernel, Timer
    setup_s, modules = measure_setup(1 if args.trace else SETUP_STARTS, NOMINAL_S)

    sys.path.insert(0, str(SRC))
    import bdcopt
    if Path(bdcopt.__file__).resolve().parent != SRC / "bdcopt":
        print("error: imported bdcopt from %s" % bdcopt.__file__, file=sys.stderr)
        return 2
    from workloads import WORKLOADS, program_seeds

    solve, fingerprint, check, _ = WORKLOADS[args.workload]
    seeds = program_seeds(args.workload, args.seed)
    rounds = Rounds(fingerprint, check, Timer(ReferenceKernel()))
    untraced = {s: [] for s in seeds}
    traced = {s: [] for s in seeds}
    layers = {s: [] for s in seeds}
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

        def traced_solve(seed):
            tracer.spans.clear()
            with tracing.instrument(tracer):
                return solve(seed)

    rounds.timed(solve, seeds[0])  # warm-up: its outputs count, its time does not
    deadline = time.perf_counter() + args.seconds
    while True:  # whole rounds, so every run attempts the same solves
        started = time.perf_counter()
        for s in seeds:
            t = rounds.timed(solve, s)
            if t is not None:
                untraced[s].append(t)
            if args.trace:
                t = rounds.timed(traced_solve, s)
                if t is not None:
                    traced[s].append(t)
                    scale = NOMINAL_S / t[1]
                    spans = tracing.remove_pauses(tracer.spans, rounds.timer.pauses)
                    layers[s].append({k: v * scale if is_seconds(k) else v for k, v
                                      in tracing.layer_metrics(spans).items()})
        # stop when another round like this one would end after the deadline
        now = time.perf_counter()
        if now + (now - started) > deadline or rounds.failed == rounds.attempted:
            break

    for problem in rounds.problems:
        print("check failed: " + problem, file=sys.stderr)
    ok = [s for s in seeds if untraced[s] and (traced[s] or not args.trace)]
    if not ok:
        print("error: no solve of %s succeeded" % args.workload, file=sys.stderr)
        return 1

    def seconds(samples, normalise=True):
        """Mean over the seeds of the median solve time, in nominal seconds
        (each time divided by the kernel time sampled with it) or raw."""
        return statistics.fmean(statistics.median(
            NOMINAL_S * e / r if normalise else e for e, r in samples[s]) for s in ok)

    solve_s = seconds(untraced)
    info = dict(environment(), workload=args.workload, seed=args.seed,
                program_seeds=seeds, rounds=len(untraced[ok[0]]),
                raw_solve_s=seconds(untraced, normalise=False),
                reference_s=statistics.median(r for s in ok for _, r in untraced[s]),
                reference_nominal_s=NOMINAL_S)
    print(json.dumps({"info": info}))

    if args.trace:
        per_layer = {k: statistics.fmean(statistics.median(d[k] for d in layers[s])
                                         for s in ok) for k in layers[ok[0]][0]}
        per_layer["setup.modules"] = modules
        per_layer["trace.overhead_s"] = seconds(traced) - solve_s
        OUT.mkdir(exist_ok=True)
        t0 = spans[0][1]
        with open(OUT / ("trace_%s_seed%d.json" % (args.workload, args.seed)), "w") as fh:
            json.dump([[n, s - t0, e - t0, p, note] for n, s, e, p, note in spans], fh)
        units = {k: "s" if is_seconds(k) else "count" for k in per_layer}
        units["inner.evals_per_step"] = "count/call"
        metrics = {k: {"value": v, "unit": units[k]} for k, v in sorted(per_layer.items())}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"solve_s": {"value": solve_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    print(json.dumps({"correct": not rounds.problems, "attempted": rounds.attempted,
                      "failed": rounds.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
