"""Command-line experiment driver.

Subcommands: ``monomial``, ``sdl``, ``relu``, ``tensor``, ``plan-rho``.
Configuration precedence is built-in defaults < ``--config`` file (flat
``key=value`` lines) < command-line flags; every config key has a flag of the
same name.  All emitted CSVs are deterministic given the configuration.  The
run manifest is written when a run starts and closed by ``main`` whatever the
exit: "complete" on exit 0, else "failed" with the error text, and with the
wall time and the outputs either way.  ``BDC_OUT_DIR`` overrides the output
directory.
"""

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

from . import experiments
from . import relu as relu_mod
from .blocks import at_least, write_csv
from .monomials import (Monomial, atoms_to_csv, bdc_block_decompose,
                        check_verify_settings, dc_atom_bounds,
                        merge_proportional, polarize, verify_identity)
from .problems.sdl import check_lq_q
from .solvers import plan_rho

__all__ = ["main"]


def _git_describe():
    """Build id of the checkout this package runs from, wherever it is called."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=os.path.dirname(os.path.abspath(__file__)),
                             capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _environment():
    """The numeric environment: the BLAS thread count moves the last bits of
    some CSVs (``tensor_trace.csv``), so a manifest records it."""
    env = {name: os.environ.get(name) for name in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(numpy=np.__version__, cpu_count=os.cpu_count())
    return env


def _strict_json(value):
    """``value`` with every non-finite float, in lists and dicts too, as the
    string ``"nan"``, ``"inf"`` or ``"-inf"``, which strict JSON allows."""
    if isinstance(value, float) and not np.isfinite(value):
        return str(float(value))
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


class Manifest:
    """``<subcommand>_manifest.json``: a subcommand ``start``s it once its
    output directory and config are known, appends what it writes to
    ``outputs``, and ``main`` closes it.  The file is strict JSON: a
    non-finite float, such as a rejected ``alpha=nan``, is written as the
    string ``"nan"``, ``"inf"`` or ``"-inf"``."""

    def __init__(self, subcommand):
        self.subcommand = subcommand
        self.path = None
        self.outputs = []

    def start(self, outdir, config, seeds):
        self.path = os.path.join(outdir, "%s_manifest.json" % self.subcommand)
        self.payload = {
            "subcommand": self.subcommand,
            "config": config,
            "seeds": list(seeds),
            "build": _git_describe(),
            "environment": _environment(),
            "status": "running",
            "wall_s": None,
            "outputs": [],
        }
        self.t0 = time.perf_counter()
        self._write()

    def _write(self):
        with open(self.path, "w") as fh:
            json.dump(_strict_json(self.payload), fh, indent=2, sort_keys=True,
                      allow_nan=False)
            fh.write("\n")

    def close(self, error=None):
        """Record the outcome; a manifest that never started writes nothing."""
        if self.path is None:
            return
        self.payload["status"] = "complete" if error is None else "failed"
        if error is not None:
            self.payload["error"] = error
        self.payload["wall_s"] = time.perf_counter() - self.t0
        self.payload["outputs"] = [os.path.basename(p) for p in self.outputs]
        self._write()


_BOOLEANS = {"true": True, "yes": True, "1": True,
             "false": False, "no": False, "0": False}


def _parse_widths(text):
    try:
        widths = tuple(int(t) for t in text.split(","))
    except ValueError:
        widths = ()
    if not widths or min(widths) < 1:
        raise ValueError("widths must be comma-separated positive integers, "
                         "got %r" % text)
    return widths


def _parse_dims(text):
    try:
        dims = tuple(int(t) for t in text.split(","))
    except ValueError:
        dims = ()
    if not 2 <= len(dims) <= 4 or min(dims) < 1:
        raise ValueError("dims must be 2 to 4 comma-separated positive "
                         "integers, got %r" % text)
    return dims


def _one_of(key, choices):
    def parse(text):
        if text not in choices:
            raise ValueError("%s must be one of %s, got %r" % (
                key, ", ".join(map(repr, choices)), text))
        return text
    return parse


# string keys of a fixed form, checked where a config file or flag sets them
_STRING_PARSERS = {
    "widths": _parse_widths,
    "dims": _parse_dims,
    "task": _one_of("task", ("blobs", "sine")),
    "variant": _one_of("variant", ("l1", "l1_lq", "both")),
    "ell": _one_of("ell", ("constant", "affine")),
}


def _load_config_file(path, defaults):
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key=value" % (path, lineno))
            key, raw = (t.strip() for t in line.split("=", 1))
            if key not in defaults:
                raise ValueError("%s:%d: unknown key %r" % (path, lineno, key))
            ref = defaults[key]
            if isinstance(ref, bool):
                if raw.lower() not in _BOOLEANS:
                    raise ValueError("%s:%d: %s must be one of true/false/yes/"
                                     "no/1/0, got %r" % (path, lineno, key, raw))
                values[key] = _BOOLEANS[raw.lower()]
            elif isinstance(ref, (int, float)):
                kind = type(ref)
                try:
                    values[key] = kind(raw)
                except ValueError:
                    raise ValueError("%s:%d: %s must be of type %s, got %r" % (
                        path, lineno, key, kind.__name__, raw)) from None
            else:
                if key in _STRING_PARSERS:
                    try:
                        _STRING_PARSERS[key](raw)
                    except ValueError as exc:
                        raise ValueError("%s:%d: %s" % (path, lineno, exc)) from None
                values[key] = raw
    return values


def _resolve(defaults, args):
    """defaults < config file < explicit flags."""
    cfg = dict(defaults)
    if args.config:
        cfg.update(_load_config_file(args.config, defaults))
    for key in defaults:
        val = getattr(args, key)
        if val is not None:
            if key in _STRING_PARSERS:
                _STRING_PARSERS[key](val)
            cfg[key] = val
    return cfg


def _outdir(cfg):
    out = os.environ.get("BDC_OUT_DIR") or cfg.get("outdir") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _parse_exponents(text):
    try:
        b = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("exponents must be comma-separated integers")
    return b


def _parse_grouping(text, n_vars):
    groups = []
    for part in text.split("|"):
        try:
            idx = tuple(int(t) - 1 for t in part.split(","))
        except ValueError:
            raise ValueError("group must be |-separated lists of 1-based "
                             "indices, got %r" % text) from None
        if any(j < 0 or j >= n_vars for j in idx):
            raise ValueError("group index out of range in %r" % part)
        groups.append(idx)
    return groups


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

MONOMIAL_DEFAULTS = {"trials": 100, "tol": 1e-6, "outdir": ""}


def cmd_monomial(args, manifest):
    cfg = _resolve(MONOMIAL_DEFAULTS, args)
    out = _outdir(cfg)
    manifest.start(out, dict(cfg, b=",".join(map(str, args.b))), [0])
    check_verify_settings(cfg["trials"], cfg["tol"])  # before any atom is printed
    m = Monomial(args.b)
    names = ["t%d" % (j + 1) for j in range(m.n_vars)]

    def atom_str(atom, local_names):
        terms = []
        for c, nm in zip(atom.form, local_names):
            if c:
                terms.append("%+d*%s" % (c, nm))
        if atom.shift:
            terms.append("%+d" % atom.shift)
        body = " ".join(terms) if terms else "0"
        return "%s * (%s)^%d" % (atom.weight, body, atom.power)

    if args.bounds:
        lo, hi = dc_atom_bounds(m)
        print("lower=%d upper=%d" % (lo, hi))
        return

    if args.group:
        dec = bdc_block_decompose(m, _parse_grouping(args.group, m.n_vars))
        counts = "+".join(str(c) for c in dec.atom_counts)
        print("atoms=%d (%s)" % (dec.total_atoms, counts))
        for vars_, part in dec.parts:
            local = [names[j] for j in vars_]
            print("block {%s}:" % ",".join(local))
            for atom in part.atoms:
                print("  " + atom_str(atom, local))
    else:
        dec = polarize(m)
        lo, hi = dc_atom_bounds(m)
        print("atoms=%d bounds: lower=%d upper=%d" % (dec.n_atoms, lo, hi))
        if args.merged_count:
            print("atoms_merged=%d" % merge_proportional(dec).n_atoms)
        for atom in dec.atoms:
            print(atom_str(atom, names))
        if args.csv:
            path = os.path.join(out, args.csv)
            atoms_to_csv(dec, path)
            manifest.outputs.append(path)

    ok, err = verify_identity(dec, m, trials=cfg["trials"], tol=cfg["tol"])
    print("max_rel_err=%r" % float(err))
    if args.verify:
        print("verify=%s" % ("pass" if ok else "fail"))
        if not ok:
            raise ValueError("identity verification failed (max_rel_err=%r)" % float(err))


SDL_DEFAULTS = {
    "m": 10, "l": 32, "n": 100, "k_nonzero": 5, "alpha": 0.1, "q": 5,
    "iters": 700, "seeds": 10, "seed": 0, "inner_x": 10, "inner_d": 5,
    "inner_tol": 1e-8, "variant": "both", "gd_iters": 300, "gd_seeds": 3,
    "outdir": "",
}


def cmd_sdl(args, manifest):
    cfg = _resolve(SDL_DEFAULTS, args)
    out = _outdir(cfg)
    variants = ("l1", "l1_lq") if cfg["variant"] == "both" else (cfg["variant"],)
    manifest.start(out, cfg, list(range(cfg["seeds"])))
    if args.compare_gd:  # the GD comparison's checks, before the main sweep
        # the sizes first, in the order run_sdl_experiment checks them
        for key in ("m", "l", "n"):
            at_least(key, cfg[key], 1)
        check_lq_q(cfg["q"], cfg["l"])  # it always runs the l1_lq penalty
        for key, low in (("gd_iters", 0), ("gd_seeds", 1)):
            at_least(key, cfg[key], low)

    res = experiments.run_sdl_experiment(
        m=cfg["m"], l=cfg["l"], n=cfg["n"], k_nonzero=cfg["k_nonzero"],
        alpha=cfg["alpha"], q=cfg["q"], n_outer=cfg["iters"],
        n_seeds=cfg["seeds"], seed=cfg["seed"], inner_x=cfg["inner_x"],
        inner_d=cfg["inner_d"], inner_tol=cfg["inner_tol"], variants=variants)

    tags = {"l1": "L1", "l1_lq": "LQ"}
    iters = np.arange(cfg["iters"] + 1)

    def table(metric, extra=None):
        header = ["iter"]
        cols = [iters]
        for v in variants:
            bands = experiments.sdl_band_columns(metric[v])
            base = "rec_errors" if metric is res.rec else "sparsities"
            header.append("%s_%s" % (base, tags[v]))
            cols.append(bands["mean"])
            for kind in ("lower_minmax", "upper_minmax", "lower_2sd", "upper_2sd"):
                header.append("%s_%s" % (kind, tags[v]))
                cols.append(bands[kind])
        if extra:
            header.append(extra[0])
            cols.append(np.full(len(iters), extra[1]))
        return header, list(zip(*cols))

    header, rows = table(res.rec)
    manifest.outputs.append(write_csv(os.path.join(out, "sdl_rec_errors.csv"), header, rows))
    header, rows = table(res.sparsity, extra=("true_sparsity", res.true_sparsity))
    manifest.outputs.append(write_csv(os.path.join(out, "sdl_sparsities.csv"), header, rows))

    if args.compare_gd:
        rows = experiments.run_sdl_gd_comparison(
            m=cfg["m"], l=cfg["l"], n=cfg["n"], k_nonzero=cfg["k_nonzero"],
            alpha=cfg["alpha"], q=cfg["q"], n_outer=cfg["gd_iters"],
            n_seeds=cfg["gd_seeds"], seed=cfg["seed"], inner_x=cfg["inner_x"],
            inner_d=cfg["inner_d"], inner_tol=cfg["inner_tol"])
        manifest.outputs.append(write_csv(
            os.path.join(out, "sdl_gd_compare.csv"),
            ["seed", "oracle_calls", "bdca_final", "gd_final"],
            [(r["seed"], r["oracle_calls"], r["bdca_final"], r["gd_final"]) for r in rows]))


RELU_DEFAULTS = {
    "task": "blobs", "widths": "16,8", "n_data": 200, "classes": 3,
    "epochs": 5, "batch_size": 16, "rho": 1.0, "theory_preset": False,
    "rho_coeff": 0.5, "batch_coeff": 0.5, "inner_budget": 25,
    "inner_tol": 1e-8, "stride": 10, "delta": 0.25, "seed": 0, "outdir": "",
}


def cmd_relu(args, manifest):
    cfg = _resolve(RELU_DEFAULTS, args)
    out = _outdir(cfg)
    manifest.start(out, cfg, [cfg["seed"]])
    widths = _parse_widths(cfg["widths"])
    res = experiments.run_relu_experiment(
        task=cfg["task"], layer_dims=widths, n_data=cfg["n_data"],
        n_classes=cfg["classes"], epochs=cfg["epochs"],
        batch_size=cfg["batch_size"], rho=cfg["rho"],
        theory_preset=cfg["theory_preset"], rho_coeff=cfg["rho_coeff"],
        batch_coeff=cfg["batch_coeff"], inner_budget=cfg["inner_budget"],
        inner_tol=cfg["inner_tol"], stride=cfg["stride"], delta=cfg["delta"],
        seed=cfg["seed"])
    manifest.outputs += [
        write_csv(os.path.join(out, "relu_loss_seed%d.csv" % cfg["seed"]),
                  ["k", "loss", "residual_upper"], res.loss_rows),
        write_csv(os.path.join(out, "relu_smoothness_seed%d.csv" % cfg["seed"]),
                  ["logG", "logLhat", "t", "block"],
                  [(a, b, int(t), int(bl)) for a, b, t, bl in res.scatter_rows]),
    ]
    if args.dump_trace:
        path = os.path.join(out, "relu_trace_seed%d.csv" % cfg["seed"])
        res.trace.write_csv(path)
        manifest.outputs.append(path)
    if args.save_params:
        path = os.path.join(out, "relu_params_seed%d.csv" % cfg["seed"])
        final = res.problem.params(res.trace.final_theta)
        relu_mod.save_params_csv(final, path)
        manifest.outputs.append(path)
    # internal gate: every recorded value finite
    if res.loss_rows and not np.all(np.isfinite([r[1] for r in res.loss_rows])):
        raise ValueError("non-finite loss encountered")
    if res.scatter_rows and not np.all(np.isfinite(np.array(res.scatter_rows))):
        raise ValueError("non-finite smoothness estimate encountered")


TENSOR_DEFAULTS = {
    "dims": "4,5,6", "rank": 2, "sweeps": 200, "seed": 0, "noise": 0.0,
    "outdir": "",
}


def cmd_tensor(args, manifest):
    cfg = _resolve(TENSOR_DEFAULTS, args)
    out = _outdir(cfg)
    dims = _parse_dims(cfg["dims"])
    manifest.start(out, cfg, [cfg["seed"]])
    rows, per_update, _, _ = experiments.run_tensor_experiment(
        dims=dims, rank=cfg["rank"], sweeps=cfg["sweeps"], seed=cfg["seed"],
        noise=cfg["noise"])
    manifest.outputs.append(write_csv(os.path.join(out, "tensor_trace.csv"),
                                      ["sweep", "objective", "rel_error"], rows))
    manifest.payload["final_rel_error"] = rows[-1][2]
    manifest.payload["stalled"] = experiments.tensor_stalled(rows, cfg["noise"])
    # internal gate: exact block minimization must never increase the objective
    if np.any(np.diff(per_update) > 1e-9 * (1.0 + np.abs(per_update[:-1]))):
        raise ValueError("objective increased during a block update")


PLAN_RHO_DEFAULTS = {
    "G": 1.0, "R": 0.0, "ell": "constant", "ell_l0": 1.0, "ell_a": 1.0,
    "ell_c": 1.0, "outdir": "",
}


def cmd_plan_rho(args, manifest):
    cfg = _resolve(PLAN_RHO_DEFAULTS, args)
    manifest.start(_outdir(cfg), cfg, [])
    for key in ("ell_l0", "ell_a", "ell_c"):
        at_least(key, cfg[key], 0)
    if cfg["ell"] == "constant":
        ell = lambda u: cfg["ell_l0"]
    else:
        ell = lambda u: cfg["ell_a"] + cfg["ell_c"] * u
    plan = plan_rho(ell, cfg["G"], cfg["R"])
    print("E=%r" % float(plan.E))
    print("L_eff=%r" % float(plan.L_eff))
    print("rho_min=%r" % float(plan.rho_min))


# ---------------------------------------------------------------------------

def _add_common(sub, defaults):
    sub.add_argument("--config", help="flat key=value config file")
    for key, ref in defaults.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(ref, bool):
            sub.add_argument(flag, dest=key, action="store_true", default=None)
        elif isinstance(ref, int):
            sub.add_argument(flag, dest=key, type=int, default=None)
        elif isinstance(ref, float):
            sub.add_argument(flag, dest=key, type=float, default=None)
        else:
            sub.add_argument(flag, dest=key, type=str, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bdc", description="block difference-of-convex toolkit")
    subs = parser.add_subparsers(dest="command", required=True)

    mono = subs.add_parser("monomial", help="decompositions and atom bounds")
    mono.add_argument("--b", type=_parse_exponents, required=True,
                      help="comma-separated exponents, e.g. 1,1,2,4")
    mono.add_argument("--group", help="variable groups, 1-based, e.g. 1,2|3,4")
    mono.add_argument("--bounds", action="store_true", help="print atom-count bounds only")
    mono.add_argument("--verify", action="store_true", help="exit nonzero unless the identity verifies")
    mono.add_argument("--merged-count", action="store_true",
                      help="also report the count after merging proportional atoms")
    mono.add_argument("--csv", help="export atoms to this CSV file")
    _add_common(mono, MONOMIAL_DEFAULTS)
    mono.set_defaults(func=cmd_monomial)

    sdl = subs.add_parser("sdl", help="sparse dictionary learning experiment")
    sdl.add_argument("--compare-gd", action="store_true",
                     help="also run the joint gradient-descent baseline")
    _add_common(sdl, SDL_DEFAULTS)
    sdl.set_defaults(func=cmd_sdl)

    relu_p = subs.add_parser("relu", help="toy split-network training")
    relu_p.add_argument("--dump-trace", action="store_true",
                        help="also write the per-iteration solver trace")
    relu_p.add_argument("--save-params", action="store_true",
                        help="checkpoint the trained parameters as CSV")
    _add_common(relu_p, RELU_DEFAULTS)
    relu_p.set_defaults(func=cmd_relu)

    tensor = subs.add_parser("tensor", help="alternating least-squares factorization")
    _add_common(tensor, TENSOR_DEFAULTS)
    tensor.set_defaults(func=cmd_tensor)

    plan = subs.add_parser("plan-rho", help="gradient-bound and proximal-weight planner")
    _add_common(plan, PLAN_RHO_DEFAULTS)
    plan.set_defaults(func=cmd_plan_rho)
    return parser


def main(argv=None):
    """Run one subcommand; returns the exit status.

    A subcommand signals failure by raising.  ``ValueError`` and
    ``FileNotFoundError`` become exit 1 with one ``error:`` line; anything
    else propagates.  Either way the manifest is closed as "failed" with the
    error text; on success it is closed as "complete" and each output path
    is printed.
    """
    args = build_parser().parse_args(argv)
    manifest = Manifest(args.command)
    try:
        args.func(args, manifest)
    except (ValueError, FileNotFoundError) as exc:
        manifest.close(error=str(exc))
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except BaseException as exc:
        manifest.close(error="%s: %s" % (type(exc).__name__, exc))
        raise
    manifest.close()
    for p in manifest.outputs:
        print("wrote %s" % p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
