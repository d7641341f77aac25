"""Command-line experiment driver.

Subcommands: ``monomial``, ``sdl``, ``relu``, ``tensor``, ``plan-rho``, one
entry each in ``COMMANDS``, which holds the subcommand's settings and their
defaults; those of ``sdl``, ``relu`` and ``tensor`` are the keyword
defaults of the drivers they feed, under the flag names of ``SDL_FLAGS``,
``GD_FLAGS`` and ``RELU_FLAGS``.
Every flag but ``--config`` is a setting and every setting is a flag and a
config key of the same name.  Configuration precedence is built-in defaults
< ``--config`` file (flat ``key=value`` lines) < command-line flags.  One
converter, ``_convert``, turns every setting's text into its value, from a
flag and a config line alike: by the key's parser (``b``, ``widths``,
``dims``, ``task``, ``variant``), else by the type of its default
(a boolean word, ``int``, ``float`` or plain text); a boolean flag given
bare reads ``true``.  ``main`` owns the run: it resolves the settings,
starts the manifest, whose ``config`` records every setting, runs the
subcommand on the resolved config and closes the manifest, "complete" on
exit 0, else "failed" with the error text, and with the wall time and the
outputs either way.  Every bad setting (a flag's or a config line's text, a
missing ``b``, a missing or unreadable config file, a value out of range)
exits 1 with one ``error:`` line and a "failed" manifest; only argparse's
usage check (an unknown flag, a prefix of one included, a flag without its
value) exits 2.  All emitted CSVs are deterministic given the configuration.
``BDC_OUT_DIR`` overrides the output directory.
"""

import argparse
import inspect
import json
import os
import subprocess
import sys
import time

import numpy as np

from . import experiments
from . import relu as relu_mod
from .blocks import at_least, count, write_csv
from .monomials import (Monomial, atoms_to_csv, bdc_block_decompose, dc_atom_bounds,
                        merge_proportional, polarize, verify_identity)
from .problems.sdl import VARIANTS, check_lq_q
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
    """``<subcommand>_manifest.json`` in the run's output directory.  ``main``
    ``start``s it with the resolved config, or with the flags as given, as
    text, when the settings do not resolve; a subcommand writes each output
    through ``output`` or ``csv``, which record it; and ``main`` closes it.
    The file is strict JSON: a non-finite float, such as a rejected
    ``alpha=nan``, is written as the string ``"nan"``, ``"inf"`` or
    ``"-inf"``."""

    def __init__(self, subcommand):
        self.subcommand = subcommand
        self.path = None
        self.outputs = []

    def start(self, outdir, config):
        """Write the running manifest to ``BDC_OUT_DIR``, else ``outdir``,
        else the working directory, which then holds the run's outputs."""
        self.outdir = os.environ.get("BDC_OUT_DIR") or outdir or "."
        os.makedirs(self.outdir, exist_ok=True)
        self.path = os.path.join(self.outdir, "%s_manifest.json" % self.subcommand)
        self.payload = {
            "subcommand": self.subcommand,
            "config": config,
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

    def output(self, name, write):
        """Write output ``name`` of the run with ``write(path)``, then record it."""
        path = os.path.join(self.outdir, name)
        write(path)
        self.outputs.append(path)

    def csv(self, name, header, rows):
        self.output(name, lambda path: write_csv(path, header, rows))

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


def _ints(key, what, ok, syntax=None):
    """Parser of a comma-separated list of integers that ``ok`` accepts; the
    error names ``syntax`` (default ``what``) for text that is no such list
    and ``what`` for a list that ``ok`` rejects."""
    def parse(text):
        try:
            values = tuple(int(t) for t in text.split(","))
        except ValueError:
            raise ValueError("%s must be %s, got %r"
                             % (key, syntax or what, text)) from None
        if not ok(values):
            raise ValueError("%s must be %s, got %r" % (key, what, text))
        return values
    return parse


def _one_of(key, choices):
    def parse(text):
        if text not in choices:
            raise ValueError("%s must be one of %s, got %r" % (
                key, ", ".join(map(repr, choices)), text))
        return text
    return parse


# keys whose text a parser reads, in place of the type of their default
_PARSERS = {
    "b": _ints("b", "comma-separated nonnegative integers, at least one "
               "positive", lambda b: min(b) >= 0 and any(b),
               syntax="comma-separated integers"),
    "widths": _ints("widths", "comma-separated positive integers",
                    lambda w: min(w) >= 1),
    "dims": _ints("dims", "2 to 4 comma-separated positive integers",
                  lambda d: 2 <= len(d) <= 4 and min(d) >= 1),
    "task": _one_of("task", experiments.TASKS),
    "variant": _one_of("variant", VARIANTS + ("both",)),
}


def _convert(key, text, default):
    """The value of setting ``key`` from its text, a flag's or a config
    line's: by the key's parser, else by the type of its ``default``."""
    if key in _PARSERS:
        return _PARSERS[key](text)
    if isinstance(default, bool):
        if text.lower() not in _BOOLEANS:
            raise ValueError("%s must be one of true/false/yes/no/1/0, got %r"
                             % (key, text))
        return _BOOLEANS[text.lower()]
    if isinstance(default, (int, float)):
        try:
            return type(default)(text)
        except ValueError:
            raise ValueError("%s must be of type %s, got %r" % (
                key, type(default).__name__, text)) from None
    return text


def _load_config_file(path, defaults):
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = "%s:%d: " % (path, lineno)
            if "=" not in line:
                raise ValueError(where + "expected key=value")
            key, text = (t.strip() for t in line.split("=", 1))
            if key not in defaults:
                raise ValueError(where + "unknown key %r" % key)
            try:
                values[key] = _convert(key, text, defaults[key])
            except ValueError as exc:
                raise ValueError(where + str(exc)) from None
    return values


def _resolve(defaults, args):
    """defaults < config file < explicit flags, each text through ``_convert``."""
    cfg = dict(defaults)
    if args.config:
        cfg.update(_load_config_file(args.config, defaults))
    for key, default in defaults.items():
        text = getattr(args, key)
        if text is not None:
            cfg[key] = _convert(key, text, default)
    return cfg


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

def _keywords(driver, flags):
    """``{flag: parameter}`` of each keyword of ``driver`` with a default that
    a flag sets: the keyword's name unless ``flags`` renames it, or maps it
    to None for no flag."""
    params = inspect.signature(driver).parameters.values()
    return {flags.get(p.name, p.name): p for p in params
            if p.default is not p.empty and flags.get(p.name, p.name)}


def _settings(driver, flags):
    return {flag: p.default for flag, p in _keywords(driver, flags).items()}


def _call(driver, flags, cfg, **given):
    """``driver`` on the settings of ``cfg`` that set its keywords, and ``given``."""
    kwargs = {p.name: cfg[flag] for flag, p in _keywords(driver, flags).items()}
    return driver(**kwargs, **given)


MONOMIAL_DEFAULTS = {"b": (), "group": "", "csv": "", "outdir": ""}


def cmd_monomial(cfg, manifest):
    if not cfg["b"]:
        raise ValueError("missing setting b: comma-separated exponents, "
                         "e.g. --b 1,1,2,4")
    m = Monomial(cfg["b"])
    if cfg["group"] and cfg["csv"]:  # the blocks have no single atom list
        raise ValueError("--group cannot be used with --csv")
    names = ["t%d" % (j + 1) for j in range(m.n_vars)]
    bounds = "bounds: lower=%d upper=%d" % dc_atom_bounds(m)

    def atom_str(atom, local_names):
        terms = []
        for c, nm in zip(atom.form, local_names):
            if c:
                terms.append("%+d*%s" % (c, nm))
        if atom.shift:
            terms.append("%+d" % atom.shift)
        body = " ".join(terms) if terms else "0"
        return "%s * (%s)^%d" % (atom.weight, body, atom.power)

    if cfg["group"]:
        dec = bdc_block_decompose(m, _parse_grouping(cfg["group"], m.n_vars))
        counts = "+".join(str(c) for c in dec.atom_counts)
        print("atoms=%d (%s) %s" % (dec.total_atoms, counts, bounds))
        for vars_, part in dec.parts:
            local = [names[j] for j in vars_]
            print("block {%s}:" % ",".join(local))
            for atom in part.atoms:
                print("  " + atom_str(atom, local))
    else:
        dec = polarize(m)
        print("atoms=%d %s" % (dec.n_atoms, bounds))
        print("atoms_merged=%d" % merge_proportional(dec).n_atoms)
        for atom in dec.atoms:
            print(atom_str(atom, names))

    ok, err = verify_identity(dec, m)
    print("max_rel_err=%r" % float(err))
    print("verify=%s" % ("pass" if ok else "fail"))
    if not ok:
        raise ValueError("identity verification failed (max_rel_err=%r)" % float(err))
    if cfg["csv"]:  # only atoms that verified
        manifest.output(cfg["csv"], lambda path: atoms_to_csv(dec, path))


# the flags of the SDL drivers' renamed keywords; the two share the rest
SDL_FLAGS = {"n_outer": "iters", "n_seeds": "seeds", "variants": None}
GD_FLAGS = {"n_outer": "gd_iters", "n_seeds": "gd_seeds"}
SDL_DEFAULTS = {
    **_settings(experiments.run_sdl_experiment, SDL_FLAGS),
    "variant": "both", "compare_gd": False,
    **_settings(experiments.run_sdl_gd_comparison, GD_FLAGS), "outdir": "",
}


def cmd_sdl(cfg, manifest):
    variants = VARIANTS if cfg["variant"] == "both" else (cfg["variant"],)
    if cfg["compare_gd"]:  # the GD comparison's checks, before the main sweep
        # the sizes first, in the order run_sdl_experiment checks them
        for key in ("m", "l", "n"):
            count(key, cfg[key], 1)
        check_lq_q(cfg["q"], cfg["l"])  # it always runs the l1_lq penalty
        for key, low in (("gd_iters", 0), ("gd_seeds", 1)):
            count(key, cfg[key], low)

    res = _call(experiments.run_sdl_experiment, SDL_FLAGS, cfg, variants=variants)

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

    manifest.csv("sdl_rec_errors.csv", *table(res.rec))
    manifest.csv("sdl_sparsities.csv",
                 *table(res.sparsity, extra=("true_sparsity", res.true_sparsity)))

    if cfg["compare_gd"]:
        rows = _call(experiments.run_sdl_gd_comparison, GD_FLAGS, cfg)
        manifest.csv(
            "sdl_gd_compare.csv", ["seed", "oracle_calls", "bdca_final", "gd_final"],
            [(r["seed"], r["oracle_calls"], r["bdca_final"], r["gd_final"]) for r in rows])


RELU_FLAGS = {"layer_dims": "widths", "n_classes": "classes"}
RELU_DEFAULTS = {
    **_settings(experiments.run_relu_experiment, RELU_FLAGS),
    "dump_trace": False, "save_params": False, "outdir": "",
}


def cmd_relu(cfg, manifest):
    res = _call(experiments.run_relu_experiment, RELU_FLAGS, cfg)
    seed = cfg["seed"]
    manifest.csv("relu_loss_seed%d.csv" % seed, ["k", "loss", "residual_upper"],
                 res.loss_rows)
    manifest.csv("relu_smoothness_seed%d.csv" % seed, ["logG", "logLhat", "t", "block"],
                 [(a, b, int(t), int(bl)) for a, b, t, bl in res.scatter_rows])
    if cfg["dump_trace"]:
        manifest.output("relu_trace_seed%d.csv" % seed, res.trace.write_csv)
    if cfg["save_params"]:
        final = res.problem.params(res.trace.final_theta)
        manifest.output("relu_params_seed%d.csv" % seed,
                        lambda path: relu_mod.save_params_csv(final, path))


TENSOR_DEFAULTS = {**_settings(experiments.run_tensor_experiment, {}), "outdir": ""}


def cmd_tensor(cfg, manifest):
    rows, per_update, _, _ = _call(experiments.run_tensor_experiment, {}, cfg)
    manifest.csv("tensor_trace.csv", ["sweep", "objective", "rel_error"], rows)
    manifest.payload["final_rel_error"] = rows[-1][2]
    manifest.payload["stalled"] = experiments.tensor_stalled(rows, cfg["noise"])
    # internal gate: exact block minimization must never increase the objective
    if np.any(np.diff(per_update) > 1e-9 * (1.0 + np.abs(per_update[:-1]))):
        raise ValueError("objective increased during a block update")


PLAN_RHO_DEFAULTS = {
    "G": 1.0, "R": 0.0, "ell_a": 1.0, "ell_c": 0.0, "outdir": "",
}


def cmd_plan_rho(cfg, manifest):
    for key in ("ell_a", "ell_c"):
        at_least(key, cfg[key], 0)
    ell = lambda u: cfg["ell_a"] + cfg["ell_c"] * u  # ell_c = 0: constant
    plan = plan_rho(ell, cfg["G"], cfg["R"])
    print("E=%r" % float(plan.E))
    print("L_eff=%r" % float(plan.L_eff))
    print("rho_min=%r" % float(plan.rho_min))


# ---------------------------------------------------------------------------

# subcommand: (help line, settings and their defaults, run)
COMMANDS = {
    "monomial": ("decompositions and atom bounds", MONOMIAL_DEFAULTS,
                 cmd_monomial),
    "sdl": ("sparse dictionary learning experiment", SDL_DEFAULTS, cmd_sdl),
    "relu": ("toy split-network training", RELU_DEFAULTS, cmd_relu),
    "tensor": ("alternating least-squares factorization", TENSOR_DEFAULTS,
               cmd_tensor),
    "plan-rho": ("gradient-bound and proximal-weight planner",
                 PLAN_RHO_DEFAULTS, cmd_plan_rho),
}

# the help lines of the flags that have one
_HELP = {
    "b": "comma-separated exponents, e.g. 1,1,2,4",
    "group": "variable groups, 1-based, e.g. 1,2|3,4",
    "csv": "export atoms to this CSV file",
    "compare_gd": "also run the joint gradient-descent baseline",
    "dump_trace": "also write the per-iteration solver trace",
    "save_params": "checkpoint the trained parameters as CSV",
}


def build_parser():
    """One subparser per ``COMMANDS`` entry, with ``--config`` and one flag
    per setting, each kept as text for ``_convert``; a boolean flag given
    bare reads ``true``.  A flag is spelled in full, as its config key is."""
    parser = argparse.ArgumentParser(
        prog="bdc", description="block difference-of-convex toolkit")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, defaults, _) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_line, allow_abbrev=False)
        sub.add_argument("--config", help="flat key=value config file")
        for key, default in defaults.items():
            switch = dict(nargs="?", const="true") if isinstance(default, bool) else {}
            sub.add_argument("--" + key.replace("_", "-"), dest=key,
                             help=_HELP.get(key), **switch)
    return parser


def main(argv=None):
    """Run one subcommand; returns the exit status.

    ``main`` resolves the settings, starts the manifest, calls the
    subcommand with the resolved config and closes the manifest.  A
    ``ValueError`` or ``OSError`` on the way, from a setting's text, the
    config file, a range check or a subcommand's own gate, becomes exit 1
    with one ``error:`` line and a "failed" manifest; when the settings do
    not resolve, that manifest records the flags as given, as text.
    Anything else propagates after the manifest is closed as "failed".  On
    success the manifest is closed as "complete" and each output path is
    printed.
    """
    args = build_parser().parse_args(argv)
    _, defaults, run = COMMANDS[args.command]
    manifest = Manifest(args.command)
    try:
        try:
            cfg = _resolve(defaults, args)
        except (ValueError, OSError):
            manifest.start(args.outdir, {key: text for key, text in vars(args).items()
                                         if isinstance(text, str) and key != "command"})
            raise
        manifest.start(cfg["outdir"], cfg)
        run(cfg, manifest)
    except (ValueError, OSError) as exc:
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
