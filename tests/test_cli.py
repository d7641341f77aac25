import argparse
import dataclasses
import inspect
import json
import os
import shlex
import subprocess
from pathlib import Path

import numpy as np
import pytest

import bdcopt
from bdcopt import cli, experiments
from bdcopt.cli import (GD_FLAGS, MONOMIAL_DEFAULTS, PLAN_RHO_DEFAULTS,
                        RELU_DEFAULTS, SDL_DEFAULTS, TENSOR_DEFAULTS,
                        build_parser, main)
from bdcopt.relu import load_params_csv


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def reject(constant):
    raise ValueError("non-standard JSON constant %s" % constant)


def run_failing(argv, capsys, tmp_path):
    """Run a command that must fail: exit 1, one ``error:`` line, a
    ``failed`` manifest in strict JSON that holds the same error, and no
    CSV.  Returns the printed output, the error and the manifest."""
    code, out, err = run_cli([*argv, "--outdir", str(tmp_path)], capsys)
    assert code == 1
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    text = (tmp_path / ("%s_manifest.json" % argv[0])).read_text()
    manifest = json.loads(text, parse_constant=reject)
    assert manifest["status"] == "failed"
    assert manifest["error"] == lines[0][len("error: "):]
    assert not list(tmp_path.glob("*.csv"))
    return out, manifest["error"], manifest


class TestMonomialCommand:
    def test_bounds_line(self, capsys, tmp_path):
        """Both decompositions print their atom count beside the whole-vector
        DC bounds, so a grouping gives the bounds of a monomial too large to
        polarize."""
        for argv, first in (
                (["--b", "1,1,2,4"], "atoms=30 bounds: lower=30 upper=30"),
                (["--b", "8,8,8,8", "--group", "1|2|3|4"],
                 "atoms=4 (1+1+1+1) bounds: lower=729 upper=3280")):
            code, out, _ = run_cli(["monomial", *argv, "--outdir", str(tmp_path)],
                                   capsys)
            assert code == 0
            assert out.splitlines()[0] == first

    def test_grouped_atom_count(self, capsys, tmp_path):
        code, out, _ = run_cli(["monomial", "--b", "1,1,2,4", "--group", "1,2|3,4",
                                "--outdir", str(tmp_path)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "atoms=9 (2+7) bounds: lower=30 upper=30"
        assert lines[-1] == "verify=pass"

    def test_verify_passes(self, capsys, tmp_path):
        code, out, _ = run_cli(["monomial", "--b", "1,1",
                                "--outdir", str(tmp_path)], capsys)
        assert code == 0
        assert out.splitlines()[-2].startswith("max_rel_err=")
        assert out.splitlines()[-1] == "verify=pass"

    def test_csv_export(self, capsys, tmp_path):
        code, out, _ = run_cli(["monomial", "--b", "2,4", "--csv", "atoms.csv",
                                "--outdir", str(tmp_path)], capsys)
        assert code == 0
        lines = (tmp_path / "atoms.csv").read_text().splitlines()
        assert lines[0] == "weight_num,weight_den,u_1,u_2,kappa,power"
        assert len(lines) == 8  # header + 7 atoms

    def test_bad_group_is_error(self, capsys, tmp_path):
        groups = ("1|1", "1,x", "1|2|", "1|3", "0|1")
        errors = [run_failing(["monomial", "--b", "1,1", "--group", group],
                              capsys, tmp_path)[1] for group in groups]
        assert errors == ["groups must be disjoint"] + [
            "group must be |-separated lists of 1-based indices, got %r" % group
            for group in ("1,x", "1|2|")] + [
            "group index out of range in '3'", "group index out of range in '0'"]

    def test_merged_count_reported_separately(self, capsys, tmp_path):
        code, out, _ = run_cli(["monomial", "--b", "2,4",
                                "--outdir", str(tmp_path)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["atoms=7 bounds: lower=5 upper=7", "atoms_merged=6"]
        assert len(lines) == 2 + 7 + 2  # the counts, the atoms, the check

    def test_group_with_csv_is_one_line_error(self, capsys, tmp_path):
        # the blocks have no single atom list to export
        out, error, _ = run_failing(["monomial", "--b", "2,2", "--group", "1|2",
                                     "--csv", "atoms.csv"], capsys, tmp_path)
        assert out == ""
        assert error == "--group cannot be used with --csv"

    @pytest.mark.parametrize("key", ["bounds", "verify", "merged_count"])
    def test_deleted_settings_are_unknown(self, capsys, tmp_path, key):
        with pytest.raises(SystemExit) as exc:
            main(["monomial", "--b", "2,2", "--" + key.replace("_", "-"),
                  "--outdir", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        cfg = tmp_path / "run.cfg"
        cfg.write_text("%s=true\n" % key)
        _, error, _ = run_failing(["monomial", "--b", "2,2", "--config", str(cfg)],
                                  capsys, tmp_path)
        assert error == "%s:1: unknown key %r" % (cfg, key)

    def test_missing_exponents_are_one_line_error(self, capsys, tmp_path):
        out, error, manifest = run_failing(["monomial"], capsys, tmp_path)
        assert out == ""
        assert error == ("missing setting b: comma-separated exponents, "
                         "e.g. --b 1,1,2,4")
        assert manifest["config"]["b"] == []


class TestTensorCommand:
    def test_trace_and_manifest(self, capsys, tmp_path):
        code, _, _ = run_cli(["tensor", "--sweeps", "30",
                              "--outdir", str(tmp_path)], capsys)
        assert code == 0
        lines = (tmp_path / "tensor_trace.csv").read_text().splitlines()
        assert lines[0] == "sweep,objective,rel_error"
        assert len(lines) == 32
        manifest = json.loads((tmp_path / "tensor_manifest.json").read_text())
        assert manifest["status"] == "complete"
        assert manifest["outputs"] == ["tensor_trace.csv"]
        assert manifest["wall_s"] is not None
        assert manifest["final_rel_error"] == float(lines[-1].split(",")[2])
        assert manifest["stalled"] is False
        assert manifest["config"]["dims"] == [4, 5, 6]

    def test_monotone_sweep(self, capsys, tmp_path):
        code, _, _ = run_cli(["tensor", "--sweeps", "1", "--outdir", str(tmp_path)],
                             capsys)
        assert code == 0
        rows = np.genfromtxt(tmp_path / "tensor_trace.csv", delimiter=",",
                             names=True)
        assert rows["objective"][1] <= rows["objective"][0]


class TestReluCommand:
    def test_zero_epochs_header_only(self, capsys, tmp_path):
        code, _, _ = run_cli(["relu", "--epochs", "0", "--outdir", str(tmp_path)],
                             capsys)
        assert code == 0
        assert (tmp_path / "relu_loss_seed0.csv").read_text() == "k,loss,residual_upper\n"
        assert (tmp_path / "relu_smoothness_seed0.csv").read_text() == "logG,logLhat,t,block\n"

    def test_smoothness_scatter_columns(self, capsys, tmp_path):
        code, _, _ = run_cli(["relu", "--epochs", "2", "--n-data", "60",
                              "--widths", "6,4", "--stride", "2",
                              "--outdir", str(tmp_path)], capsys)
        assert code == 0
        rows = np.genfromtxt(tmp_path / "relu_smoothness_seed0.csv",
                             delimiter=",", names=True)
        assert set(rows.dtype.names) == {"logG", "logLhat", "t", "block"}
        assert rows.size > 0

    def test_dump_trace_writes_solver_columns(self, capsys, tmp_path):
        code, _, _ = run_cli(["relu", "--epochs", "1", "--n-data", "40",
                              "--widths", "5", "--dump-trace",
                              "--outdir", str(tmp_path)], capsys)
        assert code == 0
        header = (tmp_path / "relu_trace_seed0.csv").read_text().splitlines()[0]
        assert header == ("k,block,f,g_block,h_block,residual_upper,"
                          "step_norm,inner_iters")

    def test_save_params_round_trips(self, capsys, tmp_path):
        code, _, _ = run_cli(["relu", "--epochs", "1", "--n-data", "40",
                              "--widths", "5", "--save-params",
                              "--outdir", str(tmp_path)], capsys)
        assert code == 0
        params = load_params_csv(tmp_path / "relu_params_seed0.csv")
        assert [W.shape for W, _ in params.layers] == [(5, 2), (3, 5)]


    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_batch_size_with_theory_preset_is_one_line_error(
            self, capsys, tmp_path, value):
        _, error, _ = run_failing(["relu", "--theory-preset", "--batch-size", value],
                                  capsys, tmp_path)
        assert error == "batch_size must be >= 1, got %s" % value

    @pytest.mark.parametrize("flags, message", [
        (["--stride", "-5"], "stride must be >= 0, got -5"),
        (["--rho", "nan", "--theory-preset"], "rho must be >= 0, got nan"),
    ], ids=["negative_stride", "nan_rho_with_preset"])
    def test_bad_stride_or_delta_fails_before_any_solve(
            self, capsys, tmp_path, flags, message):
        assert run_failing(["relu", *flags], capsys, tmp_path)[1] == message


class TestSdlCommand:
    def test_small_run_outputs(self, capsys, tmp_path):
        code, _, _ = run_cli(["sdl", "--iters", "15", "--seeds", "2",
                              "--outdir", str(tmp_path)], capsys)
        assert code == 0
        rec = np.genfromtxt(tmp_path / "sdl_rec_errors.csv", delimiter=",", names=True)
        spars = np.genfromtxt(tmp_path / "sdl_sparsities.csv", delimiter=",", names=True)
        assert rec.size == 16
        for col in ("rec_errors_L1", "rec_errors_LQ", "lower_minmax_L1",
                    "upper_2sd_LQ"):
            assert col in rec.dtype.names
        assert "true_sparsity" in spars.dtype.names
        assert spars["true_sparsity"][0] == pytest.approx(0.84375)

    def test_single_variant(self, capsys, tmp_path):
        code, _, _ = run_cli(["sdl", "--iters", "5", "--seeds", "1",
                              "--variant", "l1", "--outdir", str(tmp_path)], capsys)
        assert code == 0
        rec = np.genfromtxt(tmp_path / "sdl_rec_errors.csv", delimiter=",", names=True)
        assert "rec_errors_L1" in rec.dtype.names
        assert "rec_errors_LQ" not in rec.dtype.names

    def test_compare_gd_writes_summary(self, capsys, tmp_path):
        code, _, _ = run_cli(["sdl", "--iters", "5", "--seeds", "1",
                              "--gd-iters", "5", "--gd-seeds", "2",
                              "--compare-gd", "--outdir", str(tmp_path)], capsys)
        assert code == 0
        rows = np.genfromtxt(tmp_path / "sdl_gd_compare.csv", delimiter=",", names=True)
        assert set(rows.dtype.names) == {"seed", "oracle_calls", "bdca_final", "gd_final"}
        assert rows.size == 2

    @pytest.mark.parametrize("flag,value,message", [
        ("--q", "40", "Q must lie in [1, l] for the l1_lq variant, got Q=40 with l=32"),
        ("--alpha", "-1", "alpha must be >= 0, got -1.0"),
    ])
    def test_bad_q_or_alpha_is_one_line_error(self, capsys, tmp_path, flag, value,
                                              message):
        _, error, _ = run_failing(["sdl", "--iters", "2", "--seeds", "1", flag, value],
                                  capsys, tmp_path)
        assert error == message

    def test_zero_inner_budget_is_one_line_error(self, capsys, tmp_path):
        _, error, _ = run_failing(["sdl", "--inner-x", "0", "--inner-d", "0",
                                   "--iters", "3", "--seeds", "1", "--variant", "l1"],
                                  capsys, tmp_path)
        assert error == "inner_x must be >= 1, got 0"

    def test_compare_gd_checks_q_before_the_l1_sweep(self, capsys, tmp_path):
        _, error, _ = run_failing(["sdl", "--variant", "l1", "--compare-gd",
                                   "--q", "40"], capsys, tmp_path)
        assert "Q=40 with l=32" in error


class TestManifestLifecycle:
    def read(self, path):
        return json.loads(path.read_text())

    def test_failure_after_start_is_recorded(self, capsys, tmp_path):
        _, _, manifest = run_failing(["sdl", "--alpha", "-1"], capsys, tmp_path)
        assert manifest["wall_s"] is not None

    def test_non_finite_config_is_strict_json(self, capsys, tmp_path):
        _, _, manifest = run_failing(["sdl", "--alpha", "nan"], capsys, tmp_path)
        assert manifest["config"]["alpha"] == "nan"

    def test_failed_verify_gate_is_not_complete(self, capsys, tmp_path, monkeypatch):
        # a decomposition that is really wrong: the exact one without its last
        # atom; run_failing checks that no atom CSV is written
        polarize = cli.polarize
        monkeypatch.setattr(cli, "polarize", lambda m: dataclasses.replace(
            polarize(m), atoms=polarize(m).atoms[:-1]))
        out, error, manifest = run_failing(["monomial", "--b", "2,4", "--csv",
                                            "atoms.csv"], capsys, tmp_path)
        err_line, verdict = out.splitlines()[-2:]
        assert err_line.startswith("max_rel_err=") and verdict == "verify=fail"
        assert error == ("identity verification failed (%s)" % err_line)
        assert float(err_line[len("max_rel_err="):]) > 1e-6  # verify_identity's tol
        assert manifest["wall_s"] is not None and manifest["outputs"] == []

    def test_success_lists_outputs(self, capsys, tmp_path):
        code, out, _ = run_cli(["monomial", "--b", "2,4", "--csv", "atoms.csv",
                                "--outdir", str(tmp_path)], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "wrote %s" % (tmp_path / "atoms.csv")
        manifest = self.read(tmp_path / "monomial_manifest.json")
        assert manifest["status"] == "complete" and "error" not in manifest
        assert manifest["config"]["b"] == [2, 4]
        assert manifest["outputs"] == ["atoms.csv"]
        assert manifest["wall_s"] is not None


class TestPlanRhoCommand:
    def test_constant_growth(self, capsys, tmp_path):
        for argv, want in (
                # ell_c defaults to 0, so ell(u) = ell_a: E = sqrt(2 ell_a G)
                (["--G", "2", "--ell-a", "3"], ("3.4641016151290387", "3.0", "6.0")),
                # L_eff * 2 (E + R) / E used to round below 2 L_eff here
                (["--G", "8.66639402116857", "--ell-a", "2.685929571083754"],
                 ("6.823096653912216", "2.685929571083754", "5.371859142167508"))):
            code, out, _ = run_cli(["plan-rho", *argv, "--outdir", str(tmp_path)],
                                   capsys)
            assert code == 0
            assert out.splitlines() == ["E=%s" % want[0], "L_eff=%s" % want[1],
                                        "rho_min=%s" % want[2]]
            assert float(want[2]) == 2 * float(want[1])

    def test_quadratic_growth_rejected(self, capsys, tmp_path):
        # an affine ell is subquadratic, but with this slope E lies beyond
        # what 2 ell(2u) G can reach before it overflows
        code, _, err = run_cli(["plan-rho", "--G", "1.0", "--ell-a", "1.0",
                                "--ell-c", "1e300", "--outdir", str(tmp_path)],
                               capsys)
        assert code == 1
        assert err.startswith("error: E exceeds the float range")
        assert "subquadratic" not in err

    def test_growth_mode_settings_are_gone(self, capsys, tmp_path):
        # one growth model: the mode and its constant are no flag and no key
        for flag in (["--ell", "constant"], ["--ell-l0", "3"]):
            with pytest.raises(SystemExit) as exc:
                main(["plan-rho", *flag, "--outdir", str(tmp_path)])
            assert exc.value.code == 2
        capsys.readouterr()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("ell=constant\n")
        _, error, _ = run_failing(["plan-rho", "--config", str(cfg)], capsys,
                                  tmp_path)
        assert error == "%s:1: unknown key 'ell'" % cfg

    @pytest.mark.parametrize("flags", [
        ["--ell-a", "0"],
        ["--ell-a", "0", "--ell-c", "0"],
    ], ids=["constant", "affine"])
    def test_zero_growth_is_one_line_error(self, capsys, tmp_path, flags):
        out, error, _ = run_failing(["plan-rho", *flags], capsys, tmp_path)
        assert out == ""
        assert error == "no positive solution: ell(0+) * G vanishes"

    def test_negative_R_is_one_line_error(self, capsys, tmp_path):
        out, error, _ = run_failing(["plan-rho", "--G", "2", "--R", "-1"], capsys,
                                    tmp_path)
        assert "rho_min" not in out
        assert error == "R must be >= 0, got -1.0"


class TestConfigPrecedence:
    def test_file_overrides_defaults_and_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sweeps=7\nrank=1\n")
        code, _, _ = run_cli(["tensor", "--config", str(cfg), "--rank", "2",
                              "--outdir", str(tmp_path)], capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "tensor_manifest.json").read_text())
        assert manifest["config"]["sweeps"] == 7   # from file
        assert manifest["config"]["rank"] == 2     # flag wins
        lines = (tmp_path / "tensor_trace.csv").read_text().splitlines()
        assert len(lines) == 9

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        code, _, err = run_cli(["tensor", "--config", str(cfg),
                                "--outdir", str(tmp_path)], capsys)
        assert code == 1
        assert "unknown key" in err

    @pytest.mark.parametrize("word,want", [("TRUE", True), ("Yes", True),
                                           ("1", True), ("no", False),
                                           ("False", False), ("0", False)])
    def test_boolean_words(self, word, want, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theory_preset=%s\nepochs=0\n" % word)
        for argv in (["--config", str(cfg)],
                     ["--theory-preset=" + word, "--epochs", "0"]):
            code, _, _ = run_cli(["relu", *argv, "--outdir", str(tmp_path)], capsys)
            assert code == 0
            manifest = json.loads((tmp_path / "relu_manifest.json").read_text())
            assert manifest["config"]["theory_preset"] is want
            assert manifest["config"]["widths"] == [16, 8]

    def test_switch_from_a_config_line_acts_as_the_flag(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dump_trace=yes\n")
        small = ["relu", "--epochs", "1", "--n-data", "40", "--widths", "5"]
        for name, given in (("flag", ["--dump-trace"]),
                            ("line", ["--config", str(cfg)])):
            code, _, _ = run_cli([*small, *given, "--outdir", str(tmp_path / name)],
                                 capsys)
            assert code == 0
        trace = "relu_trace_seed0.csv"
        assert ((tmp_path / "line" / trace).read_bytes()
                == (tmp_path / "flag" / trace).read_bytes())

    def test_bare_boolean_flag_reads_true(self, capsys, tmp_path):
        code, _, _ = run_cli(["relu", "--theory-preset", "--epochs", "0",
                              "--outdir", str(tmp_path)], capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "relu_manifest.json").read_text())
        assert manifest["config"]["theory_preset"] is True

    def test_misspelled_boolean_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=0\ntheory_preset=ture\n")
        code, _, err = run_cli(["relu", "--config", str(cfg),
                                "--outdir", str(tmp_path)], capsys)
        assert code == 1
        assert err.startswith("error: %s:2: theory_preset " % cfg)
        assert "'ture'" in err

    @pytest.mark.parametrize("config", ["missing.cfg", "."],
                             ids=["missing", "directory"])
    def test_unreadable_config_file_is_one_line_error(self, capsys, tmp_path,
                                                      config):
        path = str(tmp_path / config)
        _, error, manifest = run_failing(["tensor", "--config", path], capsys,
                                         tmp_path)
        assert path in error
        assert manifest["config"] == {"config": path, "outdir": str(tmp_path)}


@pytest.mark.parametrize("argv, message", [
    (["sdl", "--iters", "-1"], "n_outer must be >= 0, got -1"),
    (["sdl", "--seeds", "0"], "n_seeds must be >= 1, got 0"),
    (["sdl", "--k-nonzero", "0"], "k_nonzero must be >= 1, got 0"),
    (["sdl", "--compare-gd", "--gd-iters", "-1"], "gd_iters must be >= 0, got -1"),
    (["sdl", "--compare-gd", "--gd-seeds", "0"], "gd_seeds must be >= 1, got 0"),
    (["tensor", "--sweeps", "-2"], "sweeps must be >= 0, got -2"),
    (["tensor", "--rank", "0"], "rank must be >= 1, got 0"),
    (["relu", "--n-data", "0"], "n_data must be >= 1, got 0"),
    (["sdl", "--m", "0"], "m must be >= 1, got 0"),
    (["sdl", "--l", "0"], "l must be >= 1, got 0"),
    (["sdl", "--n", "0"], "n must be >= 1, got 0"),
    (["tensor", "--noise", "-0.1", "--sweeps", "40"],
     "noise must be >= 0, got -0.1"),
    (["tensor", "--noise", "nan"], "noise must be >= 0, got nan"),
    (["relu", "--epochs", "-1"], "epochs must be >= 0, got -1"),
    (["sdl", "--l", "0", "--compare-gd"], "l must be >= 1, got 0"),
    (["tensor", "--noise", "inf", "--sweeps", "2"], "noise must be finite, got inf"),
    (["relu", "--classes", "0"], "n_classes must be >= 2, got 0"),
    (["tensor", "--seed", "-1"], "seed must be >= 0, got -1"),
], ids=["sdl_iters", "sdl_seeds", "sdl_k_nonzero", "gd_iters", "gd_seeds",
        "tensor_sweeps", "tensor_rank", "relu_n_data", "sdl_m", "sdl_l",
        "sdl_n", "tensor_noise", "tensor_noise_nan", "relu_epochs", "gd_sdl_l",
        "tensor_noise_inf", "relu_classes", "tensor_seed"])
def test_bad_count_fails_before_any_solve(capsys, tmp_path, argv, message):
    out, error, _ = run_failing(argv, capsys, tmp_path)
    assert out == ""  # nothing printed: no atom, no progress line
    assert error == message


FLOAT_SETTINGS = [(argv, key) for argv, defaults in (
    (["monomial", "--b", "2,2"], MONOMIAL_DEFAULTS), (["sdl"], SDL_DEFAULTS),
    (["relu"], RELU_DEFAULTS), (["tensor"], TENSOR_DEFAULTS),
    (["plan-rho"], PLAN_RHO_DEFAULTS)) for key, value in defaults.items()
    if isinstance(value, float)]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("argv, key", FLOAT_SETTINGS,
                         ids=["%s-%s" % (argv[0], key) for argv, key in FLOAT_SETTINGS])
def test_non_finite_float_setting_fails_before_any_solve(capsys, tmp_path, argv,
                                                         key, value):
    flag = "--" + key.replace("_", "-")
    out, error, _ = run_failing([*argv, flag, value], capsys, tmp_path)
    assert out == ""
    assert key in error


WIDTHS = "widths must be comma-separated integers, got %r"
# text that does not parse: (command, key, text, message)
BAD_TEXT = [("relu", "widths", value, WIDTHS % value)
            for value in ("16,x", ",", "6,,4", "16,8,")] + [
    ("monomial", "b", "2,x", "b must be comma-separated integers, got '2,x'"),
    ("relu", "epochs", "two", "epochs must be of type int, got 'two'"),
    ("relu", "rho", "much", "rho must be of type float, got 'much'"),
    ("tensor", "rank", "2.5", "rank must be of type int, got '2.5'"),
    ("sdl", "alpha", "0.1.2", "alpha must be of type float, got '0.1.2'"),
    ("relu", "theory_preset", "ture",
     "theory_preset must be one of true/false/yes/no/1/0, got 'ture'"),
    ("sdl", "compare_gd", "maybe",
     "compare_gd must be one of true/false/yes/no/1/0, got 'maybe'"),
]
# text that parses to a value out of range, which the library entry that
# takes it rejects: (command, key, text, message, value as recorded)
OUT_OF_RANGE = [
    ("relu", "widths", "8,-3", "layer 2 has width -3; widths must be positive",
     [8, -3]),
    ("monomial", "b", "2,-1", "exponents must be nonnegative, got (2, -1)", [2, -1]),
    ("monomial", "b", "0,0",
     "monomial needs at least one positive exponent, got (0, 0)", [0, 0]),
    ("tensor", "dims", "4", "dims must be 2 to 4 positive mode sizes, got (4,)",
     [4]),
    ("relu", "task", "blob", "task must be one of 'blobs', 'sine', got 'blob'",
     "blob"),
    ("sdl", "variant", "l2",
     "variants must name one or more of 'l1', 'l1_lq', got ('l2',)", "l2"),
]
SETTING_CASES = [(*case, None) for case in BAD_TEXT] + OUT_OF_RANGE


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("command, key, text, message, value", SETTING_CASES,
                         ids=["%s-%s=%s" % case[:3] for case in SETTING_CASES])
def test_bad_setting_text_is_one_line_error(capsys, tmp_path, given, command,
                                            key, text, message, value):
    """A setting's text goes through one converter, from a flag or a config
    line alike.  Text that does not parse fails there: a config line's
    error adds its path and line number, and the manifest holds the flags
    as given.  Text that parses to a value out of range fails in the
    library, with one message either way, before anything is solved, and
    the manifest holds the resolved config."""
    if given == "flag":
        argv = [command, "--%s=%s" % (key.replace("_", "-"), text)]
        flags = {key: text}
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n%s=%s\n" % (key, text))
        argv = [command, "--config", str(cfg)]
        flags = {"config": str(cfg)}
        if value is None:
            message = "%s:2: %s" % (cfg, message)
    out, error, manifest = run_failing(argv, capsys, tmp_path)
    assert out == ""
    assert error == message
    if value is None:  # the settings never resolved
        assert manifest["config"] == dict(flags, outdir=str(tmp_path))
    else:
        assert manifest["config"] == dict(recorded_defaults(command),
                                          outdir=str(tmp_path), **{key: value})


def test_sdl_drivers_share_protocol_defaults():
    """The SDL settings that both drivers read (every keyword of the GD
    comparison but its renamed counts) have one default in both, so the
    CLI's one table of them feeds either driver its own protocol."""
    def defaults(fn):
        return {k: p.default for k, p in inspect.signature(fn).parameters.items()}

    sdl = defaults(experiments.run_sdl_experiment)
    gd = defaults(experiments.run_sdl_gd_comparison)
    shared = set(gd) - set(GD_FLAGS)
    assert shared and {k: sdl[k] for k in shared} == {k: gd[k] for k in shared}


TABLES = {"monomial": MONOMIAL_DEFAULTS, "sdl": SDL_DEFAULTS,
          "relu": RELU_DEFAULTS, "tensor": TENSOR_DEFAULTS,
          "plan-rho": PLAN_RHO_DEFAULTS}


def recorded_defaults(command):
    """The defaults of ``command`` as a manifest records them."""
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in TABLES[command].items()}


def test_every_flag_is_a_setting():
    """Each flag of a subcommand but ``--config`` is a key of its defaults
    table, so a config line sets it too and the manifest records it."""
    subs = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    assert set(subs.choices) == set(TABLES)
    for name, sub in subs.choices.items():
        flags = {flag for action in sub._actions for flag in action.option_strings}
        assert flags - {"-h", "--help", "--config"} == {
            "--" + key.replace("_", "-") for key in TABLES[name]}, name


def test_each_subcommand_has_its_pinned_settings():
    """Each subcommand's settings by name, so a new setting, or one that
    goes, shows up as an edit here."""
    assert {name: sorted(table) for name, table in TABLES.items()} == {
        "monomial": ["b", "csv", "group", "outdir"],
        "sdl": ["alpha", "compare_gd", "gd_iters", "gd_seeds", "inner_d",
                "inner_tol", "inner_x", "iters", "k_nonzero", "l", "m", "n",
                "outdir", "q", "seed", "seeds", "variant"],
        "relu": ["batch_size", "classes", "dump_trace", "epochs", "inner_budget",
                 "n_data", "outdir", "rho", "save_params", "seed", "stride",
                 "task", "theory_preset", "widths"],
        "tensor": ["dims", "noise", "outdir", "rank", "seed", "sweeps"],
        "plan-rho": ["G", "R", "ell_a", "ell_c", "outdir"],
    }


RECORDED = [
    (["monomial", "--b", "2,2", "--group", "1|2"], dict(b=[2, 2], group="1|2")),
    (["sdl", "--iters", "3", "--seeds", "1", "--gd-iters", "3", "--gd-seeds", "1",
      "--compare-gd"], dict(iters=3, seeds=1, gd_iters=3, gd_seeds=1,
                            compare_gd=True)),
    (["relu", "--epochs", "1", "--n-data", "40", "--widths", "5", "--dump-trace",
      "--save-params"], dict(epochs=1, n_data=40, widths=[5], dump_trace=True,
                             save_params=True)),
    (["tensor", "--dims", "3,4", "--sweeps", "2", "--noise", "0.5"],
     dict(dims=[3, 4], sweeps=2, noise=0.5)),
    (["plan-rho", "--G", "2", "--ell-c", "0.5"], dict(G=2.0, ell_c=0.5)),
]


@pytest.mark.parametrize("argv, given", RECORDED, ids=[argv[0] for argv, _ in RECORDED])
def test_manifest_records_every_setting(capsys, tmp_path, argv, given):
    code, _, _ = run_cli([*argv, "--outdir", str(tmp_path)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / ("%s_manifest.json" % argv[0])).read_text())
    assert manifest["config"] == dict(recorded_defaults(argv[0]),
                                      outdir=str(tmp_path), **given)
    assert "seeds" not in manifest  # the config holds the seeds


def test_readme_command_lines_parse(capsys, tmp_path):
    """Each ``bdc`` line of the README's command-line block parses, so
    renaming or removing a flag it shows fails here; a line whose comment
    claims ``-> <text>`` runs, and ``<text>`` must appear in its output."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("```sh\n", 1)[1]
    lines = [line for line in block.split("```", 1)[0].splitlines()
             if line.startswith("bdc ")]
    assert len(lines) >= 5
    parser = build_parser()
    claims = 0
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail("README line does not parse: %s" % line)
        comment = line.partition("#")[2]
        if "->" in comment:
            claims += 1
            code, out, _ = run_cli([*argv, "--outdir", str(tmp_path)], capsys)
            assert code == 0, line
            assert comment.partition("->")[2].strip() in out, line
    assert claims >= 3


@pytest.mark.parametrize("command", sorted(TABLES))
def test_flag_prefix_is_an_unknown_flag(capsys, tmp_path, command):
    """A flag is spelled in full, as its config key is: a prefix of a flag
    exits 2 with usage text and writes no manifest."""
    flags = ["--" + key.replace("_", "-") for key in TABLES[command]]
    parser = build_parser()
    for flag in flags:
        if len(flag) > 4 and flag[:-1] not in flags:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, flag[:-1], "1"])
            assert exc.value.code == 2, flag
    # were "--out" read as --outdir, the missing config file would fail the
    # run with exit 1 and a manifest in "out"
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(tmp_path / "missing.cfg"), "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_out_dir_env_override(capsys, tmp_path, monkeypatch):
    target = tmp_path / "redirected"
    monkeypatch.setenv("BDC_OUT_DIR", str(target))
    code = main(["tensor", "--sweeps", "3"])
    capsys.readouterr()
    assert code == 0
    assert (target / "tensor_trace.csv").exists()


def test_manifest_build_id_independent_of_working_directory(capsys, tmp_path,
                                                            monkeypatch):
    pkg_dir = os.path.dirname(os.path.abspath(bdcopt.__file__))
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=pkg_dir, capture_output=True, text=True,
                              timeout=5)
        want = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except OSError:
        want = "unknown"
    monkeypatch.chdir(tmp_path)
    assert main(["tensor", "--sweeps", "2", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "tensor_manifest.json").read_text())
    assert manifest["build"] == want


def test_manifest_records_numeric_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert main(["tensor", "--sweeps", "2", "--outdir", str(tmp_path)]) == 0
    assert main(["plan-rho", "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    for name in ("tensor_manifest.json", "plan-rho_manifest.json"):
        manifest = json.loads((tmp_path / name).read_text())
        assert manifest["environment"] == {
            "numpy": np.__version__, "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None,
            "cpu_count": os.cpu_count()}


def test_rerun_is_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["tensor", "--sweeps", "25", "--outdir", str(out)]) == 0
    capsys.readouterr()
    assert (a / "tensor_trace.csv").read_bytes() == (b / "tensor_trace.csv").read_bytes()
