import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bdcopt.blocks import BlockPartition, vector_from_csv_row, write_csv
from bdcopt.experiments import (run_relu_experiment, run_sdl_experiment,
                                run_tensor_experiment)
from bdcopt.model import (AffineBdcMap, SingletonConjugate, combine_linear,
                          conjugate_compose)
from bdcopt.monomials import (Monomial, bdc_block_decompose, polarize,
                              verify_identity)
from bdcopt.problems.cp import CpInstance
from bdcopt.problems.sdl import SdlInstance, sdl_synthetic
from bdcopt.problems.synthetic import QuadraticDcProblem
from bdcopt.relu import MlpParams
from bdcopt.solvers import (SolverConfig, bdca_step, compute_E, gap_L, rho_from,
                            substream)

NAN, INF = float("nan"), float("inf")


def quadratic():
    return QuadraticDcProblem.random(BlockPartition([2, 1]), np.random.default_rng(0))


@pytest.mark.parametrize("name, call", [
    ("tol", lambda: bdca_step(quadratic(), np.zeros(3), 0, tol=NAN)),
    ("rho", lambda: SolverConfig(n_iters=1, rho=INF)),
    ("inner_tol", lambda: SolverConfig(n_iters=1, inner_tol=NAN)),
    ("alpha", lambda: SdlInstance(*sdl_synthetic(4, 5, 6, 2, seed=0), alpha=INF)),
    ("G", lambda: compute_E(lambda u: 1.0, INF)),
    ("tol", lambda: verify_identity(polarize(Monomial((1, 1))), Monomial((1, 1)),
                                    tol=NAN)),
    ("L", lambda: gap_L(quadratic(), np.zeros(3), np.ones(3), NAN)),
    ("L", lambda: gap_L(quadratic(), np.zeros(3), np.ones(3), INF)),
    ("E", lambda: rho_from(NAN, 1.0, 0.0)),
    ("E", lambda: rho_from(INF, 1.0, 0.0)),
    ("weight 1 must be finite, got nan",
     lambda: combine_linear([quadratic(), quadratic()], [1.0, NAN])),
    ("weight 1 must be finite, got inf",
     lambda: combine_linear([quadratic(), quadratic()], [1.0, INF])),
], ids=["bdca_step", "config_rho", "config_inner_tol", "sdl_alpha", "compute_E",
        "verify_identity", "gap_L_nan", "gap_L_inf", "rho_from_nan", "rho_from_inf",
        "combine_linear_nan", "combine_linear_inf"])
def test_library_entries_reject_non_finite_settings(name, call):
    with pytest.raises(ValueError, match=name):
        call()


SMALL_SDL = dict(n_outer=1, n_seeds=1, variants=("l1_lq",))
SMALL_RELU = dict(layer_dims=(4,), n_data=20, epochs=1)


@pytest.mark.parametrize("name, value, call", [
    ("n_outer", 1.5, lambda: run_sdl_experiment(**dict(SMALL_SDL, n_outer=1.5))),
    ("Q", 2.5, lambda: run_sdl_experiment(**SMALL_SDL, q=2.5)),
    ("inner_x", 2.5, lambda: run_sdl_experiment(**SMALL_SDL, inner_x=2.5)),
    ("epochs", 1.5, lambda: run_relu_experiment(**dict(SMALL_RELU, epochs=1.5))),
    ("rank", 2.5, lambda: run_tensor_experiment(rank=2.5)),
    ("dims[1]", 4.5, lambda: run_tensor_experiment(dims=(3, 4.5, 5))),
    ("layer_dims[0]", 4.5, lambda: run_relu_experiment(
        **dict(SMALL_RELU, layer_dims=(4.5,)))),
    ("stride", 2.5, lambda: run_relu_experiment(**SMALL_RELU, stride=2.5)),
    ("inner_budget", 2.5, lambda: run_relu_experiment(**SMALL_RELU, inner_budget=2.5)),
    ("n_iters", 2.5, lambda: SolverConfig(n_iters=2.5)),
    ("n_iters", 2.0, lambda: SolverConfig(n_iters=2.0)),
    ("block dimensions[1]", 2.0, lambda: BlockPartition([3, 2.0])),
    ("trials", 5.0, lambda: verify_identity(polarize(Monomial((1, 1))),
                                            Monomial((1, 1)), trials=5.0)),
    ("seed", 0.5, lambda: substream(0.5, "data")),
], ids=["sdl_n_outer", "sdl_q", "sdl_inner_x", "relu_epochs", "tensor_rank",
        "tensor_dims", "relu_layer_dims",
        "relu_stride", "relu_inner_budget", "config_n_iters", "config_n_iters_whole",
        "partition_whole", "verify_trials", "substream_seed"])
def test_counts_must_be_integers(name, value, call):
    """Every count goes through one rule: a value that is not an integer
    raises, named, before it can fail elsewhere or be truncated."""
    with pytest.raises(ValueError, match="^%s must be an integer, got %s$"
                       % (re.escape(name), re.escape(repr(value)))):
        call()


def layer(rows, cols):
    return np.ones((rows, cols)), np.zeros(rows)


def sdl_data(**changes):
    Y, D, X = sdl_synthetic(4, 5, 6, 2, seed=0)
    return dict(dict(Y=Y, D=D, X=X), **changes)


MALFORMED = [
    ("mlp_one_layer", lambda: MlpParams([layer(2, 3)]),
     "need at least two layers"),
    ("mlp_bias_shape", lambda: MlpParams([(np.ones((2, 3)), np.zeros(3)),
                                          layer(1, 2)]),
     "layer 0 has inconsistent shapes"),
    ("mlp_chain", lambda: MlpParams([layer(2, 3), layer(1, 4)]),
     "layer 1 input dim does not chain"),
    ("mlp_with_vector", lambda: MlpParams([layer(2, 3), layer(1, 2)]).with_vector(
        np.zeros(12)), "vector length does not match parameter count: got 12, need 11"),
    ("mlp_with_vector_short", lambda: MlpParams([layer(2, 3), layer(1, 2)]).with_vector(
        np.zeros(5)), "vector length does not match parameter count: got 5, need 11"),
    ("combine_linear", lambda: combine_linear([quadratic(), quadratic()], [1.0]),
     "one weight per problem required"),
    ("affine_map_width", lambda: AffineBdcMap(BlockPartition([2, 1]),
                                              np.ones((2, 4))),
     "matrix width must match partition dimension"),
    ("conjugate_bounds", lambda: conjugate_compose(
        AffineBdcMap(BlockPartition([2, 1]), np.ones((2, 3))),
        SingletonConjugate(np.zeros(2)), (np.zeros(3), np.ones(2))),
     "one (lower, upper) pair per map component required"),
    ("sdl_variant", lambda: SdlInstance(**sdl_data(), variant="l2"),
     "variant must be one of ('l1', 'l1_lq')"),
    ("sdl_shapes", lambda: SdlInstance(**sdl_data(X=np.zeros((5, 7)))),
     "inconsistent Y/D/X shapes"),
    ("sdl_column_norm", lambda: SdlInstance(**sdl_data(D=np.eye(4, 5) * 1.01)),
     "dictionary columns must satisfy ||d_j|| <= 1"),
    ("cp_factor_shape", lambda: CpInstance(
        tensor=np.zeros((3, 4, 5)), rank=2,
        factors=[np.zeros((3, 2)), np.zeros((5, 2)), np.zeros((5, 2))]),
     "factor 1 has shape (5, 2), want (4, 2)"),
    ("cp_tensor_nan", lambda: CpInstance(
        tensor=np.where(np.arange(60).reshape(3, 4, 5) == 27, NAN, 0.0), rank=2,
        factors=[np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((5, 2))]),
     "tensor must be finite, got nan at index (1, 1, 2)"),
    ("cp_factor_inf", lambda: CpInstance(
        tensor=np.zeros((3, 4, 5)), rank=2,
        factors=[np.zeros((3, 2)), np.zeros((4, 2)),
                 np.where(np.arange(10).reshape(5, 2) == 7, -INF, 0.0)]),
     "factor 2 must be finite, got -inf at index (3, 1)"),
    ("least_squares_width", lambda: QuadraticDcProblem(
        BlockPartition([2, 1]), np.ones((4, 2)), np.zeros(4)),
     "A width must match partition dimension"),
    ("group_index", lambda: bdc_block_decompose(Monomial((1, 2)), [[0], [2]]),
     "group index out of range"),
    ("monomial_fraction", lambda: Monomial((1.5, 2)),
     "exponents[0] must be an integer, got 1.5"),
    ("partition_fraction", lambda: BlockPartition([2.7, 3]),
     "block dimensions[0] must be an integer, got 2.7"),
]


@pytest.mark.parametrize("call, message", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_library_entries_reject_malformed_input(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_partition_invariants():
    part = BlockPartition([2, 3, 1])
    assert part.total_dim == 6
    assert part.n_blocks == 3
    assert part.offsets == (0, 2, 5, 6)
    assert part.slice_of(1) == slice(2, 5)
    with pytest.raises(IndexError):
        part.slice_of(3)


def test_partition_rejects_bad_dims():
    with pytest.raises(ValueError):
        BlockPartition([])
    with pytest.raises(ValueError):
        BlockPartition([2, 0, 1])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
       st.integers(0, 2 ** 31 - 1))
def test_extraction_covers_vector(dims, seed):
    part = BlockPartition(dims)
    data = np.random.default_rng(seed).standard_normal(part.total_dim)
    stitched = np.concatenate([data[part.slice_of(i)] for i in range(part.n_blocks)])
    np.testing.assert_array_equal(stitched, data)


def test_csv_row_round_trip(tmp_path):
    x = np.array([1.0, -2.5, 1e-17, np.pi])
    path = write_csv(tmp_path / "row.csv", ["a", "b", "c", "d"], [x])
    header, row = path.read_text().split("\n")[:2]
    assert header == "a,b,c,d" and path.read_text().endswith(row + "\n")
    np.testing.assert_array_equal(vector_from_csv_row(row), x)


def test_write_csv_format(tmp_path):
    path = write_csv(tmp_path / "t.csv", ["i", "n", "x"],
                     [(3, np.int64(-2), 0.1), (0, 1, np.float64(2.0))])
    assert path.read_text() == "i,n,x\n3,-2,0.1\n0,1,2.0\n"
    assert write_csv(tmp_path / "e.csv", ["k"], []).read_text() == "k\n"
