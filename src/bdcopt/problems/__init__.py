"""Concrete multi-block DC problems and their synthetic data generators."""

from .synthetic import QuadraticDcProblem, QuadraticMinusL1Problem
from .sdl import SdlInstance, SdlProblem, gd_baseline_sdl, lq_norm, lq_subgrad, sdl_synthetic
from .cp import CpInstance, CpProblem, cp_reconstruct
from .mlp import MlpTask, MlpTaskProblem, gaussian_blobs, sine_regression

__all__ = [
    "QuadraticDcProblem",
    "QuadraticMinusL1Problem",
    "SdlInstance",
    "SdlProblem",
    "sdl_synthetic",
    "gd_baseline_sdl",
    "lq_norm",
    "lq_subgrad",
    "CpInstance",
    "CpProblem",
    "cp_reconstruct",
    "MlpTask",
    "MlpTaskProblem",
    "sine_regression",
    "gaussian_blobs",
]
