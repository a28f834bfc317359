"""Multivariate covariance GLMs with Wald-based hypothesis testing.

Fits multi-response models with per-response link/variance functions and a
structured joint covariance by estimating functions, then tests the
resulting regression and dispersion parameters: general linear hypotheses,
ANOVA/MANOVA tables of types I-III, dispersion tables and Bonferroni
multiple comparisons.
"""

from .chisq import chisq_sf
from .covariance import DispersionVector
from .data import Dataset
from .design import DesignInfo, build_design, encode_combinations
from .errors import (
    CovglmError,
    DataError,
    DegenerateFactor,
    DomainError,
    FitFileError,
    FormulaSyntaxError,
    ModelSpecError,
    NotPositiveDefinite,
    OptionError,
    PredictorMismatch,
    RankError,
    SingularHypothesisError,
    UnknownParameterError,
)
from .estimator import (
    FitOptions,
    FittedModel,
    cross_blocks,
    fit,
    pearson_fn,
    quasi_score,
)
from .families import Link, VarianceFn, variance_eval
from .formula import Formula, parse_formula
from .model import (
    BoundModel,
    MatrixComponent,
    ModelSpec,
    ResponseSpec,
    bind,
    load_model_spec,
    parse_model_spec,
)
from .multcomp import (
    ContrastSet,
    contrast_set,
    joint_multiple_comparisons,
    multiple_comparisons,
    pairwise_contrasts,
)
from .serialize import load_fit, save_fit
from .tables import TestTable, anova, anova_dispersion, manova, manova_dispersion
from .wald import (
    Hypothesis,
    TestResult,
    parse_hypothesis,
    wald_statistic,
    wald_test,
)

__version__ = "0.1.0"

__all__ = [
    "BoundModel",
    "ContrastSet",
    "CovglmError",
    "DataError",
    "Dataset",
    "DegenerateFactor",
    "DesignInfo",
    "DispersionVector",
    "DomainError",
    "FitFileError",
    "FitOptions",
    "FittedModel",
    "Formula",
    "FormulaSyntaxError",
    "Hypothesis",
    "Link",
    "MatrixComponent",
    "ModelSpec",
    "ModelSpecError",
    "NotPositiveDefinite",
    "OptionError",
    "PredictorMismatch",
    "RankError",
    "ResponseSpec",
    "SingularHypothesisError",
    "TestResult",
    "TestTable",
    "UnknownParameterError",
    "VarianceFn",
    "anova",
    "anova_dispersion",
    "bind",
    "build_design",
    "chisq_sf",
    "contrast_set",
    "cross_blocks",
    "encode_combinations",
    "fit",
    "joint_multiple_comparisons",
    "load_fit",
    "load_model_spec",
    "manova",
    "manova_dispersion",
    "multiple_comparisons",
    "pairwise_contrasts",
    "parse_formula",
    "parse_hypothesis",
    "parse_model_spec",
    "pearson_fn",
    "quasi_score",
    "save_fit",
    "variance_eval",
    "wald_statistic",
    "wald_test",
]
