"""The two data shapes, their analysis passes and the correctness checks.

A shape is a model spec from ``fixtures/`` plus a seeded generator. The
benchmark times calls into covglm's public functions from here; every
check below compares outputs against invariants that hold for any seed,
and ``golden.py`` adds exact reference values for the golden cases.
"""

import warnings
from dataclasses import dataclass

import numpy as np

import datagen
import pinned
from covglm import (
    anova,
    anova_dispersion,
    joint_multiple_comparisons,
    load_fit,
    load_model_spec,
    manova,
    manova_dispersion,
    multiple_comparisons,
    parse_hypothesis,
    wald_test,
)
from covglm.report import render_report
from tracing import maybe_span as _span

ROOT = pinned.ROOT
LHT_ROWS = ("beta11 = 0", "beta21 = 0")


@dataclass(frozen=True)
class Shape:
    name: str
    generate: object  # (seed, tiny) -> Dataset
    effects: tuple  # factors compared by the multiple-comparison tables
    disp_names: tuple  # one dispersion table row per matrix-predictor term

    @property
    def spec(self):
        return load_model_spec(ROOT / "fixtures" / f"{self.name}_model.json")


SHAPES = {
    "hunting": Shape(
        name="hunting",
        generate=lambda seed, tiny: datagen.hunting_data(seed, 48 if tiny else 300),
        effects=("METHOD", "SEX"),
        disp_names=("tau0", "tau1"),
    ),
    "soya": Shape(
        name="soya",
        generate=lambda seed, tiny: datagen.soya_data(seed, 2 if tiny else 5),
        effects=("water", "pot"),
        disp_names=("tau0",),
    ),
}


def analysis_pass(shape, path, data, tracer=None):
    """Load a fit and run every table of the published analyses on it.

    Returns (loaded model, every Wald statistic in table order, lht result,
    rendered report).
    """
    with _span(tracer, "serialize.load_fit"):
        model = load_fit(path)
    n_resp = model.n_responses
    tables = []
    with _span(tracer, "tables.anova"):
        for kind in (1, 2, 3):
            tables.extend(anova(model, kind))
    with _span(tracer, "tables.manova"):
        for kind in (1, 2, 3):
            tables.append(manova(model, kind))
    groups = list(range(len(shape.disp_names)))
    per_response = [[f"tau{r + 1}{g}" for g in groups] for r in range(n_resp)]
    with _span(tracer, "tables.dispersion"):
        tables.extend(anova_dispersion(model, [groups] * n_resp, per_response))
        tables.append(manova_dispersion(model, groups, list(shape.disp_names)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an unobserved combination is a bug here
        with _span(tracer, "multcomp.per_response"):
            tables.extend(
                multiple_comparisons(model, [list(shape.effects)] * n_resp, data)
            )
        with _span(tracer, "multcomp.joint"):
            tables.append(joint_multiple_comparisons(model, list(shape.effects), data))
    with _span(tracer, "wald.lht"):
        hypothesis = parse_hypothesis(list(LHT_ROWS), model)
        lht = wald_test(model, hypothesis)
    with _span(tracer, "report.render"):
        report = render_report(tables)
    stats = [row.statistic for table in tables for row in table.rows]
    stats.append(lht.statistic)
    return model, stats, (hypothesis, lht), report


def fit_problems(model):
    """What is wrong with a fitted model, as short strings (empty if valid).

    The Godambe checks mirror the test suite's ``assert_valid_godambe``:
    symmetric to 1e-8, positive diagonal, smallest eigenvalue >= -1e-8.
    """
    problems = []
    if not model.converged:
        problems.append(f"did not converge in {model.iterations} iterations")
    values = (model.beta_hat, model.lambda_hat.flatten(), model.joint_inverse)
    if not all(np.isfinite(v).all() for v in values):
        problems.append("non-finite estimates or covariance")
        return problems
    j = model.godambe_inv
    if not np.allclose(j, j.T, atol=1e-8):
        problems.append("godambe_inv is not symmetric")
    if not np.diag(j).min() > 0:
        problems.append("godambe_inv has a non-positive diagonal entry")
    if np.linalg.eigvalsh(0.5 * (j + j.T)).min() < -1e-8:
        problems.append("godambe_inv is not positive semi-definite")
    return problems


def pass_problems(saved, loaded, stats, lht, report):
    """Checks on one analysis pass against the model that was saved."""
    problems = []
    if not (
        np.array_equal(saved.beta_hat, loaded.beta_hat)
        and np.array_equal(saved.joint_inverse, loaded.joint_inverse)
    ):
        problems.append("load_fit did not return the saved arrays bit for bit")
    if not all(np.isfinite(s) and s >= 0 for s in stats):
        problems.append("a Wald statistic is negative or not finite")
    hypothesis, result = lht
    gap = hypothesis.L @ loaded.theta_star - hypothesis.c
    middle = hypothesis.L @ loaded.godambe_inv @ hypothesis.L.T
    expected = float(gap @ np.linalg.solve(middle, gap))
    if abs(result.statistic - expected) > 1e-8 * max(1.0, abs(expected)):
        problems.append(
            f"lht statistic {result.statistic!r} differs from direct "
            f"computation {expected!r}"
        )
    if not 0.0 <= result.p_value <= 1.0:
        problems.append("lht p-value outside [0, 1]")
    if "Call:" not in report:
        problems.append("rendered report has no table")
    return problems


def golden_values(model, stats=None):
    """The values compared against golden references, as plain lists."""
    values = {
        "beta_hat": model.beta_hat.tolist(),
        "lambda_hat": model.lambda_hat.flatten().tolist(),
        "joint_inverse_diag": np.diag(model.joint_inverse).tolist(),
    }
    if stats is not None:
        values["wald"] = [float(s) for s in stats]
    return values
