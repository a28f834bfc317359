"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS line on success; the two dataset-gated
checks skip with an explicit message when the CSV exports described in
fixtures/README.md are not present.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    assert_valid_godambe,
    gaussian_spec,
    make_dataset,
    simulate_gaussian,
)
from covglm.chisq import chisq_sf
from covglm.data import Dataset
from covglm.estimator import fit
from covglm.model import load_model_spec
from covglm.multcomp import contrast_set, joint_multiple_comparisons, multiple_comparisons
from covglm.tables import anova, manova, anova_dispersion, manova_dispersion
from covglm.wald import parse_hypothesis, wald_statistic, wald_test

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _report(number, text):
    print(f"\nACCEPTANCE {number}: {text}: PASS")


# --------------------------------------------------------------------------
# 1. chi-square oracle


def test_criterion_1_chisq_oracle():
    triples = [
        (1.2362, 1, 0.2662),
        (3.5639, 2, 0.1683),
        (1.3491, 1, 0.2454),
        (22.5613, 1, 0.0),
        (5.8183, 1, 0.0159),
        (29.098, 2, 0.0),
    ]
    start = time.perf_counter()
    for w, df, expected in triples:
        assert abs(chisq_sf(w, df) - expected) < 5e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"chi-square tail oracle ({elapsed * 1e3:.1f} ms)")


# --------------------------------------------------------------------------
# 2. OLS/GLS reduction


def test_criterion_2_ols_reduction():
    start = time.perf_counter()
    for seed in range(5):
        data, design, y = simulate_gaussian(seed, n=100, p=3)
        model = fit(gaussian_spec("y ~ x1 + x2 + x3"), data)
        coefs = np.linalg.solve(design.T @ design, design.T @ y)
        rss = float(np.sum((y - design @ coefs) ** 2))
        tau = rss / len(y)
        assert model.converged
        assert np.max(np.abs(model.beta_hat - coefs)) < 1e-8
        assert abs(model.lambda_hat.tau[0][0] - tau) < 1e-8
        gram_inv = np.linalg.inv(design.T @ design)
        for j in range(1, 4):
            result = wald_test(model, parse_hypothesis([f"beta1{j} = 0"], model))
            closed_form = coefs[j] ** 2 / (tau * gram_inv[j, j])
            assert result.statistic == pytest.approx(closed_form, rel=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"closed-form least-squares reduction x5 ({elapsed:.2f} s)")


# --------------------------------------------------------------------------
# 3. degrees-of-freedom bookkeeping


def test_criterion_3_df_bookkeeping(factorial_fit):
    expected = {
        1: [19, 18, 14, 12, 8],
        2: [1, 4, 10, 12, 8],
        3: [1, 4, 2, 4, 8],
    }
    for kind, dfs in expected.items():
        for table in anova(factorial_fit, kind):
            assert [row.df for row in table.rows] == dfs
        joint = manova(factorial_fit, kind)
        assert [row.df for row in joint.rows] == [3 * v for v in dfs]
    _report(3, "ANOVA/MANOVA df columns (factorial layout)")


# --------------------------------------------------------------------------
# 4. published-table reproduction (dataset-gated)


def _load_fixture_fit(csv_name, spec_name):
    csv_path = FIXTURES / csv_name
    spec_path = FIXTURES / spec_name
    if not csv_path.exists() or not spec_path.exists():
        pytest.skip(
            f"dataset fixture {csv_name} not present; export it as described "
            "in fixtures/README.md to enable the published-value checks"
        )
    spec = load_model_spec(spec_path)
    data = Dataset.from_csv(csv_path, spec.column_types)
    return fit(spec, data), spec, data


@pytest.fixture(scope="module")
def soya_fit():
    model, _, _ = _load_fixture_fit("soya.csv", "soya_model.json")
    return model


@pytest.fixture(scope="module")
def hunting_case():
    return _load_fixture_fit("hunting.csv", "hunting_model.json")


def test_criterion_4_soya_type_two_block_row(soya_fit):
    grain = anova(soya_fit, 2)[0]
    block = grain.rows[1]
    assert block.label == "block"
    assert block.df == 4
    assert block.statistic == pytest.approx(14.3051, rel=0.01)
    assert block.p_value == pytest.approx(0.0064, abs=5e-4)
    _report(4, "soya ANOVA II block row")


def test_criterion_4_hunting_dispersion_and_multcomp(hunting_case):
    model, _, data = hunting_case
    disp = anova_dispersion(
        model, [[0, 1], [0, 1]], [["tau10", "tau11"], ["tau20", "tau21"]]
    )
    assert disp[0].rows[0].statistic == pytest.approx(22.5613, rel=0.01)
    joint_disp = manova_dispersion(model, [0, 1], ["tau0", "tau1"])
    assert joint_disp.rows[1].statistic == pytest.approx(124.2049, rel=0.01)
    joint = joint_multiple_comparisons(model, ["METHOD", "SEX"], data)
    by_label = {row.label: row for row in joint.rows}
    row = by_label["Escopeta:Female-Escopeta:Male"]
    assert row.df == 2
    assert row.statistic == pytest.approx(215.0490, rel=0.01)
    _report(4, "Hunting dispersion rows and joint comparison")


# --------------------------------------------------------------------------
# 5. Wald invariance property suite


def test_criterion_5_wald_properties():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        h = int(rng.integers(2, 9))
        s = int(rng.integers(1, min(h, 4) + 1))
        theta = rng.normal(size=h)
        basis = rng.normal(size=(h, h))
        j_inv = basis @ basis.T + h * np.eye(h)
        constraint = rng.normal(size=(s, h))
        rhs = rng.normal(size=s)
        w0, df = wald_statistic(theta, j_inv, constraint, rhs)
        assert df == s
        assert w0 >= 0.0
        # Row-transformation invariance.
        mix = rng.normal(size=(s, s)) + (s + 1) * np.eye(s)
        w1, _ = wald_statistic(theta, j_inv, mix @ constraint, mix @ rhs)
        assert abs(w1 - w0) <= 1e-8 * max(1.0, w0)
        # Zero exactly at the satisfied constraint.
        w2, _ = wald_statistic(theta, j_inv, constraint, constraint @ theta)
        assert w2 == 0.0
        # Additivity under a diagonal information matrix.
        diag = np.diag(rng.uniform(0.2, 3.0, size=h))
        picks = rng.choice(h, size=2, replace=False)
        rows = np.zeros((2, h))
        rows[0, picks[0]] = 1.0
        rows[1, picks[1]] = 1.0
        joint, _ = wald_statistic(theta, diag, rows, np.zeros(2))
        singles = sum(
            wald_statistic(theta, diag, rows[k : k + 1], np.zeros(1))[0]
            for k in range(2)
        )
        assert abs(joint - singles) <= 1e-8 * max(1.0, joint)
    _report(5, "200 randomized Wald property instances")


# --------------------------------------------------------------------------
# 6. derivative and information checks


def test_criterion_6_covariance_derivatives():
    from test_covariance import (
        _dense_derivatives,
        _finite_difference_derivs,
        _random_covariance_model,
    )

    rng = np.random.default_rng(99)
    cases = [(r, d) for r in (1, 2) for d in (1, 2) for _ in range(5)]
    assert len(cases) == 20
    for n_responses, n_z in cases:
        model, disp = _random_covariance_model(rng, n_responses, n_z)
        analytic = _dense_derivatives(model, disp)
        numeric = _finite_difference_derivs(model, disp, step=1e-6)
        for a, b in zip(analytic, numeric):
            denom = max(np.linalg.norm(b), 1e-12)
            assert np.linalg.norm(a - b) / denom < 1e-4
    _report(6, "20 random dispersion-derivative states")


def test_criterion_6_godambe_psd_on_fits(factorial_fit, grouped_bivariate_fit):
    fits = [factorial_fit, grouped_bivariate_fit[0]]
    data, _, _ = simulate_gaussian(123)
    fits.append(fit(gaussian_spec("y ~ x1 + x2 + x3"), data))
    for model in fits:
        assert model.converged
        assert_valid_godambe(model)
    _report(6, "inverse information symmetric PSD on converged fits")


# --------------------------------------------------------------------------
# 7. contrast structure


def test_criterion_7_contrast_structure():
    rng = np.random.default_rng(77)
    for g in (2, 3, 4, 6):
        levels = [chr(ord("A") + i) for i in range(g)]
        values = np.repeat(levels, 6)
        y = rng.normal(size=len(values)) + np.repeat(np.arange(g, dtype=float), 6)
        data = make_dataset({"y": y, "X": values})
        model = fit(gaussian_spec("y ~ X"), data)
        cs = contrast_set(model, 0, ["X"], data)
        assert cs.contrasts.shape[0] == g * (g - 1) // 2
        if g == 4:
            assert np.array_equal(
                cs.means,
                np.array(
                    [
                        [1, 0, 0, 0],
                        [1, 1, 0, 0],
                        [1, 0, 1, 0],
                        [1, 0, 0, 1],
                    ],
                    dtype=float,
                ),
            )
            assert np.array_equal(
                cs.contrasts,
                np.array(
                    [
                        [0, -1, 0, 0],
                        [0, 0, -1, 0],
                        [0, 0, 0, -1],
                        [0, 1, -1, 0],
                        [0, 1, 0, -1],
                        [0, 0, 1, -1],
                    ],
                    dtype=float,
                ),
            )
    _report(7, "contrast counts and 4-level matrices")


def test_criterion_7_bonferroni_pattern(hunting_case):
    model, _, data = hunting_case
    tables = multiple_comparisons(model, [["METHOD", "SEX"]] * 2, data)
    ot_rows = {row.label: row for row in tables[1].rows}
    capped = ot_rows["Escopeta:Male-Trampa:Male"]
    assert capped.p_value == pytest.approx(1.0, abs=5e-4)
    adjusted = ot_rows["Escopeta:Female-Trampa:Female"]
    assert adjusted.p_value == pytest.approx(0.0617, abs=5e-4)
    assert adjusted.p_value == pytest.approx(
        min(1.0, 6 * chisq_sf(adjusted.statistic, 1)), abs=1e-12
    )
    _report(7, "Bonferroni cap and x6 adjustment on published rows")
