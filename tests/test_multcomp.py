import itertools
import warnings

import numpy as np
import pytest

from conftest import gaussian_spec, make_dataset
from covglm.chisq import chisq_sf
from covglm import multcomp
from covglm.errors import DataError, RankError
from covglm.estimator import fit
from covglm.multcomp import (
    contrast_set,
    joint_multiple_comparisons,
    multiple_comparisons,
    pairwise_contrasts,
)


def _factor_fit(levels, n_per=8, seed=0):
    rng = np.random.default_rng(seed)
    values = np.repeat(levels, n_per)
    y = rng.normal(size=len(values)) + np.repeat(
        np.arange(len(levels), dtype=float), n_per
    )
    data = make_dataset({"y": y, "X": values})
    model = fit(gaussian_spec("y ~ X"), data)
    return model, data


def _two_factor_fit(seed=1, n=160):
    rng = np.random.default_rng(seed)
    method = np.array(["Escopeta", "Trampa"])[rng.integers(0, 2, size=n)]
    sex = np.array(["Female", "Male"])[rng.integers(0, 2, size=n)]
    effect = 0.8 * (method == "Trampa") - 1.1 * (sex == "Male")
    effect = effect + 0.5 * ((method == "Trampa") & (sex == "Male"))
    y1 = 2.0 + effect + rng.normal(size=n)
    y2 = -1.0 + 0.5 * effect + rng.normal(size=n)
    data = make_dataset({"y1": y1, "y2": y2, "METHOD": method, "SEX": sex})
    model = fit(gaussian_spec("y1 ~ METHOD * SEX", "y2 ~ METHOD * SEX"), data)
    return model, data


def test_four_level_adjusted_means_matrix():
    model, data = _factor_fit(["A", "B", "C", "D"])
    cs = contrast_set(model, 0, ["X"], data)
    means, labels = cs.means, cs.combo_labels
    expected = np.array(
        [
            [1, 0, 0, 0],
            [1, 1, 0, 0],
            [1, 0, 1, 0],
            [1, 0, 0, 1],
        ],
        dtype=float,
    )
    assert np.array_equal(means, expected)
    assert labels == ("A", "B", "C", "D")


def test_four_level_contrast_matrix():
    model, data = _factor_fit(["A", "B", "C", "D"])
    cs = contrast_set(model, 0, ["X"], data)
    expected = np.array(
        [
            [0, -1, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, -1],
            [0, 1, -1, 0],
            [0, 1, 0, -1],
            [0, 0, 1, -1],
        ],
        dtype=float,
    )
    assert np.array_equal(cs.contrasts, expected)
    assert cs.contrast_labels == ("A-B", "A-C", "A-D", "B-C", "B-D", "C-D")


def test_two_level_single_contrast():
    model, data = _factor_fit(["lo", "hi"])
    cs = contrast_set(model, 0, ["X"], data)
    assert cs.means.shape == (2, 2)
    assert np.array_equal(cs.means, [[1, 0], [1, 1]])
    assert cs.contrasts.shape == (1, 2)


@pytest.mark.parametrize("g", [2, 3, 4, 6])
def test_contrast_count(g):
    levels = [f"L{i}" for i in range(g)]
    model, data = _factor_fit(levels, seed=g)
    cs = contrast_set(model, 0, ["X"], data)
    assert cs.contrasts.shape[0] == g * (g - 1) // 2


def test_two_factor_combination_rows():
    model, data = _two_factor_fit()
    cs = contrast_set(model, 0, ["METHOD", "SEX"], data)
    means, labels = cs.means, cs.combo_labels
    assert labels == (
        "Escopeta:Female",
        "Escopeta:Male",
        "Trampa:Female",
        "Trampa:Male",
    )
    design_labels = model.design[0].column_labels
    assert design_labels == (
        "Intercept",
        "METHOD=Trampa",
        "SEX=Male",
        "METHOD=Trampa:SEX=Male",
    )
    # Trampa:Male activates intercept, both main effects and the interaction.
    assert np.array_equal(means[3], [1, 1, 1, 1])
    assert np.array_equal(means[0], [1, 0, 0, 0])
    assert np.array_equal(means[1], [1, 0, 1, 0])


def test_unrelated_term_columns_cancel():
    rng = np.random.default_rng(9)
    n = 120
    f = np.array(["a", "b", "c"])[rng.integers(0, 3, size=n)]
    other = np.array(["u", "v"])[rng.integers(0, 2, size=n)]
    x = rng.normal(size=n)
    y = rng.normal(size=n) + (f == "b") * 1.0
    data = make_dataset({"y": y, "f": f, "other": other, "x": x})
    model = fit(gaussian_spec("y ~ f + other + x"), data)
    cs = contrast_set(model, 0, ["f"], data)
    design = model.design[0]
    span_other = design.term_spans[frozenset(("other",))]
    span_x = design.term_spans[frozenset(("x",))]
    for col in list(range(*span_other)) + list(range(*span_x)) + [0]:
        assert np.allclose(cs.contrasts[:, col], 0.0)
        assert np.allclose(cs.means[:, col], cs.means[0, col])


def test_contrast_reversal_leaves_statistic_unchanged():
    model, data = _two_factor_fit()
    tables = multiple_comparisons(model, [["METHOD", "SEX"]] * 2, data)
    cs = contrast_set(model, 0, ["METHOD", "SEX"], data)
    from covglm.wald import wald_statistic

    h = len(model.theta_star_labels)
    for row, contrast in zip(tables[0].rows, cs.contrasts):
        constraint = np.zeros((1, h))
        constraint[0, model.beta_spans[0]] = -contrast
        stat, _ = wald_statistic(
            model.theta_star, model.godambe_inv, constraint, np.zeros(1)
        )
        assert stat == pytest.approx(row.statistic, abs=1e-10)


def test_bonferroni_cap_and_scaling():
    model, data = _two_factor_fit()
    tables = multiple_comparisons(model, [["METHOD", "SEX"]] * 2, data)
    assert len(tables) == 2
    assert len(tables[0].rows) == 6
    for table in tables:
        for row in table.rows:
            raw = chisq_sf(row.statistic, row.df)
            assert row.p_value == pytest.approx(min(1.0, raw * 6), abs=1e-12)
            assert row.df == 1


def test_joint_comparisons_df_and_reduction():
    model, data = _two_factor_fit()
    table = joint_multiple_comparisons(model, ["METHOD", "SEX"], data)
    assert len(table.rows) == 6
    assert all(row.df == 2 for row in table.rows)
    assert table.caption == "~ METHOD*SEX"
    labels = [row.label for row in table.rows]
    assert "Escopeta:Female-Escopeta:Male" in labels
    assert "Escopeta:Male-Trampa:Male" in labels


def test_joint_single_response_reduces_to_per_response():
    model, data = _factor_fit(["A", "B", "C"])
    per = multiple_comparisons(model, [["X"]], data)[0]
    joint = joint_multiple_comparisons(model, ["X"], data)
    for a, b in zip(per.rows, joint.rows):
        assert a.df == b.df == 1
        assert a.statistic == pytest.approx(b.statistic, abs=1e-12)
        assert a.p_value == pytest.approx(b.p_value, abs=1e-12)


def test_unknown_factor_errors():
    model, data = _factor_fit(["A", "B"])
    with pytest.raises(DataError, match="not a variable"):
        multiple_comparisons(model, [["nope"]], data)


def test_numeric_effect_rejected():
    rng = np.random.default_rng(31)
    n = 50
    x = rng.normal(size=n)
    data = make_dataset({"y": rng.normal(size=n), "x": x})
    model = fit(gaussian_spec("y ~ x"), data)
    with pytest.raises(DataError, match="factor"):
        multiple_comparisons(model, [["x"]], data)


def test_unobserved_combination_dropped_with_warning():
    rng = np.random.default_rng(32)
    method = np.array(["A"] * 30 + ["B"] * 30, dtype=object)
    sex = np.array(["f", "m"] * 15 + ["f"] * 30, dtype=object)  # no B:m
    y = rng.normal(size=60)
    data = make_dataset({"y": y, "m1": method, "m2": sex})
    model = fit(gaussian_spec("y ~ m1 + m2"), data)
    with pytest.warns(UserWarning, match="B:m"):
        cs = contrast_set(model, 0, ["m1", "m2"], data)
    assert cs.means.shape[0] == 3
    assert cs.contrasts.shape[0] == 3


def test_pairwise_order_matches_combinations():
    for g in range(1, 8):
        means = np.arange(g * 3, dtype=float).reshape(g, 3) ** 2
        expected = [means[i] - means[j] for i, j in itertools.combinations(range(g), 2)]
        got = pairwise_contrasts(means)
        assert got.shape == (len(expected), 3)
        assert np.array_equal(got, np.array(expected).reshape(-1, 3))


def test_one_stacked_wald_call_per_table(monkeypatch):
    # One Wald call and one chi-square call per function: the per-response
    # tables share one stack, and each keeps its own Bonferroni count.
    model, data = _two_factor_fit()
    h = len(model.theta_star_labels)
    calls = []
    real_wald, real_sf = multcomp.wald_statistic, multcomp.chisq_sf

    def counted(*args):
        calls.append(np.shape(args[2]))
        return real_wald(*args)

    def counted_sf(*args):
        calls.append("chisq_sf")
        return real_sf(*args)

    monkeypatch.setattr("covglm.multcomp.wald_statistic", counted)
    monkeypatch.setattr("covglm.multcomp.chisq_sf", counted_sf)
    tables = multiple_comparisons(model, [["METHOD"], ["METHOD", "SEX"]], data)
    assert calls == [(1 + 6, 1, h), "chisq_sf"]
    assert [len(table.rows) for table in tables] == [1, 6]
    for table in tables:
        for row in table.rows:
            raw = real_sf(row.statistic, row.df)
            assert row.p_value == pytest.approx(min(1.0, raw * len(table.rows)), rel=1e-12)
    calls.clear()
    joint_multiple_comparisons(model, ["METHOD", "SEX"], data)
    assert calls == [(6, 2, h), "chisq_sf"]


def test_degenerate_contrast_error_names_contrast_and_response():
    # Without a SEX main effect, the two Escopeta (reference) combinations
    # share one encoding, so their contrast is an all-zero row.
    _, data = _two_factor_fit()
    model = fit(gaussian_spec("y1 ~ METHOD", "y2 ~ METHOD + METHOD:SEX"), data)
    with pytest.raises(RankError) as info:
        multiple_comparisons(model, [["METHOD"], ["METHOD", "SEX"]], data)
    message = str(info.value)
    assert message.startswith("contrast Escopeta:Female-Escopeta:Male (response 2): ")
    assert "rank below its 1 rows" in message
    # The entry counts within response 2's contrasts, not across responses.
    assert message.endswith("(stack entry 0)")


def test_shared_design_warns_once_per_combination_and_binds_rows_once(monkeypatch):
    rng = np.random.default_rng(33)
    method = np.array(["A"] * 30 + ["B"] * 30, dtype=object)
    sex = np.array(["f", "m"] * 15 + ["f"] * 30, dtype=object)  # no B:m
    data = make_dataset(
        {"y1": rng.normal(size=60), "y2": rng.normal(size=60), "m1": method, "m2": sex}
    )
    model = fit(gaussian_spec("y1 ~ m1 + m2", "y2 ~ m1 + m2"), data)
    bound = []
    real = multcomp.complete_rows

    def counted(*args):
        bound.append(args)
        return real(*args)

    monkeypatch.setattr("covglm.multcomp.complete_rows", counted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tables = multiple_comparisons(model, [["m1", "m2"]] * 2, data)
    assert [str(w.message) for w in caught] == ["dropping unobserved combination B:m"]
    assert len(bound) == 1
    with pytest.warns(UserWarning, match="B:m"):
        cs = contrast_set(model, 1, ["m1", "m2"], data)
    for table in tables:
        assert [row.label for row in table.rows] == list(cs.contrast_labels)
    # Different factor lists per response still get their own contrasts.
    with pytest.warns(UserWarning, match="B:m"):
        tables = multiple_comparisons(model, [["m1"], ["m1", "m2"]], data)
    assert [row.label for row in tables[0].rows] == ["A-B"]
    assert len(tables[1].rows) == 3
