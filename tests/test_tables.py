import dataclasses

import numpy as np
import pytest

from conftest import factorial_data, gaussian_spec, make_dataset, simulate_gaussian
from covglm import tables as tables_module
from covglm.chisq import chisq_sf
from covglm.errors import PredictorMismatch, SingularHypothesisError
from covglm.estimator import fit
from covglm.multcomp import joint_multiple_comparisons, multiple_comparisons
from covglm.tables import anova, anova_dispersion, manova, manova_dispersion
from covglm.wald import parse_hypothesis, wald_statistic, wald_test

SOYA_DF = {
    1: [19, 18, 14, 12, 8],
    2: [1, 4, 10, 12, 8],
    3: [1, 4, 2, 4, 8],
}


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_factorial_df_columns(factorial_fit, kind):
    tables = anova(factorial_fit, kind)
    assert len(tables) == 3
    for table in tables:
        assert [row.df for row in table.rows] == SOYA_DF[kind]
        assert [row.label for row in table.rows] == [
            "Intercept",
            "block",
            "water",
            "pot",
            "water:pot",
        ]


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_factorial_manova_df_triples(factorial_fit, kind):
    table = manova(factorial_fit, kind)
    assert [row.df for row in table.rows] == [3 * v for v in SOYA_DF[kind]]
    assert table.caption == "~ block+water*pot"


def test_last_term_rows_coincide_across_types(factorial_fit):
    rows = {kind: anova(factorial_fit, kind)[0].rows[-1] for kind in (1, 2, 3)}
    assert rows[1].statistic == pytest.approx(rows[2].statistic, abs=1e-10)
    assert rows[2].statistic == pytest.approx(rows[3].statistic, abs=1e-10)


def test_single_term_type_one_equals_type_three():
    data, _, _ = simulate_gaussian(19)
    model = fit(gaussian_spec("y ~ x1"), data)
    t1 = anova(model, 1)[0]
    t3 = anova(model, 3)[0]
    assert t1.rows[-1].statistic == pytest.approx(t3.rows[-1].statistic, abs=1e-12)
    assert [r.df for r in t1.rows] == [2, 1]
    assert [r.df for r in t3.rows] == [1, 1]


def test_no_interactions_type_two_equals_type_three():
    data, _, _ = simulate_gaussian(20)
    model = fit(gaussian_spec("y ~ x1 + x2 + x3"), data)
    rows2 = anova(model, 2)[0].rows
    rows3 = anova(model, 3)[0].rows
    for a, b in zip(rows2, rows3):
        assert a.df == b.df
        assert a.statistic == pytest.approx(b.statistic, abs=1e-12)


def test_single_response_manova_equals_anova():
    data, _, _ = simulate_gaussian(21)
    model = fit(gaussian_spec("y ~ x1 + x2"), data)
    univariate = anova(model, 3)[0]
    joint = manova(model, 3)
    for a, b in zip(univariate.rows, joint.rows):
        assert a.df == b.df
        assert a.statistic == pytest.approx(b.statistic, abs=1e-12)


def test_manova_requires_shared_predictor():
    rng = np.random.default_rng(50)
    n = 60
    x1, x2 = rng.normal(size=n), rng.normal(size=n)
    data = make_dataset(
        {
            "y1": rng.normal(size=n),
            "y2": rng.normal(size=n),
            "x1": x1,
            "x2": x2,
        }
    )
    model = fit(gaussian_spec("y1 ~ x1", "y2 ~ x1 + x2"), data)
    with pytest.raises(PredictorMismatch):
        manova(model, 2)


def test_type_two_counts_containing_interactions(factorial_fit):
    # water's type II block is water + water:pot, so its statistic equals
    # the joint hypothesis on those coefficients via the parser.
    table = anova(factorial_fit, 2)[0]
    water_row = table.rows[2]
    labels = [f"beta1{j}" if j <= 9 else f"beta1_{j}" for j in range(5, 7)]
    labels += [f"beta1_{j}" for j in range(11, 19)]
    hyp = parse_hypothesis([f"{lab} = 0" for lab in labels], factorial_fit)
    direct = wald_test(factorial_fit, hyp)
    assert water_row.df == direct.df == 10
    assert water_row.statistic == pytest.approx(direct.statistic, rel=1e-10)


def test_anova_p_values_delegate(factorial_fit):
    for table in anova(factorial_fit, 2):
        for row in table.rows:
            assert row.p_value == pytest.approx(
                chisq_sf(row.statistic, row.df), abs=1e-15
            )


def test_title_and_caption(factorial_fit):
    tables = anova(factorial_fit, 2)
    assert tables[0].title == "ANOVA type II using Wald statistic for fixed effects"
    assert tables[0].caption == "y1 ~ block + water * pot"
    assert manova(factorial_fit, 1).title.startswith("MANOVA type I ")


def test_dispersion_tables(grouped_bivariate_fit):
    model, _, _ = grouped_bivariate_fit
    tables = anova_dispersion(
        model, [[0, 1], [0, 1]], [["tau10", "tau11"], ["tau20", "tau21"]]
    )
    assert len(tables) == 2
    assert [r.label for r in tables[0].rows] == ["tau10", "tau11"]
    assert all(r.df == 1 for r in tables[0].rows)
    assert tables[0].title == (
        "ANOVA type III using Wald statistic for dispersion parameters"
    )
    # Each row equals the direct single-parameter hypothesis.
    direct = wald_test(model, parse_hypothesis(["tau11 = 0"], model))
    assert tables[0].rows[1].statistic == pytest.approx(direct.statistic, rel=1e-12)


def test_dispersion_grouping_joins_parameters(grouped_bivariate_fit):
    model, _, _ = grouped_bivariate_fit
    tables = anova_dispersion(model, [[0, 0], [0, 1]], [["all"], ["a", "b"]])
    assert tables[0].rows[0].df == 2
    joint = wald_test(model, parse_hypothesis(["tau10 = 0", "tau11 = 0"], model))
    assert tables[0].rows[0].statistic == pytest.approx(joint.statistic, rel=1e-12)


def test_dispersion_names_mismatch(grouped_bivariate_fit):
    model, _, _ = grouped_bivariate_fit
    with pytest.raises(ValueError, match="names"):
        anova_dispersion(model, [[0, 1], [0, 1]], [["only_one"], ["a", "b"]])
    with pytest.raises(ValueError, match="grouping"):
        anova_dispersion(model, [[0], [0, 1]], [["a"], ["b", "c"]])


def test_manova_dispersion(grouped_bivariate_fit):
    model, _, _ = grouped_bivariate_fit
    table = manova_dispersion(model, [0, 1], ["tau0", "tau1"])
    assert [r.label for r in table.rows] == ["tau0", "tau1"]
    assert all(r.df == 2 for r in table.rows)
    joint = wald_test(model, parse_hypothesis(["tau10 = 0", "tau20 = 0"], model))
    assert table.rows[0].statistic == pytest.approx(joint.statistic, rel=1e-12)


def test_manova_dispersion_single_response_matches_anova():
    data, _, _ = simulate_gaussian(22)
    model = fit(gaussian_spec("y ~ x1"), data)
    single = anova_dispersion(model, [[0]], [["tau"]])[0]
    joint = manova_dispersion(model, [0], ["tau"])
    assert single.rows[0].statistic == pytest.approx(
        joint.rows[0].statistic, abs=1e-12
    )


def test_invalid_table_kind(factorial_fit):
    with pytest.raises(ValueError):
        anova(factorial_fit, 4)


def _selector_statistic(model, columns):
    """One explicit 0/1 selector-matrix Wald call: theta*[columns] = 0."""
    constraint = np.zeros((len(columns), len(model.theta_star_labels)))
    constraint[np.arange(len(columns)), columns] = 1.0
    return wald_statistic(
        model.theta_star, model.godambe_inv, constraint, np.zeros(len(columns))
    )


def _term_selector_columns(design, kind):
    """Each table row's design columns, as the table types define them."""
    spans = [design.term_spans[frozenset(t)] for t in design.terms]
    rows = []
    for i, term in enumerate(design.terms):
        if kind == 1:
            chosen = spans[i:]
        elif kind == 3 or not term:
            chosen = [spans[i]]
        else:
            chosen = [spans[i]] + [
                spans[j]
                for j, other in enumerate(design.terms)
                if other and frozenset(other) > frozenset(term)
            ]
        rows.append([c for start, stop in chosen for c in range(start, stop)])
    return rows


def _assert_rows_match(rows, expected):
    assert [row.df for row in rows] == [df for _, df in expected]
    for row, (stat, df) in zip(rows, expected):
        assert abs(row.statistic - stat) <= 1e-12 * stat
        assert row.p_value == chisq_sf(row.statistic, row.df)


@pytest.fixture(params=["factorial", "grouped"])
def table_fit(request, factorial_fit, grouped_bivariate_fit):
    if request.param == "factorial":
        return factorial_fit
    return grouped_bivariate_fit[0]


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_fixed_effect_rows_match_selector_calls(table_fit, kind):
    model = table_fit
    for r, table in enumerate(anova(model, kind)):
        start = model.beta_spans[r].start
        cols = _term_selector_columns(model.design[r], kind)
        expected = [_selector_statistic(model, [start + c for c in row]) for row in cols]
        _assert_rows_match(table.rows, expected)
    k = model.design[0].n_columns
    h = len(model.theta_star_labels)
    expected = []
    for row in _term_selector_columns(model.design[0], kind):
        single = np.zeros((len(row), k))
        single[np.arange(len(row)), row] = 1.0
        constraint = np.zeros((len(row) * model.n_responses, h))
        constraint[:, : model.n_beta] = np.kron(np.eye(model.n_responses), single)
        expected.append(
            wald_statistic(
                model.theta_star, model.godambe_inv, constraint, np.zeros(len(constraint))
            )
        )
    _assert_rows_match(manova(model, kind).rows, expected)


def test_dispersion_rows_match_selector_calls(table_fit):
    model = table_fit
    n_tau = len(model.lambda_hat.tau[0])
    groups = list(range(n_tau))
    names = [f"t{g}" for g in groups]
    tables = anova_dispersion(model, [groups] * model.n_responses, [names] * model.n_responses)
    for span, table in zip(model.tau_star_spans, tables):
        _assert_rows_match(
            table.rows, [_selector_statistic(model, [span.start + g]) for g in groups]
        )
    joint = manova_dispersion(model, groups, names)
    _assert_rows_match(
        joint.rows,
        [
            _selector_statistic(model, [span.start + g for span in model.tau_star_spans])
            for g in groups
        ],
    )


def test_one_wald_call_per_table_function(monkeypatch, factorial_fit):
    model = factorial_fit
    calls = []
    real = tables_module.wald_statistic

    def counted(*args, **kwargs):
        calls.append(len(args[2]))
        return real(*args, **kwargs)

    monkeypatch.setattr("covglm.tables.wald_statistic", counted)
    for kind in (1, 2, 3):
        anova(model, kind)
        assert calls == [5 * model.n_responses]
        calls.clear()
        manova(model, kind)
        assert calls == [5]
        calls.clear()
    anova_dispersion(model, [[0]] * 3, [["a"], ["b"], ["c"]])
    assert calls == [3]
    calls.clear()
    manova_dispersion(model, [0], ["a"])
    assert calls == [1]


def test_singular_block_error_names_the_row(factorial_fit):
    model = factorial_fit
    start, _ = model.design[1].span(("water", "pot"))
    column = model.beta_spans[1].start + start + 1
    j = model.joint_inverse.copy()
    j[column, :] = j[:, column] = 0.0  # only water:pot of response 2 uses it
    broken = dataclasses.replace(model, joint_inverse=j)
    with pytest.raises(SingularHypothesisError) as info:
        anova(broken, 3)
    assert str(info.value).startswith("term water:pot (response 2): ")
    with pytest.raises(SingularHypothesisError, match=r"^term water:pot \(all responses\): "):
        manova(broken, 3)


def test_indefinite_block_error_names_the_information_matrix(factorial_fit):
    model = factorial_fit
    start, _ = model.design[1].span(("water", "pot"))
    column = model.beta_spans[1].start + start + 1
    j = model.joint_inverse.copy()
    j[column, column] = -j[column, column]  # a negative variance
    broken = dataclasses.replace(model, joint_inverse=j)
    with pytest.raises(SingularHypothesisError) as info:
        anova(broken, 3)
    message = str(info.value)
    assert message.startswith("term water:pot (response 2): ")
    assert "the inverse Godambe matrix is indefinite on these parameters" in message
    assert "redundant" not in message


def test_non_finite_information_error_names_the_row(factorial_fit, monkeypatch):
    # A fit file may carry a non-finite entry into joint_inverse. The block
    # holding it is not sent to an eigensolver, which may fail to converge
    # on it; the error stays a SingularHypothesisError that names the row.
    def no_eigensolver(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    model = factorial_fit
    start, _ = model.design[1].span(("water", "pot"))
    column = model.beta_spans[1].start + start + 1
    j = model.joint_inverse.copy()
    j[column, column] = -np.inf
    broken = dataclasses.replace(model, joint_inverse=j)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolver)
    with pytest.raises(SingularHypothesisError, match=r"^term water:pot \(response 2\): ") as info:
        anova(broken, 3)
    assert "L J L^T is singular" in str(info.value)
    with pytest.raises(SingularHypothesisError, match=r"^term water:pot \(all responses\): "):
        manova(broken, 3)


@pytest.mark.parametrize("kind", [1, 2, 3])
def test_nan_information_error_names_the_row(factorial_fit, kind):
    # Cholesky may factor a block holding a NaN without raising. Its
    # statistic then reads NaN, and the row is named as for a singular
    # block, the first row that holds the entry (type I's rows nest).
    model = factorial_fit
    start, _ = model.design[1].span(("water", "pot"))
    column = model.beta_spans[1].start + start + 1
    j = model.joint_inverse.copy()
    j[column, column] = np.nan
    broken = dataclasses.replace(model, joint_inverse=j)
    first = {1: "Intercept", 2: "water", 3: "water:pot"}[kind]
    with pytest.raises(SingularHypothesisError, match=rf"^term {first} \(response 2\): ") as info:
        anova(broken, kind)
    assert "L J L^T is singular" in str(info.value)
    with pytest.raises(SingularHypothesisError, match=rf"^term {first} \(all responses\): "):
        manova(broken, kind)


def test_nan_information_error_names_the_contrast(factorial_fit):
    # In L J L^T, 0 * NaN would reach every contrast; only those whose
    # rows use the NaN entry (response 2's water:pot) are named.
    model = factorial_fit
    start, _ = model.design[1].span(("water", "pot"))
    column = model.beta_spans[1].start + start + 1
    j = model.joint_inverse.copy()
    j[column, column] = np.nan
    broken = dataclasses.replace(model, joint_inverse=j)
    data = factorial_data(seed=0)
    with pytest.raises(SingularHypothesisError) as info:
        multiple_comparisons(broken, [["water", "pot"]] * 3, data)
    message = str(info.value)
    assert message.startswith("contrast W1:P1-W2:P3 (response 2): L J L^T is singular")
    assert message.endswith("(stack entry 6)")
    with pytest.raises(SingularHypothesisError, match=r"^contrast W1:P1-W2:P3 \(all responses\): "):
        joint_multiple_comparisons(broken, ["water", "pot"], data)


@pytest.mark.parametrize("kind", [1, 2])
def test_singular_block_in_nested_rows_names_the_first_failing_row(factorial_fit, kind):
    # Type-I rows nest and share one factor; type II's rows do not nest
    # and take the padded path. Either way a singular block names the
    # first row that holds it.
    model = factorial_fit
    start, _ = model.design[1].span(("water", "pot"))
    column = model.beta_spans[1].start + start + 1
    j = model.joint_inverse.copy()
    j[column, :] = j[:, column] = 0.0
    broken = dataclasses.replace(model, joint_inverse=j)
    first = {1: "Intercept", 2: "water"}[kind]
    with pytest.raises(SingularHypothesisError, match=rf"^term {first} \(response 2\): "):
        anova(broken, kind)
    with pytest.raises(SingularHypothesisError, match=rf"^term {first} \(all responses\): "):
        manova(broken, kind)
