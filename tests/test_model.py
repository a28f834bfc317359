import logging
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import dense_z, make_dataset, response_spec
from covglm import model as model_module
from covglm.errors import DataError, MissingColumnError, ModelSpecError, RankError
from covglm.estimator import fit
from covglm.model import (
    MatrixComponent,
    ModelSpec,
    _pair_count,
    bind,
    grouping_matrix,
    load_model_spec,
    model_spec_json,
    parse_model_spec,
)
from covglm.tables import anova

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_grouping_matrix_block_structure():
    values = np.array(["a", "b", "a", "c", "b"], dtype=object)
    codes = grouping_matrix(values)
    assert codes.tolist() == [0, 1, 0, 2, 1]
    z = dense_z(codes)
    assert z.shape == (5, 5)
    assert np.allclose(z, z.T)
    assert z[0, 2] == 1.0 and z[1, 4] == 1.0 and z[0, 1] == 0.0
    assert np.allclose(np.diag(z), 1.0)


def test_listwise_deletion_logged(caplog):
    data = make_dataset(
        {
            "y": np.array([1.0, np.nan, 3.0, 4.0]),
            "x": np.array([1.0, 2.0, np.nan, 4.0]),
        }
    )
    spec = ModelSpec(responses=(response_spec("y ~ x"),))
    with caplog.at_level(logging.INFO, logger="covglm"):
        bound = bind(spec, data)
    assert bound.n_obs == 2
    assert bound.n_dropped == 2
    assert any("dropped 2 rows" in rec.message for rec in caplog.records)


def test_deletion_only_considers_bound_columns():
    data = make_dataset(
        {
            "y": np.array([1.0, 2.0, 3.0]),
            "x": np.array([1.0, 2.0, 3.0]),
            "unused": np.array([np.nan, np.nan, np.nan]),
        }
    )
    spec = ModelSpec(responses=(response_spec("y ~ x"),))
    assert bind(spec, data).n_obs == 3


def test_all_rows_missing_is_an_error():
    data = make_dataset({"y": np.array([np.nan]), "x": np.array([1.0])})
    spec = ModelSpec(responses=(response_spec("y ~ x"),))
    with pytest.raises(DataError, match="no rows after missing-data removal"):
        bind(spec, data)


def test_unknown_bound_column():
    data = make_dataset({"y": np.zeros(3)})
    spec = ModelSpec(responses=(response_spec("y ~ x"),))
    with pytest.raises(MissingColumnError):
        bind(spec, data)


def test_ntrial_must_be_positive_integers():
    data = make_dataset(
        {"y": np.array([0.5, 0.25]), "x": np.array([1.0, 2.0]), "m": np.array([4.0, 0.0])}
    )
    spec = ModelSpec(
        responses=(
            response_spec(
                "y ~ x", link="logit", variance="binomialP", ntrial_column="m"
            ),
        )
    )
    with pytest.raises(ModelSpecError, match="positive integers"):
        bind(spec, data)


def test_ntrial_requires_binomial_variance():
    with pytest.raises(ModelSpecError, match="binomialP"):
        response_spec("y ~ x", variance="constant", ntrial_column="m")


def test_ntrial_responses_must_be_proportions():
    data = make_dataset(
        {"y": np.array([0.5, 1.25]), "x": np.array([1.0, 2.0]), "m": np.array([4.0, 4.0])}
    )
    spec = ModelSpec(
        responses=(
            response_spec(
                "y ~ x", link="logit", variance="binomialP", ntrial_column="m"
            ),
        )
    )
    with pytest.raises(ModelSpecError, match="proportions"):
        bind(spec, data)


def test_grouping_component_requires_column():
    with pytest.raises(ModelSpecError):
        MatrixComponent("grouping")


def test_spec_json_round_trip():
    spec = ModelSpec(
        responses=(
            response_spec(
                "y ~ x",
                link="log",
                variance="poisson_tweedie",
                matrix_pred=(
                    MatrixComponent("identity"),
                    MatrixComponent("grouping", "g"),
                ),
                offset_column="off",
            ),
        ),
        column_types={"g": "factor"},
    )
    text = model_spec_json(spec)
    import json

    again = parse_model_spec(json.loads(text))
    assert model_spec_json(again) == text
    assert again.responses[0].offset_column == "off"
    assert again.responses[0].matrix_pred[1].column == "g"


def test_bind_builds_identity_and_grouping_z():
    values = {
        "y": np.arange(6, dtype=float),
        "x": np.arange(6, dtype=float) * 0.5,
        "g": np.array(["u", "u", "v", "v", "w", "w"], dtype=object),
    }
    data = make_dataset(values)
    spec = ModelSpec(
        responses=(
            response_spec(
                "y ~ x",
                matrix_pred=(
                    MatrixComponent("identity"),
                    MatrixComponent("grouping", "g"),
                ),
            ),
        )
    )
    bound = bind(spec, data)
    z0, z1 = (dense_z(codes) for codes in bound.z_codes[0])
    assert np.array_equal(z0, np.eye(6))
    expected = np.kron(np.eye(3), np.ones((2, 2)))
    assert np.array_equal(z1, expected)


def test_gram_entries_from_codes_match_dense_traces():
    rng = np.random.default_rng(3)
    for n_levels in (1, 3, 7, 40):
        a = grouping_matrix(rng.integers(0, n_levels, size=40))
        b = grouping_matrix(rng.integers(0, 5, size=40))
        for x, y in ((a, b), (a, a), (b, np.arange(40))):
            assert _pair_count(x, y) == np.trace(dense_z(x) @ dense_z(y))


def _hunting_shaped_rows(n, group_size=6, seed=0):
    """Bivariate counts with an exposure offset in hunter-month groups."""
    rng = np.random.default_rng(seed)
    group = np.repeat(np.arange(n // group_size), group_size)
    cell = rng.permutation(np.arange(n) % 4)
    exposure = rng.integers(5, 26, size=n).astype(float)
    return make_dataset(
        {
            "BD": rng.poisson(0.4 * exposure).astype(float),
            "OT": rng.poisson(0.2 * exposure).astype(float),
            "logOFFSET": np.log(exposure),
            "METHOD": np.where(cell // 2 == 1, "Trampa", "Escopeta").astype(object),
            "SEX": np.where(cell % 2 == 1, "Male", "Female").astype(object),
            "HUNTER.MONTH": np.array([f"HM{g:03d}" for g in group], dtype=object),
        }
    )


def test_bind_holds_no_n_by_n_array():
    # Four Z_d as dense N x N float matrices would hold 4 N^2 8 B = 184 MB
    # at N = 2400; their level codes and 400 cluster blocks take well
    # under 1 MB.
    n = 2400
    spec = load_model_spec(FIXTURES / "hunting_model.json")
    data = _hunting_shaped_rows(n)
    tracemalloc.start()
    try:
        bound = bind(spec, data)
        blocks = bound.z_blocks
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert bound.n_obs == n
    assert [stack.shape for stack in bound.clusters.rows] == [(n // 6, 6)]
    # Two responses with two Z_d each: one (q_tau, G, m, m) stack.
    assert blocks[0].shape == (4, n // 6, 6, 6)
    assert peak < 16e6


def test_bind_rejects_linearly_dependent_matrix_predictor():
    # Singleton groups make grouping(s) equal the identity; grouping(g)
    # is independent of both and is not reported.
    values = {
        "y": np.arange(6, dtype=float),
        "x": np.arange(6, dtype=float) * 0.5,
        "s": np.array(["a", "b", "c", "d", "e", "f"], dtype=object),
        "g": np.array(["u", "u", "v", "v", "w", "w"], dtype=object),
    }
    spec = ModelSpec(
        responses=(
            response_spec(
                "y ~ x",
                matrix_pred=(
                    MatrixComponent("identity"),
                    MatrixComponent("grouping", "s"),
                    MatrixComponent("grouping", "g"),
                ),
            ),
        )
    )
    with pytest.raises(ModelSpecError) as info:
        bind(spec, make_dataset(values))
    message = str(info.value)
    assert message.startswith("response 'y': matrix predictor components")
    assert "(rank 2 of 3)" in message
    assert message.endswith("redundant: grouping(s)")


def test_empty_responses_rejected():
    with pytest.raises(ModelSpecError):
        ModelSpec(responses=())


def _shared_predictor_rows(n=24, seed=3):
    rng = np.random.default_rng(seed)
    return {
        **{f"y{r}": rng.normal(size=n) for r in range(1, 4)},
        "a": np.array([f"a{i % 3}" for i in range(n)], dtype=object),
        "b": np.array([f"b{i % 4}" for i in range(n)], dtype=object),
        "x": rng.normal(size=n),
        "w": rng.normal(size=n),
        "g": np.array([f"g{i // 4}" for i in range(n)], dtype=object),
    }


def _counting(monkeypatch, name):
    calls = []
    original = getattr(model_module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(model_module, name, counted)
    return calls


def test_responses_with_one_right_hand_side_share_one_design(monkeypatch):
    formulas = ("y1 ~ a + x", "y2 ~ a + x", "y3 ~ a + x")
    spec = ModelSpec(responses=tuple(response_spec(f) for f in formulas))
    data = make_dataset(_shared_predictor_rows())
    built = _counting(monkeypatch, "build_design")
    bound = bind(spec, data)
    assert len(built) == 1
    assert all(x is bound.x[0] for x in bound.x)
    # Each response keeps its own formula, so its ANOVA table names it.
    assert [d.formula.text for d in bound.designs] == list(formulas)
    assert [d.column_labels for d in bound.designs[1:]] == [bound.designs[0].column_labels] * 2
    tables = anova(fit(bound, None), 2)
    assert [table.caption for table in tables] == list(formulas)


def test_reordered_or_other_right_hand_sides_get_designs_of_their_own(monkeypatch):
    formulas = ("y1 ~ a * b", "y2 ~ b * a", "y3 ~ x + w")
    spec = ModelSpec(responses=tuple(response_spec(f) for f in formulas))
    built = _counting(monkeypatch, "build_design")
    bound = bind(spec, make_dataset(_shared_predictor_rows()))
    assert len(built) == 3
    assert len({id(x) for x in bound.x}) == 3
    first, second, _ = bound.designs
    assert first.column_labels[1:3] == ("a=a1", "a=a2")
    assert second.column_labels[1:4] == ("b=b1", "b=b2", "b=b3")


def test_rank_deficient_shared_design_names_the_first_response():
    values = _shared_predictor_rows()
    values["x2"] = 2.0 * values["x"]
    formulas = ("y1 ~ x + x2", "y2 ~ x + x2")
    spec = ModelSpec(responses=tuple(response_spec(f) for f in formulas))
    with pytest.raises(RankError, match="^design for response 'y1' is rank deficient"):
        fit(spec, make_dataset(values))


def test_shared_matrix_predictor_is_coded_and_checked_once(monkeypatch):
    grouped = (MatrixComponent("identity"), MatrixComponent("grouping", "g"))
    spec = ModelSpec(
        responses=tuple(
            response_spec(f"y{r} ~ x", matrix_pred=grouped) for r in range(1, 4)
        )
    )
    coded = _counting(monkeypatch, "grouping_matrix")
    checked = _counting(monkeypatch, "_check_identifiable")
    bound = bind(spec, make_dataset(_shared_predictor_rows()))
    assert len(coded) == 1 and len(checked) == 1
    assert all(codes is bound.z_codes[0] for codes in bound.z_codes)
    assert bound.z_owner.tolist() == [0, 0, 1, 1, 2, 2]


def test_shared_dependent_matrix_predictor_names_the_first_response():
    values = _shared_predictor_rows()
    values["s"] = np.array([f"s{i}" for i in range(len(values["x"]))], dtype=object)
    dependent = (MatrixComponent("identity"), MatrixComponent("grouping", "s"))
    spec = ModelSpec(
        responses=tuple(
            response_spec(f"y{r} ~ x", matrix_pred=dependent) for r in (1, 2)
        )
    )
    with pytest.raises(ModelSpecError) as info:
        bind(spec, make_dataset(values))
    assert str(info.value) == (
        "response 'y1': matrix predictor components identity, grouping(s) are "
        "linearly dependent (rank 1 of 2); redundant: grouping(s)"
    )
