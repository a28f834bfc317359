import logging

import numpy as np
import pytest

from conftest import make_dataset, response_spec
from covglm.errors import DataError, MissingColumnError, ModelSpecError
from covglm.model import (
    MatrixComponent,
    ModelSpec,
    bind,
    grouping_matrix,
    model_spec_json,
    parse_model_spec,
)


def test_grouping_matrix_block_structure():
    values = np.array(["a", "b", "a", "c", "b"], dtype=object)
    z = grouping_matrix(values)
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
    z0, z1 = bound.z_lists[0]
    assert np.array_equal(z0, np.eye(6))
    expected = np.kron(np.eye(3), np.ones((2, 2)))
    assert np.array_equal(z1, expected)


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
