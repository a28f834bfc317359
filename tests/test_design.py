import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import PROPERTY_SETTINGS, factorial_data, gaussian_spec, make_dataset
from covglm.design import _var_encoding, build_design, encode_combinations
from covglm.errors import DataError, DegenerateFactor, MissingColumnError
from covglm.formula import parse_formula
from covglm.model import bind


def test_four_level_factor_treatment_coding():
    data = make_dataset(
        {"y": np.zeros(8), "X": ["A", "B", "C", "D", "A", "B", "C", "D"]}
    )
    design, X = build_design(parse_formula("y ~ X"), data)
    assert design.n_columns == 4
    assert design.column_labels == ("Intercept", "X=B", "X=C", "X=D")
    # A reference-level row encodes as (1, 0, 0, 0).
    assert np.allclose(X[0], [1, 0, 0, 0])
    assert np.allclose(X[1], [1, 1, 0, 0])
    assert np.allclose(X[3], [1, 0, 0, 1])


def test_numeric_only():
    data = make_dataset({"y": np.zeros(4), "x": [0.5, 1.5, -2.0, 3.0]})
    design, X = build_design(parse_formula("y ~ x"), data)
    assert design.column_labels == ("Intercept", "x")
    assert np.allclose(X[:, 1], [0.5, 1.5, -2.0, 3.0])


def test_factorial_column_count_and_spans():
    data = factorial_data()
    design, X = build_design(parse_formula("y1 ~ block + water * pot"), data)
    # 1 + 4 + 2 + 4 + 8
    assert design.n_columns == X.shape[1] == 19
    spans = [design.term_spans[frozenset(t)] for t in design.terms]
    assert spans == [(0, 1), (1, 5), (5, 7), (7, 11), (11, 19)]
    # Spans partition the columns in term order.
    flattened = [i for a, b in spans for i in range(a, b)]
    assert flattened == list(range(19))


def test_dummy_rows_sum_at_most_one():
    data = factorial_data()
    _, X = build_design(parse_formula("y1 ~ block + water * pot"), data)
    block_cols = X[:, 1:5]
    sums = block_cols.sum(axis=1)
    assert set(sums.tolist()) <= {0.0, 1.0}
    # Reference-level rows have an all-zero dummy block.
    reference_rows = np.array([b == "B1" for b in data.factor("block")])
    assert np.all(block_cols[reference_rows] == 0)


def test_interaction_columns_are_products():
    data = factorial_data()
    design, X = build_design(parse_formula("y1 ~ water * pot"), data)
    water_span = design.term_spans[frozenset(("water",))]
    pot_span = design.term_spans[frozenset(("pot",))]
    inter_span = design.term_spans[frozenset(("water", "pot"))]
    water_cols = X[:, water_span[0] : water_span[1]]
    pot_cols = X[:, pot_span[0] : pot_span[1]]
    expected = []
    for i in range(water_cols.shape[1]):
        for j in range(pot_cols.shape[1]):
            expected.append(water_cols[:, i] * pot_cols[:, j])
    assert np.allclose(X[:, inter_span[0] : inter_span[1]], np.array(expected).T)


def test_numeric_by_factor_interaction():
    data = make_dataset(
        {"y": np.zeros(6), "x": [1.0, 2, 3, 4, 5, 6], "f": ["a", "b", "a", "b", "a", "b"]}
    )
    design, X = build_design(parse_formula("y ~ x * f"), data)
    assert design.column_labels == ("Intercept", "x", "f=b", "x:f=b")
    assert np.allclose(X[:, 3], X[:, 1] * X[:, 2])


def test_rebuild_is_byte_identical():
    data = factorial_data()
    formula = parse_formula("y1 ~ block + water * pot")
    a, a_matrix = build_design(formula, data)
    b, b_matrix = build_design(formula, data)
    assert a_matrix.tobytes() == b_matrix.tobytes()
    assert a == b


def test_missing_column():
    data = make_dataset({"y": np.zeros(3), "x": [1.0, 2, 3]})
    with pytest.raises(MissingColumnError):
        build_design(parse_formula("y ~ nope"), data)


def test_degenerate_factor():
    data = make_dataset({"y": np.zeros(3), "f": ["same", "same", "same"]})
    with pytest.raises(DegenerateFactor):
        build_design(parse_formula("y ~ f"), data)


def test_encode_combination_matches_rows():
    data = factorial_data()
    design, X = build_design(parse_formula("y1 ~ block + water * pot"), data)
    block = data.factor("block")
    water = data.factor("water")
    pot = data.factor("pot")
    for row_index in (0, 7, 33, 74):
        row = encode_combinations(
            design,
            [
                {
                    "block": block[row_index],
                    "water": water[row_index],
                    "pot": pot[row_index],
                }
            ],
        )[0]
        assert np.allclose(row, X[row_index])


def test_encode_combinations_stacks_single_rows():
    data = factorial_data()
    design, _ = build_design(parse_formula("y1 ~ block + water * pot"), data)
    assignments = [
        {"water": w, "pot": p} for w in ("W1", "W3") for p in ("P1", "P2", "P5")
    ] + [{"block": "B4"}, {}]
    matrix = encode_combinations(design, assignments)
    assert matrix.shape == (len(assignments), design.n_columns)
    for row, assignment in zip(matrix, assignments):
        assert np.array_equal(row, encode_combinations(design, [assignment])[0])
    with pytest.raises(DataError, match="unknown level 'W9' for factor 'water'"):
        encode_combinations(design, assignments + [{"water": "W9"}])
    with pytest.raises(DataError, match="unknown level"):
        encode_combinations(design, [{"pot": "P0"}])


def test_design_matrix_is_read_only():
    data = make_dataset({"y": np.zeros(3), "x": [1.0, 2, 3]})
    bound = bind(gaussian_spec("y ~ x"), data)
    with pytest.raises(ValueError):
        bound.x[0][0, 0] = 5.0


def _per_value_encoding(levels, values):
    """Indicator columns of the non-reference levels, one value at a time:
    the reference the vectorized coding must match bit for bit."""
    return [np.array([1.0 if v == level else 0.0 for v in values]) for level in levels[1:]]


# Level strings include numeric-looking ones, which sort as strings ("10"
# before "9").
_LEVEL = st.one_of(
    st.integers(0, 12).map(str),
    st.text(alphabet="ab9-. ", min_size=1, max_size=3),
)


@PROPERTY_SETTINGS
@given(
    levels=st.lists(_LEVEL, min_size=2, max_size=6, unique=True).map(sorted),
    picks=st.lists(st.integers(0, 5), min_size=1, max_size=30),
)
def test_factor_coding_matches_per_value_comparison(levels, picks):
    values = [levels[i % len(levels)] for i in picks]
    expected = _per_value_encoding(levels, values)
    for given_values in (np.array(values, dtype=object), values):
        cols, labels = _var_encoding("f", "factor", levels, given_values)
        assert labels == [f"f={level}" for level in levels[1:]]
        assert len(cols) == len(expected)
        for col, want in zip(cols, expected):
            assert col.dtype == want.dtype and col.tobytes() == want.tobytes()
    design, x = build_design(
        parse_formula("y ~ f"),
        make_dataset({"y": np.zeros(len(values) + len(levels)),
                      "f": np.array(values + levels, dtype=object)}),
    )
    assert design.level_maps["f"] == tuple(levels)
    encoded = encode_combinations(design, [{"f": v} for v in values])
    reference = np.column_stack([np.ones(len(values))] + expected)
    assert encoded.tobytes() == reference.tobytes()
    assert np.array_equal(x[: len(values)], reference)
