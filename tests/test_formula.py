import pytest

from covglm.errors import FormulaSyntaxError, UnknownOperatorError
from covglm.formula import parse_formula, term_label


def test_star_expansion_order():
    f = parse_formula("grain ~ block + water * pot")
    assert f.response == "grain"
    assert f.terms == (("block",), ("water",), ("pot",), ("water", "pot"))


def test_single_covariate():
    f = parse_formula("y ~ x")
    assert f.terms == (("x",),)


def test_trailing_plus_is_syntax_error():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("y ~ x +")


def test_colon_interaction():
    f = parse_formula("y ~ a + b + a:b")
    assert f.terms == (("a",), ("b",), ("a", "b"))


def test_duplicates_collapse_keeping_first():
    f = parse_formula("y ~ a + a + b + a:b + b:a")
    assert f.terms == (("a",), ("b",), ("a", "b"))


def test_star_and_explicit_main_effect_collapse():
    f = parse_formula("y ~ a * b + a")
    assert f.terms == (("a",), ("b",), ("a", "b"))


def test_three_way_star():
    f = parse_formula("y ~ a * b * c")
    assert f.terms == (
        ("a",),
        ("b",),
        ("c",),
        ("a", "b"),
        ("a", "c"),
        ("b", "c"),
        ("a", "b", "c"),
    )


def test_dotted_identifiers():
    f = parse_formula("BD ~ HUNTER.MONTH")
    assert f.terms == (("HUNTER.MONTH",),)


def test_unknown_operator_reports_offset():
    with pytest.raises(UnknownOperatorError, match="offset 6"):
        parse_formula("y ~ x - z")


def test_offset_reported_for_bad_character():
    with pytest.raises(FormulaSyntaxError) as exc_info:
        parse_formula("y ~ x + @bad")
    assert exc_info.value.offset == 8


def test_missing_tilde():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("y x")


def test_mixed_operators_rejected():
    with pytest.raises(FormulaSyntaxError):
        parse_formula("y ~ a*b:c")


def test_term_labels():
    assert term_label(()) == "Intercept"
    assert term_label(("water", "pot")) == "water:pot"
