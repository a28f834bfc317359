import math
import warnings

import numpy as np
import pytest

from covglm.chisq import chisq_sf

# (statistic, df, tail) triples as printed in the worked examples.
REPORTED_TAILS = [
    (1.2362, 1, 0.2662),
    (3.5639, 2, 0.1683),
    (1.3491, 1, 0.2454),
    (5.8183, 1, 0.0159),
]


@pytest.mark.parametrize("w,df,expected", REPORTED_TAILS)
def test_reported_tails(w, df, expected):
    assert chisq_sf(w, df) == pytest.approx(expected, abs=5e-5)


def test_large_statistics_vanish():
    assert chisq_sf(22.5613, 1) < 5e-5
    assert chisq_sf(29.098, 2) < 5e-5
    assert chisq_sf(400.0, 1) < 1e-12


@pytest.mark.parametrize("df", [1, 2, 3, 7, 40])
def test_zero_statistic(df):
    assert chisq_sf(0.0, df) == 1.0


def test_df_two_closed_form():
    for w in np.linspace(0.01, 60, 200):
        assert abs(chisq_sf(w, 2) - math.exp(-w / 2.0)) < 1e-12


def test_df_one_matches_normal_tail():
    # P(chi2_1 >= w) = 2 (1 - Phi(sqrt(w))) = erfc(sqrt(w / 2))
    for w in np.linspace(0.01, 40, 150):
        assert abs(chisq_sf(w, 1) - math.erfc(math.sqrt(w / 2.0))) < 1e-10


def test_monotone_in_statistic():
    grid = np.linspace(0, 30, 400)
    for df in (1, 2, 5, 11):
        values = [chisq_sf(w, df) for w in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_matches_scipy_broadly():
    from scipy.stats import chi2

    rng = np.random.default_rng(0)
    for _ in range(200):
        df = int(rng.integers(1, 60))
        w = float(rng.uniform(0, 150))
        assert abs(chisq_sf(w, df) - chi2.sf(w, df)) < 1e-10


def _closed_form_tail(w, df):
    """Q(df/2, w/2) as the exact finite sum for integer df."""
    x = w / 2.0
    k = df // 2
    if df % 2 == 0:
        return math.exp(-x) * sum(x**j / math.factorial(j) for j in range(k))
    return math.erfc(math.sqrt(x)) + math.exp(-x) * sum(
        x ** (j - 0.5) / math.gamma(j + 0.5) for j in range(1, k + 1)
    )


def test_matches_closed_form_sums():
    for df in range(1, 61):
        for w in np.linspace(0.0, 200.0, 401):
            expected = _closed_form_tail(float(w), df)
            error = abs(chisq_sf(w, df) - expected)
            assert error < 1e-12 and error <= 1e-10 * expected, (w, df)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        chisq_sf(1.0, 0)
    with pytest.raises(ValueError):
        chisq_sf(1.0, 1.5)
    with pytest.raises(ValueError):
        chisq_sf(-0.5, 2)


def test_array_input_matches_scalar_calls():
    w = np.array([0.0, 0.3, 2.5, 17.0, 140.0])
    for df in (1, 3):
        p = chisq_sf(w, df)
        assert isinstance(p, np.ndarray) and p.shape == w.shape
        assert p.tolist() == [chisq_sf(float(v), df) for v in w]
    assert isinstance(chisq_sf(np.float64(2.0), 2), float)
    assert chisq_sf(np.zeros((2, 2)), 1).shape == (2, 2)


@pytest.mark.parametrize("bad", [-0.5, float("nan")])
def test_array_with_one_bad_entry_rejected(bad):
    with pytest.raises(ValueError, match="nonnegative"):
        chisq_sf(np.array([1.0, bad, 3.0]), 2)
    with pytest.raises(ValueError, match="nonnegative"):
        chisq_sf(bad, 2)


def test_array_df_matches_per_element_calls():
    w = np.array([0.0, 0.3, 2.5, 17.0, 140.0])
    df = np.array([1, 2, 3, 10, 57])
    p = chisq_sf(w, df)
    assert p.tolist() == [chisq_sf(float(v), int(d)) for v, d in zip(w, df)]
    # df broadcasts against the statistics, and a scalar statistic too.
    grid = chisq_sf(w[:, None], [1, 4])
    assert grid.shape == (5, 2)
    assert grid[:, 1].tolist() == chisq_sf(w, 4).tolist()
    assert chisq_sf(3.0, [1, 2]).tolist() == [chisq_sf(3.0, 1), chisq_sf(3.0, 2)]


@pytest.mark.parametrize("bad", [0, 1.5, -2, float("nan"), float("inf")])
def test_array_df_with_one_bad_entry_rejected(bad):
    with pytest.raises(ValueError, match="df must be a positive integer"):
        chisq_sf(np.array([1.0, 2.0, 3.0]), np.array([1, bad, 3]))
    with pytest.raises(ValueError, match="df must be a positive integer"):
        chisq_sf(1.0, bad)


# Up to df 2001 and statistic 1600 the tail sums run long, and past a
# statistic of 1400 e^-x underflows, so the terms carry e^-x in pieces.
LARGE_DF = [1, 2, 3, 49, 57, 58, 199, 200, 601, 1000, 1200, 1201, 2000, 2001]


@pytest.mark.parametrize("df", LARGE_DF)
def test_matches_scipy_to_large_df_and_statistics(df):
    from scipy.stats import chi2

    w = np.concatenate([np.linspace(0.0, 1600.0, 321), [1400.5, 1492.0, 1500.0]])
    got = chisq_sf(w, df)
    expected = chi2.sf(w, df)
    keep = expected > 1e-280
    assert np.all(np.abs(got[keep] - expected[keep]) <= 1e-12 * expected[keep])
    assert np.all((got >= 0.0) & (got <= 1.0))


def test_huge_statistics_are_zero_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert chisq_sf(2.45e5, 57) == 0.0
        big = np.array([2.45e5, 1e200, 1.7e308, np.inf])
        for df in (1, 2, 3, 57, 2001):
            assert chisq_sf(big, df).tolist() == [0.0] * 4
