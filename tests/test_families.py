import warnings

import numpy as np
import pytest

from covglm.errors import DomainError
from covglm.families import Link, VarianceFn, variance_eval

LINK_GRIDS = {
    "identity": np.linspace(-20, 20, 100),
    "log": np.linspace(-6, 6, 100),
    "logit": np.linspace(-8, 8, 100),
}


def test_logit_inverse_at_zero_is_half():
    assert Link("logit").inverse(np.array([0.0]))[0] == pytest.approx(0.5)


def test_log_inverse_at_zero_is_one():
    assert Link("log").inverse(np.array([0.0]))[0] == pytest.approx(1.0)


def test_identity_deriv_is_one():
    link = Link("identity")
    eta = np.linspace(-5, 5, 11)
    assert np.all(link.deriv(link.inverse(eta)) == 1.0)


@pytest.mark.parametrize("kind", ["identity", "log", "logit"])
def test_round_trip_on_grid(kind):
    link = Link(kind)
    eta = LINK_GRIDS[kind]
    mu = link.inverse(eta)
    assert np.max(np.abs(link.apply(mu) - eta)) < 1e-10


@pytest.mark.parametrize("kind", ["identity", "log", "logit"])
def test_deriv_matches_central_difference(kind):
    link = Link(kind)
    eta = LINK_GRIDS[kind]
    h = 1e-6
    numeric = (link.inverse(eta + h) - link.inverse(eta - h)) / (2 * h)
    assert np.max(np.abs(link.deriv(link.inverse(eta)) - numeric)) < 1e-5


def test_logit_inverse_saturates_without_overflow():
    from scipy.special import expit

    eta = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu = Link("logit").inverse(eta)
    assert np.all((mu >= 0.0) & (mu <= 1.0))
    expected = expit(eta)
    keep = expected > 1e-300
    assert np.all(np.abs(mu[keep] - expected[keep]) <= 2 * np.spacing(expected[keep]))
    assert mu[0] == 0.0 and mu[2] == 0.5 and mu[4] == 1.0


def test_link_domain_errors_name_index():
    with pytest.raises(DomainError, match="index 1"):
        Link("log").apply(np.array([1.0, -2.0]))
    with pytest.raises(DomainError, match="index 2"):
        Link("logit").apply(np.array([0.3, 0.4, 1.0]))


def test_unknown_kinds_rejected():
    with pytest.raises(ValueError):
        Link("probit")
    with pytest.raises(ValueError):
        VarianceFn("gamma")


def test_tweedie_power_zero_is_constant():
    mu = np.array([0.5, 2.0])
    assert np.allclose(variance_eval(VarianceFn("tweedie", 0.0), mu), [1.0, 1.0])
    assert np.allclose(variance_eval(VarianceFn("constant"), mu), [1.0, 1.0])


def test_tweedie_power_one_is_identity():
    mu = np.linspace(0.1, 9.0, 25)
    assert np.allclose(variance_eval(VarianceFn("tweedie", 1.0), mu), mu)


def test_tweedie_power_two():
    assert variance_eval(VarianceFn("tweedie", 2.0), np.array([3.0]))[0] == 9.0


def test_binomial_variance():
    out = variance_eval(VarianceFn("binomialP", 1.0), np.array([0.5]))
    assert out[0] == pytest.approx(0.25)
    mu = np.linspace(0.05, 0.95, 19)
    assert np.all(variance_eval(VarianceFn("binomialP", 1.0), mu) > 0)


def test_poisson_tweedie_uses_power_part_only():
    mu = np.array([1.0, 2.0])
    out = variance_eval(VarianceFn("poisson_tweedie", 2.0), mu)
    assert np.allclose(out, mu**2)


def test_variance_domain_errors():
    with pytest.raises(DomainError, match="index 0"):
        variance_eval(VarianceFn("tweedie", 1.0), np.array([-1.0, 2.0]))
    with pytest.raises(DomainError, match="index 1"):
        variance_eval(VarianceFn("binomialP", 1.0), np.array([0.5, 1.0]))
