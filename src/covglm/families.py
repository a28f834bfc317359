"""Link and variance functions for the per-response mean/variance models."""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

LINK_KINDS = ("identity", "log", "logit")
VARIANCE_KINDS = ("constant", "tweedie", "poisson_tweedie", "binomialP")


def _first_bad(mask):
    return int(np.argmax(mask))


@dataclass(frozen=True)
class Link:
    """A standard link function g with inverse and mean derivative.

    ``apply`` maps the mean scale to the linear-predictor scale, ``inverse``
    maps back, and ``deriv`` is d mu / d eta, the derivative of the inverse
    link (the factor that scales design columns in the mean gradient),
    written in terms of the mean mu = inverse(eta).
    """

    kind: str

    def __post_init__(self):
        if self.kind not in LINK_KINDS:
            raise ValueError(f"unknown link {self.kind!r}; choose from {LINK_KINDS}")

    def apply(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "identity":
            return x.copy()
        if self.kind == "log":
            bad = ~(x > 0)
            if bad.any():
                raise DomainError(
                    f"log link needs positive values; offending index {_first_bad(bad)}"
                )
            return np.log(x)
        bad = ~((x > 0) & (x < 1))
        if bad.any():
            raise DomainError(
                f"logit link needs values in (0, 1); offending index {_first_bad(bad)}"
            )
        return np.log(x / (1.0 - x))

    def inverse(self, eta):
        eta = np.asarray(eta, dtype=float)
        if self.kind == "identity":
            return eta.copy()
        if self.kind == "log":
            # Past eta ~ 709 the mean overflows to inf, for the finite
            # checks downstream to reject.
            with np.errstate(over="ignore"):
                return np.exp(eta)
        # The logistic function from exp(-|eta|), which cannot overflow.
        e = np.exp(-np.abs(eta))
        return np.where(eta >= 0.0, 1.0, e) / (1.0 + e)

    def deriv(self, mu):
        """Elementwise d mu / d eta, given the mean mu = inverse(eta)."""
        mu = np.asarray(mu, dtype=float)
        if self.kind == "identity":
            return np.ones_like(mu)
        if self.kind == "log":
            return mu
        return mu * (1.0 - mu)


@dataclass(frozen=True)
class VarianceFn:
    """Variance function kind plus its (fixed) power.

    ``constant`` ignores the power, ``tweedie``/``poisson_tweedie`` use
    mu**power, ``binomialP`` uses (mu * (1 - mu))**power with the single
    shared exponent. Powers are always held fixed during estimation.
    """

    kind: str
    power: float = 1.0

    def __post_init__(self):
        if self.kind not in VARIANCE_KINDS:
            raise ValueError(
                f"unknown variance {self.kind!r}; choose from {VARIANCE_KINDS}"
            )


def variance_eval(var, mu):
    """Evaluate the variance function elementwise on a mean vector.

    For ``poisson_tweedie`` this is only the mu**p part that enters the
    sandwich V^(1/2) Omega V^(1/2); the additive diag(mu) term is applied
    when the per-response covariance is assembled.
    """
    mu = np.asarray(mu, dtype=float)
    if var.kind == "constant":
        return np.ones_like(mu)
    if var.kind in ("tweedie", "poisson_tweedie"):
        bad = ~(mu > 0)
        if bad.any():
            raise DomainError(
                f"{var.kind} variance needs positive means; "
                f"offending index {_first_bad(bad)}"
            )
        return mu**var.power
    bad = ~((mu > 0) & (mu < 1))
    if bad.any():
        raise DomainError(
            f"binomialP variance needs means in (0, 1); "
            f"offending index {_first_bad(bad)}"
        )
    return (mu * (1.0 - mu)) ** var.power


def variance_deriv(var, mu):
    """dV/dmu elementwise, for the part of the variance ``variance_eval`` gives.

    The caller has already evaluated the variance at ``mu``, which checks
    its domain.
    """
    mu = np.asarray(mu, dtype=float)
    if var.kind == "constant":
        return np.zeros_like(mu)
    if var.kind in ("tweedie", "poisson_tweedie"):
        return var.power * mu ** (var.power - 1.0)
    return var.power * (mu * (1.0 - mu)) ** (var.power - 1.0) * (1.0 - 2.0 * mu)
