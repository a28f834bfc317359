import dataclasses

import numpy as np
import pytest

from conftest import gaussian_spec, make_dataset, response_spec
from covglm.covariance import DispersionVector
from covglm.errors import DomainError, NotPositiveDefinite, RankError
from covglm.estimator import FitOptions, _halved_step, fit, pearson_fn
from covglm.model import MatrixComponent, ModelSpec, bind


def test_halved_step_passes_through_feasible_steps():
    value, halvings = _halved_step(lambda v: v, np.array([1.0]), np.array([0.5]), 1)
    assert halvings == 0
    assert value[0] == 1.5


def test_halved_step_shrinks_until_feasible():
    def evaluate(point):
        if point[0] <= 0:
            raise NotPositiveDefinite("outside the cone")
        return point

    # Start at 1.0; a step of -15.9 needs four halvings to land positive.
    value, halvings = _halved_step(evaluate, np.array([1.0]), np.array([-15.9]), 3)
    assert halvings == 4
    assert value[0] == pytest.approx(1.0 - 15.9 / 16.0)


def test_halved_step_aborts_after_ten_halvings():
    def evaluate(point):
        raise NotPositiveDefinite("never feasible")

    with pytest.raises(NotPositiveDefinite, match="iteration 7"):
        _halved_step(evaluate, np.array([1.0]), np.array([1.0]), 7)


def test_boundary_correlation_fit_survives():
    # Nearly duplicated responses push the fitted correlation against 1;
    # the post-fit sensitivity blocks are closed form at the solution, so
    # nothing is evaluated outside the feasible region.
    rng = np.random.default_rng(60)
    n = 80
    x = rng.normal(size=n)
    y1 = 1.0 + 0.5 * x + rng.normal(size=n)
    y2 = y1 + 1e-3 * rng.normal(size=n)
    data = make_dataset({"y1": y1, "y2": y2, "x": x})
    model = fit(gaussian_spec("y1 ~ x", "y2 ~ x"), data)
    assert model.converged
    assert model.lambda_hat.rho[0] > 0.999
    assert np.isfinite(model.joint_inverse).all()


def test_dispersion_root_matches_independent_solver():
    # The chaser's dispersion estimate must be a root of the raw trace
    # equations; check it against a general-purpose solver run on the
    # Pearson function directly (independent of the Newton path).
    from scipy.optimize import root

    rng = np.random.default_rng(71)
    n = 90
    groups = np.array([f"g{i % 6}" for i in range(n)], dtype=object)
    shared = rng.normal(scale=0.9, size=6)[[int(g[1:]) for g in groups]]
    x = rng.normal(size=n)
    y = 0.4 + 0.8 * x + shared + rng.normal(size=n)
    data = make_dataset({"y": y, "x": x, "g": groups})
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
    model = fit(spec, data, FitOptions(tol=1e-10, max_iter=200))
    assert model.converged
    bound = bind(spec, data)

    def equations(tau):
        disp = DispersionVector(rho=np.zeros(0), tau=(np.asarray(tau),))
        try:
            psi, _, _ = pearson_fn(bound, model.beta_hat, disp)
        except NotPositiveDefinite:
            return np.full(len(tau), 1e8)
        return psi

    # Same starting point the fitter uses; the solution path is hybrid
    # Powell rather than the alternating Newton updates.
    solved = root(equations, x0=np.array([1.0, 0.1]), tol=1e-12)
    assert solved.success
    assert np.max(np.abs(solved.x - model.lambda_hat.tau[0])) < 1e-6


def test_singular_newton_system_is_a_typed_error():
    # Two identical Z_d (bind rejects these; a hand-built bound model does
    # not) make the Pearson Newton system exactly singular.
    rng = np.random.default_rng(6)
    n = 40
    x = rng.normal(size=n)
    data = make_dataset({"y": 1.0 + x + rng.normal(size=n), "x": x})
    bound = bind(gaussian_spec("y ~ x"), data)
    bound = dataclasses.replace(
        bound, z_codes=((np.arange(n), np.arange(n)),), z_gram=np.full((2, 2), float(n))
    )
    with pytest.raises(RankError, match="dispersion Newton system is singular"):
        fit(bound, None)


def test_overflowing_fourth_cumulant_is_a_domain_error():
    # r^4 in V_lambda's fourth-cumulant term overflows for residuals of
    # order 1e77; the sandwich solve rejects it instead of returning NaN.
    rng = np.random.default_rng(0)
    x = rng.normal(size=40)
    data = make_dataset({"y": 1e77 * (1.0 + x + rng.normal(size=40)), "x": x})
    with pytest.raises(DomainError, match="sandwich system has non-finite entries"):
        fit(gaussian_spec("y ~ x"), data, FitOptions(max_iter=5))


def test_separated_binary_data_aborts_with_diagnostics():
    # Perfect separation has no finite root; the coefficient updates run
    # the means into the saturated link until halving gives up.
    rng = np.random.default_rng(9)
    n = 60
    x = np.concatenate([rng.uniform(-3, -0.5, n // 2), rng.uniform(0.5, 3, n // 2)])
    y = (x > 0).astype(float)
    data = make_dataset({"y": y, "x": x})
    spec = ModelSpec(
        responses=(response_spec("y ~ x", link="logit", variance="binomialP"),)
    )
    with pytest.raises(NotPositiveDefinite, match="step halving exhausted"):
        fit(spec, data)


def test_underdispersed_counts_hit_interior_boundary():
    # Near-deterministic counts drive the dispersion toward the edge of
    # the positive-definite region (roughly -1 for this structure); the
    # fit must converge to a value inside it.
    rng = np.random.default_rng(62)
    n = 100
    x = rng.normal(size=n)
    y = np.round(np.exp(1.6 + 0.05 * x)).astype(float)
    data = make_dataset({"y": y, "x": x})
    spec = ModelSpec(
        responses=(response_spec("y ~ x", link="log", variance="poisson_tweedie"),)
    )
    model = fit(spec, data)
    assert model.converged
    assert -1.0 < model.lambda_hat.tau[0][0] < -0.9
