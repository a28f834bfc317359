import numpy as np
import pytest

from conftest import (
    assert_valid_godambe,
    gaussian_spec,
    make_dataset,
    response_spec,
    simulate_gaussian,
)
from covglm.covariance import DispersionVector
from covglm.errors import RankError
from covglm.estimator import (
    FitOptions,
    beta_labels,
    cross_blocks,
    fit,
    parameter_label,
    pearson_fn,
    quasi_score,
    rho_labels,
    tau_labels,
)
from covglm.model import MatrixComponent, ModelSpec, bind


def ols(design, y):
    coefs = np.linalg.solve(design.T @ design, design.T @ y)
    rss = float(np.sum((y - design @ coefs) ** 2))
    return coefs, rss


def test_labels():
    assert parameter_label("beta", 1, 0) == "beta10"
    assert parameter_label("beta", 1, 12) == "beta1_12"
    assert parameter_label("tau", 2, 1) == "tau21"
    assert rho_labels(3) == ["rho12", "rho13", "rho23"]
    assert tau_labels([2, 1]) == ["tau10", "tau11", "tau20"]


def test_fit_options_validation():
    with pytest.raises(ValueError):
        FitOptions(max_iter=0)
    with pytest.raises(ValueError):
        FitOptions(tol=0.0)
    with pytest.raises(ValueError):
        FitOptions(alpha=1.5)


def test_quasi_score_is_least_squares_score():
    data, design, y = simulate_gaussian(0)
    bound = bind(gaussian_spec("y ~ x1 + x2 + x3"), data)
    beta = np.array([0.3, -0.2, 0.5, 0.1])
    disp = DispersionVector(rho=np.zeros(0), tau=(np.array([1.0]),))
    psi, sens, var = quasi_score(bound, beta, disp)
    assert np.allclose(psi, design.T @ (y - design @ beta))
    assert np.allclose(sens, -var)
    # At the least-squares solution the quasi-score vanishes.
    coefs, _ = ols(design, y)
    psi_hat, _, _ = quasi_score(bound, coefs, disp)
    assert np.max(np.abs(psi_hat)) < 1e-9


def test_pearson_root_is_mean_squared_residual():
    data, design, y = simulate_gaussian(1)
    bound = bind(gaussian_spec("y ~ x1 + x2 + x3"), data)
    coefs, rss = ols(design, y)
    n = len(y)
    disp_hat = DispersionVector(rho=np.zeros(0), tau=(np.array([rss / n]),))
    psi, sens, var = pearson_fn(bound, coefs, disp_hat)
    assert abs(psi[0]) < 1e-8
    # Off the root the function is nonzero with the right sign.
    psi_low, _, _ = pearson_fn(
        bound, coefs, DispersionVector(rho=np.zeros(0), tau=(np.array([rss / n / 2]),))
    )
    assert psi_low[0] > 0


def test_pearson_sensitivity_symmetric_multiparameter():
    rng = np.random.default_rng(9)
    n = 40
    groups = np.array([f"g{i % 5}" for i in range(n)], dtype=object)
    y = rng.normal(size=n)
    data = make_dataset({"y": y, "g": groups, "x": rng.normal(size=n)})
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
    disp = DispersionVector(rho=np.zeros(0), tau=(np.array([1.0, 0.2]),))
    _, sens, var = pearson_fn(bound, np.zeros(2), disp)
    assert np.allclose(sens, sens.T, atol=1e-10)
    assert np.allclose(var, var.T, atol=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gaussian_fit_matches_ols(seed):
    data, design, y = simulate_gaussian(seed)
    model = fit(gaussian_spec("y ~ x1 + x2 + x3"), data)
    coefs, rss = ols(design, y)
    assert model.converged
    assert np.max(np.abs(model.beta_hat - coefs)) < 1e-8
    assert abs(model.lambda_hat.tau[0][0] - rss / len(y)) < 1e-8
    assert_valid_godambe(model)


def test_sandwich_collapses_to_ols_covariance():
    data, design, y = simulate_gaussian(4)
    model = fit(gaussian_spec("y ~ x1 + x2 + x3"), data)
    _, rss = ols(design, y)
    tau = rss / len(y)
    expected = tau * np.linalg.inv(design.T @ design)
    k = design.shape[1]
    assert np.max(np.abs(model.godambe_inv[:k, :k] - expected)) < 1e-6


def test_bivariate_independent_fit_matches_separate_ols():
    rng = np.random.default_rng(12)
    n = 150
    x = rng.normal(size=n)
    y1 = 0.5 + 1.2 * x + rng.normal(size=n)
    y2 = -0.2 + 0.4 * x + rng.normal(size=n)
    data = make_dataset({"y1": y1, "y2": y2, "x": x})
    model = fit(gaussian_spec("y1 ~ x", "y2 ~ x"), data)
    design = np.column_stack([np.ones(n), x])
    b1, _ = ols(design, y1)
    b2, _ = ols(design, y2)
    assert model.converged
    assert np.max(np.abs(model.beta_hat - np.concatenate([b1, b2]))) < 1e-6
    assert_valid_godambe(model)


def test_cross_blocks_shapes_and_symmetric_case():
    rng = np.random.default_rng(3)
    n = 200
    x1, x2 = rng.normal(size=n), rng.normal(size=n)
    y = 0.4 * x1 - 0.8 * x2 + rng.normal(size=n)
    data = make_dataset({"y": y, "x1": x1, "x2": x2})
    spec = gaussian_spec("y ~ x1 + x2")
    model = fit(spec, data)
    bound = bind(spec, data)
    sens_lb, sens_bl = cross_blocks(bound, model.beta_hat, model.lambda_hat)
    assert sens_lb.shape == (1, 3)
    assert sens_bl.shape == (3, 1)
    # Identity link with identity dispersion: both cross sensitivities
    # vanish at the solution (the quasi-score root kills them).
    assert np.max(np.abs(sens_bl)) < 1e-3
    assert np.max(np.abs(sens_lb)) < 1e-3


def test_quasi_sensitivity_in_dispersion_matches_finite_differences():
    # S_beta_lambda = d psi_beta / d lambda, against central differences
    # of the quasi-score at a point away from the root, with a mean-
    # dependent variance in both responses and a grouping component.
    rng = np.random.default_rng(8)
    n = 40
    x = rng.normal(size=n)
    groups = np.array([f"g{i % 8}" for i in range(n)], dtype=object)
    y1 = rng.poisson(np.exp(0.5 + 0.4 * x)).astype(float)
    y2 = rng.gamma(2.0, np.exp(0.2 - 0.3 * x) / 2.0)
    data = make_dataset({"y1": y1, "y2": y2, "x": x, "g": groups})
    grouped = (MatrixComponent("identity"), MatrixComponent("grouping", "g"))
    spec = ModelSpec(
        responses=(
            response_spec(
                "y1 ~ x", link="log", variance="poisson_tweedie", matrix_pred=grouped
            ),
            response_spec("y2 ~ x", link="log", variance="tweedie", power=2.0),
        )
    )
    bound = bind(spec, data)
    beta = np.array([0.45, 0.35, 0.25, -0.2])
    disp = DispersionVector(
        rho=np.array([0.3]), tau=(np.array([0.6, 0.1]), np.array([0.5]))
    )
    _, sens_bl = cross_blocks(bound, beta, disp)
    flat = disp.flatten()
    numeric = np.empty_like(sens_bl)
    for i in range(len(flat)):
        h = 1e-6 * max(1.0, abs(flat[i]))
        plus, minus = flat.copy(), flat.copy()
        plus[i] += h
        minus[i] -= h
        up, _, _ = quasi_score(bound, beta, disp.replace_flat(plus))
        down, _, _ = quasi_score(bound, beta, disp.replace_flat(minus))
        numeric[:, i] = (up - down) / (2.0 * h)
    assert np.max(np.abs(numeric)) > 1e-2
    assert np.linalg.norm(sens_bl - numeric) / np.linalg.norm(numeric) < 1e-6


def _three_response_problem(kinds):
    """R=3 data, spec, an off-root point and correlations away from zero.

    ``kinds`` picks each response from: ``constant`` (identity link,
    grouping Z), ``tweedie`` (log, power 1.7), ``poisson_tweedie`` (log,
    power 1.5, offset, grouping Z) and ``binomialP`` (logit, power 1.3,
    trial counts).
    """
    rng = np.random.default_rng(14)
    n = 36
    x = rng.normal(size=n)
    offset = rng.uniform(-0.3, 0.3, size=n)
    trials = rng.integers(3, 12, size=n).astype(float)
    columns = {
        "x": x,
        "g": np.array([f"g{i % 6}" for i in range(n)], dtype=object),
        "off": offset,
        "m": trials,
        "constant": 1.0 + x + rng.normal(size=n),
        "tweedie": rng.gamma(2.0, np.exp(0.2 - 0.3 * x) / 2.0),
        "poisson_tweedie": rng.poisson(np.exp(0.5 + 0.4 * x + offset)).astype(float),
        "binomialP": rng.binomial(trials.astype(int), 0.4) / trials,
    }
    grouped = (MatrixComponent("identity"), MatrixComponent("grouping", "g"))
    responses = {
        "constant": response_spec("constant ~ x", matrix_pred=grouped),
        "tweedie": response_spec(
            "tweedie ~ x", link="log", variance="tweedie", power=1.7
        ),
        "poisson_tweedie": response_spec(
            "poisson_tweedie ~ x",
            link="log",
            variance="poisson_tweedie",
            power=1.5,
            offset_column="off",
            matrix_pred=grouped,
        ),
        "binomialP": response_spec(
            "binomialP ~ x",
            link="logit",
            variance="binomialP",
            power=1.3,
            ntrial_column="m",
        ),
    }
    betas = {
        "constant": [0.8, 0.9],
        "tweedie": [0.25, -0.2],
        "poisson_tweedie": [0.45, 0.35],
        "binomialP": [-0.3, 0.2],
    }
    taus = {
        "constant": [0.9, 0.2],
        "tweedie": [0.5],
        "poisson_tweedie": [0.6, 0.1],
        "binomialP": [0.8],
    }
    spec = ModelSpec(responses=tuple(responses[k] for k in kinds))
    beta = np.concatenate([betas[k] for k in kinds])
    disp = DispersionVector(
        rho=np.array([0.2, -0.15, 0.1]),
        tau=tuple(np.array(taus[k]) for k in kinds),
    )
    return make_dataset(columns), spec, beta, disp


@pytest.mark.parametrize(
    "kinds",
    [
        ("constant", "tweedie", "poisson_tweedie"),
        ("binomialP", "poisson_tweedie", "constant"),
    ],
    ids=["constant-tweedie-poisson_tweedie", "binomialP-poisson_tweedie-constant"],
)
def test_pearson_sensitivity_in_coefficients_matches_finite_differences(kinds):
    # S_lambda_beta = d psi_lambda / d beta, against central differences of
    # the Pearson function at a point away from the root. The mean moves
    # psi_lambda through the residual, C and every dC/dlambda_i.
    data, spec, beta, disp = _three_response_problem(kinds)
    bound = bind(spec, data)
    sens_lb, _ = cross_blocks(bound, beta, disp)
    numeric = np.empty_like(sens_lb)
    for j in range(len(beta)):
        h = 1e-6 * max(1.0, abs(beta[j]))
        plus, minus = beta.copy(), beta.copy()
        plus[j] += h
        minus[j] -= h
        up, _, _ = pearson_fn(bound, plus, disp)
        down, _, _ = pearson_fn(bound, minus, disp)
        numeric[:, j] = (up - down) / (2.0 * h)
    assert np.max(np.abs(numeric)) > 1e-2
    assert np.linalg.norm(sens_lb - numeric) / np.linalg.norm(numeric) < 1e-6


def test_cross_blocks_reuses_the_fit_state(monkeypatch):
    # fit hands its solution state to cross_blocks, which then builds no
    # covariance and differentiates none.
    from covglm import estimator
    from covglm.covariance import CovarianceModel

    data, spec, _, _ = _three_response_problem(
        ("constant", "tweedie", "poisson_tweedie")
    )
    calls = {"cross_blocks": 0, "build": 0, "derivatives": 0}
    inside = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            if inside:
                calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    def traced_cross_blocks(*args, **kwargs):
        calls["cross_blocks"] += 1
        inside.append(True)
        try:
            return original_cross_blocks(*args, **kwargs)
        finally:
            inside.pop()

    original_cross_blocks = estimator.cross_blocks
    monkeypatch.setattr(estimator, "cross_blocks", traced_cross_blocks)
    for name in ("build", "derivatives"):
        monkeypatch.setattr(
            CovarianceModel, name, counted(name, getattr(CovarianceModel, name))
        )
    fit(spec, data, FitOptions(max_iter=3))
    assert calls == {"cross_blocks": 1, "build": 0, "derivatives": 0}


def test_iterations_form_no_derivative_stack_and_no_assembled_inverse(monkeypatch):
    # The loop works in whitened coordinates; dC/dlambda and C^-1 are formed
    # once, on the solution state, for V_lambda and cross_blocks.
    from covglm import estimator
    from covglm.covariance import CovarianceModel, JointCovariance

    data, spec, _, _ = _three_response_problem(
        ("constant", "tweedie", "poisson_tweedie")
    )
    differentiated = []
    read = []
    solutions = []
    original_derivatives = CovarianceModel.derivatives
    original_inverse = JointCovariance.inverse.func
    original_cross_blocks = estimator.cross_blocks

    def derivatives(self, disp, joint):
        differentiated.append(joint)
        return original_derivatives(self, disp, joint)

    def inverse(self):
        read.append(self)
        return original_inverse(self)

    def traced_cross_blocks(*args, **kwargs):
        solutions.append(kwargs["state"])
        return original_cross_blocks(*args, **kwargs)

    monkeypatch.setattr(CovarianceModel, "derivatives", derivatives)
    monkeypatch.setattr(JointCovariance, "inverse", property(inverse))
    monkeypatch.setattr(estimator, "cross_blocks", traced_cross_blocks)
    model = fit(spec, data, FitOptions(max_iter=3))
    assert model.iterations == 3
    (state,) = solutions
    assert len(differentiated) == 1
    assert differentiated[0] is state.joint
    assert read
    assert all(any(block is solved for solved in state.joint) for block in read)


def test_each_state_factors_and_whitens_once_per_stack(monkeypatch):
    # All responses share each batched call. Per evaluated state and
    # cluster stack, tril_inverse runs twice: once on the (R, G, m, m)
    # factors and once on Sigma_b. The M stacks are formed once per state
    # whose Pearson pieces are read, and the sandwich at the solution
    # reuses the ones formed there.
    from covglm import covariance, estimator
    from covglm.covariance import CovarianceModel

    data, spec, _, _ = _three_response_problem(
        ("constant", "tweedie", "poisson_tweedie")
    )
    evaluated, inverted, formed, solutions = [], [], [], []
    original_evaluate = estimator._evaluate
    original_tril_inverse = covariance.tril_inverse
    original_whitened = CovarianceModel._stack_whitened
    original_cross_blocks = estimator.cross_blocks

    def evaluate(*args):
        state = original_evaluate(*args)
        evaluated.append(state)
        return state

    def tril_inverse(chol):
        inverted.append(chol.shape)
        return original_tril_inverse(chol)

    def stack_whitened(self, k, block):
        formed.append(block)
        return original_whitened(self, k, block)

    def traced_cross_blocks(*args, **kwargs):
        solutions.append(kwargs["state"])
        return original_cross_blocks(*args, **kwargs)

    monkeypatch.setattr(estimator, "_evaluate", evaluate)
    monkeypatch.setattr(covariance, "tril_inverse", tril_inverse)
    monkeypatch.setattr(CovarianceModel, "_stack_whitened", stack_whitened)
    monkeypatch.setattr(estimator, "cross_blocks", traced_cross_blocks)
    model = fit(spec, data, FitOptions(max_iter=3))
    assert model.iterations == 3
    n_stacks = len(evaluated[0].joint)
    assert len(inverted) == 2 * n_stacks * len(evaluated)
    (solution,) = solutions
    assert len(formed) == n_stacks * (model.iterations + 1)
    assert len({id(block) for block in formed}) == len(formed)
    assert sum(block is b for block in formed for b in solution.joint) == n_stacks
    # Each stack's factors are inverted together, all three responses at once.
    shapes = [block.sigma_chols.shape for block in evaluated[0].joint]
    assert all(shape[0] == 3 for shape in shapes)
    assert sorted(inverted) == sorted((shapes + [(3, 3)] * n_stacks) * len(evaluated))


def test_pearson_variability_is_formed_once_per_fit(monkeypatch):
    # The iteration uses psi_lambda and S_lambda only; V_lambda, with its
    # fourth-cumulant term, is formed once, at the solution.
    from covglm import estimator

    calls = []
    original = estimator._pearson_variability

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(estimator, "_pearson_variability", counted)
    data, spec, _, _ = _three_response_problem(
        ("constant", "tweedie", "poisson_tweedie")
    )
    model = fit(spec, data, FitOptions(max_iter=3))
    assert model.iterations == 3
    assert len(calls) == 1


def test_psi_norms_small_at_convergence():
    data, _, _ = simulate_gaussian(6)
    opts = FitOptions()
    model = fit(gaussian_spec("y ~ x1 + x2 + x3"), data, opts)
    assert model.converged
    assert model.psi_beta_norm < 10 * opts.tol
    assert model.psi_lambda_norm < 10 * opts.tol


def test_row_permutation_invariance():
    rng = np.random.default_rng(21)
    n = 90
    groups = np.array([f"g{i % 9}" for i in range(n)], dtype=object)
    x = rng.normal(size=n)
    y = 1.0 + 0.7 * x + rng.normal(size=n)
    columns = {"y": y, "x": x, "g": groups}
    data = make_dataset(columns)
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
    model_a = fit(spec, data)
    perm = rng.permutation(n)
    data_b = make_dataset({k: np.asarray(v)[perm] for k, v in columns.items()})
    model_b = fit(spec, data_b)
    assert np.max(np.abs(model_a.beta_hat - model_b.beta_hat)) < 1e-8
    assert (
        np.max(np.abs(model_a.lambda_hat.flatten() - model_b.lambda_hat.flatten()))
        < 1e-8
    )


def test_covariate_scaling_invariance_end_to_end():
    from covglm.tables import anova

    rng = np.random.default_rng(30)
    n = 80
    x1 = rng.normal(size=n)
    x2 = rng.normal(size=n)
    y = 0.3 + 0.9 * x1 - 0.5 * x2 + rng.normal(size=n)
    base = fit(gaussian_spec("y ~ x1 + x2"), make_dataset({"y": y, "x1": x1, "x2": x2}))
    scaled = fit(
        gaussian_spec("y ~ x1 + x2"),
        make_dataset({"y": y, "x1": 10.0 * x1, "x2": x2}),
    )
    assert scaled.beta_hat[1] == pytest.approx(base.beta_hat[1] / 10.0, rel=1e-8)
    for kind in (1, 2, 3):
        for row_a, row_b in zip(anova(base, kind)[0].rows, anova(scaled, kind)[0].rows):
            assert row_b.statistic == pytest.approx(row_a.statistic, rel=1e-6, abs=1e-9)


def test_rank_deficient_design_names_columns():
    rng = np.random.default_rng(8)
    n = 30
    x1 = rng.normal(size=n)
    data = make_dataset({"y": rng.normal(size=n), "x1": x1, "x2": 2.0 * x1})
    with pytest.raises(RankError, match="x2|x1"):
        fit(gaussian_spec("y ~ x1 + x2"), data)


@pytest.mark.parametrize("scale", [100.0, 0.01])
def test_redundant_column_is_the_later_one_whatever_its_scale(scale):
    # R's aliasing order: the column that adds no rank to those before it.
    rng = np.random.default_rng(9)
    n = 30
    x1 = rng.normal(size=n)
    data = make_dataset({"y": rng.normal(size=n), "x1": x1, "x2": scale * x1})
    with pytest.raises(RankError, match=r"\(rank 2 of 3\); redundant columns: x2$"):
        fit(gaussian_spec("y ~ x1 + x2"), data)


def test_sum_of_earlier_columns_is_the_only_redundant_one():
    rng = np.random.default_rng(10)
    n = 30
    x1, x2 = rng.normal(size=(2, n))
    data = make_dataset({"y": rng.normal(size=n), "x1": x1, "x2": x2, "x3": x1 + x2})
    with pytest.raises(RankError, match=r"\(rank 3 of 4\); redundant columns: x3$"):
        fit(gaussian_spec("y ~ x1 + x2 + x3"), data)


def test_non_convergence_is_flagged_not_raised():
    data, _, _ = simulate_gaussian(5)
    model = fit(gaussian_spec("y ~ x1 + x2 + x3"), data, FitOptions(max_iter=1))
    assert not model.converged
    assert model.iterations == 1


def test_alpha_damping_still_converges():
    data, design, y = simulate_gaussian(7)
    model = fit(
        gaussian_spec("y ~ x1 + x2 + x3"),
        data,
        FitOptions(alpha=0.5, max_iter=200, tol=1e-8),
    )
    coefs, rss = ols(design, y)
    assert model.converged
    assert abs(model.lambda_hat.tau[0][0] - rss / len(y)) < 1e-6


def test_offset_is_additive_on_link_scale():
    rng = np.random.default_rng(40)
    n = 120
    x = rng.normal(size=n)
    offset = rng.uniform(0.5, 1.5, size=n)
    y = 2.0 + 0.5 * x + offset + rng.normal(scale=0.4, size=n)
    data = make_dataset({"y": y, "x": x, "off": offset})
    spec = ModelSpec(responses=(response_spec("y ~ x", offset_column="off"),))
    model = fit(spec, data)
    design = np.column_stack([np.ones(n), x])
    coefs, _ = ols(design, y - offset)
    assert np.max(np.abs(model.beta_hat - coefs)) < 1e-8


def test_logit_binomial_with_trials():
    rng = np.random.default_rng(41)
    n = 200
    x = rng.normal(size=n)
    trials = rng.integers(5, 40, size=n).astype(float)
    prob = 1.0 / (1.0 + np.exp(-(-0.3 + 0.8 * x)))
    y = rng.binomial(trials.astype(int), prob) / trials
    data = make_dataset({"y": y, "x": x, "m": trials})
    spec = ModelSpec(
        responses=(
            response_spec(
                "y ~ x", link="logit", variance="binomialP", ntrial_column="m"
            ),
        )
    )
    model = fit(spec, data)
    assert model.converged
    assert abs(model.beta_hat[1] - 0.8) < 0.2
    assert_valid_godambe(model)


def test_count_log_link_fit():
    rng = np.random.default_rng(42)
    n = 250
    x = rng.normal(size=n)
    y = rng.poisson(np.exp(0.6 + 0.5 * x)).astype(float)
    data = make_dataset({"y": y, "x": x})
    spec = ModelSpec(
        responses=(response_spec("y ~ x", link="log", variance="poisson_tweedie"),),
    )
    model = fit(spec, data)
    assert model.converged
    assert abs(model.beta_hat[1] - 0.5) < 0.15
    assert_valid_godambe(model)


def test_trace_file_written(tmp_path):
    data, _, _ = simulate_gaussian(10)
    path = tmp_path / "trace.log"
    fit(gaussian_spec("y ~ x1 + x2 + x3"), data, FitOptions(trace_path=str(path)))
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("iter")
    assert len(lines) >= 2


def test_beta_label_layout(factorial_fit):
    labels = beta_labels(factorial_fit.design)
    assert labels[0] == "beta10"
    assert labels[18] == "beta1_18"
    assert labels[19] == "beta20"
    assert len(labels) == 57
