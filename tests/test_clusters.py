"""The cluster decomposition of the joint covariance.

Every estimating function, sensitivity and variability is a sum over the
row clusters. These tests compare the clustered evaluation with one
assembled densely over all NR rows, and check the invariances the
decomposition relies on: whole clusters may be reordered, rows inside a
cluster may not (when R > 1 and Omega is not diagonal), an identity-only
model is invariant to any row order, and swapping two responses permutes
the estimates and their covariance the same way.
"""

import dataclasses

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from conftest import (
    PROPERTY_SETTINGS,
    assembled_c,
    build_sigma_r,
    dense_d,
    dense_z,
    make_dataset,
    response_spec,
)
from covglm import _kernels, covariance
from covglm.covariance import (
    DispersionVector,
    RowClusters,
    build_joint_c,
    build_omega,
    rho_pairs,
    sqrt_variance,
)
from covglm.estimator import (
    _evaluate,
    _pearson_pieces,
    _pearson_variability,
    _quasi_pieces,
    cross_blocks,
    fit,
    pearson_fn,
    quasi_score,
)
from covglm.model import MatrixComponent, ModelSpec, bind

def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _partly_crossed_problem(wide=False):
    """R=3 with unequal groups of ``g`` (sizes 1 to 6, rows interleaved) and
    a second grouping ``h`` that is mostly singletons but shares three
    levels across groups of ``g``, merging some of them into one cluster.
    With ``wide``, the third response also has the covariate ``w``, so the
    responses' designs differ in width.
    """
    rng = np.random.default_rng(31)
    sizes = [1, 2, 2, 3, 4, 5, 6, 1, 3, 5]
    g = np.repeat(np.arange(len(sizes)), sizes)
    n = len(g)
    perm = rng.permutation(n)
    g = g[perm]
    h = np.arange(n)
    first = {level: np.flatnonzero(g == level)[0] for level in range(len(sizes))}
    for a, b in ((1, 4), (4, 6), (2, 8)):
        h[first[b]] = h[first[a]]
    x = rng.normal(size=n)
    columns = {
        "x": x,
        "g": np.array([f"g{v}" for v in g], dtype=object),
        "h": np.array([f"h{v}" for v in h], dtype=object),
        "y1": 1.0 + x + rng.normal(size=n),
        "y2": rng.poisson(np.exp(0.5 + 0.4 * x)).astype(float),
        "y3": rng.gamma(2.0, np.exp(0.2 - 0.3 * x) / 2.0),
        "w": rng.uniform(-1.0, 1.0, size=n),
    }
    identity = MatrixComponent("identity")
    spec = ModelSpec(
        responses=(
            response_spec(
                "y1 ~ x", matrix_pred=(identity, MatrixComponent("grouping", "g"))
            ),
            response_spec(
                "y2 ~ x",
                link="log",
                variance="poisson_tweedie",
                matrix_pred=(identity, MatrixComponent("grouping", "h")),
            ),
            response_spec(
                "y3 ~ x + w" if wide else "y3 ~ x",
                link="log",
                variance="tweedie",
                power=1.7,
            ),
        )
    )
    beta = np.array([0.8, 0.9, 0.45, 0.35, 0.25, -0.2] + [0.15] * wide)
    disp = DispersionVector(
        rho=np.array([0.2, -0.15, 0.1]),
        tau=(np.array([0.9, 0.2]), np.array([0.6, 0.1]), np.array([0.5])),
    )
    return bind(spec, make_dataset(columns)), beta, disp


def _dense_reference(bound, beta, disp):
    """psi, S and V of both estimating functions and S_beta_lambda, from
    the NR x NR joint covariance and its derivatives built in one piece."""
    state = _evaluate(bound, beta, disp)
    n_resp = bound.n_responses
    n = bound.n_obs
    rows = [slice(r * n, (r + 1) * n) for r in range(n_resp)]
    variances = [resp.variance for resp in bound.spec.responses]
    sqrt_vs = [
        sqrt_variance(state.covmodel.mus[r], variances[r], bound.ntrials[r])
        for r in range(n_resp)
    ]
    sigmas = [
        build_sigma_r(
            state.covmodel.mus[r],
            variances[r],
            build_omega(disp.tau[r], [dense_z(c) for c in bound.z_codes[r]]),
            bound.ntrials[r],
        )
        for r in range(n_resp)
    ]
    joint = build_joint_c([sigmas], disp.rho)
    (chols,), (c,) = joint.sigma_chols, assembled_c(joint)
    derivs = []
    for r, s in rho_pairs(n_resp):
        d = np.zeros_like(c)
        d[rows[r], rows[s]] = chols[r] @ chols[s].T
        d[rows[s], rows[r]] = chols[s] @ chols[r].T
        derivs.append(d)
    for r in range(n_resp):
        for codes in bound.z_codes[r]:
            z = dense_z(codes)
            d = np.zeros_like(c)
            d_sigma = sqrt_vs[r][:, None] * z * sqrt_vs[r][None, :]
            d[rows[r], rows[r]] = d_sigma
            half = solve_triangular(chols[r], d_sigma, lower=True)
            white = solve_triangular(chols[r], half.T, lower=True)
            phi = np.tril(white) - 0.5 * np.diag(np.diag(white))
            d_chol = chols[r] @ phi
            for s in range(n_resp):
                if s != r:
                    block = joint.sigma_b[r, s] * (d_chol @ chols[s].T)
                    d[rows[r], rows[s]] = block
                    d[rows[s], rows[r]] = block.T
            derivs.append(d)
    c_inv = np.linalg.inv(c)
    resid = state.resid.ravel()
    d_matrix = dense_d(state.D, [x.shape[1] for x in bound.x])
    u = c_inv @ resid
    var_b = d_matrix.T @ c_inv @ d_matrix
    ws = [c_inv @ b for b in derivs]
    psi_l = np.array([u @ b @ u - np.trace(w) for b, w in zip(derivs, ws)])
    traces = np.array([[np.trace(wi @ wj) for wj in ws] for wi in ws])
    w_diag = np.array([np.diag(w @ c_inv) for w in ws])
    k4 = resid**4 - 3.0 * np.diag(c) ** 2
    var_l = 2.0 * traces + (w_diag * k4) @ w_diag.T
    sens_bl = -np.column_stack([d_matrix.T @ w @ u for w in ws])
    return {
        "psi_b": d_matrix.T @ u,
        "var_b": var_b,
        "psi_l": psi_l,
        "sens_l": -traces,
        "var_l": var_l,
        "sens_bl": sens_bl,
    }


def test_clustered_evaluation_matches_dense_reference():
    # Equal design widths, then y3 ~ x + w: D's blocks then differ in
    # width, and each response's columns must land on its own coefficients.
    for wide in (False, True):
        _check_clustered_evaluation(*_partly_crossed_problem(wide))


def _check_clustered_evaluation(bound, beta, disp):
    clusters = bound.clusters
    sizes = np.concatenate([np.full(len(r), r.shape[1]) for r in clusters.rows])
    assert sum(sizes) == bound.n_obs
    assert len(clusters.rows) >= 3  # unequal sizes: several stacks
    assert max(sizes) > 6  # h merged groups of g
    dense = _dense_reference(bound, beta, disp)
    psi_b, sens_b, var_b = quasi_score(bound, beta, disp)
    psi_l, sens_l, var_l = pearson_fn(bound, beta, disp)
    sens_lb, sens_bl = cross_blocks(bound, beta, disp)
    assert _rel(psi_b, dense["psi_b"]) < 1e-10
    assert _rel(var_b, dense["var_b"]) < 1e-10
    assert _rel(sens_b, -dense["var_b"]) < 1e-10
    assert _rel(psi_l, dense["psi_l"]) < 1e-10
    assert _rel(sens_l, dense["sens_l"]) < 1e-10
    assert _rel(var_l, dense["var_l"]) < 1e-10
    assert _rel(sens_bl, dense["sens_bl"]) < 1e-10
    # S_lambda_beta against the same evaluation with every row in one
    # cluster, which is the dense NR x NR computation.
    n = bound.n_obs
    one = RowClusters(n_obs=n, rows=(np.arange(n)[None, :],))
    bound = dataclasses.replace(bound)  # no cached clusters or Z blocks
    object.__setattr__(bound, "clusters", one)
    one_lb, one_bl = cross_blocks(bound, beta, disp)
    assert _rel(sens_bl, one_bl) < 1e-10
    assert _rel(sens_lb, one_lb) < 1e-10


def test_clusters_keep_row_order_and_cover_every_row():
    bound, _, _ = _partly_crossed_problem()
    clusters = bound.clusters
    seen = np.concatenate([rows.ravel() for rows in clusters.rows])
    assert np.array_equal(np.sort(seen), np.arange(bound.n_obs))
    for rows in clusters.rows:
        assert np.all(np.diff(rows, axis=1) > 0)
    # No Z_d links two rows of different clusters.
    label = np.empty(bound.n_obs, dtype=int)
    start = 0
    for rows in clusters.rows:
        label[rows] = start + np.arange(len(rows))[:, None]
        start += len(rows)
    for codes_r in bound.z_codes:
        for codes in codes_r:
            i, j = np.nonzero(dense_z(codes))
            assert np.array_equal(label[i], label[j])


def test_one_build_factors_the_correlation_once(monkeypatch):
    # Sigma_b depends on rho only: one build factors and inverts it once,
    # however many cluster stacks every estimating function reads it from.
    bound, beta, disp = _partly_crossed_problem()
    assert len(bound.clusters.rows) == 4
    calls = {"cholesky": [], "tril_inverse": []}
    originals = {
        "cholesky": np.linalg.cholesky,
        "tril_inverse": covariance.tril_inverse,
    }

    def counted(name):
        def wrapper(a):
            calls[name].append(a.shape)
            return originals[name](a)

        return wrapper

    monkeypatch.setattr(np.linalg, "cholesky", counted("cholesky"))
    monkeypatch.setattr(covariance, "tril_inverse", counted("tril_inverse"))
    state = _evaluate(bound, beta, disp)
    _quasi_pieces(state)
    _pearson_variability(state, _pearson_pieces(state)[1])
    cross_blocks(bound, beta, disp, state=state)
    for shapes in calls.values():
        assert shapes.count((3, 3)) == 1
        assert len(shapes) == 5  # the four stacks' factors, and Sigma_b


def test_pair_traces_sums_over_clusters():
    rng = np.random.default_rng(4)
    mats = rng.normal(size=(3, 5, 4, 4))
    expected = np.array(
        [
            [sum(np.trace(mats[i, g] @ mats[j, g]) for g in range(5)) for j in range(3)]
            for i in range(3)
        ]
    )
    assert np.allclose(_kernels.pair_traces(mats), expected, rtol=1e-12)


def _grouped_bivariate_columns(seed, n_groups, size):
    """R=2 with identity plus grouping; group rows interleaved, not adjacent."""
    rng = np.random.default_rng(seed)
    n = n_groups * size
    groups = rng.permutation(np.arange(n) % n_groups)
    effect = rng.normal(scale=0.5, size=n_groups)[groups]
    x = rng.normal(size=n)
    return {
        "x": x,
        "g": np.array([f"g{v}" for v in groups], dtype=object),
        "y1": 1.0 + 0.5 * x + effect + rng.normal(size=n),
        "y2": rng.poisson(np.exp(0.4 + 0.3 * x + 0.5 * effect)).astype(float),
    }


GROUPED_SPEC = ModelSpec(
    responses=(
        response_spec(
            "y1 ~ x",
            matrix_pred=(MatrixComponent("identity"), MatrixComponent("grouping", "g")),
        ),
        response_spec(
            "y2 ~ x",
            link="log",
            variance="poisson_tweedie",
            matrix_pred=(MatrixComponent("identity"), MatrixComponent("grouping", "g")),
        ),
    )
)


def _same_fit(a, b, tol=1e-10):
    assert np.max(np.abs(a.beta_hat - b.beta_hat)) <= tol
    assert np.max(np.abs(a.lambda_hat.flatten() - b.lambda_hat.flatten())) <= tol
    scale = np.max(np.abs(a.joint_inverse))
    assert np.max(np.abs(a.joint_inverse - b.joint_inverse)) <= tol * scale


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**16),
    n_groups=st.integers(4, 9),
    size=st.integers(2, 5),
    data=st.data(),
)
def test_fit_invariant_to_cluster_order(seed, n_groups, size, data):
    columns = _grouped_bivariate_columns(seed, n_groups, size)
    order = data.draw(st.permutations(range(n_groups)))
    groups = columns["g"]
    # Whole clusters move; rows inside each keep their relative order.
    rows = np.concatenate(
        [np.flatnonzero(groups == f"g{level}") for level in order]
    )
    base = fit(GROUPED_SPEC, make_dataset(columns))
    moved = fit(GROUPED_SPEC, make_dataset({k: v[rows] for k, v in columns.items()}))
    _same_fit(base, moved)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**16), n_groups=st.integers(4, 9), size=st.integers(2, 5))
def test_fit_equivariant_to_response_order(seed, n_groups, size):
    # C's block (r, s) is Sigma_b[r, s] L_r L_s^T, so swapping the two
    # responses permutes C's block rows and columns and nothing else.
    data = make_dataset(_grouped_bivariate_columns(seed, n_groups, size))
    base = fit(GROUPED_SPEC, data)
    swapped = fit(ModelSpec(responses=GROUPED_SPEC.responses[::-1]), data)
    k = base.n_beta
    first, second = (np.arange(span.start, span.stop) for span in base.beta_spans)
    # Full parameter order (beta_1, beta_2, rho_12, tau_1, tau_2).
    perm = np.concatenate([second, first, [k], [k + 3, k + 4], [k + 1, k + 2]])
    theta = np.concatenate([base.beta_hat, base.lambda_hat.flatten()])
    swapped_theta = np.concatenate([swapped.beta_hat, swapped.lambda_hat.flatten()])
    assert np.max(np.abs(swapped_theta - theta[perm])) <= 1e-10
    assert abs(swapped.lambda_hat.rho[0] - base.lambda_hat.rho[0]) <= 1e-10
    expected = base.joint_inverse[np.ix_(perm, perm)]
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(swapped.joint_inverse - expected)) <= 1e-10 * scale


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**16), n=st.integers(12, 40), data=st.data())
def test_identity_only_fit_invariant_to_row_order(seed, n, data):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    columns = {
        "x": x,
        "y1": 1.0 + 0.5 * x + rng.normal(size=n),
        "y2": rng.poisson(np.exp(0.4 + 0.3 * x)).astype(float),
        "y3": rng.gamma(2.0, np.exp(0.2 - 0.3 * x) / 2.0),
    }
    spec = ModelSpec(
        responses=(
            response_spec("y1 ~ x"),
            response_spec("y2 ~ x", link="log", variance="poisson_tweedie"),
            response_spec("y3 ~ x", link="log", variance="tweedie", power=1.5),
        )
    )
    rows = np.array(data.draw(st.permutations(range(n))))
    base = fit(spec, make_dataset(columns))
    moved = fit(spec, make_dataset({k: v[rows] for k, v in columns.items()}))
    _same_fit(base, moved)
