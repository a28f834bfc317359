import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    PROPERTY_SETTINGS,
    assembled_c,
    assembled_inverse,
    build_sigma_r,
    dense_d,
    stacked_index,
)
from covglm import covariance
from covglm.covariance import (
    CovarianceModel,
    DispersionVector,
    RowClusters,
    build_joint_c,
    build_omega,
    _phi,
    correlation_matrix,
    rho_pairs,
)
from covglm.errors import NotPositiveDefinite
from covglm.families import VarianceFn
from covglm.model import grouping_matrix


def test_build_omega_scales_identity():
    assert np.allclose(build_omega([2.0], [np.eye(3)]), 2.0 * np.eye(3))


def test_build_omega_linearity():
    z_group = np.kron(np.eye(2), np.ones((2, 2)))
    omega = build_omega([1.0, 0.5], [np.eye(4), z_group])
    assert np.allclose(omega, np.eye(4) + 0.5 * z_group)


def test_build_omega_zero():
    assert np.allclose(build_omega([0.0, 0.0], [np.eye(3), np.ones((3, 3))]), 0.0)


def test_build_omega_length_mismatch():
    with pytest.raises(ValueError):
        build_omega([1.0], [np.eye(2), np.eye(2)])


def test_sigma_constant_variance_passes_omega_through():
    omega = 1.7 * np.eye(4)
    sigma = build_sigma_r(np.full(4, 9.0), VarianceFn("constant"), omega)
    assert np.allclose(sigma, omega)


def test_sigma_poisson_tweedie_adds_mean_diagonal():
    mu = np.array([1.0, 2.0])
    omega = 0.5 * np.eye(2)
    sigma = build_sigma_r(mu, VarianceFn("poisson_tweedie", 2.0), omega)
    assert np.allclose(sigma, np.diag([1.5, 4.0]))


def test_sigma_tweedie_power_two():
    sigma = build_sigma_r(np.array([2.0]), VarianceFn("tweedie", 2.0), np.array([[3.0]]))
    assert sigma[0, 0] == pytest.approx(12.0)


def test_sigma_ntrial_scaling():
    mu = np.array([0.5, 0.5])
    omega = np.eye(2)
    full = build_sigma_r(mu, VarianceFn("binomialP", 1.0), omega)
    scaled = build_sigma_r(mu, VarianceFn("binomialP", 1.0), omega, np.array([5.0, 10.0]))
    assert np.allclose(np.diag(scaled), np.diag(full) / np.array([5.0, 10.0]))


def test_joint_c_single_response_is_sigma():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(5, 5))
    sigma = a @ a.T + 5 * np.eye(5)
    joint = build_joint_c([[sigma]], np.zeros(0))
    assert np.allclose(assembled_c(joint)[0], sigma)


def test_joint_c_zero_correlation_is_block_diagonal():
    rng = np.random.default_rng(1)
    sigmas = []
    for _ in range(2):
        a = rng.normal(size=(4, 4))
        sigmas.append(a @ a.T + 4 * np.eye(4))
    joint = build_joint_c([sigmas], np.zeros(1))
    expected = np.zeros((8, 8))
    expected[:4, :4] = sigmas[0]
    expected[4:, 4:] = sigmas[1]
    assert np.allclose(assembled_c(joint)[0], expected, atol=1e-12)


def test_joint_c_identity_blocks_with_correlation():
    # With unit per-response covariances the joint matrix is the
    # correlation pattern expanded over identity blocks.
    n = 6
    joint = build_joint_c([[np.eye(n), np.eye(n)]], np.array([0.3]))
    expected = np.block([[np.eye(n), 0.3 * np.eye(n)], [0.3 * np.eye(n), np.eye(n)]])
    assert np.allclose(assembled_c(joint)[0], expected)


def test_joint_c_not_positive_definite_names_response():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(NotPositiveDefinite, match="response 2"):
        build_joint_c([[np.eye(2), bad]], np.zeros(1))


def _stack_with_indefinite(responses):
    """An R=3, G=4, m=3 stack of Sigma_r blocks, positive definite except
    cluster 2 of each response numbered in ``responses``."""
    rng = np.random.default_rng(21)
    a = rng.normal(size=(3, 4, 3, 3))
    sigmas = a @ np.swapaxes(a, -1, -2) + 3.0 * np.eye(3)
    for r in responses:
        sigmas[r - 1, 1] = [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    return sigmas


@pytest.mark.parametrize("responses, named", [((2,), 2), ((2, 3), 2), ((3,), 3)])
def test_batched_factorisation_names_first_indefinite_response(responses, named):
    # Every response is factored in one call; a failure names the first
    # response with an indefinite block, as one call per response would.
    with pytest.raises(
        NotPositiveDefinite, match=f"covariance of response {named} is not positive"
    ):
        build_joint_c([_stack_with_indefinite(responses)], np.zeros(3))


def test_batched_factorisation_of_definite_stack_matches_per_response():
    sigmas = _stack_with_indefinite(())
    joint = build_joint_c([sigmas], np.array([0.1, -0.2, 0.3]))
    (chols,) = joint.sigma_chols
    assert chols.shape == (3, 4, 3, 3)
    for chol, sigma in zip(chols, sigmas):
        assert np.array_equal(chol, np.linalg.cholesky(sigma))


def test_non_finite_covariance_fails_before_any_factorisation(monkeypatch):
    # R=3 on four clusters of three rows: an infinite mean leaves Sigma_2
    # non-finite, and build rejects it before np.linalg.cholesky runs.
    n = 12
    codes = (np.arange(n), np.arange(n) // 3)
    mus = [np.linspace(1.0, 2.0, n) for _ in range(3)]
    mus[1][4] = np.inf
    model = _coded_model(mus, [VarianceFn("tweedie", 1.5)] * 3, [None] * 3, [codes] * 3)
    disp = DispersionVector(rho=np.zeros(3), tau=(np.array([1.0, 0.2]),) * 3)
    factored = []
    original = np.linalg.cholesky

    def cholesky(a):
        factored.append(a)
        return original(a)

    monkeypatch.setattr(np.linalg, "cholesky", cholesky)
    with pytest.raises(NotPositiveDefinite, match="non-finite entries"):
        model.build(disp)
    assert factored == []


def test_joint_c_bad_correlation():
    with pytest.raises(NotPositiveDefinite, match="correlation"):
        build_joint_c([[np.eye(2), np.eye(2)]], np.array([1.2]))


def test_rho_pair_order():
    assert rho_pairs(3) == [(0, 1), (0, 2), (1, 2)]
    sigma_b = correlation_matrix(np.array([0.1, 0.2, 0.3]), 3)
    assert sigma_b[0, 1] == 0.1
    assert sigma_b[0, 2] == 0.2
    assert sigma_b[1, 2] == 0.3


def _random_covariance_model(
    rng, n_responses, n_z, n=7, kinds=None, with_ntrials=False, grouped=False
):
    """A random PD covariance model and dispersion point.

    ``kinds`` fixes the variance kind per response (cycled by default);
    ``with_ntrials`` draws binomial trial counts; ``grouped`` makes the
    second matrix a grouping Z (rows in groups of at most three, given as
    level codes and split into row clusters) instead of a random symmetric
    one, which links every row into one cluster; the taus keep every case
    positive definite.
    """
    if kinds is None:
        cycle = ["constant", "tweedie", "poisson_tweedie"]
        kinds = [cycle[(r + n_z) % 3] for r in range(n_responses)]
    mus = []
    variances = []
    ntrials = []
    z_lists = []
    z_codes = []
    for r in range(n_responses):
        if kinds[r] == "binomialP":
            mus.append(rng.uniform(0.1, 0.9, size=n))
        else:
            mus.append(rng.uniform(0.5, 3.0, size=n))
        variances.append(VarianceFn(kinds[r], 1.0))
        ntrials.append(
            rng.integers(1, 10, size=n).astype(float) if with_ntrials else None
        )
        zs = [np.eye(n)]
        codes = [np.arange(n)]
        for _ in range(n_z - 1):
            if grouped:
                codes.append(grouping_matrix(rng.permutation(n) // 3))
            else:
                a = rng.normal(size=(n, n))
                zs.append(0.1 * (a + a.T))
        z_lists.append(tuple(zs))
        z_codes.append(tuple(codes))
    taus = []
    for _ in range(n_responses):
        t = rng.uniform(-0.15, 0.15, size=n_z)
        t[0] = rng.uniform(0.8, 2.0)
        taus.append(t)
    rho = rng.uniform(-0.4, 0.4, size=n_responses * (n_responses - 1) // 2)
    if grouped:
        model = _coded_model(mus, variances, ntrials, z_codes)
    else:
        model = _one_cluster_model(mus, variances, ntrials, z_lists)
    disp = DispersionVector(rho=rho, tau=tuple(taus))
    return model, disp


def _coded_model(mus, variances, ntrials, z_codes):
    """A covariance model over the row clusters of level-coded Z_d."""
    clusters = RowClusters.of(tuple(z_codes))
    return CovarianceModel(
        mus=tuple(mus),
        variances=tuple(variances),
        ntrials=tuple(ntrials),
        z_blocks=clusters.z_blocks(tuple(z_codes)),
        owner=_owner(z_codes),
        clusters=clusters,
    )


def _one_cluster_model(mus, variances, ntrials, z_lists):
    """A covariance model of arbitrary dense N x N Z_d, all rows one cluster."""
    n = len(mus[0])
    clusters = RowClusters(n_obs=n, rows=(np.arange(n)[None, :],))
    return CovarianceModel(
        mus=tuple(mus),
        variances=tuple(variances),
        ntrials=tuple(ntrials),
        z_blocks=(np.stack([z for zs in z_lists for z in zs])[:, None],),
        owner=_owner(z_lists),
        clusters=clusters,
    )


def _owner(per_response):
    """The response of every Z_d, in flat tau order."""
    return np.repeat(np.arange(len(per_response)), [len(z) for z in per_response])


def _scatter(model, stacks):
    """Dense (..., NR, NR) matrices from per-stack blocks (..., G, mR, mR)."""
    clusters = model.clusters
    dim = model.n_responses * clusters.n_obs
    out = np.zeros(stacks[0].shape[:-3] + (dim, dim))
    for rows, stack in zip(clusters.rows, stacks):
        idx = stacked_index(rows, model.n_responses, clusters.n_obs)
        out[..., idx[:, :, None], idx[:, None, :]] = stack
    return out


def _dense_c(model, disp):
    """The NR x NR joint covariance, scattered from its cluster blocks."""
    return _scatter(model, assembled_c(model.build(disp)))


def _derivative_stack(chols, sigma_b, ms, owner):
    """dC/dlambda_i = B A_i B^T of every cluster of a stack, (q, G, mR, mR),
    from the whitened tau derivatives M that ``derivatives`` returns:
    A_i = (E_rs + E_sr) kron I for rho_rs, and for tau of response r,
    P Sigma_b[r, t] in block (r, t) plus its transpose in (t, r), P = Phi(M).
    """
    n_resp, g, m, _ = chols.shape
    whitened = []
    for r, s in rho_pairs(n_resp):
        a = np.zeros((n_resp, n_resp, g, m, m))
        a[r, s] = a[s, r] = np.eye(m)
        whitened.append(a)
    for r, p in zip(owner, _phi(ms)):
        a = np.zeros((n_resp, n_resp, g, m, m))
        a[r] += sigma_b[r][:, None, None, None] * p
        a[:, r] += sigma_b[:, r, None, None, None] * np.swapaxes(p, -1, -2)
        whitened.append(a)
    # Block (a, t) of B A B^T is L_a A[a, t] L_t^T.
    products = chols[:, None] @ np.array(whitened) @ np.swapaxes(chols, -1, -2)[None, :]
    out = np.moveaxis(products, (1, 2), (-4, -2))
    return out.reshape(len(whitened), g, n_resp * m, n_resp * m)


def _derivative_stacks(model, joint):
    """Per cluster stack, the (q, G, mR, mR) dC/dlambda blocks."""
    return [
        _derivative_stack(chols, joint.sigma_b, ms, model.owner)
        for chols, ms in zip(joint.sigma_chols, model.derivatives(joint))
    ]


def _dense_derivatives(model, disp, joint=None):
    """(q, NR, NR) dC/dlambda, scattered from its cluster blocks."""
    if joint is None:
        joint = model.build(disp)
    return _scatter(model, _derivative_stacks(model, joint))


def _finite_difference_derivs(model, disp, step=1e-6):
    flat = disp.flatten()
    out = []
    for i in range(len(flat)):
        plus = flat.copy()
        plus[i] += step
        minus = flat.copy()
        minus[i] -= step
        c_plus = _dense_c(model, disp.replace_flat(plus))
        c_minus = _dense_c(model, disp.replace_flat(minus))
        out.append((c_plus - c_minus) / (2 * step))
    return out


@pytest.mark.parametrize(
    "n_responses,n_z,options",
    [
        pytest.param(1, 1, {}, id="1-1"),
        pytest.param(1, 2, {}, id="1-2"),
        pytest.param(2, 1, {}, id="2-1"),
        pytest.param(2, 2, {}, id="2-2"),
        pytest.param(3, 1, {}, id="3-1"),
        pytest.param(3, 2, {}, id="3-2"),
        pytest.param(
            2, 2, {"kinds": ["poisson_tweedie"] * 2}, id="poisson_tweedie"
        ),
        pytest.param(
            2,
            2,
            {"kinds": ["binomialP", "tweedie"], "with_ntrials": True},
            id="binomialP-ntrials",
        ),
        pytest.param(
            3,
            2,
            {"kinds": ["tweedie", "poisson_tweedie", "constant"], "grouped": True},
            id="grouping",
        ),
    ],
)
def test_derivatives_match_finite_differences(n_responses, n_z, options):
    rng = np.random.default_rng(100 * n_responses + n_z)
    for _ in range(3):
        model, disp = _random_covariance_model(rng, n_responses, n_z, **options)
        analytic = _dense_derivatives(model, disp)
        numeric = _finite_difference_derivs(model, disp)
        assert len(analytic) == disp.n_free
        for a, b in zip(analytic, numeric):
            assert np.allclose(a, a.T, atol=1e-8)
            denom = max(np.linalg.norm(b), 1e-12)
            assert np.linalg.norm(a - b) / denom < 1e-4


def test_derivatives_rebuild_no_covariance(monkeypatch):
    rng = np.random.default_rng(11)
    model, disp = _random_covariance_model(rng, 3, 2)
    joint = model.build(disp)
    calls = []
    original = CovarianceModel.build

    def counting_build(self, d):
        calls.append(d)
        return original(self, d)

    monkeypatch.setattr(CovarianceModel, "build", counting_build)
    derivs = _dense_derivatives(model, disp, joint)
    assert len(derivs) == disp.n_free
    assert calls == []


def test_per_response_factors_inverted_once(monkeypatch):
    # derivatives and then mean_gradient on one evaluated state share the
    # per-response inverses L_r^-1: one inversion of each stack's (R, G,
    # m, m) factors, not two, and one of the Sigma_b factor for them all,
    # which the build makes when it forms K.
    rng = np.random.default_rng(12)
    model, disp = _random_covariance_model(rng, 3, 2, grouped=True)
    inverted = []
    original = covariance.tril_inverse

    def counting_inverse(a):
        inverted.append(a)
        return original(a)

    monkeypatch.setattr(covariance, "tril_inverse", counting_inverse)
    joint = model.build(disp)
    ms = model.derivatives(joint)
    shapes = [chols.shape[:-1] for chols in joint.sigma_chols]
    residuals = [(rng.normal(size=shape),) * 2 for shape in shapes]
    weights = [rng.normal(size=(disp.n_free,) + shape) for shape in shapes]
    model.mean_gradient(disp, joint, ms, residuals, weights)
    factors = list(joint.sigma_chols)
    assert len(inverted) == len(factors) + 1
    (chol_b,) = [a for a in inverted if not any(a is f for f in factors)]
    np.testing.assert_array_equal(chol_b, np.linalg.cholesky(joint.sigma_b))


def test_build_and_inverse_factor_only_per_response(monkeypatch):
    # C^-1 comes from the factors of Sigma_b and of every Sigma_r: one
    # Cholesky call per stack on its (R, G, m, m) Sigma_r, one on Sigma_b
    # for all stacks, and no general inverse; the joint (G, mR, mR) stack
    # is never factored.
    n = 7
    codes = (np.arange(n), np.arange(n) // 3)
    model = _coded_model(
        [np.linspace(1.0, 2.0, n), np.linspace(0.5, 1.5, n)],
        [VarianceFn("tweedie", 1.0), VarianceFn("poisson_tweedie", 1.0)],
        [None, None],
        [codes, codes],
    )
    disp = DispersionVector(rho=np.array([0.3]), tau=(np.array([1.0, 0.2]),) * 2)
    shapes = {"cholesky": [], "inv": []}
    for name in shapes:

        def counting(a, _name=name, _original=getattr(np.linalg, name)):
            shapes[_name].append(a.shape)
            return _original(a)

        monkeypatch.setattr(np.linalg, name, counting)
    joint = model.build(disp)
    assembled_inverse(joint)
    assert len(joint.sigma_chols) == 2
    assert shapes["inv"] == []
    expected = [chols.shape for chols in joint.sigma_chols]
    assert sorted(shapes["cholesky"]) == sorted(expected + [(2, 2)])


@pytest.mark.parametrize("shape", [(1, 1), (4,), (3, 1), (50, 6), (2, 33), (80,)])
def test_tril_inverse_matches_general_inverse(shape):
    # Sizes on both sides of the row-block split.
    *lead, m = shape
    rng = np.random.default_rng(m)
    a = rng.normal(size=tuple(lead) + (m, m))
    chol = np.linalg.cholesky(a @ np.swapaxes(a, -1, -2) + m * np.eye(m))
    expected = np.linalg.inv(chol)
    got = covariance.tril_inverse(chol)
    assert np.array_equal(got, np.tril(got))
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


_KINDS = ["constant", "tweedie", "poisson_tweedie", "binomialP"]


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**16),
    kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=4),
    grouped=st.booleans(),
)
def test_structured_inverse_inverts_c(seed, kinds, grouped):
    # For R = 1-4, every variance kind and identity or grouped Z:
    # B^-T (Sigma_b^-1 kron I) B^-1 times C is I, and the triangular
    # inverses of the per-response factors agree with a general inverse.
    rng = np.random.default_rng(seed)
    model, disp = _random_covariance_model(
        rng,
        len(kinds),
        2 if grouped else 1,
        kinds=kinds,
        with_ntrials="binomialP" in kinds,
        grouped=grouped,
    )
    # |rho| <= 0.2 keeps Sigma_b diagonally dominant, so positive definite.
    disp = DispersionVector(rho=0.5 * disp.rho, tau=disp.tau)
    joint = model.build(disp)
    references = zip(assembled_c(joint), assembled_inverse(joint))
    for (c, c_inv), chols, chol_invs in zip(
        references, joint.sigma_chols, joint.sigma_chol_invs
    ):
        assert np.abs(c_inv @ c - np.eye(c.shape[-1])).max() <= 1e-12
        for chol, chol_inv in zip(chols, chol_invs):
            expected = np.linalg.inv(chol)
            assert np.abs(chol_inv - expected).max() <= 1e-12 * np.abs(expected).max()


def _stack_sandwich_oracle(state):
    """The Pearson pieces and the sandwich terms from the (q, G, mR, mR)
    stacks B_i = dC/dlambda_i, with each cluster's C assembled and solved.

    Returns psi_lambda_i = u^T B_i u - tr W_i, S_lambda[i, j] = -tr(W_i W_j)
    and V_lambda = 2 tr(W_i W_j) + sum_l F_i,ll k4_l F_j,ll, where
    W_i = C^-1 B_i, F_i = W_i C^-1, u = C^-1 r and k4 = r^4 - 3 diag(C)^2;
    S_beta_lambda, whose column i is -D^T F_i r; and the largest
    single-cluster term of each psi_lambda_i.
    """
    q = state.disp.n_free
    psi, sens, largest = np.zeros(q), np.zeros((q, q)), np.zeros(q)
    k4_term = np.zeros((q, q))
    d_matrix = dense_d(state.D, state.columns.sum(axis=1))
    sens_bl = np.zeros((d_matrix.shape[1], q))
    stacks = _derivative_stacks(state.covmodel, state.joint)
    clusters = state.covmodel.clusters
    for rows, c, stack in zip(clusters.rows, assembled_c(state.joint), stacks):
        idx = stacked_index(rows, len(state.D), clusters.n_obs)
        resid = state.resid.ravel()[idx]
        u = np.linalg.solve(c, resid[..., None])[..., 0]
        w = np.linalg.solve(c, stack)
        f = np.linalg.solve(c, np.swapaxes(w, -1, -2))
        quad = np.einsum("gi,qgij,gj->qg", u, stack, u)
        trace = np.einsum("qgii->qg", w)
        psi += (quad - trace).sum(axis=1)
        sens -= np.einsum("agij,bgji->ab", w, w)
        terms = np.concatenate([np.abs(quad), np.abs(trace)], axis=1)
        largest = np.maximum(largest, terms.max(axis=1))
        f_diag = np.einsum("qgll->qgl", f).reshape(q, -1)
        k4 = resid**4 - 3.0 * np.einsum("gll->gl", c) ** 2
        k4_term += (f_diag * k4.ravel()) @ f_diag.T
        sens_bl -= np.einsum("gik,qgij,gj->kq", d_matrix[idx], f, resid)
    return psi, sens, -2.0 * sens + k4_term, sens_bl, largest


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**16),
    kinds=st.lists(st.sampled_from(_KINDS), min_size=1, max_size=4),
    n_z=st.integers(1, 2),
    grouped=st.booleans(),
)
def test_whitened_pearson_pieces_match_the_derivative_stacks(seed, kinds, n_z, grouped):
    # R = 1-4, every variance kind, identity, grouped (several cluster
    # stacks) or dense Z: the whitened psi_lambda, S_lambda, V_lambda and
    # S_beta_lambda equal the forms built from dC/dlambda and C^-1. The
    # couplings through Sigma_b^-1 across three or more responses show
    # only at R >= 3.
    from covglm.estimator import _pearson_pieces, _pearson_variability, _State, cross_blocks

    rng = np.random.default_rng(seed)
    model, disp = _random_covariance_model(
        rng,
        len(kinds),
        n_z,
        n=int(rng.integers(7, 16)),
        kinds=kinds,
        with_ntrials="binomialP" in kinds,
        grouped=grouped,
    )
    disp = DispersionVector(rho=0.5 * disp.rho, tau=disp.tau)
    shape = (len(kinds), model.clusters.n_obs)
    # Each response's D block is 1 to 3 columns wide, zero-padded to 3.
    columns = np.arange(3) < rng.integers(1, 4, size=(len(kinds), 1))
    state = _State(
        beta=None,
        disp=disp,
        resid=rng.normal(scale=2.0, size=shape),
        D=rng.normal(size=shape + (3,)) * columns[:, None, :],
        columns=columns,
        covmodel=model,
        joint=model.build(disp),
    )
    psi, sens = _pearson_pieces(state)
    var = _pearson_variability(state, sens)
    _, sens_bl = cross_blocks(None, None, None, state=state)
    expected_psi, expected_sens, expected_var, expected_bl, largest = (
        _stack_sandwich_oracle(state)
    )
    assert np.abs(sens - expected_sens).max() <= 1e-10 * np.abs(expected_sens).max()
    assert np.all(np.abs(psi - expected_psi) <= 1e-10 * largest)
    assert np.abs(var - expected_var).max() <= 1e-10 * np.abs(expected_var).max()
    assert np.abs(sens_bl - expected_bl).max() <= 1e-10 * np.abs(expected_bl).max()


def test_single_response_tau_derivative_is_exact_form():
    n = 5
    mu = np.linspace(1.0, 2.0, n)
    model = _coded_model([mu], [VarianceFn("tweedie", 1.0)], [None], [(np.arange(n),)])
    disp = DispersionVector(rho=np.zeros(0), tau=(np.array([1.3]),))
    (deriv,) = _dense_derivatives(model, disp)
    assert np.allclose(deriv, np.diag(mu))


def test_rho_derivative_identity_blocks():
    n = 4
    model = _coded_model(
        [np.ones(n), np.ones(n)],
        [VarianceFn("constant"), VarianceFn("constant")],
        [None, None],
        [(np.arange(n),), (np.arange(n),)],
    )
    disp = DispersionVector(rho=np.zeros(1), tau=(np.ones(1), np.ones(1)))
    derivs = _dense_derivatives(model, disp)
    rho_deriv = derivs[0]
    expected = np.zeros((2 * n, 2 * n))
    expected[:n, n:] = np.eye(n)
    expected[n:, :n] = np.eye(n)
    assert np.allclose(rho_deriv, expected)


def test_joint_c_smallest_eigenvalue_positive():
    rng = np.random.default_rng(5)
    for trial in range(5):
        model, disp = _random_covariance_model(rng, 2, 2)
        c = _dense_c(model, disp)
        assert np.linalg.eigvalsh(c).min() > 0
        assert np.allclose(c, c.T, atol=1e-10)
