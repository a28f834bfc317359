"""Estimating-function fitting and the joint sandwich information matrix.

Regression coefficients solve the quasi-score equation, dispersion
parameters solve the Pearson (trace-matching) equation; the two are
alternated with Newton-type steps until the parameter vector settles. The
asymptotic covariance is the inverse Godambe information
S^-1 V S^-T assembled from the block sensitivity/variability matrices at
the solution. Every block is closed form: the dispersion derivatives and
their pullback to the means as in ``covariance``, after Murray 2016. C is
block diagonal over the row clusters (``covariance.RowClusters``), so every
estimating function, sensitivity and variability is a sum over the
clusters. The iteration and the sandwich both work in the coordinates that
C's factors whiten (``_State``): no C^-1 and no dC/dlambda_i is formed,
only per-response m x m blocks of each cluster. Each response has its own
coefficients, so D = Bdiag(D_1..D_R) is held as its diagonal blocks: the
residuals are an (R, N) array and D an (R, N, k_max) one.
"""

import logging
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _kernels
from .covariance import (
    CovarianceModel,
    DispersionVector,
    JointCovariance,
    _phi,
    mix_responses,
    rho_index,
    rho_pairs,
)
from .errors import DomainError, NotPositiveDefinite, OptionError, RankError
from .model import BoundModel, bind, rank_tolerance, redundant_columns

log = logging.getLogger("covglm")


def parameter_label(prefix, response, index):
    """Compact label like beta12 / tau10; underscore form past one digit."""
    if response <= 9 and index <= 9:
        return f"{prefix}{response}{index}"
    return f"{prefix}{response}_{index}"


def beta_labels(designs):
    labels = []
    for r, design in enumerate(designs, start=1):
        labels.extend(parameter_label("beta", r, j) for j in range(design.n_columns))
    return labels


def tau_labels(tau_lengths):
    labels = []
    for r, m in enumerate(tau_lengths, start=1):
        labels.extend(parameter_label("tau", r, d) for d in range(m))
    return labels


def rho_labels(n_responses):
    return [
        parameter_label("rho", r + 1, s + 1) for r, s in rho_pairs(n_responses)
    ]


@dataclass(frozen=True)
class FitOptions:
    """Knobs of the alternating estimation loop.

    ``tol`` is the max-abs change of the stacked parameter vector between
    iterations; ``alpha`` damps the dispersion update.
    """

    max_iter: int = 100
    tol: float = 1e-4
    alpha: float = 1.0
    trace_path: str = None

    def __post_init__(self):
        if self.max_iter < 1:
            raise OptionError(f"max_iter must be at least 1, got {self.max_iter}")
        if not self.tol > 0:
            raise OptionError(f"tol must be positive, got {self.tol}")
        if not 0 < self.alpha <= 1:
            raise OptionError(f"alpha must be in (0, 1], got {self.alpha}")


@dataclass
class _State:
    """The model evaluated at (beta, disp).

    ``resid`` is the (R, N) array of residuals and ``D`` the (R, N, k_max)
    array of the blocks D_r = dmu_r/dbeta_r, each padded with zero columns
    to the widest design. ``columns`` is the (R, k_max) mask of each
    response's own k_r columns: read row by row, the masked columns are
    beta's coefficients in order. These and ``covmodel`` are the mean side,
    which depends on beta only (``means``); ``joint`` is C at disp.
    """

    beta: np.ndarray
    disp: DispersionVector
    resid: np.ndarray
    D: np.ndarray
    columns: np.ndarray
    covmodel: CovarianceModel
    joint: JointCovariance

    @property
    def rows(self):
        return self.covmodel.clusters.rows

    @property
    def means(self):
        """The mean side, for ``_evaluate`` at the same beta."""
        return self.resid, self.D, self.columns, self.covmodel

    @cached_property
    def whitened(self):
        """Per cluster stack, the (R, G, m) arrays e = B^-1 r and z = S^-1 e,
        C = B S B^T as in ``JointCovariance``, S^-1 = K kron I."""
        out = []
        # Residuals past about 1e154 overflow here and in the products of
        # e and z; ``_solve`` then rejects the non-finite system.
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, invs in zip(self.rows, self.joint.sigma_chol_invs):
                e = (invs @ self.resid[:, rows, None])[..., 0]
                out.append((e, mix_responses(self.joint.sigma_b_inverse, e)))
        return tuple(out)

    @cached_property
    def d_whitened(self):
        """Per cluster stack, the (R, G, m, k_max) array B^-1 D: response
        r's block is L_r^-1 D_r."""
        with np.errstate(over="ignore", invalid="ignore"):
            return tuple(
                invs @ self.D[:, rows]
                for rows, invs in zip(self.rows, self.joint.sigma_chol_invs)
            )

    @cached_property
    def whitened_tau(self):
        """Per cluster stack, the (q_tau, G, m, m) whitened tau derivatives M
        (``CovarianceModel.derivatives``)."""
        return self.covmodel.derivatives(self.joint)


def _beta_spans(designs):
    spans = []
    start = 0
    for design in designs:
        spans.append(slice(start, start + design.n_columns))
        start += design.n_columns
    return tuple(spans)


def _mean_side(bound, beta):
    """The residuals, D blocks, column mask and ``CovarianceModel`` at beta
    (``_State.means``)."""
    spans = _beta_spans(bound.designs)
    widths = np.array([x.shape[1] for x in bound.x])
    d_blocks = np.zeros((bound.n_responses, bound.n_obs, widths.max()))
    mus = []
    for r, (x, resp, span) in enumerate(zip(bound.x, bound.spec.responses, spans)):
        mu = resp.link.inverse(x @ beta[span] + bound.offsets[r])
        d_blocks[r, :, : widths[r]] = resp.link.deriv(mu)[:, None] * x
        mus.append(mu)
    covmodel = CovarianceModel(
        mus=tuple(mus),
        variances=tuple(resp.variance for resp in bound.spec.responses),
        ntrials=bound.ntrials,
        z_blocks=bound.z_blocks,
        owner=bound.z_owner,
        clusters=bound.clusters,
    )
    columns = np.arange(d_blocks.shape[-1]) < widths[:, None]
    return np.array(bound.y) - mus, d_blocks, columns, covmodel


def _evaluate(bound, beta, disp, means=None, previous=None):
    """The ``_State`` at (beta, disp): its mean side, then C built from it.

    ``means`` is the mean side of a state at the same beta, reused with its
    cached V^(1/2); ``previous`` is the ``JointCovariance`` of a state at
    the same rho, whose Sigma_b and K are reused
    (``CovarianceModel.build``). ``fit`` passes them, so it evaluates the
    means once per beta and factors Sigma_b once per rho.
    """
    if means is None:
        means = _mean_side(bound, beta)
    resid, d_blocks, columns, covmodel = means
    joint = covmodel.build(disp, previous)
    return _State(beta, disp, resid, d_blocks, columns, covmodel, joint)


def _quasi_pieces(state):
    """psi_beta = D^T C^-1 r and D^T C^-1 D, summed over the cluster stacks
    as D~^T z and D~^T S^-1 D~ with D~ = B^-1 D. D is block diagonal by
    response, so block a of psi_beta is D~_a^T z_a and block (a, t) of
    D~^T S^-1 D~ is K_at D~_a^T D~_t, with K = Sigma_b^-1."""
    n_resp, _, k = state.D.shape
    psi = np.zeros((n_resp, k))
    gram = np.zeros((n_resp, n_resp, k, k))
    with np.errstate(over="ignore", invalid="ignore"):
        for (_, z), d_white in zip(state.whitened, state.d_whitened):
            flat = d_white.reshape(n_resp, -1, k)
            psi += (z.reshape(n_resp, 1, -1) @ flat)[:, 0]
            gram += np.swapaxes(flat, 1, 2)[:, None] @ flat
        gram *= state.joint.sigma_b_inverse[:, :, None, None]
    # (a, t, i, j) -> (a, i, t, j): row a i, column t j of D~^T S^-1 D~.
    cols = state.columns.ravel()
    variability = gram.transpose(0, 2, 1, 3).reshape(len(cols), -1)[cols][:, cols]
    variability = 0.5 * (variability + variability.T)
    return psi[state.columns], -variability, variability


def _by_response(x, d, columns):
    """The (q, k) array whose block of response r is x[:, r] D_r, summed
    over rows, for a (q, R, ...) ``x`` and an (R, ..., k_max) ``d``; only
    each response's own ``columns`` are kept."""
    n_resp, k = len(d), d.shape[-1]
    flat_x = np.swapaxes(x.reshape(len(x), n_resp, -1), 0, 1)
    return np.swapaxes(flat_x @ d.reshape(n_resp, -1, k), 0, 1)[:, columns]


def quasi_score(bound, beta, disp):
    """Quasi-score value, sensitivity and variability at (beta, disp).

    Returns ``(psi_beta, S_beta, V_beta)`` with S_beta = -D^T C^-1 D and
    V_beta its negative.
    """
    return _quasi_pieces(_evaluate(bound, beta, disp))


def _pearson_pieces(state):
    """psi_lambda and S_lambda over the free dispersion parameters.

    With C = B S B^T, B = Bdiag(L_r) and S = Sigma_b kron I, each
    B_i = dC/dlambda_i whitens to A_i = B^-1 B_i B^-T: (E_rs + E_sr) kron I
    for rho_rs, and P S + S P^T for tau_rd, with P = Phi(M) in block (r, r)
    and M = L_r^-1 (dSigma_r/dtau_rd) L_r^-T. Then
    psi_lambda_i = z^T A_i z - tr(S^-1 A_i) and
    S_lambda[i, j] = -tr(S^-1 A_i S^-1 A_j), which reduce to sums of m x m
    cluster blocks (N rows, K = Sigma_b^-1):

    - psi for rho_rs: 2 z_r . z_s - 2 N K_rs;
    - psi for tau_rd: 2 z_r^T P e_r - tr M;
    - S for rho_rs, rho_tu: -N tr(K E_rs K E_tu) = -2 N (K_rt K_su + K_ru K_st),
      E_rs = e_r e_s^T + e_s e_r^T;
    - S for rho_rs, tau_td: -(K E_rs)_tt tr M, where (K E_rs)_tt is K_rs for
      t in {r, s} and 0 otherwise;
    - S for tau_i in response r, tau_j in response s:
      -2 delta_rs tr(P_i P_j) - 2 K_rs (Sigma_b)_rs tr(P_i P_j^T).

    S_lambda is negative definite, so an exactly zero diagonal entry is an
    underflow: its tau entries scale as 1 / tau^2, below the smallest float
    for tau past about 1e162. That raises ``DomainError``.
    """
    n_resp = len(state.disp.tau)
    rho_r, rho_s = rho_index(n_resp)
    owner = state.covmodel.owner
    q_tau = len(owner)
    gram = np.zeros((n_resp, n_resp))
    trace_m = np.zeros(q_tau)
    psi_tau = np.zeros(q_tau)
    same = np.zeros((q_tau, q_tau))
    cross = np.zeros((q_tau, q_tau))
    with np.errstate(over="ignore", invalid="ignore"):
        for (e, z), ms in zip(state.whitened, state.whitened_tau):
            flat_z = z.reshape(n_resp, -1)
            gram += flat_z @ flat_z.T
            ps = _phi(ms)
            trace_m += np.einsum("qgll->q", ms)
            pe = (ps @ e[owner][..., None])[..., 0]
            psi_tau += 2.0 * np.einsum("qgl,qgl->q", z[owner], pe)
            same += _kernels.pair_traces(ps)
            flat_p = ps.reshape(q_tau, -1)
            cross += flat_p @ flat_p.T
    k_inv = state.joint.sigma_b_inverse
    n = state.covmodel.clusters.n_obs
    n_rho = len(rho_r)
    psi_rho = 2.0 * (gram[rho_r, rho_s] - n * k_inv[rho_r, rho_s])
    r, s = rho_r[:, None], rho_s[:, None]
    touches = (owner == r) | (owner == s)
    sens = np.empty((n_rho + q_tau,) * 2)
    sens[:n_rho, :n_rho] = -2.0 * n * (
        k_inv[r, rho_r] * k_inv[s, rho_s] + k_inv[r, rho_s] * k_inv[s, rho_r]
    )
    sens[:n_rho, n_rho:] = -(touches * k_inv[r, s]) * trace_m
    sens[n_rho:, :n_rho] = sens[:n_rho, n_rho:].T
    sens[n_rho:, n_rho:] = -2.0 * (
        (owner[:, None] == owner) * same
        + (k_inv * state.joint.sigma_b)[owner[:, None], owner] * cross
    )
    if not np.diagonal(sens).all():
        raise DomainError(
            "the dispersion sensitivities underflow to zero; the responses are "
            "too large in scale for this model's variance",
            origin="estimator",
        )
    return np.concatenate([psi_rho, psi_tau - trace_m]), sens


def _residual_weights(state):
    """Per cluster stack, the (q, R, G, m) array w_i = X_i e with
    X_i = S^-1 A_i S^-1 (``_pearson_pieces``), so that
    C^-1 B_i C^-1 r = B^-T w_i.

    With K = Sigma_b^-1, block (a, t) of X_i is (K (E_rs + E_sr) K)_at I
    for rho_rs, and K_ar delta_rt P + delta_ar K_rt P^T for tau of response
    r. So w_ia = K_ar z_s + K_as z_r for rho_rs, and
    w_ia = K_ar P e_r + delta_ar P^T z_r for tau.
    """
    rho_r, rho_s = rho_index(len(state.disp.tau))
    owner = state.covmodel.owner
    k_inv = state.joint.sigma_b_inverse
    out = []
    for (e, z), ms in zip(state.whitened, state.whitened_tau):
        w_rho = _weighted(k_inv[rho_r], z[rho_s]) + _weighted(k_inv[rho_s], z[rho_r])
        ps = _phi(ms)
        w_tau = _weighted(k_inv[owner], (ps @ e[owner][..., None])[..., 0])
        w_tau[np.arange(len(owner)), owner] += (
            np.swapaxes(ps, -1, -2) @ z[owner][..., None]
        )[..., 0]
        out.append(np.concatenate([w_rho, w_tau]))
    return tuple(out)


def _weighted(weights, x):
    """The (q, R, G, m) array weights[i, a] x[i]."""
    return weights[..., None, None] * x[:, None]


def _pearson_variability(state, sens):
    """V_lambda = 2 tr(W_i W_j) + sum_l F_i,ll k4_l F_j,ll with W_i = C^-1 B_i,
    F_i = W_i C^-1 and k4 = r^4 - 3 diag(C)^2 the empirical fourth-cumulant
    correction. The trace term is -2 S_lambda. F_i = B^-T X_i B^-1, so on
    response a's rows diag F_i is diag(L_a^-T X_i[a, a] L_a^-1): 2 K_ar K_as
    times the column sums of squares of L_a^-1 for rho_rs, and for tau of
    response r, K_rr diag(L_r^-T M L_r^-1) on r's rows and zero elsewhere.
    """
    rho_r, rho_s = rho_index(len(state.disp.tau))
    owner = state.covmodel.owner
    taus = len(rho_r) + np.arange(len(owner))
    joint = state.joint
    k_inv = joint.sigma_b_inverse
    weights = 2.0 * k_inv[rho_r] * k_inv[rho_s]
    var = -2.0 * sens
    for rows, chols, invs, ms in zip(
        state.rows, joint.sigma_chols, joint.sigma_chol_invs, state.whitened_tau
    ):
        diag = np.zeros((len(var),) + invs.shape[:-1])
        diag[: len(rho_r)] = weights[..., None, None] * (invs**2).sum(axis=-2)
        own = invs[owner]
        diag[taus, owner] = k_inv[owner, owner][:, None, None] * np.einsum(
            "qgjl,qgjl->qgl", ms @ own, own
        )
        flat = diag.reshape(len(diag), -1)
        # r^4 overflows for residuals past about 1e77; ``_solve`` then
        # rejects the non-finite sandwich. diag C is the row sums of L_r^2.
        with np.errstate(over="ignore", invalid="ignore"):
            k4 = (state.resid[:, rows] ** 4 - 3.0 * (chols**2).sum(-1) ** 2).ravel()
            var += (flat * k4) @ flat.T
    return 0.5 * (var + var.T)


def pearson_fn(bound, beta, disp):
    """Pearson estimating function, sensitivity and variability.

    Returns ``(psi_lambda, S_lambda, V_lambda)`` over the free dispersion
    parameters (correlations first, then per-response taus).
    """
    state = _evaluate(bound, beta, disp)
    psi, sens = _pearson_pieces(state)
    return psi, sens, _pearson_variability(state, sens)


def cross_blocks(bound, beta, disp, state=None):
    """Cross sensitivity blocks ``(S_lambda_beta, S_beta_lambda)`` at a
    parameter point.

    Both sensitivities are exact. With u = C^-1 r, B_i = dC/dlambda_i and
    y_i = C^-1 B_i u = B^-T w_i (``_residual_weights``), column i of
    S_beta_lambda is -D^T y_i = -D~^T w_i, D~ = B^-1 D. S_lambda_beta, an
    observed derivative through the mean dependence of r, C and B_i, is
    G D with row i of G the gradient of psi_lambda_i in the means, formed
    response block by response block as D is:
    -2 y_i + d/dmu [<C^-1 B_i C^-1 - u y_i^T - y_i u^T, C> + <u u^T - C^-1, B_i>]
    (``CovarianceModel.mean_gradient``). Every term is a sum of per-response
    m x m blocks over the row clusters; neither C^-1 nor any B_i is formed.

    ``fit`` passes its own evaluation at (beta, disp) as ``state``, so
    nothing is rebuilt.
    """
    if state is None:
        state = _evaluate(bound, beta, disp)
    # Residuals past about 1e154 overflow in these products; ``_solve`` then
    # rejects the non-finite sandwich.
    with np.errstate(over="ignore", invalid="ignore"):
        weights = _residual_weights(state)
        w_d = sum(
            _by_response(w, d, state.columns)
            for w, d in zip(weights, state.d_whitened)
        )
        grad = state.covmodel.mean_gradient(
            state.disp, state.joint, state.whitened_tau, state.whitened, weights
        )
        return _by_response(grad, state.D, state.columns) - 2.0 * w_d, -w_d.T


def _decompose(design, x):
    """The thin SVD (U, sigma, V^T) of a design, raising unless it has full
    column rank by ``np.linalg.matrix_rank``'s rule."""
    u, sigma, vt = np.linalg.svd(x, full_matrices=False)
    tol = rank_tolerance(sigma[0], x.shape)
    rank = np.count_nonzero(sigma > tol)
    if rank == x.shape[1]:
        return u, sigma, vt
    where = f"design for response {design.formula.response!r}"
    # A nonzero column whose norm is under the tolerance bounds the
    # smallest singular value there: its scale alone fails the test.
    norms = np.hypot.reduce(x, axis=0)
    if np.any((norms > 0) & (norms <= tol)):
        raise RankError(
            f"{where}: its columns differ in scale by more than the rank "
            f"test can resolve (column norms {norms[norms > 0].min():.3g} "
            f"to {norms.max():.3g}); rescale the covariates"
        )
    bad = [design.column_labels[j] for j in redundant_columns(x)]
    raise RankError(
        f"{where} is rank deficient (rank {rank} of {x.shape[1]}); "
        f"redundant columns: {', '.join(bad)}"
    )


def _start_mean(y, link_kind, ntrial):
    if link_kind == "log":
        return np.maximum(y, 0.1)
    if link_kind == "logit":
        n = ntrial if ntrial is not None else 1.0
        return (y * n + 0.5) / (n + 1.0)
    return y


def _initial_beta(bound):
    """Independence working model: each response's start is the least-squares
    fit, on the link scale, of its clipped means (``_start_mean``) less the
    offset. The coefficient steps of ``fit`` take it from there.

    Responses that share a design share its matrix, which is decomposed
    once (``_decompose``): a rank-deficient one raises under the first
    response's name, and every response on it takes its start
    V diag(1/sigma) U^T eta from the same SVD."""
    svds = {}
    blocks = []
    for r, (design, x) in enumerate(zip(bound.designs, bound.x)):
        if id(x) not in svds:
            svds[id(x)] = _decompose(design, x)
        u, sigma, vt = svds[id(x)]
        link = bound.spec.responses[r].link
        mu0 = _start_mean(bound.y[r], link.kind, bound.ntrials[r])
        blocks.append(vt.T @ (u.T @ (link.apply(mu0) - bound.offsets[r]) / sigma))
    return np.concatenate(blocks)


@dataclass(frozen=True)
class FittedModel:
    """Everything the test machinery consumes.

    ``joint_inverse`` is the full inverse Godambe matrix over
    (beta, rho, tau); ``godambe_inv`` exposes the view over the testable
    parameters theta* = (beta, tau), which is what every Wald-type
    procedure uses.
    """

    spec: object
    design: tuple
    beta_hat: np.ndarray
    lambda_hat: DispersionVector
    joint_inverse: np.ndarray
    iterations: int
    converged: bool
    n_obs: int
    n_dropped: int
    psi_beta_norm: float
    psi_lambda_norm: float

    def __post_init__(self):
        self.beta_hat.flags.writeable = False
        self.joint_inverse.flags.writeable = False

    @property
    def n_responses(self):
        return len(self.design)

    @cached_property
    def beta_spans(self):
        return _beta_spans(self.design)

    @property
    def n_beta(self):
        return len(self.beta_hat)

    @property
    def n_rho(self):
        return len(self.lambda_hat.rho)

    @cached_property
    def tau_star_spans(self):
        """theta*-index span of each response's tau block."""
        spans = []
        start = self.n_beta
        for t in self.lambda_hat.tau:
            spans.append(slice(start, start + len(t)))
            start += len(t)
        return tuple(spans)

    @cached_property
    def labels(self):
        """Full parameter labels over (beta, rho, tau)."""
        tau_lengths = [len(t) for t in self.lambda_hat.tau]
        return tuple(
            beta_labels(self.design)
            + rho_labels(self.n_responses)
            + tau_labels(tau_lengths)
        )

    @cached_property
    def theta_star_labels(self):
        return tuple(self.labels[i] for i in self._star_index)

    @cached_property
    def _star_index(self):
        k = self.n_beta
        q = self.lambda_hat.n_free
        idx = list(range(k)) + list(range(k + self.n_rho, k + q))
        return np.array(idx, dtype=int)

    @cached_property
    def theta_star(self):
        values = np.concatenate([self.beta_hat, self.lambda_hat.flatten()])
        return values[self._star_index]

    @cached_property
    def godambe_inv(self):
        view = self.joint_inverse[np.ix_(self._star_index, self._star_index)]
        view = 0.5 * (view + view.T)
        view.flags.writeable = False
        return view

    @cached_property
    def label_index(self):
        return {label: i for i, label in enumerate(self.theta_star_labels)}

    def standard_errors(self):
        """Standard errors of the full (beta, rho, tau) vector."""
        return np.sqrt(np.clip(np.diag(self.joint_inverse), 0.0, None))


def _moment_tau(bound, means):
    """Pearson moment estimates of every tau, in flat order, at the mean
    side ``means``; None where they are not finite.

    With s = V^(1/2), e_r = r_r / s_r has covariance Omega_r + diag(kappa_r),
    kappa_r = mu_r / V_r for ``poisson_tweedie`` responses (the diag(mu)
    term) and zero for the others. Matching e_r^T Z_d e_r to its
    expectation for every Z_d of response r gives G_r tau_r = b_r, with
    G_r the Gram matrix tr(Z_d Z_e) (``BoundModel.z_gram``) and
    b_r[d] = e_r^T Z_d e_r - sum kappa_r, Z_d having a unit diagonal.
    Estimates whose squares overflow count as not finite: the Pearson
    sensitivities scale as 1 / tau^2, and underflow to a singular system
    there.
    """
    resid, _, _, covmodel = means
    owner = bound.z_owner
    b = np.zeros(len(owner))
    with np.errstate(all="ignore"):
        stacks = zip(covmodel.clusters.rows, covmodel._row_terms, bound.z_blocks)
        for rows, (sqrt_v, counts), z in stacks:
            e = (resid[:, rows] / sqrt_v)[owner]
            b += np.einsum("qgi,qgi->q", e, (z @ e[..., None])[..., 0])
            b -= (counts / sqrt_v**2).sum(axis=(1, 2))[owner]
        try:
            tau = np.linalg.solve(bound.z_gram, b)
        except np.linalg.LinAlgError:
            return None
        return tau if np.isfinite(tau**2).all() else None


def _whitened_correlation(state):
    """rho_rs = e_r . e_s / (|e_r| |e_s|) for the whitened residuals
    e = B^-1 r of ``state`` (``_State.whitened``), which do not depend on
    rho. Where every e_r
    has mean square one, Sigma_b = (e_r . e_s / N) solves the Pearson
    equations for rho at the state's taus (z = K e, so z_r . z_s = N K_rs);
    the norms keep Sigma_b a correlation matrix."""
    gram = 0.0
    with np.errstate(all="ignore"):
        for e, _ in state.whitened:
            e = e.reshape(len(e), -1)
            gram = gram + e @ e.T
        scale = np.sqrt(np.diag(gram))
        rho_r, rho_s = rho_index(len(scale))
        return gram[rho_r, rho_s] / (scale[rho_r] * scale[rho_s])


def _start(bound, beta):
    """The first state, at beta: the moment estimates of the taus
    (``_moment_tau``) with rho from the residuals they whiten
    (``_whitened_correlation``). Where those are not finite, or C is not
    positive definite there, it is at ``DispersionVector.initial`` instead.
    Both share one mean side, and the moment start factors each stack once:
    it is built at rho = 0, where Sigma_b = K = I, and then coupled at rho.
    """
    means = _mean_side(bound, beta)
    initial = DispersionVector.initial(bound.n_responses, [len(c) for c in bound.z_codes])
    tau = _moment_tau(bound, means)
    if tau is not None:
        disp = initial.replace_flat(np.concatenate([np.zeros_like(initial.rho), tau]))
        eye = np.eye(bound.n_responses)
        try:
            state = _evaluate(
                bound, beta, disp, means=means, previous=JointCovariance((), eye, eye)
            )
            rho = _whitened_correlation(state)
            if np.isfinite(rho).all():
                return replace(
                    state, disp=replace(disp, rho=rho), joint=state.joint.at_rho(rho)
                )
        except (NotPositiveDefinite, DomainError):
            pass
    return _evaluate(bound, beta, initial, means=means)


class _Trace:
    def __init__(self, path):
        self.handle = open(path, "w", encoding="utf-8") if path else None
        if self.handle:
            self.handle.write("iter\tpsi_beta_inf\tpsi_lambda_inf\thalvings\n")

    def record(self, iteration, psi_b, psi_l, halvings):
        line = f"{iteration}\t{psi_b:.6e}\t{psi_l:.6e}\t{halvings}"
        if self.handle:
            self.handle.write(line + "\n")
        log.debug("iteration %s", line)

    def close(self):
        if self.handle:
            self.handle.close()


def _require_finite(what, *arrays):
    """Raise ``DomainError`` unless every entry of the ``what`` system is
    finite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise DomainError(
            f"the {what} system has non-finite entries; the responses are too "
            "large for this model's link and variance",
            origin="estimator",
        )


def _solve(a, b, what):
    """np.linalg.solve, with a singular or non-finite system reported as a
    typed error."""
    _require_finite(what, a, b)
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        raise RankError(
            f"the {what} system is singular; the model is not identifiable here"
        ) from None


def _halved_step(evaluate, start, step, iteration):
    """Apply a step, halving it on covariance failures (at most 10 times)."""
    halvings = 0
    while True:
        try:
            return evaluate(start + step), halvings
        except (NotPositiveDefinite, DomainError) as exc:
            halvings += 1
            if halvings > 10:
                raise NotPositiveDefinite(
                    f"step halving exhausted at iteration {iteration}: {exc}"
                ) from None
            step = step / 2.0


def fit(spec, data, options=None):
    """Fit a model spec to data by the alternating chaser iteration.

    Parameters
    ----------
    spec : ModelSpec or BoundModel
        The model description, or a model already bound to data.
    data : Dataset
        Ignored when ``spec`` is already bound.
    options : FitOptions, optional

    Returns
    -------
    FittedModel
        Returned even without convergence; check ``converged``.
    """
    opts = options or FitOptions()
    bound = spec if isinstance(spec, BoundModel) else bind(spec, data)
    beta = _initial_beta(bound)
    trace = _Trace(opts.trace_path)
    converged = False
    iteration = 0
    try:
        state = _start(bound, beta)
        disp = state.disp
        for iteration in range(1, opts.max_iter + 1):
            psi_b, _, var_b = _quasi_pieces(state)
            beta_step = _solve(var_b, psi_b, "coefficient Newton")
            # The coefficient step keeps rho, the dispersion step beta.
            state_b, halvings_b = _halved_step(
                lambda b: _evaluate(bound, b, disp, previous=state.joint),
                beta,
                beta_step,
                iteration,
            )
            beta_new = state_b.beta
            psi_l, sens_l = _pearson_pieces(state_b)
            lam_step = -opts.alpha * _solve(sens_l, psi_l, "dispersion Newton")
            flat = disp.flatten()
            state_new, halvings_l = _halved_step(
                lambda v: _evaluate(
                    bound, beta_new, disp.replace_flat(v), means=state_b.means
                ),
                flat,
                lam_step,
                iteration,
            )
            disp_new = state_new.disp
            delta = max(
                float(np.max(np.abs(beta_new - beta))),
                float(np.max(np.abs(disp_new.flatten() - flat))),
            )
            trace.record(
                iteration,
                float(np.max(np.abs(psi_b))),
                float(np.max(np.abs(psi_l))),
                halvings_b + halvings_l,
            )
            beta, disp, state = beta_new, disp_new, state_new
            if delta < opts.tol:
                converged = True
                break
    finally:
        trace.close()
    # Sandwich information assembled once, at the solution.
    psi_b, sens_b, var_b = _quasi_pieces(state)
    psi_l, sens_l = _pearson_pieces(state)
    var_l = _pearson_variability(state, sens_l)
    sens_lb, sens_bl = cross_blocks(bound, beta, disp, state=state)
    sens = np.block([[sens_b, sens_bl], [sens_lb, sens_l]])
    # V is block diagonal: the cross variability is taken as zero. Its
    # third-moment plug-in estimate is noise of the same order as its
    # Cauchy-Schwarz bound and routinely makes V indefinite, which would
    # break the positive semi-definiteness of the inverse information.
    k = len(beta)
    var = np.zeros_like(sens)
    var[:k, :k] = var_b
    var[k:, k:] = var_l
    _require_finite("sandwich", var)
    inverse = _solve(sens, np.eye(len(sens)), "sandwich")
    joint_inverse = inverse @ var @ inverse.T
    joint_inverse = 0.5 * (joint_inverse + joint_inverse.T)
    # Warned only once the sandwich exists, so that a fit that fails there
    # reports its error alone.
    if not converged:
        log.warning("estimation did not converge in %d iterations", opts.max_iter)
    return FittedModel(
        spec=bound.spec,
        design=bound.designs,
        beta_hat=beta.copy(),
        lambda_hat=disp,
        joint_inverse=joint_inverse,
        iterations=iteration,
        converged=converged,
        n_obs=bound.n_obs,
        n_dropped=bound.n_dropped,
        psi_beta_norm=float(np.max(np.abs(psi_b))),
        psi_lambda_norm=float(np.max(np.abs(psi_l))),
    )
