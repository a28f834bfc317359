"""Estimating-function fitting and the joint sandwich information matrix.

Regression coefficients solve the quasi-score equation, dispersion
parameters solve the Pearson (trace-matching) equation; the two are
alternated with Newton-type steps until the parameter vector settles. The
asymptotic covariance is the inverse Godambe information
S^-1 V S^-T assembled from the block sensitivity/variability matrices at
the solution. Every block is closed form: dC/dlambda and its pullback to
the means as in ``covariance``, after Murray 2016. C is block diagonal over
the row clusters (``covariance.RowClusters``), so every estimating
function, sensitivity and variability is a sum over the clusters. The
iteration works in the coordinates that C's factors whiten (``_State``,
``_pearson_pieces``); C^-1 and the dC/dlambda stacks are formed once, at
the solution, for the sandwich.
"""

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .covariance import CovarianceModel, DispersionVector, _phi, rho_pairs
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
    beta: np.ndarray
    disp: DispersionVector
    mus: tuple
    resid: np.ndarray
    D: np.ndarray
    covmodel: CovarianceModel
    joint: tuple  # one JointCovariance per cluster stack

    @property
    def index(self):
        return self.covmodel.clusters.index

    @property
    def rows(self):
        return self.covmodel.clusters.rows

    @cached_property
    def whitened(self):
        """Per cluster stack, the (R, G, m) arrays e = B^-1 r and z = S^-1 e,
        C = B S B^T as in ``JointCovariance``."""
        resid = self.resid.reshape(len(self.mus), -1)
        out = []
        # Residuals past about 1e154 overflow here and in the products of
        # e and z; ``_solve`` then rejects the non-finite system.
        with np.errstate(over="ignore", invalid="ignore"):
            for rows, block in zip(self.rows, self.joint):
                e = block.whiten(resid[:, rows, None])[..., 0]
                out.append((e, block.sigma_b_solve(e)))
        return tuple(out)

    @cached_property
    def d_whitened(self):
        """Per cluster stack, the (R, G, m, k) array B^-1 D."""
        d = self.D.reshape(len(self.mus), -1, self.D.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):
            return tuple(
                block.whiten(d[:, rows]) for rows, block in zip(self.rows, self.joint)
            )

    @cached_property
    def u(self):
        """C^-1 r = B^-T z."""
        u = np.empty_like(self.resid)
        view = u.reshape(len(self.mus), -1)
        for rows, block, (_, z) in zip(self.rows, self.joint, self.whitened):
            view[:, rows] = block.whiten_t(z[..., None])[..., 0]
        return u


def _beta_spans(designs):
    spans = []
    start = 0
    for design in designs:
        spans.append(slice(start, start + design.n_columns))
        start += design.n_columns
    return spans, start


def _evaluate(bound, beta, disp):
    """Mean structure, residuals, gradient and joint covariance at a point."""
    spans, k_total = _beta_spans(bound.designs)
    n = bound.n_obs
    n_resp = bound.n_responses
    mus = []
    d_matrix = np.zeros((n * n_resp, k_total))
    resid = np.empty(n * n_resp)
    for r in range(n_resp):
        x = bound.x[r]
        resp = bound.spec.responses[r]
        eta = x @ beta[spans[r]] + bound.offsets[r]
        mu = resp.link.inverse(eta)
        dmu = resp.link.deriv(mu)
        mus.append(mu)
        rows = slice(r * n, (r + 1) * n)
        d_matrix[rows, spans[r]] = dmu[:, None] * x
        resid[rows] = bound.y[r] - mu
    covmodel = CovarianceModel(
        mus=tuple(mus),
        variances=tuple(resp.variance for resp in bound.spec.responses),
        ntrials=bound.ntrials,
        z_blocks=bound.z_blocks,
        owner=bound.z_owner,
        clusters=bound.clusters,
    )
    joint = covmodel.build(disp)
    return _State(
        beta=beta,
        disp=disp,
        mus=tuple(mus),
        resid=resid,
        D=d_matrix,
        covmodel=covmodel,
        joint=joint,
    )


def _quasi_pieces(state):
    """psi_beta = D^T C^-1 r and D^T C^-1 D, summed over the cluster stacks
    as D~^T z and D~^T S^-1 D~ with D~ = B^-1 D."""
    k = state.D.shape[1]
    psi = np.zeros(k)
    variability = np.zeros((k, k))
    with np.errstate(over="ignore", invalid="ignore"):
        for block, (_, z), d_white in zip(state.joint, state.whitened, state.d_whitened):
            flat = d_white.reshape(-1, k)
            psi += flat.T @ z.ravel()
            variability += flat.T @ block.sigma_b_solve(d_white).reshape(-1, k)
    variability = 0.5 * (variability + variability.T)
    return psi, -variability, variability


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
    """
    n_resp = len(state.disp.tau)
    rho_r, rho_s = np.array(rho_pairs(n_resp), dtype=int).reshape(-1, 2).T
    owner = state.covmodel.owner
    q_tau = len(owner)
    gram = np.zeros((n_resp, n_resp))
    trace_m = np.zeros(q_tau)
    psi_tau = np.zeros(q_tau)
    same = np.zeros((q_tau, q_tau))
    cross = np.zeros((q_tau, q_tau))
    ms_stacks = state.covmodel.whitened_tau(state.joint)
    with np.errstate(over="ignore", invalid="ignore"):
        for (e, z), ms in zip(state.whitened, ms_stacks):
            flat_z = z.reshape(n_resp, -1)
            gram += flat_z @ flat_z.T
            ps = _phi(ms)
            trace_m += np.einsum("qgll->q", ms)
            pe = (ps @ e[owner][..., None])[..., 0]
            psi_tau += 2.0 * np.einsum("qgl,qgl->q", z[owner], pe)
            same += _kernels.pair_traces(ps)
            flat_p = ps.reshape(q_tau, -1)
            cross += flat_p @ flat_p.T
    block = state.joint[0]
    k_inv = block.sigma_b_inverse
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
        + (k_inv * block.sigma_b)[owner[:, None], owner] * cross
    )
    return np.concatenate([psi_rho, psi_tau - trace_m]), sens


def _inverse_stacks(state):
    """W_i = C^-1 dC/dlambda_i, one (q, G, mR, mR) array per cluster stack.

    Formed once per fit, at the solution, for V_lambda's fourth-cumulant
    term and ``cross_blocks``.
    """
    stacks = state.covmodel.derivatives(state.disp, state.joint)
    for block, stack in zip(state.joint, stacks):
        np.matmul(block.inverse, stack, out=stack)
    return stacks


def _pearson_variability(state, sens, stacks):
    """V_lambda = 2 tr(W_i W_j) + sum_l (W_i C^-1)_ll k4_l (W_j C^-1)_ll,
    k4 = r^4 - 3 diag(C)^2 the empirical fourth-cumulant correction."""
    var = -2.0 * sens
    for idx, block, stack in zip(state.index, state.joint, stacks):
        w_diag = np.einsum("qglm,gml->qgl", stack, block.inverse)
        w_diag = w_diag.reshape(len(stack), -1)
        c_diag = block.diagonal
        # r^4 overflows for residuals past about 1e77; ``_solve`` then
        # rejects the non-finite sandwich.
        with np.errstate(over="ignore", invalid="ignore"):
            k4 = (state.resid[idx] ** 4 - 3.0 * c_diag**2).ravel()
            var += (w_diag * k4) @ w_diag.T
    return 0.5 * (var + var.T)


def pearson_fn(bound, beta, disp):
    """Pearson estimating function, sensitivity and variability.

    Returns ``(psi_lambda, S_lambda, V_lambda)`` over the free dispersion
    parameters (correlations first, then per-response taus).
    """
    state = _evaluate(bound, beta, disp)
    psi, sens = _pearson_pieces(state)
    return psi, sens, _pearson_variability(state, sens, _inverse_stacks(state))


def cross_blocks(bound, beta, disp, state=None, stacks=None):
    """Cross sensitivity blocks ``(S_lambda_beta, S_beta_lambda)`` at a
    parameter point.

    Both sensitivities are exact. With u = C^-1 r, F_i = C^-1 B_i C^-1
    (B_i = dC/dlambda_i) and y_i = F_i r, column i of S_beta_lambda is
    -D^T y_i. S_lambda_beta, an observed derivative through the mean
    dependence of r, C and B_i, is G D with row i of G the gradient of
    psi_lambda_i in the means:
    -2 y_i + d/dmu [<F_i - u y_i^T - y_i u^T, C> + <u u^T - C^-1, B_i>]
    (``CovarianceModel.mean_gradient``). Every term is a sum over the
    row clusters.

    ``fit`` passes its own evaluation at (beta, disp) as ``state`` and its
    ``_inverse_stacks`` C^-1 B_i as ``stacks``, so nothing is rebuilt; the
    stacks are overwritten.
    """
    if state is None:
        state = _evaluate(bound, beta, disp)
    if stacks is None:
        stacks = _inverse_stacks(state)
    ys = np.empty((state.disp.n_free, len(state.resid)))
    h_blocks = []
    for idx, block, stack in zip(state.index, state.joint, stacks):
        u = state.u[idx]
        y = (stack @ u[..., None])[..., 0]
        ys[:, idx] = y
        np.matmul(stack, block.inverse, out=stack)
        stack -= u[:, :, None] * y[..., None, :]
        stack -= y[..., :, None] * u[:, None, :]
        h_blocks.append(u[:, :, None] * u[:, None, :] - block.inverse)
    sens_bl = -(ys @ state.D).T
    grad = state.covmodel.mean_gradient(state.disp, state.joint, stacks, h_blocks)
    sens_lb = (grad - 2.0 * ys) @ state.D
    return sens_lb, sens_bl


def _check_ranks(bound):
    for design, x in zip(bound.designs, bound.x):
        rank = np.linalg.matrix_rank(x)
        if rank == x.shape[1]:
            continue
        where = f"design for response {design.formula.response!r}"
        # A nonzero column whose norm is under the tolerance bounds the
        # smallest singular value there: its scale alone fails the test.
        norms = np.hypot.reduce(x, axis=0)
        if np.any((norms > 0) & (norms <= rank_tolerance(x))):
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
    """Independence working model: transformed-response least squares
    followed by a few Gauss-Newton refinements with identity covariance."""
    blocks = []
    for r in range(bound.n_responses):
        x = bound.x[r]
        resp = bound.spec.responses[r]
        y = bound.y[r]
        offset = bound.offsets[r]
        mu0 = _start_mean(y, resp.link.kind, bound.ntrials[r])
        eta0 = resp.link.apply(mu0) - offset
        b, *_ = np.linalg.lstsq(x, eta0, rcond=None)
        for _ in range(4):
            eta = x @ b + offset
            mu = resp.link.inverse(eta)
            grad = resp.link.deriv(mu)[:, None] * x
            try:
                # An overflowing normal system ends the refinement below.
                with np.errstate(over="ignore", invalid="ignore"):
                    step = np.linalg.solve(grad.T @ grad, grad.T @ (y - mu))
            except np.linalg.LinAlgError:
                break
            if not np.isfinite(step).all():
                break
            candidate = b + step
            eta_next = x @ candidate + offset
            # Refinement must not run the mean into a saturated link,
            # where the variance function loses its domain.
            if resp.link.kind != "identity" and np.max(np.abs(eta_next)) > 30.0:
                break
            b = candidate
        blocks.append(b)
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
        spans, _ = _beta_spans(self.design)
        return tuple(spans)

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
        tau_lengths = [len(t) for t in self.lambda_hat.tau]
        return tuple(beta_labels(self.design) + tau_labels(tau_lengths))

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


def _solve(a, b, what):
    """np.linalg.solve, with a singular or non-finite system reported as a
    typed error."""
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DomainError(
            f"the {what} system has non-finite entries; the responses are too "
            "large for this model's link and variance",
            origin="estimator",
        )
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
    _check_ranks(bound)
    beta = _initial_beta(bound)
    disp = DispersionVector.initial(
        bound.n_responses, [len(c) for c in bound.z_codes]
    )
    trace = _Trace(opts.trace_path)
    state = _evaluate(bound, beta, disp)
    converged = False
    iteration = 0
    try:
        for iteration in range(1, opts.max_iter + 1):
            psi_b, _, var_b = _quasi_pieces(state)
            beta_step = _solve(var_b, psi_b, "coefficient Newton")
            state_b, halvings_b = _halved_step(
                lambda b: _evaluate(bound, b, disp), beta, beta_step, iteration
            )
            beta_new = state_b.beta
            psi_l, sens_l = _pearson_pieces(state_b)
            lam_step = -opts.alpha * _solve(sens_l, psi_l, "dispersion Newton")
            flat = disp.flatten()
            state_new, halvings_l = _halved_step(
                lambda v: _evaluate(bound, beta_new, disp.replace_flat(v)),
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
    stacks = _inverse_stacks(state)
    var_l = _pearson_variability(state, sens_l, stacks)
    sens_lb, sens_bl = cross_blocks(bound, beta, disp, state=state, stacks=stacks)
    sens = np.block([[sens_b, sens_bl], [sens_lb, sens_l]])
    # V is block diagonal: the cross variability is taken as zero. Its
    # third-moment plug-in estimate is noise of the same order as its
    # Cauchy-Schwarz bound and routinely makes V indefinite, which would
    # break the positive semi-definiteness of the inverse information.
    k = len(beta)
    var = np.zeros_like(sens)
    var[:k, :k] = var_b
    var[k:, k:] = var_l
    half = _solve(sens, var, "sandwich")
    joint_inverse = _solve(sens, half.T, "sandwich").T
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
