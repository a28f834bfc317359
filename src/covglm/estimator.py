"""Estimating-function fitting and the joint sandwich information matrix.

Regression coefficients solve the quasi-score equation, dispersion
parameters solve the Pearson (trace-matching) equation; the two are
alternated with Newton-type steps until the parameter vector settles. The
asymptotic covariance is the inverse Godambe information
S^-1 V S^-T assembled from the block sensitivity/variability matrices at
the solution. Every block is closed form: dC/dlambda and its pullback to
the means as in ``covariance``, after Murray 2016. C is block diagonal over
the row clusters (``covariance.RowClusters``), so every estimating
function, sensitivity and variability is a sum over the clusters.
"""

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import qr

from . import _kernels
from .covariance import CovarianceModel, DispersionVector, rho_pairs
from .errors import DomainError, NotPositiveDefinite, OptionError, RankError
from .model import BoundModel, bind

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
    iterations; ``alpha`` damps the dispersion update. Setting
    ``empirical_cumulants`` to False drops the empirical third/fourth
    cumulant corrections from the variability matrices (Gaussian moments).
    """

    max_iter: int = 100
    tol: float = 1e-4
    alpha: float = 1.0
    verbose: bool = False
    trace_path: str = None
    empirical_cumulants: bool = True

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

    def solve(self, x):
        """C^-1 x for an (NR, k) array, one cluster stack at a time."""
        out = np.empty_like(x)
        for idx, block in zip(self.index, self.joint):
            out[idx] = block.inverse @ x[idx]
        return out

    @cached_property
    def u(self):
        """C^-1 r."""
        return self.solve(self.resid[:, None])[:, 0]


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
        design = bound.designs[r]
        resp = bound.spec.responses[r]
        eta = design.X @ beta[spans[r]]
        if bound.offsets[r] is not None:
            eta = eta + bound.offsets[r]
        mu = resp.link.inverse(eta)
        dmu = resp.link.deriv(eta)
        mus.append(mu)
        rows = slice(r * n, (r + 1) * n)
        d_matrix[rows, spans[r]] = dmu[:, None] * design.X
        resid[rows] = bound.y[r] - mu
    covmodel = CovarianceModel(
        mus=tuple(mus),
        variances=tuple(resp.variance for resp in bound.spec.responses),
        ntrials=bound.ntrials,
        z_blocks=bound.z_blocks,
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
    psi = state.D.T @ state.u
    variability = state.D.T @ state.solve(state.D)
    variability = 0.5 * (variability + variability.T)
    return psi, -variability, variability


def quasi_score(bound, beta, disp):
    """Quasi-score value, sensitivity and variability at (beta, disp).

    Returns ``(psi_beta, S_beta, V_beta)`` with S_beta = -D^T C^-1 D and
    V_beta its negative.
    """
    return _quasi_pieces(_evaluate(bound, beta, disp))


def _pearson_pieces(state):
    """psi_lambda and S_lambda, plus the stacks W_i = C^-1 dC/dlambda_i.

    Both are sums over the clusters: psi_lambda_i = u^T B_i u - tr(W_i)
    and S_lambda[i, j] = -tr(W_i W_j), with u = C^-1 r and B_i = dC/dlambda_i.
    Each B_i stack is overwritten by W_i.
    """
    derivs = state.covmodel.derivatives(state.disp, state.joint)
    psi = np.zeros(state.disp.n_free)
    traces = np.zeros((state.disp.n_free,) * 2)
    for idx, block, stack in zip(state.index, state.joint, derivs):
        u = state.u[idx]
        psi += np.einsum("gl,qglm,gm->q", u, stack, u)
        for b_mat in stack:
            np.matmul(block.inverse, b_mat, out=b_mat)
        psi -= np.einsum("qgll->q", stack)
        traces += _kernels.pair_traces(stack)
    return psi, -traces, derivs


def _pearson_variability(state, sens, stacks, empirical_cumulants=True):
    """V_lambda = 2 tr(W_i W_j) + sum_l (W_i C^-1)_ll k4_l (W_j C^-1)_ll,
    k4 = r^4 - 3 diag(C)^2 the empirical fourth-cumulant correction."""
    var = -2.0 * sens
    if empirical_cumulants:
        for idx, block, stack in zip(state.index, state.joint, stacks):
            w_diag = np.einsum("qglm,gml->qgl", stack, block.inverse)
            w_diag = w_diag.reshape(len(stack), -1)
            c_diag = np.diagonal(block.C, axis1=-2, axis2=-1)
            k4 = (state.resid[idx] ** 4 - 3.0 * c_diag**2).ravel()
            var += (w_diag * k4) @ w_diag.T
    return 0.5 * (var + var.T)


def pearson_fn(bound, beta, disp, empirical_cumulants=True):
    """Pearson estimating function, sensitivity and variability.

    Returns ``(psi_lambda, S_lambda, V_lambda)`` over the free dispersion
    parameters (correlations first, then per-response taus).
    """
    state = _evaluate(bound, beta, disp)
    psi, sens, stacks = _pearson_pieces(state)
    return psi, sens, _pearson_variability(state, sens, stacks, empirical_cumulants)


def cross_blocks(bound, beta, disp, state=None, pearson=None):
    """Cross sensitivity and variability blocks at a parameter point.

    Both sensitivities are exact. With u = C^-1 r, F_i = C^-1 B_i C^-1
    (B_i = dC/dlambda_i) and y_i = F_i r, column i of S_beta_lambda is
    -D^T y_i. S_lambda_beta, an observed derivative through the mean
    dependence of r, C and B_i, is G D with row i of G the gradient of
    psi_lambda_i in the means:
    -2 y_i + d/dmu [<F_i - u y_i^T - y_i u^T, C> + <u u^T - C^-1, B_i>]
    (``CovarianceModel.mean_gradient``). Every term is a sum over the
    row clusters. The cross variability is taken as zero: its third-moment
    plug-in estimate is noise of the same order as its Cauchy-Schwarz
    bound and routinely makes the assembled variability matrix indefinite,
    which would break the positive semi-definiteness contract of the
    inverse information.

    ``fit`` passes its own evaluation at (beta, disp) as ``state`` and the
    stacks C^-1 B_i of its last ``_pearson_pieces`` as ``pearson``, so
    nothing is rebuilt; the stacks are overwritten.
    """
    if state is None:
        state = _evaluate(bound, beta, disp)
    if pearson is None:
        pearson = _pearson_pieces(state)[2]
    ys = np.empty((state.disp.n_free, len(state.resid)))
    h_blocks = []
    for idx, block, stack in zip(state.index, state.joint, pearson):
        u = state.u[idx]
        y = (stack @ u[..., None])[..., 0]
        ys[:, idx] = y
        for e_mat in stack:
            np.matmul(e_mat, block.inverse, out=e_mat)
        stack -= u[:, :, None] * y[..., None, :]
        stack -= y[..., :, None] * u[:, None, :]
        h_blocks.append(u[:, :, None] * u[:, None, :] - block.inverse)
    sens_bl = -(ys @ state.D).T
    grad = state.covmodel.mean_gradient(state.disp, state.joint, pearson, h_blocks)
    sens_lb = (grad - 2.0 * ys) @ state.D
    var_lb = np.zeros_like(sens_lb)
    return sens_lb, sens_bl, var_lb


def _check_ranks(bound):
    for r, design in enumerate(bound.designs):
        x = design.X
        rank = np.linalg.matrix_rank(x)
        if rank < x.shape[1]:
            _, _, pivots = qr(x, mode="economic", pivoting=True)
            bad = [design.column_labels[p] for p in pivots[rank:]]
            raise RankError(
                f"design for response {design.formula.response!r} is rank "
                f"deficient (rank {rank} of {x.shape[1]}); "
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
        design = bound.designs[r]
        resp = bound.spec.responses[r]
        y = bound.y[r]
        offset = bound.offsets[r]
        mu0 = _start_mean(y, resp.link.kind, bound.ntrials[r])
        eta0 = resp.link.apply(mu0)
        if offset is not None:
            eta0 = eta0 - offset
        b, *_ = np.linalg.lstsq(design.X, eta0, rcond=None)
        for _ in range(4):
            eta = design.X @ b
            if offset is not None:
                eta = eta + offset
            mu = resp.link.inverse(eta)
            grad = resp.link.deriv(eta)[:, None] * design.X
            try:
                step = np.linalg.solve(grad.T @ grad, grad.T @ (y - mu))
            except np.linalg.LinAlgError:
                break
            if not np.isfinite(step).all():
                break
            candidate = b + step
            eta_next = design.X @ candidate
            if offset is not None:
                eta_next = eta_next + offset
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
    def __init__(self, path, verbose):
        self.handle = open(path, "w", encoding="utf-8") if path else None
        self.verbose = verbose
        if self.handle:
            self.handle.write("iter\tpsi_beta_inf\tpsi_lambda_inf\thalvings\n")

    def record(self, iteration, psi_b, psi_l, halvings):
        line = f"{iteration}\t{psi_b:.6e}\t{psi_l:.6e}\t{halvings}"
        if self.handle:
            self.handle.write(line + "\n")
        if self.verbose:
            log.info("iteration %s", line)

    def close(self):
        if self.handle:
            self.handle.close()


def _solve(a, b, what):
    """np.linalg.solve, with a singular system reported as a typed error."""
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
    trace = _Trace(opts.trace_path, opts.verbose)
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
            psi_l, sens_l, _ = _pearson_pieces(state_b)
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
    if not converged:
        log.warning("estimation did not converge in %d iterations", opts.max_iter)
    # Sandwich information assembled once, at the solution.
    psi_b, sens_b, var_b = _quasi_pieces(state)
    psi_l, sens_l, stacks = _pearson_pieces(state)
    var_l = _pearson_variability(state, sens_l, stacks, opts.empirical_cumulants)
    sens_lb, sens_bl, var_lb = cross_blocks(
        bound, beta, disp, state=state, pearson=stacks
    )
    k_total = len(beta)
    q = disp.n_free
    sens = np.block([[sens_b, sens_bl], [sens_lb, sens_l]])
    var = np.block([[var_b, var_lb.T], [var_lb, var_l]])
    half = _solve(sens, var, "sandwich")
    joint_inverse = _solve(sens, half.T, "sandwich").T
    joint_inverse = 0.5 * (joint_inverse + joint_inverse.T)
    assert joint_inverse.shape == (k_total + q, k_total + q)
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
