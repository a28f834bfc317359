"""Joint covariance assembly and its derivatives.

The within-response covariance is V^(1/2) Omega(tau) V^(1/2) (plus diag(mu)
for the count kind); responses are coupled through a correlation matrix by
sandwiching the per-response Cholesky factors around the Kronecker-expanded
correlation. The dispersion derivatives, which feed the Pearson estimating
function and the sandwich, are closed form; the tau derivatives go through
the derivative of a Cholesky factor (Murray 2016, "Differentiation of the
Cholesky decomposition", arXiv:1602.07527). So does the pullback of C and
those derivatives to the means, which the sandwich's S_lambda_beta needs.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .errors import NotPositiveDefinite
from .families import variance_deriv, variance_eval


@dataclass(frozen=True)
class DispersionVector:
    """Free dispersion parameters: correlations then per-response taus.

    ``rho`` holds the R(R-1)/2 between-response correlations in row-major
    upper-triangle order; ``tau`` holds one coefficient vector per response,
    parallel to its matrix linear predictor.
    """

    rho: np.ndarray
    tau: tuple

    @classmethod
    def initial(cls, n_responses, tau_lengths):
        rho = np.zeros(n_responses * (n_responses - 1) // 2)
        taus = []
        for m in tau_lengths:
            t = np.full(m, 0.1)
            t[0] = 1.0
            taus.append(t)
        return cls(rho=rho, tau=tuple(taus))

    @property
    def n_free(self):
        return len(self.rho) + sum(len(t) for t in self.tau)

    def flatten(self):
        return np.concatenate([self.rho] + [np.asarray(t) for t in self.tau])

    def replace_flat(self, values):
        values = np.asarray(values, dtype=float)
        rho = values[: len(self.rho)]
        taus = []
        pos = len(self.rho)
        for t in self.tau:
            taus.append(values[pos : pos + len(t)].copy())
            pos += len(t)
        return DispersionVector(rho=rho.copy(), tau=tuple(taus))


def rho_pairs(n_responses):
    """Index pairs (r, s), r < s, in row-major upper-triangle order."""
    return [
        (r, s) for r in range(n_responses) for s in range(r + 1, n_responses)
    ]


def correlation_matrix(rho, n_responses):
    sigma_b = np.eye(n_responses)
    for idx, (r, s) in enumerate(rho_pairs(n_responses)):
        sigma_b[r, s] = sigma_b[s, r] = rho[idx]
    return sigma_b


def build_omega(tau_r, z_list):
    """Omega = sum_d tau_d Z_d for one response."""
    if len(tau_r) != len(z_list):
        raise ValueError(
            f"got {len(tau_r)} dispersion coefficients for {len(z_list)} matrices"
        )
    omega = np.zeros_like(z_list[0])
    for coef, z in zip(tau_r, z_list):
        omega = omega + coef * z
    return omega


def sqrt_variance(mu, var, ntrial=None):
    """V^(1/2) as a vector, the variance function divided by trial counts."""
    v = variance_eval(var, mu)
    if ntrial is not None:
        v = v / ntrial
    return np.sqrt(v)


def build_sigma_r(mu, var, omega, ntrial=None):
    """Per-response covariance V^(1/2) Omega V^(1/2) (+ diag(mu) for counts)."""
    s = sqrt_variance(mu, var, ntrial)
    sigma = s[:, None] * omega * s[None, :]
    if var.kind == "poisson_tweedie":
        sigma = sigma + np.diag(np.asarray(mu, dtype=float))
    if not np.isfinite(sigma).all():
        raise NotPositiveDefinite("per-response covariance has non-finite entries")
    return sigma


def _chol(matrix, what):
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"{what} is not positive definite") from None


@dataclass(frozen=True)
class JointCovariance:
    """The NR x NR joint covariance with its cached Cholesky factors."""

    C: np.ndarray
    chol: np.ndarray
    sigma_chols: tuple
    sigma_b: np.ndarray

    @property
    def dim(self):
        return self.C.shape[0]


def build_joint_c(sigmas, rho):
    """Couple per-response covariances through the correlation matrix.

    Computes Bdiag(L_1..L_R) (Sigma_b kron I) Bdiag(L_1^T..L_R^T) where L_r
    is the lower Cholesky factor of the r-th covariance; block (r, s) is
    therefore Sigma_b[r, s] * L_r L_s^T and the diagonal blocks recover the
    per-response covariances exactly.
    """
    n_responses = len(sigmas)
    n = sigmas[0].shape[0]
    chols = []
    for r, sigma in enumerate(sigmas):
        chols.append(_chol(sigma, f"covariance of response {r + 1}"))
    sigma_b = correlation_matrix(np.asarray(rho, dtype=float), n_responses)
    _chol(sigma_b, "between-response correlation matrix")
    c = np.empty((n * n_responses, n * n_responses))
    for r in range(n_responses):
        for s in range(r, n_responses):
            block = sigma_b[r, s] * (chols[r] @ chols[s].T)
            c[r * n : (r + 1) * n, s * n : (s + 1) * n] = block
            if s != r:
                c[s * n : (s + 1) * n, r * n : (r + 1) * n] = block.T
    c = 0.5 * (c + c.T)
    chol = _chol(c, "joint covariance")
    return JointCovariance(C=c, chol=chol, sigma_chols=tuple(chols), sigma_b=sigma_b)


@dataclass(frozen=True)
class CovarianceModel:
    """C as a function of the dispersion parameters, at a fixed mean.

    Bundles the mean vectors, variance functions, trial counts and matrix
    predictors of every response so the estimator can rebuild C and its
    dispersion derivatives at arbitrary dispersion values.
    """

    mus: tuple
    variances: tuple
    ntrials: tuple
    z_lists: tuple

    @property
    def n_responses(self):
        return len(self.mus)

    def sigma(self, r, tau_r):
        omega = build_omega(tau_r, self.z_lists[r])
        return build_sigma_r(self.mus[r], self.variances[r], omega, self.ntrials[r])

    def build(self, disp):
        sigmas = [self.sigma(r, disp.tau[r]) for r in range(self.n_responses)]
        return build_joint_c(sigmas, disp.rho)

    def derivatives(self, disp, joint=None):
        """dC/dlambda_i for every free dispersion parameter, in flat order.

        Closed form; given ``joint``, nothing is rebuilt. rho_rs enters
        linearly: L_r L_s^T in block (r, s), its transpose in (s, r). For
        tau_rd, block (r, r) is dSigma_r = V^(1/2) Z_d V^(1/2) (diag(mu)
        does not move with tau) and block (r, s) is Sigma_b[r, s] dL_r L_s^T,
        dL_r from Murray 2016; no block outside row and column r moves.
        """
        if joint is None:
            joint = self.build(disp)
        n_resp = self.n_responses
        n = len(self.mus[0])
        rows = [slice(r * n, (r + 1) * n) for r in range(n_resp)]
        chols = joint.sigma_chols
        out = []
        for r, s in rho_pairs(n_resp):
            d = np.zeros_like(joint.C)
            block = chols[r] @ chols[s].T
            d[rows[r], rows[s]] = block
            d[rows[s], rows[r]] = block.T
            out.append(d)
        for r in range(n_resp):
            sqrt_v = sqrt_variance(self.mus[r], self.variances[r], self.ntrials[r])
            for z in self.z_lists[r]:
                d = np.zeros_like(joint.C)
                d_sigma = sqrt_v[:, None] * z * sqrt_v[None, :]
                d[rows[r], rows[r]] = d_sigma
                if n_resp > 1:
                    d_chol = _cholesky_derivative(chols[r], d_sigma)
                    for s in range(n_resp):
                        if s != r:
                            block = joint.sigma_b[r, s] * (d_chol @ chols[s].T)
                            d[rows[r], rows[s]] = block
                            d[rows[s], rows[r]] = block.T
                out.append(d)
        return out

    def mean_gradient(self, disp, joint, c_cotangents, d_cotangent):
        """Row i: gradient in the stacked means of <G_i, C> + <H, dC/dlambda_i>.

        ``c_cotangents`` stacks symmetric NR x NR matrices G_i, one per free
        dispersion parameter, and ``d_cotangent`` is a symmetric H; both are
        held fixed. A mean of response a moves only Sigma_a and L_a, so
        only block row and column a of C and of each dC/dlambda_i move,
        and every contraction runs over N x N blocks. Terms in dL_a are
        pulled back to dSigma_a through the adjoint of
        dL = L Phi(L^-1 dSigma L^-T), and dSigma_a to the means through
        dSigma = diag(ds) Omega diag(s) + diag(s) Omega diag(ds)
        (+ diag(dmu) for ``poisson_tweedie``), ds = s'(mu) dmu. For tau_ad,
        block (a, a) is A = diag(s) Z_d diag(s) and block (a, t) is
        Sigma_b[a, t] K L_t^T with K = L P, P = Phi(M), M = L^-1 A L^-T;
        K moves by dL P + L Phi(L^-1 dA L^-T - Q M - M Q^T), Q = L^-1 dL.
        """
        n_resp = self.n_responses
        n = len(self.mus[0])
        rows = [slice(r * n, (r + 1) * n) for r in range(n_resp)]
        chols = joint.sigma_chols
        sigma_b = joint.sigma_b
        params = rho_pairs(n_resp) + [
            (r, d) for r in range(n_resp) for d in range(len(self.z_lists[r]))
        ]
        n_rho = n_resp * (n_resp - 1) // 2
        sqrt_vs = [
            sqrt_variance(self.mus[r], self.variances[r], self.ntrials[r])
            for r in range(n_resp)
        ]
        grad = np.zeros((len(c_cotangents), n_resp * n))
        for a in range(n_resp):
            chol = chols[a]
            s = sqrt_vs[a]
            dv = variance_deriv(self.variances[a], self.mus[a])
            if self.ntrials[a] is not None:
                dv = dv / self.ntrials[a]
            slope = dv / (2.0 * s)  # ds/dmu
            omega = build_omega(disp.tau[a], self.z_lists[a])
            others = [t for t in range(n_resp) if t != a]
            h_aa = d_cotangent[rows[a], rows[a]]
            # For tau_ad, <H, d dC/dtau_ad> = <H[a, a] + 2 U, dA>
            # + 2 <W P^T - L^-T (V + V^T) M, dL> with W = sum_t Sigma_b[a, t]
            # H[a, t] L_t, V = Phi(L^T W) and U = L^-T V L^-1; only P, M
            # and A depend on d.
            h_chol = {t: d_cotangent[rows[a], rows[t]] @ chols[t] for t in others}
            w = sum((sigma_b[a, t] * h_chol[t] for t in others), np.zeros((n, n)))
            v = _phi(chol.T @ w)
            u_w = _cholesky_derivative_adjoint(chol, w)
            v_back = solve_triangular(chol, v + v.T, lower=True, trans="T")
            for i, g in enumerate(c_cotangents):
                # Cotangents of Sigma_a (gamma), of L_a (y_bar) and of A.
                gamma = g[rows[a], rows[a]].copy()
                y_bar = np.zeros((n, n))
                for t in others:
                    y_bar += 2.0 * sigma_b[a, t] * (g[rows[a], rows[t]] @ chols[t])
                grad_s = np.zeros(n)
                if i < n_rho:
                    if a in params[i]:
                        (t,) = [p for p in params[i] if p != a]
                        y_bar += 2.0 * h_chol[t]
                else:
                    r, d = params[i]
                    z = self.z_lists[r][d]
                    a_mat = sqrt_vs[r][:, None] * z * sqrt_vs[r][None, :]
                    m = _whiten(chols[r], a_mat)
                    if r == a:
                        y_bar += 2.0 * (w @ _phi(m).T - v_back @ m)
                        grad_s += _spread(h_aa + 2.0 * u_w, z, s)
                    else:
                        k = chols[r] @ _phi(m)
                        y_bar += 2.0 * sigma_b[r, a] * (
                            d_cotangent[rows[a], rows[r]] @ k
                        )
                gamma += _cholesky_derivative_adjoint(chol, y_bar)
                grad_s += _spread(gamma, omega, s)
                grad[i, rows[a]] = slope * grad_s
                if self.variances[a].kind == "poisson_tweedie":
                    grad[i, rows[a]] += np.diag(gamma)
        return grad


def _phi(x):
    """Lower triangle with the diagonal halved; self-adjoint in <., .>."""
    phi = np.tril(x)
    phi[np.diag_indices_from(phi)] *= 0.5
    return phi


def _whiten(chol, sym):
    """L^-1 S L^-T for a symmetric S."""
    x = solve_triangular(chol, sym, lower=True)
    return solve_triangular(chol, x.T, lower=True)


def _cholesky_derivative(chol, d_sigma):
    """dL = L Phi(L^-1 dSigma L^-T)."""
    return chol @ _phi(_whiten(chol, d_sigma))


def _cholesky_derivative_adjoint(chol, y):
    """G with <Y, dL> = <G, dSigma>: G = L^-T Phi(L^T Y) L^-1."""
    x = solve_triangular(chol, _phi(chol.T @ y), lower=True, trans="T")
    return solve_triangular(chol, x.T, lower=True, trans="T").T


def _spread(gamma, z, s):
    """Gradient in s of <gamma, diag(s) Z diag(s)>: ((gamma + gamma^T) o Z) s."""
    return ((gamma + gamma.T) * z) @ s
