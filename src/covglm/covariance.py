"""Joint covariance assembly and its derivatives, one row cluster at a time.

The within-response covariance is V^(1/2) Omega(tau) V^(1/2) (plus diag(mu)
for the count kind); responses are coupled through a correlation matrix by
sandwiching the per-response Cholesky factors around the Kronecker-expanded
correlation. The dispersion derivatives, which feed the Pearson estimating
function and the sandwich, are closed form; the tau derivatives go through
the derivative of a Cholesky factor (Murray 2016, "Differentiation of the
Cholesky decomposition", arXiv:1602.07527). So does the pullback of C and
those derivatives to the means, which the sandwich's S_lambda_beta needs.

Every matrix here is block diagonal over the connected components of the
rows (``RowClusters``), so C, dC/dlambda and C^-1 are held as stacks of
per-cluster blocks, one stack per cluster size, and all algebra is batched
over the clusters of a stack.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


def _component_labels(n, codes):
    """The smallest row of every row's connected component, rows that share
    a level of any code vector being linked. Each round every row takes
    the smallest label of its levels' rows, each label root hooks onto the
    smallest label its rows took, and labels are followed to their roots.
    """
    labels = np.arange(n)
    while True:
        low = labels
        for c in codes:
            level_low = np.full(c.max() + 1, n)
            np.minimum.at(level_low, c, low)
            low = np.minimum(low, level_low[c])
        if np.array_equal(low, labels):
            return labels
        np.minimum.at(labels, labels.copy(), low)
        while not np.array_equal(labels[labels], labels):
            labels = labels[labels]


@dataclass(frozen=True)
class RowClusters:
    """The rows split into the connected components that the Z_d link.

    Two rows share a cluster when some Z_d of some response links them,
    directly or through other rows. Every Sigma_r is then block diagonal
    over the clusters, and a Cholesky factorisation adds no fill between
    them, so L_r, C, dC/dlambda and C^-1 are block diagonal too, provided
    each cluster keeps its rows in their original relative order (the
    Cholesky-Kronecker construction depends on that order).

    Clusters of equal size m form one stack: ``rows[k]`` is a (G, m) array
    of original row indices, ascending along each cluster, and
    ``index[k]`` the (G, m R) positions of the same clusters in the
    stacked length-N R vector, response r's rows at r N + row. A joint
    block of stack k is therefore (G, m R, m R), response-major.
    """

    n_obs: int
    rows: tuple
    index: tuple

    @classmethod
    def of(cls, z_codes):
        """Clusters of the level codes ``z_codes[r][d]`` of every Z_d."""
        n = len(z_codes[0][0])
        labels = _component_labels(n, [c for codes in z_codes for c in codes])
        # Stable sort: rows grouped by cluster, original order inside each.
        order = np.argsort(labels, kind="stable")
        _, sizes = np.unique(labels, return_counts=True)
        starts = np.cumsum(sizes) - sizes
        rows = [order[starts[sizes == m][:, None] + np.arange(m)] for m in np.unique(sizes)]
        offsets = np.arange(len(z_codes))[:, None] * n
        index = [(offsets + r[:, None, :]).reshape(len(r), -1) for r in rows]
        return cls(n_obs=n, rows=tuple(rows), index=tuple(index))

    def z_blocks(self, z_codes):
        """Per stack, per response: the (D, G, m, m) cluster blocks of its D
        matrices Z_d, 1.0 where two rows of a cluster share a level."""
        stacked = [np.stack(codes) for codes in z_codes]
        return tuple(
            tuple((c[:, rows, None] == c[:, rows[:, None, :]]).astype(float) for c in stacked)
            for rows in self.rows
        )


def _t(x):
    """Transpose of the last two axes."""
    return np.swapaxes(x, -1, -2)


def build_omega(tau_r, z_list):
    """Omega = sum_d tau_d Z_d for one response (or a stack of its blocks)."""
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


def _scale(s, x):
    """diag(s) X diag(s), batched over leading axes."""
    return s[..., :, None] * x * s[..., None, :]


def build_sigma_r(mu, var, omega, ntrial=None):
    """Per-response covariance V^(1/2) Omega V^(1/2) (+ diag(mu) for counts).

    ``mu`` (and ``ntrial``) may carry leading axes matching a stack of
    Omega blocks.
    """
    sigma = _scale(sqrt_variance(mu, var, ntrial), omega)
    if var.kind == "poisson_tweedie":
        diag = np.arange(sigma.shape[-1])
        sigma[..., diag, diag] += mu
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
    """Joint covariance blocks with their cached Cholesky factors.

    For a stack of G clusters of m rows, ``C`` is (G, mR, mR); for plain
    N x N per-response matrices it is the dense NR x NR matrix.
    """

    C: np.ndarray
    chol: np.ndarray
    sigma_chols: tuple
    sigma_b: np.ndarray

    @cached_property
    def inverse(self):
        """C^-1 = L^-T L^-1 from the joint Cholesky factor."""
        chol_inv = np.linalg.inv(self.chol)
        return _t(chol_inv) @ chol_inv

    @cached_property
    def sigma_chol_invs(self):
        """L_r^-1 for every per-response Cholesky factor L_r."""
        return tuple(np.linalg.inv(chol) for chol in self.sigma_chols)


def build_joint_c(sigmas, rho):
    """Couple per-response covariances through the correlation matrix.

    Computes Bdiag(L_1..L_R) (Sigma_b kron I) Bdiag(L_1^T..L_R^T) where L_r
    is the lower Cholesky factor of the r-th covariance; block (r, s) is
    therefore Sigma_b[r, s] * L_r L_s^T and the diagonal blocks recover the
    per-response covariances exactly. Each sigma may be a (..., m, m)
    stack of cluster blocks; the result is then a stack too.
    """
    n_responses = len(sigmas)
    n = sigmas[0].shape[-1]
    chols = []
    for r, sigma in enumerate(sigmas):
        chols.append(_chol(sigma, f"covariance of response {r + 1}"))
    sigma_b = correlation_matrix(np.asarray(rho, dtype=float), n_responses)
    _chol(sigma_b, "between-response correlation matrix")
    rows = [slice(r * n, (r + 1) * n) for r in range(n_responses)]
    c = np.empty(sigmas[0].shape[:-2] + (n * n_responses,) * 2)
    for r in range(n_responses):
        for s in range(r, n_responses):
            block = sigma_b[r, s] * (chols[r] @ _t(chols[s]))
            c[..., rows[r], rows[s]] = block
            if s != r:
                c[..., rows[s], rows[r]] = _t(block)
    c = 0.5 * (c + _t(c))
    chol = _chol(c, "joint covariance")
    return JointCovariance(C=c, chol=chol, sigma_chols=tuple(chols), sigma_b=sigma_b)


@dataclass(frozen=True)
class CovarianceModel:
    """C as a function of the dispersion parameters, at a fixed mean.

    Bundles the means, variance functions, trial counts and Z_d cluster
    blocks (``RowClusters.z_blocks``) of every response, so the estimator
    can rebuild C and its dispersion derivatives at any dispersion value.
    ``build``, ``derivatives`` and ``mean_gradient`` work on one stack of
    equal-size clusters at a time (``RowClusters``).
    """

    mus: tuple
    variances: tuple
    ntrials: tuple
    z_blocks: tuple
    clusters: RowClusters

    @property
    def n_responses(self):
        return len(self.mus)

    @cached_property
    def blocks(self):
        """Per stack, per response: (means, trial counts, Z_d blocks) on
        the stack's (G, m) cluster rows."""
        return tuple(
            tuple(
                (mu[rows], None if ntrial is None else ntrial[rows], z_blocks)
                for mu, ntrial, z_blocks in zip(self.mus, self.ntrials, stack)
            )
            for rows, stack in zip(self.clusters.rows, self.z_blocks)
        )

    def _sqrt_variance(self, k, r):
        mu, ntrial, _ = self.blocks[k][r]
        return sqrt_variance(mu, self.variances[r], ntrial)

    def build(self, disp):
        """One ``JointCovariance`` per cluster stack."""
        out = []
        for stack in self.blocks:
            sigmas = [
                build_sigma_r(mu, var, build_omega(tau, z_blocks), ntrial)
                for (mu, ntrial, z_blocks), var, tau in zip(
                    stack, self.variances, disp.tau
                )
            ]
            out.append(build_joint_c(sigmas, disp.rho))
        return tuple(out)

    def derivatives(self, disp, joint=None):
        """dC/dlambda_i for every free dispersion parameter, in flat order.

        One (q, G, mR, mR) array per cluster stack. Closed form; given
        ``joint``, nothing is rebuilt. rho_rs enters linearly: L_r L_s^T in
        block (r, s), its transpose in (s, r). For tau_rd, block (r, r) is
        dSigma_r = V^(1/2) Z_d V^(1/2) (diag(mu) does not move with tau)
        and block (r, s) is Sigma_b[r, s] dL_r L_s^T, dL_r from Murray
        2016; no block outside row and column r moves.
        """
        if joint is None:
            joint = self.build(disp)
        return tuple(
            self._stack_derivatives(k, disp, block) for k, block in enumerate(joint)
        )

    def _stack_derivatives(self, k, disp, block):
        n_resp = self.n_responses
        m = block.C.shape[-1] // n_resp
        rows = [slice(r * m, (r + 1) * m) for r in range(n_resp)]
        chols = block.sigma_chols
        out = np.zeros((disp.n_free,) + block.C.shape)
        for d, (r, s) in zip(out, rho_pairs(n_resp)):
            product = chols[r] @ _t(chols[s])
            d[..., rows[r], rows[s]] = product
            d[..., rows[s], rows[r]] = _t(product)
        i = n_resp * (n_resp - 1) // 2
        for r in range(n_resp):
            sqrt_v = self._sqrt_variance(k, r)
            chol_inv = block.sigma_chol_invs[r] if n_resp > 1 else None
            for z in self.blocks[k][r][2]:
                d = out[i]
                i += 1
                d_sigma = _scale(sqrt_v, z)
                d[..., rows[r], rows[r]] = d_sigma
                if n_resp == 1:
                    continue
                d_chol = chols[r] @ _phi(_whiten(chol_inv, d_sigma))
                for s in range(n_resp):
                    if s != r:
                        product = block.sigma_b[r, s] * (d_chol @ _t(chols[s]))
                        d[..., rows[r], rows[s]] = product
                        d[..., rows[s], rows[r]] = _t(product)
        return out

    def mean_gradient(self, disp, joint, c_cotangents, d_cotangent):
        """Row i: gradient in the stacked means of <G_i, C> + <H, dC/dlambda_i>.

        Per cluster stack, ``c_cotangents`` holds symmetric blocks G_i as a
        (q, G, mR, mR) array, one per free dispersion parameter, and
        ``d_cotangent`` the blocks of a symmetric H; both are held fixed.
        Returns a (q, N R) array. A mean of response a moves only Sigma_a
        and L_a, so only block row and column a of C and of each
        dC/dlambda_i move, and every contraction runs over m x m blocks.
        Terms in dL_a are pulled back to dSigma_a through the adjoint of
        dL = L Phi(L^-1 dSigma L^-T), and dSigma_a to the means through
        dSigma = diag(ds) Omega diag(s) + diag(s) Omega diag(ds)
        (+ diag(dmu) for ``poisson_tweedie``), ds = s'(mu) dmu. For tau_ad,
        block (a, a) is A = diag(s) Z_d diag(s) and block (a, t) is
        Sigma_b[a, t] K L_t^T with K = L P, P = Phi(M), M = L^-1 A L^-T;
        K moves by dL P + L Phi(L^-1 dA L^-T - Q M - M Q^T), Q = L^-1 dL.
        """
        grad = np.zeros((disp.n_free, self.n_responses * self.clusters.n_obs))
        for k, pieces in enumerate(zip(joint, c_cotangents, d_cotangent)):
            grad[:, self.clusters.index[k]] = self._stack_mean_gradient(k, disp, *pieces)
        return grad

    def _stack_mean_gradient(self, k, disp, block, g_stack, h):
        n_resp = self.n_responses
        params = rho_pairs(n_resp) + [
            (r, d) for r in range(n_resp) for d in range(len(self.z_blocks[k][r]))
        ]
        n_rho = n_resp * (n_resp - 1) // 2
        m = block.C.shape[-1] // n_resp
        rows = [slice(r * m, (r + 1) * m) for r in range(n_resp)]
        chols = block.sigma_chols
        chol_invs = block.sigma_chol_invs
        sigma_b = block.sigma_b
        sqrt_vs = [self._sqrt_variance(k, r) for r in range(n_resp)]
        whitened = {
            (r, d): _whiten(chol_invs[r], _scale(sqrt_vs[r], z))
            for r in range(n_resp)
            for d, z in enumerate(self.blocks[k][r][2])
        }
        out = np.zeros(g_stack.shape[:-1])
        for a in range(n_resp):
            chol, chol_inv, s = chols[a], chol_invs[a], sqrt_vs[a]
            mu, ntrial, z_blocks = self.blocks[k][a]
            dv = variance_deriv(self.variances[a], mu)
            if ntrial is not None:
                dv = dv / ntrial
            slope = dv / (2.0 * s)  # ds/dmu
            omega = build_omega(disp.tau[a], z_blocks)
            others = [t for t in range(n_resp) if t != a]
            h_aa = h[..., rows[a], rows[a]]
            # For tau_ad, <H, d dC/dtau_ad> = <H[a, a] + 2 U, dA>
            # + 2 <W P^T - L^-T (V + V^T) M, dL> with W = sum_t Sigma_b[a, t]
            # H[a, t] L_t, V = Phi(L^T W) and U = L^-T V L^-1; only P, M
            # and A depend on d.
            h_chol = {t: h[..., rows[a], rows[t]] @ chols[t] for t in others}
            w = sum((sigma_b[a, t] * h_chol[t] for t in others), np.zeros_like(h_aa))
            v = _phi(_t(chol) @ w)
            u_w = _t(chol_inv) @ v @ chol_inv
            v_back = _t(chol_inv) @ (v + _t(v))
            for i, g in enumerate(g_stack):
                # Cotangents of Sigma_a (gamma), of L_a (y_bar) and of A.
                y_bar = np.zeros_like(h_aa)
                for t in others:
                    y_bar += 2.0 * sigma_b[a, t] * (g[..., rows[a], rows[t]] @ chols[t])
                grad_s = np.zeros_like(s)
                if i < n_rho:
                    if a in params[i]:
                        (t,) = [p for p in params[i] if p != a]
                        y_bar += 2.0 * h_chol[t]
                else:
                    r, d = params[i]
                    white = whitened[(r, d)]
                    if r == a:
                        y_bar += 2.0 * (w @ _t(_phi(white)) - v_back @ white)
                        grad_s += _spread(h_aa + 2.0 * u_w, z_blocks[d], s)
                    else:
                        k_mat = chols[r] @ _phi(white)
                        y_bar += 2.0 * sigma_b[r, a] * (h[..., rows[a], rows[r]] @ k_mat)
                gamma = g[..., rows[a], rows[a]] + _cholesky_derivative_adjoint(
                    chol, chol_inv, y_bar
                )
                grad_s += _spread(gamma, omega, s)
                out[i][..., rows[a]] = slope * grad_s
                if self.variances[a].kind == "poisson_tweedie":
                    out[i][..., rows[a]] += np.diagonal(gamma, axis1=-2, axis2=-1)
        return out


def _phi(x):
    """Lower triangle with the diagonal halved; self-adjoint in <., .>."""
    phi = np.tril(x)
    diag = np.arange(x.shape[-1])
    phi[..., diag, diag] *= 0.5
    return phi


def _whiten(chol_inv, sym):
    """L^-1 S L^-T for a symmetric S, given L^-1."""
    return chol_inv @ sym @ _t(chol_inv)


def _cholesky_derivative_adjoint(chol, chol_inv, y):
    """G with <Y, dL> = <G, dSigma>: G = L^-T Phi(L^T Y) L^-1."""
    return _t(chol_inv) @ _phi(_t(chol) @ y) @ chol_inv


def _spread(gamma, z, s):
    """Gradient in s of <gamma, diag(s) Z diag(s)>: ((gamma + gamma^T) o Z) s."""
    return (((gamma + _t(gamma)) * z) @ s[..., None])[..., 0]
