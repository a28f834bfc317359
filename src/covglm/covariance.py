"""Joint covariance assembly and its derivatives, one row cluster at a time.

The within-response covariance is V^(1/2) Omega(tau) V^(1/2) (plus diag(mu)
for the count kind); responses are coupled through a correlation matrix by
sandwiching the per-response Cholesky factors around the Kronecker-expanded
correlation. The dispersion derivatives, which feed the Pearson estimating
function and the sandwich, are closed form; the tau derivatives go through
the derivative of a Cholesky factor (Murray 2016, "Differentiation of the
Cholesky decomposition", arXiv:1602.07527). So does the pullback of C and
those derivatives to the means, which the sandwich's S_lambda_beta needs.
The estimation loop reads the tau derivatives only in whitened form,
L_r^-1 (dSigma_r/dtau) L_r^-T (``CovarianceModel.whitened_tau``).

Every matrix here is block diagonal over the connected components of the
rows (``RowClusters``), so C, dC/dlambda and C^-1 are held as stacks of
per-cluster blocks, one stack per cluster size, and all algebra is batched
over the clusters of a stack.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

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
            tuple(
                (c[:, rows, None] == c[:, rows[:, None, :]]).astype(float, order="C")
                for c in stacked
            )
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


_ROW_BLOCK = 32


def tril_inverse(chol):
    """L^-1 for a lower-triangular L, batched over leading axes.

    Forward substitution, one batched row update per row, on blocks of up
    to ``_ROW_BLOCK`` rows. A larger block splits in two,
    [[A, 0], [B, D]]^-1 = [[A^-1, 0], [-D^-1 B A^-1, D^-1]], which keeps
    the work of a large cluster in matrix products.
    """
    m = chol.shape[-1]
    out = np.zeros_like(chol)
    if m > _ROW_BLOCK:
        h = m // 2
        top = tril_inverse(chol[..., :h, :h])
        bottom = tril_inverse(chol[..., h:, h:])
        out[..., :h, :h] = top
        out[..., h:, h:] = bottom
        out[..., h:, :h] = -(bottom @ (chol[..., h:, :h] @ top))
        return out
    recip = 1.0 / np.diagonal(chol, axis1=-2, axis2=-1)
    diag = np.arange(m)
    out[..., diag, diag] = recip
    neg_recip = -recip[..., None]
    for i in range(1, m):
        row = (chol[..., i, None, :i] @ out[..., :i, :i])[..., 0, :]
        out[..., i, :i] = row * neg_recip[..., i, :]
    return out


@dataclass(frozen=True)
class JointCovariance:
    """The joint covariance C = B (Sigma_b kron I) B^T, held as its factors.

    B = Bdiag(L_1..L_R) holds the per-response Cholesky factors
    ``sigma_chols`` and ``sigma_b_chol`` is the Cholesky factor of the
    correlation matrix ``sigma_b``. For a stack of G clusters of m rows each
    L_r is (G, m, m) and C is (G, mR, mR); for plain N x N per-response
    matrices C is the dense NR x NR matrix.
    """

    sigma_chols: tuple
    sigma_b: np.ndarray
    sigma_b_chol: np.ndarray

    @property
    def shape(self):
        """The shape of C."""
        chol = self.sigma_chols[0]
        return chol.shape[:-2] + (chol.shape[-1] * len(self.sigma_chols),) * 2

    @property
    def diagonal(self):
        """diag C, response-major: diag Sigma_r is the row sums of L_r^2."""
        return np.concatenate([(c**2).sum(axis=-1) for c in self.sigma_chols], axis=-1)

    @cached_property
    def C(self):
        """C assembled: block (r, s) is Sigma_b[r, s] L_r L_s^T."""
        chols = self.sigma_chols
        return _block_products(chols, [_t(c) for c in chols], self.sigma_b)

    @cached_property
    def inverse(self):
        """C^-1 = B^-T (Sigma_b^-1 kron I) B^-1: block (r, s) is
        (Sigma_b^-1)[r, s] L_r^-T L_s^-1."""
        invs = self.sigma_chol_invs
        return _block_products([_t(c) for c in invs], invs, self.sigma_b_inverse)

    @cached_property
    def sigma_chol_invs(self):
        """L_r^-1 for every per-response Cholesky factor L_r."""
        return tuple(tril_inverse(chol) for chol in self.sigma_chols)

    @cached_property
    def sigma_b_inverse(self):
        """Sigma_b^-1, from the inverse of its Cholesky factor."""
        chol_inv = tril_inverse(self.sigma_b_chol)
        return chol_inv.T @ chol_inv

    def whiten(self, x):
        """B^-1 x for a (..., mR, k) array: response r's rows times L_r^-1."""
        return _by_response(self.sigma_chol_invs, x)

    def whiten_t(self, x):
        """B^-T x for a (..., mR, k) array: response r's rows times L_r^-T."""
        return _by_response([_t(c) for c in self.sigma_chol_invs], x)

    def sigma_b_solve(self, x):
        """(Sigma_b^-1 kron I) x for a (..., mR, k) array."""
        blocks = x.reshape(x.shape[:-2] + (len(self.sigma_chols), -1))
        return (self.sigma_b_inverse @ blocks).reshape(x.shape)


def _by_response(mats, x):
    """Bdiag(mats) x: the m rows of response r in x times mats[r]."""
    m = mats[0].shape[-1]
    return np.concatenate(
        [a @ x[..., r * m : (r + 1) * m, :] for r, a in enumerate(mats)], axis=-2
    )


def _block_products(lefts, rights, weights):
    """The symmetric matrix whose block (r, s) is weights[r, s] A_r B_s,
    given the A_r as ``lefts`` and the B_s as ``rights``; only blocks with
    r <= s are multiplied, the others are their transposes."""
    n_resp = len(lefts)
    m = lefts[0].shape[-1]
    rows = [slice(r * m, (r + 1) * m) for r in range(n_resp)]
    out = np.empty(lefts[0].shape[:-2] + (n_resp * m,) * 2)
    for r in range(n_resp):
        for s in range(r, n_resp):
            block = weights[r, s] * (lefts[r] @ rights[s])
            out[..., rows[r], rows[s]] = block
            if s != r:
                out[..., rows[s], rows[r]] = _t(block)
    return 0.5 * (out + _t(out))


def build_joint_c(sigmas, rho):
    """Couple per-response covariances through the correlation matrix.

    Factors Bdiag(L_1..L_R) (Sigma_b kron I) Bdiag(L_1^T..L_R^T) where L_r
    is the lower Cholesky factor of the r-th covariance; block (r, s) is
    therefore Sigma_b[r, s] * L_r L_s^T and the diagonal blocks recover the
    per-response covariances exactly. Each sigma may be a (..., m, m)
    stack of cluster blocks; the result then holds stacks too. B is
    invertible, so C is positive definite exactly when Sigma_b is: the
    factorisations of Sigma_b and of every Sigma_r are all the checks C
    needs, and C itself is never factored.
    """
    chols = tuple(
        _chol(sigma, f"covariance of response {r + 1}") for r, sigma in enumerate(sigmas)
    )
    sigma_b = correlation_matrix(np.asarray(rho, dtype=float), len(sigmas))
    chol_b = _chol(sigma_b, "between-response correlation matrix")
    return JointCovariance(sigma_chols=chols, sigma_b=sigma_b, sigma_b_chol=chol_b)


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
            # An infinite mean or variance leaves non-finite entries, which
            # build_sigma_r rejects.
            with np.errstate(over="ignore", invalid="ignore"):
                sigmas = [
                    build_sigma_r(mu, var, build_omega(tau, z_blocks), ntrial)
                    for (mu, ntrial, z_blocks), var, tau in zip(
                        stack, self.variances, disp.tau
                    )
                ]
            out.append(build_joint_c(sigmas, disp.rho))
        return tuple(out)

    def derivatives(self, disp, joint):
        """dC/dlambda_i for every free dispersion parameter, in flat order.

        One (q, G, mR, mR) array per cluster stack, closed form from the
        factors in ``joint`` (``build(disp)``). rho_rs enters linearly:
        L_r L_s^T in block (r, s), its transpose in (s, r). For tau_rd,
        block (r, r) is dSigma_r = V^(1/2) Z_d V^(1/2) (diag(mu) does not
        move with tau) and block (r, s) is Sigma_b[r, s] dL_r L_s^T, dL_r
        from Murray 2016; no block outside row and column r moves.
        """
        return tuple(
            self._stack_derivatives(k, disp, block) for k, block in enumerate(joint)
        )

    def whitened_tau(self, joint):
        """M = L_r^-1 (dSigma_r/dtau_rd) L_r^-T for every tau_rd, in flat
        order: one (q_tau, G, m, m) array per cluster stack of ``joint``.
        The Cholesky factor moves by dL_r = L_r Phi(M) (Murray 2016)."""
        return tuple(self._stack_whitened(k, block) for k, block in enumerate(joint))

    def _stack_whitened(self, k, block):
        out = []
        for r, chol_inv in enumerate(block.sigma_chol_invs):
            # L^-1 V^(1/2), so that M = (L^-1 V^(1/2)) Z_d (L^-1 V^(1/2))^T
            # for the whole (D, G, m, m) stack of Z_d blocks at once.
            scaled = chol_inv * self._sqrt_variance(k, r)[..., None, :]
            out.append(scaled @ self.blocks[k][r][2] @ _t(scaled))
        return np.concatenate(out)

    def _stack_derivatives(self, k, disp, block):
        n_resp = self.n_responses
        m = block.shape[-1] // n_resp
        rows = [slice(r * m, (r + 1) * m) for r in range(n_resp)]
        chols = block.sigma_chols
        out = np.zeros((disp.n_free,) + block.shape)
        for d, (r, s) in zip(out, rho_pairs(n_resp)):
            product = chols[r] @ _t(chols[s])
            d[..., rows[r], rows[s]] = product
            d[..., rows[s], rows[r]] = _t(product)
        n_rho = n_resp * (n_resp - 1) // 2
        whitened = self._stack_whitened(k, block)
        i = n_rho
        for r in range(n_resp):
            sqrt_v = self._sqrt_variance(k, r)
            for z in self.blocks[k][r][2]:
                d = out[i]
                d[..., rows[r], rows[r]] = _scale(sqrt_v, z)
                d_chol = chols[r] @ _phi(whitened[i - n_rho])
                i += 1
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
        m = block.shape[-1] // n_resp
        rows = [slice(r * m, (r + 1) * m) for r in range(n_resp)]
        chols = block.sigma_chols
        chol_invs = block.sigma_chol_invs
        sigma_b = block.sigma_b
        sqrt_vs = [self._sqrt_variance(k, r) for r in range(n_resp)]
        whitened = self._stack_whitened(k, block)
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
                    white = whitened[i - n_rho]
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


@lru_cache(maxsize=64)
def _phi_weights(m):
    weights = np.tril(np.ones((m, m)))
    np.fill_diagonal(weights, 0.5)
    weights.flags.writeable = False
    return weights


def _phi(x):
    """Lower triangle with the diagonal halved; self-adjoint in <., .>."""
    return x * _phi_weights(x.shape[-1])


def _cholesky_derivative_adjoint(chol, chol_inv, y):
    """G with <Y, dL> = <G, dSigma>: G = L^-T Phi(L^T Y) L^-1."""
    return _t(chol_inv) @ _phi(_t(chol) @ y) @ chol_inv


def _spread(gamma, z, s):
    """Gradient in s of <gamma, diag(s) Z diag(s)>: ((gamma + gamma^T) o Z) s."""
    return (((gamma + _t(gamma)) * z) @ s[..., None])[..., 0]
