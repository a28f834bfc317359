"""Joint covariance assembly and its derivatives, one row cluster at a time.

The within-response covariance is V^(1/2) Omega(tau) V^(1/2) (plus diag(mu)
for the count kind); responses are coupled through a correlation matrix by
sandwiching the per-response Cholesky factors around the Kronecker-expanded
correlation. The dispersion derivatives, which feed the Pearson estimating
function and the sandwich, are closed form and held only in whitened form:
the tau derivatives as L_r^-1 (dSigma_r/dtau) L_r^-T
(``CovarianceModel.derivatives``), which with the correlation matrix give
every B^-1 (dC/dlambda) B^-T. They go through the derivative of a Cholesky
factor (Murray 2016, "Differentiation of the Cholesky decomposition",
arXiv:1602.07527). So does the pullback of C and those derivatives to the
means, which the sandwich's S_lambda_beta needs.

Every matrix here is block diagonal over the connected components of the
rows (``RowClusters``), so C is held as stacks of per-cluster factors, one
stack per cluster size, and all algebra is batched over the clusters of a
stack. All responses share the clusters, so a stack's per-response pieces
(V^(1/2), Sigma_r, L_r, L_r^-1, the whitened tau derivatives) are each one
(R or q_tau, G, m[, m]) array, and each step is one batched call over the
responses and clusters together. The correlation matrix and its factors
are formed once per rho and read by every stack. No (mR x mR) block of C,
C^-1 or dC/dlambda is formed.
"""

from dataclasses import dataclass, replace
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


def rho_index(n_responses):
    """``rho_pairs`` as two index arrays, every r and every s."""
    return np.array(rho_pairs(n_responses), dtype=int).reshape(-1, 2).T


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
    of original row indices, ascending along each cluster, so an (R, N)
    per-response array ``x`` has stack k's rows at ``x[:, rows[k]]``.
    """

    n_obs: int
    rows: tuple

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
        return cls(n_obs=n, rows=tuple(rows))

    def z_blocks(self, z_codes):
        """Per stack: the (q_tau, G, m, m) cluster blocks of every Z_d of
        every response, in flat tau order, 1.0 where two rows of a cluster
        share a level."""
        codes = np.stack([c for response in z_codes for c in response])
        return tuple(
            (codes[:, rows, None] == codes[:, rows[:, None, :]]).astype(float, order="C")
            for rows in self.rows
        )


def _t(x):
    """Transpose of the last two axes."""
    return np.swapaxes(x, -1, -2)


def mix_responses(weights, x):
    """(weights kron I) x for an (R, ...) array x: response a of the result
    is the sum over t of weights[a, t] x[t]."""
    return (weights @ x.reshape(len(x), -1)).reshape(x.shape)


def build_omega(tau, z_list):
    """Omega = sum_d tau_d Z_d for one response's taus and its Z_d (or
    stacks of their blocks). With ``tau`` an (R, q) matrix whose row r
    holds response r's taus at its Z_d's places, every response's Omega in
    one contraction."""
    tau, z = np.asarray(tau, dtype=float), np.asarray(z_list, dtype=float)
    return (tau @ z.reshape(len(z), -1)).reshape(tau.shape[:-1] + z.shape[1:])


def sqrt_variance(mu, var, ntrial=None):
    """V^(1/2) as a vector, the variance function divided by trial counts."""
    v = variance_eval(var, mu)
    if ntrial is not None:
        v = v / ntrial
    return np.sqrt(v)


def _sigma(sqrt_v, counts, omega):
    """diag(sqrt_v) Omega diag(sqrt_v) + diag(counts), batched over leading
    axes; non-finite entries are rejected."""
    sigma = sqrt_v[..., :, None] * omega * sqrt_v[..., None, :]
    np.einsum("...ii->...i", sigma)[...] += counts
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

    B = Bdiag(L_1..L_R) is block diagonal over the row clusters.
    ``sigma_chols`` holds, per cluster stack, every per-response Cholesky
    factor L_r in one (R, ..., m, m) array: (R, G, m, m) for G clusters of
    m rows, whose C is (G, mR, mR). Each operation on a stack's factors is
    one batched call over all responses. The correlation matrix
    ``sigma_b`` and ``sigma_b_inverse`` K = Sigma_b^-1 depend on rho only,
    so C holds each once and every stack reads it; a C at the same rho
    shares them (``build_joint_c``).
    """

    sigma_chols: tuple
    sigma_b: np.ndarray
    sigma_b_inverse: np.ndarray

    @cached_property
    def sigma_chol_invs(self):
        """Per stack, L_r^-1 of every response as one (R, ..., m, m) array."""
        return tuple(tril_inverse(chols) for chols in self.sigma_chols)

    def at_rho(self, rho):
        """C with the same factors B, coupled through Sigma_b at ``rho``: only
        Sigma_b is factored, and the L_r^-1 carry over."""
        joint = JointCovariance(self.sigma_chols, *_coupling(rho, len(self.sigma_b)))
        joint.__dict__["sigma_chol_invs"] = self.sigma_chol_invs
        return joint


def _coupling(rho, n_responses):
    """Sigma_b at rho and K = Sigma_b^-1, from Sigma_b's Cholesky factor,
    which checks that Sigma_b is positive definite."""
    sigma_b = correlation_matrix(np.asarray(rho, dtype=float), n_responses)
    chol_inv = tril_inverse(_chol(sigma_b, "between-response correlation matrix"))
    return sigma_b, chol_inv.T @ chol_inv


def build_joint_c(sigmas, rho, previous=None):
    """Couple per-response covariances through the correlation matrix.

    Factors Bdiag(L_1..L_R) (Sigma_b kron I) Bdiag(L_1^T..L_R^T) where L_r
    is the lower Cholesky factor of the r-th covariance; block (r, s) is
    therefore Sigma_b[r, s] * L_r L_s^T and the diagonal blocks recover the
    per-response covariances exactly. ``sigmas`` holds one (R, ..., m, m)
    array of Sigma_r blocks per cluster stack, and each stack is factored
    in one call; Sigma_b is factored once for all of them, and K is formed
    from the inverse of that factor. ``previous``, a ``JointCovariance``
    at the same rho, lends its Sigma_b and K instead, which were checked
    when it was built. B is invertible, so C is positive definite
    exactly when Sigma_b is: the factorisations of Sigma_b and of every
    Sigma_r are all the checks C needs, and C itself is never factored.
    """
    chols = []
    for stack in sigmas:
        try:
            chols.append(np.linalg.cholesky(stack))
        except np.linalg.LinAlgError:
            # Response by response, to name the first that fails.
            for r, sigma in enumerate(stack):
                _chol(sigma, f"covariance of response {r + 1}")
            raise NotPositiveDefinite("per-response covariance is not positive definite")
    if previous is not None:
        return replace(previous, sigma_chols=tuple(chols))
    return JointCovariance(tuple(chols), *_coupling(rho, len(chols[0])))


@dataclass(frozen=True)
class CovarianceModel:
    """C as a function of the dispersion parameters, at a fixed mean.

    Bundles the means, variance functions and trial counts of every
    response with the Z_d cluster blocks of every stack
    (``RowClusters.z_blocks``), ``owner`` giving the response of each Z_d,
    so the estimator can rebuild C and its whitened dispersion derivatives
    at any dispersion value. ``build`` returns one ``JointCovariance`` for
    every stack of equal-size clusters (``RowClusters``); it, ``derivatives``
    and ``mean_gradient`` work on one stack at a time, with all responses in
    each batched call.
    """

    mus: tuple
    variances: tuple
    ntrials: tuple
    z_blocks: tuple
    owner: np.ndarray
    clusters: RowClusters

    @property
    def n_responses(self):
        return len(self.mus)

    @cached_property
    def _row_terms(self):
        """Per cluster stack, two (R, G, m) arrays: V^(1/2) of every
        response, and the diagonal that diag(mu) adds to Sigma_r (the means
        of ``poisson_tweedie`` responses, zero for the others). Each
        variance function is evaluated once, on all rows."""
        zero = np.zeros(self.clusters.n_obs)
        counts = [var.kind == "poisson_tweedie" for var in self.variances]
        # An infinite mean or variance leaves non-finite entries, which
        # ``build`` rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            roots = list(map(sqrt_variance, self.mus, self.variances, self.ntrials))
        full = np.stack(roots + [mu if c else zero for mu, c in zip(self.mus, counts)])
        stacks = (full[:, rows] for rows in self.clusters.rows)
        return tuple((g[: self.n_responses], g[self.n_responses :]) for g in stacks)

    def _omegas(self, z, disp):
        """Omega_r of every response: one (R, G, m, m) contraction of a
        stack's Z_d blocks ``z``."""
        weights = np.zeros((self.n_responses, len(z)))
        weights[self.owner, np.arange(len(z))] = np.concatenate(disp.tau)
        return build_omega(weights, z)

    def build(self, disp, previous=None):
        """The ``JointCovariance`` over every cluster stack. ``previous``, a
        ``JointCovariance`` at the same rho, lends its Sigma_b and K
        (``build_joint_c``)."""
        # An infinite mean, variance or tau leaves non-finite entries, which
        # ``_sigma`` rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            sigmas = [
                _sigma(*terms, self._omegas(z, disp))
                for terms, z in zip(self._row_terms, self.z_blocks)
            ]
        return build_joint_c(sigmas, disp.rho, previous)

    def derivatives(self, joint):
        """M = L_r^-1 (dSigma_r/dtau_rd) L_r^-T for every tau_rd, in flat
        order: one (q_tau, G, m, m) array per cluster stack of ``joint``
        (``build(disp)``).

        With Sigma_b these give every B_i = dC/dlambda_i in whitened form,
        A_i = B^-1 B_i B^-T with C = B S B^T, B = Bdiag(L_r) and
        S = Sigma_b kron I. For rho_rs, A_i = (E_rs + E_sr) kron I. For
        tau_rd, L_r moves by L_r P with P = Phi(M) (Murray 2016), so block
        (r, t) of A_i is P Sigma_b[r, t], block (t, r) its transpose, and no
        other block moves. dSigma_r/dtau_rd = V^(1/2) Z_d V^(1/2) (diag(mu)
        does not move with tau), so M = (L_r^-1 V^(1/2)) Z_d (L_r^-1
        V^(1/2))^T, one product chain for every Z_d of a stack.
        """
        out = []
        stacks = zip(self._row_terms, self.z_blocks, joint.sigma_chol_invs)
        for (sqrt_v, _), z, invs in stacks:
            scaled = (invs * sqrt_v[..., None, :])[self.owner]
            out.append(scaled @ z @ _t(scaled))
        return tuple(out)

    def mean_gradient(self, disp, joint, ms, residuals, weights):
        """Row i: gradient in the stacked means of <G_i, C> + <H, B_i>, with
        B_i = dC/dlambda_i, u = C^-1 r, y_i = C^-1 B_i u and the cotangents
        G_i = C^-1 B_i C^-1 - u y_i^T - y_i u^T and H = u u^T - C^-1 held
        fixed.

        Per cluster stack, ``ms`` holds ``derivatives(joint)``,
        ``residuals`` the (R, G, m) arrays e = B^-1 r and z = S^-1 e, and
        ``weights`` the (q, R, G, m) array w_i = X_i e, X_i = S^-1 A_i S^-1
        (C = B S B^T as in ``derivatives``), so that u = B^-T z and
        y_i = B^-T w_i. Returns a (q, R, N) array.

        With K = Sigma_b^-1, block (a, t) of G_i is L_a^-T G^_i[a, t] L_t^-1,
        G^_i = X_i - z w_i^T - w_i z^T, and block (a, t) of H is
        L_a^-T (z_a z_t^T - K_at I) L_t^-1. A mean of response a moves only
        Sigma_a and L_a, so only block row and column a of C and of each B_i
        move, and every contraction is over m x m blocks. A cotangent
        L_a^-T Y of L_a pulls back through dL = L Phi(L^-1 dSigma L^-T) to
        L_a^-T Phi(Y) L_a^-1 of Sigma_a, and Sigma_a to the means through
        dSigma = diag(ds) Omega diag(s) + diag(s) Omega diag(ds)
        (+ diag(dmu) for ``poisson_tweedie``), ds = s'(mu) dmu. For tau_ad,
        B_i also moves with A = diag(s) Z_d diag(s) in block (a, a), and
        block (a, t) is Sigma_b[a, t] L P L_t^T with P = Phi(M),
        M = L^-1 A L^-T, which moves by dL P + L Phi(L^-1 dA L^-T - Q M - M Q^T),
        Q = L^-1 dL.
        """
        grad = np.zeros((len(weights[0]), self.n_responses, self.clusters.n_obs))
        k_inv = joint.sigma_b_inverse
        n_rho = len(disp.rho)
        # What every stack reads of Sigma_b and K. The sums over t != a
        # below are formed from their off-diagonal parts directly: as
        # differences such as e_a - z_a they would lose the digits of small
        # correlations.
        sigma_b_off = joint.sigma_b - np.eye(self.n_responses)
        k_off = k_inv - np.diag(np.diag(k_inv))
        one_minus_k = np.einsum("at,ta->a", sigma_b_off, k_inv)  # 1 - K_aa
        stacks = zip(
            self.clusters.rows, self._row_terms, self.z_blocks,
            joint.sigma_chol_invs, ms, residuals, weights,
        )
        for rows, (sqrt_vs, _), z_blocks, chol_invs, stack_ms, (e, z), w in stacks:
            eye = np.eye(z.shape[-1])
            omegas = self._omegas(z_blocks, disp)
            zetas = mix_responses(sigma_b_off, z)
            k_off_e = mix_responses(k_off, e)
            for a in range(self.n_responses):
                chol_inv, s = chol_invs[a], sqrt_vs[a]
                mu, ntrial = self.mus[a][rows], self.ntrials[a]
                dv = variance_deriv(self.variances[a], mu)
                if ntrial is not None:
                    dv = dv / ntrial[rows]
                slope = dv / (2.0 * s)  # ds/dmu
                mine = np.flatnonzero(self.owner == a)
                own, m_own = n_rho + mine, stack_ms[mine]
                z_a, w_a = z[a], w[:, a]
                zeta = zetas[a]  # sum over t != a of Sigma_b[a, t] z_t
                # The cotangent of L_a is L_a^-T Y_i, Y_i = 2 sum over t != a
                # of Sigma_b[a, t] G^_i[a, t] plus the H terms of d B_i / d L_a:
                # Y_i / 2 = z_a f_i^T - w_ia zeta^T - (V + V^T) M for tau_ad,
                # V = Phi(z_a zeta^T - (1 - K_aa) I), with f_i = w_ia except
                # f_i = P (K_aa e_a - z_a) for tau_ad, K_aa e_a - z_a = -sum
                # over t != a of K_at e_t. For rho_rs, Y_i / 2 also holds
                # -X_i[a, a] = -2 K_ar K_as I, which gamma^_i below adds back:
                # Phi(c I) = c I / 2, so 2 Phi(-X_i[a, a]) + X_i[a, a] = 0 and
                # neither term is formed.
                f = w_a.copy()
                f[own] = -(_phi(m_own) @ k_off_e[a][..., None])[..., 0]
                y_half = _outer(z_a, f) - _outer(w_a, zeta)
                v = _phi(_outer(z_a, zeta) - one_minus_k[a] * eye)
                y_half[own] -= (v + _t(v)) @ m_own
                # The cotangent of Sigma_a, gamma_i = L_a^-T gamma^_i L_a^-1
                # with gamma^_i = G^_i[a, a] + Phi(Y_i), where X_i[a, a] is
                # K_aa M for tau_ad and zero for the taus of other responses.
                # Only its symmetric part counts, dSigma_a being symmetric, so
                # -z_a w_ia^T - w_ia z_a^T enters as -2 z_a w_ia^T.
                gamma = 2.0 * (_phi(y_half) - _outer(z_a, w_a))
                gamma[own] += k_inv[a, a] * m_own
                gamma = _t(chol_inv) @ gamma @ chol_inv
                grad_s = _spread(gamma, omegas[a], s)
                # <H[a, a] + 2 L_a^-T V L_a^-1, dA> for tau_ad.
                h_own = _outer(z_a, z_a) - k_inv[a, a] * eye + 2.0 * v
                h_own = _t(chol_inv) @ h_own @ chol_inv
                grad_s[own] += _spread(h_own, z_blocks[mine], s)
                grad_s *= slope
                if self.variances[a].kind == "poisson_tweedie":
                    grad_s += np.diagonal(gamma, axis1=-2, axis2=-1)
                grad[:, a, rows] = grad_s
        return grad


def _outer(x, y):
    """x y^T, batched over leading axes."""
    return np.einsum("...i,...j->...ij", x, y)


@lru_cache(maxsize=64)
def _phi_weights(m):
    weights = np.tril(np.ones((m, m)))
    np.fill_diagonal(weights, 0.5)
    weights.flags.writeable = False
    return weights


def _phi(x):
    """Lower triangle with the diagonal halved; self-adjoint in <., .>."""
    return x * _phi_weights(x.shape[-1])


def _spread(gamma, z, s):
    """Gradient in s of <gamma, diag(s) Z diag(s)>: ((gamma + gamma^T) o Z) s."""
    return (((gamma + _t(gamma)) * z) @ s[..., None])[..., 0]
