"""The pairwise trace products behind the Pearson sensitivity."""

import numpy as np

__all__ = ["pair_traces"]


def pair_traces(mats):
    """sum_g tr(mats[i, g] @ mats[j, g]) for every pair of a (q, G, n, n)
    stack. One GEMM: tr(A B) = sum_kl A[k, l] B[l, k]."""
    q = mats.shape[0]
    flat = mats.reshape(q, -1)
    out = flat @ np.swapaxes(mats, -1, -2).reshape(q, -1).T
    return 0.5 * (out + out.T)
