import itertools
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from covglm.covariance import _sigma, sqrt_variance
from covglm.data import Dataset
from covglm.estimator import fit
from covglm.families import Link, VarianceFn
from covglm.formula import parse_formula
from covglm.model import MatrixComponent, ModelSpec, ResponseSpec


SRC = str(Path(__file__).resolve().parent.parent / "src")

# Property tests draw a fixed, small set of examples so tier-1 stays fast
# and repeatable.
PROPERTY_SETTINGS = settings(
    max_examples=20, deadline=None, derandomize=True, database=None
)


def subprocess_env(**overrides):
    """The environment with the repo's src first on PYTHONPATH: a child
    interpreter does not inherit pytest's ``pythonpath`` setting."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def make_dataset(columns):
    """Dataset from arrays; object/str arrays become factors."""
    cols = {}
    kinds = {}
    for name, values in columns.items():
        arr = np.asarray(values)
        if arr.dtype.kind in "OUS":
            cols[name] = np.array([str(v) for v in values], dtype=object)
            kinds[name] = "factor"
        else:
            cols[name] = arr.astype(float)
            kinds[name] = "numeric"
    return Dataset(cols, kinds)


def dense_z(codes):
    """The N x N matrix Z_ab = [c_a == c_b] that level codes represent."""
    return (codes[:, None] == codes[None, :]).astype(float)


# Reference assembly. A fit never forms C, C^-1 or the dense D; the tests
# assemble them from what a fit holds and compare against them.


def build_sigma_r(mu, var, omega, ntrial=None):
    """Per-response covariance V^(1/2) Omega V^(1/2) (+ diag(mu) for counts).

    ``mu`` (and ``ntrial``) may carry leading axes matching a stack of
    Omega blocks.
    """
    counts = mu if var.kind == "poisson_tweedie" else 0.0
    return _sigma(sqrt_variance(mu, var, ntrial), counts, omega)


def _coupled(products, weights):
    """The symmetrised matrix whose block (r, s) is weights[r, s] times
    block (r, s) of the (R, R, ..., m, m) array ``products``."""
    n_resp, _, *lead, m, _ = products.shape
    blocks = products * weights.reshape(weights.shape + (1,) * (products.ndim - 2))
    # (r, s, ..., i, j) -> (..., r, i, s, j): response-major rows and columns.
    out = np.moveaxis(blocks, (0, 1), (-4, -2)).reshape(tuple(lead) + (n_resp * m,) * 2)
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def assembled_c(joint):
    """C of every cluster stack of a ``JointCovariance``, (..., mR, mR)
    each: block (r, s) is Sigma_b[r, s] L_r L_s^T."""
    return [
        _coupled(chols[:, None] @ np.swapaxes(chols, -1, -2)[None, :], joint.sigma_b)
        for chols in joint.sigma_chols
    ]


def assembled_inverse(joint):
    """C^-1 = B^-T (Sigma_b^-1 kron I) B^-1 of every cluster stack: block
    (r, s) is (Sigma_b^-1)[r, s] L_r^-T L_s^-1."""
    k_inv = joint.sigma_b_inverse
    return [
        _coupled(np.swapaxes(invs, -1, -2)[:, None] @ invs[None, :], k_inv)
        for invs in joint.sigma_chol_invs
    ]


def stacked_index(rows, n_responses, n_obs):
    """The (G, m R) positions of a stack's (G, m) clusters of ``rows`` in
    the stacked length-N R vector, response r's rows at r N + row."""
    offsets = np.arange(n_responses)[:, None] * n_obs
    return (offsets + rows[:, None, :]).reshape(len(rows), -1)


def dense_d(d_blocks, widths):
    """D as the dense (N R, k) matrix, from the (R, N, k_max) array of its
    blocks D_r, each in its first ``widths[r]`` columns: response r's rows
    hold D_r in r's own columns, and zeros elsewhere."""
    n_resp, n, _ = d_blocks.shape
    out = np.zeros((n_resp * n, sum(widths)))
    start = 0
    for r, width in enumerate(widths):
        out[r * n : (r + 1) * n, start : start + width] = d_blocks[r, :, :width]
        start += width
    return out


def response_spec(formula, link="identity", variance="constant", power=1.0,
                  matrix_pred=None, offset_column=None, ntrial_column=None):
    return ResponseSpec(
        formula=parse_formula(formula),
        link=Link(link),
        variance=VarianceFn(variance, power),
        matrix_pred=tuple(matrix_pred or (MatrixComponent("identity"),)),
        offset_column=offset_column,
        ntrial_column=ntrial_column,
    )


def gaussian_spec(*formulas):
    return ModelSpec(responses=tuple(response_spec(f) for f in formulas))


def simulate_gaussian(seed, n=100, p=3, scale=1.3):
    """One covariate block plus noise; returns (dataset, X, y)."""
    rng = np.random.default_rng(seed)
    xs = {f"x{j + 1}": rng.normal(size=n) for j in range(p)}
    coefs = rng.normal(size=p)
    y = 1.0 + sum(c * xs[f"x{j + 1}"] for j, c in enumerate(coefs))
    y = y + rng.normal(scale=scale, size=n)
    data = make_dataset({"y": y, **xs})
    design = np.column_stack([np.ones(n)] + [xs[f"x{j + 1}"] for j in range(p)])
    return data, design, y


def factorial_data(seed=0, n_responses=3):
    """Crossed block(5) x water(3) x pot(5) layout with numeric responses."""
    rng = np.random.default_rng(seed)
    rows = list(
        itertools.product(
            [f"B{i}" for i in range(1, 6)],
            [f"W{i}" for i in range(1, 4)],
            [f"P{i}" for i in range(1, 6)],
        )
    )
    block, water, pot = (np.array(col, dtype=object) for col in zip(*rows))
    columns = {"block": block, "water": water, "pot": pot}
    for r in range(n_responses):
        effect = rng.normal(size=len(rows))
        columns[f"y{r + 1}"] = 3.0 + effect
    return make_dataset(columns)


def factorial_spec(n_responses=3):
    return gaussian_spec(
        *[f"y{r + 1} ~ block + water * pot" for r in range(n_responses)]
    )


def assert_valid_godambe(model, tol=1e-8):
    j = model.godambe_inv
    assert np.allclose(j, j.T, atol=1e-8)
    assert np.diag(j).min() > 0
    eigenvalues = np.linalg.eigvalsh(0.5 * (j + j.T))
    assert eigenvalues.min() >= -tol


@pytest.fixture(scope="session")
def factorial_fit():
    data = factorial_data(seed=0)
    return fit(factorial_spec(), data)


@pytest.fixture(scope="session")
def grouped_bivariate_fit():
    """Two Gaussian responses, each with identity + grouping dispersion."""
    rng = np.random.default_rng(11)
    n = 120
    groups = np.array([f"g{i % 12}" for i in range(n)], dtype=object)
    group_effect = rng.normal(scale=0.8, size=12)
    x = rng.normal(size=n)
    shared = group_effect[[int(g[1:]) for g in groups]]
    y1 = 1.0 + 0.5 * x + shared + rng.normal(size=n)
    y2 = -0.3 + 0.2 * x + shared + rng.normal(size=n)
    data = make_dataset({"y1": y1, "y2": y2, "x": x, "g": groups})
    preds = (MatrixComponent("identity"), MatrixComponent("grouping", "g"))
    spec = ModelSpec(
        responses=(
            response_spec("y1 ~ x", matrix_pred=preds),
            response_spec("y2 ~ x", matrix_pred=preds),
        )
    )
    model = fit(spec, data)
    return model, spec, data



