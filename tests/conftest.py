import itertools
import os
from pathlib import Path

import numpy as np
import pytest

from covglm.data import Dataset
from covglm.estimator import fit
from covglm.families import Link, VarianceFn
from covglm.formula import parse_formula
from covglm.model import MatrixComponent, ModelSpec, ResponseSpec


SRC = str(Path(__file__).resolve().parent.parent / "src")


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



