"""Seeded synthetic data shaped like the two published covglm analyses.

Every generator takes the workload seed and returns a ``covglm.Dataset``;
the same seed always gives the same rows. Column names and level labels
follow the model specs in ``fixtures/`` so those specs bind unchanged.
"""

import itertools

import numpy as np

from covglm.data import Dataset

HUNTING_GROUP_SIZE = 6
SOYA_BLOCKS = ("I", "II", "III", "IV", "V")
SOYA_WATER = ("37.5", "50", "62.5")
SOYA_POT = ("0", "30", "60", "120", "180")


def _dataset(numeric, factors):
    columns = {name: np.asarray(v, dtype=float) for name, v in numeric.items()}
    kinds = dict.fromkeys(numeric, "numeric")
    for name, values in factors.items():
        columns[name] = np.array([str(v) for v in values], dtype=object)
        kinds[name] = "factor"
    return Dataset(columns, kinds)


def hunting_data(seed, n_rows=300):
    """Bivariate counts in hunter-month groups of six rows.

    METHOD x SEX is balanced and shuffled, every group draws one effect per
    response (correlated across responses), and counts are Poisson around
    a log-linear mean scaled by a per-row exposure. The group effects are
    modest (sd about 0.2 on the log scale) because stronger ones make the
    iteration count swing between 6 and 11 from seed to seed, which would
    turn fit time into a measure of the seed rather than of the code.
    """
    if n_rows % 12:
        raise ValueError("n_rows must be a multiple of 12 for a balanced layout")
    rng = np.random.default_rng(seed)
    n_groups = n_rows // HUNTING_GROUP_SIZE
    group = np.repeat(np.arange(n_groups), HUNTING_GROUP_SIZE)
    cell = rng.permutation(np.arange(n_rows) % 4)
    trampa = (cell // 2).astype(float)
    male = (cell % 2).astype(float)
    exposure = rng.integers(5, 26, size=n_rows).astype(float)
    shared = rng.normal(scale=0.15, size=n_groups)
    own = rng.normal(scale=0.15, size=(2, n_groups))
    eta_bd = -1.0 + 0.8 * trampa - 0.6 * male + shared[group] + own[0, group]
    eta_ot = -1.8 + 0.4 * trampa - 0.3 * male + shared[group] + own[1, group]
    bd = rng.poisson(np.exp(eta_bd) * exposure)
    ot = rng.poisson(np.exp(eta_ot) * exposure)
    return _dataset(
        {"BD": bd, "OT": ot, "OFFSET": exposure, "logOFFSET": np.log(exposure)},
        {
            "METHOD": np.where(trampa == 1.0, "Trampa", "Escopeta"),
            "SEX": np.where(male == 1.0, "Male", "Female"),
            "HUNTER.MONTH": [f"HM{g:03d}" for g in group],
        },
    )


def soya_data(seed, n_blocks=5):
    """The full block x 3 water x 5 pot factorial, 75 plots at 5 blocks.

    Grain is Gaussian, seed counts are Poisson and the viable-pea
    proportion is binomial over 20 to 60 trials per plot.
    """
    rng = np.random.default_rng(seed)
    rows = list(itertools.product(range(n_blocks), range(3), range(5)))
    b, w, p = (np.array(col) for col in zip(*rows))
    n = len(rows)
    block_eff = rng.normal(scale=0.5, size=n_blocks)
    cell_eff = rng.normal(scale=0.3, size=(3, 5))
    grain = 15.0 + block_eff[b] + 1.5 * w + 0.8 * p + cell_eff[w, p]
    grain = grain + rng.normal(scale=2.0, size=n)
    seeds = rng.poisson(np.exp(4.4 + 0.05 * block_eff[b] + 0.1 * w + 0.05 * p))
    total = rng.integers(20, 61, size=n)
    logit = 1.1 + 0.2 * w - 0.1 * p + 0.5 * cell_eff[w, p]
    viable = rng.binomial(total, 1.0 / (1.0 + np.exp(-logit)))
    return _dataset(
        {
            "grain": grain,
            "seeds": seeds,
            "viablepeas": viable,
            "totalpeas": total,
            "viablepeasP": viable / total,
        },
        {
            "block": [SOYA_BLOCKS[i] for i in b],
            "water": [SOYA_WATER[i] for i in w],
            "pot": [SOYA_POT[i] for i in p],
        },
    )
