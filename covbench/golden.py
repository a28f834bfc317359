"""Golden reference values for the benchmark's correctness gate.

``golden.json`` holds, for seed 0, the estimates, dispersion parameters,
diagonal of the inverse Godambe matrix and every Wald statistic of one
analysis pass, for each shape at full and at tiny size. They were captured
from the code this benchmark was written against. Every run checks the
tiny case of its shape; a run with ``--seed 0`` also checks the full case.

    python3 covbench/golden.py capture   # rewrite golden.json from the code
    python3 covbench/golden.py smoke     # show that a perturbed value is caught
"""

import json
import sys
import tempfile
from pathlib import Path

import pinned  # noqa: F401  (before numpy)
import numpy as np

from covglm import fit, save_fit
from workload import SHAPES, analysis_pass, golden_values

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_SEED = 0
TOLERANCE = {
    "rtol": 1e-3,
    "atol_share": 1e-6,
    "reason": (
        "A value passes when |value - golden| <= rtol * |golden| + "
        "atol_share * max|golden of that array|. The fit stops once no "
        "parameter moves by 1e-4, and the sandwich uses finite differences "
        "with steps of 1e-6 and 1e-5, so a correct change of iteration path "
        "or of derivative method (closed-form Cholesky derivatives, a "
        "cluster-decomposed covariance) moves results by up to about 1e-4 "
        "relative; 1e-3 leaves a tenfold margin over that and still catches "
        "any change to the model or the statistics."
    ),
}


def case_name(shape, tiny, seed=GOLDEN_SEED):
    return f"{shape}-{'tiny' if tiny else 'full'}-seed{seed}"


def load():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def misses(values, golden, tolerance=TOLERANCE):
    """Names of the arrays in ``golden`` that ``values`` does not match."""
    out = []
    for key, expected in golden.items():
        if key not in values:
            continue
        got = np.asarray(values[key], dtype=float)
        want = np.asarray(expected, dtype=float)
        if got.shape != want.shape:
            out.append(f"{key}: shape {got.shape} != golden {want.shape}")
            continue
        if not want.size:
            continue
        limit = tolerance["rtol"] * np.abs(want)
        limit += tolerance["atol_share"] * np.abs(want).max()
        worst = np.abs(got - want) - limit
        if not np.all(worst <= 0):
            i = int(np.argmax(worst))
            out.append(f"{key}[{i}]: {float(got.flat[i])!r} vs golden {float(want.flat[i])!r}")
    return out


def compute(shape, tiny, workdir, seed=GOLDEN_SEED):
    """Fit the case's data, save, run one analysis pass; the compared values."""
    data = shape.generate(seed, tiny)
    model = fit(shape.spec, data)
    path = Path(workdir) / f"golden-{case_name(shape.name, tiny, seed)}.fit.json"
    save_fit(model, path)
    try:
        _, stats, _, _ = analysis_pass(shape, path, data)
    finally:
        path.unlink()
    return golden_values(model, stats)


def check_case(shape, tiny, workdir, reference):
    """Problems of one golden case against ``reference`` (empty when it holds)."""
    return misses(compute(shape, tiny, workdir), reference[case_name(shape.name, tiny)])


def _capture():
    cases = {}
    with tempfile.TemporaryDirectory(dir=GOLDEN_PATH.parent.parent) as workdir:
        for shape in SHAPES.values():
            for tiny in (True, False):
                cases[case_name(shape.name, tiny)] = compute(shape, tiny, workdir)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"tolerance": TOLERANCE, "cases": cases}, handle, indent=1)
        handle.write("\n")


def _smoke():
    """Exit 0 when the tiny golden case passes and a 1% perturbation fails."""
    shape = SHAPES["hunting"]
    reference = load()["cases"]
    name = case_name(shape.name, True)
    perturbed = json.loads(json.dumps(reference))
    perturbed[name]["beta_hat"][1] *= 1.01
    with tempfile.TemporaryDirectory(dir=GOLDEN_PATH.parent.parent) as workdir:
        clean = check_case(shape, True, workdir, reference)
        caught = check_case(shape, True, workdir, perturbed)
    print(f"unperturbed golden: failed_ops {int(bool(clean))} {clean}")
    print(f"beta_hat[1] perturbed by 1%: failed_ops {int(bool(caught))} {caught}")
    return 0 if not clean and caught else 1


if __name__ == "__main__":
    commands = {"capture": _capture, "smoke": _smoke}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        sys.exit(f"usage: {sys.argv[0]} capture|smoke")
    sys.exit(commands[sys.argv[1]]())
