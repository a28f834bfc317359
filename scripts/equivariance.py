"""Read how far a fit is from equivariant to response order, in this tree
and in another tree of the project.

    python3 scripts/equivariance.py PARENT_TREE

``tests/test_clusters.py::test_fit_equivariant_to_response_order`` fits its
bivariate grouped model in both response orders and bounds the difference
of the permuted ``joint_inverse`` at 1e-10 of its largest entry. This
script prints that reading. In each tree a fresh interpreter fits with the
tree's ``src/`` on the data and spec of this tree's test module, so both
trees see the same draws. It reads three named draws first, then the
median, 90th percentile, maximum and count over 1e-10 over ``DRAWS`` draws
(seed, groups, rows per group) from a fixed generator in the test's
ranges, counting only those that converge in both orders in both
trees. Needs numpy and the test extra; prints only, and exits 0.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
NAMED = ((3178, 4, 2), (47933, 6, 2), (37606, 4, 4))
BOUND = 1e-10
DRAWS = 200
CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[2]]
import numpy as np
import test_clusters as t
from covglm import ModelSpec, fit

out = []
for seed, n_groups, size in json.loads(sys.argv[3]):
    data = t.make_dataset(t._grouped_bivariate_columns(seed, n_groups, size))
    base = fit(t.GROUPED_SPEC, data)
    swapped = fit(ModelSpec(responses=t.GROUPED_SPEC.responses[::-1]), data)
    k = base.n_beta
    first, second = (np.arange(s.start, s.stop) for s in base.beta_spans)
    # Full parameter order (beta_1, beta_2, rho_12, tau_1, tau_2).
    perm = np.concatenate([second, first, [k], [k + 3, k + 4], [k + 1, k + 2]])
    expected = base.joint_inverse[np.ix_(perm, perm)]
    diff = np.max(np.abs(swapped.joint_inverse - expected)) / np.max(np.abs(expected))
    out.append([float(diff), bool(base.converged and swapped.converged)])
print(json.dumps(out))
"""


def readings(tree, draws):
    """(reading, converged) of every draw in ``tree``, from a fresh
    interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    args = [str(Path(tree).resolve()), str(HERE / "tests"), json.dumps(draws)]
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *args],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(done.stdout)


def shown(reading):
    value, converged = reading
    return f"{value:.2g}" + ("" if converged else " (not converged)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the tree to compare against")
    args = parser.parse_args(argv)
    # (seed, n_groups, size) in the ranges of the test's strategies.
    rng = np.random.default_rng(2022)
    drawn = rng.integers([0, 4, 2], [2**16 + 1, 10, 6], (DRAWS, 3))
    draws = list(NAMED) + drawn.tolist()
    old, new = readings(args.parent, draws), readings(HERE, draws)
    print("| draw (seed, groups x rows) | parent | this |")
    print("| --- | --- | --- |")
    for (seed, n_groups, size), before, after in zip(NAMED, old, new):
        print(f"| {seed} ({n_groups} x {size}) | {shown(before)} | {shown(after)} |")
    kept = [
        (before[0], after[0])
        for before, after in zip(old[len(NAMED):], new[len(NAMED):])
        if before[1] and after[1]
    ]
    parent, this = np.array(kept).T
    print(f"\n{len(kept)} of {DRAWS} draws converge in both orders in both trees.\n")
    print("| over the converged draws | parent | this |")
    print("| --- | --- | --- |")
    for name, stat in (
        ("median", np.median),
        ("90th percentile", lambda v: np.percentile(v, 90)),
        ("maximum", np.max),
    ):
        print(f"| {name} | {stat(parent):.2g} | {stat(this):.2g} |")
    print(f"| over {BOUND:g} | {np.sum(parent > BOUND)} | {np.sum(this > BOUND)} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
