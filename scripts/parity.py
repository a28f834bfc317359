"""Compare the fits of this tree with those of another tree of the project.

    python3 scripts/parity.py PARENT_TREE [--seeds 0 1101]

In each tree, a fresh interpreter fits both covbench shapes (Hunting and
soya) at every seed, with that tree's ``covbench/`` and ``src/``. The table
gives each tree's iteration count and the largest difference of beta-hat,
lambda-hat and ``joint_inverse``, each relative to the largest entry of the
parent's. The exit status is 1 when an iteration count differs or a
relative difference exceeds ``TOLERANCE``, and 0 otherwise. Standard
library and numpy only.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
SHAPES = ("hunting", "soya")
TOLERANCE = 1e-13
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1] + "/covbench")
import pinned  # noqa: F401  (before numpy; puts the tree's src first)
import workload
from covglm import fit

out = {}
for name in sys.argv[2].split(","):
    shape = workload.SHAPES[name]
    for seed in map(int, sys.argv[3].split(",")):
        model = fit(shape.spec, shape.generate(seed, False))
        out[f"{name} {seed}"] = {
            "iterations": model.iterations,
            "beta": model.beta_hat.tolist(),
            "lambda": model.lambda_hat.flatten().tolist(),
            "joint_inverse": model.joint_inverse.tolist(),
        }
print(json.dumps(out))
"""


def fits(tree, seeds):
    """Every case's fit in ``tree``, from a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    args = [str(Path(tree).resolve()), ",".join(SHAPES), ",".join(map(str, seeds))]
    done = subprocess.run(
        [sys.executable, "-c", CHILD, *args],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(done.stdout)


def relative(new, old):
    old, new = np.asarray(old), np.asarray(new)
    return float(np.max(np.abs(new - old)) / np.max(np.abs(old)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the tree to compare against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1101])
    args = parser.parse_args(argv)
    old, new = fits(args.parent, args.seeds), fits(HERE, args.seeds)
    keys = ("beta", "lambda", "joint_inverse")
    print("| case | iterations (parent, this) | beta-hat | lambda-hat | joint_inverse |")
    print("| --- | --- | --- | --- | --- |")
    agree = True
    for case, before in old.items():
        after = new[case]
        diffs = [relative(after[key], before[key]) for key in keys]
        print(
            f"| {case} | {before['iterations']}, {after['iterations']} | "
            + " | ".join(f"{d:.2g}" for d in diffs) + " |"
        )
        agree &= before["iterations"] == after["iterations"] and max(diffs) <= TOLERANCE
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
