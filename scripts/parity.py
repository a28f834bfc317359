"""Compare the fits and analyses of this tree with those of another tree.

    python3 scripts/parity.py PARENT_TREE [--seeds 0 1101]

In each tree, a fresh interpreter fits both covbench shapes (Hunting and
soya) at every seed, with that tree's ``covbench/`` and ``src/``, and runs
``workload.analysis_pass`` on the saved fit. The first table gives each
tree's iteration count and the largest difference of beta-hat, lambda-hat
and ``joint_inverse``, each relative to the largest entry of the parent's.
The second gives the largest difference of the pass's Wald statistics,
each relative to max(1, the parent's value), and whether the rendered
reports are byte-identical. The exit status is 1 when an iteration count
differs, a fit difference exceeds ``TOLERANCE``, a Wald difference exceeds
``ANALYSIS_TOLERANCE`` or a report differs, and 0 otherwise. Standard
library and numpy only.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent.parent
SHAPES = ("hunting", "soya")
TOLERANCE = 1e-13
ANALYSIS_TOLERANCE = 1e-12
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1] + "/covbench")
import pinned  # noqa: F401  (before numpy; puts the tree's src first)
import workload
from covglm import fit, save_fit

out = {}
for name in sys.argv[2].split(","):
    shape = workload.SHAPES[name]
    for seed in map(int, sys.argv[3].split(",")):
        data = shape.generate(seed, False)
        model = fit(shape.spec, data)
        path = sys.argv[4] + f"/{name}_{seed}.json"
        save_fit(model, path)
        _, stats, _, report = workload.analysis_pass(shape, path, data)
        out[f"{name} {seed}"] = {
            "iterations": model.iterations,
            "beta": model.beta_hat.tolist(),
            "lambda": model.lambda_hat.flatten().tolist(),
            "joint_inverse": model.joint_inverse.tolist(),
            "wald": [float(stat) for stat in stats],
            "report": report,
        }
print(json.dumps(out))
"""


def fits(tree, seeds):
    """Every case's fit and analysis pass in ``tree``, from a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with tempfile.TemporaryDirectory() as scratch:
        args = [
            str(Path(tree).resolve()), ",".join(SHAPES), ",".join(map(str, seeds)), scratch
        ]
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
    print()
    print("| case | Wald statistics | reports |")
    print("| --- | --- | --- |")
    for case, before in old.items():
        after = new[case]
        old_wald, new_wald = np.array(before["wald"]), np.array(after["wald"])
        if old_wald.shape == new_wald.shape:
            diff = float(np.max(np.abs(new_wald - old_wald) / np.maximum(1.0, np.abs(old_wald))))
        else:
            diff = float("inf")  # a different number of statistics
        same = before["report"] == after["report"]
        print(f"| {case} | {diff:.2g} | {'identical' if same else 'differ'} |")
        agree &= diff <= ANALYSIS_TOLERANCE and same
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
