"""End-to-end benchmark of covglm: one workload per process, timed per module.

    python3 covbench/run.py --workload hunting --seed 1 --seconds 55 --trace 0

Each workload (``hunting``, ``soya``) is a closed loop with one caller and
one BLAS thread: ``fit`` then ``save_fit`` on the one dataset the seed
generates, repeated for ``--seconds``, with analysis passes over the latest
fit interleaved for a quarter of the time, so that every workload reports
every metric. No fit starts that would run past ``--seconds``; passes fill
the rest.

The gated timings are the fastest fit and the fastest pass of a run. The
host is shared: other tenants slow every operation by 30-70% for seconds to
minutes at a time, and the share of a run they cover differs from run to
run, which moved the median, and the 10th percentile nearly as much, by up
to a third between runs of the same code. The fastest operation is the
one the other tenants slowed least, so it moves least with their load, and
a change to the code's cost moves it as it moves the median. Medians and
the pass p90 are printed beside it, ungated.

With ``--trace 0`` the end-to-end metrics are measured untraced. With
``--trace 1`` every second operation runs with wrappers on covglm's public
functions, and the per-layer metrics come from those traced operations.
Each metric prints as ``name value unit``; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. Results, the
environment and spans are also written under ``.covbench_out/``.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

import pinned  # noqa: F401  (before numpy)
import numpy as np
import scipy

import golden
from covglm import bind, fit, pearson_fn, quasi_score, save_fit
from tracing import Tracer, maybe_span
from workload import SHAPES, analysis_pass, fit_problems, golden_values, pass_problems

OUT = pinned.ROOT / ".covbench_out"
WORKLOADS = ("hunting", "soya")
SETUP_REPEATS = 3
IMPORT_REPEATS = 5  # the import is short and noisy, so it gets more repeats
PASS_SHARE = 1 / 4  # of a run, spent on analysis passes
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import covglm; print(time.perf_counter() - t)"
)

E2E_UNITS = {
    "fit_min_s": "s",
    "analysis_min_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per-layer metric -> span name; times and counts are per traced fit or pass
# and reported as the median over those ops.
FIT_SPANS = {
    "model.bind_s": "model.bind",
    "model.grouping_matrix_s": "model.grouping_matrix",
    "covariance.build_s": "covariance.build",
    "covariance.build_joint_c_s": "covariance.build_joint_c",
    "covariance.derivatives_s": "covariance.derivatives",
    "estimator.cross_blocks_s": "estimator.cross_blocks",
    "kernels.pair_traces_s": "kernels.pair_traces",
    "serialize.save_s": "serialize.save_fit",
}
FIT_COUNTS = {
    "covariance.build_calls": "covariance.build",
    "covariance.derivatives_calls": "covariance.derivatives",
    "kernels.pair_traces_calls": "kernels.pair_traces",
}
PASS_SPANS = {
    "serialize.load_s": "serialize.load_fit",
    "tables.anova_s": "tables.anova",
    "tables.manova_s": "tables.manova",
    "tables.dispersion_s": "tables.dispersion",
    "wald.lht_s": "wald.lht",
    "multcomp.per_response_s": "multcomp.per_response",
    "multcomp.joint_s": "multcomp.joint",
    "report.render_s": "report.render",
}
PASS_COUNTS = {
    "wald.wald_statistic_calls": "wald.wald_statistic",
    "chisq.chisq_sf_calls": "chisq.chisq_sf",
}
SOLUTION_SPANS = {
    "estimator.quasi_score_s": "estimator.quasi_score",
    "estimator.pearson_fn_s": "estimator.pearson_fn",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=golden.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


class Run:
    """Operation counts, problems and timings of one benchmark process."""

    def __init__(self, args):
        self.args = args
        self.shape = SHAPES[args.workload]
        self.run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
        self.fit_path = OUT / f"{self.run_id}.fit.json"
        self.attempted = 0
        self.failed = 0
        self.fit_times = {False: [], True: []}  # keyed by traced
        self.pass_times = {False: [], True: []}
        self.tracer = Tracer(self.run_id) if args.trace else None
        self.first_fit = None
        self.first_stats = None
        self.golden = golden.load()["cases"]

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)

    def _traced(self, op, traced):
        if traced:
            self.tracer.op = op
            return self.tracer.installed()
        return nullcontext()

    def fit_op(self, spec, data, traced=False):
        """One fit + save_fit, checked. Returns the model or None."""
        index = len(self.fit_times[False]) + len(self.fit_times[True])
        model = None
        problems = []
        with self._traced(f"fit{index}", traced):
            start = time.perf_counter()
            try:
                with maybe_span(self.tracer if traced else None, "fit"):
                    model = fit(spec, data)
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                problems.append(traceback.format_exc(limit=3))
            self.fit_times[traced].append(time.perf_counter() - start)
            if model is not None:
                with maybe_span(self.tracer if traced else None, "serialize.save_fit"):
                    save_fit(model, self.fit_path)
        if model is not None:
            problems += fit_problems(model)
            values = golden_values(model)
            if self.first_fit is None:
                self.first_fit = values
                if self.args.seed == golden.GOLDEN_SEED:
                    name = golden.case_name(self.shape.name, False)
                    problems += golden.misses(values, self.golden[name])
            else:
                problems += golden.misses(values, self.first_fit)
        self.record(f"fit {index}", problems)
        return model

    def pass_op(self, saved, data, traced=False):
        """One analysis pass over the saved fit, checked."""
        index = len(self.pass_times[False]) + len(self.pass_times[True])
        problems = []
        with self._traced(f"pass{index}", traced):
            start = time.perf_counter()
            try:
                loaded, stats, lht, report = analysis_pass(
                    self.shape, self.fit_path, data, self.tracer if traced else None
                )
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                problems.append(traceback.format_exc(limit=3))
            self.pass_times[traced].append(time.perf_counter() - start)
        if not problems:
            problems += pass_problems(saved, loaded, stats, lht, report)
            if self.first_stats is None:
                self.first_stats = {"wald": stats}
                if self.args.seed == golden.GOLDEN_SEED:
                    name = golden.case_name(self.shape.name, False)
                    problems += golden.misses(self.first_stats, self.golden[name])
            else:
                problems += golden.misses({"wald": stats}, self.first_stats)
        self.record(f"pass {index}", problems)

    def golden_op(self):
        """The tiny golden case of this shape, fitted and analysed once."""
        try:
            problems = golden.check_case(self.shape, True, OUT, self.golden)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            problems = [traceback.format_exc(limit=3)]
        self.record("tiny golden case", problems)


def import_seconds():
    """Time to import covglm (numpy and scipy included) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(pinned.SRC)],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=pinned.ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def setup(run):
    """Import and data generation, each repeated.

    Returns (spec, data, setup seconds): the sum of the per-step medians.
    """
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    gens = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        data = run.shape.generate(run.args.seed, False)
        gens.append(time.perf_counter() - start)
    setup_s = statistics.median(imports) + statistics.median(gens)
    return run.shape.spec, data, setup_s


def measure(run, spec, data):
    """The timed loop of --seconds; with --trace 1 every second op is traced.

    Fits, with analysis passes in between whenever they have had less than
    ``PASS_SHARE`` of the time so far, so the passes see the same mix of
    machine load as the fits. A fit that the last one says would end past
    --seconds is not started; passes fill that time instead.
    Returns the model the workload analysed, or None if no fit succeeded.
    """
    trace = bool(run.args.trace)
    saved = None
    fits = passes = 0
    pass_time = last_fit = 0.0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= run.args.seconds and (min(fits, passes) >= 2 or saved is None):
            return saved
        passes_due = pass_time < PASS_SHARE * elapsed
        fit_ends_in_time = fits < 2 or elapsed + last_fit <= run.args.seconds
        if saved is not None and (passes_due or not fit_ends_in_time):
            begin = time.perf_counter()
            run.pass_op(saved, data, traced=trace and passes % 2 == 1)
            pass_time += time.perf_counter() - begin
            passes += 1
        else:
            begin = time.perf_counter()
            saved = run.fit_op(spec, data, traced=trace and fits % 2 == 1) or saved
            last_fit = time.perf_counter() - begin
            fits += 1


def environment(args):
    kernels = None
    try:
        kernels = importlib.import_module("covglm._kernels")
    except ImportError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numba_enabled": getattr(kernels, "NUMBA_ENABLED", None),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": args.seed,
    }


def e2e_metrics(run, setup_s):
    """The gated metrics, and the ungated timings printed beside them."""
    fits = run.fit_times[False]
    passes = run.pass_times[False]
    gated = {
        "fit_min_s": min(fits),
        "analysis_min_s": min(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    ungated = {
        "fit_s": statistics.median(fits),
        "analysis_s": statistics.median(passes),
        "analysis_p90_s": float(np.percentile(passes, 90)),
    }
    return gated, ungated


def layer_metrics(run, spec, data, model):
    """Per-layer metrics: medians over the traced ops of each kind."""
    tracer = run.tracer
    with tracer.installed():
        tracer.op = "solution"
        bound = bind(spec, data)
        with tracer.span("estimator.quasi_score"):
            quasi_score(bound, model.beta_hat, model.lambda_hat)
        with tracer.span("estimator.pearson_fn"):
            pearson_fn(bound, model.beta_hat, model.lambda_hat)
    ops = {s[4] for s in tracer.spans}
    fit_ops = sorted(op for op in ops if op.startswith("fit"))
    pass_ops = sorted(op for op in ops if op.startswith("pass"))
    values = {}

    def per_op(op_list, fn, median=statistics.median):
        return median(fn(op) for op in op_list) if op_list else 0

    totals = tracer.totals()
    for table, op_list in ((FIT_SPANS, fit_ops), (PASS_SPANS, pass_ops)):
        for metric, name in table.items():
            values[metric] = per_op(op_list, lambda op: totals[(op, name)])
    for table, op_list in ((FIT_COUNTS, fit_ops), (PASS_COUNTS, pass_ops)):
        for metric, name in table.items():
            count = lambda op: tracer.calls[(op, name)]  # noqa: E731
            values[metric] = per_op(op_list, count, statistics.median_low)
    for metric, name in SOLUTION_SPANS.items():
        values[metric] = totals[("solution", name)]

    own = tracer.self_times()
    fit_spans = [i for i, s in enumerate(tracer.spans) if s[0] == "fit"]
    values["estimator.fit_self_s"] = (
        statistics.median(own[i] for i in fit_spans) if fit_spans else 0.0
    )
    # Every span below a fit: the self times of its descendants must add up
    # to no more than the fit span itself.
    top = []
    below = dict.fromkeys(fit_spans, 0.0)
    for i, (name, _, _, parent, _) in enumerate(tracer.spans):
        top.append(i if name == "fit" else (top[parent] if parent is not None else None))
        if top[i] is not None and top[i] != i:
            below[top[i]] += own[i]
    problems = [
        f"fit span {i}: descendants' self time {below[i]} > span {_duration(tracer, i)}"
        for i in fit_spans
        if below[i] > _duration(tracer, i) + 1e-9
    ]
    run.record("trace self-time check", problems)

    n_obs, n_resp = model.n_obs, model.n_responses
    q = model.lambda_hat.n_free
    values["estimator.iterations"] = model.iterations
    values["estimator.psi_beta_norm"] = model.psi_beta_norm
    values["estimator.psi_lambda_norm"] = model.psi_lambda_norm
    values["covariance.joint_dim"] = n_obs * n_resp
    values["covariance.derivative_stack_mb"] = q * (n_obs * n_resp) ** 2 * 8 / 1e6
    values["serialize.fit_file_bytes"] = os.path.getsize(run.fit_path)
    values["trace.overhead_s"] = statistics.median(run.fit_times[True]) - statistics.median(
        run.fit_times[False]
    )
    for metric in list(values):
        if _target_of(metric) in tracer.missing:
            del values[metric]
    return values


def _duration(tracer, index):
    return tracer.spans[index][2] - tracer.spans[index][1]


def _target_of(metric):
    for table in (FIT_SPANS, FIT_COUNTS, PASS_COUNTS, SOLUTION_SPANS):
        if metric in table:
            return table[metric]
    return None


def store(result, env, args, extra):
    """Append to results.jsonl; warn when the environment changed."""
    path = OUT / "results.jsonl"
    previous = None
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if record["workload"] == args.workload:
                    previous = record
    if previous is not None:
        changed = {
            k: (previous["env"].get(k), v)
            for k, v in env.items()
            if k != "seed" and previous["env"].get(k) != v
        }
        for key, (old, new) in changed.items():
            print(
                f"WARNING: environment differs from the previous {args.workload} "
                f"result: {key} {old!r} -> {new!r}; do not compare the two"
            )
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": env,
        **extra,
        **result,
    }
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def main(argv=None):
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    run = Run(args)
    env = environment(args)
    try:
        spec, data, setup_s = setup(run)
        model = measure(run, spec, data)
        if model is None:
            print("no fit succeeded; nothing to analyse", file=sys.stderr)
            return 1
        run.golden_op()
        ungated = {}
        if args.trace:
            metrics = layer_metrics(run, spec, data, model)
        else:
            metrics, ungated = e2e_metrics(run, setup_s)
        spans_written = None
        if run.tracer is not None:
            spans_written = str(OUT / f"trace-{run.run_id}.jsonl")
            run.tracer.write(spans_written)
    finally:
        run.fit_path.unlink(missing_ok=True)
    report = {
        name: {"value": value, "unit": E2E_UNITS.get(name) or layer_unit(name)}
        for name, value in metrics.items()
    }
    for key, value in env.items():
        print(f"env.{key} {value}")
    for name, entry in report.items():
        print(f"{name} {entry['value']} {entry['unit']}")
    for name, value in ungated.items():
        print(f"{name} {value} s (ungated)")
    print(f"ops {run.attempted} count")
    print(f"failed_ops {run.failed} count")
    samples = {"fit": len(run.fit_times[False]), "analysis": len(run.pass_times[False])}
    for kind, count in samples.items():
        print(f"{kind}_samples {count} count (untraced, behind the {kind} timings)")
    if run.tracer is not None and run.tracer.missing:
        print(f"missing (wrapped function not found): {sorted(run.tracer.missing)}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": report,
    }
    extra = {
        "spans": spans_written,
        "samples": samples,
        "ungated": ungated,
        "fit_times": run.fit_times,
        "pass_times": run.pass_times,
    }
    store(result, env, args, extra)
    print(json.dumps(result))
    return 0


def layer_unit(name):
    if name.endswith("_calls") or name == "estimator.iterations":
        return "count"
    if name.endswith("_s"):
        return "s"
    return {
        "covariance.joint_dim": "rows-computed",
        "covariance.derivative_stack_mb": "MB-computed",
        "serialize.fit_file_bytes": "bytes",
    }.get(name, "max-abs")


if __name__ == "__main__":
    sys.exit(main())
