"""Command-line interface.

Every subcommand either fits fresh (``--data`` + ``--model``) or reuses a
cached fit (``--fit``). Exit codes: 0 success, 2 when estimation did not
converge (the requested table is still printed under a warning banner),
1 on any error (one-line diagnostic with the originating subsystem).
"""

import argparse
import logging
import sys

from .data import Dataset
from .errors import CovglmError, OptionError
from .estimator import FitOptions, fit
from .model import bind, load_model_spec
from .multcomp import joint_multiple_comparisons, multiple_comparisons
from .report import (
    render_linear_hypothesis,
    render_report,
    render_summary,
)
from .serialize import load_fit, save_fit, spec_digest
from .tables import (
    anova,
    anova_dispersion,
    manova,
    manova_dispersion,
    named_groups,
)
from .wald import parse_hypothesis, wald_test

log = logging.getLogger("covglm")


def _add_common(parser):
    parser.add_argument("--data", help="CSV data file (header row required)")
    parser.add_argument("--model", help="model-spec JSON file")
    parser.add_argument("--fit", dest="fit_path", help="cached fit file")
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--max-iter", type=int, default=100)
    parser.add_argument("--tol", type=float, default=1e-4)
    parser.add_argument("--alpha", type=float, default=1.0)
    parser.add_argument("--trace", help="write an iteration trace to this file")
    parser.add_argument("--verbose", action="store_true", help="log at DEBUG level")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="covglm",
        description="Fit multivariate covariance GLMs and run Wald-based tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit the model and save the fit file")
    _add_common(p)
    p.add_argument("--save", required=True, help="path for the fit file")

    p = sub.add_parser("summary", help="print estimates and standard errors")
    _add_common(p)

    for name in ("anova", "manova"):
        p = sub.add_parser(name, help=f"{name.upper()} table for fixed effects")
        _add_common(p)
        p.add_argument("--type", type=int, choices=(1, 2, 3), default=2)

    p = sub.add_parser("anova-disp", help="dispersion ANOVA per response")
    _add_common(p)
    p.add_argument(
        "--groups",
        required=True,
        help="group indices per response, e.g. '0,1;0,1'",
    )
    p.add_argument(
        "--names",
        required=True,
        help="group labels per response, e.g. 'tau10,tau11;tau20,tau21'",
    )

    p = sub.add_parser("manova-disp", help="joint dispersion table")
    _add_common(p)
    p.add_argument("--groups", required=True, help="group indices, e.g. '0,1'")
    p.add_argument("--names", required=True, help="group labels, e.g. 'tau0,tau1'")

    p = sub.add_parser("multcomp", help="pairwise multiple comparisons")
    _add_common(p)
    p.add_argument(
        "--effects", required=True, help="comma-separated factor names"
    )
    p.add_argument("--multivariate", action="store_true", help="one joint table")

    p = sub.add_parser("lht", help="general linear hypothesis test")
    _add_common(p)
    p.add_argument(
        "--hypothesis",
        action="append",
        required=True,
        help="a constraint like 'beta11 = 0'; repeat for joint tests",
    )
    return parser


def _obtain_fit(args):
    """``(model, data)``: a fitted model from --fit, or by fitting --data
    under --model. ``data`` is the parsed --data of a fresh fit, else None."""
    if args.fit_path:
        model = load_fit(args.fit_path)
        if args.model:
            spec = load_model_spec(args.model)
            if spec_digest(spec) != spec_digest(model.spec):
                raise CovglmError(
                    "the cached fit was produced under a different model spec"
                )
        return model, None
    if not (args.data and args.model):
        raise CovglmError(
            "either --fit, or both --data and --model, must be given"
        )
    spec = load_model_spec(args.model)
    data = Dataset.from_csv(args.data, spec.column_types)
    options = FitOptions(
        max_iter=args.max_iter,
        tol=args.tol,
        alpha=args.alpha,
        trace_path=args.trace,
    )
    return fit(bind(spec, data), None, options), data


def _split_groups(text):
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise OptionError(
            f"groups must be comma-separated integers, got {text!r}"
        ) from None


def _split_names(text):
    return [v.strip() for v in text.split(",") if v.strip() != ""]


def _dispatch(args):
    # Option values first: a malformed one should cost no fit.
    if args.command == "anova-disp":
        groups = [_split_groups(g) for g in args.groups.split(";")]
        names = [_split_names(n) for n in args.names.split(";")]
        if len(groups) != len(names):
            raise OptionError(
                f"--groups has {len(groups)} response lists, --names {len(names)}"
            )
        for r, (grouping, labels) in enumerate(zip(groups, names)):
            named_groups(grouping, labels, f"response {r + 1}: ")
    elif args.command == "manova-disp":
        groups, names = _split_groups(args.groups), _split_names(args.names)
        named_groups(groups, names)
    elif args.command == "multcomp":
        if not args.data:
            raise CovglmError("multcomp needs --data (combinations come from it)")
        effects = _split_names(args.effects)
    model, data = _obtain_fit(args)
    if args.command == "fit":
        save_fit(model, args.save)
        output = (
            f"fit saved to {args.save} "
            f"(converged: {'yes' if model.converged else 'NO'}, "
            f"iterations: {model.iterations})\n"
        )
    elif args.command == "summary":
        output = render_summary(model)
    elif args.command == "anova":
        output = render_report(anova(model, args.type))
    elif args.command == "manova":
        output = render_report(manova(model, args.type))
    elif args.command == "anova-disp":
        output = render_report(anova_dispersion(model, groups, names))
    elif args.command == "manova-disp":
        output = render_report(manova_dispersion(model, groups, names))
    elif args.command == "multcomp":
        if data is None:
            data = Dataset.from_csv(args.data, model.spec.column_types)
        if args.multivariate:
            output = render_report(joint_multiple_comparisons(model, effects, data))
        else:
            per_response = [effects] * model.n_responses
            output = render_report(multiple_comparisons(model, per_response, data))
    elif args.command == "lht":
        hyp = parse_hypothesis(args.hypothesis, model)
        output = render_linear_hypothesis(hyp, wald_test(model, hyp))
    else:  # pragma: no cover - argparse enforces the choices
        raise CovglmError(f"unknown command {args.command!r}")
    if not model.converged:
        banner = (
            "WARNING: estimation did not converge within "
            f"{model.iterations} iterations; results below may be unreliable\n\n"
        )
        output = banner + output
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output)
    else:
        sys.stdout.write(output)
    return 0 if model.converged else 2


def run(argv=None):
    args = build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.DEBUG)
    try:
        return _dispatch(args)
    except CovglmError as exc:
        print(f"error [{exc.origin}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
