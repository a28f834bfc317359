"""Fixed-width text rendering of test tables and fit summaries.

Statistics and p-values carry four decimals, degrees of freedom print as
integers, p-values below 5e-5 print as 0.0000, and columns are right
aligned at the width of their longest cell, so identical inputs always
render byte-identical reports.
"""

import numpy as np


def fmt_stat(value):
    return f"{value:.4f}"


def fmt_p(value):
    if value < 5e-5:
        return "0.0000"
    return f"{value:.4f}"


def _columns(columns, sep=" ", justify=str.rjust):
    """Lines of ``columns``, (header, cells) pairs, each right aligned at the
    width of its longest entry; ``justify`` places the headers."""
    widths = [max(map(len, [header, *cells])) for header, cells in columns]
    lines = [sep.join(justify(h, w) for (h, _), w in zip(columns, widths)).rstrip()]
    padded = [[c.rjust(w) for c in cells] for (_, cells), w in zip(columns, widths)]
    lines.extend(sep.join(cells).rstrip() for cells in zip(*padded))
    return lines


def _rows_block(rows, label_header=None):
    """Numbered Df/Chi/Pr(>Chi) rows, with a label column when
    ``label_header`` is given."""
    columns = [("", [str(i + 1) for i in range(len(rows))])]
    if label_header is not None:
        columns.append((label_header, [r.label for r in rows]))
    columns += [
        ("Df", [str(r.df) for r in rows]),
        ("Chi", [fmt_stat(r.statistic) for r in rows]),
        ("Pr(>Chi)", [fmt_p(r.p_value) for r in rows]),
    ]
    return _columns(columns)


def render_table(table):
    """One table with its Call line (no title)."""
    lines = [f"Call: {table.caption}", ""]
    lines.extend(_rows_block(table.rows, table.label_header))
    return "\n".join(lines)


def render_report(tables):
    """Full report: shared title, then each table under its own Call."""
    if not isinstance(tables, (list, tuple)):
        tables = [tables]
    lines = [tables[0].title, ""]
    for i, table in enumerate(tables):
        if i:
            lines.append("")
        lines.append(render_table(table))
    return "\n".join(lines) + "\n"


def render_linear_hypothesis(hypothesis, result):
    """The general-linear-hypothesis block: echoed rows, then the test."""
    lines = ["Linear hypothesis test", "", "Hypothesis:"]
    for i, row in enumerate(hypothesis.row_labels, start=1):
        lines.append(f"{i} {row}")
    lines.extend(["", "Results:"])
    lines.extend(_rows_block([result]))
    return "\n".join(lines) + "\n"


def render_summary(model):
    """Human-readable estimate/standard-error listing for a fit."""
    errors = model.standard_errors()
    labels = model.labels
    theta = np.concatenate([model.beta_hat, model.lambda_hat.flatten()])

    def block(indices, terms=None):
        columns = [("Parameter", [labels[i] for i in indices])]
        if terms is not None:
            columns.append(("Term", terms))
        columns += [
            ("Estimate", [fmt_stat(theta[i]) for i in indices]),
            ("Std.Error", [fmt_stat(errors[i]) for i in indices]),
        ]
        return _columns(columns, "  ", str.ljust)

    lines = ["Model fit summary", ""]
    for design, resp, span in zip(model.design, model.spec.responses, model.beta_spans):
        lines.append(f"Call: {design.formula.text}")
        lines.append(
            f"Link: {resp.link.kind}   Variance: {resp.variance.kind} "
            f"(power {resp.variance.power:g})"
        )
        lines.append("")
        lines.extend(block(range(span.start, span.stop), design.column_labels))
        lines.append("")
    n_beta = model.n_beta
    n_rho = model.n_rho
    lines.append("Dispersion:")
    lines.extend(block(range(n_beta + n_rho, len(labels))))
    if n_rho:
        lines.append("")
        lines.append("Between-response correlations:")
        lines.extend(block(range(n_beta, n_beta + n_rho)))
    lines.append("")
    status = "yes" if model.converged else "NO"
    lines.append(
        f"Converged: {status}   Iterations: {model.iterations}   "
        f"N: {model.n_obs} ({model.n_dropped} rows dropped)"
    )
    return "\n".join(lines) + "\n"
