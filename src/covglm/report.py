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


def _aligned(header, cells):
    width = max(len(header), max((len(c) for c in cells), default=0))
    return header.rjust(width), [c.rjust(width) for c in cells]


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
    aligned = [_aligned(header, cells) for header, cells in columns]
    lines = [" ".join(header for header, _ in aligned).rstrip()]
    for cells in zip(*(cells for _, cells in aligned)):
        lines.append(" ".join(cells).rstrip())
    return lines


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
    lines = ["Model fit summary", ""]
    for r in range(model.n_responses):
        design = model.design[r]
        resp = model.spec.responses[r]
        lines.append(f"Call: {design.formula.text}")
        lines.append(
            f"Link: {resp.link.kind}   Variance: {resp.variance.kind} "
            f"(power {resp.variance.power:g})"
        )
        lines.append("")
        span = model.beta_spans[r]
        rows = []
        for j in range(span.start, span.stop):
            rows.append(
                (
                    labels[j],
                    design.column_labels[j - span.start],
                    fmt_stat(model.beta_hat[j]),
                    fmt_stat(errors[j]),
                )
            )
        lines.extend(_summary_block(("Parameter", "Term", "Estimate", "Std.Error"), rows))
        lines.append("")
    n_beta = model.n_beta
    n_rho = model.n_rho
    disp_rows = []
    for i in range(n_beta + n_rho, len(labels)):
        disp_rows.append(
            (
                labels[i],
                fmt_stat(_theta_full(model)[i]),
                fmt_stat(errors[i]),
            )
        )
    lines.append("Dispersion:")
    lines.extend(_summary_block(("Parameter", "Estimate", "Std.Error"), disp_rows))
    if n_rho:
        lines.append("")
        lines.append("Between-response correlations:")
        rho_rows = [
            (
                labels[n_beta + i],
                fmt_stat(model.lambda_hat.rho[i]),
                fmt_stat(errors[n_beta + i]),
            )
            for i in range(n_rho)
        ]
        lines.extend(_summary_block(("Parameter", "Estimate", "Std.Error"), rho_rows))
    lines.append("")
    status = "yes" if model.converged else "NO"
    lines.append(
        f"Converged: {status}   Iterations: {model.iterations}   "
        f"N: {model.n_obs} ({model.n_dropped} rows dropped)"
    )
    return "\n".join(lines) + "\n"


def _theta_full(model):
    return np.concatenate([model.beta_hat, model.lambda_hat.flatten()])


def _summary_block(headers, rows):
    columns = list(zip(*([headers] + [tuple(r) for r in rows])))
    widths = [max(len(str(c)) for c in col) for col in columns]
    out = []
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()
    out.append(header_line)
    for row in rows:
        out.append(
            "  ".join(str(c).rjust(w) for c, w in zip(row, widths)).rstrip()
        )
    return out
