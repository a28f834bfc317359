"""Fit-file persistence.

A fit file is a single JSON document: a small envelope carrying the model
spec, a payload with every array base64-encoded from its raw float64 bytes
(bit-for-bit round-trips), and a SHA-256 checksum of the canonical payload
text. The envelope also records the model-spec hash so a cached fit can be
matched against the spec it came from. A design is stored as its coding
only: no Wald procedure reads the design matrix.
"""

import base64
import hashlib
import json

import numpy as np

from .covariance import DispersionVector
from .design import DesignInfo
from .errors import FitFileError
from .estimator import FittedModel
from .formula import parse_formula
from .model import model_spec_json, parse_model_spec

FORMAT_NAME = "covglm-fit"
FORMAT_VERSION = 2
# Version 1 also stored each design matrix as "x"; loading ignores it.
READABLE_VERSIONS = (1, 2)


def _encode_array(arr):
    arr = np.ascontiguousarray(arr, dtype=float)
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def _decode_array(obj):
    raw = base64.b64decode(obj["data"])
    return np.frombuffer(raw, dtype=float).reshape(obj["shape"]).copy()


def spec_digest(spec):
    return hashlib.sha256(model_spec_json(spec).encode("utf-8")).hexdigest()


def _design_payload(design):
    spans = [list(design.term_spans[frozenset(t)]) for t in design.terms]
    return {
        "formula": design.formula.text,
        "terms": [list(t) for t in design.terms],
        "spans": spans,
        "column_labels": list(design.column_labels),
        "level_maps": {k: list(v) for k, v in design.level_maps.items()},
        "var_kinds": dict(design.var_kinds),
    }


def _design_from_payload(obj):
    formula = parse_formula(obj["formula"])
    terms = tuple(tuple(t) for t in obj["terms"])
    spans = {
        frozenset(term): tuple(span) for term, span in zip(terms, obj["spans"])
    }
    return DesignInfo(
        formula=formula,
        terms=terms,
        term_spans=spans,
        column_labels=tuple(obj["column_labels"]),
        level_maps={k: tuple(v) for k, v in obj["level_maps"].items()},
        var_kinds=dict(obj["var_kinds"]),
    )


def save_fit(model, path):
    """Write a fitted model to ``path``; see the README for the format."""
    payload = {
        "beta": _encode_array(model.beta_hat),
        "rho": _encode_array(model.lambda_hat.rho),
        "tau": [_encode_array(t) for t in model.lambda_hat.tau],
        "joint_inverse": _encode_array(model.joint_inverse),
        "designs": [_design_payload(d) for d in model.design],
        "iterations": model.iterations,
        "converged": model.converged,
        "n_obs": model.n_obs,
        "n_dropped": model.n_dropped,
        "psi_beta_norm": model.psi_beta_norm,
        "psi_lambda_norm": model.psi_lambda_norm,
    }
    payload_text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    document = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "spec": json.loads(model_spec_json(model.spec)),
        "spec_sha256": spec_digest(model.spec),
        "payload": json.loads(payload_text),
        "checksum": hashlib.sha256(payload_text.encode("utf-8")).hexdigest(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.write("\n")


def load_fit(path):
    """Read a fit file back into a :class:`FittedModel`.

    Reads format versions 1 and 2. Raises :class:`FitFileError` on any
    other version or when the checksum does not match (truncated or
    corrupted file).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise FitFileError(
            f"{path}: checksum verification impossible, file truncated or "
            f"not a fit file ({exc})"
        ) from None
    if not isinstance(document, dict) or document.get("format") != FORMAT_NAME:
        raise FitFileError(f"{path}: not a {FORMAT_NAME} file")
    if document.get("version") not in READABLE_VERSIONS:
        raise FitFileError(
            f"{path}: unsupported fit file version {document.get('version')!r} "
            f"(expected one of {', '.join(map(str, READABLE_VERSIONS))})"
        )
    payload = document.get("payload")
    payload_text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(payload_text.encode("utf-8")).hexdigest()
    if digest != document.get("checksum"):
        raise FitFileError(f"{path}: checksum mismatch, file corrupted")
    spec = parse_model_spec(document["spec"])
    designs = tuple(_design_from_payload(d) for d in payload["designs"])
    lam = DispersionVector(
        rho=_decode_array(payload["rho"]),
        tau=tuple(_decode_array(t) for t in payload["tau"]),
    )
    return FittedModel(
        spec=spec,
        design=designs,
        beta_hat=_decode_array(payload["beta"]),
        lambda_hat=lam,
        joint_inverse=_decode_array(payload["joint_inverse"]),
        iterations=int(payload["iterations"]),
        converged=bool(payload["converged"]),
        n_obs=int(payload["n_obs"]),
        n_dropped=int(payload["n_dropped"]),
        psi_beta_norm=float(payload["psi_beta_norm"]),
        psi_lambda_norm=float(payload["psi_lambda_norm"]),
    )
