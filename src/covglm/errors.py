"""Exception types shared across the package.

Every error carries an ``origin`` tag naming the subsystem that raised it;
the CLI prints it as part of its one-line diagnostics.
"""


class CovglmError(Exception):
    """Base class for all package errors."""

    origin = "covglm"


class DomainError(CovglmError):
    """A value fell outside the domain of a link or variance function, or
    out of floating-point range; ``origin`` overrides the default tag."""

    origin = "families"

    def __init__(self, message, origin=None):
        super().__init__(message)
        if origin is not None:
            self.origin = origin


class FormulaSyntaxError(CovglmError):
    """Malformed model formula; ``offset`` is the byte position of the fault."""

    origin = "formula"

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnknownOperatorError(FormulaSyntaxError):
    """Formula used an operator outside the supported grammar."""


class MissingColumnError(CovglmError):
    """A formula or model-spec entry referenced a column not in the data."""

    origin = "design"


class DegenerateFactor(CovglmError):
    """A factor has fewer than two observed levels."""

    origin = "design"


class RankError(CovglmError):
    """A design, hypothesis or fitting-system matrix does not have full rank."""

    origin = "estimator"


class NotPositiveDefinite(CovglmError):
    """A covariance matrix failed its Cholesky factorization."""

    origin = "covariance"


class SingularHypothesisError(CovglmError):
    """The Wald middle matrix L J L^T is singular (redundant hypothesis)."""

    origin = "wald"


class UnknownParameterError(CovglmError):
    """A hypothesis named a parameter label that the model does not have."""

    origin = "wald"


class PredictorMismatch(CovglmError):
    """A joint (multivariate) procedure requires identical predictors."""

    origin = "tables"


class ModelSpecError(CovglmError):
    """Invalid model-spec document or inconsistent response specification."""

    origin = "model"


class DataError(CovglmError):
    """Dataset-level problem: bad CSV, no usable rows, bad type override."""

    origin = "data"


class OptionError(CovglmError, ValueError):
    """A fitting option or table argument is outside its allowed values."""

    origin = "options"


class FitFileError(CovglmError):
    """A fit file failed version, structure, or checksum validation."""

    origin = "serialize"
