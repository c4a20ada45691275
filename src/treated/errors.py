"""Exception hierarchy shared by all modules.

``ValidationError`` covers rejected inputs (bad data, impossible configs,
missing nuisance values); ``NumericError`` covers failures of the numerical
routines themselves. The CLI maps the two branches to distinct exit codes;
``ResourceError`` (a machine limit, not the input) exits as a validation error.
"""


class TreatedError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(TreatedError, ValueError):
    """An input violates a documented invariant or precondition."""


class DegenerateTreatmentError(ValidationError):
    """All units treated or all units control."""


class NonFiniteError(ValidationError):
    """A NaN or infinity appeared where finite data is required."""


class LengthMismatchError(ValidationError):
    """Arrays that must share length n do not."""


class NonBinaryOutcomeError(ValidationError):
    """Outcome declared binary but contains values outside {0, 1}."""


class NotBinaryOutcomeError(ValidationError):
    """A binary-outcome-only operation was invoked on a continuous outcome."""


class MissingMu1Error(ValidationError):
    """The requested quantity needs a treated-arm outcome model (mu1)."""


class MissingSigmaError(ValidationError):
    """The requested quantity needs conditional-sd values (sigma0, sigma1)."""


class MissingOracleError(ValidationError):
    """Oracle nuisance values lack a vector the requested estimands need."""


class InsufficientArmDataError(ValidationError):
    """Too few units in the requested treatment arm to fit a model."""


class FoldTooSmallError(ValidationError):
    """Cross-fitting folds leave some training complement without both arms."""


class NumericError(TreatedError):
    """A numerical routine failed to produce a usable result."""


class IrlsDivergedError(NumericError):
    """IRLS produced non-finite quantities or failed to converge."""


class SingularSystemError(NumericError):
    """A least-squares system has no unique solution (singular normal equations)."""


class NonFiniteEstimateError(NumericError):
    """A fitted nuisance, the point estimate or a variance came out NaN or infinite."""


class ResourceError(TreatedError, RuntimeError):
    """A pool worker exited without a result: killed, say by the out-of-memory killer."""
