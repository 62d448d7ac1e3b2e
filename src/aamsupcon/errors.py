"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets a named class
here; modules raise these rather than bare ValueError so that the CLI can
map them onto exit codes.
"""


class AamSupConError(Exception):
    """Base class for all package errors."""


class ZeroVector(AamSupConError):
    """A vector with (near-)zero norm cannot be normalized."""


class DimensionMismatch(AamSupConError):
    """Two vectors that must share a dimension do not."""


class InvalidMargin(AamSupConError):
    """Angular margin outside [0, pi/2)."""


class InvalidScale(AamSupConError):
    """Logit scale must be positive."""


class BatchTooSmall(AamSupConError):
    """Contrastive index sets need at least two samples."""


class AnchorWithoutPositive(AamSupConError):
    """An anchor has no same-label partner in the batch."""


class AnchorWithoutCandidate(AamSupConError):
    """An anchor has an empty contrastive denominator (strict-negatives
    convention on a single-class batch)."""


class InsufficientSpeakers(AamSupConError):
    """Dataset has fewer distinct speakers than the batch requires."""


class InsufficientUtterances(AamSupConError):
    """A speaker has fewer utterances than the batch or trial builder requires."""


class ShapeMismatch(AamSupConError):
    """Network input does not match the parameter shapes."""


class TraceMismatch(AamSupConError):
    """Forward trace is inconsistent with the parameters passed to backward."""


class InvalidDims(AamSupConError):
    """Layer size list does not form a valid chain."""


class InvalidSpec(AamSupConError):
    """Synthetic dataset spec violates its invariants."""


class DivergenceDetected(AamSupConError):
    """Training loss became non-finite. Carries the offending step index."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")


class DegenerateTrials(AamSupConError):
    """Trial scores carry no information (all equal, or one class missing)."""


class IndexOutOfRange(AamSupConError):
    """A trial references a sample index outside the dataset."""


class ConfigError(AamSupConError):
    """A config file field is missing or invalid. Message names the field."""


class CheckpointError(AamSupConError):
    """Checkpoint file is missing, corrupt, or has the wrong format version."""


class ToleranceExceeded(AamSupConError):
    """A gradient check exceeded its tolerance."""


class IoError(AamSupConError):
    """Filesystem failure while reading or writing an artifact."""
