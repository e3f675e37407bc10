"""Exception types raised across the package."""


class GzslError(Exception):
    """Base class for all package errors."""


class ValidationError(GzslError):
    """Input data or configuration failed validation (CLI exit code 1)."""


class ManifestError(ValidationError):
    """A manifest or one of its referenced files is missing or malformed."""


class CheckpointError(ValidationError):
    """A checkpoint file is missing, truncated, or malformed."""


class InductiveViolationError(ValidationError):
    """A training split contains a positive label for an unseen class."""

    def __init__(self, sample_index: int, class_name: str):
        self.sample_index = sample_index
        self.class_name = class_name
        super().__init__(
            f"train sample {sample_index} has a positive label for unseen "
            f"class '{class_name}'; training data must cover seen classes only"
        )


class DegenerateVectorError(GzslError):
    """A vector with zero Euclidean norm reached a cosine computation."""


class NonFiniteGradientError(GzslError):
    """A gradient tensor contains NaN or Inf."""


class NonFiniteLossError(GzslError):
    """The training loss became NaN or Inf on some batch."""

    def __init__(self, epoch: int, batch_index: int, value: float):
        self.epoch = epoch
        self.batch_index = batch_index
        super().__init__(
            f"non-finite total loss {value!r} at epoch {epoch}, batch {batch_index}"
        )


class UndefinedAurocError(GzslError):
    """AUROC is undefined: the labels contain a single class only."""
