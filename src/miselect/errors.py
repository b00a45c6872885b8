"""Exception taxonomy shared by all miselect modules."""


class MiselectError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MiselectError):
    """A parameter or configuration value is out of range or inconsistent."""


class FormatError(MiselectError):
    """A file does not conform to its declared binary or text format."""


class ConsistencyError(MiselectError):
    """Two inputs that must agree (counts, dimensions, lengths) do not."""


class IoError(MiselectError):
    """A file could not be read completely (truncated or unreadable)."""


class DegenerateInputError(MiselectError):
    """Input data has no usable variation for the requested operation."""


class DomainError(MiselectError):
    """A numeric argument lies outside the mathematical domain."""


class DivergenceError(MiselectError):
    """An iterative optimization produced a non-finite loss."""


class StageError(MiselectError):
    """A pipeline stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage, message):
        super().__init__(f"[stage:{stage}] {message}")
        self.stage = stage
