"""Exception hierarchy shared across the package."""


class PumpcausalError(Exception):
    """Base class for all package-specific errors."""


class DataError(PumpcausalError):
    """Malformed or inconsistent input data (CSV parsing, coverage gaps)."""


class ConfigError(PumpcausalError):
    """Invalid configuration value or unresolvable path."""


class SamplerError(PumpcausalError):
    """Sampler could not start (non-finite target after jittered retries)."""


class LingamError(PumpcausalError):
    """Causal discovery failure (singular data, collinear columns)."""


class InsufficientGroupError(LingamError):
    """Group too small for causal discovery: below the size gate, or no
    bootstrap resample of it can be fitted."""


class StageError(PumpcausalError):
    """A pipeline stage failed; the message starts with the stage's name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
