"""Exception taxonomy shared across the library.

The CLI maps these onto process exit codes: configuration and usage
problems exit with 2, numerical/stability/generation failures with 3,
and output I/O failures with 4.
"""

__all__ = [
    "CrossolveError",
    "ConfigError",
    "UsageError",
    "DomainError",
    "NumericalError",
    "StabilityError",
    "GenerationError",
    "InversionError",
    "OutputError",
]


class CrossolveError(Exception):
    """Base class for all library-specific failures."""


class ConfigError(CrossolveError):
    """A policy, solver, or experiment configuration is invalid."""


class UsageError(CrossolveError):
    """An operation was called in a way its contract forbids."""


class DomainError(CrossolveError):
    """Input data lies outside the mathematical domain of an operation."""


class NumericalError(CrossolveError):
    """A numerical routine failed or produced an untrustworthy result."""


class StabilityError(CrossolveError):
    """The feedback system is unstable for the requested operation."""


class GenerationError(CrossolveError):
    """A randomized generator exhausted its retry budget."""


class InversionError(CrossolveError):
    """A column solve failed while inverting a matrix through the circuit."""


class OutputError(CrossolveError):
    """Experiment outputs could not be written."""
