"""Shared exception types.

Every error raised across module boundaries lives here so callers (and the
CLI exit-code mapping) can catch by intent rather than by module.
"""


class SpillRegError(Exception):
    """Base class for all package errors."""


class ConfigError(SpillRegError):
    """A configuration value is invalid. The message names the field."""


class NumberError(ConfigError, TypeError):
    """A field that takes a number got a bool or a string; a file's reader names the file."""


class InputError(SpillRegError):
    """A data argument is malformed (wrong length, non-finite, bad range)."""


class ShapeError(InputError):
    """An array argument has the wrong shape or dimension for its target."""


class InvalidActionError(SpillRegError):
    """An action passed to the environment is not a finite number."""


class EpisodeExhausted(SpillRegError):
    """step() was called after the episode reached steps_per_episode."""


class UsageError(SpillRegError):
    """An API was called out of order (e.g. backward with a stale tape)."""


class CheckpointError(SpillRegError):
    """A checkpoint file is unreadable or has an unsupported format version."""


class DivergenceError(SpillRegError):
    """Training produced a non-finite quantity.

    Carries the optimizer step index and a diagnostics dict so the caller
    can report where the run went bad.
    """

    def __init__(self, message: str, step: int = -1, diagnostics: dict | None = None):
        super().__init__(message)
        self.step = step
        self.diagnostics = diagnostics or {}
