"""Exception types shared across the pipeline, mapped to CLI exit codes."""


class ArtdescError(Exception):
    """Base class for all package errors."""


class ShapeError(ArtdescError, ValueError):
    """A tensor has the wrong shape; the message names the offending tensor."""


class StateError(ArtdescError, RuntimeError):
    """An operation was called in an invalid order (e.g. backward twice)."""


class ConfigError(ArtdescError, ValueError):
    """Inconsistent configuration, e.g. checkpoint/variant mismatch."""


class DataError(ArtdescError, ValueError):
    """Malformed or inconsistent input data."""


class FormatError(DataError):
    """Corrupt binary file. Carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.message, self.offset = message, offset


class MissingArtifactError(ArtdescError, FileNotFoundError):
    """A pipeline stage requires an artifact that has not been produced."""
