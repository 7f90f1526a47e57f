"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "NumericError",
    "ModelFormatError",
    "ModelVersionError",
    "TextFormatError",
    "CsvFormatError",
    "JsonlFormatError",
]


class NumericError(RuntimeError):
    """A quantity that must be finite became NaN or infinite."""


class ModelFormatError(ValueError):
    """Malformed model payload; ``offset`` points at the failing byte."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ModelVersionError(ModelFormatError):
    """Payload is well-formed but written by an unsupported format version."""


class TextFormatError(ValueError):
    """Malformed line-oriented input file; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class CsvFormatError(TextFormatError):
    """Malformed dataset CSV (or ``key=value`` config file)."""


class JsonlFormatError(TextFormatError):
    """Malformed explanations file: bad JSON, a missing or mistyped key, a wrong width."""
