"""Exception types shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine failures."""


class ParameterError(EngineError, ValueError):
    """An input violates basic domain bounds (types, signs, sizes)."""


class KLERegime(EngineError):
    """k <= r: the classification and constructions are out of scope."""


class HypothesisFailed(EngineError):
    """The hypothesis inequality of the classified case fails.

    The message is the failing check's `describe()` line and `failed` is that
    HypothesisCheck, so callers can report which inequality failed and by
    how much (its slack).
    """

    def __init__(self, message: str, failed) -> None:
        super().__init__(message)
        self.failed = failed
