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

    `failed` is the failing HypothesisCheck, so callers can report which
    inequality failed and by how much (its slack). The message is its
    `describe()` line, formatted when it is read.
    """

    def __init__(self, failed) -> None:
        super().__init__(failed)
        self.failed = failed

    def __str__(self) -> str:
        return self.failed.describe()
