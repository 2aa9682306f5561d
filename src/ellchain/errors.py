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

    Carries the failing check plus every check evaluated, so callers can
    report which inequality failed and by how much.
    """

    def __init__(self, message: str, failed, checks) -> None:
        super().__init__(message)
        self.failed = failed
        self.checks = checks


class InternalCoverage(EngineError):
    """A component index was left uncovered, or covered twice, by a recipe.

    This is a construction bug guard; it must never fire on valid input.
    """


class InstanceTooLarge(EngineError):
    """A pairing instance exceeds the exhaustive-search bound."""
