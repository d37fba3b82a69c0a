"""Structured errors shared across the package."""


class MaslovkitError(Exception):
    """Base class for all structured errors raised by this package."""


class DimensionMismatchError(MaslovkitError):
    """Inputs have incompatible or invalid dimensions."""


class DegenerateFrameError(MaslovkitError):
    """A frame is rank deficient or violates the isotropy tolerance."""


class IrregularCrossingError(MaslovkitError):
    """A crossing form is degenerate on the intersection.

    Carries the crossing time; the caller should perturb the path (or split
    the domain away from the offending time) and retry.
    """

    def __init__(self, time, message=None):
        self.time = time
        super().__init__(
            message
            or f"irregular crossing at t={time!r}: crossing form is degenerate "
            "on the intersection; perturb the path or split the domain near "
            "this time and retry"
        )


class EndpointMismatchError(MaslovkitError):
    """A loop's endpoints do not span the same subspace."""


class KinkEvaluationError(MaslovkitError):
    """A profile was evaluated exactly at a kink without a side selection."""


class SpectrumSearchError(MaslovkitError):
    """No admissible slope exists within the search range."""


class ProfileConstraintError(MaslovkitError):
    """A profile precondition failed.  ``violated`` names the inequality."""

    def __init__(self, violated, message=None):
        self.violated = violated
        super().__init__(message or violated)


class NotAChordLevelError(MaslovkitError):
    """The rotation angle is not an integer multiple of a half turn."""


class IntegrationError(MaslovkitError):
    """Fixed-step integration failed (underflow, blow-up, or non-finite data)."""


class IncoherentSystemError(MaslovkitError):
    """Transition maps of a directed system fail composition coherence."""


class ShapeMismatchError(MaslovkitError):
    """Chain maps or complexes have incompatible shapes."""


class InputTypeError(MaslovkitError):
    """A member of a serialized (JSON) input has the wrong type."""


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string",
               int: "an integer", float: "a number", bool: "a boolean"}


def expect(value, kind, what: str):
    """``value`` if it is an instance of ``kind`` (a type or a tuple of types).

    The JSON readers check each member with it before converting, so a member
    of the wrong type raises `InputTypeError`, not a `TypeError` from inside
    the conversion.
    """
    if not isinstance(value, kind):
        kinds = kind if isinstance(kind, tuple) else (kind,)
        names = " or ".join(_JSON_NAMES.get(k, k.__name__) for k in kinds)
        raise InputTypeError(f"{what} must be {names}, got {type(value).__name__}")
    return value
