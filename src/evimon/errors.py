"""Exception types raised across the library."""


class EvimonError(Exception):
    """Base class for all library-specific errors."""


class FrameMismatch(EvimonError):
    """Two mass functions defined on different frames were combined."""


class InvalidSetFunction(EvimonError):
    """A set function is not consistent with any basic belief assignment."""


class TotalConflict(EvimonError):
    """Dempster normalization was asked to rescale a fully conflicting mass."""


class AllZeroLikelihood(EvimonError):
    """Every singleton likelihood is zero; there is no maximum to rescale by."""


class MissingVariable(EvimonError):
    """An observation does not provide a value required by a constraint."""

    def __init__(self, variable: str, context: str = ""):
        self.variable = variable
        self.context = context
        detail = f" ({context})" if context else ""
        super().__init__(f"observation is missing variable {variable!r}{detail}")


class EmptyLog(EvimonError):
    """An effectiveness product was requested over an empty conflict log."""


class TraceTooShort(EvimonError):
    """The trace has fewer records than one window."""


class LengthMismatch(EvimonError):
    """An expected-state sequence does not match the trace length."""


class ParseError(EvimonError):
    """A model or trace file could not be parsed.

    Carries a best-effort location (file path plus line number or field
    path) so the offending spot can be reported to the user.
    """

    def __init__(self, message: str, location: str = ""):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


class ValidationError(EvimonError):
    """A parsed document violates a model invariant."""


class GenerationError(EvimonError):
    """A synthetic trace with the requested zone classes cannot be built."""
