"""Exception hierarchy for the wrapcat engine.

Every error carries a human-readable witness of the offending datum, since
validators are expected to *name* what broke, not merely refuse.
"""


class WrapcatError(Exception):
    """Base class for all engine errors."""


class ShapeMismatch(WrapcatError):
    pass


class NotAComplex(WrapcatError):
    pass


class NotClosed(WrapcatError):
    pass


class NotDegreeZero(WrapcatError):
    pass


class SystemInvalid(WrapcatError):
    pass


class NonCofinalPrefix(WrapcatError):
    pass


class NotClosedRepresentative(WrapcatError):
    pass


class NoSection(WrapcatError):
    pass


class DecorationInconsistent(WrapcatError):
    pass


class NotSufficientlyWrapped(WrapcatError):
    pass


class ParseError(WrapcatError):
    pass


class SchemaError(WrapcatError):
    pass
