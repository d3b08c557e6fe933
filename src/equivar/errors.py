"""Exception types shared across the engine."""


class EquivarError(Exception):
    """Base class for all engine errors."""


class DeltaClash(EquivarError):
    """Product of two delta factors; no product rule is defined for these."""


class NonOrientable(EquivarError):
    """Frame change that is not a square matrix with positive determinant."""


class SplittingMissing(EquivarError):
    """Display expansion requested but the model declares no (dalpha, moment) split."""


class MissingFibre(EquivarError):
    """Fibre coordinates/coforms absent from the model handed to the fibre integral."""


class NotDifferentiable(EquivarError):
    """Differential applied to a display-only element (moment-argument delta)."""


class NotTransverse(EquivarError):
    """Moment data fails the full-rank condition required by the frame construction.

    ``witness`` holds the first failing sample: its index, its rank, the
    required rank and the matrix.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class RankDataMissing(EquivarError):
    """No moment samples declared, so transversality cannot be decided."""


class NotPrincipal(EquivarError):
    """Connection-style pairing requested on a model without principal structure."""


class ZeroWeight(EquivarError):
    """A localization denominator weight is zero."""


class MissingExpansionDirection(EquivarError):
    """A denominator factor lacks a usable expansion direction, or the declared
    directions admit no common positivity functional."""


class NonIntegerCoefficients(EquivarError):
    """Expansion produced a non-integer multiplicity; signals a convention error."""


class OutOfRange(EquivarError):
    """An expansion window with too many cells to hold, or a coefficient with
    more digits than the int-to-str limit lets a report print."""


class UsageError(EquivarError):
    """An argument of a command has an invalid value, or the command does not
    read it."""


class UnknownExample(EquivarError):
    """Index pipeline name not in the curated suite."""


class ParseError(EquivarError):
    """Model file or element expression failed to parse.

    Carries best-effort line/column information in ``line`` and ``column``.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class InvariantViolation(EquivarError):
    """A loaded model breaks one of the declared structural invariants."""
