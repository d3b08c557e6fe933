"""Exception types shared across the engine."""


class EquivarError(Exception):
    """Base class for all engine errors."""


class DeltaClash(EquivarError):
    """Product of two delta factors; no product rule is defined for these."""


class NonOrientable(EquivarError):
    """Frame change that is not a square matrix with positive determinant."""


class SplittingMissing(EquivarError):
    """Display expansion requested but the model declares no (dalpha, moment) split."""


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
    """Expansion produced a non-integer multiplicity, or a localization weight
    (a comb's moment-sample row among them) is not an integer vector; signals
    a convention error."""


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

    ``line`` and ``column`` locate a JSON syntax error (both 1-based) or an
    element expression error (``column`` only, the 0-based offset into the
    expression); they are None where no position is known.  The message of
    a model file's error names the place: the JSON line and column, or the
    table entry and the 1-based column in its expression.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class InvariantViolation(EquivarError):
    """A loaded model breaks one of the declared structural invariants."""
