"""Exception types shared across the engine, and the one rule by which a
message echoes a name or a number that came from outside."""

# the longest name, literal or number that a message echoes whole
SHOWN_CHARS = 40


def shown(v, bare=False):
    """v as a message echoes it: a string by its repr (itself when bare),
    an int in decimal, anything else by its repr.  A string past SHOWN_CHARS
    characters is named only by its length, "of N characters" ("a name of N
    characters" when bare), and an int of more than SHOWN_CHARS digits only
    by its bound, "at least 10^40" (or "at most -10^40"), since a name, a
    literal or a flag may be thousands of characters long."""
    if isinstance(v, int):
        if abs(v) < 10 ** SHOWN_CHARS:
            return str(v)
        return f"at most -10^{SHOWN_CHARS}" if v < 0 else f"at least 10^{SHOWN_CHARS}"
    if not isinstance(v, str):
        return repr(v)
    if len(v) > SHOWN_CHARS:
        return f"{'a name ' if bare else ''}of {len(v)} characters"
    return v if bare else repr(v)


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
    required rank and the matrix.  The message names all but the matrix,
    whose entries may be thousands of digits long.
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
    """Work past one of its caps, such as an expansion window with more cells
    than laurent.MAX_BOX_CELLS, or a coefficient with more digits than the
    int-to-str limit lets a report print."""


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
