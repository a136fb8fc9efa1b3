"""Exception hierarchy.

Everything raised on bad data derives from TdsvError so batch drivers and
the CLI can catch one base class and report the concrete class name as the
machine-readable diagnostic.
"""


class TdsvError(Exception):
    """Base class for all toolkit errors."""


# -- vector / domain errors --------------------------------------------------

class DegenerateVector(TdsvError):
    """Vector norm at or below the degeneracy threshold or overflowing, or
    non-finite values."""


class DimensionMismatch(TdsvError):
    """An embedding vector or matrix has the wrong shape for its use."""


class EmptyReference(TdsvError):
    """Reference phrase empty after unicode normalization and trimming."""


# -- referential integrity ---------------------------------------------------

class MissingSpace(TdsvError):
    """An embedding space lacks the vector of an id that scoring needs: a
    model's repetition or a trial's test utterance."""


class MissingPhrase(TdsvError):
    """Enrollment references a phrase id not present in the phrase table."""


class MissingTranscript(TdsvError):
    """No transcript for a test utterance that must pass the phrase gate."""


class MissingModel(TdsvError):
    """Trial references an enrollment model id with no enrollmap entry."""


class DuplicateId(TdsvError):
    """An id that must be unique within its table appeared twice."""


# -- metrics preconditions ---------------------------------------------------

class NoTargets(TdsvError):
    """Score set contains no target (TC) trials."""


class NoNonTargets(TdsvError):
    """Score set contains no non-target (TW/IC/IW) trials."""


class UnlabeledRecords(TdsvError):
    """A score record required a trial label and none was available."""


class EmptySide(TdsvError):
    """Subset selection left zero targets or zero non-targets."""


# -- configuration -----------------------------------------------------------

class ConfigInvalid(TdsvError):
    """A configuration field failed validation; message names the field."""


# -- file parsing ------------------------------------------------------------

class ParseError(TdsvError):
    """Base for per-line file diagnostics; message carries path and line:
    `<path>:<line_no>: <detail>`."""

    def __init__(self, path, line_no, detail):
        super().__init__(f"{path}:{line_no}: {detail}")
        self.path = str(path)
        self.line_no = line_no
        self.detail = detail

    def __reduce__(self):
        # pickle calls the class with these arguments, not with the message
        return type(self), (self.path, self.line_no, self.detail), self.__dict__


class BadHeader(ParseError):
    """Embedding file does not start with a valid `#dim <D>` header."""


class DimMismatch(ParseError):
    """Embedding row has a different number of values than the declared dim."""


class UnparseableFloat(ParseError):
    """A value field is not a finite decimal float."""


class BadRepCount(ParseError):
    """Enrollmap entry does not list exactly three repetition ids."""


class BadLabel(ParseError):
    """Trial label is not one of TC, TW, IC, IW."""


class MalformedLine(ParseError):
    """Line does not match the record layout for its file type."""
