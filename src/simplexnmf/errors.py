"""Exception hierarchy.

Two broad families matter for callers (and for the CLI's exit codes):
``DataError`` for malformed or inconsistent input files, and
``NumericalError`` for failures of the iterative solvers themselves.
Precondition violations on plain function arguments raise the usual
``ValueError`` / ``IndexError``.
"""


class DataError(Exception):
    """Malformed or inconsistent input data (files, schemas, corpora)."""


class EntryError(DataError):
    """A count-matrix entry fault: ``fault`` is ``"index"`` (an index that
    is not a finite whole number, or is a string, an object or a bool),
    ``"range"``, ``"negative"``, ``"non-finite"`` or ``"duplicate"``, and
    ``entry`` the position of the entry in the arrays given to
    ``TermDocMatrix.from_arrays``."""

    def __init__(self, message: str, entry: int, fault: str):
        super().__init__(message)
        self.entry, self.fault = entry, fault


class NumericalError(Exception):
    """A solver or evaluator hit a numerically invalid state."""


class DeadTopicError(NumericalError):
    """A topic column collapsed to zero and cannot be updated or normalized."""

    def __init__(self, topic: int, detail: str = ""):
        self.topic = topic
        msg = f"dead topic {topic}"
        if detail:
            msg = f"{msg}: {detail}"
        super().__init__(msg)


class DegenerateColumnError(NumericalError):
    """A column that must be normalized sums to zero."""

    def __init__(self, column: int, what: str = "column"):
        self.column = column
        super().__init__(f"degenerate {what} {column}")


class InfiniteDivergenceError(NumericalError):
    """A positive count sits on a zero of the reconstruction."""

    def __init__(self, term: int, doc: int | None = None):
        self.term = term
        self.doc = doc
        where = f"(v={term}, d={doc})" if doc is not None else f"(v={term})"
        super().__init__(f"infinite divergence: zero reconstruction under a positive count at {where}")


class UnrepresentableTermError(NumericalError):
    """A term with observed counts has zero weight in every topic."""

    def __init__(self, term: int, doc: int | None = None):
        self.term = term
        self.doc = doc
        super().__init__(f"unrepresentable term {term}: zero weight in every topic but positive counts")


class MonotonicityError(NumericalError):
    """The objective moved the wrong way by more than the allowed slack."""
