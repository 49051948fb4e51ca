"""Exception hierarchy for the repro (UDP) library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch a single type at the API boundary.  The subtypes partition failures
by pipeline stage: lexing/parsing, name resolution, compilation to
U-expressions, and the decision procedure itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class LexError(ReproError):
    """Raised when the tokenizer encounters an invalid character sequence.

    Attributes:
        line: 1-based line number of the offending character.
        column: 1-based column number of the offending character.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(ReproError):
    """Raised when the parser cannot derive the input from the Fig. 2 grammar.

    Attributes:
        line: 1-based line number of the offending token.
        column: 1-based column number of the offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ResolutionError(ReproError):
    """Raised when an alias, attribute, table, or view cannot be resolved."""


class SchemaError(ReproError):
    """Raised for malformed or inconsistent schema declarations."""


class CompileError(ReproError):
    """Raised when a resolved SQL AST cannot be compiled to a U-expression."""


class UnsupportedFeatureError(CompileError):
    """Raised when a query uses SQL outside the supported Fig. 2 fragment.

    The paper's prototype rejects features such as ``NULL``, ``CASE``,
    arithmetic reasoning, and string casts; we surface the same boundary as a
    distinct error type so the evaluation harness can count "unsupported"
    separately from "unproved" (Fig. 5).
    """


class InputLimitError(UnsupportedFeatureError):
    """Raised when a query nests or chains past the parser's input caps.

    The caps (:data:`repro.sql.parser.MAX_NESTING_DEPTH`,
    :data:`repro.sql.parser.MAX_CHAIN_TERMS`) keep every later recursive
    stage inside Python's stack; a capped input is answered
    ``unsupported`` with the ``input-limit`` reason code instead of
    overflowing into an internal error.
    """


class EvaluationError(ReproError):
    """Raised by the concrete bag-semantics engine for runtime errors."""


class DecisionTimeout(ReproError):
    """Raised when the decision procedure exceeds its configured budget."""
