"""Tokenizer for the SQL fragment and the declaration language.

The lexer is deliberately small: identifiers/keywords, integer and string
literals, punctuation, comparison operators, the generic-schema marker ``??``,
and SQL line comments (``--``).  Keywords are matched case-insensitively, and
the original spelling of identifiers is preserved (SQL identifiers here are
case-sensitive, matching the paper's Cosette input files).
"""

from __future__ import annotations

from typing import Iterator, List, NamedTuple

from repro.errors import LexError

#: Keywords of the combined query + declaration language.
KEYWORDS = frozenset(
    {
        "select",
        "distinct",
        "from",
        "where",
        "group",
        "by",
        "union",
        "all",
        "except",
        "exists",
        "not",
        "and",
        "or",
        "true",
        "false",
        "as",
        "schema",
        "table",
        "key",
        "foreign",
        "references",
        "view",
        "index",
        "on",
        "verify",
        "like",
        "having",
        "intersect",
        "in",
    }
)

_PUNCT = {
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ";": "SEMI",
    ".": "DOT",
    "*": "STAR",
    ":": "COLON",
    "+": "PLUS",
    "-": "MINUS",
    "/": "SLASH",
}


class Token(NamedTuple):
    """A lexical token.

    A named tuple, not a :func:`~repro.hashcons.frozen_node`: the parser
    only reads a token's fields, nothing hashes or fingerprints one, and a
    tuple costs less than half as much to build (every query's text is
    lexed again on a cold compile).

    Attributes:
        kind: one of ``IDENT``, ``KEYWORD``, ``INT``, ``STRING``, ``OP``,
            ``QQ`` (the ``??`` marker), or a punctuation kind from ``_PUNCT``.
        value: the token text; keywords are lower-cased.
        line: 1-based source line.
        column: 1-based source column.
    """

    kind: str
    value: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind == "KEYWORD" and self.value == word

    def __str__(self) -> str:
        return f"{self.kind}({self.value!r})"


def tokenize(text: str) -> List[Token]:
    """Tokenize ``text``; raises :class:`LexError` on invalid input."""
    return list(_scan(text))


def _scan(text: str) -> Iterator[Token]:
    i = 0
    line = 1
    col = 1
    n = len(text)
    while i < n:
        ch = text[i]
        # Whitespace and newlines.
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        # Line comments: -- to end of line.
        if ch == "-" and i + 1 < n and text[i + 1] == "-":
            while i < n and text[i] != "\n":
                i += 1
            continue
        # String literals in single quotes.
        if ch == "'":
            j = i + 1
            while j < n and text[j] != "'":
                if text[j] == "\n":
                    raise LexError("unterminated string literal", line, col)
                j += 1
            if j >= n:
                raise LexError("unterminated string literal", line, col)
            yield Token("STRING", text[i + 1 : j], line, col)
            col += j - i + 1
            i = j + 1
            continue
        # Integer literals.
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield Token("INT", text[i:j], line, col)
            col += j - i
            i = j
            continue
        # Identifiers and keywords.
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word.lower() in KEYWORDS:
                yield Token("KEYWORD", word.lower(), line, col)
            else:
                yield Token("IDENT", word, line, col)
            col += j - i
            i = j
            continue
        # Multi-character operators.
        two = text[i : i + 2]
        if two == "??":
            yield Token("QQ", "??", line, col)
            i += 2
            col += 2
            continue
        if two in ("==", "<>", "<=", ">=", "!="):
            value = "<>" if two == "!=" else two
            yield Token("OP", value, line, col)
            i += 2
            col += 2
            continue
        if ch in ("=", "<", ">"):
            yield Token("OP", ch, line, col)
            i += 1
            col += 1
            continue
        if ch in _PUNCT:
            yield Token(_PUNCT[ch], ch, line, col)
            i += 1
            col += 1
            continue
        raise LexError(f"unexpected character {ch!r}", line, col)
