"""Tokenizer tests."""

import pytest

from repro.errors import LexError
from repro.sql.lexer import Token, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def values(text):
    return [t.value for t in tokenize(text)]


def test_keywords_case_insensitive():
    assert values("SELECT select SeLeCt") == ["select", "select", "select"]
    assert all(t.kind == "KEYWORD" for t in tokenize("SELECT select"))


def test_identifiers_preserve_case():
    tokens = tokenize("Emp DEPT x_1")
    assert [t.value for t in tokens] == ["Emp", "DEPT", "x_1"]
    assert all(t.kind == "IDENT" for t in tokens)


def test_integer_literals():
    tokens = tokenize("0 42 1000")
    assert [t.value for t in tokens] == ["0", "42", "1000"]
    assert all(t.kind == "INT" for t in tokens)


def test_string_literals():
    tokens = tokenize("'hello' 'a b c'")
    assert [t.value for t in tokens] == ["hello", "a b c"]
    assert all(t.kind == "STRING" for t in tokens)


def test_unterminated_string_raises():
    with pytest.raises(LexError):
        tokenize("'oops")


def test_unterminated_string_at_newline_raises():
    with pytest.raises(LexError):
        tokenize("'oops\nnext'x")


def test_line_comments_are_skipped():
    tokens = tokenize("SELECT -- the projection\n *")
    assert [t.kind for t in tokens] == ["KEYWORD", "STAR"]


def test_comparison_operators():
    assert values("= <> <= >= < > == !=") == [
        "=", "<>", "<=", ">=", "<", ">", "==", "<>",
    ]


def test_generic_schema_marker():
    tokens = tokenize("(a:int, ??)")
    assert "QQ" in [t.kind for t in tokens]


def test_punctuation_kinds():
    assert kinds("( ) , ; . * : + - /") == [
        "LPAREN", "RPAREN", "COMMA", "SEMI", "DOT", "STAR", "COLON",
        "PLUS", "MINUS", "SLASH",
    ]


def test_line_and_column_tracking():
    tokens = tokenize("SELECT\n  x")
    assert tokens[0].line == 1 and tokens[0].column == 1
    assert tokens[1].line == 2 and tokens[1].column == 3


def test_invalid_character_raises_with_position():
    with pytest.raises(LexError) as err:
        tokenize("SELECT @")
    assert err.value.line == 1
    assert err.value.column == 8


def test_token_is_keyword_helper():
    token = tokenize("FROM")[0]
    assert token.is_keyword("from")
    assert not token.is_keyword("select")
    assert not token.is_keyword("FROM")  # keyword values are lower-cased
    assert not Token("IDENT", "from", 1, 1).is_keyword("from")


def test_tokens_compare_by_value():
    first, second = tokenize("SELECT x"), tokenize("SELECT x")
    assert first == second and first[0] is not second[0]
    assert first == [Token("KEYWORD", "select", 1, 1), Token("IDENT", "x", 1, 8)]
    assert Token("IDENT", "x", 1, 8) == Token(kind="IDENT", value="x", line=1, column=8)
    assert Token("IDENT", "x", 1, 8) != Token("IDENT", "x", 1, 9)
    assert Token("IDENT", "x", 1, 8) != Token("STRING", "x", 1, 8)


def test_token_str_shows_kind_and_value():
    assert str(Token("IDENT", "x", 1, 8)) == "IDENT('x')"
    assert [str(t) for t in tokenize("a <> 'b c'")] == [
        "IDENT('a')", "OP('<>')", "STRING('b c')",
    ]


def test_tokens_are_immutable():
    token = tokenize("x")[0]
    with pytest.raises(AttributeError):
        token.kind = "KEYWORD"


def test_qualified_column_tokens():
    assert kinds("x.a") == ["IDENT", "DOT", "IDENT"]


def test_empty_input():
    assert tokenize("") == []


def test_whitespace_only_input():
    assert tokenize("  \t \n ") == []
